"""Admission controllers for RCBR (Section VI).

Four controllers, all sharing one interface so the call-level simulator
can swap them:

* :class:`AlwaysAdmit` — no admission control (baseline);
* :class:`PerfectKnowledgeCAC` — knows the true per-call bandwidth
  marginal in advance and admits up to the Chernoff-computed maximum;
  "the optimal controller having perfect knowledge";
* :class:`MemorylessMBAC` — the certainty-equivalent scheme: estimates
  the marginal from a *snapshot* of the rates currently reserved by
  active calls, then applies the same Chernoff test.  The paper shows
  this is not robust (Figs. 7-8);
* :class:`MemoryMBAC` — the paper's fix: accumulate the reservation
  *history* (time-weighted bandwidth-level occupancy) of the calls in the
  system and use the pooled history as the marginal estimate.

Controllers observe the system through callbacks (`on_admit`,
`on_reservation`, `on_departure`) so they never peek at simulator
internals they could not see in a real switch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.analysis.chernoff import max_admissible_calls, overload_probability

#: Initial row and level capacity of :class:`MemoryMBAC`'s columns.
_MBAC_MIN_ROWS = 64
_MBAC_MIN_LEVELS = 16


class AdmissionController(Protocol):
    """What the call-level simulator requires of a controller.

    ``call_class`` identifies the arriving call's traffic class in
    heterogeneous scenarios; homogeneous controllers ignore it.
    """

    def admit(self, capacity: float, time: float, call_class: int = 0) -> bool:
        """Decide whether to accept a new call arriving now."""

    def on_admit(
        self, call_id, initial_rate: float, time: float, call_class: int = 0
    ) -> None:
        """A new call was accepted and reserved ``initial_rate``."""

    def on_reservation(self, call_id, new_rate: float, time: float) -> None:
        """An active call renegotiated to ``new_rate``."""

    def on_reservation_batch(self, call_ids, new_rates, time: float) -> None:
        """Distinct active calls renegotiated at the same ``time``;
        equal to one :meth:`on_reservation` per pair, in order."""

    def on_departure(self, call_id, time: float) -> None:
        """An active call left the system."""


class _ReservationTracker:
    """Shared bookkeeping: the controller-visible view of active calls."""

    def __init__(self) -> None:
        self.current_rate: Dict[object, float] = {}

    @property
    def num_active(self) -> int:
        return len(self.current_rate)

    def snapshot(self) -> Tuple[np.ndarray, np.ndarray]:
        """(levels, fractions) of the rates reserved right now."""
        rates = np.asarray(list(self.current_rate.values()), dtype=float)
        levels, counts = np.unique(rates, return_counts=True)
        return levels, counts / counts.sum()

    def on_admit(
        self, call_id, initial_rate: float, time: float, call_class: int = 0
    ) -> None:
        self.current_rate[call_id] = initial_rate

    def on_reservation(self, call_id, new_rate: float, time: float) -> None:
        if call_id in self.current_rate:
            self.current_rate[call_id] = new_rate

    def on_reservation_batch(self, call_ids, new_rates, time: float) -> None:
        """One epoch's renegotiation outcomes at once.

        Equivalent to one :meth:`on_reservation` per pair *provided
        every call id is currently tracked* — the gateway's batched
        commit guarantees that (stale completions are filtered before the
        batch), and a plain ``dict.update`` is then identical to the
        guarded per-call writes while being ~10x cheaper at the 1M-call
        scale's ~40k renegotiations per epoch.  Accepts numpy arrays;
        the ``tolist`` keeps the dict holding Python ints and floats,
        same as the scalar writes.
        """
        self.current_rate.update(
            zip(np.asarray(call_ids).tolist(), np.asarray(new_rates).tolist())
        )

    def on_departure(self, call_id, time: float) -> None:
        self.current_rate.pop(call_id, None)


class AlwaysAdmit:
    """Admit everything; failures are whatever the link produces."""

    def __init__(self) -> None:
        self._tracker = _ReservationTracker()

    @property
    def num_active(self) -> int:
        return self._tracker.num_active

    def admit(self, capacity: float, time: float, call_class: int = 0) -> bool:
        return True

    def on_admit(
        self, call_id, initial_rate: float, time: float, call_class: int = 0
    ) -> None:
        self._tracker.on_admit(call_id, initial_rate, time)

    def on_reservation(self, call_id, new_rate: float, time: float) -> None:
        self._tracker.on_reservation(call_id, new_rate, time)

    def on_reservation_batch(self, call_ids, new_rates, time: float) -> None:
        # Always-admit never reads the tracked rates: admission is
        # unconditional, ``num_active`` is membership (keyed by
        # admit/departure alone), and the rate-distribution snapshot
        # belongs to the measuring controllers.  Refreshing ~40k dict
        # values per epoch against a 1M-entry table is therefore pure
        # overhead on the gateway's realtime budget — skip it.
        pass

    def on_departure(self, call_id, time: float) -> None:
        self._tracker.on_departure(call_id, time)


class PerfectKnowledgeCAC:
    """Chernoff admission with the true marginal known a priori.

    "The maximum number of calls the system can carry for a given
    threshold on the renegotiation failure probability can be computed,
    and new calls will be rejected when this number is exceeded" — note
    that calls are denied even when capacity is available, to guard
    against future fluctuations.
    """

    def __init__(
        self,
        levels: Sequence[float],
        fractions: Sequence[float],
        failure_target: float,
    ) -> None:
        self.levels = np.asarray(levels, dtype=float)
        self.fractions = np.asarray(fractions, dtype=float)
        if not 0.0 < failure_target < 1.0:
            raise ValueError("failure_target must be in (0, 1)")
        self.failure_target = failure_target
        self._tracker = _ReservationTracker()
        self._max_calls_cache: Dict[float, int] = {}

    @property
    def num_active(self) -> int:
        return self._tracker.num_active

    def max_calls(self, capacity: float) -> int:
        if capacity not in self._max_calls_cache:
            self._max_calls_cache[capacity] = max_admissible_calls(
                self.levels, self.fractions, capacity, self.failure_target
            )
        return self._max_calls_cache[capacity]

    def admit(self, capacity: float, time: float, call_class: int = 0) -> bool:
        return self._tracker.num_active + 1 <= self.max_calls(capacity)

    def on_admit(
        self, call_id, initial_rate: float, time: float, call_class: int = 0
    ) -> None:
        self._tracker.on_admit(call_id, initial_rate, time)

    def on_reservation(self, call_id, new_rate: float, time: float) -> None:
        self._tracker.on_reservation(call_id, new_rate, time)

    def on_reservation_batch(self, call_ids, new_rates, time: float) -> None:
        self._tracker.on_reservation_batch(call_ids, new_rates, time)

    def on_departure(self, call_id, time: float) -> None:
        self._tracker.on_departure(call_id, time)


class MemorylessMBAC:
    """The certainty-equivalent, memoryless measurement-based controller.

    On each arrival it builds the empirical distribution of *currently*
    reserved rates, pretends it is the true marginal, and runs the
    Chernoff test for one more call.  An empty system admits
    unconditionally (there is nothing to measure).
    """

    def __init__(self, failure_target: float) -> None:
        if not 0.0 < failure_target < 1.0:
            raise ValueError("failure_target must be in (0, 1)")
        self.failure_target = failure_target
        self._tracker = _ReservationTracker()

    @property
    def num_active(self) -> int:
        return self._tracker.num_active

    def admit(self, capacity: float, time: float, call_class: int = 0) -> bool:
        active = self._tracker.num_active
        if active == 0:
            return True
        levels, fractions = self._tracker.snapshot()
        estimate = overload_probability(levels, fractions, active + 1, capacity)
        return estimate <= self.failure_target

    def on_admit(
        self, call_id, initial_rate: float, time: float, call_class: int = 0
    ) -> None:
        self._tracker.on_admit(call_id, initial_rate, time)

    def on_reservation(self, call_id, new_rate: float, time: float) -> None:
        self._tracker.on_reservation(call_id, new_rate, time)

    def on_reservation_batch(self, call_ids, new_rates, time: float) -> None:
        self._tracker.on_reservation_batch(call_ids, new_rates, time)

    def on_departure(self, call_id, time: float) -> None:
        self._tracker.on_departure(call_id, time)


class MemoryMBAC:
    """Measurement-based admission with reservation history (the robust fix).

    "We advocate the use of memory, i.e., history about the past
    bandwidth of calls ... we keep track of how often each bandwidth
    level has been reserved by any of the calls currently in the system
    ... we accumulate information about the entire history of each call
    present in the system."  Each call contributes the time-weighted
    histogram of every level it has held; the pooled histogram is the
    marginal estimate.

    With ``retain_departed`` (the default), completed calls' histograms
    stay in the pool, so the estimate converges to the true per-call
    marginal as call-time accumulates — the long-run behaviour matches
    the perfect-knowledge controller.  Set it to False to keep only the
    calls currently in the system (strictly the truncated sentence's
    reading); that variant is more adaptive but noisier on small links.

    Young systems (less than ``min_history_seconds`` of accumulated
    call-time) fall back to admitting, like the memoryless scheme with an
    empty snapshot.

    The histories live in columns: ``seconds[level, row]`` holds each
    call's accumulated time at each level, row 0 the departed mass and
    the other rows the calls in admission order; each row keeps its open
    segment (start, level), and each (level, row) key its creation
    stamp.  Every estimate equals, bit for bit, the one the plain
    per-call ``{level: seconds}`` dict walk gives
    (``tests/mbac_reference.py``; DESIGN.md, "MBAC").
    """

    def __init__(
        self,
        failure_target: float,
        min_history_seconds: float = 0.0,
        retain_departed: bool = True,
    ) -> None:
        if not 0.0 < failure_target < 1.0:
            raise ValueError("failure_target must be in (0, 1)")
        if min_history_seconds < 0:
            raise ValueError("min_history_seconds must be non-negative")
        self.failure_target = failure_target
        self.min_history_seconds = min_history_seconds
        self.retain_departed = retain_departed
        self._build_columns(_MBAC_MIN_ROWS, _MBAC_MIN_LEVELS)

    def _build_columns(self, rows: int, levels: int) -> None:
        # Departed calls' rows are tombstoned (not live, zeroed) until
        # compaction squeezes them out.
        self._row_of: Dict[object, int] = {}
        self._call_ids: List[object] = [None]
        self._live = np.zeros(rows, dtype=bool)
        self._start = np.zeros(rows)
        self._level = np.zeros(rows, dtype=np.intp)
        # Level-major, so each level's rows are contiguous for the fold
        # and the first-holder search.
        self._seconds = np.zeros((levels, rows))
        self._held = np.zeros((levels, rows), dtype=bool)
        # Creation order of each held key.  Compared within a row only,
        # so one batch may stamp many rows alike.
        self._stamp = np.zeros((levels, rows), dtype=np.int64)
        self._next_stamp = 0
        self._level_index: Dict[float, int] = {}
        self._level_values = np.zeros(levels)
        # Departed levels in the order they first received mass.
        self._departed_keys: List[int] = []

    @property
    def num_active(self) -> int:
        return len(self._row_of)

    # ------------------------------------------------------------------
    def _level_of(self, rate: float) -> int:
        index = self._level_index.get(rate)
        if index is None:
            index = len(self._level_index)
            if index == self._level_values.size:
                self._resize(self._live.size, 2 * index)
            self._level_index[rate] = index
            self._level_values[index] = rate
        return index

    def _resize(self, rows: int, levels: int) -> None:
        used_rows = len(self._call_ids)
        used_levels = len(self._level_index)
        for name in ("_live", "_start", "_level"):
            old = getattr(self, name)
            new = np.zeros(rows, dtype=old.dtype)
            new[:used_rows] = old[:used_rows]
            setattr(self, name, new)
        for name in ("_seconds", "_held", "_stamp"):
            old = getattr(self, name)
            new = np.zeros((levels, rows), dtype=old.dtype)
            new[:used_levels, :used_rows] = old[:used_levels, :used_rows]
            setattr(self, name, new)
        values = self._level_values
        self._level_values = np.zeros(levels)
        self._level_values[:used_levels] = values[:used_levels]

    def _close_row(self, row: int, time: float) -> None:
        """Close one call's open segment at ``time``."""
        elapsed = time - self._start[row]
        if elapsed > 0.0:
            level = self._level[row]
            self._seconds[level, row] += elapsed
            if not self._held[level, row]:
                self._held[level, row] = True
                self._stamp[level, row] = self._next_stamp
                self._next_stamp += 1
        self._start[row] = time

    def _close_rows(self, rows: np.ndarray, time: float) -> None:
        """:meth:`_close_row` over distinct ``rows`` as one masked add."""
        elapsed = time - self._start[rows]
        closing = elapsed > 0.0
        if closing.any():
            closed = rows[closing]
            levels = self._level[closed]
            self._seconds[levels, closed] += elapsed[closing]
            fresh = ~self._held[levels, closed]
            if fresh.any():
                levels, closed = levels[fresh], closed[fresh]
                self._held[levels, closed] = True
                self._stamp[levels, closed] = self._next_stamp
                self._next_stamp += 1
        self._start[rows] = time

    def pooled_history(
        self, time: float
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """(levels, fractions) pooled over the tracked call histories."""
        used = len(self._call_ids)
        self._close_rows(np.flatnonzero(self._live[:used]), time)
        width = len(self._level_index)
        # Each level's mass is a strict left fold along its rows,
        # departed row first — the dict walk's ``mass[level] += seconds``
        # in admission order.  Absent keys hold 0.0, which adds exactly.
        mass = np.cumsum(self._seconds[:width, :used], axis=1)[:, -1]
        # The total sums the masses in the pooled dict's key order:
        # departed keys first, then the others by (first row holding the
        # key, creation stamp within that row).
        held = self._held[:width, :used]
        first = held.argmax(axis=1)
        levels = np.arange(width)
        present = held[levels, first]
        others = np.flatnonzero(present & (first > 0))
        first = first[others]
        others = others[np.lexsort((self._stamp[others, first], first))]
        order = self._departed_keys + others.tolist()
        total = sum(mass[order].tolist())
        if total <= max(self.min_history_seconds, 0.0):
            return None
        keys = levels[present]
        values = self._level_values[keys]
        by_value = np.argsort(values, kind="stable")
        return values[by_value], mass[keys[by_value]] / total

    # ------------------------------------------------------------------
    def admit(self, capacity: float, time: float, call_class: int = 0) -> bool:
        active = len(self._row_of)
        if active == 0:
            return True
        pooled = self.pooled_history(time)
        if pooled is None:
            return True
        levels, fractions = pooled
        estimate = overload_probability(levels, fractions, active + 1, capacity)
        return estimate <= self.failure_target

    def on_admit(
        self, call_id, initial_rate: float, time: float, call_class: int = 0
    ) -> None:
        level = self._level_of(initial_rate)
        row = self._row_of.get(call_id)
        if row is None:
            row = len(self._call_ids)
            if row == self._live.size:
                self._resize(2 * row, self._level_values.size)
            self._call_ids.append(call_id)
            self._row_of[call_id] = row
            self._live[row] = True
        else:
            # Re-admitting a tracked call restarts its history in place.
            self._seconds[:, row] = 0.0
            self._held[:, row] = False
        self._start[row] = time
        self._level[row] = level

    def on_reservation(self, call_id, new_rate: float, time: float) -> None:
        row = self._row_of.get(call_id)
        if row is None:
            return
        self._close_row(row, time)
        self._level[row] = self._level_of(new_rate)

    def on_reservation_batch(self, call_ids, new_rates, time: float) -> None:
        """One :meth:`on_reservation` per pair, as one masked add.

        The call ids must be distinct: each row then closes and moves
        once, and it stamps at most one new key, so the shared stamp
        orders that row's keys as the per-call loop would.
        """
        row_of = self._row_of
        rows = np.fromiter(
            (row_of.get(call_id, 0) for call_id in np.asarray(call_ids).tolist()),
            dtype=np.intp,
        )
        tracked = rows > 0
        rates, inverse = np.unique(
            np.asarray(new_rates, dtype=float)[tracked], return_inverse=True
        )
        levels = np.fromiter(
            (self._level_of(rate) for rate in rates.tolist()),
            dtype=np.intp,
            count=rates.size,
        )
        rows = rows[tracked]
        self._close_rows(rows, time)
        self._level[rows] = levels[inverse]

    def on_departure(self, call_id, time: float) -> None:
        row = self._row_of.pop(call_id, None)
        if row is None:
            return
        self._close_row(row, time)
        width = len(self._level_index)
        seconds, held = self._seconds[:width], self._held[:width]
        if self.retain_departed:
            # The row's keys the departed mass lacks join its key order
            # in the row's creation order.
            keys = np.flatnonzero(held[:, row] & ~held[:, 0])
            keys = keys[np.argsort(self._stamp[keys, row])]
            held[keys, 0] = True
            self._departed_keys.extend(keys.tolist())
            seconds[:, 0] += seconds[:, row]
        seconds[:, row] = 0.0
        held[:, row] = False
        self._live[row] = False
        self._call_ids[row] = None
        live = len(self._row_of)
        if len(self._call_ids) - 1 - live > max(live // 8, _MBAC_MIN_ROWS):
            self._compact()

    def _compact(self) -> None:
        """Squeeze out tombstoned rows, keeping admission order."""
        used = len(self._call_ids)
        width = len(self._level_index)
        keep = np.flatnonzero(self._live[:used])
        kept = keep.size + 1
        for column in (self._live, self._start, self._level):
            column[1:kept] = column[keep]
        for matrix in (self._seconds, self._held, self._stamp):
            matrix[:width, 1:kept] = matrix[:width, keep]
        self._live[kept:used] = False
        self._seconds[:width, kept:used] = 0.0
        self._held[:width, kept:used] = False
        self._call_ids = [None] + [self._call_ids[row] for row in keep.tolist()]
        self._row_of = dict(zip(self._call_ids[1:], range(1, kept)))

    # ------------------------------------------------------------------
    # Checkpoint state: the live rows only, each as its (level, seconds)
    # keys in creation order; the dense columns are rebuilt on load.
    def __getstate__(self) -> Dict[str, object]:
        rows = np.flatnonzero(self._live[: len(self._call_ids)])
        width = len(self._level_index)
        key_level, key_row = np.nonzero(self._held[:width, rows])
        stamp = self._stamp[key_level, rows[key_row]]
        in_order = np.lexsort((stamp, key_row))
        key_level, key_row = key_level[in_order], key_row[in_order]
        departed = np.asarray(self._departed_keys, dtype=np.intp)
        return {
            "failure_target": self.failure_target,
            "min_history_seconds": self.min_history_seconds,
            "retain_departed": self.retain_departed,
            "levels": self._level_values[:width].copy(),
            "call_ids": [self._call_ids[row] for row in rows.tolist()],
            "start": self._start[rows],
            "level": self._level[rows].astype(np.int32),
            "keys_per_row": np.bincount(key_row, minlength=rows.size).astype(
                np.int32
            ),
            "key_level": key_level.astype(np.int32),
            "key_seconds": self._seconds[key_level, rows[key_row]],
            "departed_level": departed.astype(np.int32),
            "departed_seconds": self._seconds[departed, 0],
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.failure_target = state["failure_target"]
        self.min_history_seconds = state["min_history_seconds"]
        self.retain_departed = state["retain_departed"]
        levels = state["levels"]
        call_ids = state["call_ids"]
        self._build_columns(
            max(_MBAC_MIN_ROWS, 2 * (len(call_ids) + 1)),
            max(_MBAC_MIN_LEVELS, 2 * levels.size),
        )
        for level in levels.tolist():
            self._level_of(level)
        rows = np.arange(1, len(call_ids) + 1)
        self._call_ids.extend(call_ids)
        self._row_of = dict(zip(call_ids, rows.tolist()))
        self._live[rows] = True
        self._start[rows] = state["start"]
        self._level[rows] = state["level"]
        counts = state["keys_per_row"]
        key_row = np.repeat(rows, counts)
        key_level = state["key_level"]
        self._seconds[key_level, key_row] = state["key_seconds"]
        self._held[key_level, key_row] = True
        # Stamps restart at each key's rank within its row.
        self._stamp[key_level, key_row] = np.arange(key_row.size) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        self._next_stamp = int(counts.max()) if counts.size else 0
        departed = state["departed_level"]
        self._departed_keys = departed.tolist()
        self._seconds[departed, 0] = state["departed_seconds"]
        self._held[departed, 0] = True


class HeterogeneousKnowledgeCAC:
    """Chernoff admission for a mix of call classes with known marginals.

    Extension beyond the paper's homogeneous setting: the link carries
    several traffic classes (different movies, or video plus audio), each
    with its own bandwidth marginal.  Admission evaluates the mixture
    Chernoff bound (:func:`repro.analysis.chernoff.heterogeneous_overload_probability`)
    with the arriving call added to its class.
    """

    def __init__(
        self,
        class_marginals: Sequence[Tuple[Sequence[float], Sequence[float]]],
        failure_target: float,
    ) -> None:
        if not class_marginals:
            raise ValueError("need at least one class marginal")
        if not 0.0 < failure_target < 1.0:
            raise ValueError("failure_target must be in (0, 1)")
        self.class_marginals = [
            (np.asarray(levels, dtype=float), np.asarray(probs, dtype=float))
            for levels, probs in class_marginals
        ]
        self.failure_target = failure_target
        self._tracker = _ReservationTracker()
        self._class_of: Dict[object, int] = {}
        self._counts = [0] * len(self.class_marginals)

    @property
    def num_active(self) -> int:
        return self._tracker.num_active

    def class_counts(self) -> Tuple[int, ...]:
        return tuple(self._counts)

    def admit(self, capacity: float, time: float, call_class: int = 0) -> bool:
        from repro.analysis.chernoff import heterogeneous_overload_probability

        if not 0 <= call_class < len(self.class_marginals):
            raise ValueError(f"unknown call class {call_class}")
        tentative = list(self._counts)
        tentative[call_class] += 1
        classes = [
            (levels, probs, count)
            for (levels, probs), count in zip(self.class_marginals, tentative)
            if count > 0
        ]
        estimate = heterogeneous_overload_probability(classes, capacity)
        return estimate <= self.failure_target

    def on_admit(
        self, call_id, initial_rate: float, time: float, call_class: int = 0
    ) -> None:
        self._tracker.on_admit(call_id, initial_rate, time)
        self._class_of[call_id] = call_class
        self._counts[call_class] += 1

    def on_reservation(self, call_id, new_rate: float, time: float) -> None:
        self._tracker.on_reservation(call_id, new_rate, time)

    def on_reservation_batch(self, call_ids, new_rates, time: float) -> None:
        self._tracker.on_reservation_batch(call_ids, new_rates, time)

    def on_departure(self, call_id, time: float) -> None:
        self._tracker.on_departure(call_id, time)
        call_class = self._class_of.pop(call_id, None)
        if call_class is not None:
            self._counts[call_class] -= 1
