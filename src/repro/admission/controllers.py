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

from collections import defaultdict
from typing import Dict, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.analysis.chernoff import max_admissible_calls, overload_probability


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
        self._tracker = _ReservationTracker()
        # Per-call accumulated seconds at each level, plus the open segment.
        self._history: Dict[object, Dict[float, float]] = {}
        self._segment_start: Dict[object, float] = {}
        self._departed_mass: Dict[float, float] = defaultdict(float)

    @property
    def num_active(self) -> int:
        return self._tracker.num_active

    # ------------------------------------------------------------------
    def _close_segment(self, call_id, time: float) -> None:
        start = self._segment_start.get(call_id)
        if start is None:
            return
        rate = self._tracker.current_rate.get(call_id)
        if rate is None:
            return
        elapsed = max(0.0, time - start)
        if elapsed > 0.0:
            self._history[call_id][rate] += elapsed
        self._segment_start[call_id] = time

    def pooled_history(
        self, time: float
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """(levels, fractions) pooled over the tracked call histories."""
        mass: Dict[float, float] = defaultdict(float)
        mass.update(self._departed_mass)
        for call_id in self._history:
            self._close_segment(call_id, time)
            for level, seconds in self._history[call_id].items():
                mass[level] += seconds
        total = sum(mass.values())
        if total <= max(self.min_history_seconds, 0.0):
            return None
        levels = np.asarray(sorted(mass), dtype=float)
        fractions = np.asarray([mass[level] for level in levels]) / total
        return levels, fractions

    # ------------------------------------------------------------------
    def admit(self, capacity: float, time: float, call_class: int = 0) -> bool:
        active = self._tracker.num_active
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
        self._tracker.on_admit(call_id, initial_rate, time)
        self._history[call_id] = defaultdict(float)
        self._segment_start[call_id] = time

    def on_reservation(self, call_id, new_rate: float, time: float) -> None:
        self._close_segment(call_id, time)
        self._tracker.on_reservation(call_id, new_rate, time)

    def on_departure(self, call_id, time: float) -> None:
        self._close_segment(call_id, time)
        self._tracker.on_departure(call_id, time)
        history = self._history.pop(call_id, None)
        self._segment_start.pop(call_id, None)
        if self.retain_departed and history:
            for level, seconds in history.items():
                self._departed_mass[level] += seconds


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

    def on_departure(self, call_id, time: float) -> None:
        self._tracker.on_departure(call_id, time)
        call_class = self._class_of.pop(call_id, None)
        if call_class is not None:
            self._counts[call_class] -= 1
