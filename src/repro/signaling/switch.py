"""Switch-port renegotiation processing (Section III-B).

The controller's fast path is two lookups and one comparison: "it checks
if the current port utilization plus the rate difference is less than the
port capacity.  If this is true, then the renegotiation request succeeds,
and the VCI and port statistics are updated.  Otherwise, the controller
modifies the ER field to deny the request."

Delta cells need no per-VCI state — only the aggregate utilization is
updated, which is the scaling argument of Section III-C ("RCBR support
does not require per-VCI state").  Absolute (resynchronisation) cells do
consult an optional per-VCI table; a port configured without one simply
treats them as refreshes of its aggregate from the table-less delta flow.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.signaling.messages import CellKind, RmCell

#: Iteration cap for the batched denial fixpoint.  Each pass re-decides
#: every increase against its exact prefix utilization; real epochs
#: settle in two or three passes, and non-convergence just falls back
#: to the per-cell path, so the cap only bounds pathological ping-pong.
# Block length for the denial fixpoint in delta_batch_apply.  Each
# round's cost is a cumsum over the block, and rounds scale with the
# number of denials inside the block, so blocking bounds total work at
# O(denials * block) instead of O(denials * batch).  The left-collapse
# progress guarantee (>= 1 decision per round) caps rounds per block at
# the block length, so convergence never depends on a tuned limit.
FIXPOINT_BLOCK = 2048


class SwitchPort:
    """One output port: capacity, aggregate utilization, counters."""

    def __init__(
        self,
        capacity: float,
        name: str = "port",
        track_per_vci: bool = True,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = float(capacity)
        self.name = name
        self.utilization = 0.0
        self.track_per_vci = track_per_vci
        self._vci_rates: Optional[Dict[int, float]] = {} if track_per_vci else None
        self._outages: List[Tuple[float, float]] = []
        self.cells_processed = 0
        self.requests_denied = 0

    # ------------------------------------------------------------------
    @property
    def headroom(self) -> float:
        return self.capacity - self.utilization

    def rate_of(self, vci: int) -> Optional[float]:
        if self._vci_rates is None:
            return None
        return self._vci_rates.get(vci)

    # ------------------------------------------------------------------
    # Transient outages
    # ------------------------------------------------------------------
    def schedule_outage(self, start: float, end: float) -> None:
        """Declare the port unreachable during ``[start, end)``.

        Cells arriving while a port is down are silently eaten by the
        path (no deny cell returns), so the source only learns of the
        failure via its request timeout.  Reservations survive an outage
        — only the control plane is down.
        """
        if start < 0 or end <= start:
            raise ValueError("need 0 <= start < end")
        self._outages.append((float(start), float(end)))
        self._outages.sort()

    def available_at(self, time: float) -> bool:
        if not self._outages:  # the common case, on every cell of every hop
            return True
        return not any(start <= time < end for start, end in self._outages)

    @property
    def has_outages(self) -> bool:
        """Whether any outage window is scheduled (past or future)."""
        return bool(self._outages)

    # ------------------------------------------------------------------
    def provision(self, vci: int, rate: float) -> None:
        """Install a connection's setup reservation directly.

        Call setup is the admission controller's decision, not the ER
        fast path's, so provisioning bypasses the capacity check: the
        port simply accounts the reserved rate so that subsequent delta
        cells see the true aggregate utilization.  A CAC that over-admits
        leaves the port above capacity, and every increase is then denied
        until departures bring the aggregate back down — which is exactly
        the back-pressure the renegotiation failure statistics measure.
        """
        if rate < 0:
            raise ValueError("rates must be non-negative")
        self.utilization += rate
        self._bump_vci(vci, rate)

    def reprovision(self, vci: int, delta: float) -> None:
        """Adjust a connection's reservation by ``delta`` switch-side.

        The overload control plane downgrades or restores granted rates
        at the link, not through the ER fast path, so the matching port
        accounting moves with it the same way :meth:`provision` does at
        setup: no capacity check, no denial — the plane has already
        decided.  Negative deltas free capacity immediately.
        """
        self.utilization = max(0.0, self.utilization + delta)
        self._bump_vci(vci, delta)

    def process(self, cell: RmCell) -> bool:
        """Apply one RM cell; returns True if this hop accepted it.

        A cell already denied upstream is forwarded untouched (the
        downstream hops must not commit resources for a doomed request).
        """
        self.cells_processed += 1
        if cell.denied:
            return False
        if cell.kind is CellKind.DELTA:
            return self._process_delta(cell)
        return self._process_absolute(cell)

    def _process_delta(self, cell: RmCell) -> bool:
        delta = cell.er
        if delta <= 0:
            # Decreases always succeed and free capacity immediately.
            self.utilization = max(0.0, self.utilization + delta)
            self._bump_vci(cell.vci, delta)
            return True
        if self.utilization + delta <= self.capacity + 1e-9:
            self.utilization += delta
            self._bump_vci(cell.vci, delta)
            return True
        self.requests_denied += 1
        return False

    def _process_absolute(self, cell: RmCell) -> bool:
        """Resynchronise a VCI to its true rate (needs the per-VCI table)."""
        if self._vci_rates is None:
            # Stateless port: cannot resolve the old rate; ignore silently
            # (the drift persists until a stateful hop or teardown).
            return True
        old = self._vci_rates.get(cell.vci, 0.0)
        delta = cell.er - old
        if delta <= 0 or self.utilization + delta <= self.capacity + 1e-9:
            self.utilization = max(0.0, self.utilization + delta)
            self._vci_rates[cell.vci] = cell.er
            return True
        self.requests_denied += 1
        return False

    def _bump_vci(self, vci: int, delta: float) -> None:
        if self._vci_rates is not None:
            new_rate = self._vci_rates.get(vci, 0.0) + delta
            if new_rate <= 1e-12:
                self._vci_rates.pop(vci, None)
            else:
                self._vci_rates[vci] = new_rate

    # ------------------------------------------------------------------
    # Batched delta processing (the gateway's epoch fast path)
    # ------------------------------------------------------------------
    def delta_batch_total(self, deltas: np.ndarray) -> Optional[float]:
        """Feasibility-check one epoch's delta cells as an exact fold.

        Evolves the utilization the scalar :meth:`_process_delta` loop
        would produce via ``np.cumsum`` — a strict left fold, so every
        prefix total is bit-identical to the running scalar value.
        Returns the final utilization iff every cell would be accepted
        *and* no decrease would engage the ``max(0.0, ...)`` clamp (a
        ``-0.0`` prefix counts as clamping: the scalar path normalises
        it to ``+0.0``); returns None otherwise, committing nothing, so
        the caller can fall back to the exact per-cell path.
        """
        totals = np.cumsum(np.concatenate(([self.utilization], deltas)))
        after = totals[1:]
        decreases = deltas <= 0.0
        if np.any(np.signbit(after[decreases])):
            return None
        if np.any(after[~decreases] > self.capacity + 1e-9):
            return None
        return float(totals[-1])

    def commit_delta_batch(
        self, vcis: Sequence, deltas: np.ndarray, total: float
    ) -> None:
        """Apply a batch vetted by :meth:`delta_batch_total`."""
        self.cells_processed += int(len(deltas))
        self.utilization = total
        self._bump_vci_batch(vcis, deltas)

    def delta_batch_apply(
        self, vcis: Sequence, deltas: np.ndarray
    ) -> Optional[np.ndarray]:
        """Resolve and commit one epoch's delta cells, denials included.

        Extends :meth:`delta_batch_total` from feasibility-check to the
        general case: the increases the scalar loop would deny are found
        by a bracketing fixpoint on the denied set.  Denying an entry
        only removes a positive delta, and IEEE addition is monotone, so
        the prefix utilizations are pointwise monotone *decreasing* in
        the denied set.  Each round therefore folds two ``np.cumsum``
        prefixes — an upper bound (only *confirmed* denials zeroed) and
        a lower bound (every still-undecided increase zeroed too) — and
        the sequential outcome is sandwiched between them: an increase
        that fits even at its upper prefix is confirmed accepted, and
        one that overflows even at its lower prefix is confirmed denied.
        The bracket collapses from the left — ahead of the first
        undecided entry everything is decided, so its two prefixes
        coincide and it is decided this round — hence no oscillation: a
        naive self-map on the denied set ping-pongs (denying one entry
        lets a later one in, which re-evicts another) precisely on the
        contended epochs this path exists for.  Once nothing is
        undecided, the confirmed set *is* the scalar loop's, each
        membership being forced by a bound the true prefix cannot cross,
        and the final fold (denied entries contribute ``0.0``, bit-exact
        on non-negative prefixes) commits.

        Rounds scale with the number of denials, and each round folds
        the whole span, so the fixpoint runs over ``FIXPOINT_BLOCK``
        slices: ``np.cumsum`` is a strict left fold, so carrying the
        running utilization from one block into the next replays the
        exact addition sequence of a single fold — work drops from
        O(denials * batch) to O(denials * block) with bit-identical
        results.  The left-collapse guarantee bounds rounds per block at
        the block length, so the sandwich always converges; the only
        remaining bail-out is a decrease prefix engaging the
        ``max(0.0, ...)`` clamp (``np.signbit`` — the only place a
        ``-0.0`` prefix can first appear), which returns None with
        nothing committed so the caller can replay the batch through the
        exact per-cell path.

        Returns the per-entry grant mask, or None.
        """
        count = int(len(deltas))
        increases = deltas > 0.0
        ceiling = self.capacity + 1e-9
        denied = np.zeros(count, dtype=bool)
        running = self.utilization
        start = 0
        while start < count:
            stop = min(start + FIXPOINT_BLOCK, count)
            block = deltas[start:stop]
            block_increases = increases[start:stop]
            length = stop - start
            block_denied = np.zeros(length, dtype=bool)
            undecided = block_increases.copy()
            effective = np.empty(length)
            head = np.empty(length + 1)
            head[0] = running
            for _ in range(length + 1):
                np.multiply(block, ~block_denied, out=effective)
                head[1:] = effective
                totals = np.cumsum(head)
                overflow_hi = totals[:-1] + block > ceiling
                undecided &= overflow_hi  # fits at upper bound: accepted
                if not undecided.any():
                    break
                np.multiply(
                    block, ~(block_denied | undecided), out=effective
                )
                head[1:] = effective
                lower = np.cumsum(head)
                confirmed = undecided & (lower[:-1] + block > ceiling)
                if confirmed.any():
                    block_denied |= confirmed
                    undecided &= ~confirmed
                    if not undecided.any():
                        np.multiply(block, ~block_denied, out=effective)
                        head[1:] = effective
                        totals = np.cumsum(head)
                        break
            if undecided.any():
                return None
            if np.any(np.signbit(totals[1:][~block_increases])):
                return None
            denied[start:stop] = block_denied
            running = float(totals[-1])
            start = stop
        granted = ~denied
        num_denied = count - int(np.count_nonzero(granted))
        self.cells_processed += count
        self.requests_denied += num_denied
        self.utilization = running
        if num_denied:
            self._bump_vci_batch(np.asarray(vcis)[granted], deltas[granted])
        else:
            self._bump_vci_batch(vcis, deltas)
        return granted

    def _bump_vci_batch(self, vcis: Sequence, deltas: np.ndarray) -> None:
        if self._vci_rates is None:
            return
        for index in range(len(deltas)):
            self._bump_vci(int(vcis[index]), float(deltas[index]))

    def rollback(self, cell: RmCell) -> None:
        """Undo a previously accepted increase (downstream hop denied)."""
        if cell.kind is not CellKind.DELTA or cell.er <= 0:
            return
        self.utilization = max(0.0, self.utilization - cell.er)
        self._bump_vci(cell.vci, -cell.er)

    def release(self, vci: int) -> None:
        """Tear down a connection, freeing its tracked bandwidth."""
        if self._vci_rates is None:
            return
        rate = self._vci_rates.pop(vci, 0.0)
        self.utilization = max(0.0, self.utilization - rate)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Export utilization, per-VCI rates, outages, and counters."""
        rates = self._vci_rates
        return {
            "capacity": self.capacity,
            "utilization": self.utilization,
            "vci_rates": dict(rates) if isinstance(rates, dict) else None,
            "outages": list(self._outages),
            "cells_processed": self.cells_processed,
            "requests_denied": self.requests_denied,
        }

    def load_state(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`state_dict` export."""
        rates = state["vci_rates"]
        if self.track_per_vci:
            self._vci_rates = dict(rates) if rates is not None else {}
        self._load_common(state)

    def _load_common(self, state: Dict[str, object]) -> None:
        self.capacity = float(state["capacity"])  # type: ignore[arg-type]
        self.utilization = float(state["utilization"])  # type: ignore[arg-type]
        self._outages = [
            (float(start), float(end))
            for start, end in state["outages"]  # type: ignore[union-attr]
        ]
        self.cells_processed = int(state["cells_processed"])  # type: ignore[arg-type]
        self.requests_denied = int(state["requests_denied"])  # type: ignore[arg-type]

    def __repr__(self) -> str:
        return (
            f"SwitchPort({self.name!r}, util={self.utilization:.0f}/"
            f"{self.capacity:.0f}, cells={self.cells_processed})"
        )


class DenseSwitchPort(SwitchPort):
    """A :class:`SwitchPort` whose VCIs are integer pool slots.

    Replaces the per-VCI dict with a dense float64 column indexed by
    slot, so the gateway's batched epoch commit is one fancy
    index instead of ~40k dict operations.  Value semantics mirror the
    dict exactly: an absent VCI *is* a stored ``0.0`` (the dict pops
    entries at ``<= 1e-12``, then ``get(vci, 0.0)`` reads them back as
    ``0.0``), so every utilization fold is bit-identical.  The one
    intentional difference is :meth:`rate_of`, which reports a tracked
    zero-rate VCI as ``None`` — the dict distinguishes "absent" from "an
    absolute cell wrote exactly 0.0", the array cannot, and nothing in
    the runtime reads that distinction.

    ``utilization`` stays a Python float: every array read feeding it is
    ``float()``-cast so ``np.float64`` (whose numpy-2.x repr differs)
    can never leak into fingerprinted snapshot fields.
    """

    def __init__(
        self, capacity: float, num_slots: int, name: str = "port"
    ) -> None:
        super().__init__(capacity, name=name, track_per_vci=True)
        if num_slots < 1:
            raise ValueError("num_slots must be >= 1")
        self._vci_rates = np.zeros(num_slots)  # type: ignore[assignment]
        # Reserved (negative) VCIs — the background cross-traffic VCI —
        # live in a side dict: a negative index into the slot column
        # would silently alias the tail slot.
        self._reserved_rates: Dict[int, float] = {}

    @property
    def num_slots(self) -> int:
        return int(self._vci_rates.size)

    def grow(self, num_slots: int) -> None:
        """Widen the slot column (pool growth); zero-filled tail."""
        if num_slots < self.num_slots:
            raise ValueError("DenseSwitchPort can only grow")
        grown = np.zeros(num_slots)
        grown[: self._vci_rates.size] = self._vci_rates
        self._vci_rates = grown  # type: ignore[assignment]

    def rate_of(self, vci: int) -> Optional[float]:
        if vci < 0:
            rate = self._reserved_rates.get(vci, 0.0)
            return rate if rate != 0.0 else None
        rate = float(self._vci_rates[vci])
        return rate if rate != 0.0 else None

    def _process_absolute(self, cell: RmCell) -> bool:
        old = float(self._vci_rates[cell.vci])
        delta = cell.er - old
        if delta <= 0 or self.utilization + delta <= self.capacity + 1e-9:
            self.utilization = max(0.0, self.utilization + delta)
            self._vci_rates[cell.vci] = cell.er
            return True
        self.requests_denied += 1
        return False

    def _bump_vci(self, vci: int, delta: float) -> None:
        if vci < 0:
            new_rate = self._reserved_rates.get(vci, 0.0) + delta
            if new_rate <= 1e-12:
                self._reserved_rates.pop(vci, None)
            else:
                self._reserved_rates[vci] = new_rate
            return
        new_rate = float(self._vci_rates[vci]) + delta
        self._vci_rates[vci] = 0.0 if new_rate <= 1e-12 else new_rate

    def _bump_vci_batch(self, vcis: Sequence, deltas: np.ndarray) -> None:
        table = self._vci_rates
        new_rates = table[vcis] + deltas
        table[vcis] = np.where(new_rates <= 1e-12, 0.0, new_rates)

    def release(self, vci: int) -> None:
        if vci < 0:
            rate = self._reserved_rates.pop(vci, 0.0)
            self.utilization = max(0.0, self.utilization - rate)
            return
        rate = float(self._vci_rates[vci])
        self._vci_rates[vci] = 0.0
        self.utilization = max(0.0, self.utilization - rate)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        state = SwitchPort.state_dict(self)
        state["vci_rates"] = self._vci_rates.copy()
        state["reserved_rates"] = dict(self._reserved_rates)
        return state

    def load_state(self, state: Dict[str, object]) -> None:
        saved = np.asarray(state["vci_rates"])
        if saved.size > self.num_slots:
            self.grow(saved.size)
        self._vci_rates[:] = 0.0
        self._vci_rates[: saved.size] = saved
        self._reserved_rates = dict(state["reserved_rates"])  # type: ignore[arg-type]
        self._load_common(state)

    def __repr__(self) -> str:
        return (
            f"DenseSwitchPort({self.name!r}, util={self.utilization:.0f}/"
            f"{self.capacity:.0f}, cells={self.cells_processed})"
        )
