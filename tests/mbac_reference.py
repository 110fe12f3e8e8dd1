"""The dict-based memory MBAC — the reference the columnar one must match.

:class:`~repro.admission.controllers.MemoryMBAC` keeps the pooled
reservation history in dense columns and folds them with numpy.  This
is the plain version it replaced: one ``{level: seconds}`` dict per
active call, every open segment closed in a Python loop on each
arrival, and the pool summed level by level in dict order.  Every
estimate and admission decision of the columnar controller must equal
this one bit for bit (``tests/test_mbac_columnar.py``).

Keep it plain: its value is that it shares none of the vectorisation it
checks.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional, Tuple

import numpy as np

from repro.admission.controllers import _ReservationTracker
from repro.analysis.chernoff import overload_probability


class ReferenceMemoryMBAC:
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
