"""Causal (online) renegotiation heuristic (Section IV-B).

Interactive sources cannot use the offline DP, so the paper proposes a
heuristic built from an AR(1) bandwidth estimator and two buffer
thresholds.  Per slot (eq. 6)::

    r_hat(t) = eta * r_hat(t-1) + (1 - eta) * x(t) + q(t) / T

where ``x(t)`` is the incoming rate during the slot, ``q(t)`` the buffer
occupancy at the slot's end, and ``T`` a time constant; the ``q/T`` term
"adds the bandwidth necessary to flush the current buffer content within
T".  The candidate rate is the estimate quantised up to the bandwidth
granularity ``delta`` (eq. 7), and a renegotiation is issued only when the
buffer crosses a threshold in the matching direction (eq. 8)::

    request r_new  if  (q > B_h and r_new > r) or (q < B_l and r_new < r)

The arithmetic of eqs. 6-8 lives in exactly one place — the batched
:class:`repro.core.kernel.RenegotiationKernel` — and this module's
:class:`OnlineScheduler` is a *fleet of one* driving that kernel
slot-by-slot: it owns the signaling-side control flow (initial-rate
setup, grant/denial via ``request_fn``, recovery-policy gating/ladders,
the drain mask) and leaves every float of the estimator/quantiser/
threshold step to the kernel.

Fig. 2's heuristic curve uses B_l = 10 kb, B_h = 150 kb, T = 5 frames and
sweeps delta from 25 to 400 kb/s.  The AR coefficient ``eta`` is not
stated in the paper; it defaults to 0.9 and is exposed as a parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro.core import kernel as _kernel
from repro.core.kernel import RenegotiationKernel
from repro.core.schedule import RateSchedule
from repro.traffic.trace import SlottedWorkload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults -> core)
    from repro.faults.recovery import RecoveryPolicy


@dataclass(frozen=True)
class OnlineParams:
    """Tuning knobs of the AR(1) heuristic (paper names in parentheses)."""

    granularity: float  # delta, bits/s
    low_threshold: float = 10_000.0  # B_l, bits
    high_threshold: float = 150_000.0  # B_h, bits
    time_constant_slots: float = 5.0  # T, slots
    ar_coefficient: float = 0.9  # eta
    max_rate: Optional[float] = None  # cap on requested rates (link speed)

    def __post_init__(self) -> None:
        if self.granularity <= 0:
            raise ValueError("granularity must be positive")
        if self.low_threshold < 0:
            raise ValueError("low_threshold must be non-negative")
        if self.high_threshold <= self.low_threshold:
            raise ValueError("high_threshold must exceed low_threshold")
        if self.time_constant_slots <= 0:
            raise ValueError("time_constant_slots must be positive")
        if not 0.0 <= self.ar_coefficient < 1.0:
            raise ValueError("ar_coefficient must be in [0, 1)")
        if self.max_rate is not None and self.max_rate <= 0:
            raise ValueError("max_rate must be positive")


@dataclass(frozen=True)
class OnlineScheduleResult:
    """Outcome of running the heuristic over a workload.

    ``bits_lost`` counts overflow of the finite RCBR buffer (when a
    ``buffer_size`` is given) plus any bits shed by a panic-drain
    recovery policy; ``drain_slots`` counts slots spent draining and
    ``requests_suppressed`` counts threshold crossings a backoff policy
    chose not to signal.
    """

    schedule: RateSchedule
    max_buffer: float
    final_buffer: float
    requests_made: int
    requests_denied: int
    bits_lost: float = 0.0
    drain_slots: int = 0
    requests_suppressed: int = 0

    @property
    def num_renegotiations(self) -> int:
        return self.schedule.num_renegotiations


class OnlineScheduler:
    """The AR(1) + dual-buffer-threshold causal scheduler."""

    def __init__(self, params: OnlineParams) -> None:
        self.params = params

    def quantize(self, rate_estimate: float) -> float:
        """eq. 7 on this scheduler's grid (see :func:`repro.core.kernel.quantize`)."""
        return _kernel.quantize(
            rate_estimate, self.params.granularity, self.params.max_rate
        )

    def schedule(
        self,
        workload: SlottedWorkload,
        initial_rate: Optional[float] = None,
        request_fn: Optional[Callable[[float, float], bool]] = None,
        name: str = "",
        buffer_size: Optional[float] = None,
        recovery: Optional["RecoveryPolicy"] = None,
    ) -> OnlineScheduleResult:
        """Run the heuristic causally over ``workload``.

        ``initial_rate`` defaults to the first slot's rate quantised to
        the grid (the setup-time choice; causal schedulers cannot peek at
        the mean).  ``request_fn(time, new_rate)``, if given, models the
        network's grant decision: it returns True to grant.  With no
        ``recovery`` policy, a denied request leaves the current rate in
        place and the heuristic retries at the next threshold crossing —
        the paper's "trivial solution is to try again".

        ``buffer_size`` models the finite RCBR end-system buffer: bits
        beyond it overflow and are counted in ``bits_lost`` rather than
        letting the backlog grow unboundedly on sustained denials.
        ``recovery`` (see :mod:`repro.faults.recovery`) replaces the naive
        retry with request gating, a downgrade ladder of fallback rates,
        and an optional panic-drain mode.

        The per-slot arithmetic is one batch-of-1 kernel step; this
        method only records rates and decides what each eq.-8 crossing
        is allowed to request.
        """
        slot = workload.slot_duration
        kernel = RenegotiationKernel(
            self.params, slot, buffer_size=buffer_size
        )
        # Python floats iterate measurably faster through the slot loop
        # than numpy scalars, so unbox the arrivals once up front.
        arrivals = workload.bits_per_slot.tolist()

        if initial_rate is None:
            current_rate = kernel.initial_rate(arrivals[0])
        else:
            if initial_rate < 0:
                raise ValueError("initial_rate must be non-negative")
            current_rate = initial_rate

        if recovery is not None:
            recovery.reset()

        # The fleet of one: a single-slot state block plus reusable
        # one-element arrival/drain blocks fed to the kernel per slot.
        state = kernel.new_state(1)
        state.rate[0] = current_rate
        state.estimate[0] = current_rate
        arrival_block = np.empty(1)
        drain_block = (
            np.empty(1, dtype=bool) if recovery is not None else None
        )
        rate_column = state.rate
        buffer_column = state.buffer

        max_buffer = 0.0
        requests = 0
        denied = 0
        suppressed = 0
        drain_slots = 0
        slot_rates = np.empty(workload.num_slots)

        for index, amount in enumerate(arrivals):
            slot_rates[index] = current_rate
            arrival_block[0] = amount
            if drain_block is not None:
                draining = recovery.in_drain(
                    float(buffer_column[0]), buffer_size
                )
                drain_block[0] = draining
                if draining:
                    drain_slots += 1
            wants, candidates = kernel.step(
                state, arrival_block, drain_block
            )
            buffer_level = float(buffer_column[0])
            if buffer_level > max_buffer:
                max_buffer = buffer_level

            if wants[0]:
                candidate = float(candidates[0])
                if recovery is None:
                    requests += 1
                    granted = True
                    if request_fn is not None:
                        granted = bool(
                            request_fn((index + 1) * slot, candidate)
                        )
                    if granted:
                        current_rate = candidate
                        rate_column[0] = candidate
                    else:
                        denied += 1
                elif not recovery.allow_request(index):
                    suppressed += 1
                else:
                    # eq. 8 fired in exactly one direction; the ladder
                    # applies only to upward requests.
                    rungs = (
                        recovery.ladder(candidate, current_rate, self.quantize)
                        if candidate > current_rate
                        else (candidate,)
                    )
                    for rung in rungs:
                        requests += 1
                        granted = True
                        if request_fn is not None:
                            granted = bool(request_fn((index + 1) * slot, rung))
                        if granted:
                            current_rate = rung
                            rate_column[0] = rung
                            recovery.on_grant(index, rung)
                            break
                        denied += 1
                        recovery.on_denial(index, rung)

        schedule = RateSchedule.from_slot_rates(
            slot_rates, slot, name=name or f"ar1({workload.name})"
        )
        return OnlineScheduleResult(
            schedule=schedule,
            max_buffer=max_buffer,
            final_buffer=float(buffer_column[0]),
            requests_made=requests,
            requests_denied=denied,
            bits_lost=state.bits_lost,
            drain_slots=drain_slots,
            requests_suppressed=suppressed,
        )
