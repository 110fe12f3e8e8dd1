"""The RCBR gateway: an event-driven service runtime over one link.

This ties the whole library together as a long-lived service loop.  An
open-loop Poisson load generator offers calls to an admission controller
(:mod:`repro.admission.controllers`); each admitted call joins the
vectorized call fleet and runs the causal AR(1) heuristic against its
own circularly-shifted copy of the base workload; threshold crossings
become RM cells on a :class:`~repro.signaling.network.SignalingPath`
(where a :class:`~repro.faults.injectors.FaultPlan` can lose, delay,
duplicate, or outage them); granted rates are reserved on a shared
:class:`~repro.queueing.link.DenseRcbrLink` whose integrals yield
utilization and bits lost.

One gateway class serves every shard count.  The link and the switch
ports are dense columns keyed by pool slot, widened in lockstep when the
fleet grows.  ``config.shards`` chooses only where the kernel step runs:
in-process (:class:`~repro.server.fleet.CallFleet`, ``shards=0``) or in
worker processes (:class:`~repro.server.sharded.ShardedFleet`).

The loop is a hybrid: per-epoch vector stepping for the data plane (one
numpy pass over all active calls per slot — the 50k-call hot path) and a
conventional event heap for the control plane (arrivals, departures,
abandonments, renegotiation round-trips).  Event ordering per epoch
``k``::

    1. drain the heap up to t = k * slot   (arrivals, departures, and
       the renegotiation completions whose round trip ended by t)
    2. vector-step every active call through base slot k
    3. issue this epoch's renegotiations as one batched path commit
       with request time (k+1) * slot; their outcomes apply at
       (k+1) * slot + path RTT through one heap event

so with zero hop delay an answer lands before the next step and the
fleet reproduces the scalar :class:`~repro.core.online.OnlineScheduler`
exactly (rates take effect the following slot, as in the paper).  The
batch is exact: it equals one round trip per request in ascending slot
order.  Where only the per-request fold is exact — a fault plan, or an
abandonment inside a completion batch — the gateway takes the scalar
``_issue``/``_complete`` pair instead.

Dual bandwidth authority, by design: call setup/teardown provision the
switch ports directly (admission is the CAC's decision, not the ER fast
path's — and it mirrors :mod:`repro.admission.callsim`, which models no
setup signaling), while renegotiations travel the path under faults.
Lost decreases, duplicated increases, and partial outage commits
therefore leave the *ports* over-reserving relative to the *link* — the
paper's drift story — and the bottleneck port being conservative
guarantees any path-granted increase also fits on the link
(``link_shortfalls`` counts violations of that invariant, expected 0).

The base workload can be handed in directly or sampled from any
:class:`~repro.traffic.sources.TrafficSource` (``config.source`` names a
registry model; a ``source`` instance overrides it), so the runtime can
carry Star-Wars-like, Markov, multi-timescale, on/off, or trace-playback
fleets through one code path.

When offered load stays above capacity, an optional link-level overload
control plane (:mod:`repro.overload`) watches pressure on the link with
hysteresis and applies the configured policy — downgrade walks service
classes down a resolution ladder (granted rates shrink immediately,
future arrivals shrink through the kernel's downgrade mask), sacrifice
evicts the cheapest-to-displace calls into a bounded requeue.  The
block policy instantiates no plane at all, so baseline runs remain
byte-identical to pre-overload builds.

Determinism contract: a fixed config seed spawns the arrival-process,
call-property, cell-loss, retry-jitter, workload-sampling, and overload
streams (the fifth and sixth were appended in that order, so seeded
runs predating them are unchanged); the event heap is FIFO-stable;
renegotiation issue order is ascending pool-slot order, and every
overload action walks slots in ascending order too.  Same seed (and
same fault plan seed) ⇒ bit-identical snapshot stream, enforced via
:func:`~repro.server.stats.snapshot_fingerprint`.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.admission.callsim import arrival_rate_for_load
from repro.admission.controllers import AdmissionController
from repro.admission.offered import OfferedLoadAccountant
from repro.faults.injectors import FaultPlan
from repro.overload.plane import OverloadControlPlane
from repro.overload.policies import make_overload_policy
from repro.queueing.events import Event, EventScheduler
from repro.queueing.link import DenseRcbrLink
from repro.server.config import ServerConfig, build_controller
from repro.server.fleet import CallFleet, EpochStep
from repro.server.sharded import ShardedFleet
from repro.server.stats import (
    ServerReport,
    ServerSnapshot,
    snapshot_fingerprint,
)
from repro.signaling.messages import RenegotiationRequest
from repro.signaling.network import SignalingPath
from repro.signaling.switch import DenseSwitchPort
from repro.traffic.sources import TrafficSource, make_source
from repro.traffic.trace import SlottedWorkload
from repro.util.rng import spawn_generators
from repro.util.stats import jain_fairness

#: Tolerance when comparing epoch boundaries against snapshot deadlines.
_TIME_EPSILON = 1e-9

EpochHook = Callable[[int, "RcbrGateway"], Optional[bool]]

class RcbrGateway:
    """A long-lived RCBR service instance over one bottleneck link."""

    #: Event-heap callbacks a checkpoint may carry (encoded by method
    #: name, decoded by ``getattr`` on the restoring gateway).  Anything
    #: else in the heap at save time is a bug — refuse rather than
    #: guess.  Subclasses with extra callbacks extend this.
    EVENT_CALLBACK_ALLOWLIST = frozenset(
        {"_handle_arrival", "_handle_departure", "_complete",
         "_complete_batch"}
    )

    #: Scalar argument signatures for checkpoint arg packing: these
    #: events' args round-trip through one float64 matrix per callback
    #: (every value is exactly representable), restored with the
    #: original types below.
    EVENT_ARG_CODECS: Dict[str, tuple] = {
        "_handle_departure": (int, int),
        "_complete": (int, int, float, bool, bool),
    }

    def __init__(
        self,
        workload: Optional[SlottedWorkload],
        config: ServerConfig,
        controller: Optional[AdmissionController] = None,
        faults: Optional[FaultPlan] = None,
        source: Optional[TrafficSource] = None,
    ) -> None:
        (
            self._arrival_rng,
            self._call_rng,
            path_rng,
            retry_rng,
            source_rng,
            self._overload_rng,
        ) = spawn_generators(config.seed, 6)

        # Resolve the base workload: an explicit TrafficSource instance
        # wins, then a registry name in config.source (sampled on the
        # dedicated stream so runs stay seed-deterministic), then the
        # workload handed in directly.
        if source is None and config.source is not None:
            source = make_source(config.source, workload=workload)
        self.source = source
        if source is not None:
            workload = source.sample_workload(
                config.source_slots, seed=source_rng
            )
        if workload is None:
            raise ValueError(
                "RcbrGateway needs a workload or a traffic source"
            )
        self.workload = workload
        self.config = config
        self.faults = faults
        self.params = config.resolve_online_params()
        self.controller = (
            controller
            if controller is not None
            else build_controller(config, workload, self.params)
        )

        self.engine = EventScheduler()
        self.fleet = self._build_fleet(workload, config)
        self.link = self._build_link(config)
        self.ports = self._build_ports(config)

        self.path = SignalingPath(
            self.ports,
            hop_delay=config.hop_delay,
            seed=path_rng,
            faults=faults,
            request_timeout=config.request_timeout,
            max_retries=config.max_retries,
            retry_backoff=config.retry_backoff,
            retry_jitter=config.retry_jitter,
            retry_seed=retry_rng,
        )

        self.mean_holding = (
            config.mean_holding
            if config.mean_holding is not None
            else workload.duration
        )
        self.arrival_rate = (
            0.0
            if config.load <= 0
            else arrival_rate_for_load(
                config.load,
                config.capacity,
                workload.mean_rate,
                self.mean_holding,
            )
        )

        self._call_ids = itertools.count()
        self._departure_events: Dict[int, Event] = {}

        # Service classes + class-aware offered-load accounting: classes
        # are drawn from the dedicated overload stream, so the legacy
        # streams (and hence block-only fingerprints) are untouched.
        self.num_classes = config.overload_classes
        weights = (
            np.asarray(config.class_weights, dtype=float)
            if config.class_weights is not None
            else np.ones(self.num_classes)
        )
        self._class_probs = weights / weights.sum()
        self.offered = OfferedLoadAccountant(self.num_classes)

        # The overload control plane(s) — block means "no plane": the
        # baseline takes the exact pre-overload code path.
        self._build_planes()

        # Cumulative counters (snapshot definitions match
        # repro.admission.callsim.CallCounters).
        self.arrivals = 0
        self.blocked = 0
        self.admitted = 0
        self.departed = 0
        self.abandoned = 0
        self.setup_shortfalls = 0
        self.reneg_requests = 0
        self.reneg_denied = 0
        self.injected_denials = 0
        self.link_shortfalls = 0

        self.snapshots: List[ServerSnapshot] = []
        self._last_snapshot_time = 0.0
        self._last_allocated_bit_seconds = 0.0
        self._last_reneg_requests = 0

        self._next_tick = 0
        self._preloaded = False
        self._encode_callback_cache: Dict[object, str] = {}

    # ------------------------------------------------------------------
    # Construction seams (the scenario runtime overrides the fleet,
    # link, port and plane constructors)
    # ------------------------------------------------------------------
    def _build_fleet(
        self, workload: SlottedWorkload, config: ServerConfig
    ) -> CallFleet:
        fleet = self._new_fleet(
            workload, config, max(256, config.initial_calls)
        )
        # The link and ports are slot-keyed columns: widen them with the
        # pool.  (The scenario runtime's per-edge dict links need no
        # widening; its override widens only its route-id columns.)
        fleet.on_grow = self._on_fleet_grow
        return fleet

    def _new_fleet(
        self,
        workload: SlottedWorkload,
        config: ServerConfig,
        initial_capacity: int,
    ) -> CallFleet:
        """The in-process fleet for ``shards=0``, the worker-process
        fleet otherwise — the only thing the shard count chooses."""
        if config.shards:
            return ShardedFleet(
                workload,
                self.params,
                buffer_size=config.buffer_bits,
                initial_capacity=initial_capacity,
                num_shards=config.shards,
                chunk_size=config.shard_chunk,
                seed=config.seed,
            )
        return CallFleet(
            workload,
            self.params,
            buffer_size=config.buffer_bits,
            initial_capacity=initial_capacity,
        )

    def _build_link(self, config: ServerConfig) -> DenseRcbrLink:
        return DenseRcbrLink(config.capacity, self.fleet.capacity)

    def _build_ports(self, config: ServerConfig) -> List[DenseSwitchPort]:
        # The last port is the bottleneck (capacity == link capacity);
        # upstream hops get headroom so the bottleneck stays binding.
        num_slots = self.fleet.capacity
        ports = [
            DenseSwitchPort(
                config.capacity * config.upstream_headroom,
                num_slots,
                name=f"hop{index}",
            )
            for index in range(config.num_hops - 1)
        ]
        ports.append(
            DenseSwitchPort(config.capacity, num_slots, name="bottleneck")
        )
        return ports

    def _on_fleet_grow(self, new_capacity: int) -> None:
        self.link.grow(new_capacity)
        for port in self.ports:
            port.grow(new_capacity)

    def _build_planes(self) -> None:
        """One plane over the single link, every active call a member,
        on the classic overload stream (5).  The scenario runtime
        overrides this with one plane per edge."""
        self.overload_plane = self._overload_plane(
            self.link, lambda: self.fleet.active, self._overload_rng
        )

    def _overload_plane(
        self,
        link,
        members: Callable[[], np.ndarray],
        rng: np.random.Generator,
    ) -> Optional[OverloadControlPlane]:
        """The configured policy's plane watching ``link`` over the calls
        ``members()`` marks, or None under the block policy."""
        config = self.config
        if config.overload_policy == "downgrade":
            policy = make_overload_policy(
                "downgrade",
                ladder=config.downgrade_ladder,
                dwell=config.overload_dwell,
            )
        elif config.overload_policy == "sacrifice":
            policy = make_overload_policy(
                "sacrifice",
                queue_size=config.sacrifice_queue,
                max_per_epoch=config.sacrifice_max_per_epoch,
            )
        else:
            return None
        return OverloadControlPlane(
            self,
            link,
            members,
            policy,
            enter=config.overload_enter,
            exit_=config.overload_exit,
            dwell=config.overload_dwell,
            num_classes=self.num_classes,
            rng=rng,
        )

    # ------------------------------------------------------------------
    # Call lifecycle
    # ------------------------------------------------------------------
    def _admit_call(self, now: float) -> Optional[int]:
        """Offer one call; returns its id if admitted, None if blocked."""
        self.arrivals += 1
        call_class = int(
            self._overload_rng.choice(self.num_classes, p=self._class_probs)
        )
        self.offered.on_arrival(call_class)
        if not self.controller.admit(
            self.config.capacity, now, call_class=call_class
        ):
            self.blocked += 1
            self.offered.on_blocked(call_class)
            return None
        shift = int(self._call_rng.integers(self.workload.num_slots))
        holding = float(self._call_rng.exponential(self.mean_holding))
        return self._install_call(shift, holding, call_class, now)

    def _install_call(
        self, shift: int, holding: float, call_class: int, now: float
    ) -> int:
        """Put an accepted call in service (fresh admission or overload
        readmission — the post-decision, post-draw part of admission)."""
        call_id = next(self._call_ids)
        slot, initial_rate = self.fleet.admit(call_id, shift, call_class)
        outcome = self.link.request(slot, initial_rate, now)
        if outcome.failed:
            self.setup_shortfalls += 1
        granted = outcome.granted_rate
        self.fleet.set_rate(slot, granted)
        for port in self.ports:
            port.provision(slot, granted)
        self.controller.on_admit(call_id, granted, now, call_class=call_class)
        self.admitted += 1
        self.offered.on_admitted(call_class)
        self._departure_events[call_id] = self.engine.schedule_at(
            now + holding, self._handle_departure, slot, call_id
        )
        return call_id

    def _handle_arrival(self) -> None:
        self._admit_call(self.engine.now)
        self._schedule_next_arrival()

    def _schedule_next_arrival(self) -> None:
        if self.arrival_rate <= 0:
            return
        gap = float(self._arrival_rng.exponential(1.0 / self.arrival_rate))
        self.engine.schedule_in(gap, self._handle_arrival)

    def _handle_departure(self, slot: int, call_id: int) -> None:
        if self.fleet.call_id[slot] != call_id:
            return  # stale event: the call already left this pool slot
        self._end_call(slot, call_id, self.engine.now)

    def _end_call(self, slot: int, call_id: int, now: float) -> None:
        """Release everything a live call holds; count it departed."""
        self.offered.on_departure(int(self.fleet.call_class[slot]))
        self.link.release(slot, now)
        self.path.release(slot)
        self.controller.on_departure(call_id, now)
        self.fleet.remove(slot)
        self._departure_events.pop(call_id, None)
        self.departed += 1

    def _abandon(self, slot: int, call_id: int) -> None:
        """The user gives up after too many consecutive denials."""
        event = self._departure_events.get(call_id)
        if event is not None:
            event.cancel()
        self.abandoned += 1
        self._handle_departure(slot, call_id)

    # ------------------------------------------------------------------
    # Renegotiation round trips
    # ------------------------------------------------------------------
    def _issue(
        self, slot: int, call_id: int, new_rate: float, time: float
    ) -> None:
        """The scalar round trip: the exact fallback under a fault plan."""
        old_rate = float(self.fleet.rate[slot])
        increase = new_rate > old_rate
        self.fleet.pending[slot] = True
        self.reneg_requests += 1
        if (
            increase
            and self.faults is not None
            and self.faults.should_deny(time)
        ):
            self.injected_denials += 1
            granted = False
        else:
            granted = self.path.renegotiate(
                RenegotiationRequest(
                    vci=slot,
                    old_rate=old_rate,
                    new_rate=new_rate,
                    time=time,
                )
            )
        # A lost decrease still applies at the source (it believes the new
        # rate), leaving the network over-reserving until resync — drift.
        apply = granted or not increase
        self.engine.schedule_at(
            time + self.path.round_trip_time,
            self._complete,
            slot,
            call_id,
            new_rate,
            granted,
            apply,
        )

    def _issue_epoch(self, step: EpochStep, end_of_slot: float) -> None:
        """Issue every renegotiation one epoch step produced.

        One batched path commit (:meth:`SignalingPath.renegotiate_batch`)
        and one completion event for the whole epoch.  ``step.slots`` is
        in ascending pool-slot order — the documented issue order of the
        determinism contract, which the batch reproduces exactly.
        """
        slots = step.slots
        call_ids = self.fleet.call_id[slots]
        if self.faults is not None:
            # Injected denials draw from the fault plan per increase, in
            # per-call order; only the scalar path reproduces that.
            for slot, call_id, candidate in zip(
                slots.tolist(), call_ids.tolist(), step.candidates.tolist()
            ):
                self._issue(slot, call_id, candidate, end_of_slot)
            return
        new_rates = step.candidates
        old_rates = self.fleet.rate[slots]
        self.fleet.pending[slots] = True
        self.reneg_requests += int(slots.size)
        granted = self.path.renegotiate_batch(
            slots, old_rates, new_rates, end_of_slot
        )
        apply = granted | ~(new_rates > old_rates)
        self.engine.schedule_at(
            end_of_slot + self.path.round_trip_time,
            self._complete_batch,
            slots,
            call_ids,
            new_rates,
            granted,
            apply,
        )

    def _complete(
        self,
        slot: int,
        call_id: int,
        new_rate: float,
        granted: bool,
        apply: bool,
    ) -> None:
        """The scalar completion: the exact fallback for one round trip
        under a fault plan, or for a batch with an imminent abandonment."""
        if self.fleet.call_id[slot] != call_id:
            return  # the call departed while its cell was in flight
        self.fleet.pending[slot] = False
        now = self.engine.now
        if apply:
            outcome = self.link.request(slot, new_rate, now)
            if outcome.failed:
                self.link_shortfalls += 1
            self.fleet.set_rate(slot, outcome.granted_rate)
            self.controller.on_reservation(call_id, outcome.granted_rate, now)
            self.fleet.streak[slot] = 0
            return
        self.reneg_denied += 1
        streak = int(self.fleet.streak[slot]) + 1
        self.fleet.streak[slot] = streak
        if (
            self.config.abandon_after is not None
            and streak >= self.config.abandon_after
        ):
            self._abandon(slot, call_id)

    def _complete_batch(
        self,
        slots: np.ndarray,
        call_ids: np.ndarray,
        new_rates: np.ndarray,
        granted: np.ndarray,
        apply: np.ndarray,
    ) -> None:
        fleet = self.fleet
        all_applied = bool(np.all(apply))
        if not all_applied and self.config.abandon_after is not None:
            # An abandonment mid-batch mutates the free list (and can
            # release link and port state) between completions; only
            # the scalar replay, in ascending slot order — the order
            # the per-call events would fire in — is exact there.
            # Slots are unique, so each gets at most one streak bump
            # this batch and the pre-check sees the decisive value.
            denied_mask = ~apply
            denied_slots = slots[denied_mask]
            live = fleet.call_id[denied_slots] == call_ids[denied_mask]
            streaks = fleet.streak[denied_slots[live]]
            if bool(np.any(streaks + 1 >= self.config.abandon_after)):
                for index in range(slots.size):
                    self._complete(
                        int(slots[index]),
                        int(call_ids[index]),
                        float(new_rates[index]),
                        bool(granted[index]),
                        bool(apply[index]),
                    )
                return
        valid = fleet.call_id[slots] == call_ids
        if not bool(valid.all()):
            slots = slots[valid]
            call_ids = call_ids[valid]
            new_rates = new_rates[valid]
            apply = apply[valid]
            if slots.size == 0:
                return
        fleet.pending[slots] = False
        now = self.engine.now
        if not all_applied:
            # Denied completions never touch the link, so splitting
            # them out of the ascending-order commit is exact; the
            # streak bumps and grant resets land on disjoint slots.
            denied_slots = slots[~apply]
            if denied_slots.size:
                self.reneg_denied += int(denied_slots.size)
                fleet.streak[denied_slots] += 1
            slots = slots[apply]
            call_ids = call_ids[apply]
            new_rates = new_rates[apply]
            if slots.size == 0:
                return
        granted_rates, failures = self.link.request_batch(
            slots, new_rates, now
        )
        self.link_shortfalls += failures
        fleet.rate[slots] = granted_rates
        self.controller.on_reservation_batch(call_ids, granted_rates, now)
        fleet.streak[slots] = 0

    # ------------------------------------------------------------------
    # The overload action surface (called by repro.overload policies;
    # the flat call index is the pool slot)
    # ------------------------------------------------------------------
    @property
    def call_class(self) -> np.ndarray:
        """Service class per flat call index."""
        return self.fleet.call_class

    @property
    def rate(self) -> np.ndarray:
        """Granted rate per flat call index."""
        return self.fleet.rate

    def overload_shrink(self, slot: int, ratio: float, now: float) -> bool:
        """Shrink one call's granted rate by ``ratio`` (re-quantised to
        the grid), freeing link bandwidth immediately.  Decreases always
        succeed at the link; the ports and the admission controller move
        with it.  Returns whether the rate actually went down."""
        fleet = self.fleet
        old_rate = float(fleet.rate[slot])
        new_rate = fleet.quantize(old_rate * ratio)
        if new_rate >= old_rate:
            return False
        call_id = int(fleet.call_id[slot])
        outcome = self.link.request(slot, new_rate, now)
        granted = outcome.granted_rate
        for port in self.ports:
            port.reprovision(slot, granted - old_rate)
        self.controller.on_reservation(call_id, granted, now)
        fleet.set_rate(slot, granted)
        return True

    def overload_evict(self, slot: int, now: float) -> "tuple[int, int, float]":
        """Tear one call out of service on the plane's orders.

        Returns ``(call_class, shift, remaining_holding)`` so the
        sacrifice policy can requeue it.  Accounted as a departure plus
        an abandonment — the service forcibly ended the call — with the
        sacrifice-specific truth kept in the snapshot's overload
        section.  A renegotiation in flight for the evicted call is
        neutralised by the stale-completion guard (the slot's call id
        changes).
        """
        fleet = self.fleet
        call_id = int(fleet.call_id[slot])
        call_class = int(fleet.call_class[slot])
        shift = int(fleet.shift[slot])
        event = self._departure_events.pop(call_id, None)
        remaining = self.mean_holding
        if event is not None:
            event.cancel()
            remaining = max(0.0, event.time - now)
        self._end_call(slot, call_id, now)
        self.abandoned += 1
        return call_class, shift, remaining

    def overload_readmit(
        self, entry: "tuple[int, int, float]", now: float
    ) -> int:
        """Put a sacrificed call back in service for its remaining
        holding time, under a fresh call id.  Counted as a new arrival
        plus admission so the lifecycle identities keep balancing; the
        admission controller is *not* consulted — readmission is the
        plane's decision, made only when pressure is back below the
        exit threshold."""
        call_class, shift, remaining = entry
        self.arrivals += 1
        self.offered.on_arrival(call_class)
        return self._install_call(shift, remaining, call_class, now)

    def _step_epoch(self, tick: int, now: float, end_of_slot: float) -> None:
        """One data-plane epoch: overload poll, vector step, issue.

        A construction seam like :meth:`_build_fleet`: the scenario
        runtime (``repro.scenarios``) overrides it to apply background
        cross-traffic and step one fleet per flow group.  The base body
        is exactly the classic single-fleet epoch, so refactoring it out
        of :meth:`run` changes no fingerprint.
        """
        downgrade = (
            self.overload_plane.on_epoch(tick, now)
            if self.overload_plane is not None
            else None
        )
        step = self.fleet.step(tick, downgrade=downgrade)
        if step.num_requests:
            self._issue_epoch(step, end_of_slot)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _take_snapshot(self, time: float) -> ServerSnapshot:
        self.link.finish(time)
        window = time - self._last_snapshot_time
        allocated_delta = (
            self.link.allocated_bit_seconds - self._last_allocated_bit_seconds
        )
        requests_delta = self.reneg_requests - self._last_reneg_requests
        if window > 0:
            utilization = allocated_delta / (self.config.capacity * window)
            renegotiation_rate = requests_delta / window
        else:
            utilization = 0.0
            renegotiation_rate = 0.0
        stats = self.path.stats
        overload = (
            self._overload_section()
            if self.overload_plane is not None
            else None
        )
        snapshot = ServerSnapshot(
            time=time,
            active_calls=self.fleet.num_active,
            arrivals=self.arrivals,
            blocked=self.blocked,
            admitted=self.admitted,
            departed=self.departed,
            completed=self.departed - self.abandoned,
            abandoned=self.abandoned,
            reneg_requests=self.reneg_requests,
            reneg_denied=self.reneg_denied,
            injected_denials=self.injected_denials,
            link_shortfalls=self.link_shortfalls,
            cells_sent=stats.cells_sent,
            cells_lost=stats.cells_lost,
            retries=stats.retries,
            timeouts=stats.timeouts,
            signaling_failure_fraction=stats.failure_fraction,
            bits_lost_overflow=self.fleet.bits_lost,
            bits_lost_link=self.link.lost_bits,
            utilization=utilization,
            renegotiation_rate=renegotiation_rate,
            buffer_bits=self.fleet.total_buffered_bits(),
            reserved_rate=self.fleet.total_reserved_rate(),
            overload=overload,
            network=self._network_section(),
        )
        self.snapshots.append(snapshot)
        self._last_snapshot_time = time
        self._last_allocated_bit_seconds = self.link.allocated_bit_seconds
        self._last_reneg_requests = self.reneg_requests
        return snapshot

    def _network_section(self) -> Optional[Dict[str, object]]:
        """The fingerprinted multi-bottleneck payload (per-link and
        per-flow-group state).  None on the single-link runtime, which
        keeps classic snapshot streams byte-identical — the same
        omission rule as the ``overload`` section.  The scenario
        runtime overrides this."""
        return None

    def _overload_section(self) -> Dict[str, object]:
        """The fingerprinted per-snapshot overload payload: plane state,
        policy counters, and per-class treatment (occupancy, reserved
        rate, fairness, offered-load tallies)."""
        section = self.overload_plane.section()
        counts = self.fleet.class_counts(self.num_classes)
        rates = self.fleet.class_reserved_rates(self.num_classes)
        occupied = counts > 0
        fairness = (
            jain_fairness(rates[occupied] / counts[occupied])
            if bool(occupied.any())
            else 1.0
        )
        section.update(
            {
                "class_active": counts.tolist(),
                "class_reserved_rate": rates.tolist(),
                "class_fairness": fairness,
                "bits_downgraded": self.fleet.bits_downgraded,
                "class_arrivals": list(self.offered.arrivals),
                "class_blocked": list(self.offered.blocked),
                "class_admitted": list(self.offered.admitted),
            }
        )
        return section

    # ------------------------------------------------------------------
    # The service loop
    # ------------------------------------------------------------------
    def preload(self) -> None:
        """Admit the configured initial fleet and arm the arrival process.

        Idempotent; :meth:`run` calls it automatically on first use.  The
        throughput benchmark calls it explicitly so fleet construction is
        not charged against the timed steady-state serving loop.
        """
        if self._preloaded:
            return
        self._preloaded = True
        for _ in range(self.config.initial_calls):
            self._admit_call(0.0)
        self._schedule_next_arrival()

    def run(
        self,
        duration: float,
        snapshot_every: Optional[float] = None,
        epoch_hook: Optional[EpochHook] = None,
    ) -> ServerReport:
        """Serve for ``duration`` more simulated seconds and report.

        ``duration`` is rounded up to whole epochs (slot durations).
        ``run`` is resumable: calling it again continues the same service
        from where the previous call stopped, with counters, snapshots,
        and the fingerprint accumulating — which is how a warm-up period
        is excluded from benchmark timing.

        ``snapshot_every`` emits a :class:`ServerSnapshot` at that period
        (rounded to epoch boundaries); the final snapshot at the end of
        the run is always taken.  ``epoch_hook(tick, gateway)`` runs after
        the heap drain and before the vector step of each epoch; a hook
        returning a truthy value stops the run *at that epoch boundary*
        (the tick it saw is not stepped) — the graceful-shutdown path of
        ``repro serve``, where the hook writes a final checkpoint before
        the boundary snapshot so a resumed run stays bit-identical to an
        uninterrupted one.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        if snapshot_every is not None and snapshot_every <= 0:
            raise ValueError("snapshot_every must be positive")
        slot = self.workload.slot_duration
        epochs = int(math.ceil(duration / slot - _TIME_EPSILON))
        start_tick = self._next_tick

        self.preload()

        next_snapshot = (
            self._last_snapshot_time + snapshot_every
            if snapshot_every is not None
            else math.inf
        )
        completed = 0
        for tick in range(start_tick, start_tick + epochs):
            now = tick * slot
            # Keep "the gateway is at boundary _next_tick" true *inside*
            # the loop, not just between runs: the epoch hook below may
            # checkpoint, and a checkpoint stamped with a stale start
            # tick would resume by replaying epochs already served.
            self._next_tick = tick
            self.engine.run(until=now)
            while now >= next_snapshot - _TIME_EPSILON:
                self._take_snapshot(now)
                next_snapshot += snapshot_every  # type: ignore[operator]
            if epoch_hook is not None and epoch_hook(tick, self):
                break
            self._step_epoch(tick, now, (tick + 1) * slot)
            completed += 1
        self._next_tick = start_tick + completed
        end_time = self._next_tick * slot

        self.engine.run(until=end_time)
        final = self._take_snapshot(end_time)
        return ServerReport(
            config=self.config.to_dict(),
            duration=completed * slot,
            epochs=completed,
            final=final,
            snapshots=list(self.snapshots),
            fingerprint=snapshot_fingerprint(self.snapshots),
            peak_active=self.fleet.peak_active,
            call_epochs_stepped=self.fleet.call_epochs_stepped,
            mean_utilization=self.link.mean_utilization(end_time),
            overload=(
                dict(
                    self._overload_section(),
                    class_blocking=self.offered.blocking_fractions(),
                )
                if self.overload_plane is not None
                else None
            ),
        )


    # ------------------------------------------------------------------
    # Checkpointing (see repro.server.checkpoint and DESIGN.md §15)
    # ------------------------------------------------------------------
    def _encode_callback(self, callback: Callable) -> str:
        # Called once per pending event (one departure per live call),
        # so the name/allowlist validation is memoized by the underlying
        # function object; the binding check stays per-call because each
        # schedule_at creates a fresh bound method.
        func = getattr(callback, "__func__", None)
        name = self._encode_callback_cache.get(func)
        if name is None:
            name = getattr(callback, "__name__", None)
            if name not in type(self).EVENT_CALLBACK_ALLOWLIST:
                raise ValueError(
                    f"cannot checkpoint event callback {callback!r}; "
                    f"allowed: {sorted(type(self).EVENT_CALLBACK_ALLOWLIST)}"
                )
            if func is not None:
                self._encode_callback_cache[func] = name
        if getattr(callback, "__self__", None) is not self:
            raise ValueError(
                f"event callback {callback!r} is not bound to this gateway"
            )
        return name

    def _decode_callback(self, token: str) -> Callable:
        if token not in type(self).EVENT_CALLBACK_ALLOWLIST:
            raise ValueError(f"unknown checkpointed event callback {token!r}")
        return getattr(self, token)

    def _encode_event_args(self, token_table, token_codes, args_list):
        # The hot callbacks carry only scalars, one event per live call
        # — flatten the whole heap's args into one float64 array (each
        # event's width fixed by its codec spec; arrivals contribute
        # zero) so a 1M-call heap pickles as one array, not a million
        # tuples.  The single C-driven ``fromiter`` over a chain is the
        # fastest packing measured (≈2× over per-row ``asarray``).
        # Events without a scalar spec (the rare in-flight batch commit
        # with its ndarray args) ride in a side dict keyed by position.
        widths = []
        generic_codes = []
        for code, token in enumerate(token_table):
            spec = type(self).EVENT_ARG_CODECS.get(token)
            if spec is not None:
                widths.append(len(spec))
            else:
                widths.append(0)
                if token != "_handle_arrival":
                    generic_codes.append(code)
        count = len(args_list)
        per_event = np.asarray(widths, dtype=np.int64)[token_codes]
        generic: Dict[int, tuple] = {}
        if generic_codes:
            mask = np.isin(token_codes, generic_codes)
            for index in np.nonzero(mask)[0].tolist():
                generic[index] = args_list[index]
        # Misaligned args would corrupt the flat layout silently; a
        # vectorized length audit is ~2ms per 50k events — cheap
        # insurance against a codec spec drifting from a call site.
        lengths = np.fromiter(map(len, args_list), dtype=np.int64, count=count)
        if generic:
            lengths[mask] = per_event[mask]
        if not np.array_equal(lengths, per_event):
            raise ValueError(
                "event args disagree with EVENT_ARG_CODECS widths; "
                "refusing to write a misaligned checkpoint"
            )
        if generic:
            flat_iter = itertools.chain.from_iterable(
                args
                for index, args in enumerate(args_list)
                if index not in generic
            )
        else:
            flat_iter = itertools.chain.from_iterable(args_list)
        flat = np.fromiter(
            flat_iter, dtype=np.float64, count=int(per_event.sum())
        )
        return {"flat": flat, "generic": generic}

    def _decode_event_args(self, token_table, token_codes, packed):
        flat = packed["flat"].tolist()
        generic = packed["generic"]
        specs = [
            type(self).EVENT_ARG_CODECS.get(token, ())
            for token in token_table
        ]
        args_list: List[tuple] = []
        offset = 0
        for index, code in enumerate(token_codes.tolist()):
            if index in generic:
                args_list.append(tuple(generic[index]))
                continue
            spec = specs[code]
            if not spec:
                args_list.append(())
                continue
            end = offset + len(spec)
            args_list.append(
                tuple(
                    conv(value)
                    for conv, value in zip(spec, flat[offset:end])
                )
            )
            offset = end
        return args_list

    def state_dict(self) -> Dict[str, object]:
        """Export the complete mutable runtime state of this gateway.

        Everything a resumed run's fingerprint can depend on is here:
        kernel/fleet columns, link allocations and compensated sums,
        per-hop port state, the event heap (callbacks encoded by method
        name), all live RNG streams, overload-plane hysteresis, fault
        injectors, counters, and the accumulated snapshot stream.  The
        workload-sampling stream is *not* captured: it is consumed only
        during ``__init__``, and a restoring gateway reconstructs from
        the identical config, re-drawing it identically.

        The returned structure shares arrays and objects with the live
        gateway; :func:`repro.server.checkpoint.write_checkpoint`
        pickles it immediately.  Call this only at an epoch boundary
        (after the heap drain, before the vector step) — the documented
        quiescent point where ``path.in_flight`` is empty and no
        renegotiation is torn.
        """
        return {
            "engine": self.engine.state_dict(
                self._encode_callback, self._encode_event_args
            ),
            "fleet": self.fleet.state_dict(),
            "link": self.link.state_dict(),
            "ports": [port.state_dict() for port in self.ports],
            "path": self.path.state_dict(),
            "faults": (
                self.faults.state_dict() if self.faults is not None else None
            ),
            "controller": self.controller,
            "offered": self.offered,
            "overload_plane": (
                self.overload_plane.state_dict()
                if self.overload_plane is not None
                else None
            ),
            "rng": {
                "arrival": self._arrival_rng.bit_generator.state,
                "call": self._call_rng.bit_generator.state,
                "overload": self._overload_rng.bit_generator.state,
            },
            "next_call_id": self._peek_call_ids(),
            "counters": {
                "arrivals": self.arrivals,
                "blocked": self.blocked,
                "admitted": self.admitted,
                "departed": self.departed,
                "abandoned": self.abandoned,
                "setup_shortfalls": self.setup_shortfalls,
                "reneg_requests": self.reneg_requests,
                "reneg_denied": self.reneg_denied,
                "injected_denials": self.injected_denials,
                "link_shortfalls": self.link_shortfalls,
            },
            "snapshots": list(self.snapshots),
            "last_snapshot_time": self._last_snapshot_time,
            "last_allocated_bit_seconds": self._last_allocated_bit_seconds,
            "last_reneg_requests": self._last_reneg_requests,
            "next_tick": self._next_tick,
            "preloaded": self._preloaded,
        }

    def _peek_call_ids(self) -> int:
        """Read the next call id without net side effects (consume one,
        recreate the counter at the observed value)."""
        next_id = next(self._call_ids)
        self._call_ids = itertools.count(next_id)
        return next_id

    def load_state(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`state_dict` export into this (fresh) gateway.

        The caller (:meth:`restore` via ``repro.server.checkpoint``) has
        already verified the checkpoint was taken under this exact
        config, so every structural attribute — workload, params, plane
        presence, hop count, shard layout — is already right; this
        method only replays the mutable state.  Restoring into a
        gateway that has already served traffic is unsupported.
        """
        self.fleet.load_state(state["fleet"])  # grows link/ports via hooks
        self.link.load_state(state["link"])
        port_states = state["ports"]
        if len(port_states) != len(self.ports):  # type: ignore[arg-type]
            raise ValueError(
                f"checkpoint has {len(port_states)} ports, "  # type: ignore[arg-type]
                f"gateway has {len(self.ports)}"
            )
        for port, port_state in zip(self.ports, port_states):  # type: ignore[arg-type]
            port.load_state(port_state)
        self.path.load_state(state["path"])
        faults_state = state["faults"]
        if (faults_state is None) != (self.faults is None):
            raise ValueError(
                "checkpoint and gateway disagree about fault injection"
            )
        if self.faults is not None:
            self.faults.load_state(faults_state)  # type: ignore[arg-type]
        self.controller = state["controller"]  # type: ignore[assignment]
        self.offered = state["offered"]  # type: ignore[assignment]
        plane_state = state["overload_plane"]
        if (plane_state is None) != (self.overload_plane is None):
            raise ValueError(
                "checkpoint and gateway disagree about the overload plane"
            )
        if self.overload_plane is not None:
            self.overload_plane.load_state(plane_state)  # type: ignore[arg-type]
        rng_states = state["rng"]
        self._arrival_rng.bit_generator.state = rng_states["arrival"]  # type: ignore[index]
        self._call_rng.bit_generator.state = rng_states["call"]  # type: ignore[index]
        self._overload_rng.bit_generator.state = rng_states["overload"]  # type: ignore[index]
        self._call_ids = itertools.count(int(state["next_call_id"]))  # type: ignore[arg-type]
        events = self.engine.load_state(
            state["engine"],
            self._decode_callback,  # type: ignore[arg-type]
            self._decode_event_args,
        )
        self._departure_events = {
            int(event.args[1]): event
            for event in events
            if not event.cancelled
            and event.callback.__name__ == "_handle_departure"
        }
        counters = state["counters"]
        self.arrivals = int(counters["arrivals"])  # type: ignore[index]
        self.blocked = int(counters["blocked"])  # type: ignore[index]
        self.admitted = int(counters["admitted"])  # type: ignore[index]
        self.departed = int(counters["departed"])  # type: ignore[index]
        self.abandoned = int(counters["abandoned"])  # type: ignore[index]
        self.setup_shortfalls = int(counters["setup_shortfalls"])  # type: ignore[index]
        self.reneg_requests = int(counters["reneg_requests"])  # type: ignore[index]
        self.reneg_denied = int(counters["reneg_denied"])  # type: ignore[index]
        self.injected_denials = int(counters["injected_denials"])  # type: ignore[index]
        self.link_shortfalls = int(counters["link_shortfalls"])  # type: ignore[index]
        self.snapshots = list(state["snapshots"])  # type: ignore[arg-type]
        self._last_snapshot_time = float(state["last_snapshot_time"])  # type: ignore[arg-type]
        self._last_allocated_bit_seconds = float(
            state["last_allocated_bit_seconds"]  # type: ignore[arg-type]
        )
        self._last_reneg_requests = int(state["last_reneg_requests"])  # type: ignore[arg-type]
        self._next_tick = int(state["next_tick"])  # type: ignore[arg-type]
        self._preloaded = bool(state["preloaded"])

    def save(self, path, defer: bool = False) -> Dict[str, object]:
        """Write an atomic, stamped checkpoint of this gateway to ``path``.

        Returns the checkpoint metadata (code version, config hash,
        simulated time, byte size).  ``defer=True`` moves the file write
        to a background thread (serialization stays inline) — the mode
        for periodic checkpoints on a hot serve loop; the final save of
        a run should stay synchronous.  See
        :mod:`repro.server.checkpoint` for the format, the staleness
        rules, and the deferred-write ordering guarantee.
        """
        from repro.server.checkpoint import write_checkpoint

        return write_checkpoint(path, self, defer=defer)

    def checkpoint_sync(self) -> None:
        """Block until any deferred checkpoint write has landed on disk.

        Raises :class:`repro.server.checkpoint.CheckpointError` if a
        background write failed; a no-op when nothing is pending.
        """
        writer = getattr(self, "_checkpoint_writer", None)
        if writer is not None:
            writer.flush()

    def restore(self, path) -> None:
        """Load a checkpoint written by :meth:`save` into this gateway.

        The gateway must have been freshly built from the *same config*
        the checkpoint was taken under (enforced by canonical config
        hash), stepping the *same workload* (enforced by workload hash —
        the trace is built outside the config), by the *same code
        version* (enforced by version stamp); mismatches raise
        :class:`repro.server.checkpoint.StaleCheckpointError` rather
        than resuming a run that could not be bit-exact.
        """
        from repro.server.checkpoint import read_checkpoint, workload_fingerprint

        # A deferred write to this very path may still be in flight.
        self.checkpoint_sync()
        state = read_checkpoint(
            path, self.config, workload_hash=workload_fingerprint(self.workload)
        )
        self.load_state(state)

    def close(self) -> None:
        """Release external resources: the fleet's worker processes, if
        it has any.  Idempotent."""
        self.fleet.close()

    def __enter__(self) -> "RcbrGateway":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            # Don't let a pending background checkpoint be abandoned by
            # process exit; but never mask an in-flight exception with a
            # flush failure.
            self.checkpoint_sync()
        except Exception:
            if exc_type is None:
                raise
        finally:
            self.close()


def serve(
    workload: Optional[SlottedWorkload],
    config: ServerConfig,
    duration: float,
    snapshot_every: Optional[float] = None,
    faults: Optional[FaultPlan] = None,
    source: Optional[TrafficSource] = None,
) -> ServerReport:
    """One-shot convenience wrapper: build a gateway and run it."""
    gateway = build_gateway(workload, config, faults=faults, source=source)
    with gateway:
        return gateway.run(duration, snapshot_every=snapshot_every)


def build_gateway(
    workload: Optional[SlottedWorkload],
    config: ServerConfig,
    controller: Optional[AdmissionController] = None,
    faults: Optional[FaultPlan] = None,
    source: Optional[TrafficSource] = None,
) -> RcbrGateway:
    """Build the gateway for ``config`` — one class for every shard
    count (``config.shards`` only chooses where the kernel step runs).
    Kept so ``serve``, the CLI, and the scenario harness share one
    construction point."""
    return RcbrGateway(
        workload, config, controller=controller, faults=faults, source=source
    )
