"""Scenario execution: the topology-general gateway and its harness.

Every scenario runs on one serving core.  A **single-bottleneck** spec
(one link, one flow group) builds the classic gateway via
:func:`~repro.server.gateway.build_gateway` — the degenerate one-edge
topology — while a **multi-bottleneck** spec builds
:class:`ScenarioGateway`, a subclass serving one
:class:`~repro.server.fleet.CallFleet` per flow group over per-edge
:class:`~repro.queueing.link.RcbrLink`s and per-route
:class:`~repro.signaling.network.SignalingPath`s through a shared
:class:`~repro.signaling.topology.SignalingNetwork`, aggregated through
the :mod:`repro.server.topology` stacks.  Both shapes are driven
through :class:`ScenarioHarness`, so shards, checkpoint/resume,
overload planes, and MBAC admission work identically on every spec.

Determinism contract.  Four scenario streams are appended to the
classic six via the SeedSequence spawn-prefix property
(``spawn_generators(seed, 10)[6:]`` leaves streams 0-5 identical):
stream 6 samples the per-group workloads in flow order, stream 7 the
background series in background order, stream 8 seeds route signaling
paths (one shared generator threaded through every route path), and
stream 9 drives the per-link overload planes, polled in link-spec
order each epoch.  Per offered call the draw order is fixed: service
class (overload stream), then workload shift (call stream), then —
only if admitted — holding time (call stream).  Per epoch the merge
order is: background capacity updates in background order, then the
per-link overload planes in link-spec order, then one fleet step per
flow group in flow order, renegotiations issuing in ascending
pool-slot order within each group.  Event-heap callbacks address calls
by ``group * GROUP_STRIDE + slot``; the overload planes address them by
one flat index, group offset plus slot in flow order (the offsets are
the groups' pool capacities), so ascending flat index is ascending
``(group, slot)``.  Same seed (and fault seed) =>
bit-identical snapshot stream for shards ∈ {0, 1, N}, and
``run(T1); save; restore; run(T2)`` equals ``run(T1 + T2)``.

Setup admission differs from the classic runtime by design: a call's
initial rate travels its route as a real reservation
(``path.renegotiate`` from rate 0), so a hop without headroom *blocks*
the call — on a network, admission is the ports' decision, which is
exactly the back-pressure the multi-hop experiments measure.  An MBAC
controller composes with that: it vets the call against its route's
bottleneck capacity *before* the setup reservation travels.
Renegotiations then travel the same path under faults, and granted
rates are mirrored onto every traversed link (taking the minimum
grant, equalizing over-grants down), so per-link utilization and loss
integrals stay honest.

Routes are a table, not per-call records: each flow group keeps an
int32 route-id column beside its fleet (−1 marks a free slot), route ids
index a table in ``_route_paths`` creation order, and a route×edge
incidence matrix turns "which calls cross this edge" into one gather
(:meth:`ScenarioGateway.link_member_mask`).

Overload beyond blocking: with ``overload_policy`` ≠ ``block`` the
gateway runs one :class:`~repro.overload.plane.OverloadControlPlane`
per bottleneck link, built by the base gateway's plane factory from
that link and its member mask; the policies act on this gateway
through the same ``overload_shrink``/``overload_evict``/
``overload_readmit`` surface the classic gateway exposes.  Downgrade
factors from multiple congested links combine per call by minimum.
With the default ``block`` policy no plane exists and the epoch
sequence is byte-identical to the pre-overload runtime.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Tuple, Union

import networkx as nx
import numpy as np

from repro.admission.callsim import arrival_rate_for_load
from repro.faults.injectors import FaultPlan
from repro.queueing.link import RcbrLink
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.server.config import ServerConfig
from repro.server.gateway import RcbrGateway, build_gateway
from repro.server.stats import ServerReport
from repro.server.topology import (
    FleetStack,
    GroupStats,
    LinkStack,
    PathStack,
)
from repro.signaling.messages import RenegotiationRequest
from repro.signaling.network import SignalingPath
from repro.signaling.switch import SwitchPort
from repro.signaling.topology import SignalingNetwork, _edge_key
from repro.traffic.sources import make_source
from repro.traffic.trace import SlottedWorkload
from repro.util.rng import spawn_generators

#: Pool-slot encoding for event callbacks: ``group * STRIDE + slot``.
GROUP_STRIDE = 1 << 20

#: The reserved port VCI background cross-traffic occupies.
BACKGROUND_VCI = -1

#: The classic gateway's stream count; scenario streams append after it.
_BASE_STREAMS = 6

#: Scenario streams appended after the classic six (see module docstring).
_SCENARIO_STREAMS = 4


def _route_edges(route: Tuple[str, ...]) -> List[Tuple[str, str]]:
    return list(zip(route[:-1], route[1:]))


class RouteEntry(NamedTuple):
    """One row of the route table: what a call on the route reserves."""

    path: SignalingPath
    #: The route's links and ports, in route order.
    links: Tuple[RcbrLink, ...]
    ports: Tuple[SwitchPort, ...]
    #: The smallest spec capacity along the route (MBAC vets against it).
    bottleneck: float


def _link_entry(link, port, background: float, plane) -> Dict[str, object]:
    """One link's final/snapshot state, the same definitions on both
    runtime shapes."""
    entry: Dict[str, object] = {
        "capacity": float(link.capacity),
        "allocated": float(link.allocated),
        "lost_bits": float(link.lost_bits),
        "failures": int(link.failure_count),
        "port_denied": int(port.requests_denied),
        "background": float(background),
    }
    # Only present when a plane watches the link, so block-policy
    # snapshot streams keep their pre-overload shape (and fingerprints).
    if plane is not None:
        entry["overload"] = plane.section()
    return entry


def scenario_fingerprint(spec: ScenarioSpec) -> str:
    """A stable hash of the spec's *simulation identity*, stamped into
    checkpoints so a resume cannot cross scenarios whose derived
    configs collide (e.g. dumbbell-lrd vs dumbbell-poisson, which
    differ only in background burst structure).  ``duration`` and
    ``snapshot_every`` are run-time arguments — like ``repro serve``'s
    ``--duration``, a resume may extend the end time — so they are
    excluded."""
    identity = spec.to_dict()
    identity.pop("duration", None)
    identity.pop("snapshot_every", None)
    payload = json.dumps(identity, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ScenarioGateway(RcbrGateway):
    """The multi-bottleneck RCBR gateway (see the module docstring)."""

    EVENT_CALLBACK_ALLOWLIST = RcbrGateway.EVENT_CALLBACK_ALLOWLIST | {
        "_handle_group_arrival"
    }

    EVENT_ARG_CODECS = {
        **RcbrGateway.EVENT_ARG_CODECS,
        "_handle_group_arrival": (int,),
    }

    def __init__(
        self,
        spec: ScenarioSpec,
        faults: Optional[FaultPlan] = None,
        shards: int = 0,
        shard_chunk: int = 4096,
    ) -> None:
        if spec.single_bottleneck:
            raise ValueError(
                "single-bottleneck scenarios run on the classic gateway"
                " (use run_scenario)"
            )
        self.spec = spec
        config = ServerConfig(
            capacity=spec.total_capacity,
            load=0.0,  # arrivals are scheduled per flow group below
            controller=spec.controller,
            mean_holding=spec.mean_holding,
            abandon_after=spec.abandon_after,
            hop_delay=spec.links[0].delay,
            initial_calls=0,
            seed=spec.seed,
            source_slots=spec.source_slots,
            shards=shards,
            shard_chunk=shard_chunk,
            overload_policy=spec.overload_policy,
            overload_classes=spec.overload_classes,
            class_weights=spec.class_weights,
        )
        # Scenario streams 6..9; the spawn-prefix property keeps the
        # classic streams 0..5 identical to a same-seed classic run
        # (and streams 6..8 identical to pre-overload scenario runs).
        (
            self._workload_rng,
            self._bg_rng,
            self._path_rng,
            self._link_overload_rng,
        ) = spawn_generators(
            config.seed, _BASE_STREAMS + _SCENARIO_STREAMS
        )[_BASE_STREAMS:]

        source = make_source(
            spec.traffic,
            mean_rate=spec.mean_rate,
            slot_duration=spec.slot_duration,
        )
        self._group_workloads = [
            source.sample_workload(spec.source_slots, seed=self._workload_rng)
            for _ in spec.flows
        ]

        graph = nx.Graph()
        for link in spec.links:
            graph.add_edge(link.u, link.v, capacity=link.capacity)
        self.network = SignalingNetwork(graph, seed=0)
        self._edge_keys = [
            _edge_key(link.u, link.v) for link in spec.links
        ]
        self._edge_index = {
            key: index for index, key in enumerate(self._edge_keys)
        }
        self._edge_capacity = {
            key: link.capacity
            for key, link in zip(self._edge_keys, spec.links)
        }
        self._edge_delay = {
            key: link.delay for key, link in zip(self._edge_keys, spec.links)
        }
        self._edge_ports = {
            key: self.network.port_between(link.u, link.v)
            for key, link in zip(self._edge_keys, spec.links)
        }

        # Background rate series (bits/s per epoch), sampled up front in
        # background order and clamped at the peak fraction so the RCBR
        # side always keeps some capacity.
        self._bg_keys = []
        self._bg_series: Dict[Tuple, np.ndarray] = {}
        self._bg_current: Dict[Tuple, float] = {}
        for bg in spec.background:
            key = _edge_key(bg.u, bg.v)
            capacity = self._edge_capacity[key]
            bg_source = make_source(
                bg.traffic,
                mean_rate=bg.mean_fraction * capacity,
                slot_duration=spec.slot_duration,
            )
            sample = bg_source.sample_workload(
                spec.source_slots, seed=self._bg_rng
            )
            rates = np.minimum(
                sample.bits_per_slot / spec.slot_duration,
                bg.peak_fraction * capacity,
            )
            self._bg_keys.append(key)
            self._bg_series[key] = rates
            self._bg_current[key] = 0.0

        self.group_stats = [GroupStats() for _ in spec.flows]

        super().__init__(self._group_workloads[0], config, faults=faults)

        # Per-route shared signaling paths, created lazily in call
        # order; the stack view feeds the base snapshot fields and
        # recreates the routes on restore via the factory.
        self._route_paths: Dict[Tuple[str, ...], SignalingPath] = {}
        self.path = PathStack(  # type: ignore[assignment]
            self._route_paths, factory=self._path_for_route
        )
        self._reset_routes()

        # Per-group Poisson arrival rates against the (k=1) shortest
        # route's bottleneck capacity — the same Erlang identity the
        # classic config uses, so per-link offered loads are additive.
        self._group_rates: List[float] = []
        for flow, workload in zip(spec.flows, self._group_workloads):
            if flow.load <= 0:
                self._group_rates.append(0.0)
                continue
            route = self.network.k_shortest_paths(
                flow.source, flow.target, 1
            )[0]
            bottleneck = min(
                self._edge_capacity[_edge_key(u, v)]
                for u, v in _route_edges(tuple(route))
            )
            self._group_rates.append(
                arrival_rate_for_load(
                    flow.load,
                    bottleneck,
                    workload.mean_rate,
                    self.mean_holding,
                )
            )

    # ------------------------------------------------------------------
    # Construction seams
    # ------------------------------------------------------------------
    def _build_fleet(
        self, workload: SlottedWorkload, config: ServerConfig
    ) -> FleetStack:
        self._fleets = [
            self._new_fleet(group_workload, config, 256)
            for group_workload in self._group_workloads
        ]
        # Each group's route-id column widens with its pool.
        self._route_ids = [
            np.full(fleet.capacity, -1, dtype=np.int32)
            for fleet in self._fleets
        ]
        for group, fleet in enumerate(self._fleets):
            fleet.on_grow = functools.partial(self._on_group_grow, group)
        return FleetStack(self._fleets)  # type: ignore[return-value]

    def _build_link(self, config: ServerConfig) -> LinkStack:
        self._edge_links = {
            key: RcbrLink(self._edge_capacity[key])
            for key in self._edge_keys
        }
        return LinkStack(  # type: ignore[return-value]
            [self._edge_links[key] for key in self._edge_keys],
            config.capacity,
        )

    def _build_ports(self, config: ServerConfig):
        return [self._edge_ports[key] for key in self._edge_keys]

    def _build_planes(self) -> None:
        """One plane per edge in link-spec order, all on the link
        overload stream (9); an edge's members are the calls whose
        route traverses it.  None under the block policy."""
        self.overload_plane = None
        self._link_planes: List[Tuple[Tuple[str, str], Any]] = []
        for key in self._edge_keys:
            plane = self._overload_plane(
                self._edge_links[key],
                # link_member_mask is looked up per call, not captured
                # as a bound method now, so a wrapper installed later
                # sees every call.
                lambda key=key: self.link_member_mask(key),
                self._link_overload_rng,
            )
            if plane is not None:
                self._link_planes.append((key, plane))

    def _on_group_grow(self, group: int, capacity: int) -> None:
        column = self._route_ids[group]
        grown = np.full(capacity, -1, dtype=np.int32)
        grown[: column.size] = column
        self._route_ids[group] = grown

    # ------------------------------------------------------------------
    # The route table
    # ------------------------------------------------------------------
    def _reset_routes(self) -> None:
        self._route_table: List[RouteEntry] = []
        self._route_index: Dict[Tuple[str, ...], int] = {}
        # Route × edge incidence plus a trailing all-False row, which
        # route id -1 (a free slot) gathers.
        self._incidence = np.zeros((1, len(self._edge_keys)), dtype=bool)

    def _route_id(self, route: Tuple[str, ...]) -> int:
        """The route's table row, creating its path on first use."""
        route_id = self._route_index.get(route)
        if route_id is not None:
            return route_id
        edge_keys = [_edge_key(u, v) for u, v in _route_edges(route)]
        delays = [self._edge_delay[key] for key in edge_keys]
        ports = tuple(self._edge_ports[key] for key in edge_keys)
        path = SignalingPath(
            list(ports),
            # SignalingPath models one scalar per-hop delay; the mean
            # preserves the route's total round-trip time (2 * sum of
            # link delays).
            hop_delay=sum(delays) / len(delays),
            seed=self._path_rng,
            faults=self.faults,
            request_timeout=self.config.request_timeout,
            max_retries=self.config.max_retries,
            retry_backoff=self.config.retry_backoff,
            retry_jitter=self.config.retry_jitter,
            retry_seed=self._path_rng,
        )
        self._route_paths[route] = path
        route_id = len(self._route_table)
        self._route_table.append(
            RouteEntry(
                path=path,
                links=tuple(self._edge_links[key] for key in edge_keys),
                ports=ports,
                bottleneck=min(self._edge_capacity[key] for key in edge_keys),
            )
        )
        self._route_index[route] = route_id
        row = np.zeros(len(self._edge_keys), dtype=bool)
        row[[self._edge_index[key] for key in edge_keys]] = True
        self._incidence = np.insert(self._incidence, -1, row, axis=0)
        return route_id

    def _path_for_route(self, route: Tuple[str, ...]) -> SignalingPath:
        """The :class:`PathStack` factory: restores routes in their
        recorded creation order, which rebuilds the table's ids."""
        return self._route_table[self._route_id(route)].path

    def _select_route(self, group: int, rate_hint: float) -> int:
        """The table id of the route a new call of ``group`` takes."""
        flow = self.spec.flows[group]
        k = flow.route_k if flow.route_k is not None else self.spec.route_k
        route = self.network.select_route(
            flow.source, flow.target, k=k, rate_hint=rate_hint
        )
        return self._route_id(tuple(route))

    def _route_of(self, group: int, slot: int) -> RouteEntry:
        return self._route_table[self._route_ids[group][slot]]

    # ------------------------------------------------------------------
    # Call lifecycle
    # ------------------------------------------------------------------
    def preload(self) -> None:
        if self._preloaded:
            return
        self._preloaded = True
        for group, flow in enumerate(self.spec.flows):
            for _ in range(flow.initial_calls):
                self._admit_group_call(group, 0.0)
        for group in range(len(self.spec.flows)):
            self._schedule_group_arrival(group)

    def _schedule_group_arrival(self, group: int) -> None:
        rate = self._group_rates[group]
        if rate <= 0:
            return
        gap = float(self._arrival_rng.exponential(1.0 / rate))
        self.engine.schedule_in(gap, self._handle_group_arrival, group)

    def _handle_group_arrival(self, group: int) -> None:
        self._admit_group_call(group, self.engine.now)
        self._schedule_group_arrival(group)

    def _admit_group_call(self, group: int, now: float) -> Optional[int]:
        """Offer one call to ``group``; admission is route setup."""
        stats = self.group_stats[group]
        fleet = self._fleets[group]
        self.arrivals += 1
        stats.arrivals += 1
        call_class = int(
            self._overload_rng.choice(self.num_classes, p=self._class_probs)
        )
        self.offered.on_arrival(call_class)
        shift = int(
            self._call_rng.integers(self._group_workloads[group].num_slots)
        )
        call_id = next(self._call_ids)
        slot, initial_rate = fleet.admit(call_id, shift, call_class)
        route_id = self._select_route(group, initial_rate)
        route = self._route_table[route_id]
        admitted = self.controller.admit(
            route.bottleneck, now, call_class=call_class
        )
        if admitted:
            # The initial reservation travels the route for real: any
            # hop without headroom denies (and rolls back upstream
            # commits), blocking the call.
            admitted = route.path.renegotiate(
                RenegotiationRequest(
                    vci=call_id,
                    old_rate=0.0,
                    new_rate=initial_rate,
                    time=now,
                )
            )
        if not admitted:
            fleet.remove(slot)
            self.blocked += 1
            stats.blocked += 1
            self.offered.on_blocked(call_class)
            return None
        holding = float(self._call_rng.exponential(self.mean_holding))
        return self._install_group_call(
            group, slot, call_id, initial_rate, holding, call_class, now,
            route_id,
        )

    def _install_group_call(
        self,
        group: int,
        slot: int,
        call_id: int,
        initial_rate: float,
        holding: float,
        call_class: int,
        now: float,
        route_id: int,
    ) -> int:
        fleet = self._fleets[group]
        stats = self.group_stats[group]
        links = self._route_table[route_id].links
        granted = initial_rate
        failed = False
        for link in links:
            outcome = link.request(call_id, initial_rate, now)
            granted = min(granted, outcome.granted_rate)
            failed = failed or outcome.failed
        if failed:
            self.setup_shortfalls += 1
            for link in links:
                if link.grant_of(call_id) > granted + 1e-12:
                    link.request(call_id, granted, now)
        fleet.set_rate(slot, granted)
        self.controller.on_admit(call_id, granted, now, call_class=call_class)
        self.admitted += 1
        stats.admitted += 1
        self.offered.on_admitted(call_class)
        self._route_ids[group][slot] = route_id
        gslot = group * GROUP_STRIDE + slot
        self._departure_events[call_id] = self.engine.schedule_at(
            now + holding, self._handle_departure, gslot, call_id
        )
        return call_id

    def _handle_departure(self, gslot: int, call_id: int) -> None:
        group, slot = divmod(gslot, GROUP_STRIDE)
        fleet = self._fleets[group]
        if fleet.call_id[slot] != call_id:
            return  # stale event: the call already left this pool slot
        self._end_call(gslot, call_id, self.engine.now)

    def _end_call(self, gslot: int, call_id: int, now: float) -> None:
        group, slot = divmod(gslot, GROUP_STRIDE)
        fleet = self._fleets[group]
        route = self._route_of(group, slot)
        self._route_ids[group][slot] = -1
        self.offered.on_departure(int(fleet.call_class[slot]))
        for link in route.links:
            link.release(call_id, now)
        route.path.release(call_id)
        self.controller.on_departure(call_id, now)
        fleet.remove(slot)
        self._departure_events.pop(call_id, None)
        self.departed += 1
        self.group_stats[group].departed += 1

    def _abandon(self, gslot: int, call_id: int) -> None:
        self.group_stats[gslot // GROUP_STRIDE].abandoned += 1
        super()._abandon(gslot, call_id)

    # ------------------------------------------------------------------
    # The overload action surface over the flat call index
    # ------------------------------------------------------------------
    @property
    def call_class(self) -> np.ndarray:
        return np.concatenate([fleet.call_class for fleet in self._fleets])

    @property
    def rate(self) -> np.ndarray:
        return np.concatenate([fleet.rate for fleet in self._fleets])

    def _locate(self, index: int) -> Tuple[int, int]:
        """Map a flat call index back to ``(group, slot)``."""
        offset = index
        for group, column in enumerate(self._route_ids):
            if offset < column.size:
                return group, offset
            offset -= column.size
        raise IndexError(f"flat call index {index} beyond the pools")

    def link_member_mask(self, key: Tuple[str, str]) -> np.ndarray:
        """Live calls routed over edge ``key``, as a boolean column over
        the flat call index: one gather of the edge's incidence column
        by the route ids."""
        column = self._incidence[:, self._edge_index[key]]
        return column[np.concatenate(self._route_ids)]

    def overload_shrink(self, index: int, ratio: float, now: float) -> bool:
        """Shrink one call's granted rate by ``ratio`` on *every* link
        of its route (a decrease always succeeds), moving the ports and
        the admission controller with it."""
        group, slot = self._locate(index)
        fleet = self._fleets[group]
        old_rate = float(fleet.rate[slot])
        new_rate = fleet.quantize(old_rate * ratio)
        if new_rate >= old_rate:
            return False
        route = self._route_of(group, slot)
        call_id = int(fleet.call_id[slot])
        granted = new_rate
        for link in route.links:
            outcome = link.request(call_id, new_rate, now)
            granted = min(granted, outcome.granted_rate)
        for port in route.ports:
            port.reprovision(call_id, granted - old_rate)
        self.controller.on_reservation(call_id, granted, now)
        fleet.set_rate(slot, granted)
        return True

    def overload_evict(
        self, index: int, now: float
    ) -> Tuple[int, int, float, int]:
        """Tear one call out of service on a link plane's orders.

        The classic ``overload_evict`` plus the flow group appended to
        the queue entry, so readmission re-routes within the right
        group.  Accounted as a departure plus an abandonment, same as
        the classic gateway."""
        group, slot = self._locate(index)
        fleet = self._fleets[group]
        call_id = int(fleet.call_id[slot])
        call_class = int(fleet.call_class[slot])
        shift = int(fleet.shift[slot])
        event = self._departure_events.pop(call_id, None)
        remaining = self.mean_holding
        if event is not None:
            event.cancel()
            remaining = max(0.0, event.time - now)
        self._end_call(group * GROUP_STRIDE + slot, call_id, now)
        self.abandoned += 1
        self.group_stats[group].abandoned += 1
        return call_class, shift, remaining, group

    def overload_readmit(
        self, entry: Tuple[int, int, float, int], now: float
    ) -> int:
        """Put a sacrificed call back in service for its remaining
        holding time under a fresh call id and a freshly selected route.
        Like the classic readmission, the admission controller is not
        consulted and the route reservation is installed directly — the
        plane only readmits once pressure is below the exit threshold."""
        call_class, shift, remaining, group = (
            int(entry[0]), int(entry[1]), float(entry[2]), int(entry[3]),
        )
        fleet = self._fleets[group]
        self.arrivals += 1
        self.group_stats[group].arrivals += 1
        self.offered.on_arrival(call_class)
        call_id = next(self._call_ids)
        slot, initial_rate = fleet.admit(call_id, shift, call_class)
        route_id = self._select_route(group, initial_rate)
        self._install_group_call(
            group, slot, call_id, initial_rate, remaining, call_class,
            now, route_id,
        )
        # Mirror the link grants onto the route ports directly (no
        # signaling round trip): readmission is the plane's decision.
        granted = float(fleet.rate[slot])
        for port in self._route_table[route_id].ports:
            port.provision(call_id, granted)
        return call_id

    # ------------------------------------------------------------------
    # Renegotiation round trips
    # ------------------------------------------------------------------
    def _issue(
        self, gslot: int, call_id: int, new_rate: float, time: float
    ) -> None:
        group, slot = divmod(gslot, GROUP_STRIDE)
        fleet = self._fleets[group]
        path = self._route_of(group, slot).path
        old_rate = float(fleet.rate[slot])
        increase = new_rate > old_rate
        fleet.pending[slot] = True
        self.reneg_requests += 1
        self.group_stats[group].reneg_requests += 1
        if (
            increase
            and self.faults is not None
            and self.faults.should_deny(time)
        ):
            self.injected_denials += 1
            granted = False
        else:
            granted = path.renegotiate(
                RenegotiationRequest(
                    vci=call_id,
                    old_rate=old_rate,
                    new_rate=new_rate,
                    time=time,
                )
            )
        apply = granted or not increase
        self.engine.schedule_at(
            time + path.round_trip_time,
            self._complete,
            gslot,
            call_id,
            new_rate,
            granted,
            apply,
        )

    def _complete(
        self,
        gslot: int,
        call_id: int,
        new_rate: float,
        granted: bool,
        apply: bool,
    ) -> None:
        group, slot = divmod(gslot, GROUP_STRIDE)
        fleet = self._fleets[group]
        if fleet.call_id[slot] != call_id:
            return  # the call departed while its cell was in flight
        fleet.pending[slot] = False
        now = self.engine.now
        stats = self.group_stats[group]
        if apply:
            links = self._route_of(group, slot).links
            granted_rate = new_rate
            failed = False
            for link in links:
                outcome = link.request(call_id, new_rate, now)
                granted_rate = min(granted_rate, outcome.granted_rate)
                failed = failed or outcome.failed
            if failed:
                self.link_shortfalls += 1
                # Equalize over-granting links down to the route
                # bottleneck so per-link utilization stays honest; the
                # binding link keeps the unmet demand (-> lost_bits).
                for link in links:
                    if link.grant_of(call_id) > granted_rate + 1e-12:
                        link.request(call_id, granted_rate, now)
            fleet.set_rate(slot, granted_rate)
            self.controller.on_reservation(call_id, granted_rate, now)
            fleet.streak[slot] = 0
            return
        self.reneg_denied += 1
        stats.reneg_denied += 1
        streak = int(fleet.streak[slot]) + 1
        fleet.streak[slot] = streak
        if (
            self.config.abandon_after is not None
            and streak >= self.config.abandon_after
        ):
            self._abandon(gslot, call_id)

    # ------------------------------------------------------------------
    # The epoch step
    # ------------------------------------------------------------------
    def _step_epoch(self, tick: int, now: float, end_of_slot: float) -> None:
        self._apply_background(tick, now)
        downgrade = self._poll_link_planes(tick, now)
        for group, fleet in enumerate(self._fleets):
            step = fleet.step(
                tick,
                downgrade=None if downgrade is None else downgrade[group],
            )
            if step.num_requests:
                self._issue_group_epoch(group, step, end_of_slot)

    def _poll_link_planes(
        self, tick: int, now: float
    ) -> Optional[List[Optional[np.ndarray]]]:
        """Drive each per-link plane once; fold their downgrade factors
        (masked to each link's member calls) into per-group columns by
        minimum.  Returns None when no plane asked for a downgrade —
        including always, when the policy is ``block`` (no planes)."""
        if not self._link_planes:
            return None
        combined: Optional[List[np.ndarray]] = None
        sizes = [int(fleet.active.size) for fleet in self._fleets]
        for key, plane in self._link_planes:
            factors = plane.on_epoch(tick, now)
            if factors is None:
                continue
            mask = self.link_member_mask(key)
            if combined is None:
                combined = [np.ones(size) for size in sizes]
            offset = 0
            for group, size in enumerate(sizes):
                member = mask[offset:offset + size]
                np.minimum(
                    combined[group],
                    np.where(member, factors[offset:offset + size], 1.0),
                    out=combined[group],
                )
                offset += size
        if combined is None:
            return None
        return combined  # type: ignore[return-value]

    def _issue_group_epoch(self, group: int, step, end_of_slot: float) -> None:
        fleet = self._fleets[group]
        call_ids = fleet.call_id[step.slots]
        base = group * GROUP_STRIDE
        for slot, call_id, candidate in zip(
            step.slots.tolist(),
            call_ids.tolist(),
            step.candidates.tolist(),
        ):
            self._issue(base + slot, call_id, candidate, end_of_slot)

    def _apply_background(self, tick: int, now: float) -> None:
        for key in self._bg_keys:
            series = self._bg_series[key]
            rate = float(series[tick % series.size])
            previous = self._bg_current[key]
            if rate == previous:
                continue
            self._bg_current[key] = rate
            self._edge_ports[key].reprovision(BACKGROUND_VCI, rate - previous)
            self._edge_links[key].set_capacity(
                self._edge_capacity[key] - rate, now
            )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _network_section(self) -> Dict[str, object]:
        planes = dict(self._link_planes)
        links: Dict[str, Dict[str, object]] = {}
        for link_spec, key in zip(self.spec.links, self._edge_keys):
            links[f"{link_spec.u}~{link_spec.v}"] = _link_entry(
                self._edge_links[key],
                self._edge_ports[key],
                self._bg_current.get(key, 0.0),
                planes.get(key),
            )
        groups: Dict[str, Dict[str, object]] = {}
        for flow, fleet, stats in zip(
            self.spec.flows, self._fleets, self.group_stats
        ):
            groups[flow.name] = {
                "active": int(fleet.num_active),
                "arrivals": stats.arrivals,
                "blocked": stats.blocked,
                "admitted": stats.admitted,
                "departed": stats.departed,
                "abandoned": stats.abandoned,
                "reneg_requests": stats.reneg_requests,
                "reneg_denied": stats.reneg_denied,
            }
        return {"links": links, "groups": groups}

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """The base export (the stacks serialize per group/edge/route)
        plus the scenario-only state: the per-group route-id columns
        (ids index the routes in the path stack's creation order), group
        counters, applied background rates, the two live scenario
        streams, and the per-link overload planes.

        The workload stream (6) and background stream (7) are consumed
        only during ``__init__`` — a restoring gateway re-draws them
        identically from the spec — so like the classic workload
        stream, they are not captured.
        """
        state = super().state_dict()
        state["scenario"] = {
            "route_ids": [column.copy() for column in self._route_ids],
            "group_stats": [
                dataclasses.asdict(stats) for stats in self.group_stats
            ],
            "bg_current": [
                self._bg_current[key] for key in self._bg_keys
            ],
            "rng": {
                "path": self._path_rng.bit_generator.state,
                "link_overload": (
                    self._link_overload_rng.bit_generator.state
                ),
            },
            "link_planes": [
                plane.state_dict() for _, plane in self._link_planes
            ],
        }
        return state

    def load_state(self, state: Dict[str, object]) -> None:
        scenario = state["scenario"]  # type: ignore[index]
        # The PathStack restore inside the base load rebuilds every
        # route's path through the factory in creation order, which
        # re-derives the route table under the same ids.
        self._reset_routes()
        super().load_state(state)
        saved_ids = scenario["route_ids"]  # type: ignore[index]
        if len(saved_ids) != len(self._route_ids):
            raise ValueError(
                f"checkpoint carries {len(saved_ids)} route columns, "
                f"this gateway serves {len(self._route_ids)} flow groups"
            )
        for column, saved in zip(self._route_ids, saved_ids):
            column[:] = saved
        self.group_stats = [
            GroupStats(**stats)
            for stats in scenario["group_stats"]  # type: ignore[index]
        ]
        for key, value in zip(
            self._bg_keys, scenario["bg_current"]  # type: ignore[index]
        ):
            self._bg_current[key] = float(value)
        rng_states = scenario["rng"]  # type: ignore[index]
        self._path_rng.bit_generator.state = rng_states["path"]
        self._link_overload_rng.bit_generator.state = (
            rng_states["link_overload"]
        )
        plane_states = scenario["link_planes"]  # type: ignore[index]
        if len(plane_states) != len(self._link_planes):
            raise ValueError(
                f"checkpoint carries {len(plane_states)} link planes, "
                f"this gateway runs {len(self._link_planes)}"
            )
        for (_, plane), plane_state in zip(
            self._link_planes, plane_states
        ):
            plane.load_state(plane_state)


# ----------------------------------------------------------------------
# The harness and dispatcher
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioResult:
    """A scenario run: the classic report plus scenario-shaped views."""

    spec: ScenarioSpec
    report: ServerReport
    #: Per-flow-group and per-link final state (uniform across both
    #: runtime shapes; links are read from the live links and ports,
    #: a single-bottleneck group from the classic counters).
    groups: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    links: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @property
    def fingerprint(self) -> str:
        return self.report.fingerprint

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.spec.to_dict(),
            "groups": self.groups,
            "links": self.links,
            **self.report.to_dict(),
        }

    def summary_lines(self) -> List[str]:
        final = self.report.final
        denial = (
            final.reneg_denied / final.reneg_requests
            if final.reneg_requests
            else 0.0
        )
        blocking = final.blocked / final.arrivals if final.arrivals else 0.0
        lines = [
            f"scenario:        {self.spec.name}",
            f"duration:        {self.report.duration:g} s "
            f"({self.report.epochs} epochs)",
            f"calls:           {final.arrivals} offered, "
            f"{final.admitted} admitted, {final.blocked} blocked "
            f"({blocking:.1%}), {final.abandoned} abandoned",
            f"renegotiations:  {final.reneg_requests} requests, "
            f"{final.reneg_denied} denied ({denial:.1%})",
            f"bits lost:       {final.bits_lost_overflow:.0f} overflow, "
            f"{final.bits_lost_link:.0f} link",
            f"mean utilization: {self.report.mean_utilization:.3f}",
        ]
        for name, group in self.groups.items():
            requests = group.get("reneg_requests", 0)
            denied = group.get("reneg_denied", 0)
            fraction = denied / requests if requests else 0.0
            lines.append(
                f"  group {name}: active={group.get('active', 0)} "
                f"blocked={group.get('blocked', 0)} "
                f"denied={denied}/{requests} ({fraction:.1%}) "
                f"abandoned={group.get('abandoned', 0)}"
            )
        for name, link in self.links.items():
            lines.append(
                f"  link {name}: lost_bits={link.get('lost_bits', 0.0):.0f} "
                f"failures={link.get('failures', 0)} "
                f"port_denied={link.get('port_denied', 0)}"
            )
        lines.append(f"fingerprint:     {self.fingerprint}")
        return lines


class BackgroundDriver:
    """The single-bottleneck background epoch hook as an object.

    Same arithmetic as always (stream 7 series, last port, set_capacity
    on change) but with its applied rate held where a resume can reach
    it: the hook runs *before* the tick it gates, so a checkpoint
    stamped ``next_tick=T`` saw the background rate of tick ``T - 1``
    applied — :meth:`sync_to` re-derives that from the series, making
    kill-and-resume bit-exact with no extra checkpoint state.
    """

    def __init__(self, spec: ScenarioSpec, gateway: RcbrGateway) -> None:
        link = spec.links[0]
        bg = spec.background[0]
        # Stream 7 is the scenario background stream in both runtime
        # shapes (see the module docstring).
        bg_rng = spawn_generators(spec.seed, _BASE_STREAMS + 2)[
            _BASE_STREAMS + 1
        ]
        bg_source = make_source(
            bg.traffic,
            mean_rate=bg.mean_fraction * link.capacity,
            slot_duration=spec.slot_duration,
        )
        self._series = np.minimum(
            bg_source.sample_workload(
                spec.source_slots, seed=bg_rng
            ).bits_per_slot
            / spec.slot_duration,
            bg.peak_fraction * link.capacity,
        )
        self._capacity = link.capacity
        self._port = gateway.ports[-1]
        self._rate = 0.0

    def __call__(self, tick: int, gw: RcbrGateway) -> None:
        rate = float(self._series[tick % self._series.size])
        previous = self._rate
        if rate != previous:
            self._rate = rate
            self._port.reprovision(BACKGROUND_VCI, rate - previous)
            gw.link.set_capacity(self._capacity - rate, gw.engine.now)

    @property
    def rate(self) -> float:
        """The background rate currently applied to the link."""
        return self._rate

    def sync_to(self, next_tick: int) -> None:
        """Align the applied-rate latch with a restored gateway."""
        if next_tick > 0:
            self._rate = float(
                self._series[(next_tick - 1) % self._series.size]
            )
        else:
            self._rate = 0.0


class ScenarioHarness:
    """One scenario, fully armed: run, checkpoint, restore, report.

    Builds the right gateway for the spec's shape — the classic
    (optionally sharded) gateway for a single-bottleneck spec, the
    :class:`ScenarioGateway` otherwise — and exposes the uniform
    lifecycle ``repro serve`` drives: :meth:`run` with an epoch hook,
    :meth:`save`/:meth:`restore` with scenario-stamped checkpoints, and
    :meth:`result` to shape the final report.  Construction and draw
    order are byte-identical to the pre-harness dispatcher.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        *,
        shards: int = 0,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        from repro.server.checkpoint import (
            checkpoint_code_version,
            config_fingerprint,
            workload_fingerprint,
        )

        self.spec = spec
        self.shards = int(shards)
        self._background: Optional[BackgroundDriver] = None
        self._section: Optional[Dict[str, object]] = None
        if spec.single_bottleneck:
            link = spec.links[0]
            flow = spec.flows[0]
            config = ServerConfig(
                capacity=link.capacity,
                load=flow.load,
                controller=spec.controller,
                mean_holding=spec.mean_holding,
                abandon_after=spec.abandon_after,
                num_hops=spec.num_hops,
                hop_delay=link.delay,
                initial_calls=flow.initial_calls,
                seed=spec.seed,
                source_slots=spec.source_slots,
                shards=shards,
                overload_policy=spec.overload_policy,
                overload_classes=spec.overload_classes,
                class_weights=spec.class_weights,
            )
            source = make_source(
                spec.traffic,
                mean_rate=spec.mean_rate,
                slot_duration=spec.slot_duration,
            )
            self.gateway = build_gateway(
                None, config, faults=faults, source=source
            )
            if spec.background:
                self._background = BackgroundDriver(spec, self.gateway)
        else:
            self.gateway = ScenarioGateway(
                spec, faults=faults, shards=shards
            )
        # Stamp checkpoints with the scenario identity up front: two
        # specs can derive identical configs and workloads (the
        # dumbbell twins differ only in background structure), and a
        # resume across them must refuse, not drift.
        config = self.gateway.config
        self.gateway._checkpoint_stamps = {
            "code_version": checkpoint_code_version(),
            "config_hash": config_fingerprint(config),
            "workload_hash": workload_fingerprint(self.gateway.workload),
            "config": config.to_dict(),
            "scenario_hash": scenario_fingerprint(spec),
            "scenario": spec.to_dict(),
        }

    def run(
        self,
        duration: Optional[float] = None,
        snapshot_every: Optional[float] = None,
        epoch_hook=None,
    ) -> ServerReport:
        spec = self.spec
        background = self._background
        if epoch_hook is None:
            hook = background
        elif background is None:
            hook = epoch_hook
        else:
            def hook(tick: int, gw: RcbrGateway):
                # The serve hook first: a stop/save request breaks the
                # loop *before* the tick is stepped, so background for
                # this tick must not apply either (it applies on the
                # resumed run's first tick instead).
                stop = epoch_hook(tick, gw)
                if stop:
                    return stop
                background(tick, gw)
                return None
        report = self.gateway.run(
            spec.duration if duration is None else duration,
            snapshot_every=(
                spec.snapshot_every
                if snapshot_every is None
                else snapshot_every
            ),
            epoch_hook=hook,
        )
        # Captured while the gateway is open: sharded fleet columns live
        # in shared memory that close() unlinks.
        self._section = self._capture_section()
        return report

    def _capture_section(self) -> Dict[str, object]:
        """The per-link (and, multi-bottleneck, per-group) final state,
        read from the live links and ports on both runtime shapes."""
        gateway = self.gateway
        if isinstance(gateway, ScenarioGateway):
            return gateway._network_section()
        link = self.spec.links[0]
        background = self._background
        return {
            "links": {
                f"{link.u}~{link.v}": _link_entry(
                    gateway.link,
                    gateway.ports[-1],
                    background.rate if background is not None else 0.0,
                    gateway.overload_plane,
                )
            }
        }

    def save(self, path, defer: bool = False) -> Dict[str, Any]:
        return self.gateway.save(path, defer=defer)

    def checkpoint_sync(self) -> None:
        self.gateway.checkpoint_sync()

    def restore(self, path) -> None:
        """Resume from a checkpoint of the *same scenario* (spec hash
        enforced on top of the config/workload/code stamps)."""
        from repro.server.checkpoint import (
            read_checkpoint,
            workload_fingerprint,
        )

        self.gateway.checkpoint_sync()
        state = read_checkpoint(
            path,
            self.gateway.config,
            workload_hash=workload_fingerprint(self.gateway.workload),
            expected_stamps={
                "scenario_hash": scenario_fingerprint(self.spec)
            },
        )
        self.gateway.load_state(state)
        if self._background is not None:
            self._background.sync_to(self.gateway._next_tick)

    def result(self, report: ServerReport) -> ScenarioResult:
        spec = self.spec
        section = self._section
        if section is None:
            section = self._capture_section()
        if isinstance(self.gateway, ScenarioGateway):
            groups = section["groups"]
        else:
            flow = spec.flows[0]
            final = report.final
            groups = {
                flow.name: {
                    "active": final.active_calls,
                    "arrivals": final.arrivals,
                    "blocked": final.blocked,
                    "admitted": final.admitted,
                    "departed": final.departed,
                    "abandoned": final.abandoned,
                    "reneg_requests": final.reneg_requests,
                    "reneg_denied": final.reneg_denied,
                }
            }
        return ScenarioResult(
            spec=spec,
            report=report,
            groups=groups,  # type: ignore[arg-type]
            links=section["links"],  # type: ignore[arg-type]
        )

    def __enter__(self) -> "ScenarioHarness":
        self.gateway.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.gateway.__exit__(exc_type, exc, tb)


def run_scenario(
    scenario: Union[str, ScenarioSpec],
    *,
    seed: Optional[int] = None,
    duration: Optional[float] = None,
    snapshot_every: Optional[float] = None,
    route_k: Optional[int] = None,
    shards: int = 0,
    faults: Optional[FaultPlan] = None,
) -> ScenarioResult:
    """Run a scenario (by name or spec) and return its result.

    Keyword overrides replace the spec's defaults.  ``shards`` applies
    to every scenario shape — the single-bottleneck specs run the
    classic gateway with a sharded fleet, the multi-bottleneck specs
    shard each flow group's fleet.  Same spec and seed =>
    byte-identical fingerprint for shards ∈ {0, 1, N}.
    """
    spec = (
        get_scenario(scenario) if isinstance(scenario, str) else scenario
    )
    overrides: Dict[str, Any] = {}
    if seed is not None:
        overrides["seed"] = seed
    if duration is not None:
        overrides["duration"] = duration
    if snapshot_every is not None:
        overrides["snapshot_every"] = snapshot_every
    if route_k is not None:
        overrides["route_k"] = route_k
    if overrides:
        spec = spec.replace(**overrides)
    harness = ScenarioHarness(spec, shards=shards, faults=faults)
    with harness:
        report = harness.run()
    return harness.result(report)
