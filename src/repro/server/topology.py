"""The topology-general serving core: stack views over per-edge state.

The classic :class:`~repro.server.gateway.RcbrGateway` serves one
bottleneck link; the scenario runtime serves a route graph with one
:class:`~repro.server.fleet.CallFleet` per flow group, one
:class:`~repro.queueing.link.RcbrLink` per edge, and one
:class:`~repro.signaling.network.SignalingPath` per distinct route.
The base gateway's snapshot, report, and checkpoint plumbing reads a
single ``fleet`` / ``link`` / ``path`` object; these stacks make a
multi-edge topology quack like that degenerate one-edge case, so every
feature written against the base gateway — shards, checkpoints,
overload planes, MBAC admission — works unchanged on any topology.

Determinism: every aggregate folds in a fixed order (flow-group order
for fleets, link-spec order for edges, route-creation order for paths),
so the floats feeding the snapshot fingerprint are reproducible, and
every stack round-trips through ``state_dict``/``load_state`` in that
same order for bit-exact resume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.queueing.link import RcbrLink
from repro.server.fleet import CallFleet
from repro.signaling.network import PathStats, SignalingPath

__all__ = [
    "FleetStack",
    "GroupStats",
    "LinkStack",
    "PathStack",
]


@dataclass
class GroupStats:
    """Cumulative per-flow-group lifecycle counters."""

    arrivals: int = 0
    blocked: int = 0
    admitted: int = 0
    departed: int = 0
    abandoned: int = 0
    reneg_requests: int = 0
    reneg_denied: int = 0


class FleetStack:
    """Aggregate gauge view over the per-group fleets.

    Quacks like the single :class:`CallFleet` the base gateway reads in
    snapshots and reports; sums run in fixed group order so the floats
    feeding the fingerprint are reproducible.
    """

    def __init__(self, fleets: List[CallFleet]) -> None:
        self.fleets = fleets

    @property
    def num_active(self) -> int:
        return sum(fleet.num_active for fleet in self.fleets)

    @property
    def peak_active(self) -> int:
        # Sum of per-group peaks: an upper bound on the true concurrent
        # peak, fine for the (unfingerprinted) report gauge.
        return sum(fleet.peak_active for fleet in self.fleets)

    @property
    def call_epochs_stepped(self) -> int:
        return sum(fleet.call_epochs_stepped for fleet in self.fleets)

    @property
    def bits_lost(self) -> float:
        return float(sum(fleet.bits_lost for fleet in self.fleets))

    @property
    def bits_downgraded(self) -> float:
        return float(sum(fleet.bits_downgraded for fleet in self.fleets))

    def total_buffered_bits(self) -> float:
        return float(
            sum(fleet.total_buffered_bits() for fleet in self.fleets)
        )

    def total_reserved_rate(self) -> float:
        return float(
            sum(fleet.total_reserved_rate() for fleet in self.fleets)
        )

    def close(self) -> None:
        for fleet in self.fleets:
            fleet.close()

    def state_dict(self) -> List[Dict[str, object]]:
        return [fleet.state_dict() for fleet in self.fleets]

    def load_state(self, states: List[Dict[str, object]]) -> None:
        if len(states) != len(self.fleets):
            raise ValueError(
                f"checkpoint carries {len(states)} fleets, this gateway "
                f"serves {len(self.fleets)} flow groups"
            )
        for fleet, state in zip(self.fleets, states):
            fleet.load_state(state)


class LinkStack:
    """Aggregate accounting view over the per-edge links."""

    def __init__(self, links: List[RcbrLink], total_capacity: float) -> None:
        self.links = links
        self.capacity = float(total_capacity)

    def finish(self, time: float) -> None:
        for link in self.links:
            link.finish(time)

    @property
    def allocated(self) -> float:
        return float(sum(link.allocated for link in self.links))

    @property
    def total_demand(self) -> float:
        return float(sum(link.total_demand for link in self.links))

    @property
    def allocated_bit_seconds(self) -> float:
        return float(
            sum(link.allocated_bit_seconds for link in self.links)
        )

    @property
    def lost_bits(self) -> float:
        return float(sum(link.lost_bits for link in self.links))

    def mean_utilization(self, horizon: Optional[float] = None) -> float:
        delivered = 0.0
        for link in self.links:
            span = link.now if horizon is None else horizon
            delivered += link.delivered_bit_seconds + link.capacity * max(
                0.0, span - link.now
            )
        if delivered <= 0:
            return 0.0
        return self.allocated_bit_seconds / delivered

    def state_dict(self) -> List[Dict[str, object]]:
        return [link.state_dict() for link in self.links]

    def load_state(self, states: List[Dict[str, object]]) -> None:
        if len(states) != len(self.links):
            raise ValueError(
                f"checkpoint carries {len(states)} links, this gateway "
                f"serves {len(self.links)} edges"
            )
        for link, state in zip(self.links, states):
            link.load_state(state)


class PathStack:
    """Merged :class:`PathStats` over the per-route signaling paths.

    Checkpointing recreates each path through ``factory`` (the
    gateway's lazy route-to-path constructor) in the recorded creation
    order, then loads each path's state — routes created lazily in call
    order are thus rebuilt before any restored event references them.
    """

    def __init__(
        self,
        route_paths: Dict[Tuple[str, ...], SignalingPath],
        factory: Optional[
            Callable[[Tuple[str, ...]], SignalingPath]
        ] = None,
    ) -> None:
        self._route_paths = route_paths
        self.factory = factory

    @property
    def stats(self) -> PathStats:
        merged = PathStats()
        for path in self._route_paths.values():  # route-creation order
            stats = path.stats
            merged.requests += stats.requests
            merged.increase_requests += stats.increase_requests
            merged.failures += stats.failures
            merged.cells_sent += stats.cells_sent
            merged.cells_lost += stats.cells_lost
            merged.timeouts += stats.timeouts
            merged.retries += stats.retries
            merged.duplicates += stats.duplicates
            merged.outage_drops += stats.outage_drops
            merged.failure_hops.extend(stats.failure_hops)
        return merged

    def state_dict(self) -> Dict[str, object]:
        return {
            "routes": [list(route) for route in self._route_paths],
            "paths": [
                path.state_dict() for path in self._route_paths.values()
            ],
        }

    def load_state(self, state: Dict[str, object]) -> None:
        if self.factory is None:
            raise ValueError(
                "PathStack cannot restore routes without a factory"
            )
        self._route_paths.clear()
        for route, path_state in zip(state["routes"], state["paths"]):
            self.factory(tuple(route)).load_state(path_state)
