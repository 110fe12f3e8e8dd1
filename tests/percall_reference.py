"""The per-call renegotiation commit — the reference the batch must match.

The serving gateway commits each epoch's renegotiations as one batch
(:meth:`~repro.server.gateway.RcbrGateway._issue_epoch` and
``_complete_batch``) over a dense, slot-keyed link and dense switch
ports.  This subclass puts back the plain event-per-request round trip:
one :meth:`~repro.server.gateway.RcbrGateway._issue` per request, each
answered by its own ``_complete`` heap event, over the dict
:class:`~repro.queueing.link.RcbrLink` and dict
:class:`~repro.signaling.switch.SwitchPort`s.  Every fingerprint the
batched gateway produces, at any shard count, must equal this one.

Keep it plain: its value is that it shares none of the batching it
checks.
"""

from __future__ import annotations

from typing import List

from repro.queueing.link import RcbrLink
from repro.server.config import ServerConfig
from repro.server.fleet import EpochStep
from repro.server.gateway import RcbrGateway
from repro.signaling.switch import SwitchPort


class PerCallGateway(RcbrGateway):
    """``RcbrGateway`` with the per-call commit over dict link/ports."""

    def _build_link(self, config: ServerConfig) -> RcbrLink:
        return RcbrLink(config.capacity)

    def _build_ports(self, config: ServerConfig) -> List[SwitchPort]:
        ports = [
            SwitchPort(
                config.capacity * config.upstream_headroom,
                name=f"hop{index}",
            )
            for index in range(config.num_hops - 1)
        ]
        ports.append(SwitchPort(config.capacity, name="bottleneck"))
        return ports

    def _on_fleet_grow(self, new_capacity: int) -> None:
        pass  # dict link and ports take any key; nothing to widen

    def _issue_epoch(self, step: EpochStep, end_of_slot: float) -> None:
        for slot, call_id, candidate in zip(
            step.slots.tolist(),
            self.fleet.call_id[step.slots].tolist(),
            step.candidates.tolist(),
        ):
            self._issue(slot, call_id, candidate, end_of_slot)
