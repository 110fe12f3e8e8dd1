"""Route membership kept as a column: the per-edge member mask.

The scenario gateway records each live call's route as an id in a
per-group int32 column (-1 for a free slot) over a route table and a
route x edge incidence matrix, so ``link_member_mask(key)`` is one
gather.  These tests drive random admissions, departures, overload
evictions and readmissions, pool growth and a checkpoint restore, and
check every edge's mask against a brute-force recomputation from the
route table — and, independently of the route ids, against which calls
actually hold a reservation on the edge's link.
"""

import numpy as np
import pytest

from repro.scenarios import (
    FlowGroupSpec,
    LinkSpec,
    ScenarioHarness,
    ScenarioSpec,
)
from repro.scenarios.runtime import GROUP_STRIDE, _route_edges
from repro.signaling.topology import _edge_key
from repro.traffic.starwars import STAR_WARS_MEAN_RATE

#: Pools start at 256 slots; admitting past that forces growth.
INITIAL_POOL = 256


def ring_spec():
    """A 4-node ring with room for every call, and k=2 routing so a
    group's calls spread over two routes."""
    capacity = 2000 * STAR_WARS_MEAN_RATE
    ring = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
    return ScenarioSpec(
        name="membership-ring",
        description="route-membership property drill",
        links=tuple(LinkSpec(u, v, capacity) for u, v in ring),
        flows=(
            FlowGroupSpec("ac", "a", "c", load=0.0, initial_calls=0),
            FlowGroupSpec("ab", "a", "b", load=0.0, initial_calls=0),
            FlowGroupSpec("bd", "b", "d", load=0.0, initial_calls=0),
        ),
        route_k=2,
        duration=1.0,
        snapshot_every=1.0,
        overload_policy="sacrifice",
    )


def brute_force_mask(gateway, key):
    """Membership from the route table, one call at a time."""
    routes = list(gateway._route_paths)
    mask = []
    for column in gateway._route_ids:
        for route_id in column.tolist():
            mask.append(
                route_id >= 0
                and key
                in [_edge_key(u, v) for u, v in _route_edges(routes[route_id])]
            )
    return np.asarray(mask, dtype=bool)


def reserving_mask(gateway, key):
    """Membership from the edge's link: live calls holding a grant."""
    link = gateway._edge_links[key]
    mask = []
    for fleet in gateway._fleets:
        for slot in range(fleet.active.size):
            call_id = int(fleet.call_id[slot])
            mask.append(
                bool(fleet.active[slot]) and call_id in link._grants
            )
    return np.asarray(mask, dtype=bool)


def check_masks(gateway):
    masks = {}
    for key in gateway._edge_keys:
        mask = gateway.link_member_mask(key)
        np.testing.assert_array_equal(mask, brute_force_mask(gateway, key))
        np.testing.assert_array_equal(mask, reserving_mask(gateway, key))
        masks[key] = mask
    for key, plane in gateway._link_planes:
        np.testing.assert_array_equal(plane.members(), masks[key])
    return masks


def live_calls(gateway):
    """(flat index, gslot, call id) of every live call."""
    calls = []
    offset = 0
    for group, fleet in enumerate(gateway._fleets):
        for slot in np.flatnonzero(fleet.active).tolist():
            calls.append(
                (
                    offset + slot,
                    group * GROUP_STRIDE + slot,
                    int(fleet.call_id[slot]),
                )
            )
        offset += fleet.active.size
    return calls


def churn(gateway, rng, operations, queue, now, admit_share):
    """Random admissions (group 0 gets most, so its pool outgrows its
    first size), departures, evictions and readmissions."""
    remove_share = (1.0 - admit_share) * 0.9
    for _ in range(operations):
        now += 0.001
        gateway.engine.run(until=now)  # due departures fire here too
        op = rng.random()
        calls = live_calls(gateway)
        if op < admit_share or not calls:
            group = 0 if rng.random() < 0.8 else int(rng.integers(1, 3))
            gateway._admit_group_call(group, now)
        elif op < admit_share + remove_share / 2:
            _, gslot, call_id = calls[int(rng.integers(len(calls)))]
            gateway._handle_departure(gslot, call_id)
        elif op < admit_share + remove_share:
            index, _, _ = calls[int(rng.integers(len(calls)))]
            queue.append(gateway.overload_evict(index, now))
        elif queue:
            gateway.overload_readmit(queue.pop(0), now)
    return now


@pytest.mark.parametrize("shards", [0, 2])
@pytest.mark.parametrize("seed", [0, 1])
def test_member_mask_matches_brute_force(tmp_path, shards, seed):
    spec = ring_spec()
    rng = np.random.default_rng(seed)
    queue = []
    path = tmp_path / "membership.ckpt"

    with ScenarioHarness(spec, shards=shards) as harness:
        gateway = harness.gateway
        now = churn(gateway, rng, 800, queue, 0.0, admit_share=0.8)
        assert gateway._fleets[0].capacity > INITIAL_POOL  # pool grew
        assert len(gateway._route_paths) > len(spec.flows)  # k=2 spread
        check_masks(gateway)
        # A removal-heavy phase leaves freed slots behind (the free list
        # is LIFO, so admissions would otherwise reuse them at once).
        now = churn(gateway, rng, 150, queue, now, admit_share=0.1)
        before = check_masks(gateway)
        harness.save(path)

    with ScenarioHarness(spec, shards=shards) as restored:
        gateway = restored.gateway
        restored.restore(path)
        after = check_masks(gateway)
        assert before.keys() == after.keys()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key])
        # Keep churning on the restored gateway: restored route ids and
        # routes created after the restore must share one table.
        churn(gateway, rng, 200, queue, now, admit_share=0.5)
        check_masks(gateway)
