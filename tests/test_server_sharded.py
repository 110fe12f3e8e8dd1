"""The sharded fleet: fingerprint identity, recovery, and partitioning.

The contract under test (DESIGN.md §14): same seed => byte-identical
snapshot fingerprint for any shard count, including the in-process
fleet, and equal to the per-call reference commit
(``tests/percall_reference.py``), under every configuration — hot links
with steady denials, buffer overflow, overload planes, fleet growth,
fault plans, worker crashes, and the degrade-to-inline path.
"""

import os
import signal
from fractions import Fraction

import numpy as np
import pytest

from repro.faults.injectors import FaultPlan
from repro.perf.supervise import SupervisorPolicy
from repro.server import ServerConfig, build_gateway, shard_of_slot
from repro.server.sharded import _num_chunks
from repro.signaling.switch import DenseSwitchPort, SwitchPort
from repro.traffic.starwars import generate_starwars_trace
from tests.percall_reference import PerCallGateway


@pytest.fixture(scope="module")
def workload():
    return generate_starwars_trace(num_frames=400, seed=1995).as_workload()


def config(workload, shards, **overrides):
    defaults = dict(
        capacity=40 * workload.mean_rate,
        load=0.8,
        controller="always",
        seed=11,
        initial_calls=8,
        shards=shards,
        shard_chunk=16,
    )
    defaults.update(overrides)
    return ServerConfig(**defaults)


def run_report(workload, shards, duration=5.0, faults=None, **overrides):
    cfg = config(workload, shards, **overrides)
    with build_gateway(workload, cfg, faults=faults) as gateway:
        return gateway.run(duration, snapshot_every=1.0)


def run_reference(workload, duration=5.0, faults=None, **overrides):
    cfg = config(workload, 0, **overrides)
    with PerCallGateway(workload, cfg, faults=faults) as gateway:
        return gateway.run(duration, snapshot_every=1.0)


def assert_reports_match(reports):
    """Equal fingerprints and equal final canonical snapshots."""
    fingerprints = {report.fingerprint for report in reports}
    assert len(fingerprints) == 1, fingerprints
    finals = [report.final.canonical() for report in reports]
    assert all(final == finals[0] for final in finals[1:])


IDENTITY_CASES = {
    "baseline": {},
    # Capacity at the fleet's aggregate mean: the link runs hot and the
    # bottleneck port denies a steady stream of increases, exercising
    # the batched denial fixpoint every epoch.
    "hot-denials": dict(capacity=None, load=0.0, initial_calls=60),
    "abandonment": dict(
        capacity=None, load=0.0, initial_calls=60, abandon_after=2
    ),
    "tiny-buffer": dict(buffer_bits=2_000.0),
    "overload-downgrade": dict(
        capacity=None,
        load=0.0,
        initial_calls=60,
        overload_policy="downgrade",
        overload_enter=0.7,
        overload_exit=0.5,
        overload_dwell=2,
    ),
    "multihop": dict(
        capacity=None,
        load=0.0,
        initial_calls=60,
        num_hops=3,
        upstream_headroom=1.05,
    ),
    "growth": dict(load=3.0, initial_calls=2, mean_holding=2.0),
}


class TestFingerprintIdentity:
    @pytest.mark.parametrize("name", sorted(IDENTITY_CASES))
    def test_plain_and_sharded_fingerprints_match(self, workload, name):
        overrides = dict(IDENTITY_CASES[name])
        if overrides.get("capacity", "unset") is None:
            overrides["capacity"] = (
                overrides["initial_calls"] * workload.mean_rate
            )
        reference = run_reference(workload, **overrides)
        reports = [
            run_report(workload, shards, **overrides) for shards in (0, 1, 3)
        ]
        assert_reports_match([reference] + reports)

    def test_hot_link_actually_denies(self, workload):
        report = run_report(
            workload,
            shards=2,
            capacity=60 * workload.mean_rate,
            load=0.0,
            initial_calls=60,
        )
        assert report.final.reneg_denied > 0

    def test_fault_plan_fingerprints_match(self, workload):
        def faults():
            return FaultPlan.from_spec(
                {
                    "denial": {"rate": 0.1},
                    "cell_loss": {"probability": 0.05},
                    "duplication": {"probability": 0.05},
                },
                seed=42,
            )

        reference = run_reference(workload, duration=4.0, faults=faults())
        reports = [
            run_report(workload, shards, duration=4.0, faults=faults())
            for shards in (0, 1, 3)
        ]
        assert_reports_match([reference] + reports)

    def test_shards_one_matches_plain_counters(self, workload):
        plain = run_report(workload, 0)
        sharded = run_report(workload, 1)
        for field in (
            "active_calls", "arrivals", "admitted", "departed", "abandoned",
            "reneg_requests", "reneg_denied", "cells_sent", "reserved_rate",
            "bits_lost_link",
        ):
            assert getattr(plain.final, field) == getattr(
                sharded.final, field
            ), field


class TestRecovery:
    def test_worker_kill_mid_run_preserves_fingerprint(self, workload):
        cfg = config(workload, shards=2)
        baseline = run_report(workload, 2)

        with build_gateway(workload, cfg) as gateway:
            gateway.run(2.0, snapshot_every=1.0)
            pool = gateway.fleet._pool
            assert pool is not None
            os.kill(pool._workers[0].pid, signal.SIGKILL)
            report = gateway.run(3.0, snapshot_every=1.0)

        assert gateway.fleet.pool_rebuilds >= 1
        assert not gateway.fleet.degraded
        assert report.fingerprint == baseline.fingerprint

    def test_sustained_kills_degrade_to_inline(self, workload):
        cfg = config(workload, shards=2)
        baseline = run_report(workload, 2)

        supervisor = SupervisorPolicy(max_pool_rebuilds=0)
        with build_gateway(workload, cfg) as gateway:
            gateway.fleet.supervisor = supervisor
            gateway.run(2.0, snapshot_every=1.0)
            pool = gateway.fleet._pool
            os.kill(pool._workers[1].pid, signal.SIGKILL)
            report = gateway.run(3.0, snapshot_every=1.0)

        assert gateway.fleet.degraded
        assert gateway.fleet._pool is None
        assert report.fingerprint == baseline.fingerprint


class TestShardPartitioning:
    def test_assignment_is_pure_and_total(self):
        for chunk_size in (1, 16, 4096):
            for num_shards in (1, 2, 7):
                shards = [
                    shard_of_slot(slot, chunk_size, num_shards)
                    for slot in range(3 * chunk_size * num_shards)
                ]
                assert all(0 <= shard < num_shards for shard in shards)
                # Chunks are dealt round-robin: slot and its chunk agree.
                for slot, shard in enumerate(shards):
                    assert shard == (slot // chunk_size) % num_shards

    def test_call_never_migrates_under_growth(self, workload):
        """Growth appends chunks; existing slots keep their shard."""
        cfg = config(
            workload, shards=3, load=4.0, initial_calls=4, mean_holding=2.0
        )
        with build_gateway(workload, cfg) as gateway:
            fleet = gateway.fleet
            chunk = fleet.chunk_size
            before = {
                slot: shard_of_slot(slot, chunk, 3)
                for slot in np.flatnonzero(fleet.active)
            }
            capacity_before = fleet.capacity
            gateway.run(6.0)
            assert fleet.capacity >= capacity_before  # churn happened
            for slot, shard in before.items():
                assert shard_of_slot(slot, chunk, 3) == shard

    def test_per_shard_demand_sums_partition_link_demand(self, workload):
        """Shards partition the slots, so exact per-shard demand sums
        (rationals, no float rounding) add up to the link's total."""
        cfg = config(
            workload,
            shards=3,
            load=0.0,
            initial_calls=60,
            capacity=60 * workload.mean_rate,
        )
        with build_gateway(workload, cfg) as gateway:
            gateway.run(3.0)
            fleet = gateway.fleet
            demands = gateway.link._demands
            num_shards = cfg.shards
            per_shard = [Fraction(0)] * num_shards
            for slot in range(fleet.capacity):
                shard = shard_of_slot(slot, fleet.chunk_size, num_shards)
                per_shard[shard] += Fraction(float(demands[slot]))
            total = sum(per_shard, Fraction(0))
            assert total == sum(
                (Fraction(float(d)) for d in demands), Fraction(0)
            )
            # And the float running total the link maintains agrees to
            # within accumulated rounding of the exact partition sum.
            assert float(total) == pytest.approx(
                gateway.link.total_demand, rel=1e-9
            )

    def test_chunk_count_covers_capacity(self):
        assert _num_chunks(100, 16) == 7
        assert _num_chunks(96, 16) == 6
        assert _num_chunks(1, 16) == 1


def _hot_epoch(rng, count, headroom=0.5):
    """One epoch of a hot link: stationary per-call rates, aggregate a
    hair under capacity — the regime the denial fixpoint exists for."""
    old = rng.uniform(0.5, 1.5, size=count)
    new = np.maximum(0.0, old + rng.normal(0.05, 0.2, size=count))
    utilization = float(old.sum())
    capacity = utilization + headroom
    return capacity, utilization, new - old


class TestDenialFixpoint:
    """switch.delta_batch_apply == the scalar per-cell loop, bit for bit."""

    def _scalar_reference(self, capacity, utilization, deltas):
        from repro.signaling.messages import CellKind, RmCell

        port = SwitchPort(capacity, track_per_vci=False)
        port.utilization = utilization
        granted = []
        for index, delta in enumerate(deltas):
            cell = RmCell(vci=index, kind=CellKind.DELTA, er=float(delta),
                          issued_at=0.0)
            granted.append(port.process(cell))
        return port, np.asarray(granted, dtype=bool)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_scalar_under_contention(self, seed):
        rng = np.random.default_rng(seed)
        capacity, utilization, deltas = _hot_epoch(rng, 400)
        port = SwitchPort(capacity, track_per_vci=False)
        port.utilization = utilization
        granted = port.delta_batch_apply(np.arange(400), deltas)
        reference, expected = self._scalar_reference(
            capacity, utilization, deltas
        )
        assert granted is not None
        assert bool(np.any(~expected))  # contention really denies
        assert np.array_equal(granted, expected)
        assert port.utilization == reference.utilization
        assert port.requests_denied == reference.requests_denied
        assert port.cells_processed == reference.cells_processed

    def test_matches_scalar_when_fixpoint_declines(self):
        """Deltas that walk the aggregate toward zero engage the
        ``max(0.0, ...)`` clamp; the fixpoint must refuse (commit
        nothing) rather than commit a fold the scalar loop would have
        clamped differently."""
        rng = np.random.default_rng(7)
        deltas = rng.normal(0.0, 2.0, size=300)  # drains 45 -> clamp
        port = SwitchPort(50.0, track_per_vci=False)
        port.utilization = 45.0
        before = port.utilization
        assert port.delta_batch_apply(np.arange(300), deltas) is None
        assert port.utilization == before
        assert port.cells_processed == 0

    def test_contended_batches_resolve_without_fallback(self):
        """The bracketing fixpoint must not oscillate on contended
        epochs — that is the regime it exists for."""
        rng = np.random.default_rng(123)
        for _ in range(20):
            capacity, utilization, deltas = _hot_epoch(rng, 1000)
            port = SwitchPort(capacity, track_per_vci=False)
            port.utilization = utilization
            granted = port.delta_batch_apply(np.arange(1000), deltas)
            assert granted is not None
            assert bool(np.any(~granted))  # contention really denied

    def test_dense_port_matches_dict_port(self):
        rng = np.random.default_rng(11)
        capacity, utilization, deltas = _hot_epoch(rng, 300)
        dense = DenseSwitchPort(capacity, 300)
        plain = SwitchPort(capacity)
        dense.utilization = plain.utilization = utilization
        vcis = np.arange(300)
        granted_dense = dense.delta_batch_apply(vcis, deltas)
        granted_plain = plain.delta_batch_apply(vcis, deltas)
        assert granted_dense is not None
        assert np.array_equal(granted_dense, granted_plain)
        assert dense.utilization == plain.utilization
        for vci in range(300):
            assert (dense.rate_of(vci) or 0.0) == pytest.approx(
                plain.rate_of(vci) or 0.0
            )

    def test_clean_batch_denies_nothing(self):
        port = SwitchPort(1000.0)
        deltas = np.asarray([5.0, -2.0, 3.0])
        granted = port.delta_batch_apply([1, 2, 3], deltas)
        assert granted is not None and bool(np.all(granted))
        assert port.utilization == 6.0
