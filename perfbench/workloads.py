"""The four serving workloads, each built behind one small interface.

A workload is a function of ``(seed, smoke)`` that builds a fresh system
under test: a classic gateway (``repro.server.gateway.build_gateway``)
or a scenario harness (``repro.scenarios.runtime.ScenarioHarness``).
:class:`Served` hides the difference so the measurement code drives
both the same way: run whole epochs with an epoch hook, save, restore
into a fresh build, close.

Every random input is derived from the seed: the gateway's RNG streams
(call shifts, holding times, arrivals), the scenario's sampled traffic
and background, and its fault plan.  ``smoke`` shrinks
each workload to a seconds-scale shape for the self-tests; it keeps the
code paths (shards, MBAC, multi-hop, background, overload, faults) and
only scales counts and capacities.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict

#: Epoch counts of the deterministic run phases.  ``window`` is the
#: fixed first part of the timed window whose fingerprint and simulated
#: statistics must repeat exactly for a seed (at least 200 epochs, so a
#: p95 has ten samples beyond it; longer where the simulated statistics
#: need more simulated time to settle); ``resume`` is the number of
#: epochs run on both the original and the restored system.
SMOKE_EPOCHS = {"warmup": 4, "window": 24, "resume": 4}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; why each exists is in ``manifest.json``."""

    name: str
    #: ``link_shortfalls`` must stay 0 (a path-granted increase that the
    #: link could not honour); true on the single-link ``serve-*`` shapes.
    shortfall_free: bool
    build: Callable[[int, bool], "Served"]
    #: Timed epochs per second of ``--seconds``: about the rate at which
    #: the workload runs on the 2-core Xeon VM it was sized on.
    epochs_per_s: float
    window_epochs: int = 200

    def epochs(self, smoke: bool) -> Dict[str, int]:
        if smoke:
            return SMOKE_EPOCHS
        return {"warmup": 48, "window": self.window_epochs, "resume": 8}

    def timed_epochs(self, seconds: float, smoke: bool) -> int:
        """Epochs a main run times in all, window and resume included.

        A fixed count rather than "as many as fit in ``seconds``": the
        work per epoch drifts over simulated time (on ``serve-steady``
        it falls by a third over the first minute), so a time-bounded
        run on a slower host would time other, costlier epochs.
        """
        epochs = self.epochs(smoke)
        fixed = epochs["window"] + epochs["resume"]
        if smoke:
            return fixed + 8
        return max(fixed + 1, round(seconds * self.epochs_per_s))


class Served:
    """A built system under test with a uniform run/save/restore surface."""

    def __init__(
        self,
        gateway,
        run: Callable,
        save: Callable,
        restore: Callable,
        slot: float,
        initial_calls: int,
    ) -> None:
        self.gateway = gateway
        self._run = run
        self._save = save
        self._restore = restore
        self.slot = slot
        self.initial_calls = initial_calls

    def preload(self) -> None:
        self.gateway.preload()

    def run(self, epochs: int, hook=None):
        """Serve ``epochs`` more epochs; returns the ServerReport."""
        return self._run(epochs * self.slot, hook)

    def save(self, path) -> None:
        self._save(path)

    def restore(self, path) -> None:
        self._restore(path)

    def close(self) -> None:
        self.gateway.close()

    def __enter__(self) -> "Served":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _starwars():
    """The repository's bench trace: one fixed Star-Wars segment.

    Every call is a circular shift of it, so the trace alone sets how
    often calls renegotiate; a per-seed trace would make the work per
    epoch, and every timing, depend on the seed.
    """
    from repro.server.bench import bench_workload

    return bench_workload()


def _classic(workload, config) -> Served:
    from repro.server.gateway import build_gateway

    gateway = build_gateway(workload, config)
    return Served(
        gateway,
        run=lambda duration, hook: gateway.run(duration, epoch_hook=hook),
        save=gateway.save,
        restore=gateway.restore,
        slot=workload.slot_duration,
        initial_calls=config.initial_calls,
    )


def _fleet(seed: int, smoke: bool, shards: int) -> Served:
    """A preloaded always-admit fleet on a link with 10% headroom."""
    from repro.perf.sweeps import GRANULARITY
    from repro.server.config import ServerConfig

    workload = _starwars()
    calls = 2_000 if smoke else 50_000
    config = ServerConfig(
        capacity=calls * workload.mean_rate * 1.1,
        load=0.0,
        controller="always",
        granularity=GRANULARITY,
        initial_calls=calls,
        seed=seed,
        shards=shards,
        shard_chunk=512 if smoke else 4096,
    )
    return _classic(workload, config)


def build_steady(seed: int, smoke: bool = False) -> Served:
    return _fleet(seed, smoke, shards=0)


def build_sharded(seed: int, smoke: bool = False) -> Served:
    return _fleet(seed, smoke, shards=1)


def build_churn(seed: int, smoke: bool = False) -> Served:
    """Open-loop Poisson arrivals admitted by the memory-based MBAC."""
    from repro.perf.sweeps import GRANULARITY
    from repro.server.config import ServerConfig

    workload = _starwars()
    scale = 100 if smoke else 1000
    config = ServerConfig(
        capacity=scale * workload.mean_rate,
        load=0.95,
        controller="memory",
        granularity=GRANULARITY,
        mean_holding=10.0,
        initial_calls=int(0.8 * scale),
        seed=seed,
    )
    return _classic(workload, config)


def chain_spec(seed: int, smoke: bool = False):
    """``parking-lot`` scaled up, with bursty background and downgrade."""
    from repro.scenarios.registry import get_scenario
    from repro.scenarios.spec import BackgroundSpec

    scale = 10 if smoke else 100
    spec = get_scenario("parking-lot")
    return spec.replace(
        seed=seed,
        links=tuple(
            dataclasses.replace(link, capacity=link.capacity * scale)
            for link in spec.links
        ),
        flows=tuple(
            dataclasses.replace(flow, initial_calls=flow.initial_calls * scale)
            for flow in spec.flows
        ),
        background=(
            BackgroundSpec("n1", "n2", traffic="mmpp", mean_fraction=0.2),
        ),
        overload_policy="downgrade",
        # 200 s of sampled call and background traffic instead of 20 s:
        # with the short sample, a seed's few bursts set the denial rate
        # (and the work per epoch) for the whole run.
        source_slots=4800,
    )


def build_chain(seed: int, smoke: bool = False) -> Served:
    from repro.faults.injectors import FaultPlan
    from repro.scenarios.runtime import ScenarioHarness

    spec = chain_spec(seed, smoke)
    faults = FaultPlan.from_spec(
        {"denial": {"rate": 0.1}, "cell_loss": {"probability": 0.02}},
        seed=seed,
    )
    harness = ScenarioHarness(spec, faults=faults)
    return Served(
        harness.gateway,
        run=lambda duration, hook: harness.run(duration, epoch_hook=hook),
        save=harness.save,
        restore=harness.restore,
        slot=spec.slot_duration,
        initial_calls=sum(flow.initial_calls for flow in spec.flows),
    )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "serve-steady",
            shortfall_free=True,
            build=build_steady,
            epochs_per_s=22,
        ),
        Workload(
            "serve-sharded",
            shortfall_free=True,
            build=build_sharded,
            epochs_per_s=220,
        ),
        Workload(
            "serve-churn",
            shortfall_free=True,
            build=build_churn,
            epochs_per_s=60,
            window_epochs=600,
        ),
        Workload(
            "scenario-chain",
            shortfall_free=False,
            build=build_chain,
            epochs_per_s=100,
            window_epochs=1200,
        ),
    )
}


def get(name: str) -> Workload:
    try:
        return WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}"
        ) from None
