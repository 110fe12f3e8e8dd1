"""Recorded snapshot-stream fingerprints for scenarios and overload runs.

The determinism, shard-parity and resume tests compare a run with
another run of the same code, so a behaviour change that is consistent
across all of them passes every one.  These pins compare against
digests recorded once, so a refactor that is meant to be exact must
land on exactly these values.

Floating-point folds can differ between interpreter and numpy builds,
so the digests are keyed by ``sys.version_info[:2]``; on an interpreter
with no recorded values the tests skip and name the interpreter that
recorded them.
"""

import sys

import pytest

from repro.scenarios import SCENARIO_NAMES, run_scenario
from repro.server import ServerConfig, serve
from repro.traffic.starwars import generate_starwars_trace
from tests.test_scenario_unified import hot_spec

#: Where the values below were measured.
RECORDED_ON = "CPython 3.11.7 with numpy 2.4.6"

PINS = {
    (3, 11): {
        # The roster at duration=2, snapshot_every=1.
        "parking-lot": "5ea2d32709acd5843a1d3794274af43dd8da536db0c70d496ee9e8b84697ec88",
        "hotspot-collision": "9dfebd2499b8a713ab08853c1dee1658e47d06ed728284f1c1d7d81fc2ce73d9",
        "dumbbell-lrd": "3ac787ffc5af0c5bc0036ce9fa62baa5772daa1893b8b56f063cd9b2bdead2ec",
        "dumbbell-poisson": "b9fde57b7fcf2e8a999af195b6ac757e213aa864db70e83876bc1112da6efdca",
        "mmpp-storm": "360e4cc3e864abeda3e1c949d33c945f1034bae0321223b30294c732d94a4104",
        "satellite": "6cf5c5bfe9571bf52161107c152c076f960f721847ab1b19876f6e550ac40f20",
        "mixed-classes": "73912ba953870a44fb6a0824fd1ddd88a12a43fdf6d476154ff4bf69214785b1",
        # hot_spec(policy).replace(duration=40.0): per-link planes engage.
        "hot-downgrade": "b351cf7e8ca04b28fdad42503f8955e2768562856a93b0b9a3981c72f469d650",
        "hot-sacrifice": "bc63e4423357764df4e99e4e0d943a9d456d399dd021d01508f022198d1aff3b",
        # hot_spec("sacrifice", controller="memory") at its own duration.
        "hot-sacrifice-memory": "2a99415197cc259355d450097c768ab456f652a04f92f13da3cf14b11ce20437",
        # The classic gateway's single plane, saturated (see below).
        "classic-downgrade": "399b96fb1aebbe1f059ff969f4e057a71cb686f810f829e30047784964829890",
        "classic-sacrifice": "9118485bfaa11be4220c3ec64b94d4b306bc5d2f999e92a19bc16fa3d956eb29",
    },
}


def pinned(key):
    recorded = PINS.get(sys.version_info[:2])
    if recorded is None:
        pytest.skip(
            f"no fingerprints recorded for Python "
            f"{sys.version_info[0]}.{sys.version_info[1]}; "
            f"the pins were recorded on {RECORDED_ON}"
        )
    return recorded[key]


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_roster_fingerprint(name):
    result = run_scenario(name, duration=2.0, snapshot_every=1.0)
    assert result.fingerprint == pinned(name)


@pytest.mark.parametrize(
    "policy,counters",
    [
        ("downgrade", {"escalations": 24, "calls_shrunk": 30}),
        ("sacrifice", {"sacrificed": 10, "readmitted": 10}),
    ],
)
def test_hot_chain_fingerprint(policy, counters):
    expected = pinned(f"hot-{policy}")
    result = run_scenario(hot_spec(policy).replace(duration=40.0))
    section = result.links["a~b"]["overload"]
    assert {key: section[key] for key in counters} == counters
    assert result.fingerprint == expected


def test_hot_chain_memory_mbac_fingerprint():
    expected = pinned("hot-sacrifice-memory")
    result = run_scenario(hot_spec("sacrifice", controller="memory"))
    assert result.fingerprint == expected


@pytest.mark.parametrize("policy", ["downgrade", "sacrifice"])
def test_classic_overload_fingerprint(policy):
    expected = pinned(f"classic-{policy}")
    workload = generate_starwars_trace(num_frames=400, seed=1995).as_workload()
    config = ServerConfig(
        capacity=20 * workload.mean_rate,
        load=1.5,
        controller="always",
        seed=13,
        initial_calls=25,
        overload_policy=policy,
    )
    report = serve(workload, config, duration=15.0, snapshot_every=5.0)
    assert report.fingerprint == expected

