"""Self-tests of the serving benchmark (smoke-size shapes).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from tracer import Tracer, instrument  # noqa: E402

WORK = ROOT / ".perfbench_run"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
MANIFEST = json.loads((HERE / "manifest.json").read_text(encoding="utf-8"))
NAMES = [entry["name"] for entry in BENCHMARK["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def window_fingerprint(name: str, traced: bool = False) -> str:
    workload = workloads.get(name)
    epochs = workload.epochs(smoke=True)
    with workload.build(1, smoke=True) as served:
        served.preload()
        served.run(epochs["warmup"])
        tracer = Tracer()
        if traced:
            instrument(tracer, served.gateway)
        fingerprint = served.run(epochs["window"]).fingerprint
        tracer.unwrap_all()
        return fingerprint


def test_contract_shape():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert NAMES == list(workloads.WORKLOADS) == list(MANIFEST["workloads"])
    bounds = {entry["name"]: entry["bound"] for entry in BENCHMARK["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    predicted = set(MANIFEST["layer_predictions"])
    assert predicted == {entry["name"] for entry in BENCHMARK["per_layer"]}


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_of_every_workload(trace):
    result = run_bench("--workload", "all", "--smoke", "--seconds", "1",
                       "--trace", trace, "--seed", "3")
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] > 0
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    expected = {
        f"{name}/{entry['name']}": entry["unit"]
        for name in NAMES for entry in declared
    }
    assert {key: value["unit"] for key, value in summary["metrics"].items()} == expected


def test_steady_and_sharded_fingerprints_agree():
    assert window_fingerprint("serve-steady") == window_fingerprint("serve-sharded")
    recorded = MANIFEST["workloads"]
    assert recorded["serve-steady"]["fingerprint"] == recorded["serve-sharded"]["fingerprint"]


@pytest.mark.parametrize("name", NAMES)
def test_tracing_changes_no_fingerprint(name):
    assert window_fingerprint(name, traced=True) == window_fingerprint(name)


def test_unwrapped_gateway_checkpoints():
    """The wrappers do not pickle; removing them must make save() work."""
    path = WORK / "unwrapped.ckpt"
    WORK.mkdir(exist_ok=True)
    with workloads.get("scenario-chain").build(1, smoke=True) as served:
        served.preload()
        tracer = Tracer()
        instrument(tracer, served.gateway)
        served.run(2)
        tracer.unwrap_all()
        served.save(path)
    path.unlink()


def test_refuses_to_run_without_sources():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        result = run_bench("--workload", NAMES[0], "--seed", "1",
                           "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
