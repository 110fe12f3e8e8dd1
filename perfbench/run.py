"""Serving benchmark for the RCBR gateway.

Run from the repository root::

    python3 perfbench/run.py --workload serve-steady --seed 0 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Each measurement runs in a fresh interpreter (``measure.py``) so set-up
is paid cold.  ``--trace 0`` prints the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` runs the workload once untraced and
once with span tracing and prints the per-layer metrics.  Every run
checks its outputs: the window fingerprint against ``manifest.json``
for the recorded seed, the call-conservation identities, zero link
shortfalls on the single-link workloads, kill/resume equality, and in
traced runs that tracing changed no fingerprint.  Human-readable lines
come first; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_run"

#: Set-up probes started after the main measurement; ``setup_s`` is the
#: median over the main process and these.
SETUP_PROBES = 2

#: Seconds one workload may take, set-up probes included.
WORKLOAD_BUDGET_S = 170.0


class BenchError(RuntimeError):
    pass


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def spawn(workload: str, mode: str, args, deadline: float) -> dict:
    """Run ``measure.py`` in a fresh process group; return its JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    command = [
        sys.executable, str(HERE / "measure.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--workdir", str(WORKDIR),
    ]
    if args.smoke:
        command.append("--smoke")
    command += ["--t0", repr(time.time())]
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
        start_new_session=True, text=True,
    )
    try:
        out, _ = process.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise BenchError(f"{workload} {mode} run exceeded the time budget")
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    lines = out.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise BenchError(
            f"{workload} {mode} run failed (exit code {process.returncode})"
        )
    return json.loads(lines[-1])


def expected_fingerprint(manifest: dict, workload: str, args) -> str:
    if args.smoke or args.seed != manifest["default_seed"]:
        return None
    return manifest["workloads"][workload]["fingerprint"]


def check_fingerprint(failures: list, result: dict, expected: str) -> None:
    if expected is not None and result["fingerprint"] != expected:
        failures.append(
            f"window fingerprint {result['fingerprint'][:16]} != "
            f"recorded {expected[:16]}"
        )


def end_to_end(workload: str, args, manifest: dict, deadline: float):
    main = spawn(workload, "main", args, deadline)
    setups = [main]
    for _ in range(1 if args.smoke else SETUP_PROBES):
        setups.append(spawn(workload, "setup", args, deadline))
    failures = list(main["failures"])
    check_fingerprint(failures, main, expected_fingerprint(manifest, workload, args))
    timed = main["timed"]
    tally = main["counters"]
    checkpoint = main["checkpoint"]
    pairs = [
        save + restore
        for save, restore in zip(checkpoint["save_s"], checkpoint["restore_s"])
    ]
    metrics = {
        "setup_s": statistics.median(
            probe["setup_s"] * probe["setup_factor"] for probe in setups
        ),
        "cpu_realtime_factor": timed["cpu_realtime_factor"],
        "call_epochs_per_cpu_s": timed["call_epochs_per_cpu_s"],
        "epoch_cpu_ms_p50": timed["cpu_p50_ms"],
        "epoch_cpu_ms_p95": timed["cpu_p95_ms"],
        "peak_rss_mb": main["peak_rss_mb"],
        "checkpoint_s": statistics.median(
            pair * factor for pair, factor in zip(pairs, checkpoint["factors"])
        ),
        "checkpoint_mb": checkpoint["bytes"] / 2**20,
        "call_accept_frac": tally["admitted"] / tally["arrivals"],
        "reneg_grant_frac": 1.0 - tally["reneg_denied"] / tally["reneg_requests"],
        "utilization": tally["mean_utilization"],
    }
    detail = {
        "fingerprint": main["fingerprint"],
        "epoch_samples": timed["samples"],
        "kernel_ms": round(timed["kernel_ms"], 3),
        "raw": {
            "setup_s": statistics.median(probe["setup_s"] for probe in setups),
            "cpu_realtime_factor": timed["raw_cpu_realtime_factor"],
            "call_epochs_per_cpu_s": timed["raw_call_epochs_per_cpu_s"],
            "epoch_cpu_ms_p50": timed["raw_cpu_p50_ms"],
            "epoch_cpu_ms_p95": timed["raw_cpu_p95_ms"],
            "epoch_ms_p50": timed["raw_p50_ms"],
            "epoch_ms_p95": timed["raw_p95_ms"],
            "realtime_factor": timed["raw_realtime_factor"],
            "call_epochs_per_s": timed["raw_call_epochs_per_s"],
            "checkpoint_s": statistics.median(pairs),
        },
        "realtime_factor": timed["realtime_factor"],
        "call_epochs_per_s": timed["call_epochs_per_s"],
        "epoch_ms_p50": timed["p50_ms"],
        "epoch_ms_p95": timed["p95_ms"],
        "checkpoint_pairs": len(pairs),
        "timed_wall_s": round(timed["raw_wall_s"], 3),
        "call_block_frac": tally["blocked"] / tally["arrivals"],
        "reneg_denial_frac": tally["reneg_denied"] / tally["reneg_requests"],
        "window_counters": tally,
        "deadline_ms": 1e3 / 24.0,
    }
    return metrics, main["final"], failures, detail


def per_layer(workload: str, args, manifest: dict, deadline: float):
    reference = spawn(workload, "reference", args, deadline)
    traced = spawn(workload, "traced", args, deadline)
    failures = list(reference["failures"]) + list(traced["failures"])
    check_fingerprint(failures, reference, expected_fingerprint(manifest, workload, args))
    if traced["fingerprint"] != reference["fingerprint"]:
        failures.append("tracing changed the window fingerprint")
    if traced["counters"] != reference["counters"]:
        failures.append("tracing changed the simulated counters")
    metrics = dict(traced["layers"])
    bound = manifest["coverage_bound"]
    if abs(metrics["trace.coverage_frac"] - 1.0) > bound:
        failures.append(
            f"layer self times cover {metrics['trace.coverage_frac']:.3f} of "
            f"the traced window (bound 1 +/- {bound})"
        )
    checkpoint = traced["checkpoint"]
    metrics.update({
        "checkpoint.save_s": statistics.median(checkpoint["save_s"]),
        "checkpoint.restore_s": statistics.median(checkpoint["restore_s"]),
        "checkpoint.bytes": checkpoint["bytes"],
        "setup.import_s": traced["import_s"],
        "setup.build_s": traced["build_s"],
        "setup.preload_s": traced["preload_s"],
        "setup.admit_us": traced["admit_us"],
        # Host-speed-normalized: the two runs are separate processes.
        "trace.overhead_frac": traced["window"]["wall_s"]
        / reference["window"]["wall_s"] - 1.0,
    })
    detail = {
        "fingerprint": traced["fingerprint"],
        "traced_epochs": traced["window"]["epochs"],
        "pending_samples": len(traced["window"]["pending"]),
        "spans_file": str(WORKDIR / f"spans-{workload}.npz"),
    }
    return metrics, traced["final"], failures, detail


def calibration() -> dict:
    """A fixed microbenchmark, context only: tells machine drift from
    code drift when comparing runs from different hosts."""
    import numpy as np

    values = np.random.default_rng(0).random(1_000_000)
    began = time.perf_counter()
    for _ in range(5):
        np.sort(values)
    numpy_s = time.perf_counter() - began
    began = time.perf_counter()
    total = 0
    for index in range(2_000_000):
        total += index * index % 7
    python_s = time.perf_counter() - began
    return {"numpy_sort_s": round(numpy_s, 4), "python_loop_s": round(python_s, 4)}


def context(args) -> dict:
    import numpy as np

    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True,
        )
        commit = probe.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "seed": args.seed,
        "seconds": args.seconds,
        "calibration": calibration(),
    }


def run_workload(workload: str, args, manifest: dict, declared: dict):
    deadline = time.time() + WORKLOAD_BUDGET_S
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, final, failures, detail = measure(workload, args, manifest, deadline)
    except BenchError as error:
        raise BenchError(f"{workload}: {error}") from None
    missing = set(declared) - set(metrics)
    if missing:
        raise BenchError(f"{workload}: no value for {sorted(missing)}")
    attempted = final["arrivals"] + final["reneg_requests"]
    correct = not failures
    print(f"== {workload} seed={args.seed} trace={args.trace}: "
          f"{'correct' if correct else 'INCORRECT'}")
    for failure in failures:
        print(f"   check failed: {failure}")
    for name, unit in declared.items():
        print(f"   {name:32s} {metrics[name]:>16.6g} {unit}")
    print(f"   detail: {json.dumps(detail)}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in declared.items()
        },
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="RCBR serving benchmark (see perfbench/run.py docstring)"
    )
    parser.add_argument("--workload", default="all",
                        help="a workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-scale shapes for the self-tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    benchmark = load_json(ROOT / "BENCHMARK.json")
    manifest = load_json(HERE / "manifest.json")
    names = [entry["name"] for entry in benchmark["workloads"]]
    selected = names if args.workload == "all" else [args.workload]
    if any(name not in names for name in selected):
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = {
        entry["name"]: entry["unit"]
        for entry in benchmark["per_layer" if args.trace else "end_to_end"]
    }
    WORKDIR.mkdir(exist_ok=True)
    results = {}
    try:
        for name in selected:
            results[name] = run_workload(name, args, manifest, declared)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    print(f"context: {json.dumps(context(args))}")
    if len(results) == 1:
        summary = next(iter(results.values()))
    else:
        summary = {
            "correct": all(result["correct"] for result in results.values()),
            "attempted": sum(result["attempted"] for result in results.values()),
            "failed": sum(result["failed"] for result in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, result in results.items()
                for metric, value in result["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
