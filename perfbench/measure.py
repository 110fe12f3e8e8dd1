"""One measured run of one workload, in a fresh process.

``run.py`` starts this script once per measurement so that set-up is
always paid from a cold interpreter; it prints one JSON object on its
last stdout line.  Modes:

``setup``
    Import, build, preload, and stop at the first served epoch.
``main``
    The end-to-end measurement: set-up, an untimed warm-up, the timed
    window, a checkpoint save/restore and the kill/resume check.  The
    timed window is a fixed first part (``window`` epochs, whose
    fingerprint and simulated statistics repeat exactly for a seed),
    ``resume`` epochs after the checkpoint, and then more epochs up to
    a fixed total sized to take about ``--seconds`` (see
    ``Workload.timed_epochs``); a slow host stops early, at
    :data:`TIMED_CAP` times ``--seconds`` of timed wall time.
``reference``
    Set-up, warm-up and the fixed window only, untraced: the baseline a
    traced run's fingerprint and wall time are compared against.
``traced``
    As ``reference`` but with every layer entry point wrapped in spans
    (see ``tracer.py``), followed by the checkpoint and resume steps
    with the wrappers removed.  Reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np
from scipy.stats.mstats import hdquantiles

import workloads
from calibration import Kernel, rolling_factors
from tracer import Tracer, instrument

#: Every this many epochs a traced run samples the heap depth (the
#: count is O(heap), so sampling every epoch would swamp short epochs).
PENDING_SAMPLE_EVERY = 5

#: Seconds between calibration-kernel samples during a timed window.
CALIBRATE_EVERY_S = 0.25

#: A main run stops timing once its timed epochs took this many times
#: ``--seconds`` of wall time, even short of its fixed epoch count.
TIMED_CAP = 1.5

#: Checkpoint save/restore pairs: at least the first count, then more
#: until the pairs took the given seconds, up to the last count.  The
#: median pair is reported.  A full garbage collection precedes each
#: timed save and restore, so neither pays for collecting the garbage
#: that earlier work left (that cost varied a pair's time by +-25%).
CHECKPOINT_REPEATS = (5, 2.0, 15)


def cpu_clocks() -> dict:
    """CPU seconds used so far by this process and by each live
    ``multiprocessing`` child (the shard workers), keyed by pid.

    A child is read through its Linux process CPU clock, whose id is
    ``(~pid << 3) | 2`` (``CPUCLOCK_SCHED``, whole process).  Task CPU
    clocks leave out time the task waited to be scheduled and, with
    paravirtual steal accounting, time the host ran other tenants.
    """
    clocks = {os.getpid(): time.process_time()}
    for child in multiprocessing.active_children():
        try:
            clocks[child.pid] = time.clock_gettime(((~child.pid) << 3) | 2)
        except OSError:  # exited since the listing
            pass
    return clocks


def cpu_since(before: dict, after: dict) -> float:
    """CPU seconds between two :func:`cpu_clocks` readings; a process
    that started in between counts from zero."""
    return sum(used - before.get(pid, 0.0) for pid, used in after.items())


class EpochTimer:
    """Times served epochs between successive epoch-hook calls.

    An epoch's sample is the wall time and the CPU time (of the gateway
    process and its shard workers, see :func:`cpu_clocks`) from the end
    of one hook call to the start of the next (heap drain, step and
    issue), and the call-epochs it stepped.  Between epochs, every
    :data:`CALIBRATE_EVERY_S`, the hook times the calibration kernel;
    :meth:`summary` reports both raw and host-speed-normalized figures
    (see ``calibration.py``).  Wall time is what a served client waits;
    CPU time is the same work without the waits for a core that other
    tenants of a shared host impose, which mostly land in the tail.
    """

    def __init__(self, served, kernel: Kernel, tracer: Tracer = None) -> None:
        self.served = served
        self.kernel = kernel
        self.tracer = tracer
        self.epoch_ms = []
        self.epoch_cpu_ms = []
        self.epoch_calls = []
        self.kernel_at = []
        self.kernel_s = []
        self.kernel_cpu_s = []
        self.pending = []
        self.epochs = 0

    def _close_epoch(self, now: float, cpu: dict, calls: int, state: dict) -> None:
        self.epoch_ms.append((now - state["end"]) * 1e3)
        self.epoch_cpu_ms.append(cpu_since(state["cpu"], cpu) * 1e3)
        self.epoch_calls.append(calls - state["calls"])
        state["timed_ms"] += self.epoch_ms[-1]

    def run(self, epochs: int, stop_after: float = None):
        """Serve up to ``epochs`` epochs, timed.  With ``stop_after``, stop
        at the first epoch boundary once the epochs' summed wall time
        reaches it."""
        fleet = self.served.gateway.fleet
        tracer = self.tracer
        state = {
            "end": None, "cpu": None, "calls": None, "span": None,
            "kernel": 0.0, "timed_ms": sum(self.epoch_ms),
        }

        def hook(tick, gw):
            now = time.perf_counter()
            cpu = cpu_clocks()
            calls = fleet.call_epochs_stepped
            if state["end"] is not None:
                self._close_epoch(now, cpu, calls, state)
            stop = stop_after is not None and state["timed_ms"] >= stop_after * 1e3
            if tracer is not None:
                if state["span"] is not None:
                    tracer.close(state["span"])
                    state["span"] = None
                if tick % PENDING_SAMPLE_EVERY == 0:
                    sample = tracer.open("trace.sample")
                    self.pending.append(gw.engine.pending_events)
                    tracer.close(sample)
            if now - state["kernel"] >= CALIBRATE_EVERY_S:
                wall_s, cpu_s = self.kernel.sample()
                self.kernel_at.append(len(self.epoch_ms))
                self.kernel_s.append(wall_s)
                self.kernel_cpu_s.append(cpu_s)
                state["kernel"] = time.perf_counter()
            if tracer is not None and not stop:
                state["span"] = tracer.open("gateway.epoch")
            state["calls"] = fleet.call_epochs_stepped
            state["cpu"] = cpu_clocks()
            state["end"] = time.perf_counter()
            return stop

        report = self.served.run(epochs, hook)
        end = time.perf_counter()
        cpu = cpu_clocks()
        if state["span"] is not None:
            tracer.close(state["span"])
        if report.epochs == epochs and state["end"] is not None:
            # The last epoch ends when run() returns.
            self._close_epoch(end, cpu, fleet.call_epochs_stepped, state)
        self.epochs += report.epochs
        return report

    def summary(self) -> dict:
        raw = np.asarray(self.epoch_ms)
        raw_cpu = np.asarray(self.epoch_cpu_ms)
        normalized = raw * rolling_factors(self.kernel_at, self.kernel_s, raw.size)
        normalized_cpu = raw_cpu * rolling_factors(
            self.kernel_at, self.kernel_cpu_s, raw.size
        )
        slot_ms = self.served.slot * 1e3
        calls = float(sum(self.epoch_calls))
        summary = {
            "epochs": self.epochs,
            "samples": int(raw.size),
            "kernel_ms": float(np.median(self.kernel_s)) * 1e3,
        }
        for label, times, cpu in (
            ("", normalized, normalized_cpu), ("raw_", raw, raw_cpu),
        ):
            summary.update({
                label + "wall_s": float(times.sum()) * 1e-3,
                label + "p50_ms": quantile(times, 0.50),
                label + "p95_ms": quantile(times, 0.95),
                label + "realtime_factor": raw.size * slot_ms / float(times.sum()),
                label + "call_epochs_per_s": calls * 1e3 / float(times.sum()),
                label + "cpu_p50_ms": quantile(cpu, 0.50),
                label + "cpu_p95_ms": quantile(cpu, 0.95),
                label + "cpu_realtime_factor": raw.size * slot_ms / float(cpu.sum()),
                label + "call_epochs_per_cpu_s": calls * 1e3 / float(cpu.sum()),
            })
        return summary


def counters(report) -> dict:
    final = report.final
    return {
        "arrivals": final.arrivals,
        "blocked": final.blocked,
        "admitted": final.admitted,
        "departed": final.departed,
        "active_calls": final.active_calls,
        "reneg_requests": final.reneg_requests,
        "reneg_denied": final.reneg_denied,
        "link_shortfalls": final.link_shortfalls,
        "mean_utilization": report.mean_utilization,
    }


def identity_failures(label: str, tally: dict, shortfall_free: bool) -> list:
    """The conservation identities a served report must satisfy."""
    failures = []
    if tally["arrivals"] != tally["blocked"] + tally["admitted"]:
        failures.append(f"{label}: arrivals != blocked + admitted ({tally})")
    if tally["admitted"] != tally["departed"] + tally["active_calls"]:
        failures.append(f"{label}: admitted != departed + active ({tally})")
    if shortfall_free and tally["link_shortfalls"] != 0:
        failures.append(f"{label}: link_shortfalls = {tally['link_shortfalls']}")
    return failures


def timed(call, *args) -> float:
    """Run ``call(*args)`` after a full collection; return its wall
    seconds."""
    gc.collect()
    began = time.perf_counter()
    call(*args)
    return time.perf_counter() - began


def checkpoint_and_resume(workload, served, args, kernel, timer, epochs) -> dict:
    """Save after the window, restore into fresh builds, then run
    ``resume`` more epochs on the original and on the last restored
    system and compare their fingerprints."""
    path = Path(args.workdir) / f"{workload.name}-{os.getpid()}.ckpt"
    saves, restores, factors = [], [], []
    restored = None
    least, enough_s, most = (1, 0.0, 1) if args.smoke else CHECKPOINT_REPEATS
    try:
        while len(saves) < most and (
            len(saves) < least or sum(saves) + sum(restores) < enough_s
        ):
            factors.append(kernel.factor(3))
            saves.append(timed(served.save, path))
            if restored is not None:
                restored.close()
                restored = None
            restored = workload.build(args.seed, args.smoke)
            restores.append(timed(restored.restore, path))
        size = path.stat().st_size
        resumed = restored.run(epochs["resume"]).fingerprint
    finally:
        if restored is not None:
            restored.close()
        path.unlink(missing_ok=True)
    if timer is not None:
        original = timer.run(epochs["resume"]).fingerprint
    else:
        original = served.run(epochs["resume"]).fingerprint
    return {
        "save_s": saves,
        "restore_s": restores,
        "factors": factors,
        "bytes": size,
        "resume_match": resumed == original,
    }


def layer_metrics(tracer: Tracer, window: dict, delta: dict) -> dict:
    """Per-layer metrics of the traced window (see BENCHMARK.json)."""
    spans = tracer.summary()
    counts = tracer.counts
    epochs = window["epochs"]

    def get(name, field):
        return spans.get(name, {}).get(field, 0)

    def per_epoch_ms(name, field="self_s"):
        return get(name, field) * 1e3 / epochs

    def per_call_us(names, field="time_s", extra_calls=0):
        calls = sum(get(name, "count") for name in names) + extra_calls
        total = sum(get(name, field) for name in names)
        return total * 1e6 / calls if calls else 0.0

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    renegs = delta["reneg_requests"]
    fast_batched = counts["signaling.batched"] - counts["signaling.batch_fallback"]
    link_requests = get("link.request", "count") + counts["link.batched"]
    return {
        "gateway.epoch_self_ms": per_epoch_ms("gateway.epoch"),
        "events.drain_self_ms": per_epoch_ms("events.drain"),
        "events.processed_per_epoch": delta["processed_events"] / epochs,
        "events.pending_p95": p95(window["pending"]),
        "fleet.step_ms": per_epoch_ms("fleet.step", "time_s"),
        "fleet.requests_per_epoch": counts["fleet.requests"] / epochs,
        "sharded.step_ms": per_epoch_ms("sharded.step", "time_s"),
        "signaling.renegotiate_calls": get("signaling.renegotiate", "count"),
        "signaling.renegotiate_self_us": per_call_us(
            ["signaling.renegotiate"], "self_s"
        ),
        "signaling.batch_self_ms": per_epoch_ms("signaling.batch"),
        "signaling.grant_ratio": ratio(
            counts["signaling.granted"],
            counts["signaling.scalar"] + counts["signaling.batched"],
        ),
        "signaling.scalar_share": ratio(renegs - fast_batched, renegs),
        "switch.process_calls": get("switch.process", "count"),
        "switch.process_us": per_call_us(["switch.process"]),
        "switch.batch_apply_ms": per_epoch_ms("switch.batch_apply", "time_s"),
        "link.request_calls": get("link.request", "count"),
        "link.request_us": per_call_us(["link.request"]),
        "link.requests_per_reneg": ratio(link_requests, renegs),
        "link.shortfall_ratio": ratio(counts["link.failed"], link_requests),
        "link.set_capacity_ms": per_epoch_ms("link.set_capacity", "time_s"),
        "admission.admit_calls": get("admission.admit", "count"),
        "admission.admit_us": per_call_us(["admission.admit"]),
        "admission.accept_ratio": ratio(
            counts["admission.accepted"], get("admission.admit", "count")
        ),
        "admission.bookkeeping_us": per_call_us(
            ["admission.bookkeeping", "admission.bookkeeping_batch"],
            extra_calls=counts["admission.batched"]
            - get("admission.bookkeeping_batch", "count"),
        ),
        "overload.on_epoch_ms": per_epoch_ms("overload.on_epoch"),
        "overload.member_mask_ms": per_epoch_ms("overload.member_mask"),
        "scenarios.background_ms": per_epoch_ms("scenarios.background"),
        "faults.queries": get("faults.query", "count"),
        "faults.query_us": per_call_us(["faults.query"]),
        "trace.coverage_frac": sum(
            span["self_s"] for name, span in spans.items() if name != "trace.sample"
        ) / window["raw_wall_s"],
    }


def quantile(values, q: float) -> float:
    """The Harrell-Davis estimate of the ``q``-quantile: a Beta-weighted
    mean of all order statistics rather than the one or two nearest
    ``q``.  On ``serve-steady`` a p95 falls just below the ~4% of epochs
    that run a full garbage collection (~85 ms against ~35 ms), where the
    plain sample percentile is one order statistic at a cliff edge."""
    return float(hdquantiles(np.asarray(values, dtype=float), prob=[q])[0])


def p95(values) -> float:
    return float(np.percentile(values, 95)) if len(values) else 0.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument(
        "--mode", choices=("setup", "main", "reference", "traced"), required=True
    )
    parser.add_argument("--t0", type=float, required=True,
                        help="time.time() when the parent started this process")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--smoke", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import repro.scenarios.runtime  # noqa: F401  (set-up cost: imports)
    import repro.server.sharded  # noqa: F401

    imported = time.time()
    workload = workloads.get(args.workload)
    epochs = workload.epochs(args.smoke)
    result = {"mode": args.mode, "import_s": imported - args.t0}

    with workload.build(args.seed, args.smoke) as served:
        built = time.time()
        served.preload()
        preloaded = time.time()
        result["build_s"] = built - imported
        result["preload_s"] = preloaded - built
        result["admit_us"] = result["preload_s"] * 1e6 / max(1, served.initial_calls)
        first = []

        def first_epoch(tick, gw):
            if not first:
                first.append(time.time())
                # Built only now, so neither its time nor its memory
                # counts as set-up; timed right after, it sees the host
                # speed set-up just ran at.
                first.append(Kernel())
                result["setup_factor"] = first[1].factor()
            return args.mode == "setup"

        served.run(1 if args.mode == "setup" else epochs["warmup"], first_epoch)
        result["setup_s"] = first[0] - args.t0
        kernel = first[1]
        if args.mode == "setup":
            print(json.dumps(result))
            return 0

        gateway = served.gateway
        tracer = Tracer() if args.mode == "traced" else None
        if tracer is not None:
            instrument(tracer, gateway)
            routes = len(getattr(gateway, "_route_paths", ()))
        timer = EpochTimer(served, kernel, tracer)
        before = {
            "processed_events": gateway.engine.processed_events,
            "reneg_requests": gateway.reneg_requests,
        }
        report = timer.run(epochs["window"])
        delta = {
            "processed_events": gateway.engine.processed_events
            - before["processed_events"],
            "reneg_requests": gateway.reneg_requests - before["reneg_requests"],
        }
        if tracer is not None:
            tracer.unwrap_all()
            if len(getattr(gateway, "_route_paths", ())) != routes:
                raise RuntimeError("a route appeared mid-trace; its path is untraced")
        window = timer.summary()
        window["pending"] = timer.pending
        result["window"] = window
        result["fingerprint"] = report.fingerprint
        result["counters"] = counters(report)
        failures = identity_failures("window", result["counters"], workload.shortfall_free)

        if args.mode != "reference":
            result["checkpoint"] = checkpoint_and_resume(
                workload, served, args, kernel,
                timer if args.mode == "main" else None, epochs,
            )
            if not result["checkpoint"]["resume_match"]:
                failures.append("kill/resume fingerprints differ")
        if args.mode == "main":
            report = timer.run(
                workload.timed_epochs(args.seconds, args.smoke) - timer.epochs,
                stop_after=TIMED_CAP * args.seconds,
            )
            failures += identity_failures("final", counters(report), workload.shortfall_free)
            result["timed"] = timer.summary()
        if tracer is not None:
            result["layers"] = layer_metrics(tracer, window, delta)
            tracer.save(Path(args.workdir) / f"spans-{workload.name}.npz")
        result["final"] = counters(report)
        result["failures"] = failures

    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = usage / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
