"""Outside-in span tracing of the serving layers.

The tracer wraps the public entry points of each layer on the *live
objects* of one gateway (instance attributes shadowing the class
methods), so nothing in ``src/`` changes and removing the wrappers
restores the untouched objects — which matters because a checkpoint
pickles some of those objects (the admission controller, the fault
injectors) and a wrapper closure does not pickle.

Spans live in memory as flat columns (name id, parent index, start and
end in ns) and are written once at the end.  The benchmark opens one
``gateway.epoch`` span per served epoch from its epoch hook; every
wrapped call made while it is open becomes its descendant, so the epoch
is the shared id of all spans it covers.  A layer's self time is its
span time minus the part covered by its child spans.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

clock = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: List[int] = [-1]
        self.counts: Counter = Counter()
        self._patched: List[Tuple[object, str]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- spans ----------------------------------------------------------
    def open(self, name: str) -> int:
        index = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(index)
        self.start.append(clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order ({popped})")

    # -- instrumentation ------------------------------------------------
    def wrap(
        self,
        obj,
        attr: str,
        name: str,
        observe: Optional[Callable] = None,
    ) -> None:
        """Shadow ``obj.attr`` with a span-recording wrapper.

        ``observe(counts, result, args)`` updates :attr:`counts` after
        each call, so ratios are measured where the work happens.
        """
        if attr in vars(obj):
            raise RuntimeError(f"{obj!r}.{attr} is already shadowed")
        original = getattr(obj, attr)
        name_id = self.name_id(name)
        names, parents, starts, ends = (
            self.name, self.parent, self.start, self.end,
        )
        stack = self._stack
        counts = self.counts

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, result, args)
            return result

        setattr(obj, attr, traced)
        self._patched.append((obj, attr))

    def unwrap_all(self) -> None:
        """Remove every wrapper, restoring the class methods."""
        while self._patched:
            obj, attr = self._patched.pop()
            delattr(obj, attr)

    # -- analysis -------------------------------------------------------
    def columns(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``count``, total ``time_s`` and ``self_s``."""
        if len(self._stack) != 1:
            raise RuntimeError("summary() with spans still open")
        cols = self.columns()
        duration = (cols["end_ns"] - cols["start_ns"]).astype(np.float64)
        parent = cols["parent"]
        nested = parent >= 0
        covered = np.bincount(
            parent[nested], weights=duration[nested], minlength=duration.size
        )
        self_time = duration - covered
        size = len(self.names)
        count = np.bincount(cols["name"], minlength=size)
        total = np.bincount(cols["name"], weights=duration, minlength=size)
        own = np.bincount(cols["name"], weights=self_time, minlength=size)
        return {
            name: {
                "count": int(count[index]),
                "time_s": float(total[index]) * 1e-9,
                "self_s": float(own[index]) * 1e-9,
            }
            for index, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez(path, names=np.asarray(self.names), **self.columns())


def instrument(tracer: Tracer, gateway) -> None:
    """Wrap every layer entry point reachable from ``gateway``.

    Works on both runtime shapes: the classic gateway (one fleet, link,
    path) and the scenario gateway (per-group fleets behind
    ``gateway.fleet.fleets``, per-edge links behind ``gateway.link.links``,
    and the per-route paths, per-link overload planes and background
    driver it keeps in attributes of its own).
    """
    from repro.server.sharded import ShardedFleet

    tracer.wrap(gateway.engine, "run", "events.drain")

    def stepped(counts, step, args):
        counts["fleet.requests"] += int(step.num_requests)

    for fleet in getattr(gateway.fleet, "fleets", [gateway.fleet]):
        name = "sharded.step" if isinstance(fleet, ShardedFleet) else "fleet.step"
        tracer.wrap(fleet, "step", name, observe=stepped)

    batch_id = tracer.name_id("signaling.batch")

    def scalar_outcome(counts, granted, args):
        parent = tracer._stack[-1]
        if parent >= 0 and tracer.name[parent] == batch_id:
            # renegotiate_batch fell back to the per-call walk.
            counts["signaling.batch_fallback"] += 1
            return
        counts["signaling.scalar"] += 1
        counts["signaling.granted"] += int(granted)

    def batch_outcome(counts, granted, args):
        counts["signaling.batched"] += int(len(granted))
        counts["signaling.granted"] += int(np.count_nonzero(granted))

    route_paths = getattr(gateway, "_route_paths", None)
    paths = list(route_paths.values()) if route_paths is not None else [gateway.path]
    for path in paths:
        tracer.wrap(path, "renegotiate", "signaling.renegotiate",
                    observe=scalar_outcome)
        tracer.wrap(path, "renegotiate_batch", "signaling.batch",
                    observe=batch_outcome)

    for port in gateway.ports:
        tracer.wrap(port, "process", "switch.process")
        tracer.wrap(port, "delta_batch_apply", "switch.batch_apply")

    def request_outcome(counts, outcome, args):
        counts["link.failed"] += int(outcome.failed)

    def batch_request_outcome(counts, result, args):
        counts["link.batched"] += int(len(args[0]))
        counts["link.failed"] += int(result[1])

    for link in getattr(gateway.link, "links", [gateway.link]):
        tracer.wrap(link, "request", "link.request", observe=request_outcome)
        tracer.wrap(link, "request_batch", "link.request_batch",
                    observe=batch_request_outcome)
        tracer.wrap(link, "release", "link.release")
        tracer.wrap(link, "set_capacity", "link.set_capacity")

    def admitted(counts, accepted, args):
        counts["admission.accepted"] += int(accepted)

    def batch_bookkeeping(counts, result, args):
        counts["admission.batched"] += int(len(args[0]))

    controller = gateway.controller
    tracer.wrap(controller, "admit", "admission.admit", observe=admitted)
    for hook in ("on_admit", "on_reservation", "on_departure"):
        tracer.wrap(controller, hook, "admission.bookkeeping")
    if hasattr(controller, "on_reservation_batch"):
        tracer.wrap(controller, "on_reservation_batch",
                    "admission.bookkeeping_batch", observe=batch_bookkeeping)

    planes = [plane for _, plane in getattr(gateway, "_link_planes", [])]
    if gateway.overload_plane is not None:
        planes.append(gateway.overload_plane)
    for plane in planes:
        tracer.wrap(plane, "on_epoch", "overload.on_epoch")
    if hasattr(gateway, "link_member_mask"):
        tracer.wrap(gateway, "link_member_mask", "overload.member_mask")
    if getattr(gateway, "_bg_keys", None):
        tracer.wrap(gateway, "_apply_background", "scenarios.background")

    if gateway.faults is not None:
        tracer.wrap(gateway.faults, "should_deny", "faults.query")
        tracer.wrap(gateway.faults, "cell_outcome", "faults.query")
