"""The sharded fleet: 1M concurrent calls at realtime on one box.

This module partitions the call fleet's :class:`~repro.core.kernel.KernelState`
structure-of-arrays across N worker processes.  The full-size state
columns live in process-shared memory (``multiprocessing.RawArray``
wrappers, fork-inherited); each worker owns an interleaved set of
contiguous ``chunk_size``-slot *chunks* and steps them through the one
renegotiation kernel via zero-copy
:class:`~repro.core.kernel.KernelStateView` windows.  The coordinator
(the gateway process) keeps everything that must stay global: the event
heap, every RNG stream, admission, the shared
:class:`~repro.queueing.link.DenseRcbrLink`, the signaling ports, the
batched renegotiation commit, and the overload control plane.  The
gateway is the same :class:`~repro.server.gateway.RcbrGateway` at every
shard count; ``config.shards >= 1`` only swaps this fleet in for the
in-process :class:`~repro.server.fleet.CallFleet`.

Determinism contract (the whole point — see DESIGN.md §14):

* **Shard assignment is a pure function of the pool slot**:
  ``shard_of_slot(slot) = (slot // chunk_size) % num_shards``.  Pool
  slots never change over a call's lifetime, so a call never migrates
  shards, under fleet growth (which only appends chunks) or compaction.
* **Workers consume no randomness.**  All six seeded streams stay in
  the coordinator, drawn in exactly the unsharded order.  Each worker
  is still handed its ``SeedSequence(seed, spawn_key=(shard,))``-derived
  stream (the canonical derivation, reserved for worker-local needs);
  keeping it out of the hot path is what makes ``--shards 1`` byte-
  identical to the committed pre-shard ``BENCH_server.json``
  fingerprint.
* **Every float reduction happens in the coordinator over full-length
  columns.**  Workers run only elementwise kernel operations on
  disjoint slices — bit-identical to the same rows of a whole-array
  step — and defer the overflow/downgrade accounting into shared
  per-slot columns that :func:`~repro.core.kernel.merge_deferred_step`
  reduces exactly as the unsharded step would have.
* **Merging imposes canonical order**: the coordinator waits for every
  shard, then masks/reduces/issues in ascending slot order, so the
  inter-shard completion order (which is scheduling noise) never
  reaches any observable.

Together these give the locked invariant: same seed ⇒ byte-identical
snapshot fingerprint for any ``shards`` count, including the in-process
fleet (``shards=0``).

Supervision reuses :class:`~repro.perf.supervise.SupervisorPolicy`:
a worker that dies or exceeds the step timeout triggers a pool rebuild
and a lossless re-step — each worker snapshots a chunk's persistent
columns into shared shadow copies before mutating it and journals
per-chunk ``started``/``done`` ticks, so a replacement worker restores
any torn chunk and skips completed ones.  After ``max_pool_rebuilds``
the fleet degrades to stepping chunks inline in the coordinator
(service stays up, just slower), mirroring the sweep engine's
degrade-to-serial policy.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import time
from multiprocessing.connection import wait as _wait_connections
from typing import List, Optional, Sequence

import numpy as np

from repro.core.kernel import (
    KernelStateView,
    RenegotiationKernel,
    merge_deferred_step,
)
from repro.core.online import OnlineParams
from repro.perf.supervise import SupervisorPolicy
from repro.server.fleet import CallFleet, EpochStep
from repro.traffic.trace import SlottedWorkload


def shard_of_slot(slot: int, chunk_size: int, num_shards: int) -> int:
    """Which shard owns a pool slot.  Pure, stable, total.

    Contiguous ``chunk_size``-slot chunks are dealt to shards round-
    robin, so one shard's working set is a strided family of contiguous
    ranges (cache-friendly slices) while growth only ever *appends*
    chunks — existing slots keep their shard forever.
    """
    return (slot // chunk_size) % num_shards


def _num_chunks(capacity: int, chunk_size: int) -> int:
    return -(-capacity // chunk_size)


class WorkerPoolError(RuntimeError):
    """A shard worker died, hung, or answered out of protocol."""


class _SharedColumns:
    """Fork-shared numpy columns backing one sharded fleet.

    One flat float64/bool/int64 array per kernel column plus the
    deferred-accounting columns (``arrivals`` doubles as the raw
    pre-downgrade arrivals), the crash-recovery shadow copies of the
    persistent state, and the per-chunk ``started``/``done`` tick
    journal.  Everything is ``RawArray``-backed: no locks — the step
    protocol guarantees disjoint writers, and the coordinator only
    reads after every worker has answered.
    """

    _FLOAT_COLUMNS = (
        "rate",
        "estimate",
        "buffer",
        "candidate",
        "scratch",
        "arrivals",
        "scaled",
        "excess",
        "downgrade",
        "rate_shadow",
        "estimate_shadow",
        "buffer_shadow",
    )
    _BOOL_COLUMNS = ("wants", "wants_down", "cmp", "active", "pending")

    def __init__(self, capacity: int, chunk_size: int) -> None:
        self.capacity = int(capacity)
        self.chunk_size = int(chunk_size)
        self.num_chunks = _num_chunks(capacity, chunk_size)
        self._buffers = {}
        for name in self._FLOAT_COLUMNS:
            self._attach(name, ctypes.c_double, capacity, np.float64)
        for name in self._BOOL_COLUMNS:
            self._attach(name, ctypes.c_bool, capacity, np.bool_)
        self._attach("shift", ctypes.c_int64, capacity, np.int64)
        self._attach(
            "chunk_started", ctypes.c_int64, self.num_chunks, np.int64
        )
        self._attach("chunk_done", ctypes.c_int64, self.num_chunks, np.int64)
        self.chunk_started.fill(-1)
        self.chunk_done.fill(-1)

    def _attach(self, name, ctype, length, dtype) -> None:
        raw = multiprocessing.RawArray(ctype, int(length))
        self._buffers[name] = raw  # keep the buffer alive
        setattr(self, name, np.frombuffer(raw, dtype=dtype))

    def copy_persistent_from(self, old: "_SharedColumns") -> None:
        """Carry live state across a grow (columns are zero past it)."""
        span = old.capacity
        for name in ("rate", "estimate", "buffer", "shift", "active",
                     "pending"):
            getattr(self, name)[:span] = getattr(old, name)

    def chunk_bounds(self, chunk: int) -> "tuple[int, int]":
        low = chunk * self.chunk_size
        return low, min(low + self.chunk_size, self.capacity)


def _run_chunk(
    columns: _SharedColumns,
    kernel: RenegotiationKernel,
    base_bits: np.ndarray,
    num_base_slots: int,
    chunk: int,
    tick: int,
    use_downgrade: bool,
) -> None:
    """Step one chunk of the fleet through base slot ``tick``.

    Idempotent per (chunk, tick): a completed chunk is skipped, and a
    chunk that a dead worker left half-stepped is restored from its
    shadow copy first, so supervision can re-dispatch a step without
    corrupting state.  The arithmetic is the slice-for-slice image of
    :meth:`CallFleet.step`'s gather plus the kernel step in deferred
    accounting mode.
    """
    if columns.chunk_done[chunk] == tick:
        return
    low, high = columns.chunk_bounds(chunk)
    window = slice(low, high)
    if columns.chunk_started[chunk] == tick:
        # A previous worker died mid-chunk: roll back to the pre-step
        # snapshot before re-stepping.
        columns.rate[window] = columns.rate_shadow[window]
        columns.estimate[window] = columns.estimate_shadow[window]
        columns.buffer[window] = columns.buffer_shadow[window]
    else:
        columns.rate_shadow[window] = columns.rate[window]
        columns.estimate_shadow[window] = columns.estimate[window]
        columns.buffer_shadow[window] = columns.buffer[window]
        columns.chunk_started[chunk] = tick

    index = columns.shift[window] + (tick % num_base_slots)
    np.subtract(
        index, num_base_slots, out=index, where=index >= num_base_slots
    )
    amount = columns.arrivals[window]
    np.multiply(base_bits[index], columns.active[window], out=amount)

    view = KernelStateView(
        rate=columns.rate[window],
        estimate=columns.estimate[window],
        buffer=columns.buffer[window],
        candidate=columns.candidate[window],
        scratch=columns.scratch[window],
        wants=columns.wants[window],
        wants_down=columns.wants_down[window],
        cmp=columns.cmp[window],
    )
    kernel.step(
        view,
        amount,
        downgrade=columns.downgrade[window] if use_downgrade else None,
        excess_out=(
            columns.excess[window] if kernel.buffer_size is not None else None
        ),
        raw_arrivals_out=amount if use_downgrade else None,
        scaled_arrivals_out=(
            columns.scaled[window] if use_downgrade else None
        ),
    )
    columns.chunk_done[chunk] = tick


def _shard_worker_main(
    conn,
    columns: _SharedColumns,
    kernel: RenegotiationKernel,
    base_bits: np.ndarray,
    num_base_slots: int,
    chunks: Sequence[int],
    seed_sequence,
) -> None:
    """One shard worker: step my chunks when told, until told to stop.

    ``seed_sequence`` is this shard's canonical
    ``SeedSequence(base_seed, spawn_key=(shard,))`` stream.  The hot
    path is deliberately RNG-free (all randomness stays in the
    coordinator so fingerprints cannot depend on the shard count); the
    stream exists so any future worker-local need draws from the
    documented derivation instead of inventing one.
    """
    del seed_sequence  # reserved; see docstring
    parent_pid = os.getppid()
    try:
        while True:
            # Block in short slices: a SIGKILLed coordinator never
            # closes our pipe (sibling workers forked after us inherit
            # its parent end, so EOF cannot arrive), and reparenting is
            # then the only death signal we get.
            while not conn.poll(1.0):
                if os.getppid() != parent_pid:
                    return
            command = conn.recv()
            if command[0] == "stop":
                break
            if command[0] == "ping":
                conn.send(("pong",))
                continue
            _, tick, use_downgrade = command
            for chunk in chunks:
                _run_chunk(
                    columns, kernel, base_bits, num_base_slots,
                    chunk, tick, use_downgrade,
                )
            conn.send(("done", tick))
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        conn.close()


class ShardWorkerPool:
    """N persistent fork workers stepping a shared column block.

    Commands and replies travel over one pipe per worker; the shared
    block itself never crosses the pipes.  ``step`` raises
    :class:`WorkerPoolError` on death, hang (``policy.timeout``), or a
    protocol violation; the owner rebuilds or degrades per
    :class:`~repro.perf.supervise.SupervisorPolicy` — this pool stays
    mechanism, not policy.
    """

    def __init__(
        self,
        columns: _SharedColumns,
        kernel: RenegotiationKernel,
        base_bits: np.ndarray,
        num_base_slots: int,
        num_shards: int,
        policy: SupervisorPolicy,
        base_seed: int,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self._columns = columns
        self._kernel = kernel
        self._base_bits = base_bits
        self._num_base_slots = int(num_base_slots)
        self.num_shards = int(num_shards)
        self._policy = policy
        self._base_seed = int(base_seed)
        self._context = multiprocessing.get_context("fork")
        self._workers: List = []
        self._conns: List = []
        self._spawn()

    def _chunks_of(self, shard: int) -> List[int]:
        return [
            chunk
            for chunk in range(self._columns.num_chunks)
            if chunk % self.num_shards == shard
        ]

    def _spawn(self) -> None:
        self._workers = []
        self._conns = []
        for shard in range(self.num_shards):
            parent_conn, child_conn = self._context.Pipe()
            seed_sequence = np.random.SeedSequence(
                self._base_seed, spawn_key=(shard,)
            )
            worker = self._context.Process(
                target=_shard_worker_main,
                args=(
                    child_conn,
                    self._columns,
                    self._kernel,
                    self._base_bits,
                    self._num_base_slots,
                    self._chunks_of(shard),
                    seed_sequence,
                ),
                daemon=True,
                name=f"rcbr-shard-{shard}",
            )
            worker.start()
            # Close the parent's copy of the child end right away so a
            # dead worker surfaces as EOF on its pipe.
            child_conn.close()
            self._workers.append(worker)
            self._conns.append(parent_conn)

    @property
    def alive(self) -> bool:
        return bool(self._workers) and all(
            worker.is_alive() for worker in self._workers
        )

    def heartbeat(self, timeout: Optional[float] = None) -> None:
        """Watchdog round-trip: every worker must be alive and answering.

        Run once per epoch before dispatching the step.  A worker that
        died *between* epochs would otherwise surface only as an EOF
        mid-step — or, with ``policy.timeout`` unset (the default), a
        worker wedged without dying (e.g. SIGSTOP) would hang the
        coordinator forever.  The liveness check catches silent deaths
        before any pipe I/O; the ping round-trip bounds wedge detection
        by ``timeout`` (default: ``policy.timeout`` or 5 s).  Failures
        raise :class:`WorkerPoolError`, folding into the owner's
        existing rebuild-or-degrade path.
        """
        if timeout is None:
            timeout = self._policy.timeout or 5.0
        dead = [
            shard
            for shard, worker in enumerate(self._workers)
            if not worker.is_alive()
        ]
        if dead:
            codes = [self._workers[shard].exitcode for shard in dead]
            raise WorkerPoolError(
                f"shards {dead} died silently between epochs "
                f"(exit codes {codes})"
            )
        try:
            for conn in self._conns:
                conn.send(("ping",))
        except (BrokenPipeError, OSError) as error:
            raise WorkerPoolError(f"shard worker pipe broke: {error}")
        deadline = time.monotonic() + timeout
        pending = dict(enumerate(self._conns))
        while pending:
            ready = _wait_connections(
                list(pending.values()), timeout=self._policy.poll_interval
            )
            for conn in ready:
                shard = next(
                    index for index, c in pending.items() if c is conn
                )
                try:
                    reply = conn.recv()
                except (EOFError, OSError) as error:
                    raise WorkerPoolError(
                        f"shard {shard} died during heartbeat: {error}"
                    )
                if reply != ("pong",):
                    raise WorkerPoolError(
                        f"shard {shard} answered {reply!r} to a ping"
                    )
                del pending[shard]
            if not pending:
                return
            for shard in pending:
                if not self._workers[shard].is_alive():
                    raise WorkerPoolError(
                        f"shard {shard} died during heartbeat (exit code "
                        f"{self._workers[shard].exitcode})"
                    )
            if time.monotonic() > deadline:
                raise WorkerPoolError(
                    f"shards {sorted(pending)} failed to answer the "
                    f"heartbeat within {timeout}s"
                )

    def step(self, tick: int, use_downgrade: bool) -> None:
        """Dispatch one epoch step and wait for every shard."""
        try:
            for conn in self._conns:
                conn.send(("step", int(tick), bool(use_downgrade)))
        except (BrokenPipeError, OSError) as error:
            raise WorkerPoolError(f"shard worker pipe broke: {error}")
        pending = dict(enumerate(self._conns))
        deadline = (
            None
            if self._policy.timeout is None
            else time.monotonic() + self._policy.timeout
        )
        while pending:
            ready = _wait_connections(
                list(pending.values()), timeout=self._policy.poll_interval
            )
            for conn in ready:
                shard = next(
                    index for index, c in pending.items() if c is conn
                )
                try:
                    reply = conn.recv()
                except (EOFError, OSError) as error:
                    raise WorkerPoolError(
                        f"shard {shard} died mid-step: {error}"
                    )
                if reply != ("done", int(tick)):
                    raise WorkerPoolError(
                        f"shard {shard} answered {reply!r} to tick {tick}"
                    )
                del pending[shard]
            if not pending:
                return
            for shard in pending:
                if not self._workers[shard].is_alive():
                    raise WorkerPoolError(
                        f"shard {shard} exited with code "
                        f"{self._workers[shard].exitcode}"
                    )
            if deadline is not None and time.monotonic() > deadline:
                raise WorkerPoolError(
                    f"shards {sorted(pending)} exceeded the "
                    f"{self._policy.timeout}s step timeout"
                )

    def rebuild(self) -> None:
        """Kill whatever is left and respawn a fresh pool (same block)."""
        self._terminate()
        self._spawn()

    def close(self) -> None:
        """Orderly shutdown; safe to call repeatedly."""
        for conn, worker in zip(self._conns, self._workers):
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            worker.join(timeout=1.0)
        self._terminate()

    def _terminate(self) -> None:
        for worker in self._workers:
            if worker.is_alive():
                worker.terminate()
                worker.join(timeout=1.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        self._workers = []
        self._conns = []


class ShardedFleet(CallFleet):
    """A :class:`CallFleet` whose kernel state lives in shared memory.

    Pool bookkeeping (admission, free list, per-slot metadata) is
    unchanged coordinator-side logic; only the per-epoch kernel step is
    farmed out.  The step protocol is: write the downgrade column if
    any, dispatch ``(tick, use_downgrade)`` to every worker, wait for
    all, then reduce the deferred accounting columns and apply the
    eligibility masks over the full-length shared arrays — every
    reduction bit-identical to :meth:`CallFleet.step` on one process.
    """

    def __init__(
        self,
        workload: SlottedWorkload,
        params: OnlineParams,
        buffer_size: Optional[float] = None,
        initial_capacity: int = 256,
        num_shards: int = 1,
        chunk_size: int = 4096,
        supervisor: Optional[SupervisorPolicy] = None,
        seed: int = 0,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        super().__init__(
            workload,
            params,
            buffer_size=buffer_size,
            initial_capacity=initial_capacity,
        )
        self.num_shards = int(num_shards)
        self.chunk_size = int(chunk_size)
        self.supervisor = (
            supervisor if supervisor is not None else SupervisorPolicy()
        )
        self.seed = int(seed)
        self.pool_rebuilds = 0
        self.degraded = False
        self._pool: Optional[ShardWorkerPool] = None
        self._columns = _SharedColumns(self._capacity, self.chunk_size)
        self._adopt_columns()

    # ------------------------------------------------------------------
    def _adopt_columns(self) -> None:
        """Re-point fleet/kernel state at the shared column block."""
        columns = self._columns
        state = self._state
        for name in ("rate", "estimate", "buffer"):
            getattr(columns, name)[: getattr(state, name).size] = getattr(
                state, name
            )
            setattr(state, name, getattr(columns, name))
        state._candidate = columns.candidate
        state._scratch = columns.scratch
        state._wants = columns.wants
        state._wants_down = columns.wants_down
        state._cmp = columns.cmp
        for mine, shared in (
            ("active", columns.active),
            ("pending", columns.pending),
            ("shift", columns.shift),
        ):
            shared[: getattr(self, mine).size] = getattr(self, mine)
            setattr(self, mine, shared)

    def _grow_columns(self, new_capacity: int) -> None:
        new_columns = _SharedColumns(new_capacity, self.chunk_size)
        new_columns.copy_persistent_from(self._columns)
        self._columns = new_columns
        state = self._state
        for name in ("rate", "estimate", "buffer"):
            setattr(state, name, getattr(new_columns, name))
        state._candidate = new_columns.candidate
        state._scratch = new_columns.scratch
        state._wants = new_columns.wants
        state._wants_down = new_columns.wants_down
        state._cmp = new_columns.cmp
        self.active = new_columns.active
        self.pending = new_columns.pending
        self.shift = new_columns.shift
        self._grow_owned(("streak", "call_id", "call_class"), new_capacity)
        if self._pool is not None:
            # Workers hold views of the old block; respawn lazily on the
            # next step with the new one.  Growth happens between epoch
            # steps, so nothing is lost.
            self._pool.close()
            self._pool = None

    # ------------------------------------------------------------------
    def _spawn_pool(self) -> None:
        self._pool = ShardWorkerPool(
            self._columns,
            self._kernel,
            self._bits,
            self._num_base_slots,
            self.num_shards,
            self.supervisor,
            self.seed,
        )

    def step(
        self, tick: int, downgrade: Optional[np.ndarray] = None
    ) -> EpochStep:
        columns = self._columns
        use_downgrade = downgrade is not None
        if use_downgrade:
            columns.downgrade[:] = downgrade

        if self._pool is None and not self.degraded:
            self._spawn_pool()
        while self._pool is not None:
            try:
                self._pool.heartbeat()
                self._pool.step(tick, use_downgrade)
                break
            except WorkerPoolError:
                self.pool_rebuilds += 1
                if self.pool_rebuilds > self.supervisor.max_pool_rebuilds:
                    self._pool.close()
                    self._pool = None
                    self.degraded = True
                    break
                self._pool.rebuild()
        if self._pool is None:
            # Degraded (or fork-less) mode: step inline.  The chunk
            # journal makes this exact even when a dead pool finished
            # part of the tick.
            for chunk in range(columns.num_chunks):
                _run_chunk(
                    columns, self._kernel, self._bits,
                    self._num_base_slots, chunk, tick, use_downgrade,
                )

        merge_deferred_step(
            self._state,
            excess=columns.excess if self.buffer_size is not None else None,
            raw_arrivals=columns.arrivals if use_downgrade else None,
            scaled_arrivals=columns.scaled if use_downgrade else None,
        )

        wants = self._state._wants
        wants &= self.active
        wants &= ~self.pending
        self.epochs_stepped += 1
        self.call_epochs_stepped += self.num_active
        slots = np.flatnonzero(wants)
        return EpochStep(
            tick=tick, slots=slots, candidates=self._state._candidate[slots]
        )

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def load_state(self, state: dict) -> None:
        """Coordinator-owned restore: write the persistent columns of the
        shared block in place, reset the chunk journals, and drop any
        live pool so the next step respawns workers against the restored
        block — each re-deriving its canonical
        ``SeedSequence(base_seed, spawn_key=(shard,))`` stream."""
        super().load_state(state)
        self._columns.chunk_started.fill(-1)
        self._columns.chunk_done.fill(-1)
        if self._pool is not None:
            self._pool.close()
            self._pool = None


__all__ = [
    "ShardedFleet",
    "ShardWorkerPool",
    "WorkerPoolError",
    "shard_of_slot",
]
