"""The columnar memory MBAC against the dict reference, bit for bit.

``tests/mbac_reference.py`` keeps the plain per-call ``{level: seconds}``
implementation.  These tests drive both with the same operation
sequences and require bitwise-equal pooled histories (compared as
``uint64`` views) and equal admission decisions, including across a
pickle round trip of the columnar controller.
"""

import pickle
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.admission import controllers
from repro.admission.controllers import (
    AlwaysAdmit,
    HeterogeneousKnowledgeCAC,
    MemoryMBAC,
    MemorylessMBAC,
    PerfectKnowledgeCAC,
)
from tests.mbac_reference import ReferenceMemoryMBAC

#: A small rate palette, so calls revisit levels they held before.
PALETTE = [100.0, 300.0, 900.0, 50.0, 1200.0, 0.1 + 0.2, 1e-3, 7e4 / 3]
CAPACITIES = [2_000.0, 10_000.0, 50_000.0]


def bits(array: np.ndarray):
    return np.asarray(array, dtype=np.float64).view(np.uint64).tolist()


def assert_same_pool(reference, columnar, time: float) -> None:
    expected = reference.pooled_history(time)
    actual = columnar.pooled_history(time)
    assert (expected is None) == (actual is None)
    if expected is not None:
        assert bits(actual[0]) == bits(expected[0])
        assert bits(actual[1]) == bits(expected[1])


class Lockstep:
    """Applies one operation sequence to the reference and the columnar
    controller alike (the columnar one takes renegotiation batches
    through ``on_reservation_batch``)."""

    def __init__(self, min_history: float, retain: bool) -> None:
        self.reference = ReferenceMemoryMBAC(1e-3, min_history, retain)
        self.columnar = MemoryMBAC(1e-3, min_history, retain)
        self.time = 0.0
        self.live = []
        self.next_id = 0

    def advance(self, dt: float) -> None:
        self.time += dt

    def admit(self, rate: float) -> None:
        call_id = self.next_id
        self.next_id += 1
        self.live.append(call_id)
        self.reference.on_admit(call_id, rate, self.time)
        self.columnar.on_admit(call_id, rate, self.time)

    def admit_many(self, rates) -> None:
        for rate in rates:
            self.admit(rate)

    def readmit(self, pick: int, rate: float) -> None:
        if self.live:
            call_id = self.live[pick % len(self.live)]
            self.reference.on_admit(call_id, rate, self.time)
            self.columnar.on_admit(call_id, rate, self.time)

    def depart(self, pick: int) -> None:
        # pick 0 is the oldest row; an unknown id must be a no-op.
        call_id = self.live.pop(pick % len(self.live)) if self.live else -1
        self.reference.on_departure(call_id, self.time)
        self.columnar.on_departure(call_id, self.time)

    def reserve(self, pick: int, rate: float) -> None:
        call_id = self.live[pick % len(self.live)] if self.live else -1
        self.reference.on_reservation(call_id, rate, self.time)
        self.columnar.on_reservation(call_id, rate, self.time)

    def batch(self, picks, rates) -> None:
        # Distinct ids, as the gateway's batched commit guarantees; one
        # untracked id rides along and must be ignored.
        call_ids = sorted({self.live[p % len(self.live)] for p in picks}
                          if self.live else set())
        call_ids.append(-1)
        rates = [rates[i % len(rates)] for i in range(len(call_ids))]
        for call_id, rate in zip(call_ids, rates):
            self.reference.on_reservation(call_id, rate, self.time)
        self.columnar.on_reservation_batch(
            np.asarray(call_ids, dtype=np.int64),
            np.asarray(rates, dtype=np.float64),
            self.time,
        )

    def pool(self, capacity: float) -> None:
        assert_same_pool(self.reference, self.columnar, self.time)
        assert self.columnar.admit(capacity, self.time) == self.reference.admit(
            capacity, self.time
        )

    def round_trip(self) -> None:
        self.columnar = pickle.loads(pickle.dumps(self.columnar))

    def check(self) -> None:
        assert self.columnar.num_active == self.reference.num_active
        self.pool(CAPACITIES[1])


rates = st.sampled_from(PALETTE)
picks = st.integers(0, 50)
operations = st.one_of(
    st.tuples(
        st.just("advance"),
        # Zero-elapsed ties, and gaps of very different magnitudes so
        # that the summation order shows in the rounding.
        st.one_of(
            st.just(0.0),
            st.sampled_from([1e-7, 0.1, 1e3]),
            st.floats(0.0, 5.0, allow_nan=False, allow_infinity=False),
        ),
    ),
    st.tuples(st.just("admit"), rates),
    st.tuples(st.just("admit_many"), st.lists(rates, min_size=8, max_size=40)),
    st.tuples(st.just("readmit"), picks, rates),
    st.tuples(st.just("depart"), st.one_of(st.just(0), picks)),
    st.tuples(st.just("reserve"), picks, rates),
    st.tuples(
        st.just("batch"),
        st.lists(picks, min_size=1, max_size=8),
        st.lists(rates, min_size=1, max_size=8),
    ),
    st.tuples(st.just("pool"), st.sampled_from(CAPACITIES)),
    st.tuples(st.just("round_trip")),
)


class TestDifferential:
    @settings(max_examples=150, deadline=None)
    @given(
        ops=st.lists(operations, min_size=1, max_size=80),
        min_history=st.sampled_from([0.0, 2.5]),
        retain=st.booleans(),
        tiny=st.booleans(),
    )
    def test_matches_reference(self, ops, min_history, retain, tiny):
        # ``tiny`` starts the columns at one row and one level, so every
        # sequence also exercises growth and tombstone compaction.
        minimum = 1 if tiny else controllers._MBAC_MIN_ROWS
        with mock.patch.multiple(
            controllers, _MBAC_MIN_ROWS=minimum, _MBAC_MIN_LEVELS=minimum
        ):
            pair = Lockstep(min_history, retain)
            for name, *args in ops:
                getattr(pair, name)(*args)
            pair.check()

    @pytest.mark.parametrize("seed", range(12))
    def test_long_random_walk(self, seed):
        """Hundreds of calls and exponential gaps: ties, revisits and
        departures of the oldest row all occur many times over."""
        rng = random.Random(seed)
        palette = PALETTE + [rng.uniform(1.0, 2_000.0) for _ in range(30)]
        pair = Lockstep(rng.choice([0.0, 5.0]), retain=seed % 3 != 0)
        for _ in range(600):
            pair.advance(rng.choice([0.0, rng.expovariate(2.0)]))
            roll = rng.random()
            if roll < 0.3:
                pair.admit(rng.choice(palette))
            elif roll < 0.5 and pair.live:
                pair.depart(0 if rng.random() < 0.3 else rng.randrange(99))
            elif roll < 0.75 and pair.live:
                size = rng.randint(1, len(pair.live))
                pair.batch(
                    rng.sample(range(len(pair.live)), size),
                    [rng.choice(palette) for _ in range(size)],
                )
            elif roll < 0.85:
                pair.reserve(rng.randrange(99), rng.choice(palette))
            elif roll < 0.88:
                pair.round_trip()
            else:
                pair.pool(rng.choice(CAPACITIES))
        pair.check()


def churn(controller, calls: int, seed: int = 3):
    """A serve-churn-shaped run: Poisson arrivals, exponential holding,
    renegotiations over a 40-level grid."""
    rng = np.random.default_rng(seed)
    grid = np.round(np.linspace(50.0, 2_000.0, 40), 1)
    arrivals = np.cumsum(rng.exponential(0.0125, calls))
    leave = arrivals + rng.exponential(10.0, calls)
    end = float(arrivals[-1])
    events = [(t, 0, i) for i, t in enumerate(arrivals.tolist())]
    events += [(t, 1, i) for i, t in enumerate(leave.tolist()) if t <= end]
    for step in range(40 * calls):
        events.append((float(rng.uniform(0.0, end)), 2, step))
    live = set()
    for time, kind, index in sorted(events):
        if kind == 0:
            controller.on_admit(index, float(rng.choice(grid)), time)
            live.add(index)
        elif kind == 1:
            controller.on_departure(index, time)
            live.discard(index)
        elif live:
            call_id = min(live) + index % (max(live) - min(live) + 1)
            controller.on_reservation(call_id, float(rng.choice(grid)), time)
    return controller


class TestCheckpointState:
    def test_pickle_no_larger_than_reference(self):
        columnar = churn(MemoryMBAC(1e-3), 800)
        reference = churn(ReferenceMemoryMBAC(1e-3), 800)
        assert columnar.num_active == reference.num_active > 100
        assert len(pickle.dumps(columnar, pickle.HIGHEST_PROTOCOL)) <= len(
            pickle.dumps(reference, pickle.HIGHEST_PROTOCOL)
        )

    def test_state_is_named_fields_not_columns(self):
        state = churn(MemoryMBAC(1e-3), 200).__getstate__()
        assert not any(name.startswith("_") for name in state)
        assert state["keys_per_row"].sum() == state["key_level"].size

    def test_round_trip_keeps_estimate_and_hooks_shadowable(self):
        controller = churn(MemoryMBAC(1e-3), 200)
        restored = pickle.loads(pickle.dumps(controller))
        time = 1e3
        assert bits(restored.pooled_history(time)[1]) == bits(
            controller.pooled_history(time)[1]
        )
        # Instance attributes may shadow the hooks (span tracing does).
        restored.admit = lambda *args, **kwargs: True
        assert "admit" in vars(restored)


class TestReservationBatch:
    """Every controller's batch hook equals its per-call loop."""

    @pytest.mark.parametrize(
        "factory",
        [
            AlwaysAdmit,
            lambda: PerfectKnowledgeCAC([100.0, 900.0], [0.5, 0.5], 1e-3),
            lambda: MemorylessMBAC(1e-3),
            lambda: HeterogeneousKnowledgeCAC(
                [([100.0, 900.0], [0.5, 0.5])], 1e-3
            ),
            lambda: MemoryMBAC(1e-3),
        ],
    )
    def test_batch_equals_loop(self, factory):
        looped, batched = factory(), factory()
        for controller in (looped, batched):
            for call_id in range(6):
                controller.on_admit(call_id, 100.0, 0.0)
        call_ids = np.array([4, 1, 3], dtype=np.int64)
        new_rates = np.array([900.0, 300.0, 900.0])
        for call_id, rate in zip(call_ids.tolist(), new_rates.tolist()):
            looped.on_reservation(call_id, rate, 5.0)
        batched.on_reservation_batch(call_ids, new_rates, 5.0)
        assert batched.num_active == looped.num_active
        for capacity in (500.0, 1_500.0, 5_000.0):
            assert batched.admit(capacity, 9.0) == looped.admit(capacity, 9.0)
        if isinstance(looped, MemorylessMBAC):
            assert bits(batched._tracker.snapshot()[0]) == bits(
                looped._tracker.snapshot()[0]
            )
