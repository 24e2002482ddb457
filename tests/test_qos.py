from __future__ import annotations

import copy
import math
import random
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import assume, given, settings, strategies as st

from procsel.errors import ConfigError, RegistryError
from procsel.qos import (
    AttributeSpec,
    DEFAULT_QOS_CONFIG,
    QosConfig,
    QosScores,
    attribute_column,
    change_series,
    nfp_score,
    normalize_pool,
    pool_stat,
    score_pool,
    utility,
)
from procsel.registry import MAX_QOS_MAGNITUDE, Operation, Parameter, QosSnapshot, _check_snapshot

from generators import (
    EPOCH,
    EXTRA_QOS_ATTRS,
    gen_qos_pool,
    make_snapshot,
    reference_change_series,
    snapshots_by_offset,
)

EPS = 1e-9


def _op(name, *availability_exec_calls, start=EPOCH):
    history = [
        QosSnapshot(start + timedelta(days=30 * i), a, e, c)
        for i, (a, e, c) in enumerate(availability_exec_calls)
    ]
    return Operation(name, outputs=[Parameter("out", "string")], qos_history=history)


# --- config validation ---------------------------------------------------------

def test_default_config_is_valid():
    DEFAULT_QOS_CONFIG.validate()


@pytest.mark.parametrize(
    "attributes",
    [
        (),
        (AttributeSpec("availability", "maximize", 0.5),),  # weights sum to 0.5
        (AttributeSpec("availability", "sideways", 1.0),),
        (AttributeSpec("availability", "maximize", 0.0), AttributeSpec("totalCalls", "maximize", 1.0)),
        (AttributeSpec("availability", "maximize", 0.5), AttributeSpec("availability", "minimize", 0.5)),
        (AttributeSpec("", "maximize", 1.0),),
    ],
)
def test_bad_attribute_specs_rejected(attributes):
    with pytest.raises(ConfigError):
        QosConfig(attributes=attributes).validate()


def test_single_attribute_with_full_weight_is_allowed():
    QosConfig(attributes=(AttributeSpec("availability", "maximize", 1.0),)).validate()


@pytest.mark.parametrize("kwargs", [{"n_gaps": 0}, {"stability_weight": 0.0}, {"stability_weight": 1.5}, {"epsilon": 0.0}])
def test_bad_scalars_rejected(kwargs):
    with pytest.raises(ConfigError):
        QosConfig(**kwargs).validate()


# --- alignment by offset back from the newest snapshot ---------------------------

def test_align_two_candidates_two_snapshots_three_gaps():
    rng = random.Random(1)
    ops = [
        Operation("a", qos_history=[make_snapshot(rng, EPOCH), make_snapshot(rng, EPOCH + timedelta(days=30))]),
        Operation("b", qos_history=[make_snapshot(rng, EPOCH), make_snapshot(rng, EPOCH + timedelta(days=30))]),
    ]
    by_offset = snapshots_by_offset(ops, 3)
    assert sorted(by_offset) == [0, 1]
    specs = DEFAULT_QOS_CONFIG.attributes
    scores = score_pool(ops, DEFAULT_QOS_CONFIG)
    assert [len(s.uf_series) for s in scores] == [2, 2]
    for back, snapshots in by_offset.items():
        assert snapshots == [op.qos_history[-1 - back] for op in ops]
        columns = [attribute_column(snapshots, spec.name) for spec in specs]
        assert utility(columns, specs, EPS) == [s.uf_series[-1 - back] for s in scores]


def test_align_single_candidate_has_zero_stddev():
    op = _op("solo", (0.9, 100.0, 5), (0.95, 90.0, 9))
    assert all(
        pool_stat(attribute_column(snapshots, name))[1] == 0.0
        for snapshots in snapshots_by_offset([op], 3).values()
        for name in ("availability", "executionTimeMs", "totalCalls")
    )
    # every attribute is degenerate: each utility is the minimized weight
    assert score_pool([op], DEFAULT_QOS_CONFIG)[0].uf_series == (0.4, 0.4)


def test_align_excludes_empty_histories():
    rated = _op("rated", (0.9, 100.0, 5))
    unrated = Operation("unrated")
    assert snapshots_by_offset([rated, unrated], 3) == {0: [rated.qos_history[0]]}
    scores = score_pool([unrated, rated, unrated], DEFAULT_QOS_CONFIG)
    assert scores[1] == score_pool([rated], DEFAULT_QOS_CONFIG)[0]
    assert not scores[0].rated and not scores[2].rated


def test_align_trims_to_last_n_gaps():
    op = _op("long", (0.8, 100.0, 1), (0.85, 95.0, 2), (0.9, 90.0, 3), (0.95, 85.0, 4))
    by_offset = snapshots_by_offset([op], 2)
    assert sorted(by_offset) == [0, 1]
    assert [by_offset[back][0].availability for back in (1, 0)] == [0.9, 0.95]
    other = _op("other", (0.7, 120.0, 6), (0.99, 80.0, 2))
    trimmed = Operation("long", outputs=op.outputs, qos_history=op.qos_history[-2:])
    config = QosConfig(n_gaps=2)
    scores = score_pool([op, other], config)
    assert len(scores[0].uf_series) == 2
    assert scores == score_pool([trimmed, other], config)


def test_align_sizes_nothing_by_n_gaps():
    # n_gaps comes from request configs: nothing may be sized by it
    op = _op("short", (0.8, 100.0, 1), (0.9, 90.0, 3))
    other = _op("shorter", (0.7, 120.0, 2))
    huge = 10**400
    assert sorted(snapshots_by_offset([op], huge)) == [0, 1]
    scores = score_pool([op, other], QosConfig(n_gaps=huge))
    assert scores[0].rated and len(scores[0].uf_series) == 2
    assert scores == score_pool([op, other], QosConfig(n_gaps=2))


# --- utility ---------------------------------------------------------------------

def _two_attr_specs():
    return (
        AttributeSpec("availability", "maximize", 0.5),
        AttributeSpec("executionTimeMs", "minimize", 0.5),
    )


def test_utility_hand_computed_pool():
    # availability: mean 0.8, stddev 0.1; executionTimeMs: mean 200, stddev 100
    columns = [[0.9, 0.7], [100.0, 300.0]]
    assert pool_stat(columns[0]) == pytest.approx((0.8, 0.1), abs=1e-12)
    assert pool_stat(columns[1]) == (200.0, 100.0)
    uf_a, uf_b = utility(columns, _two_attr_specs(), EPS)
    assert uf_a == pytest.approx(1.5, abs=1e-12)
    assert uf_b == pytest.approx(-0.5, abs=1e-12)


def test_utility_identical_pool_collapses_to_minimize_weights():
    ops = [_op("a", (0.9, 100.0, 5)), _op("b", (0.9, 100.0, 5))]
    (snapshots,) = snapshots_by_offset(ops, 1).values()
    columns = [attribute_column(snapshots, spec.name) for spec in _two_attr_specs()]
    for uf in utility(columns, _two_attr_specs(), EPS):
        assert uf == pytest.approx(0.5, abs=1e-12)  # sum of minimize weights


def test_utility_missing_pool_statistics_is_named():
    # no candidate carries the attribute, so there is no pool to score it
    # against: every candidate is unrated and the result names it
    config = QosConfig(attributes=(AttributeSpec("latency", "minimize", 1.0),), n_gaps=2)
    scores = score_pool([_op("a", (0.9, 100.0, 5)), _op("b", (0.8, 90.0, 3))], config)
    assert [(s.rated, s.missing_attribute) for s in scores] == [(False, "latency")] * 2


# --- change / aggregate change ------------------------------------------------------

def test_change_basic():
    assert change_series([1.0, 1.2], EPS) == [pytest.approx(0.2, abs=1e-12)]


def test_change_identity():
    assert change_series([3.7, 3.7], EPS) == [0.0]


def test_change_zero_denominator_guard():
    assert change_series([0.0, 2.0], EPS) == [0.0]
    assert change_series([1e-12, 5.0], EPS) == [0.0]


def test_change_of_negative_utilities_follows_the_rise():
    # -1 -> -0.5 is a rise, -0.5 -> -2 a fall (ratio -3, clamped)
    assert change_series([-1.0, -0.5, -2.0], EPS) == [0.5, -1.0]
    # an earlier value just above epsilon cannot blow the ratio up
    assert change_series([2e-9, 1.0], EPS) == [1.0]


_UTILITIES = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=500, deadline=None, database=None)
@given(earlier=_UTILITIES, later=_UTILITIES, raised=_UTILITIES)
def test_raising_the_later_utility_never_lowers_the_change(earlier, later, raised):
    higher = max(later, raised)
    (change,), (higher_change,) = change_series([earlier, later], EPS), change_series([earlier, higher], EPS)
    assert higher_change >= change
    assert -1.0 <= change <= 1.0
    if later >= earlier:
        assert change >= 0.0


# Every float, the ones the clamp treats specially drawn often.
_ANY_UTILITY = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1.0, -1.0, 1e-12, 2e-9]),
)


@settings(max_examples=500, deadline=None, database=None)
@given(
    series=st.lists(_ANY_UTILITY, max_size=25),
    epsilon=st.sampled_from([EPS, 1e-3, 1.0, math.inf]),
)
def test_change_series_clamps_as_nested_min_and_max_do(series, epsilon):
    # repr tells -0.0 from 0.0 and shows NaN, which compares unequal to itself
    assert list(map(repr, change_series(series, epsilon))) == list(
        map(repr, reference_change_series(series, epsilon))
    )


def test_aggregate_change_hand_computed():
    assert math.fsum(change_series([1.0, 1.2, 0.6], EPS)) == pytest.approx(-0.3, abs=1e-12)


def test_aggregate_change_constant_series_is_zero():
    rng = random.Random(11)
    for _ in range(100):
        value = rng.uniform(-10, 10)
        series = [value] * rng.randint(1, 6)
        assert math.fsum(change_series(series, EPS)) == 0.0


def test_aggregate_change_doubling_series():
    assert math.fsum(change_series([1.0, 2.0, 4.0], EPS)) == pytest.approx(2.0, abs=1e-12)


def test_aggregate_change_short_series():
    assert math.fsum(change_series([], EPS)) == 0.0
    assert math.fsum(change_series([2.5], EPS)) == 0.0


def test_changes_stay_finite_with_zeros():
    rng = random.Random(12)
    for _ in range(300):
        series = [rng.choice([0.0, rng.uniform(-5, 5), 1e-15]) for _ in range(rng.randint(2, 8))]
        total = math.fsum(change_series(series, EPS))
        assert math.isfinite(total)


# --- normalization / nfp -------------------------------------------------------------

def test_normalize_pool_examples():
    assert normalize_pool([1.5, -0.5], EPS) == [1.0, 0.0]
    assert normalize_pool([3.3, 3.3, 3.3], EPS) == [1.0, 1.0, 1.0]
    assert normalize_pool([0.0, 5.0, 10.0], EPS) == [0.0, 0.5, 1.0]
    assert normalize_pool([], EPS) == []


def test_normalize_pool_bounds_and_extremes():
    rng = random.Random(14)
    for _ in range(200):
        values = [rng.uniform(-100, 100) for _ in range(rng.randint(1, 10))]
        normed = normalize_pool(values, EPS)
        assert all(0.0 <= v <= 1.0 for v in normed)
        if max(values) - min(values) >= EPS:
            assert 1.0 in normed and 0.0 in normed


def test_nfp_examples():
    assert nfp_score(1.0, 0.0, 0.7) == pytest.approx(0.7, abs=1e-15)
    assert nfp_score(0.0, 0.0, 0.3) == 0.0


def test_nfp_ignores_trend_at_weight_one():
    rng = random.Random(15)
    for _ in range(100):
        uf_norm, ac_norm = rng.random(), rng.random()
        assert nfp_score(uf_norm, ac_norm, 1.0) == uf_norm


# --- score_pool -----------------------------------------------------------------------

def test_score_pool_dominant_candidate_wins():
    # x ends up strictly better on both attributes with rising utility,
    # y with falling utility; a two-element min-max forces {1, 0} on both
    # the latest-utility and aggregate-change normalizations
    config = QosConfig(
        attributes=(
            AttributeSpec("availability", "maximize", 0.6),
            AttributeSpec("executionTimeMs", "minimize", 0.4),
        ),
        n_gaps=2,
    )
    strong = _op("x", (0.9, 300.0, 0), (0.99, 80.0, 0))
    weak = _op("y", (0.8, 100.0, 0), (0.5, 400.0, 0))
    scores = score_pool([strong, weak], config)
    assert scores[0].uf_series[0] < scores[0].uf_series[1]  # rising
    assert scores[1].uf_series[0] > scores[1].uf_series[1]  # falling
    assert scores[0].nfp == 1.0
    assert scores[1].nfp == 0.0


def test_score_pool_single_rated_candidate_gets_one():
    scores = score_pool([_op("solo", (0.9, 100.0, 5), (0.95, 95.0, 9))], DEFAULT_QOS_CONFIG)
    assert scores[0].rated
    assert scores[0].nfp == 1.0


def test_score_pool_all_unrated():
    scores = score_pool([Operation("a"), Operation("b")], DEFAULT_QOS_CONFIG)
    assert all(not s.rated and s.nfp == 0.0 for s in scores)
    assert all(s.uf_series == () and s.aggregate_change == 0.0 for s in scores)


def test_score_pool_mixed_keeps_input_order():
    scores = score_pool([Operation("empty"), _op("full", (0.9, 100.0, 5))], DEFAULT_QOS_CONFIG)
    assert not scores[0].rated
    assert scores[1].rated


def test_score_pool_changes_length_invariant():
    rng = random.Random(16)
    for _ in range(50):
        candidates, config = gen_qos_pool(rng)
        for result in score_pool(candidates, config):
            if result.rated:
                assert len(result.changes) == len(result.uf_series) - 1
                assert result.aggregate_change == math.fsum(result.changes)
            else:
                assert result.uf_series == ()


def test_mean_centering_over_random_pools():
    rng = random.Random(17)
    for _ in range(100):
        candidates, config = gen_qos_pool(rng)
        for snapshots in snapshots_by_offset(candidates, config.n_gaps).values():
            for spec in config.attributes:
                values = attribute_column(snapshots, spec.name)
                mean, stddev = pool_stat(values)
                if len(values) >= 2 and stddev >= config.epsilon:
                    zs = [(v - mean) / stddev for v in values]
                    assert abs(math.fsum(zs) / len(zs)) <= 1e-9


def test_constant_histories_give_zero_aggregate_change():
    rng = random.Random(18)
    for _ in range(50):
        n = rng.randint(2, 5)
        gaps = rng.randint(2, 4)
        candidates = []
        for i in range(n):
            a, e, c = rng.uniform(0.5, 1.0), rng.uniform(50, 500), rng.randint(0, 100)
            candidates.append(_op(f"op{i}", *[(a, e, c)] * gaps))
        config = QosConfig(n_gaps=gaps)
        for result in score_pool(candidates, config):
            assert result.aggregate_change == 0.0


def _shift_attribute(snapshot: QosSnapshot, name: str, offset: float) -> QosSnapshot:
    clone = QosSnapshot(
        snapshot.timestamp,
        snapshot.availability,
        snapshot.execution_time_ms,
        snapshot.total_calls,
        dict(snapshot.extra),
    )
    if name == "availability":
        clone.availability += offset
    elif name == "executionTimeMs":
        clone.execution_time_ms += offset
    elif name == "totalCalls":
        clone.total_calls += int(offset)
    else:
        clone.extra[name] += offset
    return clone


def test_offset_shift_leaves_z_terms_stable():
    # shifting one attribute by a constant across all candidates and
    # snapshots cancels inside (value - mean) / stddev
    rng = random.Random(19)
    for _ in range(20):
        candidates, config = gen_qos_pool(rng)
        target = config.attributes[0].name
        offset = 250.0
        shifted = [
            Operation(
                op.name,
                list(op.inputs),
                list(op.outputs),
                [_shift_attribute(s, target, offset) for s in op.qos_history],
            )
            for op in candidates
        ]
        base_scores = score_pool(candidates, config)
        shifted_scores = score_pool(shifted, config)
        for base, moved in zip(base_scores, shifted_scores):
            assert moved.uf_series == pytest.approx(base.uf_series, abs=1e-6)


# --- a candidate missing a configured attribute --------------------------------------

def test_score_pool_names_the_first_configured_attribute_a_window_lacks():
    rng = random.Random(5)
    config = QosConfig(
        attributes=(
            AttributeSpec("availability", "maximize", 0.4),
            AttributeSpec("latency", "minimize", 0.3),
            AttributeSpec("cost", "minimize", 0.3),
        ),
        n_gaps=3,
    )
    history = [make_snapshot(rng, EPOCH + timedelta(days=30 * k), ["latency", "cost"]) for k in range(5)]
    history[0].extra.clear()  # outside the window: not checked
    del history[2].extra["cost"]
    del history[4].extra["latency"]
    complete = [make_snapshot(rng, EPOCH + timedelta(days=30 * k), ["latency", "cost"]) for k in range(3)]
    lacking, full = score_pool([Operation("lacking", qos_history=history), Operation("full", qos_history=complete)], config)
    assert (lacking.rated, lacking.missing_attribute) == (False, "latency")
    assert full.rated and full.missing_attribute is None


def test_score_pool_candidate_missing_attribute_is_left_out():
    # two otherwise equal operations configured with cost, one without
    # extra.cost: that one is unrated and the rest score as if it were absent
    config = QosConfig(
        attributes=(
            AttributeSpec("availability", "maximize", 0.5),
            AttributeSpec("cost", "minimize", 0.5),
        ),
        n_gaps=2,
    )

    def op(name, availability, cost):
        history = [
            QosSnapshot(EPOCH + timedelta(days=30 * i), availability + 0.01 * i, 100.0, 5,
                        {} if cost is None else {"cost": cost + i})
            for i in range(2)
        ]
        return Operation(name, outputs=[Parameter("out", "string")], qos_history=history)

    with_cost, without_cost, other = op("a", 0.9, 3.0), op("b", 0.9, None), op("c", 0.8, 5.0)
    scores = score_pool([with_cost, without_cost, other], config)
    assert scores[1] == QosScores((), (), 0.0, 0.0, 0.0, False, missing_attribute="cost")
    assert [scores[0], scores[2]] == score_pool([with_cost, other], config)


def test_score_pool_attribute_missing_only_inside_the_window_counts():
    # only the last n_gaps snapshots are scored, so only they must carry it
    config = QosConfig(attributes=(AttributeSpec("cost", "minimize", 1.0),), n_gaps=2)

    def op(name, lacking):
        history = [QosSnapshot(EPOCH + timedelta(days=30 * i), 0.9, 100.0, 5, {"cost": 1.0 + i}) for i in range(3)]
        history[lacking].extra.clear()
        return Operation(name, qos_history=history)

    inside, outside = score_pool([op("inside", 1), op("outside", 0)], config)
    assert not inside.rated and inside.missing_attribute == "cost"
    assert outside.rated and outside.missing_attribute is None


# --- the per-snapshot reference -------------------------------------------------------
# score_pool's formula one snapshot at a time, as it was computed before
# scoring went column by column. The column version does the same float
# operations and fsum rounds exactly, so the two must agree bit for bit.

def _reference_value(snapshot: QosSnapshot, name: str) -> float:
    if name == "availability":
        return snapshot.availability
    if name == "executionTimeMs":
        return snapshot.execution_time_ms
    if name == "totalCalls":
        return float(snapshot.total_calls)
    return snapshot.extra[name]


def _reference_uf_series(candidates, config) -> list[tuple[float, ...]]:
    aligned = [list(op.qos_history[-config.n_gaps:]) for op in candidates]
    pools: dict[tuple[int, str], list[float]] = {}
    for snapshots in aligned:
        offset = config.n_gaps - len(snapshots)
        for k, snapshot in enumerate(snapshots):
            for spec in config.attributes:
                pools.setdefault((offset + k, spec.name), []).append(_reference_value(snapshot, spec.name))
    stats = {}
    for cell, pool in pools.items():
        mean = math.fsum(pool) / len(pool)
        stats[cell] = (mean, math.sqrt(math.fsum((v - mean) ** 2 for v in pool) / len(pool)))

    def utility_at(snapshot, index):
        terms = []
        for spec in config.attributes:
            mean, stddev = stats[index, spec.name]
            value = _reference_value(snapshot, spec.name)
            z = 0.0 if stddev < config.epsilon else (value - mean) / stddev
            terms.append(spec.weight * z if spec.direction == "maximize" else spec.weight * (1.0 - z))
        return math.fsum(terms)

    return [
        tuple(utility_at(s, config.n_gaps - len(snapshots) + k) for k, s in enumerate(snapshots))
        for snapshots in aligned
    ]


@settings(max_examples=200, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), with_unrated=st.booleans(), with_lacking=st.booleans())
def test_column_scoring_equals_per_snapshot_reference(seed, with_unrated, with_lacking):
    # with_lacking adds a copy of a candidate with one configured extra
    # attribute taken out of one snapshot of its window: that copy is
    # unrated, and the rest equal the reference over the pool without it
    rng = random.Random(seed)
    candidates, config = gen_qos_pool(rng)
    if with_unrated:
        candidates.insert(rng.randint(0, len(candidates)), Operation("never-ran"))
    pool = list(candidates)
    if with_lacking:
        extras = [spec.name for spec in config.attributes if spec.name in EXTRA_QOS_ATTRS]
        assume(extras)
        lacker = copy.deepcopy(rng.choice([op for op in candidates if op.qos_history]))
        lacking = rng.choice(extras)
        del rng.choice(lacker.qos_history).extra[lacking]
        position = rng.randint(0, len(pool))
        pool.insert(position, lacker)
    scores = score_pool(pool, config)
    if with_lacking:
        unrated = scores.pop(position)
        assert unrated == QosScores((), (), 0.0, 0.0, 0.0, False, missing_attribute=lacking)
    assert [s.uf_series for s in scores] == _reference_uf_series(candidates, config)


# Magnitudes on both sides of the snapshot bound, often far beyond it.
_MAGNITUDES = st.one_of(
    st.floats(min_value=0.0, max_value=1e300),
    st.sampled_from([MAX_QOS_MAGNITUDE, math.nextafter(MAX_QOS_MAGNITUDE, math.inf), 1e200, 5e-324]),
)
_SNAPSHOT_VALUES = st.tuples(st.floats(0.0, 1.0), _MAGNITUDES, st.integers(0, 10**200))


@settings(max_examples=300, deadline=None, database=None)
@given(histories=st.lists(st.lists(_SNAPSHOT_VALUES, max_size=4), min_size=1, max_size=6))
def test_any_pool_of_accepted_snapshots_scores_without_raising(histories):
    candidates = []
    for values in histories:
        history = []
        for day, (availability, exec_ms, calls) in enumerate(values):
            snapshot = QosSnapshot(EPOCH + timedelta(days=day), availability, exec_ms, calls)
            try:
                history.append(_check_snapshot(snapshot, "pool"))
            except RegistryError:
                pass
        candidates.append(Operation("op", qos_history=history))
    for scores in score_pool(candidates, DEFAULT_QOS_CONFIG):
        assert math.isfinite(scores.nfp)
        assert all(map(math.isfinite, scores.uf_series + scores.changes))


# --- the trend term and history length --------------------------------------------------

def _latent_snapshot(t: int, q: float) -> QosSnapshot:
    """A snapshot of latent quality q at time t, mapped onto the three attributes."""
    return QosSnapshot(
        EPOCH + timedelta(days=t),
        1.0 / (1.0 + math.exp(-q)),
        300.0 * math.exp(-q / 2),
        math.floor(1000.0 * math.exp(0.3 * q)),
    )


def _long_and_short_pool(rng: random.Random, slope: float) -> list[Operation]:
    """30 candidates on one latent path q(t) = slope*t + N(0, 0.3): even
    positions hold t = 0..19, odd positions only t = 17..19."""
    pool = []
    for position in range(30):
        times = range(20) if position % 2 == 0 else range(17, 20)
        history = tuple(_latent_snapshot(t, slope * t + rng.gauss(0.0, 0.3)) for t in times)
        pool.append(Operation(f"op{position}", qos_history=history))
    return pool


@pytest.mark.parametrize("slope", [0.0, -0.1])
def test_the_trend_term_favours_a_long_history_at_equal_quality(slope):
    # Every candidate follows one latent path (_long_and_short_pool). The
    # paper's SCORE_AC sums one change per gap, 19 against 2, and a
    # 20-snapshot candidate ranks first more often than the fair half; on
    # the latest utility alone (stability_weight 1.0) it does not.
    rng = random.Random(7)
    blend = QosConfig(n_gaps=20, stability_weight=0.7).validate()
    latest = replace(blend, stability_weight=1.0)
    long_first = {blend: 0, latest: 0}
    pools = 400
    for _ in range(pools):
        pool = _long_and_short_pool(rng, slope)
        for config in long_first:
            nfp = [scores.nfp for scores in score_pool(pool, config)]
            long_first[config] += nfp.index(max(nfp)) % 2 == 0
    assert long_first[blend] / pools >= 0.56
    assert 0.45 <= long_first[latest] / pools <= 0.55


def test_the_paper_change_is_mostly_clamped_and_moves_with_the_utility_origin():
    # The pools above at slope 0, 200 of them, scored at n_gaps 20 and
    # stability_weight 0.7. A utility is a direction-aware z-score sum, and
    # a minimized attribute adds w * (1 - z), so the pool's utilities centre
    # on the sum of the minimized weights (0.4 by default), not on 0. The
    # paper's change, later / earlier - 1 (taken over |earlier| and clamped
    # to [-1, 1]), reads a relative change only for positive utilities.
    rng = random.Random(7)
    config = QosConfig(n_gaps=20, stability_weight=0.7).validate()
    shift = -math.fsum(spec.weight for spec in config.attributes if spec.direction == "minimize")
    assert shift == -0.4

    def rescored(scores: list[QosScores], by: float) -> list[float]:
        """Each candidate's nfp with `by` added to every utility of the pool."""
        series = [[uf + by for uf in s.uf_series] for s in scores]
        aggregates = [math.fsum(change_series(uf_series, config.epsilon)) for uf_series in series]
        return [
            nfp_score(uf_norm, ac_norm, config.stability_weight)
            for uf_norm, ac_norm in zip(
                normalize_pool([uf_series[-1] for uf_series in series], config.epsilon),
                normalize_pool(aggregates, config.epsilon),
            )
        ]

    pools = 200
    changes = clamped = moved = 0
    for _ in range(pools):
        scores = score_pool(_long_and_short_pool(rng, 0.0), config)
        nfp = [s.nfp for s in scores]
        assert rescored(scores, 0.0) == nfp  # the rescoring is score_pool's
        changes += sum(len(s.changes) for s in scores)
        clamped += sum(abs(change) == 1.0 for s in scores for change in s.changes)
        shifted = rescored(scores, shift)
        moved += shifted.index(max(shifted)) != nfp.index(max(nfp))
    assert changes == pools * (15 * 19 + 15 * 2)
    # 0.606 of all per-gap changes sit at the clamp, so SCORE_AC mostly
    # counts +1 and -1 steps
    assert 0.55 <= clamped / changes <= 0.66
    # the latest utility's min-max norm does not move with the origin,
    # SCORE_AC does: the first-ranked candidate changes in 0.14 of pools
    assert 0.09 <= moved / pools <= 0.19
