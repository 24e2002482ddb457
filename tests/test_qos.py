from __future__ import annotations

import math
import random
from datetime import datetime, timedelta, timezone

import pytest

from procsel import (
    AttributeSpec,
    ConfigError,
    DEFAULT_QOS_CONFIG,
    Operation,
    Parameter,
    QosConfig,
    QosError,
    QosSnapshot,
    aggregate_change,
    align_snapshots,
    change,
    nfp_score,
    normalize_pool,
    score_pool,
    utility,
)
from procsel.qos import PoolStat, attribute_value

from generators import EPOCH, gen_qos_pool, make_snapshot

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


# --- alignment -------------------------------------------------------------------

def test_align_two_candidates_two_snapshots_three_gaps():
    rng = random.Random(1)
    ops = [
        Operation("a", qos_history=[make_snapshot(rng, EPOCH), make_snapshot(rng, EPOCH + timedelta(days=30))]),
        Operation("b", qos_history=[make_snapshot(rng, EPOCH), make_snapshot(rng, EPOCH + timedelta(days=30))]),
    ]
    aligned, stats = align_snapshots(ops, 3, ["availability"])
    assert [len(a) for a in aligned] == [2, 2]
    assert sorted(stats) == [1, 2]
    assert all(stat.count == 2 for at_gap in stats.values() for stat in at_gap.values())


def test_align_single_candidate_has_zero_stddev():
    op = _op("solo", (0.9, 100.0, 5), (0.95, 90.0, 9))
    _, stats = align_snapshots([op], 3, ["availability", "executionTimeMs", "totalCalls"])
    assert all(stat.stddev == 0.0 for at_gap in stats.values() for stat in at_gap.values())


def test_align_excludes_empty_histories():
    rated = _op("rated", (0.9, 100.0, 5))
    unrated = Operation("unrated")
    aligned, stats = align_snapshots([rated, unrated], 3, ["availability"])
    assert aligned[1] == []
    assert all(stat.count == 1 for at_gap in stats.values() for stat in at_gap.values())


def test_align_trims_to_last_n_gaps():
    op = _op("long", (0.8, 100.0, 1), (0.85, 95.0, 2), (0.9, 90.0, 3), (0.95, 85.0, 4))
    aligned, _ = align_snapshots([op], 2, ["availability"])
    assert [s.availability for s in aligned[0]] == [0.9, 0.95]


# --- utility ---------------------------------------------------------------------

def _two_attr_specs():
    return (
        AttributeSpec("availability", "maximize", 0.5),
        AttributeSpec("executionTimeMs", "minimize", 0.5),
    )


def test_utility_hand_computed_pool():
    stats = {"availability": PoolStat(0.8, 0.1, 2), "executionTimeMs": PoolStat(200.0, 100.0, 2)}
    snap_a = QosSnapshot(EPOCH, 0.9, 100.0, 0)
    snap_b = QosSnapshot(EPOCH, 0.7, 300.0, 0)
    assert utility(snap_a, stats, _two_attr_specs(), EPS) == pytest.approx(1.5, abs=1e-12)
    assert utility(snap_b, stats, _two_attr_specs(), EPS) == pytest.approx(-0.5, abs=1e-12)


def test_utility_identical_pool_collapses_to_minimize_weights():
    ops = [_op("a", (0.9, 100.0, 5)), _op("b", (0.9, 100.0, 5))]
    _, stats = align_snapshots(ops, 1, ["availability", "executionTimeMs"])
    uf = utility(ops[0].qos_history[0], stats[0], _two_attr_specs(), EPS)
    assert uf == pytest.approx(0.5, abs=1e-12)  # sum of minimize weights


def test_utility_missing_attribute_is_named():
    specs = (AttributeSpec("latency", "minimize", 1.0),)
    stats = {"latency": PoolStat(1.0, 1.0, 1)}
    with pytest.raises(QosError, match="latency"):
        utility(QosSnapshot(EPOCH, 0.9, 100.0, 0), stats, specs, EPS)


def test_utility_missing_pool_statistics_is_named():
    specs = (AttributeSpec("availability", "maximize", 1.0),)
    with pytest.raises(QosError, match="availability"):
        utility(QosSnapshot(EPOCH, 0.9, 100.0, 0), {}, specs, EPS)


# --- change / aggregate change ------------------------------------------------------

def test_change_basic():
    assert change(1.0, 1.2, EPS) == pytest.approx(0.2, abs=1e-12)


def test_change_identity():
    assert change(3.7, 3.7, EPS) == 0.0


def test_change_zero_denominator_guard():
    assert change(0.0, 2.0, EPS) == 0.0
    assert change(1e-12, 5.0, EPS) == 0.0


def test_aggregate_change_hand_computed():
    assert aggregate_change([1.0, 1.2, 0.6], EPS) == pytest.approx(-0.3, abs=1e-12)


def test_aggregate_change_constant_series_is_zero():
    rng = random.Random(11)
    for _ in range(100):
        value = rng.uniform(-10, 10)
        series = [value] * rng.randint(1, 6)
        assert aggregate_change(series, EPS) == 0.0


def test_aggregate_change_doubling_series():
    assert aggregate_change([1.0, 2.0, 4.0], EPS) == pytest.approx(2.0, abs=1e-12)


def test_aggregate_change_short_series():
    assert aggregate_change([], EPS) == 0.0
    assert aggregate_change([2.5], EPS) == 0.0


def test_changes_stay_finite_with_zeros():
    rng = random.Random(12)
    for _ in range(300):
        series = [rng.choice([0.0, rng.uniform(-5, 5), 1e-15]) for _ in range(rng.randint(2, 8))]
        total = aggregate_change(series, EPS)
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
        names = [s.name for s in config.attributes]
        aligned, stats = align_snapshots(candidates, config.n_gaps, names)
        per_index: dict[tuple[int, str], list[float]] = {}
        for snapshots in aligned:
            offset = config.n_gaps - len(snapshots)
            for k, snapshot in enumerate(snapshots):
                for spec in config.attributes:
                    per_index.setdefault((offset + k, spec.name), []).append(
                        attribute_value(snapshot, spec.name)
                    )
        for (index, name), values in per_index.items():
            stat = stats[index][name]
            if stat.count >= 2 and stat.stddev >= config.epsilon:
                zs = [(v - stat.mean) / stat.stddev for v in values]
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
