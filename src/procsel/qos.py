"""Dynamic QoS scoring over the gated candidate pool.

Each candidate's QoS history is aligned on its last n time gaps (most
recent snapshot at gap index n-1). Per gap index, every configured
attribute is turned into a pool z-score, weighted and summed into a
utility value; direction matters (maximized attributes reward high
values, minimized ones low values). The relative change of utility
between consecutive gaps is summed into an aggregate-change score, and
the final non-functional score blends the normalized latest utility with
the normalized aggregate change.

Candidates with no recorded history are "unrated": they keep a zero score
but stay selectable on functional merit, otherwise a service that never
ran could never be picked.

All pool sums use math.fsum, which is exactly rounded and therefore
independent of candidate order; this keeps reports byte-identical under
registry permutations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import ConfigError, QosError
from .registry import Operation, QosSnapshot, format_timestamp


@dataclass(frozen=True)
class AttributeSpec:
    name: str
    direction: str  # "maximize" or "minimize"
    weight: float


DEFAULT_ATTRIBUTES = (
    AttributeSpec("availability", "maximize", 0.4),
    AttributeSpec("executionTimeMs", "minimize", 0.4),
    AttributeSpec("totalCalls", "maximize", 0.2),
)


@dataclass(frozen=True)
class QosConfig:
    attributes: tuple[AttributeSpec, ...] = DEFAULT_ATTRIBUTES
    n_gaps: int = 3
    stability_weight: float = 0.7
    epsilon: float = 1e-9

    def validate(self) -> "QosConfig":
        if not self.attributes:
            raise ConfigError("qos.attributes must list at least one attribute")
        seen = set()
        for spec in self.attributes:
            if not spec.name:
                raise ConfigError("qos attribute with empty name")
            if spec.name in seen:
                raise ConfigError(f"duplicate qos attribute {spec.name!r}")
            seen.add(spec.name)
            if spec.direction not in ("maximize", "minimize"):
                raise ConfigError(
                    f"qos attribute {spec.name!r}: direction must be "
                    f"'maximize' or 'minimize', got {spec.direction!r}"
                )
            if not 0.0 < spec.weight <= 1.0:
                raise ConfigError(
                    f"qos attribute {spec.name!r}: weight must be in (0, 1], got {spec.weight}"
                )
        total = math.fsum(spec.weight for spec in self.attributes)
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"qos attribute weights must sum to 1, got {total}")
        if self.n_gaps < 1:
            raise ConfigError(f"qos.n_gaps must be >= 1, got {self.n_gaps}")
        if not 0.0 < self.stability_weight <= 1.0:
            raise ConfigError(
                f"qos.stability_weight must be in (0, 1], got {self.stability_weight}"
            )
        if self.epsilon <= 0.0:
            raise ConfigError(f"qos.epsilon must be positive, got {self.epsilon}")
        return self


DEFAULT_QOS_CONFIG = QosConfig()


class PoolStat(NamedTuple):
    mean: float
    stddev: float  # population standard deviation: the pool IS the population
    count: int


@dataclass(frozen=True)
class QosScores:
    uf_series: tuple[float, ...]   # utility per gap, oldest -> newest
    changes: tuple[float, ...]     # relative change between consecutive gaps
    aggregate_change: float        # sum of changes
    uf_latest_norm: float          # latest utility, min-max over the rated pool
    nfp: float                     # blended non-functional score
    rated: bool


UNRATED = QosScores(
    uf_series=(), changes=(), aggregate_change=0.0, uf_latest_norm=0.0, nfp=0.0, rated=False
)


def attribute_value(snapshot: QosSnapshot, name: str) -> float:
    """Read one named attribute from a snapshot; unknown names use `extra`."""
    if name == "availability":
        return snapshot.availability
    if name == "executionTimeMs":
        return snapshot.execution_time_ms
    if name == "totalCalls":
        return float(snapshot.total_calls)
    try:
        return snapshot.extra[name]
    except KeyError:
        raise QosError(
            f"QoS attribute {name!r} missing from snapshot "
            f"at {format_timestamp(snapshot.timestamp)}"
        ) from None


def align_snapshots(
    candidates: Sequence[Operation],
    n_gaps: int,
    attribute_names: Iterable[str],
) -> tuple[list[list[QosSnapshot]], dict[int, dict[str, PoolStat]]]:
    """Trim each history to its last n_gaps snapshots and pool statistics.

    Gap indices count from the most recent backwards: a candidate with k
    snapshots occupies indices n_gaps-k .. n_gaps-1. Statistics are keyed
    by gap index, then attribute name, and taken over the candidates that
    have a snapshot at that index (and carry the attribute); candidates
    with empty histories contribute nothing and are reported as unrated
    by score_pool.
    """
    names = list(attribute_names)
    aligned = [list(op.qos_history[-n_gaps:]) for op in candidates]
    values: dict[int, dict[str, list[float]]] = {}
    for snapshots in aligned:
        offset = n_gaps - len(snapshots)
        for k, snapshot in enumerate(snapshots):
            at_gap = values.setdefault(offset + k, {})
            for name in names:
                try:
                    value = attribute_value(snapshot, name)
                except QosError:
                    continue
                at_gap.setdefault(name, []).append(value)

    stats: dict[int, dict[str, PoolStat]] = {}
    for index, by_name in values.items():
        stats[index] = {}
        for name, pool in by_name.items():
            count = len(pool)
            mean = math.fsum(pool) / count
            stddev = math.sqrt(math.fsum((v - mean) ** 2 for v in pool) / count)
            stats[index][name] = PoolStat(mean, stddev, count)
    return aligned, stats


def utility(
    snapshot: QosSnapshot,
    stats_at_index: Mapping[str, PoolStat],
    specs: Sequence[AttributeSpec],
    epsilon: float,
) -> float:
    """Direction-aware weighted z-score sum for one snapshot.

    Maximized attributes contribute w * z, minimized ones w * (1 - z),
    with z = (value - pool mean) / pool stddev. When the pool stddev is
    below epsilon the attribute cannot discriminate and z is taken as 0,
    which contributes the same constant to every candidate.
    """
    terms = []
    for spec in specs:
        value = attribute_value(snapshot, spec.name)
        try:
            stat = stats_at_index[spec.name]
        except KeyError:
            raise QosError(
                f"no pool statistics for QoS attribute {spec.name!r}"
            ) from None
        z = 0.0 if stat.stddev < epsilon else (value - stat.mean) / stat.stddev
        terms.append(spec.weight * z if spec.direction == "maximize" else spec.weight * (1.0 - z))
    return math.fsum(terms)


def change(uf_earlier: float, uf_later: float, epsilon: float) -> float:
    """Relative utility change between two consecutive gaps.

    Guarded: a near-zero earlier value would make the ratio unbounded, so
    it yields 0 instead.
    """
    if abs(uf_earlier) < epsilon:
        return 0.0
    return uf_later / uf_earlier - 1.0


def aggregate_change(uf_series: Sequence[float], epsilon: float) -> float:
    """Sum of pairwise changes over a utility series (oldest -> newest)."""
    if len(uf_series) < 2:
        return 0.0
    return math.fsum(
        change(earlier, later, epsilon)
        for earlier, later in zip(uf_series, uf_series[1:])
    )


def normalize_pool(values: Sequence[float], epsilon: float) -> list[float]:
    """Min-max normalize onto [0, 1]; a degenerate pool maps everything to 1."""
    if not values:
        return []
    lo, hi = min(values), max(values)
    if hi - lo < epsilon:
        return [1.0] * len(values)
    return [(v - lo) / (hi - lo) for v in values]


def nfp_score(uf_latest_norm: float, ac_norm: float, stability_weight: float) -> float:
    """Blend current quality with quality trend.

    With stability_weight = 1 the trend is ignored entirely and only the
    normalized latest utility counts.
    """
    return stability_weight * uf_latest_norm + (1.0 - stability_weight) * ac_norm


def score_pool(
    candidates: Sequence[Operation], config: QosConfig = DEFAULT_QOS_CONFIG
) -> list[QosScores]:
    """Compute QosScores for a gated candidate pool, in input order."""
    aligned, stats = align_snapshots(
        candidates, config.n_gaps, [s.name for s in config.attributes]
    )

    rated_indices: list[int] = []
    series: dict[int, list[float]] = {}
    change_lists: dict[int, list[float]] = {}
    aggregates: dict[int, float] = {}
    for i, snapshots in enumerate(aligned):
        if not snapshots:
            continue
        rated_indices.append(i)
        offset = config.n_gaps - len(snapshots)
        uf_series = [
            utility(snapshot, stats[offset + k], config.attributes, config.epsilon)
            for k, snapshot in enumerate(snapshots)
        ]
        series[i] = uf_series
        change_lists[i] = [
            change(earlier, later, config.epsilon)
            for earlier, later in zip(uf_series, uf_series[1:])
        ]
        aggregates[i] = math.fsum(change_lists[i])

    uf_norms = normalize_pool([series[i][-1] for i in rated_indices], config.epsilon)
    ac_norms = normalize_pool([aggregates[i] for i in rated_indices], config.epsilon)

    results: list[QosScores] = [UNRATED] * len(candidates)
    for pos, i in enumerate(rated_indices):
        results[i] = QosScores(
            uf_series=tuple(series[i]),
            changes=tuple(change_lists[i]),
            aggregate_change=aggregates[i],
            uf_latest_norm=uf_norms[pos],
            nfp=nfp_score(uf_norms[pos], ac_norms[pos], config.stability_weight),
            rated=True,
        )
    return results
