"""Dynamic QoS scoring over the gated candidate pool.

Each candidate's window is its last n snapshots. Snapshots are compared
by offset back from the newest: offset 0 is every candidate's latest
snapshot, offset 1 the one before, and so on. Per offset, every
configured attribute is turned into a pool z-score over the candidates
with a snapshot there, weighted and summed into a utility value;
direction matters (maximized attributes reward high values, minimized
ones low values). The relative change of utility between consecutive
gaps is summed into an aggregate-change score, and the final
non-functional score blends the normalized latest utility with the
normalized aggregate change.

Candidates with no recorded history are "unrated": they keep a zero score
but stay selectable on functional merit, otherwise a service that never
ran could never be picked. A candidate whose window lacks a configured
attribute is unrated too, and left out of the pool statistics, so one
incomplete history cannot fail the scoring of a whole pool.

score_pool is one pass: each candidate's window is sliced once and
checked for the configured attributes before any pool statistic is
taken; the windows that pass are scored once, newest offset first. Each
offset is scored column by column: an attribute is read once into a
column over the pool at that offset, and its statistics and z-terms are
taken from that column.

All pool sums use math.fsum, which is exactly rounded and therefore
independent of candidate order; this keeps reports byte-identical under
registry permutations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import zip_longest
from operator import attrgetter
from typing import Sequence

from .errors import ConfigError
from .registry import Operation, QosSnapshot


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


@dataclass(frozen=True)
class QosScores:
    uf_series: tuple[float, ...]   # utility per gap, oldest -> newest
    changes: tuple[float, ...]     # relative change between consecutive gaps
    aggregate_change: float        # math.fsum of changes
    uf_latest_norm: float          # latest utility, min-max over the rated pool
    nfp: float                     # blended non-functional score
    rated: bool
    # first configured attribute the candidate's window lacks;
    # such a candidate is scored unrated and left out of the pool
    missing_attribute: str | None = None


UNRATED = QosScores(
    uf_series=(), changes=(), aggregate_change=0.0, uf_latest_norm=0.0, nfp=0.0, rated=False
)

_FIXED_FIELDS = {
    "availability": attrgetter("availability"),
    "executionTimeMs": attrgetter("execution_time_ms"),
    "totalCalls": attrgetter("total_calls"),
}


def attribute_column(snapshots: Sequence[QosSnapshot], name: str) -> list[float]:
    """One named attribute read from each snapshot; unknown names use `extra`.

    The snapshots must carry every unknown name: score_pool checks each
    window for them before it reads a column.
    """
    field = _FIXED_FIELDS.get(name)
    if field is not None:
        column = list(map(field, snapshots))
        return list(map(float, column)) if name == "totalCalls" else column
    return [snapshot.extra[name] for snapshot in snapshots]


def pool_stat(column: Sequence[float]) -> tuple[float, float]:
    """Mean and population standard deviation of one attribute column.

    The pool is the population, so the deviation divides by its size.
    """
    count = len(column)
    mean = math.fsum(column) / count
    stddev = math.sqrt(math.fsum([(v - mean) ** 2 for v in column]) / count)
    return mean, stddev


def utility(
    columns: Sequence[Sequence[float]],
    specs: Sequence[AttributeSpec],
    epsilon: float,
) -> list[float]:
    """Direction-aware weighted z-score sum for each row of one offset.

    columns[j] holds attribute specs[j] over the pool at that offset, one
    value per candidate. Maximized attributes contribute w * z, minimized
    ones w * (1 - z), with z = (value - pool mean) / pool stddev. When the
    pool stddev is below epsilon the attribute cannot discriminate and z
    is taken as 0, which contributes the same constant to every candidate.
    """
    term_columns = []
    for column, spec in zip(columns, specs):
        mean, stddev = pool_stat(column)
        w = spec.weight
        maximize = spec.direction == "maximize"
        if stddev < epsilon:
            term_columns.append([0.0 if maximize else w] * len(column))
        elif maximize:
            term_columns.append([w * ((v - mean) / stddev) for v in column])
        else:
            term_columns.append([w * (1.0 - (v - mean) / stddev) for v in column])
    return list(map(math.fsum, zip(*term_columns)))


def change_series(uf_series: Sequence[float], epsilon: float) -> list[float]:
    """Relative utility change between each two consecutive gaps (oldest -> newest).

    (later - earlier) / |earlier|, clamped to [-1, 1]. Utilities are
    z-score sums and often negative, so dividing by the signed earlier
    value, as the paper's later / earlier - 1 does, would score a rise as
    a decline; the clamp keeps an earlier value just above epsilon from
    dominating the pool. A near-zero earlier value yields 0. The
    aggregate change is this list's math.fsum.

    The clamp compares instead of calling min and max, with the values
    max(-1.0, min(1.0, change)) gives: NaN fails both comparisons and
    becomes 1.0, and -0.0 stays -0.0.
    """
    changes = []
    for earlier, later in zip(uf_series, uf_series[1:]):
        if abs(earlier) < epsilon:
            changes.append(0.0)
            continue
        change = (later - earlier) / abs(earlier)
        if not change < 1.0:
            change = 1.0
        elif change < -1.0:
            change = -1.0
        changes.append(change)
    return changes


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
    """Compute QosScores for a gated candidate pool, in input order.

    A candidate whose window lacks a configured attribute is scored
    unrated, naming the first such attribute, and left out of every pool
    statistic; the others are scored as if it were not there.
    """
    specs, epsilon = config.attributes, config.epsilon
    extra_names = [spec.name for spec in specs if spec.name not in _FIXED_FIELDS]
    needed = frozenset(extra_names)
    results: list[QosScores] = [UNRATED] * len(candidates)
    rated: list[tuple[int, list[QosSnapshot]]] = []  # (input position, window)
    for position, operation in enumerate(candidates):
        window = operation.qos_history[-config.n_gaps:]
        if not window:
            continue
        # one subset test per snapshot; a window that fails names its
        # first missing attribute in the configured order
        if needed and not all(s.extra.keys() >= needed for s in window):
            missing = next(n for n in extra_names if any(n not in s.extra for s in window))
            results[position] = replace(UNRATED, missing_attribute=missing)
        else:
            rated.append((position, window))

    # Longest window first, so at each offset back from the newest snapshot
    # the windows that reach that far are the prefix row[:pool] of the row.
    rated.sort(key=lambda pair: len(pair[1]), reverse=True)
    series: list[list[float]] = [[] for _ in rated]  # newest first until reversed
    pool = len(rated)
    for row in zip_longest(*(reversed(window) for _, window in rated)):
        while row[pool - 1] is None:
            pool -= 1
        columns = [attribute_column(row[:pool], spec.name) for spec in specs]
        for uf_series, uf in zip(series, utility(columns, specs, epsilon)):
            uf_series.append(uf)
    for uf_series in series:
        uf_series.reverse()

    change_lists = [change_series(uf_series, epsilon) for uf_series in series]
    aggregates = list(map(math.fsum, change_lists))
    uf_norms = normalize_pool([uf_series[-1] for uf_series in series], epsilon)
    ac_norms = normalize_pool(aggregates, epsilon)
    for (position, _), uf_series, changes, aggregate, uf_norm, ac_norm in zip(
        rated, series, change_lists, aggregates, uf_norms, ac_norms
    ):
        results[position] = QosScores(
            uf_series=tuple(uf_series),
            changes=tuple(changes),
            aggregate_change=aggregate,
            uf_latest_norm=uf_norm,
            nfp=nfp_score(uf_norm, ac_norm, config.stability_weight),
            rated=True,
        )
    return results
