"""Application configuration: loading, merging and echoing.

Config files are JSON. Absent fields keep their defaults; CLI flags and
HTTP overrides are merged on top via config_from_dict. The echo embedded
in every report contains only the scoring-relevant sections, so identical
scoring inputs produce identical report bytes regardless of where the
registry or lexicon files live.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import ConfigError
from .functional import DEFAULT_SCORE_TABLE, ScoreTable
from .qos import AttributeSpec, QosConfig


@dataclass(frozen=True)
class AppConfig:
    qos: QosConfig = QosConfig()
    functional_weight: float = 0.5
    score_table: ScoreTable = DEFAULT_SCORE_TABLE
    lexicon_path: str | None = None
    registry_path: str | None = None

    def validate(self) -> "AppConfig":
        self.qos.validate()
        self.score_table.validate()
        if not 0.0 <= self.functional_weight <= 1.0:
            raise ConfigError(
                f"functional_weight must be in [0, 1], got {self.functional_weight}"
            )
        return self


DEFAULT_CONFIG = AppConfig()

_QOS_KEYS = {"attributes", "n_gaps", "stability_weight", "epsilon"}
_TABLE_KEYS = {"nb_equal", "nb_favorable", "nb_unfavorable", "string_same", "string_different"}
_TOP_KEYS = {"qos", "functional_weight", "score_table", "lexicon_path", "registry_path"}


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer")
    return value


# Score table entries are integers a float holds exactly; SCORE_FP sums a
# few of them per parameter and is normalized as a float, which a larger
# entry could overflow.
_MAX_POINTS = 2**53


def _points(value, where: str) -> int:
    points = _integer(value, where)
    if abs(points) > _MAX_POINTS:
        raise ConfigError(f"{where} must be an integer of magnitude at most 2**53")
    return points


def _numeric(value, where: str) -> float:
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            number = float(value)
        except OverflowError:  # a JSON integer beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise ConfigError(f"{where} must be a finite number")


def _attributes_from_list(raw: list) -> tuple[AttributeSpec, ...]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError("qos.attributes must be a non-empty array")
    entries = []
    missing_weights = 0
    for item in raw:
        if not isinstance(item, dict) or "name" not in item or "direction" not in item:
            raise ConfigError("each qos attribute needs 'name' and 'direction'")
        weight = item.get("weight")
        if weight is None:
            missing_weights += 1
        else:
            weight = _numeric(weight, f"qos attribute {item['name']!r}: weight")
        entries.append((str(item["name"]), str(item["direction"]), weight))
    if 0 < missing_weights < len(entries):
        raise ConfigError("qos attributes must all carry weights, or none (for equal weights)")
    if missing_weights:
        equal = 1.0 / len(entries)
        return tuple(AttributeSpec(n, d, equal) for n, d, _ in entries)
    return tuple(AttributeSpec(n, d, w) for n, d, w in entries)


def config_from_dict(data: dict, base: AppConfig = DEFAULT_CONFIG, source: str = "config") -> AppConfig:
    """Merge a partial config dict onto a base config and validate."""
    if not isinstance(data, dict):
        raise ConfigError(f"{source}: expected a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"{source}: unknown keys: {', '.join(sorted(unknown))}")

    qos = base.qos
    if "qos" in data:
        section = data["qos"]
        if not isinstance(section, dict):
            raise ConfigError(f"{source}: 'qos' must be an object")
        bad = set(section) - _QOS_KEYS
        if bad:
            raise ConfigError(f"{source}: unknown qos keys: {', '.join(sorted(bad))}")
        updates = {}
        if "attributes" in section:
            updates["attributes"] = _attributes_from_list(section["attributes"])
        if "n_gaps" in section:
            updates["n_gaps"] = _integer(section["n_gaps"], f"{source}: qos.n_gaps")
        for key in ("stability_weight", "epsilon"):
            if key in section:
                updates[key] = _numeric(section[key], f"{source}: qos.{key}")
        qos = replace(qos, **updates)

    table = base.score_table
    if "score_table" in data:
        section = data["score_table"]
        if not isinstance(section, dict):
            raise ConfigError(f"{source}: 'score_table' must be an object")
        bad = set(section) - _TABLE_KEYS
        if bad:
            raise ConfigError(f"{source}: unknown score_table keys: {', '.join(sorted(bad))}")
        table = replace(
            table,
            **{key: _points(value, f"{source}: score_table.{key}") for key, value in section.items()},
        )

    for key in ("lexicon_path", "registry_path"):
        if key in data and data[key] is not None and not isinstance(data[key], str):
            raise ConfigError(f"{source}: {key} must be a string")
    functional_weight = base.functional_weight
    if "functional_weight" in data:
        functional_weight = _numeric(data["functional_weight"], f"{source}: functional_weight")

    merged = AppConfig(
        qos=qos,
        functional_weight=functional_weight,
        score_table=table,
        lexicon_path=data.get("lexicon_path", base.lexicon_path),
        registry_path=data.get("registry_path", base.registry_path),
    )
    return merged.validate()


def load_config(path: str | Path, base: AppConfig = DEFAULT_CONFIG) -> AppConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    return config_from_dict(data, base=base, source=str(path))


def config_echo(config: AppConfig) -> dict:
    """Scoring-relevant config as a plain dict, in fixed key order."""
    return {
        "qos": {
            "attributes": [
                {"name": s.name, "direction": s.direction, "weight": s.weight}
                for s in config.qos.attributes
            ],
            "n_gaps": config.qos.n_gaps,
            "stability_weight": config.qos.stability_weight,
            "epsilon": config.qos.epsilon,
        },
        "functional_weight": config.functional_weight,
        "score_table": {
            "nb_equal": config.score_table.nb_equal,
            "nb_favorable": config.score_table.nb_favorable,
            "nb_unfavorable": config.score_table.nb_unfavorable,
            "string_same": config.score_table.string_same,
            "string_different": config.score_table.string_different,
        },
    }
