"""Application configuration: loading, merging and echoing.

Config files are JSON. Absent fields keep their defaults; CLI flags and
HTTP overrides are merged on top via config_from_dict. The echo embedded
in every report contains only the scoring-relevant sections, so identical
scoring inputs produce identical report bytes regardless of where the
registry or lexicon files live.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from .errors import ConfigError
from .functional import DEFAULT_SCORE_TABLE, ScoreTable
from .jsontext import read_json
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


def _string(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string")
    return value


def _optional_string(value, where: str) -> str | None:
    return None if value is None else _string(value, where)


def _object(value, readers: dict, where: str = "") -> dict:
    """A config object's keys, each read by its reader; `where` is its dotted path.

    A non-object and keys without a reader are refused.
    """
    label = where or "top level"
    if not isinstance(value, dict):
        raise ConfigError(f"{label} must be an object")
    unknown = value.keys() - readers.keys()
    if unknown:
        raise ConfigError(f"unknown keys in {label}: {', '.join(sorted(unknown))}")
    prefix = f"{where}." if where else ""
    return {key: readers[key](item, prefix + key) for key, item in value.items()}


def _section(readers: dict):
    return lambda value, where: _object(value, readers, where)


_ATTRIBUTE_READERS = {"name": _string, "direction": _string, "weight": _numeric}


def _attributes(value, where: str) -> tuple[AttributeSpec, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where} must be a non-empty array")
    entries = [_object(item, _ATTRIBUTE_READERS, f"{where}[{i}]") for i, item in enumerate(value)]
    for i, entry in enumerate(entries):
        if "name" not in entry or "direction" not in entry:
            raise ConfigError(f"{where}[{i}] needs 'name' and 'direction'")
    weighted = sum("weight" in entry for entry in entries)
    if 0 < weighted < len(entries):
        raise ConfigError("qos attributes must all carry weights, or none (for equal weights)")
    equal = 1.0 / len(entries)
    return tuple(AttributeSpec(e["name"], e["direction"], e.get("weight", equal)) for e in entries)


# One reader per AppConfig field; the qos keys are QosConfig's fields.
_READERS = {
    "qos": _section(
        {"attributes": _attributes, "n_gaps": _integer, "stability_weight": _numeric, "epsilon": _numeric}
    ),
    "functional_weight": _numeric,
    "score_table": _section({f.name: _points for f in fields(ScoreTable)}),
    "lexicon_path": _optional_string,
    "registry_path": _optional_string,
}


def config_from_dict(data: dict, base: AppConfig = DEFAULT_CONFIG, source: str = "config") -> AppConfig:
    """Merge a partial config dict onto a base config and validate."""
    try:
        updates = _object(data, _READERS)
        for key in ("qos", "score_table"):  # sections merge onto the base's
            if key in updates:
                updates[key] = replace(getattr(base, key), **updates[key])
        return replace(base, **updates).validate()
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def load_config(path: str | Path, base: AppConfig = DEFAULT_CONFIG) -> AppConfig:
    return config_from_dict(read_json(path, "config", ConfigError), base=base, source=str(path))


def config_echo(config: AppConfig) -> dict:
    """Scoring-relevant config as a plain dict: every field but the two paths, in field order."""
    echo = asdict(config)
    del echo["lexicon_path"], echo["registry_path"]
    echo["qos"]["attributes"] = list(echo["qos"]["attributes"])
    return echo
