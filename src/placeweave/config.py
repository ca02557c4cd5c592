"""Run configuration: one JSON document, strict keys, flags override."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path

from .errors import ConfigError, SchemaError

NETWORK_MODES = ("consecutive", "covisitation")
CENSUS_MODES = ("trajectory", "enumerate")
WEIGHTING_MODES = ("devices", "instances")
# The generator behind every seeded draw, named in the synth and refnet outputs.
RNG_ALGORITHM = "numpy-pcg64"


@dataclass
class RunConfig:
    min_dwell: int = 300
    utc_offset: float = 0.0
    network_mode: str = "consecutive"
    census_mode: str = "trajectory"
    distance_weighting: str = "devices"
    top_k: int = 10
    seed: int = 0
    threads: int = 1  # validated; changes neither the output nor the work
    stops: str | None = None
    pois: str | None = None
    out: str | None = None

    def validate(self) -> None:
        problems = []
        if self.min_dwell < 0:
            problems.append(f"min_dwell must be >= 0, got {self.min_dwell}")
        if not (math.isfinite(self.utc_offset) and abs(self.utc_offset) < 24):
            problems.append(
                f"utc_offset must be a finite number of hours in (-24, 24), got {self.utc_offset!r}"
            )
        if self.network_mode not in NETWORK_MODES:
            problems.append(f"network_mode must be one of {NETWORK_MODES}, got {self.network_mode!r}")
        if self.census_mode not in CENSUS_MODES:
            problems.append(f"census_mode must be one of {CENSUS_MODES}, got {self.census_mode!r}")
        if self.distance_weighting not in WEIGHTING_MODES:
            problems.append(
                f"distance_weighting must be one of {WEIGHTING_MODES}, got {self.distance_weighting!r}"
            )
        if self.top_k < 1:
            problems.append(f"top_k must be >= 1, got {self.top_k}")
        if self.threads < 1:
            problems.append(f"threads must be >= 1, got {self.threads}")
        if problems:
            raise ConfigError("; ".join(problems))

    def analysis_dict(self) -> dict:
        """The parameters that shape results; excludes I/O paths and thread
        count so identical analyses yield identical reports."""
        keys = (
            "min_dwell",
            "utc_offset",
            "network_mode",
            "census_mode",
            "distance_weighting",
            "top_k",
            "seed",
        )
        return {k: getattr(self, k) for k in keys}

    def with_overrides(self, **overrides) -> "RunConfig":
        updates = {k: v for k, v in overrides.items() if v is not None}
        cfg = replace(self, **updates)
        cfg.validate()
        return cfg


def json_number(value, cast: type):
    """cast(value), cast int or float, for a JSON number value; else TypeError or ValueError."""
    # a JSON number only: true is a bool and "300" a string
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"must be a number, got {value!r}")
    # int() would truncate 299.9; value % 1 is nan for inf and nan
    if cast is int and value % 1:
        raise ValueError(f"must be an integer, got {value!r}")
    try:
        return cast(value)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"is out of range for a number, got {value!r}") from None


def read_json(path: str | Path, what: str, error: type[SchemaError] = SchemaError) -> dict:
    """The JSON object in a UTF-8 file; text that is not one raises error naming what."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        json.dumps(doc, ensure_ascii=False).encode()  # a lone surrogate escape is not text
    except ValueError as exc:  # bad UTF-8, bad JSON, or an integer past int()'s digit limit
        raise error(f"{what} {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise error(f"{what}: must be a JSON object, got {type(doc).__name__} in {path}")
    return doc


def read_spec(cls, path: str | Path, what: str, convert: dict, optional: tuple = ()):
    """The validated cls of a user-written JSON spec, each key's value read by convert[key].

    Every key of convert not in optional is required, and no other key is
    allowed; an absent optional key takes cls's default. Every unknown or
    missing key and every value of the wrong JSON type or form goes into one
    ConfigError: "<what>: unknown key(s) [...]; bad <key> (<reason>)".
    """
    doc = read_json(path, what, ConfigError)
    problems = []
    unknown = set(doc) - set(convert)
    if unknown:
        problems.append(f"unknown key(s) {sorted(unknown)}")
    missing = set(convert) - set(optional) - set(doc)
    if missing:
        problems.append(f"missing key(s) {sorted(missing)}")
    values = {}
    for key in filter(doc.__contains__, convert):  # in convert's order
        try:
            values[key] = convert[key](doc[key])
        except (TypeError, ValueError, AttributeError) as exc:
            problems.append(f"bad {key} ({exc})")
    if problems:
        raise ConfigError(f"{what}: {'; '.join(problems)}")
    spec = cls(**values)
    spec.validate()
    return spec


def _text(value: str | None) -> str | None:
    """A JSON string without NUL, or null."""
    if value is not None and (not isinstance(value, str) or "\0" in value):
        raise TypeError(f"must be a string without NUL, got {value!r}")
    return value


# RunConfig's fields in order: a JSON number for each int and float, a string or null else
_NUMBERS = {"int": int, "float": float}
_CONFIG_KEYS = {
    f.name: partial(json_number, cast=_NUMBERS[f.type]) if f.type in _NUMBERS else _text
    for f in fields(RunConfig)
}


def validate_config(path: str | Path | None) -> RunConfig:
    """Load a config file, applying defaults; unknown keys are rejected."""
    if path is None:
        cfg = RunConfig()
        cfg.validate()
        return cfg
    try:
        return read_spec(RunConfig, path, "config file", _CONFIG_KEYS, optional=tuple(_CONFIG_KEYS))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
