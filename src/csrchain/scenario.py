"""Scenario files: one flat key = value file per solver run.

Format, line by line::

    # comment
    name = reference          # optional label (defaults to the file stem)
    alpha = 0.9               # every economic parameter is required
    ...
    horizon_T = 3
    oracle = true             # solver options are optional
    tolerance = 1e-8
    seed = 0
    strict_alpha = true

Every economic parameter must be present explicitly; only solver options
(tolerance, flags, seed) carry defaults.  Parsing and validation report all
problems at once, each message naming the line or field involved.
"""
from __future__ import annotations

import math
import os
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .errors import ParamsError, ScenarioError
from .model import PARAM_FIELDS, ModelParams

# economic parameters: every one required, no defaults
_FLOAT_FIELDS = PARAM_FIELDS[float]
_INT_FIELDS = PARAM_FIELDS[int]


def _name_problems(name: str, lineno: int) -> list[str]:
    """The name becomes an output file name, so it must be a plain one that
    the file system's encoding can spell, with no NUL."""
    try:
        storable = b"\0" not in os.fsencode(name)
    except UnicodeEncodeError:
        storable = False
    if not storable or name in ("", ".", "..") or "/" in name or "\\" in name:
        return [f"line {lineno}: field 'name' must be a plain file name the file "
                f"system can store, without path separators, got {name!r}"]
    return []


@dataclass(frozen=True)
class Scenario:
    """A named parameter set plus solver options."""

    name: str
    params: ModelParams
    oracle: bool = False
    tolerance: float = 1e-8
    seed: int = 0


# solver options: every field with a default, of Scenario and of ModelParams
_OPTION_DEFAULTS = {f.name: f.default for f in fields(Scenario) + fields(ModelParams)
                    if f.default is not MISSING}


def _parse_bool(raw):
    lowered = raw.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean (true/false), got {raw!r}")


def load_scenario(path, **overrides) -> Scenario:
    """Parse and validate a scenario file.

    ``overrides`` are solver options by name; each not None replaces the
    file's value before the one validation pass (a bad tolerance is refused
    even where replaced), and an unknown name raises TypeError before the
    file is read.  Problems are reported in two complete batches: every
    parse problem, then every violated invariant.
    """
    unknown = sorted(overrides.keys() - _OPTION_DEFAULTS.keys())
    if unknown:
        raise TypeError(f"load_scenario() got unknown overrides {unknown}")
    path = Path(path)
    if not path.exists():
        raise ScenarioError([f"scenario file not found: {path}"])
    try:
        # a byte-order mark is no text, stripped after decoding so error offsets count it
        text = path.read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ScenarioError([f"scenario file {path} is not UTF-8 text: "
                             f"{exc.reason} at byte {exc.start}"]) from None
    except OSError as exc:
        raise ScenarioError([f"cannot read scenario file {path}: "
                             f"{exc.strerror or exc}"]) from None
    problems = []
    entries = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected 'key = value', got {raw_line.strip()!r}")
            continue
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key in entries:
            problems.append(f"line {lineno}: duplicate key {key!r}")
            continue
        entries[key] = (lineno, raw_value)

    values = {}
    for key, (lineno, raw_value) in entries.items():
        try:
            if key in _FLOAT_FIELDS:
                values[key] = float(raw_value)
            elif key in _INT_FIELDS:
                values[key] = int(raw_value)
            elif key in _OPTION_DEFAULTS:
                kind = type(_OPTION_DEFAULTS[key])
                values[key] = _parse_bool(raw_value) if kind is bool else kind(raw_value)
            elif key == "name":
                values[key] = raw_value
                problems.extend(_name_problems(raw_value, lineno))
            else:
                problems.append(f"line {lineno}: unknown key {key!r}")
        except ValueError as exc:
            problems.append(f"line {lineno}: field {key!r}: {exc}")

    for field_name in _FLOAT_FIELDS + _INT_FIELDS:
        if field_name not in entries:
            problems.append(f"missing required field {field_name!r}")
    if problems:
        raise ScenarioError(problems)

    options = {k: values.pop(k, v) for k, v in _OPTION_DEFAULTS.items()}
    for tolerance in (options["tolerance"], overrides.get("tolerance")):
        if tolerance is not None and not (math.isfinite(tolerance) and tolerance > 0.0):
            problems.append(f"tolerance must be finite and positive, got {tolerance!r}")
    options.update((k, v) for k, v in overrides.items() if v is not None)
    name = values.pop("name", path.stem)
    try:
        params = ModelParams(strict_alpha=options.pop("strict_alpha"), **values)
    except ParamsError as exc:
        problems.extend(exc.violations)
    if problems:
        raise ScenarioError(problems)
    return Scenario(name=name, params=params, **options)
