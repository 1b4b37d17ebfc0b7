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
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import ScenarioError
from .model import PARAM_FIELDS, ModelParams

# economic parameters: every one required, no defaults
_FLOAT_FIELDS = PARAM_FIELDS[float]
_INT_FIELDS = PARAM_FIELDS[int]

_OPTION_DEFAULTS = {
    "oracle": False,
    "tolerance": 1e-8,
    "seed": 0,
    "strict_alpha": True,
}


def _tolerance_problems(tolerance) -> list[str]:
    """The residual tolerance must be a finite positive number."""
    if math.isfinite(tolerance) and tolerance > 0.0:
        return []
    return [f"tolerance must be finite and positive, got {tolerance!r}"]


def _name_problems(name: str, lineno: int) -> list[str]:
    """The name becomes an output file name, so it must be a plain one."""
    if name in ("", ".", "..") or "/" in name or "\\" in name:
        return [f"line {lineno}: field 'name' must be a plain file name "
                f"without path separators, got {name!r}"]
    return []


@dataclass(frozen=True)
class Scenario:
    """A named parameter set plus solver options."""

    name: str
    params: ModelParams
    oracle: bool = False
    tolerance: float = 1e-8
    seed: int = 0

    def with_overrides(self, *, oracle=None, tolerance=None, seed=None) -> "Scenario":
        """Apply command-line overrides on top of the file contents.

        Raises ScenarioError when the tolerance override is invalid.
        """
        out = self
        if oracle is not None:
            out = replace(out, oracle=oracle)
        if tolerance is not None:
            problems = _tolerance_problems(tolerance)
            if problems:
                raise ScenarioError(problems)
            out = replace(out, tolerance=tolerance)
        if seed is not None:
            out = replace(out, seed=seed)
        return out


def _parse_bool(raw):
    lowered = raw.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean (true/false), got {raw!r}")


def load_scenario(path, *, strict_alpha: bool | None = None) -> Scenario:
    """Parse and validate a scenario file.

    Problems are reported in two batches, each complete: first every parse
    problem (syntax, unknown or missing fields), then, once the parameters
    exist, every violated invariant at once.  ``strict_alpha`` overrides the
    file's own flag when given (the command line sets it before validation).
    """
    path = Path(path)
    if not path.is_file():
        raise ScenarioError([f"scenario file not found: {path}"])
    problems = []
    entries = {}
    for lineno, raw_line in enumerate(path.read_text().splitlines(), start=1):
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
            if key in _FLOAT_FIELDS or key == "tolerance":
                values[key] = float(raw_value)
            elif key in _INT_FIELDS or key == "seed":
                values[key] = int(raw_value)
            elif key in ("oracle", "strict_alpha"):
                values[key] = _parse_bool(raw_value)
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
    if strict_alpha is not None:
        options["strict_alpha"] = strict_alpha
    problems.extend(_tolerance_problems(options["tolerance"]))
    name = values.pop("name", path.stem)
    params = ModelParams(strict_alpha=options["strict_alpha"], **values)
    problems.extend(params.validate())
    if problems:
        raise ScenarioError(problems)
    return Scenario(
        name=name,
        params=params,
        oracle=options["oracle"],
        tolerance=options["tolerance"],
        seed=options["seed"],
    )
