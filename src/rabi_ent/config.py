"""Run-configuration schema: validation, defaults, and object construction.

Configurations are JSON objects.  ``SCHEMA`` is the one place that names
every accepted key with its type, its default (or that it is required) and
its bounds.  ``validate_config`` walks it over a whole configuration before
any computation starts, and the readers below walk it over one section to
get typed values with the defaults filled in.  Unknown keys are rejected
outright, so a typo fails fast instead of silently falling back to a default.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError
from .params import KappaConvention, ModelParams, SpinState, _is_real
from .scan import AxisRange, ScanSpec, SWEEPABLE
from .specialfn import DEFAULT_TAIL_TOL

REQUIRED = object()
"""Default of a key that has none: a config that omits it is rejected."""


def _is_number(value) -> bool:
    """A JSON float, NaN and infinities included (the domain checks reject those), or an
    integer within the float range."""
    return isinstance(value, float) or _is_real(value)


# kind -> (accepts the JSON value, what the error message expects, cast)
_KINDS = {
    "number": (_is_number, "a number", float),
    "integer": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer", int),
    "bool": (lambda v: isinstance(v, bool), "true/false", bool),
    "string": (lambda v: isinstance(v, str), "a string", str),
    "interval": (
        lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_number, v)) and v[0] <= v[1],
        "[lo, hi] with numbers lo <= hi",
        lambda v: (float(v[0]), float(v[1])),
    ),
}

_BOUNDS = ((">", operator.gt, "gt"), (">=", operator.ge, "ge"), ("<=", operator.le, "le"))


@dataclass(frozen=True)
class Field:
    """One JSON value: its kind, its default and its bounds.

    ``kind`` is a key of ``_KINDS`` or, for an enumerated value, a dict from
    the accepted strings to what readers receive.  A bound is a number or
    the name of a key listed before this one in the same object.  Only a
    ``nullable`` field accepts an explicit null.
    """

    kind: str | dict
    default: object = REQUIRED
    gt: float | str | None = None
    ge: float | str | None = None
    le: float | None = None
    nullable: bool = False


@dataclass(frozen=True)
class MapOf:
    """A JSON object from names to values of one shape; absent means empty."""

    value: Field | dict
    sweepable: bool = False


def _choice(enum, default, *, by_name: bool = False) -> Field:
    return Field({(m.name if by_name else m.value): m for m in enum}, default)


def _complete_refine(refine: dict, scan: dict) -> None:
    """Match refine's axes to the swept ones; bound each axis not named by its sweep range."""
    ranges = scan["ranges"]
    swept = [name for name in SWEEPABLE if name in ranges]
    if sorted(refine["step_scales"]) != sorted(swept):
        raise ConfigError(f"scan.refine.step_scales: must cover exactly the swept axes {swept}")
    for name in refine["bounds"]:
        if name not in ranges:
            raise ConfigError(f"scan.refine.bounds.{name}: not one of the swept axes {swept}")
    refine["bounds"] = {**{n: (r["min"], r["max"]) for n, r in ranges.items()}, **refine["bounds"]}


# A dict stands for a JSON object that accepts only its own keys.
SCHEMA = {
    "label": Field("string", None),
    "description": Field("string", None),
    "model": {
        "ratio_r": Field("number"),
        "beta": Field("number"),
        "kappa0": Field("number", ModelParams.kappa0),
        "alpha_sq": Field("number", ModelParams.alpha_sq),
        "kappa_convention": _choice(KappaConvention, ModelParams.kappa_convention),
    },
    "time_grid": {
        "t_min": Field("number", 0.0),
        "t_max": Field("number", gt="t_min"),
        "points": Field("integer", 2000, ge=2, le=10**7),  # 80 MB per float column
    },
    "tail_tol": Field("number", DEFAULT_TAIL_TOL, gt=0.0, le=1e-6),
    "spectrum": {
        "n_min": Field("integer", 0, ge=0),
        "n_max": Field("integer", None, ge="n_min"),  # None: up to the Poisson cut
    },
    "ed": {
        "n_max": Field("integer", None),  # None: required_n_max(alpha_sq)
        "initial_spin": _choice(SpinState, SpinState.J1M0, by_name=True),
        "initial_fock": Field("integer", None, nullable=True),  # None: coherent state
        "check_truncation": Field("bool", True),
    },
    "jc": {
        "delta": Field("number"),
        "g": Field("number"),
        "alpha_sq": Field("number"),
        "corrected": Field("bool", True),
    },
    "scan": {
        "ranges": MapOf(
            {"min": Field("number"), "max": Field("number"), "steps": Field("integer")},
            sweepable=True,
        ),
        "fixed": MapOf(Field("number"), sweepable=True),
        "horizon": Field("number"),
        "time_points": Field("integer", ScanSpec.time_points, le=10**7),
        "kappa_convention": _choice(KappaConvention, ScanSpec.kappa_convention),
        "refine": {
            "step_scales": MapOf(Field("number")),
            "max_iters": Field("integer", 200),
            "ftol": Field("number", 1e-8),
            "bounds": MapOf(Field("interval")),
        },
    },
    "output": {"path": Field("string", None)},
}


def _value(value, field: Field, path: str, siblings: dict):
    if value is None and field.nullable:
        return None
    if isinstance(field.kind, dict):
        if isinstance(value, str) and value in field.kind:
            return field.kind[value]
        raise ConfigError(f"{path}: expected one of {sorted(field.kind)}, got {value!r}")
    accepts, expected, cast = _KINDS[field.kind]
    if not accepts(value):
        raise ConfigError(f"{path}: expected {expected}, got {value!r}")
    value = cast(value)
    for symbol, holds, attr in _BOUNDS:
        limit = getattr(field, attr)
        bound = siblings[limit] if isinstance(limit, str) else limit
        if bound is not None and not holds(value, bound):
            shown = f"{limit} ({bound})" if isinstance(limit, str) else limit
            raise ConfigError(f"{path}: must be {symbol} {shown}, got {value}")
    return value


def _walk(value, spec, path: str, siblings: dict | None = None):
    """Validate ``value`` against ``spec``; return it typed, defaults filled in.

    Absent fields take their default and absent maps are empty; absent
    objects stay absent.
    """
    if isinstance(spec, Field):
        return _value(value, spec, path, siblings)
    where = path or "config"
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected an object, got {type(value).__name__}")
    if isinstance(spec, MapOf):
        for name in value:
            if spec.sweepable and name not in SWEEPABLE:
                raise ConfigError(f"{path}.{name}: not a sweepable parameter")
        return {name: _walk(item, spec.value, f"{path}.{name}") for name, item in value.items()}
    unknown = sorted(set(value) - set(spec))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}; allowed keys are {sorted(spec)}")
    out = {}
    for key, sub in spec.items():
        sub_path = f"{path}.{key}" if path else key
        if key in value:
            out[key] = _walk(value[key], sub, sub_path, out)
        elif isinstance(sub, MapOf):
            out[key] = {}
        elif isinstance(sub, Field):
            if sub.default is REQUIRED:
                raise ConfigError(f"{sub_path}: required")
            out[key] = sub.default
    if path == "scan.refine":
        _complete_refine(out, siblings)
    return out


def validate_config(raw: dict) -> dict:
    """Structural validation of a full configuration object.

    Returns the input unchanged on success; raises ConfigError with a
    dotted path on the first problem found.
    """
    _walk(raw, SCHEMA, "")
    return raw


def load_config(path: str | Path) -> dict:
    """Read and validate a JSON configuration file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past int's digit limit
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return validate_config(raw)


def section(cfg: dict, name: str, *, required: bool = False):
    """One top-level entry of ``cfg``, typed, with the schema's defaults filled in."""
    spec = SCHEMA[name]
    if name in cfg:
        return _walk(cfg[name], spec, name)
    if required:
        raise ConfigError(f"this command requires a {name!r} section in the config")
    return spec.default if isinstance(spec, Field) else _walk({}, spec, name)


def params_from_config(cfg: dict) -> ModelParams:
    return ModelParams(**section(cfg, "model", required=True))


def times_from_config(cfg: dict) -> np.ndarray:
    grid = section(cfg, "time_grid", required=True)
    return np.linspace(grid["t_min"], grid["t_max"], grid["points"])


def _scanspec(scan: dict, tail_tol: float) -> ScanSpec:
    """The ScanSpec of a ``section(cfg, "scan")``."""
    try:
        return ScanSpec(
            ranges={name: AxisRange(**axis) for name, axis in scan["ranges"].items()},
            fixed=scan["fixed"],
            horizon=scan["horizon"],
            time_points=scan["time_points"],
            kappa_convention=scan["kappa_convention"],
            tail_tol=tail_tol,
        )
    except DomainError as exc:
        # a structurally inconsistent scan request is a configuration problem
        raise ConfigError(f"scan: {exc}") from exc
