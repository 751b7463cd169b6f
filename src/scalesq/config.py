"""Experiment configuration: frozen dataclasses plus strict JSON loading.

Every loader validates field by field and raises ConfigError naming the
offending key, so the command line can report usage errors precisely
instead of dumping a traceback.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Mapping

from .grid import Geometry, ScaleSet, default_geometry, scale_set
from .kernels import profile_from_id
from .weights import require_ap_weight


class ConfigError(ValueError):
    """A configuration field is missing, mistyped, or out of range."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config field '{field}': {message}")


def _as_mapping(obj: Any, field: str) -> Mapping:
    if not isinstance(obj, Mapping):
        raise ConfigError(field, f"expected an object, got {type(obj).__name__}")
    return obj


def _reject_unknown(d: Mapping, allowed: set[str], context: str) -> None:
    for key in d:
        if key not in allowed:
            raise ConfigError(f"{context}.{key}" if context else str(key), "unknown field")


def _get_int(d: Mapping, key: str, default: int | None, context: str) -> int | None:
    if key not in d:
        return default
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{context}{key}", f"expected an integer, got {v!r}")
    return v


def _get_number(d: Mapping, key: str, default: float | None, context: str) -> float | None:
    if key not in d:
        return default
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{context}{key}", f"expected a number, got {v!r}")
    try:
        x = float(v)
    except OverflowError:  # an integer beyond float range
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{context}{key}", f"expected a finite number, got {v!r}")
    return x


def _get_str(d: Mapping, key: str, default: str | None, context: str) -> str | None:
    if key not in d:
        return default
    v = d[key]
    if not isinstance(v, str):
        raise ConfigError(f"{context}{key}", f"expected a string, got {v!r}")
    return v


# ---------------------------------------------------------------------------
# sections


def _geometry_from_dict(d: Mapping) -> Geometry:
    """The `grid` section; gaps are filled from `default_geometry`."""
    _reject_unknown(d, {"dim", "n_samples", "half_length"}, "grid")
    dim = _get_int(d, "dim", 1, "grid.")
    default = default_geometry(1 if dim == 1 else 2)
    n = _get_int(d, "n_samples", default.n_samples, "grid.")
    L = _get_number(d, "half_length", default.half_length, "grid.")
    try:
        return Geometry(dim, n, L)
    except ValueError as exc:
        raise ConfigError("grid", str(exc)) from exc


# the keys of the `time` and `dyadic` sections, each with its type check;
# `grid.scale_set` checks their ranges
_SCALE_KEYS = {
    "time": {"t_min": _get_number, "t_max": _get_number, "nodes_per_octave": _get_int},
    "dyadic": {"k_min": _get_int, "k_max": _get_int},
}


def _scale_kwargs(d: Mapping, section: str) -> dict:
    """The keys that the section gives, as keyword arguments of `scale_set`."""
    getters = _SCALE_KEYS[section]
    _reject_unknown(d, set(getters), section)
    return {key: get(d, key, None, f"{section}.") for key, get in getters.items() if key in d}


# ---------------------------------------------------------------------------
# experiment config

_OPERATORS = ("gfun", "dyadic", "sobolev")


@dataclass(frozen=True)
class EquivalenceConfig:
    """One norm-comparison experiment over the seeded test family.

    operator selects the ratio under test: "gfun" and "dyadic" compare a
    square function against the plain L^p norm for a named kernel;
    "sobolev" compares the potential-difference seminorm route against
    the smoothing route at a given order and profile.  `grid` is the file's
    grid; `time` and `dyadic` hold the keys their sections give, as keyword
    arguments of `grid.scale_set`.
    """

    operator: str
    kernel: str | None
    order: float | None
    profile: str
    p: float
    weight: str
    seed: int
    spread_bound: float
    grid: Geometry
    time: dict
    dyadic: dict

    def scale_set(self, geom: Geometry, continuous: bool) -> ScaleSet:
        """The `time` (continuous) or `dyadic` scale set on `geom`; a refusal
        names the section."""
        section, kwargs = ("time", self.time) if continuous else ("dyadic", self.dyadic)
        try:
            return scale_set(geom, continuous, **kwargs)
        except ValueError as exc:
            raise ConfigError(section, str(exc)) from exc


def equivalence_config_from_dict(
    d: Mapping, forced_operator: str | None = None
) -> EquivalenceConfig:
    _as_mapping(d, "<root>")
    allowed = {
        "operator",
        "kernel",
        "order",
        "profile",
        "p",
        "weight",
        "seed",
        "spread_bound",
        "grid",
        "time",
        "dyadic",
    }
    _reject_unknown(d, allowed, "")

    operator = _get_str(d, "operator", forced_operator, "")
    if forced_operator is not None:
        operator = forced_operator
    if operator not in _OPERATORS:
        raise ConfigError("operator", f"must be one of {_OPERATORS}, got {operator!r}")

    kernel = _get_str(d, "kernel", None, "")
    order = _get_number(d, "order", None, "")
    profile = _get_str(d, "profile", "ball", "")

    if operator in ("gfun", "dyadic") and kernel is None:
        raise ConfigError("kernel", f"required for operator {operator!r}")
    if operator == "sobolev":
        if order is None:
            raise ConfigError("order", "required for operator 'sobolev'")
        if not (order > 0):
            raise ConfigError("order", f"must be positive, got {order}")

    p = _get_number(d, "p", 2.0, "")
    if p is None or not (p >= 1):
        raise ConfigError("p", f"must be a number >= 1, got {p}")

    weight = _get_str(d, "weight", "const", "")
    seed = _get_int(d, "seed", 0, "")
    if seed is None or seed < 0:
        raise ConfigError("seed", "must be a nonnegative integer")

    spread_bound = _get_number(d, "spread_bound", 50.0, "")
    if spread_bound is None or not (spread_bound > 1):
        raise ConfigError("spread_bound", f"must exceed 1, got {spread_bound}")

    grid = _geometry_from_dict(_as_mapping(d.get("grid", {}), "grid"))
    try:
        require_ap_weight(weight, grid.dim, p)
    except ValueError as exc:
        raise ConfigError("weight", str(exc)) from exc
    try:  # checked for every operator, since every report echoes it
        profile_from_id(profile, grid.dim)
    except ValueError as exc:
        raise ConfigError("profile", str(exc)) from exc

    cfg = EquivalenceConfig(
        operator=operator,
        kernel=kernel,
        order=order,
        profile=profile,
        p=p,
        weight=weight,
        seed=seed,
        spread_bound=spread_bound,
        grid=grid,
        time=_scale_kwargs(_as_mapping(d.get("time", {}), "time"), "time"),
        dyadic=_scale_kwargs(_as_mapping(d.get("dyadic", {}), "dyadic"), "dyadic"),
    )
    # a section the file gives is resolved on the file's grid as it loads, so
    # that a bad range is refused here; a section left out is grid-adapted, and
    # on a grid of 32 points or fewer the default time window is empty
    if cfg.time:
        cfg.scale_set(grid, True)
    if cfg.dyadic:
        cfg.scale_set(grid, False)
    return cfg


def read_json_config(path: str) -> Mapping:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, Mapping):
        raise ConfigError("<root>", "top level must be a JSON object")
    return data


def load_equivalence_config(
    path: str, forced_operator: str | None = None
) -> EquivalenceConfig:
    return equivalence_config_from_dict(read_json_config(path), forced_operator)
