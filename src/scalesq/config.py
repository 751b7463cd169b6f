"""Experiment configuration: frozen dataclasses plus strict JSON loading.

Every loader validates field by field and raises ConfigError naming the
offending key, so the command line can report usage errors precisely
instead of dumping a traceback.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Any, Mapping

from .grid import (
    NODES_PER_OCTAVE,
    DyadicRange,
    Geometry,
    LogTimeGrid,
    default_dyadic_range,
    default_geometry,
    default_time_grid,
)
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
# sub-configs


@dataclass(frozen=True)
class GridConfig:
    """Sampling box; `grid_config_from_dict` fills gaps from `default_geometry`."""

    dim: int
    n_samples: int
    half_length: float

    def geometry(self) -> Geometry:
        try:
            return Geometry(self.dim, self.n_samples, self.half_length)
        except ValueError as exc:
            raise ConfigError("grid", str(exc)) from exc


def grid_config_from_dict(d: Mapping, context: str = "grid") -> GridConfig:
    _reject_unknown(d, {"dim", "n_samples", "half_length"}, context)
    pre = f"{context}."
    dim = _get_int(d, "dim", 1, pre)
    default = default_geometry(1 if dim == 1 else 2)
    n = _get_int(d, "n_samples", default.n_samples, pre)
    L = _get_number(d, "half_length", default.half_length, pre)
    cfg = GridConfig(dim, n, L)
    cfg.geometry()  # validate eagerly
    return cfg


def _largest_scale_limit(geom: Geometry) -> float:
    """The largest t whose 2 pi t |xi|, at every frequency of the grid, has a
    finite square: the radial transforms square each coordinate of t xi, and
    a scale past this one sends them to inf and NaN."""
    xi_max = math.sqrt(geom.dim) * (geom.n_samples // 2) / (2.0 * geom.half_length)
    return math.sqrt(sys.float_info.max) / (2.0 * math.pi * xi_max)


@dataclass(frozen=True)
class TimeGridConfig:
    """Continuous-scale quadrature window; None bounds mean grid-adapted."""

    t_min: float | None = None
    t_max: float | None = None
    nodes_per_octave: int = NODES_PER_OCTAVE

    def time_grid(self, geom: Geometry) -> LogTimeGrid:
        lo, hi = self.t_min, self.t_max
        try:
            if lo is None or hi is None:
                base = default_time_grid(geom, self.nodes_per_octave)
                lo = base.t_min if lo is None else lo
                hi = base.t_max if hi is None else hi
            grid = LogTimeGrid(lo, hi, self.nodes_per_octave)
        except ValueError as exc:
            raise ConfigError("time", str(exc)) from exc
        limit = _largest_scale_limit(geom)
        if hi > limit:
            raise ConfigError(
                "time", f"t_max = {hi!r} overflows the kernel transforms on this grid; need t_max <= {limit:.6g}"
            )
        return grid


def time_config_from_dict(d: Mapping, context: str = "time") -> TimeGridConfig:
    _reject_unknown(d, {"t_min", "t_max", "nodes_per_octave"}, context)
    pre = f"{context}."
    t_min = _get_number(d, "t_min", None, pre)
    t_max = _get_number(d, "t_max", None, pre)
    j = _get_int(d, "nodes_per_octave", NODES_PER_OCTAVE, pre)
    if j is None or j < 1:
        raise ConfigError(f"{pre}nodes_per_octave", "must be a positive integer")
    if (t_min is None) != (t_max is None):
        raise ConfigError(context, "t_min and t_max must be given together")
    if t_min is not None and not (0 < t_min < t_max):
        raise ConfigError(context, f"need 0 < t_min < t_max, got ({t_min}, {t_max})")
    return TimeGridConfig(t_min, t_max, j)


@dataclass(frozen=True)
class DyadicConfig:
    """Dyadic scale exponents; None bounds mean grid-adapted."""

    k_min: int | None = None
    k_max: int | None = None

    def dyadic_range(self, geom: Geometry) -> DyadicRange:
        base = default_dyadic_range(geom)
        lo = self.k_min if self.k_min is not None else base.k_min
        hi = self.k_max if self.k_max is not None else base.k_max
        try:
            dyadic = DyadicRange(lo, hi)
        except ValueError as exc:
            raise ConfigError("dyadic", str(exc)) from exc
        limit = math.floor(math.log2(_largest_scale_limit(geom)))
        if hi > limit:
            raise ConfigError(
                "dyadic", f"k_max = {hi} overflows the kernel transforms on this grid; need k_max <= {limit}"
            )
        return dyadic


def dyadic_config_from_dict(d: Mapping, context: str = "dyadic") -> DyadicConfig:
    _reject_unknown(d, {"k_min", "k_max"}, context)
    pre = f"{context}."
    k_min = _get_int(d, "k_min", None, pre)
    k_max = _get_int(d, "k_max", None, pre)
    if k_min is not None and k_max is not None and k_min > k_max:
        raise ConfigError(context, f"empty range [{k_min}, {k_max}]")
    return DyadicConfig(k_min, k_max)


# ---------------------------------------------------------------------------
# experiment config

_OPERATORS = ("gfun", "dyadic", "sobolev")


@dataclass(frozen=True)
class EquivalenceConfig:
    """One norm-comparison experiment over the seeded test family.

    operator selects the ratio under test: "gfun" and "dyadic" compare a
    square function against the plain L^p norm for a named kernel;
    "sobolev" compares the potential-difference seminorm route against
    the smoothing route at a given order and profile.
    """

    operator: str
    kernel: str | None
    order: float | None
    profile: str
    p: float
    weight: str
    seed: int
    spread_bound: float
    grid: GridConfig
    time: TimeGridConfig
    dyadic: DyadicConfig


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

    grid = grid_config_from_dict(_as_mapping(d.get("grid", {}), "grid"))
    time = time_config_from_dict(_as_mapping(d.get("time", {}), "time"))
    dyadic = dyadic_config_from_dict(_as_mapping(d.get("dyadic", {}), "dyadic"))
    try:
        require_ap_weight(weight or "const", grid.dim, p)
    except ValueError as exc:
        raise ConfigError("weight", str(exc)) from exc

    return EquivalenceConfig(
        operator=operator,
        kernel=kernel,
        order=order,
        profile=profile or "ball",
        p=p,
        weight=weight or "const",
        seed=seed,
        spread_bound=spread_bound,
        grid=grid,
        time=time,
        dyadic=dyadic,
    )


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
