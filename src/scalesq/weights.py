"""Power weights |x|^A, their A_p gate, and weighted norms.

A weight is a callable on coordinates.  Whether `pow:A` is an A_p weight
is decided in closed form by `require_ap_weight`; the numerical A_p
estimate over families of balls lives with the test oracles, which check
that gate against it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .grid import Geometry, SampledField


def constant_weight(value: float = 1.0) -> Callable:
    if value <= 0:
        raise ValueError(f"weight must be positive, got {value}")

    def evaluate(*coords):
        shape = np.broadcast_shapes(*(np.shape(c) for c in coords))
        return np.full(shape, float(value))

    return evaluate


def power_weight(exponent: float, radius_floor: float | None = None) -> Callable:
    """|x|^a, optionally with |x| clamped below by radius_floor.

    The clamp keeps the weight finite and positive on grids whose origin is
    a sample point; the commands pass the grid spacing.
    """

    def evaluate(*coords):
        r = np.sqrt(sum(np.asarray(c, dtype=float) ** 2 for c in coords))
        if radius_floor is not None:
            r = np.maximum(r, radius_floor)
        with np.errstate(divide="ignore"):
            return r**exponent

    return evaluate


def _power_exponent(wid: str) -> float | None:
    """A of a "pow:A" id, None for "const"; any other id raises."""
    if wid == "const":
        return None
    if wid.startswith("pow:"):
        try:
            return float(wid.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"malformed weight id '{wid}'") from None
    raise ValueError(f"unknown weight id '{wid}' (forms: const, pow:A)")


def weight_from_id(wid: str, radius_floor: float | None = None) -> Callable:
    a = _power_exponent(wid)
    return constant_weight() if a is None else power_weight(a, radius_floor)


def require_ap_weight(wid: str, dim: int, p: float) -> None:
    """Raise ValueError unless the id names a weight of the class A_p(R^dim).

    A constant always is one.  |x|^A is one iff -dim < A < dim (p - 1) for
    p > 1, and iff -dim < A <= 0 for p = 1 (Grafakos, Classical Fourier
    Analysis, Example 7.1.7).  The weighted norm equivalences hold only for
    A_p weights, so outside that range their test would pass vacuously.
    """
    a = _power_exponent(wid)
    if a is None:
        return
    hi = dim * (p - 1.0)
    if not (-dim < a < hi if p > 1 else -dim < a <= 0.0):
        need = f"{-dim} < A < {hi:g}" if p > 1 else f"{-dim} < A <= 0"
        raise ValueError(f"'{wid}' is not in A_{p:g}(R^{dim}): |x|^A needs {need}")


def _grid_values(w: Callable, geom: Geometry) -> np.ndarray:
    """The weight on the spatial grid, checked finite and nonnegative."""
    wv = np.asarray(w(*geom.spatial_grids()), dtype=float)
    if np.any(wv < 0) or not np.all(np.isfinite(wv)):
        raise ValueError("weight must be finite and nonnegative on the grid")
    return wv


def constant_on_grid(wv: np.ndarray) -> float | None:
    """The weight's value if its samples wv on the grid (`_grid_values`) take
    one value, else None: decided from the values, not how the weight was made."""
    c = wv.flat[0]
    return float(c) if np.all(wv == c) else None


def weighted_norm(f: SampledField, p: float, w: Callable) -> float:
    """(h^d sum |f|^p w)^(1/p) over the grid: `_sampled_norm` under w's samples."""
    return _sampled_norm(f, p, _grid_values(w, f.geometry))


def _sampled_norm(f: SampledField, p: float, wv: np.ndarray) -> float:
    """(h^d sum |f|^p wv)^(1/p), wv the weight's samples on the grid, computed
    as M (h^d sum (|f|/M)^p wv)^(1/p) with M = max |f| so that no power overflows."""
    if not (p >= 1):
        raise ValueError(f"need p >= 1, got {p}")
    mag = np.abs(f.values)
    top = float(mag.max())
    if top == 0.0:
        return 0.0
    total = f.geometry.cell_volume * np.sum((mag / top) ** p * wv)
    return top * float(total ** (1.0 / p))
