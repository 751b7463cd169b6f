"""Muckenhoupt-style weights, ball families, and weighted norms.

The A_p constant estimator maximizes the characteristic product

    avg_B(w) * avg_B(w^(-1/(p-1)))^(p-1)

over a finite family of balls, each average computed by midpoint
quadrature.  This is a lower bound for the true supremum; the verdict
"in A_p numerically" means the estimate is stable when the ball family
and the per-ball sampling are refined, never a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .grid import Geometry, SampledField


@dataclass(frozen=True)
class Weight:
    """Positive weight function given by an evaluator on coordinates."""

    evaluate: Callable
    kind: str

    def __call__(self, *coords):
        return self.evaluate(*coords)


def constant_weight(value: float = 1.0) -> Weight:
    if value <= 0:
        raise ValueError(f"weight must be positive, got {value}")

    def evaluate(*coords):
        shape = np.broadcast_shapes(*(np.shape(c) for c in coords))
        return np.full(shape, float(value))

    return Weight(evaluate, kind="const")


def power_weight(exponent: float, radius_floor: float | None = None) -> Weight:
    """|x|^a, optionally with |x| clamped below by radius_floor.

    The clamp keeps the weight finite and positive on grids whose origin is
    a sample point; pass half the grid spacing for grid work.
    """

    def evaluate(*coords):
        r = np.sqrt(sum(np.asarray(c, dtype=float) ** 2 for c in coords))
        if radius_floor is not None:
            r = np.maximum(r, radius_floor)
        with np.errstate(divide="ignore"):
            return r**exponent

    return Weight(evaluate, kind=f"pow:{exponent:g}")


def weight_from_id(wid: str, radius_floor: float | None = None) -> Weight:
    if wid == "const":
        return constant_weight()
    if wid.startswith("pow:"):
        try:
            a = float(wid.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"malformed weight id '{wid}'") from None
        return power_weight(a, radius_floor)
    raise ValueError(f"unknown weight id '{wid}' (forms: const, pow:A)")


def dual_weight(w: Weight, p: float) -> Weight:
    """Reflected conjugate-exponent weight x -> w(-x)^(-p'/p).

    Applying it again with the conjugate exponent p' returns the original
    weight, since the reflections and the exponents both cancel.
    """
    if not (p > 1):
        raise ValueError(f"need p > 1, got {p}")
    pprime = p / (p - 1.0)
    ratio = pprime / p

    def evaluate(*coords):
        vals = w.evaluate(*(-np.asarray(c, dtype=float) for c in coords))
        return np.asarray(vals, dtype=float) ** (-ratio)

    return Weight(evaluate, kind=f"dual({w.kind},p={p:g})")


def _grid_values(w: Weight, geom: Geometry) -> np.ndarray:
    """The weight on the spatial grid, checked finite and nonnegative."""
    wv = np.asarray(w.evaluate(*geom.spatial_grids()), dtype=float)
    if np.any(wv < 0) or not np.all(np.isfinite(wv)):
        raise ValueError("weight must be finite and nonnegative on the grid")
    return wv


def constant_on_grid(w: Weight, geom: Geometry) -> float | None:
    """The weight's value if it takes one value at every grid point, else None;
    decided from the evaluated values, whatever the weight's kind."""
    wv = _grid_values(w, geom)
    c = wv.flat[0]
    return float(c) if np.all(wv == c) else None


def weighted_norm(f: SampledField, p: float, w: Weight) -> float:
    """(h^d sum |f|^p w)^(1/p) over the grid."""
    if not (p >= 1):
        raise ValueError(f"need p >= 1, got {p}")
    g = f.geometry
    total = g.cell_volume * np.sum(np.abs(f.values) ** p * _grid_values(w, g))
    return float(total ** (1.0 / p))


# ---------------------------------------------------------------------------
# ball families and the characteristic product

@dataclass(frozen=True)
class BallFamily:
    """Finite list of (center, radius) pairs; centers are dim-tuples."""

    dim: int
    balls: tuple[tuple[tuple[float, ...], float], ...]

    def __post_init__(self):
        for center, radius in self.balls:
            if len(center) != self.dim:
                raise ValueError(f"center {center} does not have dim {self.dim}")
            if radius <= 0:
                raise ValueError(f"ball radius must be positive, got {radius}")

    def __len__(self) -> int:
        return len(self.balls)


def dyadic_ball_family(
    geom: Geometry,
    j_min: int = -4,
    j_max: int = 4,
    centers_per_axis: int = 9,
) -> BallFamily:
    """Balls with radii 2^j and centers on a coarse sublattice of the box."""
    if j_min > j_max:
        raise ValueError(f"empty radius range [{j_min}, {j_max}]")
    L = geom.half_length
    cs = np.linspace(-L / 2.0, L / 2.0, centers_per_axis)
    if geom.dim == 1:
        centers = [(float(c),) for c in cs]
    else:
        centers = [(float(a), float(b)) for a in cs for b in cs]
    balls = tuple(
        (center, float(2.0**j))
        for j in range(j_min, j_max + 1)
        for center in centers
    )
    return BallFamily(geom.dim, balls)


def _ball_samples(center: tuple[float, ...], radius: float, dim: int, m: int):
    """Midpoint sample points covering the ball; never hits the center line."""
    offsets = (np.arange(m) + 0.5) * (2.0 * radius / m) - radius
    if dim == 1:
        return ((center[0] + offsets),)
    X = center[0] + offsets[:, None]
    Y = center[1] + offsets[None, :]
    inside = (X - center[0]) ** 2 + (Y - center[1]) ** 2 <= radius**2
    return (X[inside], Y[inside])


def ap_characteristic_products(
    w: Weight, p: float, balls: BallFamily, samples_per_ball: int = 512
) -> np.ndarray:
    """Per-ball products avg(w) * avg(w^(-1/(p-1)))^(p-1)."""
    if not (p > 1):
        raise ValueError(f"need p > 1, got {p}")
    out = np.empty(len(balls))
    expo = -1.0 / (p - 1.0)
    for i, (center, radius) in enumerate(balls.balls):
        pts = _ball_samples(center, radius, balls.dim, samples_per_ball)
        vals = np.asarray(w.evaluate(*pts), dtype=float).ravel()
        if np.any(vals <= 0) or not np.all(np.isfinite(vals)):
            raise ValueError(
                f"weight must be positive and finite on ball (center={center}, radius={radius})"
            )
        out[i] = np.mean(vals) * np.mean(vals**expo) ** (p - 1.0)
    return out


def ap_constant_estimate(
    w: Weight, p: float, balls: BallFamily, samples_per_ball: int = 512
) -> float:
    """Max of the characteristic product over the family; always >= 1."""
    return float(np.max(ap_characteristic_products(w, p, balls, samples_per_ball)))


def ap_stability_report(
    w: Weight,
    p: float,
    geom: Geometry,
    j_min: int = -4,
    j_max: int = 4,
    samples_per_ball: int = 512,
    rel_tol: float = 0.05,
) -> dict:
    """Heuristic A_p verdict: estimate plus refinement stability.

    The refined pass extends the family two octaves down and doubles the
    per-ball sampling; weights outside A_p show up as an estimate that keeps
    growing under this refinement.
    """
    base_family = dyadic_ball_family(geom, j_min, j_max)
    fine_family = dyadic_ball_family(geom, j_min - 2, j_max)
    base = ap_constant_estimate(w, p, base_family, samples_per_ball)
    fine = ap_constant_estimate(w, p, fine_family, 2 * samples_per_ball)
    drift = abs(fine - base) / base
    return {
        "estimate": base,
        "refined_estimate": fine,
        "drift": drift,
        "stable": bool(drift <= rel_tol),
    }
