"""Checkers for the integrability, decay, and nondegeneracy hypotheses
placed on square-function kernels, plus the scale-shift energy scan.

Divergent quantities come back as math.inf, never as exceptions: blowing
up is a finding about the kernel, not a failure of the computation.
Everything here consumes the kernels' declared metadata (tail exponents,
edge singularities) to decide convergence before integrating, so the
numeric answers carry analytic justification.  Every spatial integral
is a sum of panels of one Gauss-Jacobi rule (`_panel`), whose endpoint
weights absorb the origin grading and edge singularities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import Kernel, _jacobi_rule, marcinkiewicz_kernel

_ANGLES = 64


def _panel(g, a: float, b: float, n: int, end: float = 0.0, start: float = 0.0) -> float:
    """integral_a^b (b-u)^end (u-a)^start g(u) du by the n-node Gauss-Jacobi rule."""
    s, w = _jacobi_rule(n, end, start)
    return float(np.sum((b - a) ** (end + start + 1.0) * w * g(a + (b - a) * s)))


def _require_spatial(kernel: Kernel, what: str) -> None:
    if kernel.spatial is None:
        raise ValueError(f"{what}: kernel '{kernel.name}' has no spatial evaluator")


def _sphere_abs(kernel: Kernel, r: np.ndarray) -> np.ndarray:
    """|psi(r omega)| at the sample points omega of the unit sphere, on a last axis.

    A radial kernel needs one point in any dimension, and so does an odd
    1-D kernel: their tags mean |spatial(-r)| == |spatial(r)| bit for bit,
    so the point r gives the same maximum and mean as the pair.  Otherwise
    a 1-D 'sphere' is the two points {-r, r} and a 2-D one a midpoint grid
    of angles.
    """
    r = np.asarray(r, dtype=float)
    if kernel.radial or (kernel.odd and kernel.dim == 1):
        axis = (np.zeros_like(r),) * (kernel.dim - 1)
        return np.abs(kernel.spatial(r, *axis))[..., None]
    if kernel.dim == 1:
        return np.stack([np.abs(kernel.spatial(r)), np.abs(kernel.spatial(-r))], axis=-1)
    theta = (np.arange(_ANGLES) + 0.5) * (2.0 * np.pi / _ANGLES)
    return np.abs(kernel.spatial(np.outer(r, np.cos(theta)), np.outer(r, np.sin(theta))))


def _angular_power_sum(kernel: Kernel, r: np.ndarray, power: float) -> np.ndarray:
    """integral over the sphere of |psi(r omega)|^power, as a function of r."""
    measure = 2.0 if kernel.dim == 1 else 2.0 * np.pi
    return measure * np.mean(_sphere_abs(kernel, r) ** power, axis=-1)


def _radial_abs_max(kernel: Kernel, r: np.ndarray) -> np.ndarray:
    """sup over the sphere of |psi(r omega)|."""
    return _sphere_abs(kernel, r).max(axis=-1)


def _octave_panels(lo: float, hi: float) -> list[tuple[float, float]]:
    edges = [lo]
    while edges[-1] * 2.0 < hi:
        edges.append(edges[-1] * 2.0)
    edges.append(hi)
    return list(zip(edges[:-1], edges[1:]))


def tail_moment_integral(kernel: Kernel, eps: float) -> float:
    """integral over |x| > 1 of |psi(x)| |x|^eps.

    Zero for kernels supported in the unit ball.  For unbounded supports
    the declared spatial tail exponent decides convergence; divergent
    cases return inf.  Convergent tails are integrated out to a cutoff
    with a fitted power-law remainder.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    _require_spatial(kernel, "tail_moment_integral")
    n = kernel.dim
    R = kernel.support_radius
    if R <= 1.0:
        return 0.0
    if math.isinf(R):
        q = kernel.spatial_tail_exponent
        if q is None:
            raise ValueError(
                f"kernel '{kernel.name}' has unbounded support and no tail exponent metadata"
            )
        if eps >= q - n:
            return math.inf
        cutoff = 4096.0
    else:
        q = None
        cutoff = R
    moment = lambda r: r ** (eps + n - 1) * _angular_power_sum(kernel, r, 1.0)
    total = sum(_panel(moment, a, b, 48) for a, b in _octave_panels(1.0, cutoff))
    if q is not None:
        # remainder under the fitted power law A(r) ~ A(cutoff) (cutoff/r)^q
        a_cut = float(_angular_power_sum(kernel, np.asarray([cutoff]), 1.0)[0])
        total += a_cut * cutoff ** (eps + n) / (q - n - eps)
    return total


def _origin_exponent_probe(kernel: Kernel) -> float | None:
    """Fitted s with |psi| ~ r^-s near the origin, or None when bounded."""
    radii = np.geomspace(1e-4, 1e-2, 9)
    mags = _radial_abs_max(kernel, radii)
    if np.any(mags <= 0):
        return None
    slope = np.polyfit(np.log(radii), np.log(mags), 1)[0]
    return -float(slope) if slope < -0.05 else None


def local_power_integral(kernel: Kernel, u: float) -> float:
    """integral over |x| < 1 of |psi(x)|^u for u > 1; inf when divergent.

    Divergence is decided from the edge-singularity metadata (exponent e:
    the integral blows up when u e <= -1) and from a probed origin
    exponent.  Edge singularities are absorbed into Gauss-Jacobi weights,
    so graded profiles integrate exactly.
    """
    if u <= 1:
        raise ValueError(f"exponent must exceed 1, got {u}")
    _require_spatial(kernel, "local_power_integral")
    n = kernel.dim
    s_origin = _origin_exponent_probe(kernel)
    if s_origin is not None and u * s_origin >= n - 1e-9:
        return math.inf
    edge = kernel.edge_singularity
    if edge is not None and edge[1] < 0 and u * edge[1] <= -1.0 + 1e-12:
        return math.inf
    top = min(1.0, kernel.support_radius)
    power = lambda r: r ** (n - 1) * _angular_power_sum(kernel, r, u)
    lo = 0.0
    total = 0.0
    if s_origin is not None:
        # origin grading: pull out r^(-u s) against the surface factor
        lo = top / 2.0
        graded = lambda r: _angular_power_sum(kernel, r, u) * r ** (u * s_origin)
        total += _panel(graded, 0.0, lo, 96, start=n - 1.0 - u * s_origin)
    if edge is not None and lo < edge[0] <= top:
        b, e = edge[0], u * edge[1]
        total += _panel(lambda r: power(r) / (b - r) ** e, lo, b, 96, end=e)
        lo = b
    if lo < top:
        total += _panel(power, lo, top, 96)
    return total


def radial_majorant_l1(kernel: Kernel, n_samples: int = 200_000) -> float:
    """L1 norm of the radial envelope sup over |y| >= |x| of |psi(y)|.

    Midpoint sampling of the radial maximum followed by a running suffix
    maximum; kernels with an interior blow-up have an infinite envelope on
    a set of positive measure and report inf directly.
    """
    _require_spatial(kernel, "radial_majorant_l1")
    n = kernel.dim
    edge = kernel.edge_singularity
    if edge is not None and edge[1] < 0:
        return math.inf
    s_origin = _origin_exponent_probe(kernel)
    if s_origin is not None and s_origin >= n - 1e-9:
        return math.inf
    R = kernel.support_radius
    if math.isinf(R):
        q = kernel.spatial_tail_exponent
        if q is None:
            raise ValueError(
                f"kernel '{kernel.name}' has unbounded support and no tail exponent metadata"
            )
        if q <= n:
            return math.inf
        reach = 1024.0
    else:
        q = None
        reach = R
    dr = reach / n_samples
    r = (np.arange(n_samples) + 0.5) * dr
    env = np.maximum.accumulate(_radial_abs_max(kernel, r)[::-1])[::-1]
    surface = 2.0 if n == 1 else 2.0 * np.pi * r
    total = float(np.sum(env * surface) * dr)
    if q is not None:
        c = float(_radial_abs_max(kernel, np.asarray([reach]))[0]) * reach**q
        if n == 1:
            total += 2.0 * c * reach ** (1.0 - q) / (q - 1.0)
        else:
            total += 2.0 * np.pi * c * reach ** (2.0 - q) / (q - 2.0)
    return total


# ---------------------------------------------------------------------------
# Fourier-side checks

@dataclass(frozen=True)
class DecayReport:
    exponent: float
    c_est: float
    c_doubled: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "exponent": self.exponent,
            "c_est": self.c_est,
            "c_doubled": self.c_doubled,
            "pass": self.passed,
        }


def _directions(dim: int, count: int = 8) -> list[tuple[float, ...]]:
    if dim == 1:
        return [(1.0,), (-1.0,)]
    theta = (np.arange(count) + 0.5) * (2.0 * np.pi / count)
    return [(math.cos(t), math.sin(t)) for t in theta]


def _max_scaled_modulus(kernel: Kernel, delta: float, xi_max: float, per_octave: int) -> float:
    """max over 1 <= |xi| <= xi_max of |psihat(xi)| |xi|^delta, with a local
    linear refinement around the coarse argmax so oscillation peaks are hit.

    Every direction's coarse scan goes to the kernel in one call, and so do
    their refinements; a kernel's values do not depend on the other points
    of a call, so each direction sees what it would alone."""
    count = max(2, int(round(per_octave * math.log2(xi_max))) + 1)
    radii = np.geomspace(1.0, xi_max, count)
    direcs = np.array(_directions(kernel.dim))

    def scaled(r: np.ndarray) -> np.ndarray:  # r on (radius, direction)
        return np.abs(kernel.fourier(*(r * d for d in direcs.T))) * r**delta

    i = np.argmax(scaled(np.repeat(radii[:, None], len(direcs), axis=1)), axis=0)
    fine = np.linspace(radii[np.maximum(i - 1, 0)], radii[np.minimum(i + 1, count - 1)], 400)
    return float(np.max(scaled(fine)))


def fourier_decay_check(
    kernel: Kernel, delta: float, xi_max: float = 256.0, per_octave: int = 256
) -> DecayReport:
    """Estimate C in |psihat(xi)| <= C |xi|^-delta over |xi| in [1, xi_max].

    Passes when the estimate is stable within 10 percent under doubling of
    the frequency ceiling; a symbol without the claimed decay keeps
    growing and fails.
    """
    if delta <= 0:
        raise ValueError(f"decay exponent must be positive, got {delta}")
    c1 = _max_scaled_modulus(kernel, delta, xi_max, per_octave)
    c2 = _max_scaled_modulus(kernel, delta, 2.0 * xi_max, per_octave)
    passed = abs(c2 - c1) <= 0.1 * max(c1, 1e-300)
    return DecayReport(exponent=delta, c_est=c1, c_doubled=c2, passed=passed)


@dataclass(frozen=True)
class NondegeneracyReport:
    mode: str
    min_value: float
    passed: bool
    worst_direction: tuple[float, ...]

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "min_value": self.min_value,
            "pass": self.passed,
            "worst_direction": list(self.worst_direction),
        }


def nondegeneracy_check(kernel: Kernel, mode: str = "continuous") -> NondegeneracyReport:
    """Scan for directions (or annulus frequencies) the scale family misses.

    continuous: for each direction, sup of |psihat(t e)| over a dense log
    grid of t; dyadic: for each frequency in the annulus 1 <= |xi| <= 2,
    sup over integer dyadic dilates.  Passes when the worst sup exceeds
    1e-8.
    """
    if mode == "continuous":
        candidates = _directions(kernel.dim, count=32)
        samples = np.geomspace(1e-3, 1e3, 64 * 20)
    elif mode == "dyadic":
        if kernel.dim == 1:
            base = np.linspace(1.0, 2.0, 129)
            candidates = [(x,) for x in base] + [(-x,) for x in base]
        else:
            rads = np.linspace(1.0, 2.0, 17)
            angles = (np.arange(32) + 0.5) * (2.0 * np.pi / 32)
            candidates = [
                (r * math.cos(t), r * math.sin(t)) for r in rads for t in angles
            ]
        samples = 2.0 ** np.arange(-12, 13).astype(float)
    else:
        raise ValueError(f"mode must be 'continuous' or 'dyadic', got '{mode}'")
    # the whole scan in one call, (candidate, sample) per coordinate; a kernel's
    # values do not depend on the other points of a call, and argmin keeps the
    # first of tied minima, as a strict < over the candidates in order would
    coords = [np.outer(c, samples) for c in np.array(candidates).T]
    sups = np.max(np.abs(kernel.fourier(*coords)), axis=1)
    worst = int(np.argmin(sups))
    min_value, direction = float(sups[worst]), candidates[worst]
    return NondegeneracyReport(
        mode=mode,
        min_value=min_value,
        passed=min_value > 1e-8,
        worst_direction=tuple(float(c) for c in direction),
    )


# ---------------------------------------------------------------------------
# the scale-shift energy and its scan

def hormander_energy(kernel: Kernel, x: float, y: float, nodes: int = 64) -> float:
    """integral over t of |psi_t(x - y) - psi_t(x)|^2 dt/t for a 1-D kernel.

    Computed after substituting u = |x|/t, which turns the integral into
    x^-2 integral_0^inf u |psi(s u (1 - y/x)) - psi(s u)|^2 du with
    s = sgn(x).  Quadrature panels are split at every point where either
    argument crosses the kernel's support edge, and edge singularities are
    absorbed into Jacobi weights term by term (the squared singular term,
    the cross term, and the smooth term carry different exponents).

    Requires |y| < |x| / 2.  Infinite when the edge blow-up is too strong
    to be square integrable (exponent <= -1/2).  `nodes` is the
    quadrature order of every panel.
    """
    if kernel.dim != 1:
        raise ValueError("hormander_energy is one-dimensional")
    _require_spatial(kernel, "hormander_energy")
    if not abs(y) < abs(x) / 2.0:
        raise ValueError(f"need |y| < |x|/2, got x = {x}, y = {y}")
    if y == 0.0:
        return 0.0
    s = 1.0 if x > 0 else -1.0
    rho = y / x
    stretch = 1.0 - rho  # argument ratio; in (1/2, 3/2)

    def f_plain(u: np.ndarray) -> np.ndarray:
        return np.real(kernel.spatial(s * u))

    def f_shift(u: np.ndarray) -> np.ndarray:
        return np.real(kernel.spatial(s * stretch * u))

    def energy(u: np.ndarray) -> np.ndarray:
        return u * (f_shift(u) - f_plain(u)) ** 2

    R = kernel.support_radius
    if math.isinf(R):
        cut = 64.0 / min(1.0, stretch)
        # the leading panel [0, 1e-6] is plain: the difference vanishes quadratically there
        panels = _octave_panels(1e-6, cut) + [(0.0, 1e-6)]
        return sum(_panel(energy, a, b, nodes) for a, b in panels) / x**2

    edge = kernel.edge_singularity
    e = edge[1] if edge is not None else 0.0
    if e <= -0.5:
        return math.inf
    crossings = {R, R / stretch}
    if edge is not None:
        crossings |= {edge[0], edge[0] / stretch}
    top = max(R, R / stretch)
    edges = sorted({0.0} | {c for c in crossings if 0.0 < c <= top * (1.0 + 1e-12)})
    if edges[-1] < top:
        edges.append(top)

    sing_plain = edge[0] if edge is not None else None  # u where psi(s u) is singular
    sing_shift = edge[0] / stretch if edge is not None else None

    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        kind = None
        if sing_plain is not None and math.isclose(b, sing_plain, rel_tol=1e-12):
            kind = "plain"
        elif sing_shift is not None and math.isclose(b, sing_shift, rel_tol=1e-12):
            kind = "shift"
        if kind is None or e == 0.0:
            total += _panel(energy, a, b, nodes)
            continue
        sing, smooth = (f_plain, f_shift) if kind == "plain" else (f_shift, f_plain)
        # |sing - smooth|^2 split into three terms with matched grading
        total += _panel(lambda u: u * (sing(u) / (b - u) ** e) ** 2, a, b, nodes, end=2.0 * e)
        total += _panel(lambda u: -2.0 * u * smooth(u) * sing(u) / (b - u) ** e, a, b, nodes, end=e)
        total += _panel(lambda u: u * smooth(u) ** 2, a, b, nodes)
    return total / x**2


@dataclass(frozen=True)
class ScanReport:
    alpha: float
    max_ratio: float
    argmax: tuple[float, float]
    refinement_delta: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "max_ratio": self.max_ratio,
            "argmax": list(self.argmax),
            "refinement_delta": self.refinement_delta,
            "pass": self.passed,
        }


def _scan_max(
    kernel: Kernel, alpha: float, j_step: float, m_step: float, nodes: int
) -> tuple[float, tuple[float, float]]:
    exps = np.arange(-2.0, 2.0 + 1e-9, j_step)
    ms = np.arange(2.0, 12.0 + 1e-9, m_step)
    # hormander_energy(x, y) is total(sgn x, 1 - y/x) / x^2; each class total is
    # the energy at x = sgn x, whose y = sgn x (1 - stretch) reproduces the stretch
    # exactly (Sterbenz: stretch lies in [3/4, 5/4])
    totals: dict[tuple[float, float], float] = {}
    best = (-math.inf, (0.0, 0.0))
    for sx in (1.0, -1.0):
        for ex in exps:
            xx = sx * 2.0**ex
            for sy in (1.0, -1.0):
                for m in ms:
                    yy = sy * 2.0**-m * abs(xx)
                    key = (sx, 1.0 - yy / xx)
                    if key not in totals:
                        totals[key] = hormander_energy(kernel, sx, sx * (1.0 - key[1]), nodes)
                    L = totals[key] / xx**2
                    ratio = L * abs(xx) ** (1.0 + 2.0 * alpha) / abs(yy) ** (2.0 * alpha - 1.0)
                    if ratio > best[0]:
                        best = (float(ratio), (float(xx), float(yy)))
    return best


def marcinkiewicz_estimate_scan(alpha: float, refine: bool = True) -> ScanReport:
    """Scan R(x, y) = energy * |x|^(1+2 alpha) / |y|^(2 alpha - 1) over a
    geometric (x, y) grid covering all four sign quadrants.

    The grid is x = +/- 2^(j/4) for j in [-8, 8] and y = +/- 2^-m x for
    m in [2, 12], respecting the exact scale law of the energy.  The
    refinement pass doubles both grid densities and the quadrature order;
    the scan passes when the maximum is finite and moves by at most 5
    percent.

    The energy is computed once per class (sgn x, 1 - y/x), the only
    arguments its integral depends on, and divided by x^2 for each |x|:
    every ratio equals the per-point call bit for bit, so the maximum and
    the argmax among tied ratios are those of the point-by-point scan.
    That is 44 energy integrals on the coarse grid and 86 on the refined
    one, where one per point would take 748 and 2772.
    """
    if not 0.5 < alpha < 1.5:
        raise ValueError(f"alpha must lie in (0.5, 1.5), got {alpha}")
    kernel = marcinkiewicz_kernel(alpha)
    coarse, arg = _scan_max(kernel, alpha, 0.25, 1.0, 64)
    if not refine:
        return ScanReport(alpha, coarse, arg, math.nan, math.isfinite(coarse))
    fine, arg_fine = _scan_max(kernel, alpha, 0.125, 0.5, 128)
    delta = (fine - coarse) / coarse if coarse != 0 else math.inf
    passed = bool(math.isfinite(fine) and abs(delta) <= 0.05)
    return ScanReport(alpha, fine, arg_fine, float(delta), passed)


# ---------------------------------------------------------------------------
# aggregate report for the CLI

def _flag(value: float) -> dict:
    if math.isinf(value):
        return {"value": None, "divergent": True}
    return {"value": value, "divergent": False}


def condition_summary(kernel: Kernel) -> dict:
    """Every checker this module offers, run with standard parameters."""
    out: dict = {"kernel": kernel.name, "dim": kernel.dim}
    zero = (np.zeros(1),) * kernel.dim
    out["cancellation_modulus"] = float(np.abs(kernel.fourier(*zero))[0])
    if kernel.spatial is not None:
        out["tail_moment"] = {"eps": 0.5, **_flag(tail_moment_integral(kernel, 0.5))}
        out["local_power"] = {
            f"u={u:g}": _flag(local_power_integral(kernel, u)) for u in (2.0, 4.0)
        }
        out["majorant_l1"] = _flag(radial_majorant_l1(kernel))
    else:
        out["spatial_checks"] = "skipped: no spatial evaluator"
    delta = kernel.fourier_tail_exponent if kernel.fourier_tail_exponent else 0.5
    out["fourier_decay"] = fourier_decay_check(kernel, delta).as_dict()
    out["nondegeneracy"] = {
        mode: nondegeneracy_check(kernel, mode).as_dict()
        for mode in ("continuous", "dyadic")
    }
    return out
