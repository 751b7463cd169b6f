"""Scale-invariant Fourier multipliers built from kernels, and their algebra.

A kernel psi with enough cancellation induces the degree-zero symbol

    m(xi) = integral_0^inf |psihat(t xi)|^2 dt/t,

approximated here over a truncated log-time grid, and the dyadic analogue
m(xi) = sum_k |psihat(2^k xi)|^2 which satisfies m(2 xi) = m(xi) up to two
boundary terms.  Symbols act on sampled fields by pointwise multiplication
of the Fourier coefficients; the value at the zero frequency is pinned by
`dc_value` since the defining formulas degenerate there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grid import (
    DyadicRange,
    Geometry,
    LogTimeGrid,
    SampledField,
    SpectralField,
    forward_transform,
    inverse_transform,
)
from .kernels import Kernel
from .squarefn import ScaleFamily, _window_run


class DegenerateSymbolError(ValueError):
    """Symbol modulus fell below the inversion floor at a grid frequency."""


@dataclass(frozen=True)
class Symbol:
    """Fourier multiplier with a pinned zero-frequency value.

    homogeneity is a free-form tag: "homogeneous:D" for symbols with
    m(s xi) = s^D m(xi), "dyadic" for m(2 xi) = m(xi), "none" otherwise.
    meta carries informational notes such as truncation-tail estimates.
    """

    name: str
    evaluate: Callable
    dc_value: complex
    homogeneity: str = "none"
    meta: dict = field(default_factory=dict)

    def sample(self, geom: Geometry) -> np.ndarray:
        """Symbol values on the full frequency grid, DC entry pinned."""
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.asarray(self.evaluate(*geom.frequency_grids()), dtype=complex)
        vals = np.broadcast_to(vals, geom.shape).copy()
        vals[geom.dc_index] = self.dc_value
        return vals


# ---------------------------------------------------------------------------
# symbols induced by kernels

def _tail_meta(kernel: Kernel) -> dict:
    """{"tail": probe-based constants for the decay envelopes}, or {} for a
    kernel without decay metadata."""
    delta = kernel.fourier_tail_exponent
    eps = kernel.fourier_origin_exponent
    if delta is None and eps is None:
        return {}
    out: dict = {}
    if delta is not None:
        probes = np.geomspace(1.0, 64.0, 49)
        rest = (np.zeros_like(probes),) * (kernel.dim - 1)
        mags = np.abs(kernel.fourier(probes, *rest))
        out["delta"] = delta
        out["c_inf"] = float(np.max(mags * probes**delta))
    if eps is not None:
        probes = np.geomspace(1e-3, 1.0, 25)
        rest = (np.zeros_like(probes),) * (kernel.dim - 1)
        mags = np.abs(kernel.fourier(probes, *rest))
        out["eps"] = eps
        out["c_zero"] = float(np.max(mags / probes**eps))
    return {"tail": out}


def continuous_symbol(
    kernel: Kernel, tg: LogTimeGrid, window: tuple[float, float] | None = None
) -> Symbol:
    """m(xi) = sum over time nodes of w |psihat(t_j xi)|^2, dc pinned to 0.

    `window` restricts the sum to nodes in the open interval (lo, hi); the
    result is then the truncated symbol used on one side of the duality
    identity.  Tail-error constants derived from the kernel's decay
    metadata land in meta["tail"].
    """
    scales = tg.scales
    nodes = scales[_window_run(scales, window)]
    meta = {"t_lo": float(nodes[0]), "t_hi": float(nodes[-1]), "node_count": int(nodes.size)}
    evaluate = ScaleFamily.of_kernel(kernel, nodes, tg.weight).symbol
    return Symbol(f"m[{kernel.name}]", evaluate, 0.0, "homogeneous:0", meta | _tail_meta(kernel))


def continuous_tail_estimate(sym: Symbol, xi_mag: float) -> float | None:
    """Upper bound for the mass dropped by the time truncation at |xi|."""
    tail = sym.meta.get("tail")
    if tail is None:
        return None
    total = 0.0
    if "delta" in tail:
        d, c = tail["delta"], tail["c_inf"]
        s = sym.meta["t_hi"] * xi_mag
        if s > 0:
            total += c**2 * s ** (-2.0 * d) / (2.0 * d)
    if "eps" in tail:
        e, c = tail["eps"], tail["c_zero"]
        s = sym.meta["t_lo"] * xi_mag
        total += c**2 * s ** (2.0 * e) / (2.0 * e)
    return total


def dyadic_symbol(kernel: Kernel, kr: DyadicRange) -> Symbol:
    """m(xi) = sum over k of |psihat(2^k xi)|^2, dc pinned to 0."""
    meta = {"k_min": kr.k_min, "k_max": kr.k_max} | _tail_meta(kernel)
    return Symbol(f"md[{kernel.name}]", ScaleFamily.of_kernel(kernel, kr.scales).symbol, 0.0, "dyadic", meta)


def dyadic_defect_bound(kernel: Kernel, kr: DyadicRange, *coords) -> np.ndarray:
    """Two-boundary-term bound for |m(2 xi) - m(xi)| of the dyadic symbol.

    The sum telescopes, so the defect is exactly
    |psihat(2^(k_max+1) xi)|^2 - |psihat(2^k_min xi)|^2 in absolute value
    at most the sum of the two terms.
    """
    lo = np.abs(kernel.fourier_at_scale(2.0**kr.k_min, *coords)) ** 2
    hi = np.abs(kernel.fourier_at_scale(2.0 ** (kr.k_max + 1), *coords)) ** 2
    return lo + hi


# ---------------------------------------------------------------------------
# action on fields

def apply_multiplier(sym: Symbol, f: SampledField) -> SampledField:
    """Inverse transform of sym(xi) * fhat(xi)."""
    F = forward_transform(f)
    return inverse_transform(SpectralField(f.geometry, sym.sample(f.geometry) * F.coefficients))


def invert_multiplier(sym: Symbol, floor: float, geom: Geometry) -> Symbol:
    """Reciprocal symbol, guarded by a modulus floor on the nonzero grid.

    Raises DegenerateSymbolError naming the offending frequency when
    |sym| < floor somewhere on the grid minus the zero frequency.
    """
    if floor <= 0:
        raise ValueError(f"inversion floor must be positive, got {floor}")
    vals = sym.sample(geom)
    mag = np.abs(vals)
    mag[geom.dc_index] = np.inf
    argmin = np.unravel_index(int(np.argmin(mag)), mag.shape)
    if mag[argmin] < floor:
        freq = tuple(float(ax[i]) for ax, i in zip([geom.frequency_axis()] * geom.dim, argmin))
        raise DegenerateSymbolError(
            f"symbol '{sym.name}' has modulus {mag[argmin]:.3e} < floor {floor:.3e} "
            f"at frequency xi = {freq}"
        )
    base = sym.evaluate

    def evaluate(*coords):
        return 1.0 / np.asarray(base(*coords), dtype=complex)

    return Symbol(
        name=f"inv[{sym.name}]",
        evaluate=evaluate,
        dc_value=0.0,
        homogeneity=sym.homogeneity,
        meta={"floor": floor},
    )


# ---------------------------------------------------------------------------
# potential-type symbols

def _radius(coords) -> np.ndarray:
    return np.sqrt(sum(np.asarray(c, dtype=float) ** 2 for c in coords))


def riesz_symbol(alpha: float) -> Symbol:
    """(2 pi |xi|)^(-alpha); negative alpha gives the inverse smoothing.

    The zero frequency is pinned to 0, so the operator is only faithful on
    mean-zero fields.
    """
    if alpha == 0:
        raise ValueError("alpha must be nonzero")

    def evaluate(*coords):
        rho = _radius(coords)
        out = np.zeros(rho.shape)
        nz = rho > 0
        out[nz] = (2.0 * np.pi * rho[nz]) ** (-alpha)
        return out

    return Symbol(
        name=f"riesz:{alpha:g}",
        evaluate=evaluate,
        dc_value=0.0,
        homogeneity=f"homogeneous:{-alpha:g}",
    )


def bessel_symbol(beta: float) -> Symbol:
    """(1 + 4 pi^2 |xi|^2)^(-beta/2), defined for every real beta; dc = 1."""

    def evaluate(*coords):
        rho2 = sum(np.asarray(c, dtype=float) ** 2 for c in coords)
        return (1.0 + 4.0 * np.pi**2 * rho2) ** (-beta / 2.0)

    return Symbol(name=f"bessel:{beta:g}", evaluate=evaluate, dc_value=1.0)


def riesz_bessel_ratio_symbol(alpha: float) -> Symbol:
    """(2 pi |xi|)^alpha / (1 + 4 pi^2 |xi|^2)^(alpha/2); bounded by 1.

    Multiplying the inhomogeneous symbol (1 + 4 pi^2 |xi|^2)^(alpha/2) by
    this ratio recovers the homogeneous symbol (2 pi |xi|)^alpha exactly.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")

    def evaluate(*coords):
        rho2 = 4.0 * np.pi**2 * sum(np.asarray(c, dtype=float) ** 2 for c in coords)
        return (rho2 / (1.0 + rho2)) ** (alpha / 2.0)

    return Symbol(
        name=f"riesz-bessel-ratio:{alpha:g}", evaluate=evaluate, dc_value=0.0
    )


def bessel_split_symbol(alpha: float) -> Symbol:
    """(1 + 4 pi^2 |xi|^2)^(alpha/2) / (1 + (2 pi |xi|)^alpha); dc = 1.

    Splits the inhomogeneous symbol as m(xi) + m(xi) (2 pi |xi|)^alpha with
    m bounded, the form used to trade the Bessel scale for the Riesz scale.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")

    def evaluate(*coords):
        rho = 2.0 * np.pi * _radius(coords)
        return (1.0 + rho**2) ** (alpha / 2.0) / (1.0 + rho**alpha)

    return Symbol(name=f"bessel-split:{alpha:g}", evaluate=evaluate, dc_value=1.0)


# ---------------------------------------------------------------------------
# structural checks

def sampled_homogeneity_defect(vals: np.ndarray, geom: Geometry) -> float:
    """max |m(2 xi) - m(xi)| over nonzero grid frequencies with 2 xi on-grid,
    m the values a symbol's `sample(geom)` returned."""
    n = geom.n_samples
    sel = np.arange(n // 4, 3 * n // 4)  # j in [-N/4, N/4)
    dbl = 2 * sel - n // 2
    gap = np.abs(vals[np.ix_(*[dbl] * geom.dim)] - vals[np.ix_(*[sel] * geom.dim)])
    gap[(n // 2 - n // 4,) * geom.dim] = 0.0  # leave out j = 0: every gap is >= 0, so 0 drops it from the max
    return float(np.max(gap))


def sampled_min_modulus(
    vals: np.ndarray, geom: Geometry, annulus: tuple[float, float] | None = None
) -> float:
    """Min |m| over nonzero grid frequencies, optionally within an annulus,
    m the values a symbol's `sample(geom)` returned."""
    mag = np.abs(vals)
    mag[geom.dc_index] = np.inf
    if annulus is not None:
        rho = _radius(np.broadcast_arrays(*geom.frequency_grids()))
        lo, hi = annulus
        mask = (rho >= lo) & (rho <= hi)
        if not np.any(mask):
            raise ValueError(f"no grid frequencies in annulus [{lo}, {hi}]")
        mag = np.where(mask, mag, np.inf)
    return float(np.min(mag))
