"""Scale-invariant Fourier multipliers built from kernels, and their algebra.

A kernel psi with enough cancellation induces the degree-zero symbol

    m(xi) = integral_0^inf |psihat(t xi)|^2 dt/t,

approximated here over a truncated log-time grid, and the dyadic analogue
m(xi) = sum_k |psihat(2^k xi)|^2 which satisfies m(2 xi) = m(xi) up to two
boundary terms.  Symbols act on sampled fields by pointwise multiplication
of the Fourier coefficients; the value at the zero frequency is pinned by
`dc_value` since the defining formulas degenerate there.

A symbol is sampled in FFT order (`Symbol.sample`, `grid.Geometry.fft_grids`)
and acts on a field's planes through the scale-layer engine's one plane path
(`apply_multiplier`, `squarefn._spectra`).  A symbol of |xi|
alone, kernel-induced of a radial family or potential-type, is sampled once
per |xi| shell of the grid and gathered (`squarefn._shells`).  A symbol
declared even, real with m(-xi) = m(xi), acts on the half spectrum: each
real plane of a field goes through `rfftn`, is multiplied in place by the
symbol sampled on the half grid alone, and comes back through `irfftn`, so
a real field stays real and no full complex grid is formed.  The kernel
symbols are even when their family's symbol is (`squarefn.ScaleFamily.even_symbol`,
the rule the p = 2 Parseval ratios use), and the potential-type symbols,
functions of |xi| alone, always are.
Every other symbol, such as a one-scale odd multiplier, takes a field as
one complex plane through `fftn` and `ifftn`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grid import DyadicRange, Geometry, LogTimeGrid, SampledField
from .kernels import Kernel
from .squarefn import ScaleFamily, _multiplied, _shells, _spectra, _window_run


class DegenerateSymbolError(ValueError):
    """Symbol modulus fell below the inversion floor at a grid frequency."""


@dataclass(frozen=True)
class Symbol:
    """Fourier multiplier with a pinned zero-frequency value.

    homogeneity is a free-form tag: "homogeneous:D" for symbols with
    m(s xi) = s^D m(xi), "dyadic" for m(2 xi) = m(xi), "none" otherwise.
    meta carries informational notes such as truncation-tail estimates.
    `even` declares m real and even, m(-xi) = m(xi), with a real dc_value;
    `apply_multiplier` then takes the half spectrum.  `sampler`, when given,
    is (geom, half) -> the values of evaluate on `geom.fft_grids(half)`, which
    `sample` takes instead of evaluating the grid point by point.
    """

    name: str
    evaluate: Callable
    dc_value: complex
    homogeneity: str = "none"
    meta: dict = field(default_factory=dict)
    even: bool = False
    sampler: Callable | None = None

    def sample(self, geom: Geometry, half: bool = False) -> np.ndarray:
        """Symbol values on the grid of `geom.fft_grids(half)`, in FFT order,
        the zero frequency, their first entry, pinned: complex values on the
        full grid; with `half`, real parts on the half grid of `rfftn`, the
        values of an even symbol.  A symbol of |xi| alone is evaluated once
        per shell of the grid (its `sampler`): the bits of the grid's own
        values in 1-D and where 2L is a power of two, round-off elsewhere."""
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = self.evaluate(*geom.fft_grids(half)) if self.sampler is None else self.sampler(geom, half)
        vals = np.array(np.broadcast_to(np.real(vals) if half else vals, geom.spectrum_shape(half)),
                        dtype=float if half else complex)
        vals[(0,) * geom.dim] = np.real(self.dc_value) if half else self.dc_value
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
    mags = lambda probes: np.abs(kernel.fourier(probes, *(np.zeros_like(probes),) * (kernel.dim - 1)))
    if delta is not None:
        probes = np.geomspace(1.0, 64.0, 49)
        out |= {"delta": delta, "c_inf": float(np.max(mags(probes) * probes**delta))}
    if eps is not None:
        probes = np.geomspace(1e-3, 1.0, 25)
        out |= {"eps": eps, "c_zero": float(np.max(mags(probes) / probes**eps))}
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
    family = ScaleFamily.of_kernel(kernel, nodes, tg.weight)
    return Symbol(f"m[{kernel.name}]", family.symbol, 0.0, "homogeneous:0", meta | _tail_meta(kernel),
                  family.even_symbol, lambda geom, half: family.on_grid(geom, half=half)[0])


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
    family = ScaleFamily.of_kernel(kernel, kr.scales)
    return Symbol(f"md[{kernel.name}]", family.symbol, 0.0, "dyadic", meta, family.even_symbol,
                  lambda geom, half: family.on_grid(geom, half=half)[0])


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
    """IFFT(sym(xi) FFT(f)) by the engine's one plane path (`squarefn._spectra`,
    `squarefn._multiplied`): an even symbol on the half spectrum of each real
    plane of f, so a real field gives a real field, any other on f as one
    complex plane."""
    half = sym.even
    return _multiplied(_spectra([f], half)[1], sym.sample(f.geometry, half), f.geometry, half)


def invert_multiplier(sym: Symbol, floor: float, geom: Geometry) -> Symbol:
    """Reciprocal symbol, guarded by a modulus floor on the nonzero grid.

    Raises DegenerateSymbolError naming the offending frequency when
    |sym| < floor somewhere on the grid minus the zero frequency.
    """
    if floor <= 0:
        raise ValueError(f"inversion floor must be positive, got {floor}")
    mag = np.abs(sym.sample(geom))
    mag[(0,) * geom.dim] = np.inf
    argmin = np.unravel_index(int(np.argmin(mag)), mag.shape)
    if mag[argmin] < floor:
        freq = tuple(float(np.ravel(xi)[i]) for xi, i in zip(geom.fft_grids(), argmin))
        raise DegenerateSymbolError(
            f"symbol '{sym.name}' has modulus {mag[argmin]:.3e} < floor {floor:.3e} "
            f"at frequency xi = {freq}"
        )
    base, sampler = sym.evaluate, sym.sampler
    if sampler is not None:
        sampler = lambda geom, half, _base=sampler: 1.0 / np.asarray(_base(geom, half), dtype=complex)
    evaluate = lambda *coords: 1.0 / np.asarray(base(*coords), dtype=complex)
    return Symbol(f"inv[{sym.name}]", evaluate, 0.0, sym.homogeneity, {"floor": floor}, sym.even, sampler)


# ---------------------------------------------------------------------------
# potential-type symbols

def _radial_symbol(name: str, of_square: Callable, dc_value: float, homogeneity: str = "none") -> Symbol:
    """The even symbol of_square(|xi|^2), sampled once per shell of a grid
    (`squarefn._shells`), where |xi|^2 has the bits of fl(sum xi_i^2) in 1-D
    and where 2L is a power of two."""

    def sampler(geom: Geometry, half: bool) -> np.ndarray:
        s, index = _shells(geom, half, squares=True)
        return np.take(of_square(s), index)

    evaluate = lambda *coords: of_square(sum(np.asarray(c, dtype=float) ** 2 for c in coords))
    return Symbol(name, evaluate, dc_value, homogeneity, even=True, sampler=sampler)


def riesz_symbol(alpha: float) -> Symbol:
    """(2 pi |xi|)^(-alpha); negative alpha gives the inverse smoothing.

    The zero frequency is pinned to 0, so the operator is only faithful on
    mean-zero fields.
    """
    if alpha == 0:
        raise ValueError("alpha must be nonzero")

    def of_square(s):
        rho = np.sqrt(s)
        out = np.zeros(rho.shape)
        nz = rho > 0
        out[nz] = (2.0 * np.pi * rho[nz]) ** (-alpha)
        return out

    return _radial_symbol(f"riesz:{alpha:g}", of_square, 0.0, f"homogeneous:{-alpha:g}")


def bessel_symbol(beta: float) -> Symbol:
    """(1 + 4 pi^2 |xi|^2)^(-beta/2), defined for every real beta; dc = 1."""
    return _radial_symbol(f"bessel:{beta:g}", lambda s: (1.0 + 4.0 * np.pi**2 * s) ** (-beta / 2.0), 1.0)


def riesz_bessel_ratio_symbol(alpha: float) -> Symbol:
    """(2 pi |xi|)^alpha / (1 + 4 pi^2 |xi|^2)^(alpha/2); bounded by 1.

    Multiplying the inhomogeneous symbol (1 + 4 pi^2 |xi|^2)^(alpha/2) by
    this ratio recovers the homogeneous symbol (2 pi |xi|)^alpha exactly.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")

    def of_square(s):
        rho2 = 4.0 * np.pi**2 * s
        return (rho2 / (1.0 + rho2)) ** (alpha / 2.0)

    return _radial_symbol(f"riesz-bessel-ratio:{alpha:g}", of_square, 0.0)


def bessel_split_symbol(alpha: float) -> Symbol:
    """(1 + 4 pi^2 |xi|^2)^(alpha/2) / (1 + (2 pi |xi|)^alpha); dc = 1.

    Splits the inhomogeneous symbol as m(xi) + m(xi) (2 pi |xi|)^alpha with
    m bounded, the form used to trade the Bessel scale for the Riesz scale.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")

    def of_square(s):
        rho = 2.0 * np.pi * np.sqrt(s)
        return (1.0 + rho**2) ** (alpha / 2.0) / (1.0 + rho**alpha)

    return _radial_symbol(f"bessel-split:{alpha:g}", of_square, 1.0)


# ---------------------------------------------------------------------------
# structural checks

def sampled_homogeneity_defect(vals: np.ndarray, geom: Geometry) -> float:
    """max |m(2 xi) - m(xi)| over nonzero grid frequencies with 2 xi on-grid,
    m the values a symbol's `sample(geom)` returned."""
    n = geom.n_samples
    j = np.arange(-n // 4, n // 4)  # frequency j at FFT index j mod N
    gap = np.abs(vals[np.ix_(*[2 * j % n] * geom.dim)] - vals[np.ix_(*[j % n] * geom.dim)])
    gap[(n // 4,) * geom.dim] = 0.0  # leave out j = 0: every gap is >= 0, so 0 drops it from the max
    return float(np.max(gap))


def sampled_min_modulus(
    vals: np.ndarray, geom: Geometry, annulus: tuple[float, float] | None = None
) -> float:
    """Min |m| over nonzero grid frequencies, optionally within an annulus,
    m the values a symbol's `sample(geom)` returned."""
    mag = np.abs(vals)
    mag[(0,) * geom.dim] = np.inf
    if annulus is not None:
        rho = np.sqrt(sum(x**2 for x in geom.fft_grids()))
        lo, hi = annulus
        mask = (rho >= lo) & (rho <= hi)
        if not np.any(mask):
            raise ValueError(f"no grid frequencies in annulus [{lo}, {hi}]")
        mag = np.where(mask, mag, np.inf)
    return float(np.min(mag))
