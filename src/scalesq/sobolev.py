"""Potential operators and the square functions that characterize
smoothness of fractional order.

The smoothing-difference square functions compare a field with its local
averages across scales, weighting scale t by t^(-alpha); their finiteness
is the working criterion for membership in a smoothness class of order
alpha.  The dyadic potential difference is the same object driven by the
smoothed Riesz-difference kernel, which makes several identities exact in
spectral arithmetic rather than approximate.  `equivalence_experiment`
measures how far the norm comparisons are from equalities on a fixed
family of test fields; its ratio functions take the whole family in one
call and return one ratio per member, None for a zero denominator.  The
square-function ratio takes either kind of scale set (`grid.ScaleSet`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    DyadicRange,
    Geometry,
    LogTimeGrid,
    SampledField,
    ScaleSet,
    bump_field,
    gaussian_field,
    mean_subtract,
    modulated_gaussian_field,
)
from .kernels import AveragingProfile, _require_moment_class, riesz_difference_kernel
from .multiplier import apply_multiplier, bessel_symbol, riesz_symbol
from .squarefn import (
    ScaleFamily,
    _batch_geometry,
    _fft_grids,
    _power_spectrum,
    _require_mean_zero,
    g_function,
)
from .weights import Weight, constant_on_grid, constant_weight, weighted_norm


def riesz_potential(f: SampledField, order: float) -> SampledField:
    """Fractional integration of the given order (negative differentiates).

    The symbol is (2 pi |xi|)^(-order) away from xi = 0 and the zero
    frequency carries no meaning, hence the mean-zero gate.
    """
    if order == 0:
        raise ValueError("order must be nonzero")
    _require_mean_zero(f, "riesz_potential")
    return apply_multiplier(riesz_symbol(order), f)


def bessel_potential(f: SampledField, order: float) -> SampledField:
    """Inhomogeneous smoothing of the given order; any real order is legal,
    negative orders invert positive ones exactly on the grid."""
    return apply_multiplier(bessel_symbol(order), f)


def _smoothing_family(
    order: float, profile: AveragingProfile, dim: int, scales, weights
) -> ScaleFamily:
    """Multipliers 1 - Phihat(t xi), the layers f - Phi_t * f, behind the
    order, dimension and moment-class gates.  The multiplier is the
    profile's `deficit`, which keeps full relative precision at small t xi."""
    if order <= 0:
        raise ValueError(f"order must be positive, got {order}")
    if profile.dim != dim:
        raise ValueError(f"profile '{profile.name}' has dim {profile.dim}, field has dim {dim}")
    _require_moment_class(profile, order, "smoothing differences")
    deficit = profile.deficit
    multiplier = lambda t, *xi: deficit(*(t * x for x in xi))
    return ScaleFamily(scales, weights, multiplier, profile.kernel.radial)


def smoothing_difference_function(
    f: SampledField, order: float, profile: AveragingProfile, tg: LogTimeGrid
) -> SampledField:
    """Square function of f - Phi_t * f with scale weight t^(-order).

    The averaging profile must reproduce polynomials up to degree
    floor(order), otherwise the differences cannot see order `order`
    smoothness and the result is meaningless; that gate raises.
    """
    family = _smoothing_family(order, profile, f.geometry.dim, tg.scales, tg.weight * tg.scales ** (-2.0 * order))
    return family.square_function([f])[0]


def dyadic_smoothing_difference(
    f: SampledField, order: float, profile: AveragingProfile, kr: DyadicRange
) -> SampledField:
    """Dyadic-scale version: (sum_k 2^(-2 k order) |f - Phi_{2^k} * f|^2)^(1/2)."""
    family = _smoothing_family(order, profile, f.geometry.dim, kr.scales, 4.0 ** (-kr.exponents * order))
    return family.square_function([f])[0]


def potential_smoothing_function(
    f: SampledField, order: float, profile: AveragingProfile, tg: LogTimeGrid
) -> SampledField:
    """Smoothing differences of the fractional integral of f.

    Equal, up to transform round-off, to smoothing_difference_function of
    riesz_potential(f, order); each layer is built in one pass from the
    combined symbol t^(-order) (2 pi |xi|)^(-order) (1 - Phihat(t xi)).
    """
    weights = tg.weight * tg.scales ** (-2.0 * order)
    diff = _smoothing_family(order, profile, f.geometry.dim, tg.scales, weights)
    _require_mean_zero(f, "potential_smoothing_function")
    riesz = riesz_symbol(order).evaluate
    multiplier = lambda t, *xi: diff.multiplier(t, *xi) * riesz(*xi)
    family = ScaleFamily(tg.scales, weights, multiplier, profile.kernel.radial)
    return family.square_function([f])[0]


def dyadic_potential_difference(
    f: SampledField, order: float, profile: AveragingProfile, kr: DyadicRange
) -> SampledField:
    """Dyadic square function of the Riesz-difference kernel.

    Identical, frequency by frequency, to dyadic_smoothing_difference
    applied to the fractional integral of f; implemented through the
    kernel so that the identity is a theorem about the code, not a
    numerical coincidence.
    """
    _require_mean_zero(f, "dyadic_potential_difference")
    kernel = riesz_difference_kernel(order, profile)
    return g_function(f, kernel, kr)


def sobolev_norm(
    f: SampledField, order: float, p: float = 2.0, weight: Weight | None = None
) -> float:
    """Weighted norm of the field whose smoothing of the given order is f.

    Inverts the inhomogeneous smoothing on the grid; orders so large that
    the inverse symbol leaves floating-point range are rejected rather
    than silently overflowed.
    """
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    geom = f.geometry
    xi_max = math.sqrt(geom.dim) * geom.n_samples / (4.0 * geom.half_length)
    top = (order / 2.0) * math.log10(1.0 + 4.0 * math.pi**2 * xi_max**2)
    if top > 100.0:
        raise ValueError(
            f"inverse smoothing symbol reaches 1e{top:.0f} at the grid edge; "
            "order too large for this grid's dynamic range"
        )
    if weight is None:
        weight = constant_weight()
    rough = bessel_potential(f, -order)
    return weighted_norm(rough, p, weight)


# ---------------------------------------------------------------------------
# test family and equivalence experiments

@dataclass(frozen=True)
class TestFamily:
    __test__ = False  # not a pytest class despite the name

    geometry: Geometry
    seed: int
    members: tuple[SampledField, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.members) != len(self.labels):
            raise ValueError("members and labels length mismatch")
        if not self.members:
            raise ValueError("family is empty")


def default_test_family(geom: Geometry, seed: int = 0) -> TestFamily:
    """Twenty mean-zero fields spanning low through high frequency content.

    Ten Gaussians (five widths, two centers), five modulated Gaussians,
    five smooth bumps.  The seed jitters centers and amplitudes so that
    distinct seeds give distinct but statistically matched families; all
    shapes stay well inside the box to keep wraparound negligible.
    """
    rng = np.random.default_rng(seed)
    L = geom.half_length
    unit = L / 32.0
    members: list[SampledField] = []
    labels: list[str] = []

    def jitter() -> tuple[float, ...]:
        return tuple(rng.uniform(-L / 40.0, L / 40.0, size=geom.dim))

    def add(label: str, f: SampledField) -> None:
        amp = rng.uniform(0.5, 2.0)
        members.append(mean_subtract(SampledField(geom, amp * f.values)))
        labels.append(label)

    widths = [0.35, 0.55, 0.9, 1.4, 2.2]
    for base_center in (-L / 16.0, L / 16.0):
        for w in widths:
            center = tuple(base_center + d for d in jitter())
            add(f"gauss:w{w:g}:c{base_center:g}", gaussian_field(geom, w * unit, center))

    mod_width = 1.2 * unit
    for m in (16, 32, 64, 128, 256):
        freq = m / (2.0 * L)
        add(f"modgauss:f{freq:g}", modulated_gaussian_field(geom, freq, mod_width, jitter()))

    for w in (2.0, 3.0, 4.0, 5.0, 6.0):
        add(f"bump:w{w:g}", bump_field(geom, w * unit, jitter()))

    return TestFamily(geom, seed, tuple(members), tuple(labels))


@dataclass(frozen=True)
class RatioReport:
    """Outcome of an equivalence experiment: one norm ratio per member."""

    operator: str
    p: float
    weight: str
    members: int
    ratios: tuple[float, ...]
    skipped: tuple[str, ...]
    min_ratio: float
    max_ratio: float
    spread: float

    def as_dict(self) -> dict:
        return {
            "operator": self.operator,
            "p": self.p,
            "weight": self.weight,
            "members": self.members,
            "ratios": list(self.ratios),
            "skipped": list(self.skipped),
            "min": self.min_ratio,
            "max": self.max_ratio,
            "spread": self.spread,
        }


def equivalence_experiment(
    family: TestFamily, ratio_fn, operator: str, p: float, weight_label: str
) -> RatioReport:
    """Evaluate ratio_fn on the members; a None ratio skips its member.

    ratio_fn takes the list of members and returns one ratio per member,
    None where the denominator is zero.
    """
    ratios: list[float] = []
    skipped: list[str] = []
    for r, label in zip(ratio_fn(family.members), family.labels):
        if r is None:
            skipped.append(label)
        else:
            ratios.append(float(r))
    if not ratios:
        raise ValueError("every family member was skipped")
    lo, hi = min(ratios), max(ratios)
    return RatioReport(
        operator=operator,
        p=p,
        weight=weight_label,
        members=len(family.members),
        ratios=tuple(ratios),
        skipped=tuple(skipped),
        min_ratio=lo,
        max_ratio=hi,
        spread=hi / lo if lo > 0 else float("inf"),
    )


def _ratios(numerators, denominators) -> list:
    """numerators[i] / denominators[i], None for a zero denominator."""
    return [None if d == 0 else num / d for num, d in zip(numerators, denominators)]


def _norm_ratios(fields, numerators, p: float, weight: Weight) -> list:
    """numerators[i] / ||fields[i]||, None for a zero denominator."""
    return _ratios(numerators, [weighted_norm(f, p, weight) for f in fields])


def _square_norms(family: ScaleFamily, fields, p: float, weight: Weight) -> list[float]:
    """Weighted L^p norms of the family's square functions of a batch.

    At p = 2 under a weight with one value c on the grid the norm is
    sqrt(c * energy), which Parseval gives from the symbol without forming
    a layer; every other p or weight squares the layers in physical space.
    """
    c = constant_on_grid(weight, fields[0].geometry) if p == 2 else None
    if c is not None:
        return [math.sqrt(c * e) for e in family.energy(fields)]
    return [weighted_norm(g, p, weight) for g in family.square_function(fields)]


def square_function_ratio(kernel, scales: ScaleSet, p: float, weight: Weight):
    """ratio_fn: weighted norm of the square function over the scale set
    against that of f."""
    family = ScaleFamily.of_kernel(kernel, scales.scales, scales.weight)

    def ratio_fn(fields):
        return _norm_ratios(fields, _square_norms(family, fields, p, weight), p, weight)

    return ratio_fn


def sobolev_equivalence_ratio(
    order: float, profile: AveragingProfile, kr: DyadicRange, p: float, weight: Weight
):
    """ratio_fn for the three-norm comparison: smooth g, then ask whether
    the smoothing-difference norm plus the smoothed norm returns ||g||.

    At p = 2 under a weight with one value c on the grid, Parseval gives all
    three norms from the power spectrum P = |FFT(g)|^2, one forward FFT per
    member: ||g|| from sum P, the smoothed norm from sum b^2 P with b the
    Bessel symbol, the smoothing-difference norm from sum sigma b^2 P with
    sigma the family's symbol.  Every other p or weight smooths g in
    physical space.
    """
    weights = 4.0 ** (-kr.exponents * order)

    def ratio_fn(gs):
        geom = _batch_geometry(gs)
        family = _smoothing_family(order, profile, geom.dim, kr.scales, weights)
        c = constant_on_grid(weight, geom) if p == 2 else None
        if c is not None:
            grids = _fft_grids(geom)
            b2 = bessel_symbol(order).evaluate(*grids) ** 2
            sigma_b2 = family.symbol(*grids) * b2
            volume = c * (geom.spacing / geom.n_samples) ** geom.dim
            norms, denoms = [], []
            for g in gs:
                power = _power_spectrum(g)
                diff, smoothed = np.sum(sigma_b2 * power), np.sum(b2 * power)
                norms.append(math.sqrt(volume * diff) + math.sqrt(volume * smoothed))
                denoms.append(math.sqrt(volume * np.sum(power)))
            return _ratios(norms, denoms)
        smoothed = [bessel_potential(g, order) for g in gs]
        diffs = _square_norms(family, smoothed, p, weight)
        norms = [d + weighted_norm(s, p, weight) for d, s in zip(diffs, smoothed)]
        return _norm_ratios(gs, norms, p, weight)

    return ratio_fn
