"""Potential operators and the square functions that characterize
smoothness of fractional order.

The smoothing-difference square functions compare a field with its local
averages across scales, sum_t w t^(-2 alpha) |f - Phi_t * f|^2 with w the
weight of the scale set; their finiteness is the working criterion for
membership in a smoothness class of order alpha.  `_smoothing_family` is
the one place that forms the scale weight w t^(-2 alpha).  The dyadic
potential difference is the same object driven by the smoothed
Riesz-difference kernel, which makes several identities exact in spectral
arithmetic rather than approximate.  `equivalence_experiment`
measures how far the norm comparisons are from equalities on a fixed
family of test fields.  The family keeps one maker per member and
builds a member when it is read; a ratio function reads the members once,
in order, and returns one ratio per member, None for a zero denominator.
The Parseval paths take one member at a time, the paths that form layers
batches of at most `_BATCH_BYTES` of members, and the work that depends on
the grid alone is done once per call.  The smoothing-difference square
functions and both ratio functions take either kind of scale set
(`grid.ScaleSet`).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .grid import (
    DyadicRange,
    Geometry,
    SampledField,
    ScaleSet,
    bump_field,
    gaussian_field,
    modulated_gaussian_field,
)
from .kernels import AveragingProfile, _require_moment_class, riesz_difference_kernel
from .multiplier import apply_multiplier, bessel_symbol, riesz_symbol
from .squarefn import (
    _BATCH_BYTES,
    ScaleFamily,
    _fft_grids,
    _power_sums,
    _require_mean_zero,
    g_function,
)
from .weights import constant_on_grid, weighted_norm


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
    order: float, profile: AveragingProfile, dim: int, scales: ScaleSet
) -> ScaleFamily:
    """Multipliers 1 - Phihat(t xi), the layers f - Phi_t * f, with scale
    weights w t^(-2 order), behind the order, dimension and moment-class
    gates and the gate that every weight is finite.  The multiplier is the
    profile's `deficit`, which keeps full relative precision at small t xi."""
    if order <= 0:
        raise ValueError(f"order must be positive, got {order}")
    if profile.dim != dim:
        raise ValueError(f"profile '{profile.name}' has dim {profile.dim}, field has dim {dim}")
    _require_moment_class(profile, order, "smoothing differences")
    deficit = profile.deficit
    multiplier = lambda t, *xi: deficit(*(t * x for x in xi))
    with np.errstate(over="ignore", divide="ignore"):
        weights = scales.weight * scales.scales ** (-2.0 * order)
    bad = np.flatnonzero(~np.isfinite(weights))
    if bad.size:
        t = float(scales.scales[bad[0]])
        raise ValueError(f"order {order:g}: the scale weight w t^(-2 order) is not finite at t = {t!r}")
    return ScaleFamily(scales.scales, weights, multiplier, profile.kernel.radial, real=profile.kernel.real)


def smoothing_difference_function(
    f: SampledField, order: float, profile: AveragingProfile, scales: ScaleSet
) -> SampledField:
    """Square function (sum_j w t_j^(-2 order) |f - Phi_{t_j} * f|^2)^(1/2)
    over either kind of scale set.

    The averaging profile must reproduce polynomials up to degree
    floor(order), otherwise the differences cannot see order `order`
    smoothness and the result is meaningless; that gate raises.
    """
    family = _smoothing_family(order, profile, f.geometry.dim, scales)
    return family.square_function([f])[0]


def dyadic_smoothing_difference(
    f: SampledField, order: float, profile: AveragingProfile, kr: DyadicRange
) -> SampledField:
    """`smoothing_difference_function` over a dyadic range."""
    return smoothing_difference_function(f, order, profile, kr)


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


# ---------------------------------------------------------------------------
# test family and equivalence experiments

class _BuiltOnDemand(Sequence):
    """Fields built on demand, one maker each.  Nothing is kept: an index
    builds its field, a slice builds a tuple of its fields, and iteration
    builds one field at a time, each again on every access."""

    def __init__(self, makers):
        self._makers = tuple(makers)

    def __len__(self) -> int:
        return len(self._makers)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(make() for make in self._makers[i])
        return self._makers[i]()

    def __iter__(self):
        # holds no field once it is handed out, unlike Sequence.__iter__
        return (make() for make in self._makers)


@dataclass(frozen=True)
class TestFamily:
    """Test fields with one label each.  `members` is a sequence of fields:
    a tuple, or the sequence of `default_test_family`, which builds a member
    whenever it is read and keeps none."""

    __test__ = False  # not a pytest class despite the name

    geometry: Geometry
    seed: int
    members: Sequence[SampledField]
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.members) != len(self.labels):
            raise ValueError("members and labels length mismatch")
        if not self.members:
            raise ValueError("family is empty")


def _test_member(geom: Geometry, amp: float, shape, *args) -> SampledField:
    """One member: amp times shape(geom, *args), mean subtracted.

    It holds one grid-sized temporary beside the shape: the product is made
    out of place, since the shape's values may be a read-only broadcast
    view, and the mean subtracted in place.
    """
    v = amp * shape(geom, *args).values
    v -= np.mean(v)
    return SampledField(geom, v)


def default_test_family(geom: Geometry, seed: int = 0) -> TestFamily:
    """Twenty mean-zero fields spanning low through high frequency content.

    Ten Gaussians (five widths, two centers), five modulated Gaussians,
    five smooth bumps.  The seed jitters centers and amplitudes so that
    distinct seeds give distinct but statistically matched families; all
    shapes stay well inside the box to keep wraparound negligible.  Every
    jitter and amplitude is drawn here, a member's jitter then its
    amplitude; the members themselves are built when they are read.
    """
    rng = np.random.default_rng(seed)
    L = geom.half_length
    unit = L / 32.0
    makers: list = []
    labels: list[str] = []

    def add(label: str, shape, *args, offset: float = 0.0) -> None:
        center = tuple(offset + d for d in rng.uniform(-L / 40.0, L / 40.0, size=geom.dim))
        amp = rng.uniform(0.5, 2.0)
        makers.append(functools.partial(_test_member, geom, amp, shape, *args, center))
        labels.append(label)

    widths = [0.35, 0.55, 0.9, 1.4, 2.2]
    for base_center in (-L / 16.0, L / 16.0):
        for w in widths:
            add(f"gauss:w{w:g}:c{base_center:g}", gaussian_field, w * unit, offset=base_center)

    mod_width = 1.2 * unit
    for m in (16, 32, 64, 128, 256):
        freq = m / (2.0 * L)
        add(f"modgauss:f{freq:g}", modulated_gaussian_field, freq, mod_width)

    for w in (2.0, 3.0, 4.0, 5.0, 6.0):
        add(f"bump:w{w:g}", bump_field, w * unit)

    return TestFamily(geom, seed, _BuiltOnDemand(makers), tuple(labels))


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

    ratio_fn takes the sequence of members, reads each once, in order, and
    returns one ratio per member, None where the denominator is zero; the
    members of `default_test_family` are built as it reads them.
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


def _streamed(fields, prepare) -> list:
    """One ratio per field of a sequence, read once, in order, batch by batch.

    prepare(geom) does the work that depends on the grid alone, once, and
    returns (fields per batch, a function giving the ratios of a batch).
    Every field must share the first one's geometry.
    """
    out, batch, geom = [], [], None
    for f in fields:
        if geom is None:
            geom = f.geometry
            size, batch_ratios = prepare(geom)
        elif f.geometry != geom:
            raise ValueError("the fields of a batch must share one geometry")
        batch.append(f)
        del f  # a batch is freed before the next field is built
        if len(batch) == size:
            out += batch_ratios(batch)
            batch = []
    if batch:
        out += batch_ratios(batch)
    return out


def _batch_size(geom: Geometry) -> int:
    """Complex fields of this grid in `_BATCH_BYTES`, at least one."""
    return max(1, _BATCH_BYTES // (16 * math.prod(geom.shape)))


def _ratios(numerators, denominators) -> list:
    """numerators[i] / denominators[i], None for a zero denominator."""
    return [None if d == 0 else num / d for num, d in zip(numerators, denominators)]


def _norm_ratios(fields, numerators, p: float, weight: Callable) -> list:
    """numerators[i] / ||fields[i]||, None for a zero denominator."""
    return _ratios(numerators, [weighted_norm(f, p, weight) for f in fields])


def _square_norms(family: ScaleFamily, fields, p: float, weight: Callable) -> list[float]:
    """Weighted L^p norms of the family's square functions of a batch."""
    return [weighted_norm(g, p, weight) for g in family.square_function(fields)]


def _parseval(family: ScaleFamily, p: float) -> bool:
    """Whether a ratio may take its p = 2 norms by Parseval on the half grid,
    which needs an even symbol: |m_t|^2 is even for a family tagged radial,
    odd or real (every registry kernel and profile is one of them)."""
    return p == 2 and (family.radial or family.odd or family.real)


def square_function_ratio(kernel, scales: ScaleSet, p: float, weight: Callable):
    """ratio_fn: weighted norm of the square function over the scale set
    against that of f.

    At p = 2 under a weight with one value c on the grid the numerator is
    sqrt(c * h^d sum_x of the square sum), which Parseval gives from the
    family's symbol on the half grid and one `rfftn` per real plane of the
    field, one field at a time (`_parseval`); every other p or weight, or a
    family without an even symbol, squares the layers in physical space, in
    batches of `_batch_size`.
    """
    family = ScaleFamily.of_kernel(kernel, scales.scales, scales.weight)

    def prepare(geom: Geometry):
        c = constant_on_grid(weight, geom) if _parseval(family, p) else None
        if c is None:
            return _batch_size(geom), lambda fs: _norm_ratios(fs, _square_norms(family, fs, p, weight), p, weight)
        sums = _power_sums(geom, [family.symbol(*_fft_grids(geom, half=True))])
        volume = (geom.spacing / geom.n_samples) ** geom.dim
        return 1, lambda fs: _norm_ratios(fs, [math.sqrt(c * (volume * sums(fs[0])[0]))], p, weight)

    return lambda fields: _streamed(fields, prepare)


def sobolev_equivalence_ratio(
    order: float, profile: AveragingProfile, scales: ScaleSet, p: float, weight: Callable
):
    """ratio_fn for the three-norm comparison: smooth g, then ask whether
    the smoothing-difference norm plus the smoothed norm returns ||g||.

    At p = 2 under a weight with one value c on the grid, Parseval gives all
    three norms from the power spectrum P = |FFT(g)|^2, one `rfftn` per real
    plane of the member, one member at a time (`_parseval`): ||g|| from
    sum P, the smoothed norm from sum b^2 P with b the Bessel symbol, the
    smoothing-difference norm from sum sigma b^2 P with sigma the family's
    symbol, each symbol on the half grid.  Every other p or weight, or a
    profile without an even symbol, smooths g in physical space, in batches
    of `_batch_size`.
    """
    def prepare(geom: Geometry):
        family = _smoothing_family(order, profile, geom.dim, scales)
        c = constant_on_grid(weight, geom) if _parseval(family, p) else None
        if c is None:
            def batch_ratios(gs):
                smoothed = [bessel_potential(g, order) for g in gs]
                diffs = _square_norms(family, smoothed, p, weight)
                norms = [d + weighted_norm(s, p, weight) for d, s in zip(diffs, smoothed)]
                return _norm_ratios(gs, norms, p, weight)

            return _batch_size(geom), batch_ratios
        grids = _fft_grids(geom, half=True)
        sigma_b2 = family.symbol(*grids)  # first: finding its shells takes the most memory
        b2 = bessel_symbol(order).evaluate(*grids) ** 2
        sigma_b2 *= b2
        sums = _power_sums(geom, [sigma_b2, b2, None])
        volume = c * (geom.spacing / geom.n_samples) ** geom.dim

        def member_ratio(gs):
            diff, smoothed, total = sums(gs[0])
            norm = math.sqrt(volume * diff) + math.sqrt(volume * smoothed)
            return _ratios([norm], [math.sqrt(volume * total)])

        return 1, member_ratio

    return lambda fields: _streamed(fields, prepare)
