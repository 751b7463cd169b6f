import math

import numpy as np
import pytest

from scalesq import (
    DyadicRange,
    Geometry,
    LogTimeGrid,
    MomentClassError,
    RatioReport,
    SampledField,
    TestFamily,
    ball_average_profile,
    bessel_potential,
    constant_weight,
    default_test_family,
    dyadic_potential_difference,
    dyadic_smoothing_difference,
    equivalence_experiment,
    forward_transform,
    gaussian_derivative_field,
    gaussian_field,
    haar_kernel,
    l2_norm,
    mean_subtract,
    random_band_field,
    riesz_potential,
    smoothing_difference_function,
    sobolev_equivalence_ratio,
    square_function_ratio,
    weight_from_id,
    weighted_norm,
)
from scalesq.sobolev import _smoothing_family
from oracles import ball_deficit_mpmath, eager_test_family, moving_average_physical


def mz_band(geom, seed=0):
    return mean_subtract(random_band_field(geom, seed=seed, band=(0.25, 4.0)))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("s", [1e-6, 1e-4, 1e-3, 0.06])
def test_smoothing_multiplier_vs_mpmath(dim, s):
    # 1 - Phihat(t xi) at |t xi| = s, where forming it by subtraction would cancel
    import mpmath

    family = _smoothing_family(0.5, ball_average_profile(dim), dim, DyadicRange(0, 0))  # t = 1, w = 1
    points = [(s,), (-s,)] if dim == 1 else [(s, 0.0), (s * math.cos(0.7), s * math.sin(0.7))]
    for xi in points:
        got = family.multiplier(np.ones((1, 1)), *(np.array([x]) for x in xi))[0, 0]
        with mpmath.workdps(40):
            want = ball_deficit_mpmath(mpmath.sqrt(sum(mpmath.mpf(x) ** 2 for x in xi)), dim)
        assert abs(got - want) <= 1e-13 * abs(want), xi


def test_bessel_roundtrip(geom_small):
    f = gaussian_field(geom_small)
    back = bessel_potential(bessel_potential(f, 0.7), -0.7)
    assert l2_norm(SampledField(geom_small, back.values - f.values)) < 1e-12 * l2_norm(f)


def test_bessel_smooths(geom_small):
    f = mz_band(geom_small)
    assert l2_norm(bessel_potential(f, 1.0)) < l2_norm(f)


def test_riesz_roundtrip(geom_small):
    f = mz_band(geom_small)
    back = riesz_potential(riesz_potential(f, 0.5), -0.5)
    assert l2_norm(SampledField(geom_small, back.values - f.values)) < 1e-10 * l2_norm(f)


def test_riesz_gates(geom_small):
    with pytest.raises(ValueError, match="mean-zero"):
        riesz_potential(gaussian_field(geom_small), 0.5)
    with pytest.raises(ValueError):
        riesz_potential(mz_band(geom_small), 0.0)


def test_smoothing_difference_moment_gate(geom_small):
    # the ball reproduces polynomials only up to degree 2, so order 2.5
    # differences are blind to the smoothness they claim to measure
    prof = ball_average_profile(1)
    tg = LogTimeGrid(0.5, 2.0, nodes_per_octave=2)
    with pytest.raises(MomentClassError):
        smoothing_difference_function(mz_band(geom_small), 2.5, prof, tg)
    with pytest.raises(ValueError):
        smoothing_difference_function(mz_band(geom_small), -1.0, prof, tg)


def test_smoothing_difference_dim_gate(geom_small):
    prof2 = ball_average_profile(2)
    tg = LogTimeGrid(0.5, 2.0, nodes_per_octave=2)
    with pytest.raises(ValueError, match="dim"):
        smoothing_difference_function(mz_band(geom_small), 0.5, prof2, tg)
    with pytest.raises(ValueError, match="dim"):
        dyadic_smoothing_difference(mz_band(geom_small), 0.5, prof2, DyadicRange(0, 1))


def test_smoothing_difference_physical_oracle():
    # rebuild the square function from sliding averages done in physical
    # space; accuracy is set by the cubic-spline interpolation
    geom = Geometry(1, 512, 16.0)
    f = gaussian_derivative_field(geom, 1.0)
    prof = ball_average_profile(1)
    tg = LogTimeGrid(0.5, 2.0, nodes_per_octave=2)
    order = 0.5
    acc = np.zeros(geom.shape)
    for t in tg.scales:
        layer = f.values.real - moving_average_physical(f, t)
        acc += t ** (-2.0 * order) * np.abs(layer) ** 2
    oracle = np.sqrt(tg.weight * acc)
    got = smoothing_difference_function(f, order, prof, tg)
    rel = l2_norm(SampledField(geom, got.values - oracle)) / l2_norm(got)
    assert rel < 1e-4


def test_dyadic_chain_identity_1d():
    # differences of the smoothed field == Riesz-difference square function
    # of the roughened smoothed field, mode by mode
    geom = Geometry(1, 256, 16.0)
    g = mz_band(geom, seed=7)
    prof = ball_average_profile(1)
    kr = DyadicRange(-5, 5)
    order = 0.5
    smoothed = bessel_potential(g, order)
    lhs = dyadic_smoothing_difference(smoothed, order, prof, kr)
    rhs = dyadic_potential_difference(riesz_potential(smoothed, -order), order, prof, kr)
    rel = l2_norm(SampledField(geom, lhs.values - rhs.values)) / l2_norm(g)
    assert rel < 1e-11


def test_dyadic_chain_identity_2d(geom_2d_small):
    g = mz_band(geom_2d_small, seed=8)
    prof = ball_average_profile(2)
    kr = DyadicRange(-4, 4)
    order = 1.0
    smoothed = bessel_potential(g, order)
    lhs = dyadic_smoothing_difference(smoothed, order, prof, kr)
    rhs = dyadic_potential_difference(riesz_potential(smoothed, -order), order, prof, kr)
    rel = l2_norm(SampledField(geom_2d_small, lhs.values - rhs.values)) / l2_norm(g)
    assert rel < 1e-11


def test_dyadic_potential_difference_mean_gate(geom_small):
    with pytest.raises(ValueError, match="mean-zero"):
        dyadic_potential_difference(gaussian_field(geom_small), 0.5,
                                    ball_average_profile(1), DyadicRange(0, 2))


def test_family_shape_and_determinism(geom_small):
    fam = default_test_family(geom_small, seed=0)
    assert len(fam.members) == 20
    assert len(set(fam.labels)) == 20
    for f in fam.members:
        dc = abs(forward_transform(f).coefficients[geom_small.dc_index])
        assert dc < 1e-9 * l2_norm(f)
    again = default_test_family(geom_small, seed=0)
    for a, b in zip(fam.members, again.members):
        assert np.array_equal(a.values, b.values)
    other = default_test_family(geom_small, seed=1)
    assert not np.array_equal(fam.members[0].values, other.members[0].values)


def test_family_validation(geom_small):
    f = gaussian_field(geom_small)
    with pytest.raises(ValueError):
        TestFamily(geom_small, 0, (f,), ("a", "b"))
    with pytest.raises(ValueError):
        TestFamily(geom_small, 0, (), ())


FAMILY_GEOMS = {1: Geometry(1, 512, 16.0), 2: Geometry(2, 64, 8.0)}


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_members_equal_the_eager_family_bit_for_bit(dim, seed):
    members, labels = eager_test_family(FAMILY_GEOMS[dim], seed)
    fam = default_test_family(FAMILY_GEOMS[dim], seed)
    assert fam.labels == labels and len(fam.members) == 20
    for got, want in zip(fam.members, members, strict=True):
        assert got.values.tobytes() == want.values.tobytes()


def test_members_are_built_on_demand():
    members, _ = eager_test_family(FAMILY_GEOMS[1], 5)
    lazy = default_test_family(FAMILY_GEOMS[1], 5).members
    first = lazy[0]
    assert first is not lazy[0] and np.array_equal(first.values, lazy[0].values)
    assert np.array_equal(lazy[-1].values, members[-1].values)
    part = lazy[3:6]
    assert isinstance(part, tuple) and len(part) == 3
    assert all(np.array_equal(a.values, b.values) for a, b in zip(part, members[3:6], strict=True))


@pytest.mark.parametrize("geom,p,batches", [
    (Geometry(1, 4096, 32.0), 2.0, [1] * 20),
    (Geometry(1, 4096, 32.0), 3.0, [20]),  # 1.3 MB of members: one batch
    (Geometry(2, 128, 16.0), 2.0, [1] * 20),
    (Geometry(2, 128, 16.0), 3.0, [8, 8, 4]),  # 256 KiB each
])
def test_experiment_builds_each_member_once_in_batches(monkeypatch, geom, p, batches):
    import scalesq.sobolev as sobolev
    from scalesq import ScaleFamily

    built, build = [], sobolev._test_member
    monkeypatch.setattr(sobolev, "_test_member", lambda g, *args: built.append(g) or build(g, *args))
    sizes, ratios = [], sobolev._ratios  # one call per batch
    monkeypatch.setattr(sobolev, "_ratios", lambda nums, dens: sizes.append(len(nums)) or ratios(nums, dens))
    symbols, symbol = [], ScaleFamily.symbol
    monkeypatch.setattr(ScaleFamily, "symbol", lambda self, *xi: symbols.append(1) or symbol(self, *xi))
    fam = default_test_family(geom, seed=1)
    weight = constant_weight() if p == 2 else weight_from_id("pow:0.3", radius_floor=geom.spacing)
    ratio = sobolev_equivalence_ratio(0.5, ball_average_profile(geom.dim), DyadicRange(-4, 2), p, weight)
    rep = equivalence_experiment(fam, ratio, "sobolev", p, "w")
    assert len(rep.ratios) == 20 and built == [geom] * 20
    assert sizes == batches
    assert len(symbols) == (1 if p == 2 else 0)  # the grid's work once per experiment


def test_p2_sobolev_peak_is_a_fraction_of_the_eager_family():
    import tracemalloc

    geom = Geometry(2, 256, 16.0)
    fam = default_test_family(geom, seed=0)
    ratio = sobolev_equivalence_ratio(0.5, ball_average_profile(2), DyadicRange(-4, 2), 2.0, constant_weight())
    want = equivalence_experiment(fam, ratio, "sobolev", 2.0, "const")  # warm caches
    tracemalloc.start()
    try:
        got = equivalence_experiment(fam, ratio, "sobolev", 2.0, "const")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    eager = 20 * 16 * 256**2  # 20 MiB of complex members
    assert peak < eager / 5, f"peak {peak / 2**20:.2f} MiB"


def test_equivalence_experiment_skip_logic(geom_small):
    fam = default_test_family(geom_small, seed=0)
    skip_label = fam.labels[3]

    def ratio_fn(fields):
        return [None if np.array_equal(f.values, fam.members[3].values) else 1.0 for f in fields]

    rep = equivalence_experiment(fam, ratio_fn, "probe", 2.0, "const")
    assert rep.skipped == (skip_label,)
    assert len(rep.ratios) == 19
    assert rep.spread == 1.0
    with pytest.raises(ValueError, match="skipped"):
        equivalence_experiment(fam, lambda fields: [None] * len(fields), "probe", 2.0, "const")


def test_ratio_report_dict(geom_small):
    fam = default_test_family(geom_small, seed=0)
    rep = equivalence_experiment(fam, lambda fields: [2.0] * len(fields), "probe", 2.0, "const")
    d = rep.as_dict()
    assert set(d) == {"operator", "p", "weight", "members", "ratios",
                      "skipped", "min", "max", "spread"}
    assert d["min"] == d["max"] == 2.0
    import json
    json.dumps(d)


def test_square_function_ratio_near_symbol_constant():
    # at p = 2 with a scale window covering the family's spectrum the ratio
    # collapses to the square root of the symbol plateau for every member
    geom = Geometry(1, 512, 16.0)
    fam = default_test_family(geom, seed=0)
    tg = LogTimeGrid(1e-4, 1e4, nodes_per_octave=16)
    ratio = square_function_ratio(haar_kernel(), tg, 2.0, constant_weight())
    rep = equivalence_experiment(fam, ratio, "gfun", 2.0, "const")
    target = math.sqrt(4.0 * math.log(2.0))
    assert abs(rep.min_ratio - target) < 1e-3
    assert abs(rep.max_ratio - target) < 1e-3


def test_sobolev_equivalence_ratio_smoke(geom_small):
    fam = default_test_family(geom_small, seed=0)
    ratio = sobolev_equivalence_ratio(0.5, ball_average_profile(1),
                                      DyadicRange(-4, 4), 2.0, constant_weight())
    rep = equivalence_experiment(fam, ratio, "sobolev", 2.0, "const")
    assert rep.min_ratio > 0.5
    assert rep.spread < 50.0


def test_weighted_ratio_runs(geom_small):
    from scalesq import weight_from_id

    w = weight_from_id("pow:0.3", radius_floor=geom_small.spacing)
    fam = default_test_family(geom_small, seed=0)
    ratio = square_function_ratio(haar_kernel(),
                                  LogTimeGrid(1e-2, 1e2, nodes_per_octave=8), 1.5, w)
    rep = equivalence_experiment(fam, ratio, "gfun", 1.5, "pow:0.3")
    assert all(math.isfinite(r) and r > 0 for r in rep.ratios)
