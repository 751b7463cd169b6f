import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scalesq import (
    DegenerateSymbolError,
    DyadicRange,
    Geometry,
    LogTimeGrid,
    Symbol,
    apply_multiplier,
    bessel_split_symbol,
    bessel_symbol,
    continuous_symbol,
    continuous_tail_estimate,
    dyadic_defect_bound,
    dyadic_symbol,
    forward_transform,
    haar_kernel,
    invert_multiplier,
    kernel_from_id,
    l2_norm,
    mean_subtract,
    random_band_field,
    riesz_bessel_ratio_symbol,
    riesz_symbol,
)
from scalesq.multiplier import sampled_homogeneity_defect, sampled_min_modulus

HAAR_SYMBOL = 4.0 * math.log(2.0)


def wide_grid() -> LogTimeGrid:
    return LogTimeGrid(1e-6, 1e6, nodes_per_octave=32)


def test_continuous_symbol_haar_constant():
    sym = continuous_symbol(haar_kernel(), wide_grid())
    xi = np.geomspace(0.05, 50.0, 16)
    vals = np.real(sym.evaluate(xi))
    assert np.allclose(vals, HAAR_SYMBOL, rtol=1e-6)


def test_continuous_symbol_dc_pinned(geom_small):
    sym = continuous_symbol(haar_kernel(), wide_grid())
    vals = sym.sample(geom_small)
    assert vals[geom_small.dc_index] == 0.0


def test_continuous_symbol_window_subset():
    tg = LogTimeGrid(0.25, 4.0, nodes_per_octave=4)
    full = continuous_symbol(haar_kernel(), tg)
    windowed = continuous_symbol(haar_kernel(), tg, window=(0.5, 2.0))
    assert windowed.meta["node_count"] < full.meta["node_count"]
    xi = np.array([1.0])
    assert np.real(windowed.evaluate(xi))[0] < np.real(full.evaluate(xi))[0]
    with pytest.raises(ValueError):
        continuous_symbol(haar_kernel(), tg, window=(1e9, 2e9))


def test_continuous_tail_estimate_orders():
    sym = continuous_symbol(haar_kernel(), LogTimeGrid(1e-3, 1e3, 16))
    # doubling the window shrinks both tail contributions
    wide = continuous_symbol(haar_kernel(), LogTimeGrid(1e-6, 1e6, 16))
    assert continuous_tail_estimate(wide, 1.0) < continuous_tail_estimate(sym, 1.0)


def test_continuous_symbol_truncation_agrees_with_tail_bound():
    tg = LogTimeGrid(1e-4, 1e4, nodes_per_octave=32)
    sym = continuous_symbol(haar_kernel(), tg)
    xi = 1.0
    short = float(np.real(sym.evaluate(np.array([xi]))[0]))
    bound = continuous_tail_estimate(sym, xi)
    assert abs(short - HAAR_SYMBOL) <= bound + 1e-9


def test_dyadic_symbol_log_periodic():
    kr = DyadicRange(-20, 20)
    sym = dyadic_symbol(haar_kernel(), kr)
    xi = np.geomspace(0.5, 1.0, 7)
    a = np.real(sym.evaluate(xi))
    b = np.real(sym.evaluate(2.0 * xi))
    # interior frequencies: doubling shifts the dyadic sum by one term at
    # each end, both negligible at this range
    assert np.allclose(a, b, atol=1e-10)


def test_dyadic_defect_is_two_boundary_terms():
    k = haar_kernel()
    kr = DyadicRange(-3, 2)
    sym = dyadic_symbol(k, kr)
    xi = np.geomspace(0.1, 10.0, 25)
    defect = np.abs(np.real(sym.evaluate(2.0 * xi)) - np.real(sym.evaluate(xi)))
    bound = dyadic_defect_bound(k, kr, xi)
    assert np.all(defect <= bound + 1e-12)
    # telescope identity: the defect equals the difference of the two
    # boundary terms exactly
    lo = np.abs(k.fourier_at_scale(2.0**kr.k_min, xi)) ** 2
    hi = np.abs(k.fourier_at_scale(2.0 ** (kr.k_max + 1), xi)) ** 2
    assert np.allclose(defect, np.abs(hi - lo), atol=1e-12)


def test_apply_multiplier_identity(geom_small):
    one = Symbol("one", lambda xi: np.ones(np.shape(xi)), dc_value=1.0)
    f = random_band_field(geom_small, seed=2)
    g = apply_multiplier(one, f)
    assert np.allclose(g.values, f.values, atol=1e-12)


def test_apply_then_invert_roundtrip(geom_small):
    sym = continuous_symbol(haar_kernel(), wide_grid())
    inv = invert_multiplier(sym, floor=1e-8, geom=geom_small)
    f = mean_subtract(random_band_field(geom_small, seed=11))
    back = apply_multiplier(inv, apply_multiplier(sym, f))
    assert l2_norm(back) > 0
    rel = l2_norm(
        type(f)(geom_small, back.values - f.values)
    ) / l2_norm(f)
    assert rel < 1e-10


def test_invert_multiplier_raises_on_vanishing(geom_small):
    band = kernel_from_id("band:1:2")
    sym = continuous_symbol(band, LogTimeGrid(0.5, 2.0, 8))
    # symbol vanishes wherever no dilate reaches the band
    with pytest.raises(DegenerateSymbolError, match="frequency"):
        invert_multiplier(sym, floor=1e-8, geom=geom_small)


def test_invert_multiplier_floor_validation(geom_small):
    sym = bessel_symbol(1.0)
    with pytest.raises(ValueError):
        invert_multiplier(sym, floor=0.0, geom=geom_small)


# ---------------------------------------------------------------------------
# potential symbols

def test_riesz_symbol_values():
    sym = riesz_symbol(0.5)
    xi = np.array([0.25, 4.0])
    assert np.allclose(sym.evaluate(xi), (2.0 * np.pi * xi) ** -0.5)
    assert riesz_symbol(-1.0).evaluate(np.array([1.0]))[0] == 2.0 * np.pi
    with pytest.raises(ValueError):
        riesz_symbol(0.0)


def test_bessel_symbol_values():
    sym = bessel_symbol(2.0)
    xi = np.array([0.0, 1.0])
    assert np.allclose(sym.evaluate(xi), [1.0, 1.0 / (1.0 + 4.0 * np.pi**2)])
    neg = bessel_symbol(-2.0)
    assert np.allclose(neg.evaluate(xi), [1.0, 1.0 + 4.0 * np.pi**2])


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.7])
def test_riesz_bessel_ratio_identity(alpha):
    # (2 pi |xi|)^a = ratio * (1 + 4 pi^2 |xi|^2)^(a/2) on the whole grid
    geom = Geometry(1, 1024, 32.0)
    xi = geom.frequency_axis()
    nz = xi != 0
    ratio = riesz_bessel_ratio_symbol(alpha).evaluate(xi[nz])
    bessel_pow = (1.0 + 4.0 * np.pi**2 * xi[nz] ** 2) ** (alpha / 2.0)
    riesz_pow = (2.0 * np.pi * np.abs(xi[nz])) ** alpha
    assert np.max(np.abs(ratio * bessel_pow - riesz_pow) / np.maximum(riesz_pow, 1e-300)) < 1e-12
    assert np.all(ratio <= 1.0 + 1e-15)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.7])
def test_bessel_split_identity(alpha):
    # (1 + 4 pi^2 |xi|^2)^(a/2) = m + m (2 pi |xi|)^a with m the split symbol
    geom = Geometry(1, 1024, 32.0)
    xi = geom.frequency_axis()
    m = bessel_split_symbol(alpha).evaluate(xi)
    lhs = (1.0 + 4.0 * np.pi**2 * xi**2) ** (alpha / 2.0)
    rhs = m + m * (2.0 * np.pi * np.abs(xi)) ** alpha
    assert np.max(np.abs(lhs - rhs) / lhs) < 1e-12


def test_ratio_symbol_validation():
    with pytest.raises(ValueError):
        riesz_bessel_ratio_symbol(-1.0)
    with pytest.raises(ValueError):
        bessel_split_symbol(0.0)


# ---------------------------------------------------------------------------
# structural checks

def test_homogeneity_defect_continuous_vs_dyadic(geom_small):
    wide = continuous_symbol(haar_kernel(), wide_grid())
    assert sampled_homogeneity_defect(wide.sample(geom_small), geom_small) < 1e-6
    # a genuinely inhomogeneous symbol has order-one defect
    bes = bessel_symbol(1.0)
    assert sampled_homogeneity_defect(bes.sample(geom_small), geom_small) > 0.1


def test_symbol_min_modulus_annulus(geom_small):
    sym = continuous_symbol(haar_kernel(), wide_grid())
    m = sampled_min_modulus(sym.sample(geom_small), geom_small, annulus=(1.0, 2.0))
    assert math.isclose(m, HAAR_SYMBOL, rel_tol=1e-6)
    with pytest.raises(ValueError):
        sampled_min_modulus(sym.sample(geom_small), geom_small, annulus=(1e6, 2e6))


@given(seed=st.integers(0, 1000))
def test_parseval_route_for_multipliers(seed):
    # ||T_m f||_2^2 computed spatially equals the frequency-side sum
    geom = Geometry(1, 128, 8.0)
    f = random_band_field(geom, seed=seed, band=(0.2, 3.0))
    sym = bessel_symbol(1.0)
    g = apply_multiplier(sym, f)
    F = forward_transform(f)
    vals = sym.sample(geom)
    freq_side = geom.frequency_cell * np.sum(np.abs(vals * F.coefficients) ** 2)
    assert math.isclose(l2_norm(g) ** 2, freq_side, rel_tol=1e-10)
