import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalesq import (
    DyadicRange,
    Geometry,
    LogTimeGrid,
    SampledField,
    default_dyadic_range,
    default_time_grid,
    duality_residual,
    g_function,
    gaussian_derivative_field,
    gaussian_field,
    haar_kernel,
    kernel_from_id,
    l2_norm,
    marcinkiewicz_antiderivative,
    marcinkiewicz_direct,
    mean_subtract,
    poisson_derivative_kernel,
    random_band_field,
)
from scalesq.squarefn import ScaleFamily, _second_difference_family, _sided_average_family, _window_run
from oracles import fiber_norm, sided_average_physical

HAAR_SYMBOL = 4.0 * math.log(2.0)


def band_field(geom, seed=0):
    return random_band_field(geom, seed=seed, band=(0.25, 4.0))


def test_convolve_levels_shapes(geom_small):
    tg = LogTimeGrid(0.25, 4.0, nodes_per_octave=4)
    h = ScaleFamily.of_kernel(haar_kernel(), tg.scales).layers(band_field(geom_small))
    assert h.shape == (tg.node_count,) + geom_small.shape


def test_convolve_levels_matches_single_multiplier(geom_small):
    # one layer is just the multiplier psihat(t xi)
    from scalesq import Symbol, apply_multiplier

    k = haar_kernel()
    tg = LogTimeGrid(1.0, 2.0, nodes_per_octave=1)
    f = band_field(geom_small)
    h = ScaleFamily.of_kernel(k, tg.scales).layers(f)
    t0 = tg.scales[0]
    sym = Symbol("one-scale", lambda xi: k.fourier(t0 * xi), dc_value=0.0)
    direct = apply_multiplier(sym, f)
    assert np.allclose(h[0], direct.values, atol=1e-12)


def test_kernel_dim_mismatch(geom_small):
    k2 = poisson_derivative_kernel(2)
    with pytest.raises(ValueError, match="dim"):
        ScaleFamily.of_kernel(k2, LogTimeGrid(0.5, 2.0).scales).layers(band_field(geom_small))
    with pytest.raises(ValueError, match="dim"):
        g_function(band_field(geom_small), k2, DyadicRange(0, 1))


@pytest.mark.parametrize("kid", ["haar", "gm:0.75", "poisson-q", "riesz-diff:0.5:ball"])
def test_g_function_keeps_the_bits_of_the_plain_route(kid):
    # the field is scaled by a power of two on the way in and out, which
    # changes no bit of an ordinary field's square function
    geom = Geometry(1, 512, 16.0)
    tg = default_time_grid(geom)
    family = ScaleFamily.of_kernel(kernel_from_id(kid), tg.scales, tg.weight)
    rng = np.random.default_rng(11)
    fields = [SampledField(geom, size * band_field(geom, seed).values) for seed, size in enumerate((1e-3, 1.0, 7e5))]
    fields.append(SampledField(geom, rng.standard_normal(512) + 1j * rng.standard_normal(512)))
    for f in fields:
        plain = np.sqrt(family.square_sum([f])[0])
        assert np.array_equal(g_function(f, kernel_from_id(kid), tg).values, plain)


def test_g_function_is_fiber_norm_of_layers(geom_small):
    k = haar_kernel()
    tg = LogTimeGrid(0.25, 4.0, nodes_per_octave=8)
    f = band_field(geom_small)
    g1 = g_function(f, k, tg)
    g2 = fiber_norm(ScaleFamily.of_kernel(k, tg.scales).layers(f), tg.weight)
    assert np.allclose(g1.values, g2, atol=1e-12)


def test_dyadic_g_is_fiber_norm(geom_small):
    k = haar_kernel()
    kr = DyadicRange(-3, 3)
    f = band_field(geom_small)
    g1 = g_function(f, k, kr)
    g2 = fiber_norm(ScaleFamily.of_kernel(k, kr.scales).layers(f), kr.weight)
    assert np.allclose(g1.values, g2, atol=1e-12)


def test_g_function_parseval_identity(geom_small):
    # ||g(f)||_2^2 equals the frequency sum of m(xi)|fhat|^2 with m the
    # squared-modulus symbol over the same nodes
    from scalesq import continuous_symbol, forward_transform

    k = haar_kernel()
    tg = LogTimeGrid(0.1, 10.0, nodes_per_octave=8)
    f = band_field(geom_small, seed=3)
    g = g_function(f, k, tg)
    sym = continuous_symbol(k, tg)
    F = forward_transform(f)
    freq_side = geom_small.frequency_cell * np.sum(
        np.real(sym.sample(geom_small)) * np.abs(F.coefficients) ** 2
    )
    assert math.isclose(l2_norm(g) ** 2, freq_side, rel_tol=1e-10)


def test_g_function_haar_ratio_on_band_fields():
    geom = Geometry(1, 1024, 32.0)
    tg = LogTimeGrid(1e-4, 1e4, nodes_per_octave=32)
    for seed in range(3):
        f = band_field(geom, seed=seed)
        ratio = l2_norm(g_function(f, haar_kernel(), tg)) / l2_norm(f)
        assert math.isclose(ratio, math.sqrt(HAAR_SYMBOL), rel_tol=1e-4)


# ---------------------------------------------------------------------------
# sided averages

@pytest.mark.parametrize("alpha", [0.75, 1.0, 1.25])
def test_sided_average_matches_physical_oracle(alpha):
    geom = Geometry(1, 512, 16.0)
    f = gaussian_derivative_field(geom, 1.0)
    for t in (0.5, 2.0):
        spectral = _sided_average_family(alpha, t, 96).layers(f)[0]
        phys = sided_average_physical(f, alpha, t)
        rel = l2_norm(SampledField(geom, spectral - phys)) / l2_norm(f)
        assert rel < 1e-4


def test_sided_average_validation(geom_small, geom_2d_small):
    tg = LogTimeGrid(0.5, 2.0, nodes_per_octave=1)
    f2 = gaussian_field(geom_2d_small)
    with pytest.raises(ValueError, match="one-dimensional"):
        marcinkiewicz_direct(f2, 1.0, tg)
    f1 = gaussian_field(geom_small)
    with pytest.raises(ValueError, match="positive"):
        marcinkiewicz_direct(f1, -1.0, tg)


def test_second_difference_equals_order_one_average():
    geom = Geometry(1, 512, 16.0)
    f = mean_subtract(band_field(geom, seed=4))
    for t in (0.3, 1.7):
        a = _sided_average_family(1.0, t, 128).layers(f)[0]
        b = _second_difference_family(f, t).layers(f)[0]
        rel = l2_norm(SampledField(geom, a - b)) / l2_norm(f)
        assert rel < 1e-9


def test_second_difference_requires_mean_zero(geom_small):
    f = gaussian_field(geom_small)  # positive mass
    with pytest.raises(ValueError, match="mean-zero"):
        marcinkiewicz_antiderivative(f, LogTimeGrid(0.5, 2.0, nodes_per_octave=1))


def test_marcinkiewicz_routes_agree():
    geom = Geometry(1, 512, 16.0)
    tg = default_time_grid(geom)
    f = mean_subtract(band_field(geom, seed=5))
    direct = marcinkiewicz_direct(f, 1.0, tg, u_nodes=128)
    anti = marcinkiewicz_antiderivative(f, tg)
    rel = l2_norm(SampledField(geom, direct.values - anti.values)) / l2_norm(f)
    assert rel < 1e-8


def test_marcinkiewicz_equals_gm_square_function():
    geom = Geometry(1, 512, 16.0)
    tg = default_time_grid(geom)
    f = gaussian_derivative_field(geom, 1.0)
    for alpha in (0.75, 1.25):
        mu = marcinkiewicz_direct(f, alpha, tg, u_nodes=96)
        g = g_function(f, kernel_from_id(f"gm:{alpha:g}"), tg)
        rel = l2_norm(SampledField(geom, mu.values - g.values)) / l2_norm(g)
        assert rel < 1e-3


# ---------------------------------------------------------------------------
# synthesis and duality

def test_scale_synthesis_window(geom_small):
    k = haar_kernel()
    tg = LogTimeGrid(0.25, 4.0, nodes_per_octave=4)
    family = ScaleFamily.of_kernel(k, tg.scales, tg.weight)
    full = family.synthesis(family.layers(band_field(geom_small)), geom_small)
    assert full.values.shape == geom_small.shape
    with pytest.raises(ValueError):
        _window_run(tg.scales, (100.0, 200.0))


def test_dyadic_synthesis_level_cut(geom_small):
    k = haar_kernel()
    kr = DyadicRange(-4, 4)
    family = ScaleFamily.of_kernel(k, kr.scales)
    layers = family.layers(band_field(geom_small))
    run = _window_run(kr.scales, (0.25, 4.0))  # |k| <= 1
    full = family.synthesis(layers, geom_small)
    cut = ScaleFamily.of_kernel(k, kr.scales[run]).synthesis(layers[run], geom_small)
    assert l2_norm(cut) < l2_norm(full)
    with pytest.raises(ValueError, match="no scales"):
        _window_run(kr.scales, (1.0, 1.0))


@pytest.mark.parametrize("kid", ["haar", "poisson-q", "riesz-diff:0.5:ball"])
def test_duality_residual_is_floating_point_noise(kid):
    geom = Geometry(1, 512, 16.0)
    f = mean_subtract(band_field(geom, seed=6))
    res = duality_residual(f, kernel_from_id(kid), eps=0.125)
    assert res < 1e-10


def test_duality_residual_eps_validation(geom_small):
    f = band_field(geom_small)
    with pytest.raises(ValueError):
        duality_residual(f, haar_kernel(), eps=2.0)


@given(seed=st.integers(0, 100))
@settings(max_examples=10)
def test_g_function_scales_linearly(seed):
    # g(c f) = |c| g(f): the square function is absolutely homogeneous
    geom = Geometry(1, 128, 8.0)
    f = band_field(geom, seed=seed)
    tg = LogTimeGrid(0.25, 4.0, nodes_per_octave=4)
    g1 = g_function(f, haar_kernel(), tg)
    f3 = SampledField(geom, -3.0 * f.values)
    g3 = g_function(f3, haar_kernel(), tg)
    assert np.allclose(g3.values, 3.0 * g1.values, atol=1e-10)
