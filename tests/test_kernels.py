import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import roots_legendre

from scalesq import (
    ball_average_profile,
    haar_kernel,
    kernel_from_id,
    marcinkiewicz_kernel,
    moment_class_check,
    poisson_derivative_kernel,
    profile_from_id,
    riesz_constant,
    riesz_difference_kernel,
    sgn_difference_kernel,
)
from scalesq.kernels import _jacobi_rule
from oracles import (
    ball_hat_1d_closed,
    disk_hat_dblquad,
    gm_hat_mpmath,
    gm_hat_quad,
    haar_hat_closed,
    odd_compact_hat,
    poisson_hat_quad,
)

XI_PROBES = [0.3, 1.7, 4.9, 12.3]


def test_haar_hat_closed_form():
    k = haar_kernel()
    xi = np.linspace(-8.0, 8.0, 257)
    assert np.allclose(k.fourier(xi), haar_hat_closed(xi), atol=1e-14)


def test_haar_spatial_is_square_wave():
    k = haar_kernel()
    x = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    assert np.allclose(k.spatial(x), [0, -1, -1, 0, 1, 1, 0])


def test_haar_hat_vs_spatial_quadrature():
    k = haar_kernel()
    for xi in XI_PROBES:
        assert abs(complex(k.fourier(np.array([xi]))[0]) - odd_compact_hat(k.spatial, 1.0, xi)) < 1e-10


def test_gm_one_is_haar():
    gm = marcinkiewicz_kernel(1.0)
    h = haar_kernel()
    x = np.linspace(-1.5, 1.5, 101)
    assert np.allclose(gm.spatial(x), h.spatial(x))
    xi = np.linspace(-6.0, 6.0, 101)
    assert np.allclose(gm.fourier(xi), h.fourier(xi), atol=1e-12)


@pytest.mark.parametrize("alpha", [0.75, 1.25])
def test_gm_hat_vs_quad_oracle(alpha):
    k = marcinkiewicz_kernel(alpha)
    for xi in XI_PROBES:
        impl = complex(k.fourier(np.array([xi]))[0])
        assert abs(impl - gm_hat_quad(alpha, xi)) < 1e-9


@pytest.mark.parametrize("alpha", [0.6, 0.75, 1.25])
def test_gm_hat_vs_mpmath(alpha):
    # reaches the top of the dyadic non-degeneracy scan (8192) and beyond
    pytest.importorskip("mpmath")
    k = marcinkiewicz_kernel(alpha)
    xi = np.array([0.3, 3.3, 100.0, 2000.0, 5000.0, 8192.0, 51000.0, -7.7])
    impl = k.fourier(xi)
    for x, v in zip(xi, impl):
        ref = gm_hat_mpmath(alpha, x)
        assert abs(v - ref) <= 1e-7 * abs(ref)


@pytest.mark.parametrize("alpha", [0.6, 1.0, 1.25])
def test_gm_hat_series_branches_vs_mpmath(alpha):
    # a power series below 2 pi |xi| = 1 and a large-argument expansion from
    # 2 pi |xi| = 30 + 2 alpha replace hyp1f1, and are more accurate than it
    pytest.importorskip("mpmath")
    k = marcinkiewicz_kernel(alpha)
    xi = np.array([1e-9, 1e-5, 0.01, 0.159, 0.16, -0.1, 5.2, 6.1, -7.7, 12.3, 100.25, 2000.5])
    impl = k.fourier(xi)
    for x, v in zip(xi, impl):
        ref = gm_hat_mpmath(alpha, x)
        assert abs(v - ref) <= 1e-11 * abs(ref)


@pytest.mark.parametrize("alpha", [0.6, 0.75, 1.25])
def test_gm_hat_mid_band_vs_mpmath(alpha):
    # the band 1 <= 2 pi |xi| < 30 + 2 alpha, where scipy's complex hyp1f1 was
    # off by up to 3.6e-7 relative near a zero of the hat
    pytest.importorskip("mpmath")
    k = marcinkiewicz_kernel(alpha)
    xi = np.linspace(1.0, 30.0 + 2.0 * alpha, 200, endpoint=False) / (2.0 * np.pi)
    impl = k.fourier(xi)
    ref = np.array([gm_hat_mpmath(alpha, x) for x in xi])
    assert np.max(np.abs(impl - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_gm_hat_odd_symmetry():
    k = marcinkiewicz_kernel(0.8)
    xi = np.linspace(0.1, 20.0, 64)
    assert np.allclose(k.fourier(-xi), -k.fourier(xi), atol=1e-13)


def test_gm_rejects_nonpositive_order():
    with pytest.raises(ValueError):
        marcinkiewicz_kernel(0.0)
    with pytest.raises(ValueError):
        marcinkiewicz_kernel(-1.0)


def test_gm_edge_metadata():
    assert marcinkiewicz_kernel(0.75).edge_singularity == (1.0, -0.25)
    assert marcinkiewicz_kernel(1.25).edge_singularity == (1.0, 0.25)
    assert marcinkiewicz_kernel(1.0).edge_singularity is None


def test_poisson_hat_vs_quad_oracle():
    k = poisson_derivative_kernel(1)
    for xi in [0.0, 0.4, 2.1]:
        impl = complex(k.fourier(np.array([xi]))[0])
        assert abs(impl - poisson_hat_quad(xi)) < 1e-9


def test_poisson_spatial_integrates_to_zero():
    # cancellation: the hat vanishes at 0, so the mass is zero
    from scipy.integrate import quad

    k = poisson_derivative_kernel(1)
    val, _ = quad(lambda r: float(np.real(k.spatial(np.array([r]))[0])), 0.0, np.inf, limit=400)
    assert abs(val) < 1e-12


def test_poisson_2d_hat_radial():
    k = poisson_derivative_kernel(2)
    v1 = k.fourier(np.array([0.6]), np.array([0.8]))
    v2 = k.fourier(np.array([1.0]), np.array([0.0]))
    assert np.allclose(v1, v2)
    assert np.allclose(v1, -2.0 * np.pi * np.exp(-2.0 * np.pi))


def test_ball_profile_hats():
    p1 = ball_average_profile(1)
    xi = np.linspace(-4.0, 4.0, 101)
    assert np.allclose(p1.fourier(xi), ball_hat_1d_closed(xi), atol=1e-14)
    p2 = ball_average_profile(2)
    for rho in [0.4, 1.3]:
        impl = complex(p2.fourier(np.array([rho]), np.array([0.0]))[0])
        assert abs(impl - disk_hat_dblquad(rho)) < 1e-9


def test_ball_profile_moments():
    p = ball_average_profile(1)
    assert p.moment((0,)) == 1.0
    assert p.moment((1,)) == 0.0
    assert math.isclose(p.moment((2,)), 1.0 / 3.0)
    rep = moment_class_check(p, 1.5)
    assert rep.ok
    rep = moment_class_check(p, 2.5)  # needs vanishing second moment
    assert not rep.ok


def test_disk_profile_moments():
    p = ball_average_profile(2)
    assert math.isclose(p.moment((0, 0)), 1.0)
    assert p.moment((1, 0)) == 0.0
    assert p.moment((1, 1)) == 0.0
    # integral of x^2 over the unit disk / pi = 1/4
    assert math.isclose(p.moment((2, 0)), 0.25)


def test_riesz_constant_value():
    # alpha = 1, dim = 2: gamma(1/2) / (pi * 2 * gamma(1/2)) = 1 / (2 pi)
    assert math.isclose(riesz_constant(1.0, 2), 1.0 / (2.0 * math.pi))


def test_riesz_difference_hat_formula():
    alpha = 0.5
    p = ball_average_profile(1)
    k = riesz_difference_kernel(alpha, p)
    xi = np.array([0.3, 1.1, 7.7])
    expected = (2.0 * np.pi * xi) ** (-alpha) * (1.0 - ball_hat_1d_closed(xi))
    assert np.allclose(k.fourier(xi), expected, atol=1e-14)
    assert complex(k.fourier(np.array([0.0]))[0]) == 0.0


def test_riesz_difference_domain_gate():
    p = ball_average_profile(1)
    with pytest.raises(ValueError):
        riesz_difference_kernel(1.0, p)  # needs alpha < dim
    with pytest.raises(ValueError):
        riesz_difference_kernel(-0.5, p)


def test_riesz_difference_spatial_diagnostic():
    # closed form for the half-indicator average of |y|^(-1/2):
    # inside the ball smoothed = tau (sqrt(1-x) + sqrt(1+x)), outside
    # tau (sqrt(x+1) - sqrt(x-1)); the polar quadrature is only a
    # diagnostic, so the tolerance is loose
    p = ball_average_profile(1)
    k = riesz_difference_kernel(0.5, p)
    tau = riesz_constant(0.5, 1)
    for x in (0.3, 0.5, 0.8, 1.5, 2.5):
        if x < 1.0:
            smoothed = math.sqrt(1.0 - x) + math.sqrt(1.0 + x)
        else:
            smoothed = math.sqrt(x + 1.0) - math.sqrt(x - 1.0)
        expected = tau * (x**-0.5 - smoothed)
        impl = float(np.real(k.spatial(np.array([x]))[0]))
        assert abs(impl - expected) < 1e-2


def test_sgn_difference_hat_and_spatial():
    p = ball_average_profile(1)
    k = sgn_difference_kernel(p)
    xi = np.array([0.25, 1.75])
    expected = -1j * (1.0 - ball_hat_1d_closed(xi)) / (np.pi * xi)
    assert np.allclose(k.fourier(xi), expected, atol=1e-14)
    # outside the averaging window sgn - smoothed sgn vanishes
    x = np.array([-3.0, 3.0])
    assert np.allclose(k.spatial(x), 0.0, atol=1e-12)
    for xi_probe in XI_PROBES:
        impl = complex(k.fourier(np.array([xi_probe]))[0])
        oracle = odd_compact_hat(k.spatial, k.support_radius, xi_probe)
        assert abs(impl - oracle) < 1e-8


def test_sgn_difference_spatial_batch_is_pointwise():
    # 5000 points span three evaluation blocks; each point must not depend
    # on the rest of the batch
    k = kernel_from_id("sgn-diff:ball")
    x = np.linspace(-1.5, 1.5, 5000)
    pointwise = np.array([k.spatial(np.array([v]))[0] for v in x])
    assert np.array_equal(k.spatial(x), pointwise)


def test_band_kernel_hat():
    k = kernel_from_id("band:1:2")
    xi = np.array([-3.0, -1.5, 0.5, 1.0, 1.7, 2.0, 2.5])
    assert np.allclose(k.fourier(xi), [0, 1, 0, 1, 1, 1, 0])
    assert k.spatial is None
    with pytest.raises(ValueError):
        kernel_from_id("band:2:1")


def test_fourier_at_scale():
    k = haar_kernel()
    xi = np.array([0.7])
    assert np.allclose(k.fourier_at_scale(3.0, xi), k.fourier(3.0 * xi))


def test_reflect_conjugate():
    k = marcinkiewicz_kernel(0.75)
    r = k.reflect_conjugate()
    xi = np.array([0.4, 2.2])
    assert np.allclose(r.fourier(xi), np.conj(k.fourier(xi)))
    x = np.array([0.3, -0.9])
    assert np.allclose(r.spatial(x), np.conj(k.spatial(-x)))


# ---------------------------------------------------------------------------
# registry

@pytest.mark.parametrize(
    "kid",
    ["haar", "gm:0.75", "gm:1", "poisson-q", "poisson-q:2",
     "riesz-diff:0.5:ball", "riesz-diff:1:ball:2", "sgn-diff:ball", "band:1:4"],
)
def test_registry_roundtrip(kid):
    k = kernel_from_id(kid)
    assert k.name.startswith(kid.split(":")[0])


@pytest.mark.parametrize(
    "bad",
    ["nope", "gm", "gm:x", "poisson-q:3", "riesz-diff:0.5", "band:1", "haar:1"],
)
def test_registry_rejects_malformed(bad):
    with pytest.raises(ValueError):
        kernel_from_id(bad)


def test_profile_registry():
    p = profile_from_id("ball", 2)
    assert p.dim == 2
    with pytest.raises(ValueError):
        profile_from_id("box", 1)


@given(alpha=st.floats(0.55, 1.45))
def test_gm_hat_scaling_consistency(alpha):
    # evaluator must be odd and vanish at 0 regardless of grading
    k = marcinkiewicz_kernel(alpha)
    assert complex(k.fourier(np.array([0.0]))[0]) == 0.0
    v = k.fourier(np.array([1.3, -1.3]))
    assert abs(v[0] + v[1]) < 1e-12


def test_jacobi_rule_without_exponents_is_gauss_legendre():
    x, w = roots_legendre(96)
    s, ws = _jacobi_rule(96)
    assert np.array_equal(s, (x + 1.0) / 2.0)
    assert np.array_equal(ws, w / 2.0)
