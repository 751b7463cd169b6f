import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import betaln, roots_legendre
from scipy.special import roots_jacobi as scipy_roots_jacobi

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
from scalesq import grid
from scalesq.kernels import (
    _GM_PANEL,
    _blocked_quadrature,
    _graded_table,
    _jacobi_rule,
    _smoothed_riesz_core,
    roots_jacobi,
)
from oracles import (
    ball_deficit_mpmath,
    ball_hat_1d_closed,
    disk_hat_dblquad,
    gm_hat_mpmath,
    gm_hat_quad,
    gm_hat_rule,
    haar_hat_closed,
    odd_compact_hat,
    poisson_hat_quad,
    riesz_ball_average_dense,
    riesz_radial_rule,
    sgn_ball_average_quad,
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


def test_gm_order_is_capped():
    # the mid-band table grows with the order; 1024 is the largest accepted
    xi = np.array([0.5, 100.0, 250.0, 330.0])
    assert np.max(np.abs(marcinkiewicz_kernel(1024.0).fourier(xi) - gm_hat_rule(1024.0, xi))) <= 1e-14
    # the unit rule loses digits at tiny orders (NaN at 1e-15); 2^-10 is the smallest accepted
    low = 2.0**-10
    xi = np.array([0.05, 0.3, 1.0, 3.0, 10.0])
    ref = np.array([gm_hat_mpmath(low, x) for x in xi])
    assert np.max(np.abs(marcinkiewicz_kernel(low).fourier(xi) - ref)) <= 1e-11
    for alpha in (1024.5, math.inf, math.nan, low * (1.0 - 2.0**-52), 1e-15, 0.0, -1.0):
        with pytest.raises(ValueError, match=r"gm order must lie in \[2\^-10, 1024\]"):
            marcinkiewicz_kernel(alpha)


# ---------------------------------------------------------------------------
# the graded hat's mid band, read from Chebyshev panels built from its rule

GM_TABLE_ORDERS = [0.25, 0.6, 0.75, 1.0, 1.25, 3.0, 8.0]


def gm_mid_band(alpha: float) -> np.ndarray:
    """xi over the mid band 1 <= 2 pi |xi| < 30 + 2 alpha: 2000 even points,
    and the neighbours of both band edges and of every panel boundary."""
    table = _graded_table(alpha)
    edges = 1.0 + _GM_PANEL * np.arange(table.chebyshev.shape[1] + 1)
    marks = np.append(edges[edges < table.top], table.top) / (2.0 * np.pi)
    near = marks[:, None] * (1.0 + 2.0**-52 * np.arange(-3.0, 4.0))
    xi = np.concatenate([np.linspace(1.0, table.top, 2000) / (2.0 * np.pi), near.ravel()])
    a = 2.0 * np.pi * xi
    return xi[(a >= 1.0) & (a < table.top)]


@pytest.mark.parametrize("alpha", GM_TABLE_ORDERS)
def test_gm_table_matches_its_rule(alpha):
    xi = gm_mid_band(alpha)
    a = 2.0 * np.pi * xi
    table = _graded_table(alpha)
    assert a.min() - 1.0 < 1e-15 and table.top - a.max() < 1e-13  # both band edges
    got = marcinkiewicz_kernel(alpha).fourier(np.concatenate([xi, -xi]))
    want = gm_hat_rule(alpha, np.concatenate([xi, -xi]))
    assert np.max(np.abs(got - want)) <= 1e-14


@pytest.mark.parametrize("alpha", [0.6, 0.75, 8.0])
def test_gm_point_alone_has_its_batch_bits(alpha):
    rng = np.random.default_rng(31)
    xi = 10.0 ** rng.uniform(-3.0, 3.0, 10_000) * rng.choice((-1.0, 1.0), 10_000)
    xi[:40] = np.resize(gm_mid_band(alpha)[-20:], 40) * np.repeat([1.0, -1.0], 20)
    k = marcinkiewicz_kernel(alpha)
    batch = k.fourier(xi)
    for i in range(0, xi.size, 5 if alpha == 0.75 else 97):
        assert np.array_equal(k.fourier(xi[i:i + 1]), batch[i:i + 1]), xi[i]


@pytest.mark.parametrize("alpha", GM_TABLE_ORDERS)
def test_gm_hat_is_odd_bit_for_bit_on_the_band(alpha):
    xi = np.concatenate([gm_mid_band(alpha), [0.0, 1e-9, 0.1, 60.0]])
    k = marcinkiewicz_kernel(alpha)
    assert np.array_equal(k.fourier(-xi), -k.fourier(xi))


def test_gm_table_is_built_once_per_order():
    assert _graded_table(0.75) is _graded_table(0.75)
    assert _graded_table(0.75).chebyshev.shape == (13, 25)


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


def assert_matches_dense_sum(alpha, x):
    # the same nodes in each run, so the same zeros, and the sums within round-off
    got = _smoothed_riesz_core(ball_average_profile(1), alpha, (x,))
    want = riesz_ball_average_dense(alpha, x)
    assert np.array_equal(got == 0.0, want == 0.0)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.9])
@pytest.mark.parametrize("size", [1, 2, 205, 1001, 200_000])
def test_riesz_1d_runs_of_nodes_match_the_dense_sum(alpha, size):
    # 200 000 points are the majorant's midpoints on [0, 1024]
    if size == 200_000:
        x = (np.arange(size) + 0.5) * (1024.0 / size)
    else:
        x = np.random.default_rng(size).uniform(-8.0, 8.0, size)
    assert_matches_dense_sum(alpha, x)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.9])
def test_riesz_1d_runs_of_nodes_take_the_dense_sums_ties(alpha):
    # x +- rho_i lands on +-1 or a rounding away: each node's membership
    # there is the dense test's, or its weight would show far above 1e-12;
    # the anchor at 8 fixes the batch's reach, and every tie lies within it
    anchor = 8.0
    rho, _ = riesz_radial_rule(alpha, anchor + 1.5)
    rho = rho[rho < anchor - 1.0]
    ties = np.concatenate([1.0 - rho, -1.0 - rho, rho - 1.0, rho + 1.0])
    x = np.concatenate([[anchor], ties, np.nextafter(ties, -np.inf), np.nextafter(ties, np.inf)])
    assert_matches_dense_sum(alpha, x)


def test_riesz_difference_1d_needs_the_ball():
    ball = ball_average_profile(1)
    other = replace(ball, kernel=replace(ball.kernel, name="box"))
    with pytest.raises(ValueError, match="'box' is not the ball"):
        riesz_difference_kernel(0.5, other)


# the spatial quadratures walk their points in blocks of the chunk budget:
# a budget of one byte gives blocks of 2 points, the least, and one of
# 2**40 bytes a single block for every batch here
BLOCK_BUDGETS = {"2-point blocks": 1, "default": grid._CHUNK_BYTES, "one block": 2**40}


def bits_at_each_budget(monkeypatch, evaluate) -> dict[str, bytes]:
    bits = {}
    for name, budget in BLOCK_BUDGETS.items():
        monkeypatch.setattr(grid, "_CHUNK_BYTES", budget)
        bits[name] = evaluate().tobytes()
    return bits


@pytest.mark.parametrize("size", [1, 2, 5, 2049])
def test_blocked_quadrature_bits_do_not_depend_on_the_block(monkeypatch, size):
    weights = np.random.default_rng(3).standard_normal(160)
    points = np.linspace(-3.0, 7.0, size)
    integrand = lambda x: np.cos(np.outer(np.arange(1.0, 161.0), x))
    bits = bits_at_each_budget(monkeypatch, lambda: _blocked_quadrature(weights, integrand, points))
    assert len(set(bits.values())) == 1, bits.keys()
    batch = _blocked_quadrature(weights, integrand, points)
    for i in range(0, size, 97):  # a point alone has its bits in the batch too
        assert _blocked_quadrature(weights, integrand, points[i:i + 1]).tobytes() == batch[i:i + 1].tobytes()


# at the default budget the 1-D side takes 204 points a block and the 2-D
# side 341, so 205 and 342 points leave a lone point after a block, as 7
# points do after three 2-point blocks
@pytest.mark.parametrize("dim,size", [(1, 1), (1, 2), (1, 7), (1, 205), (2, 1), (2, 2), (2, 7), (2, 342)])
def test_riesz_spatial_bits_do_not_depend_on_the_block(monkeypatch, dim, size):
    k = riesz_difference_kernel(dim - 0.5, ball_average_profile(dim))
    coords = np.random.default_rng(size).uniform(-6.0, 6.0, (dim, size))
    bits = bits_at_each_budget(monkeypatch, lambda: k.spatial(*coords))
    assert len(set(bits.values())) == 1, bits.keys()


@pytest.mark.parametrize("dim,size", [(1, 20_000), (2, 2_000)])
def test_riesz_spatial_peak_is_bounded_by_the_budget(dim, size):
    # the block temporaries, a few at a time, each within the budget, beside
    # a few arrays of one value per point (coordinates, radii, outputs)
    k = riesz_difference_kernel(dim - 0.5, ball_average_profile(dim))
    x = np.linspace(-50.0, 50.0, size)
    coords = (x,) if dim == 1 else (x / 2.0, np.flip(x) / 4.0)
    k.spatial(*(c[:2] for c in coords))  # warm the radial rule's cache
    tracemalloc.start()
    try:
        k.spatial(*coords)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 8 * grid._CHUNK_BYTES + 8 * (8 * size)
    assert peak < bound, f"peak {peak / 2**20:.2f} MiB, bound {bound / 2**20:.2f} MiB"


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


def test_sgn_difference_needs_an_even_profile():
    # the spatial side is evaluated on |x|, which only an even profile allows
    p = ball_average_profile(1)
    uneven = replace(p, kernel=replace(p.kernel, radial=False))
    with pytest.raises(ValueError, match="not even"):
        sgn_difference_kernel(uneven)


def test_sgn_difference_spatial_batch_is_pointwise():
    # each point must not depend on the rest of the batch
    k = kernel_from_id("sgn-diff:ball")
    x = np.linspace(-1.5, 1.5, 5000)
    pointwise = np.array([k.spatial(np.array([v]))[0] for v in x])
    assert np.array_equal(k.spatial(x), pointwise)


SGN_POINTS = [0.0, 1.0, -1.0, 2.5, -2.5, 0.3, -0.7, 0.999, -1.0 + 1e-9, 1.5, 1e-12]


def test_sgn_difference_spatial_matches_quad():
    # sgn - sgn * ball against adaptive quadrature of the convolution
    k = kernel_from_id("sgn-diff:ball")
    want = np.array([np.sign(x) - sgn_ball_average_quad(x) for x in SGN_POINTS])
    isolated = np.array([k.spatial(np.array([x]))[0] for x in SGN_POINTS])
    batched = k.spatial(np.array(SGN_POINTS))
    for got in (isolated, batched):
        assert np.all(np.imag(got) == 0.0)
        assert np.max(np.abs(np.real(got) - want)) <= 1e-12


# moduli on both sides of the switch from the Taylor series of 1 - profilehat
DEFICIT_PROBES = [1e-6, 1e-4, 1.5e-3, 0.04, 0.06]


def _rel_err(got: complex, want) -> float:
    return abs(complex(got) - complex(want)) / abs(complex(want))


@pytest.mark.parametrize("rho", DEFICIT_PROBES)
def test_ball_deficit_vs_mpmath(rho):
    assert _rel_err(profile_from_id("ball", 1).deficit(np.array([rho]))[0],
                    ball_deficit_mpmath(rho, 1)) <= 1e-13
    assert _rel_err(profile_from_id("ball", 2).deficit(np.array([rho]), np.array([0.0]))[0],
                    ball_deficit_mpmath(rho, 2)) <= 1e-13


@pytest.mark.parametrize("rho", DEFICIT_PROBES)
@pytest.mark.parametrize("kid", ["riesz-diff:0.5:ball", "riesz-diff:1.5:ball:2", "riesz-diff:0.5:ball:2"])
def test_riesz_difference_hat_near_origin_vs_mpmath(kid, rho):
    import mpmath

    k = kernel_from_id(kid)
    alpha = float(kid.split(":")[1])
    if k.dim == 1:
        points = [(np.array([rho]),), (np.array([-rho]),)]
    else:
        points = [(np.array([rho]), np.array([0.0])),
                  (np.array([rho * math.cos(0.7)]), np.array([rho * math.sin(0.7)]))]
    for coords in points:
        with mpmath.workdps(40):
            mod = mpmath.sqrt(sum(mpmath.mpf(float(c[0])) ** 2 for c in coords))
            want = (2 * mpmath.pi * mod) ** (-alpha) * ball_deficit_mpmath(mod, k.dim)
        assert _rel_err(k.fourier(*coords)[0], want) <= 1e-13, coords


@pytest.mark.parametrize("rho", DEFICIT_PROBES)
def test_sgn_difference_hat_near_origin_vs_mpmath(rho):
    import mpmath

    k = kernel_from_id("sgn-diff:ball")
    for xi in (rho, -rho):
        with mpmath.workdps(40):
            want = -1j * ball_deficit_mpmath(xi, 1) / (mpmath.pi * xi)
        assert _rel_err(k.fourier(np.array([xi]))[0], want) <= 1e-13, xi


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


# exponents of the rules the package builds: Legendre, the panels' edge and origin
# gradings, gm and mar-scan orders from 2^-10 to 1024 (end = alpha - 1), riesz-diff
JACOBI_EXPONENTS = [0.0, -0.25, -0.5, 0.75, 1.5, 2.0**-10 - 1.0, 1023.0, -0.7668787372852778]


def _has_finite_mass(a, b):
    # 2^(a+b+1) B(a+1, b+1): (2^-10 - 1, 1023) overflows in scipy's rule as in ours
    return (a + b + 1.0) * math.log(2.0) + betaln(a + 1.0, b + 1.0) < math.log(np.finfo(float).max)


@pytest.mark.parametrize("n", [2, 16, 24, 48, 64, 96, 160])
def test_roots_jacobi_is_scipys_rule_bit_for_bit(n):
    # mar-scan's stored argmax and the stored majorant_l1 ride on the rule's last bit
    pairs = [(a, b) for a in JACOBI_EXPONENTS for b in JACOBI_EXPONENTS
             if (a != b or a == 0.0) and _has_finite_mass(a, b)]
    assert len(pairs) == 55
    for a, b in pairs:
        x, w = roots_jacobi(n, a, b)
        x_ref, w_ref = scipy_roots_jacobi(n, a, b)
        assert np.array_equal(x, x_ref), (n, a, b)
        assert np.array_equal(w, w_ref), (n, a, b)


@pytest.mark.parametrize("n", [0, -3, 2.5, math.nan, math.inf, "8", None])
def test_roots_jacobi_refuses_a_bad_order(n):
    with pytest.raises(ValueError, match="order must be a positive integer") as exc:
        roots_jacobi(n, 0.5, 0.0)
    assert repr(n) in str(exc.value)


@pytest.mark.parametrize("a, b", [(-1.0, 0.0), (0.0, -1.5), (math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.5)])
def test_roots_jacobi_refuses_a_bad_exponent(a, b):
    bad = a if not (math.isfinite(a) and a > -1.0) else b
    with pytest.raises(ValueError, match="exponent .* must be finite and > -1") as exc:
        roots_jacobi(8, a, b)
    assert repr(bad) in str(exc.value)


def test_roots_jacobi_refuses_a_weight_without_finite_mass():
    with pytest.raises(ValueError, match="no finite mass"):
        roots_jacobi(8, 2.0**-10 - 1.0, 1023.0)


def test_cached_jacobi_rule_is_read_only():
    s, w = _jacobi_rule(24, 0.75)
    for arr in (s, w):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    again = _jacobi_rule(24, 0.75)
    assert again[0] is s and again[1] is w


# ---------------------------------------------------------------------------
# the radial flag, which the scale-layer engine trusts

RADIAL_KERNELS = ["poisson-q", "poisson-q:2", "riesz-diff:0.5:ball", "riesz-diff:1.5:ball:2"]
RADIAL_PROFILES = [("ball", 1), ("ball", 2)]


def radial_cases():
    cases = [(kid, kernel_from_id(kid)) for kid in RADIAL_KERNELS]
    return cases + [(f"{pid}/{d}d", profile_from_id(pid, d).kernel) for pid, d in RADIAL_PROFILES]


def test_radial_flags_of_the_registry():
    for kid in ["haar", "gm:0.75", "sgn-diff:ball"]:
        assert not kernel_from_id(kid).radial, kid
    for _, kernel in radial_cases():
        assert kernel.radial, kernel.name


REGISTRY_1D = ["haar", "gm:0.75", "gm:1.25", "poisson-q", "riesz-diff:0.25:ball",
               "riesz-diff:0.5:ball", "riesz-diff:0.9:ball", "sgn-diff:ball"]


def radial_1d_cases():
    cases = [(kid, kernel_from_id(kid)) for kid in REGISTRY_1D]
    cases.append(("ball/1d", profile_from_id("ball", 1).kernel))
    return [(name, k) for name, k in cases if k.radial]


@pytest.mark.parametrize("name,kernel", radial_1d_cases(), ids=[c[0] for c in radial_1d_cases()])
def test_radial_1d_kernels_are_even_in_space(name, kernel):
    # the tag must hold in space too: the condition checkers sample a radial
    # kernel at r alone and take its value at -r to be the same bits
    rng = np.random.default_rng(23)
    r = np.concatenate([10.0 ** rng.uniform(-4.0, 2.0, 3000), [0.5, 1.0, 1.0 + 1e-12, 2.0]])
    assert np.array_equal(kernel.spatial(-r), kernel.spatial(r))


@pytest.mark.parametrize("name,kernel", radial_cases(), ids=[c[0] for c in radial_cases()])
def test_radial_kernels_depend_on_the_modulus_alone(name, kernel):
    rng = np.random.default_rng(17)
    rho = 10.0 ** rng.uniform(-3.0, 2.0, 2000)
    if kernel.dim == 1:
        got, want = kernel.fourier(-rho), kernel.fourier(rho)
    else:
        # the modulus of the sampled point itself: rounding it differently would
        # show the cancellation in 1 - ballhat at small |xi|, not a direction
        theta = rng.uniform(0.0, 2.0 * math.pi, rho.size)
        x, y = rho * np.cos(theta), rho * np.sin(theta)
        got = kernel.fourier(x, y)
        want = kernel.fourier(np.sqrt(x**2 + y**2), np.zeros_like(x))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# the odd flag, which the scale-layer engine and the condition checkers trust

ODD_KERNELS = ["haar", "gm:0.75", "gm:1", "gm:1.25", "sgn-diff:ball"]


def test_odd_flags_of_the_registry():
    for kid in ODD_KERNELS:
        assert kernel_from_id(kid).odd, kid
    for kid in ["poisson-q", "poisson-q:2", "riesz-diff:0.5:ball", "band:1:2"]:
        assert not kernel_from_id(kid).odd, kid
    for d in (1, 2):
        assert not profile_from_id("ball", d).kernel.odd


def odd_points() -> np.ndarray:
    """~3000 points over six decades, with 0, +-1 and 1 +- 1e-12."""
    rng = np.random.default_rng(29)
    x = 10.0 ** rng.uniform(-4.0, 2.5, 3000) * rng.choice((-1.0, 1.0), 3000)
    return np.concatenate([x, [0.0, 1.0, -1.0, 1.0 + 1e-12, 1.0 - 1e-12, -1.0 - 1e-12, 0.5, 2.0]])


@pytest.mark.parametrize("kid", ODD_KERNELS)
def test_odd_kernels_are_odd_bit_for_bit(kid):
    kernel, x = kernel_from_id(kid), odd_points()
    assert np.array_equal(kernel.spatial(-x), -kernel.spatial(x))
    assert np.array_equal(kernel.fourier(-x), -kernel.fourier(x))
