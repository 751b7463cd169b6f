import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import beta

from scalesq import (
    Kernel,
    band_indicator_kernel,
    condition_summary,
    fourier_decay_check,
    haar_kernel,
    hormander_energy,
    kernel_from_id,
    local_power_integral,
    marcinkiewicz_estimate_scan,
    marcinkiewicz_kernel,
    nondegeneracy_check,
    poisson_derivative_kernel,
    radial_majorant_l1,
    tail_moment_integral,
)
from scalesq import conditions
from scalesq.conditions import _angular_power_sum, _panel, _radial_abs_max
from oracles import (
    gm_local_power_closed,
    haar_hormander_closed,
    hormander_quad,
    max_scaled_modulus_loop,
    nondegeneracy_loop,
    poisson_local_power_quad,
    poisson_majorant_l1_closed,
    poisson_tail_moment_quad,
    scan_max_pointwise,
    scan_ratio_alpha1_closed,
)


# ---------------------------------------------------------------------------
# integrability checkers against closed forms

def test_haar_tail_moment_zero():
    assert tail_moment_integral(haar_kernel(), 0.5) == 0.0
    with pytest.raises(ValueError):
        tail_moment_integral(haar_kernel(), 0.0)


def test_haar_local_power_is_two():
    for u in (2.0, 4.0):
        assert math.isclose(local_power_integral(haar_kernel(), u), 2.0, rel_tol=1e-12)
    with pytest.raises(ValueError):
        local_power_integral(haar_kernel(), 1.0)


def test_haar_majorant_is_two():
    assert math.isclose(radial_majorant_l1(haar_kernel()), 2.0, rel_tol=1e-12)


@pytest.mark.parametrize("alpha", [0.75, 1.25])
@pytest.mark.parametrize("u", [2.0, 3.0])
def test_gm_local_power_closed_form(alpha, u):
    got = local_power_integral(marcinkiewicz_kernel(alpha), u)
    assert math.isclose(got, gm_local_power_closed(alpha, u), rel_tol=1e-9)


def test_gm_divergences():
    # u (alpha - 1) + 1 hits zero at u = 4 for alpha = 3/4
    k = marcinkiewicz_kernel(0.75)
    assert math.isinf(local_power_integral(k, 4.0))
    assert math.isinf(radial_majorant_l1(k))
    assert tail_moment_integral(k, 0.5) == 0.0


def test_gm_majorant_above_one():
    # the edge vanishes instead of blowing up, so the envelope integrates to 2
    assert math.isclose(radial_majorant_l1(marcinkiewicz_kernel(1.25)), 2.0, rel_tol=1e-6)


def test_poisson_tail_moment_vs_quad():
    got = tail_moment_integral(poisson_derivative_kernel(1), 0.5)
    assert math.isclose(got, poisson_tail_moment_quad(0.5), rel_tol=1e-5)


@pytest.mark.parametrize("u", [2.0, 4.0])
def test_poisson_local_power_vs_quad(u):
    got = local_power_integral(poisson_derivative_kernel(1), u)
    assert math.isclose(got, poisson_local_power_quad(u), rel_tol=1e-9)


@pytest.mark.parametrize("kid", ["riesz-diff:0.5:ball", "sgn-diff:ball"])
def test_majorant_memory_is_bounded(kid):
    # 200 000 radial samples against 160-256 quadrature nodes would take
    # about 1.5 GB of temporaries in one piece
    kernel = kernel_from_id(kid)
    tracemalloc.start()
    try:
        radial_majorant_l1(kernel)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


@pytest.mark.parametrize("u", [2.0, 4.0])
def test_sgn_difference_local_power_closed_form(u):
    # |sgn(x) - clip(x, -1, 1)|^u = (1 - |x|)^u on the ball
    got = local_power_integral(kernel_from_id("sgn-diff:ball"), u)
    assert abs(got - 2.0 / (u + 1.0)) <= 1e-13


def test_sgn_difference_majorant_is_one():
    # the envelope of 1 - |x| is itself; its integral over [-1, 1] is 1
    assert abs(radial_majorant_l1(kernel_from_id("sgn-diff:ball")) - 1.0) <= 1e-12


@pytest.mark.parametrize("kid", ["poisson-q", "riesz-diff:0.5:ball", "riesz-diff:0.25:ball"])
def test_radial_sphere_is_one_point_in_1d(kid):
    # one point r stands for the pair {-r, r}: the same bits as the untagged kernel
    kernel = kernel_from_id(kid)
    untagged = replace(kernel, radial=False)
    r = np.concatenate([np.geomspace(1e-4, 40.0, 3001), [0.5, 1.0, 1.5]])
    assert np.array_equal(_radial_abs_max(kernel, r), _radial_abs_max(untagged, r))
    for u in (1.0, 2.0, 4.0):
        assert np.array_equal(
            _angular_power_sum(kernel, r, u), _angular_power_sum(untagged, r, u)
        )


@pytest.mark.parametrize("kid", ["gm:0.75", "haar"])
def test_odd_sphere_is_one_point_in_1d(kid):
    # |psi(-r)| == |psi(r)| for an odd kernel, so r stands for {-r, r} as for a radial one
    kernel = kernel_from_id(kid)
    untagged = replace(kernel, odd=False)
    r = np.concatenate([np.geomspace(1e-4, 40.0, 3001), [0.5, 1.0, 1.0 - 1e-12, 1.5]])
    assert np.array_equal(_radial_abs_max(kernel, r), _radial_abs_max(untagged, r))
    for u in (1.0, 2.0, 4.0):
        assert np.array_equal(
            _angular_power_sum(kernel, r, u), _angular_power_sum(untagged, r, u)
        )


def test_poisson_majorant_closed_form():
    got = radial_majorant_l1(poisson_derivative_kernel(1))
    assert math.isclose(got, poisson_majorant_l1_closed(), rel_tol=1e-4)


def test_spatial_checks_need_spatial():
    band = band_indicator_kernel(1.5, 1.6)
    with pytest.raises(ValueError, match="spatial"):
        tail_moment_integral(band, 0.5)
    with pytest.raises(ValueError, match="spatial"):
        radial_majorant_l1(band)


# ---------------------------------------------------------------------------
# Fourier-side checkers

def test_fourier_decay_haar():
    # |haarhat(xi)| xi = 2 sin^2(pi xi) / pi, peaking at exactly 2/pi
    rep = fourier_decay_check(haar_kernel(), 1.0)
    assert rep.passed
    assert math.isclose(rep.c_est, 2.0 / math.pi, rel_tol=1e-3)
    assert not fourier_decay_check(haar_kernel(), 1.5).passed
    with pytest.raises(ValueError):
        fourier_decay_check(haar_kernel(), 0.0)


def test_nondegeneracy_haar():
    for mode in ("continuous", "dyadic"):
        rep = nondegeneracy_check(haar_kernel(), mode)
        assert rep.passed
        assert rep.min_value > 0.1
    with pytest.raises(ValueError, match="mode"):
        nondegeneracy_check(haar_kernel(), "sideways")


def test_nondegeneracy_band_gap():
    # a band thinner than an octave misses frequencies under dyadic dilation
    # but every direction still meets it along the continuous scale ray
    band = band_indicator_kernel(1.5, 1.6)
    assert nondegeneracy_check(band, "continuous").passed
    rep = nondegeneracy_check(band, "dyadic")
    assert not rep.passed
    assert rep.min_value == 0.0


SCAN_KERNELS = ["haar", "gm:0.75", "gm:1", "gm:1.25", "poisson-q", "poisson-q:2",
                "riesz-diff:0.25:ball", "riesz-diff:0.5:ball", "riesz-diff:1.5:ball:2",
                "sgn-diff:ball", "band:1:2", "band:1.5:1.6"]


@pytest.mark.parametrize("mode", ["continuous", "dyadic"])
@pytest.mark.parametrize("kid", SCAN_KERNELS)
def test_nondegeneracy_scan_matches_the_loop(kid, mode):
    # one kernel call for the whole scan gives the per-candidate loop's bits,
    # and argmin the first of tied minima (band:1.5:1.6 ties at 0 in dyadic mode)
    kernel = kernel_from_id(kid)
    rep = nondegeneracy_check(kernel, mode)
    min_value, direction = nondegeneracy_loop(kernel, mode)
    assert rep.min_value == min_value
    assert rep.worst_direction == direction


@pytest.mark.parametrize("kid", SCAN_KERNELS)
def test_decay_scan_matches_the_loop(kid):
    kernel = kernel_from_id(kid)
    delta = kernel.fourier_tail_exponent or 0.5
    for xi_max in (256.0, 512.0):
        assert conditions._max_scaled_modulus(kernel, delta, xi_max, 256) == max_scaled_modulus_loop(
            kernel, delta, xi_max, 256
        )


@pytest.mark.parametrize("kid", ["gm:0.75", "riesz-diff:1.5:ball:2"])
def test_scans_call_the_kernel_once(kid):
    # once per nondegeneracy mode, and twice per decay ceiling (coarse, then fine)
    kernel, calls = kernel_from_id(kid), []

    def fourier(*xi):
        calls.append(np.broadcast_shapes(*(np.shape(x) for x in xi)))
        return kernel.fourier(*xi)

    counted = replace(kernel, fourier=fourier)
    for mode in ("continuous", "dyadic"):
        calls.clear()
        nondegeneracy_check(counted, mode)
        assert len(calls) == 1, mode
    calls.clear()
    fourier_decay_check(counted, 0.5)
    assert len(calls) == 4


# ---------------------------------------------------------------------------
# shift energy

HAAR_POINTS = [(1.0, 0.1), (2.0, -0.3), (-1.5, 0.2), (-0.7, -0.12)]


@pytest.mark.parametrize("x,y", HAAR_POINTS)
def test_hormander_haar_closed_form(x, y):
    got = hormander_energy(haar_kernel(), x, y)
    assert math.isclose(got, haar_hormander_closed(x, y), rel_tol=1e-12)


def test_hormander_gates():
    with pytest.raises(ValueError, match="one-dimensional"):
        hormander_energy(poisson_derivative_kernel(2), 1.0, 0.1)
    with pytest.raises(ValueError, match="y"):
        hormander_energy(haar_kernel(), 1.0, 0.6)
    assert hormander_energy(haar_kernel(), 1.0, 0.0) == 0.0


def test_hormander_gm_one_matches_haar():
    k = marcinkiewicz_kernel(1.0)
    for x, y in HAAR_POINTS:
        assert math.isclose(
            hormander_energy(k, x, y), hormander_energy(haar_kernel(), x, y),
            rel_tol=1e-12,
        )


@pytest.mark.parametrize("alpha", [0.75, 1.25])
@pytest.mark.parametrize("x,y", [(1.0, 0.1), (1.0, -0.2)])
def test_hormander_gm_vs_quad(alpha, x, y):
    k = marcinkiewicz_kernel(alpha)
    assert math.isclose(hormander_energy(k, x, y), hormander_quad(k, x, y), rel_tol=1e-6)


def test_hormander_unbounded_edge_diverges():
    # grading below 1/2 makes the edge term fail to be square integrable
    assert math.isinf(hormander_energy(marcinkiewicz_kernel(0.4), 1.0, 0.1))


def test_hormander_poisson_positive_finite():
    # unbounded-support branch: no closed form, just the basic sanity
    val = hormander_energy(poisson_derivative_kernel(1), 1.0, 0.1)
    assert 0.0 < val < math.inf


# ---------------------------------------------------------------------------
# the scan

@pytest.mark.parametrize("kid", ["gm:0.75", "haar", "poisson-q"])
def test_hormander_energy_scale_law(kid):
    # lambda^2 E(lambda x, lambda y) = E(x, y): the energy depends on the
    # signs and y/x alone apart from its x^-2, which the scan relies on
    k = kernel_from_id(kid)
    for sx in (1.0, -1.0):
        for sy in (1.0, -1.0):
            x, y = sx * 1.3, sy * 0.21
            base = hormander_energy(k, x, y)
            for lam in (2.0**-3.5, 0.37, 3.0, 2.0**4.25):
                got = lam**2 * hormander_energy(k, lam * x, lam * y)
                assert math.isclose(got, base, rel_tol=1e-13), (sx, sy, lam)


def test_scan_ratio_curve_matches_closed_form():
    k = marcinkiewicz_kernel(1.0)
    for m in (2, 3, 4):
        rho = 2.0**-m
        same = hormander_energy(k, 1.0, rho) / rho
        assert math.isclose(same, scan_ratio_alpha1_closed(rho, True), rel_tol=1e-12)
        opp = hormander_energy(k, 1.0, -rho) / rho
        assert math.isclose(opp, scan_ratio_alpha1_closed(rho, False), rel_tol=1e-12)


def test_scan_alpha_one_report():
    rep = marcinkiewicz_estimate_scan(1.0)
    assert rep.passed
    assert math.isclose(rep.max_ratio, 14.0 / 9.0, rel_tol=1e-10)
    assert abs(rep.refinement_delta) < 1e-10
    assert abs(abs(rep.argmax[1] / rep.argmax[0]) - 0.25) < 1e-12


def test_scan_without_refinement():
    rep = marcinkiewicz_estimate_scan(0.75, refine=False)
    assert math.isfinite(rep.max_ratio)
    assert math.isnan(rep.refinement_delta)
    assert rep.passed


@pytest.mark.parametrize("alpha", [0.75, 1.0, 1.25])
def test_scan_matches_pointwise_scan(alpha, monkeypatch):
    k = marcinkiewicz_kernel(alpha)
    coarse = scan_max_pointwise(k, alpha, 0.25, 1.0, 64)
    fine = scan_max_pointwise(k, alpha, 0.125, 0.5, 128)
    calls = []
    energy = conditions.hormander_energy
    monkeypatch.setattr(
        conditions, "hormander_energy", lambda *a: calls.append(a) or energy(*a)
    )
    rep = marcinkiewicz_estimate_scan(alpha, refine=False)
    assert (rep.max_ratio, rep.argmax) == coarse
    # one energy per (sgn x, 1 - y/x) class: 2 x-signs, 2 y-signs, 11 m
    assert len(calls) == 44
    rep = marcinkiewicz_estimate_scan(alpha)
    assert (rep.max_ratio, rep.argmax) == fine
    assert rep.refinement_delta == (fine[0] - coarse[0]) / coarse[0]


def test_scan_alpha_gate():
    for bad in (0.5, 1.5, 2.0):
        with pytest.raises(ValueError, match="alpha"):
            marcinkiewicz_estimate_scan(bad)


def test_scan_report_dict_is_json():
    d = marcinkiewicz_estimate_scan(1.0, refine=False).as_dict()
    json.dumps(d)
    assert set(d) == {"alpha", "max_ratio", "argmax", "refinement_delta", "pass"}


# ---------------------------------------------------------------------------
# aggregate summary

def test_condition_summary_haar():
    s = condition_summary(haar_kernel())
    assert s["kernel"] == "haar"
    assert s["cancellation_modulus"] == 0.0
    assert s["tail_moment"]["value"] == 0.0
    assert s["local_power"]["u=2"]["value"] == pytest.approx(2.0)
    assert s["majorant_l1"]["value"] == pytest.approx(2.0)
    assert s["fourier_decay"]["pass"]
    assert s["nondegeneracy"]["continuous"]["pass"]
    assert s["nondegeneracy"]["dyadic"]["pass"]
    json.dumps(s)


def test_condition_summary_divergent_flags():
    s = condition_summary(marcinkiewicz_kernel(0.75))
    assert s["local_power"]["u=4"] == {"value": None, "divergent": True}
    assert s["majorant_l1"] == {"value": None, "divergent": True}
    json.dumps(s)


def test_condition_summary_spectral_only():
    s = condition_summary(band_indicator_kernel(1.5, 1.6))
    assert "tail_moment" not in s
    assert "skipped" in s["spatial_checks"]
    assert not s["nondegeneracy"]["dyadic"]["pass"]
    json.dumps(s)


# ---------------------------------------------------------------------------
# the shared panel rule and sphere sampler

PANEL_EXPONENTS = [0.0, -0.5, -0.25, 0.75, 1.5]


@pytest.mark.parametrize("end", PANEL_EXPONENTS)
@pytest.mark.parametrize("start", PANEL_EXPONENTS)
def test_panel_beta_closed_forms(end, start):
    # integral_a^b (b-u)^end (u-a)^start (u-a)^k du = (b-a)^(end+start+k+1) B(end+1, start+k+1)
    a, b = 0.3, 2.1
    const = _panel(np.ones_like, a, b, 24, end, start)
    linear = _panel(lambda u: u - a, a, b, 24, end, start)
    width = b - a
    assert const == pytest.approx(width ** (end + start + 1.0) * beta(end + 1.0, start + 1.0), rel=1e-12, abs=0)
    assert linear == pytest.approx(width ** (end + start + 2.0) * beta(end + 1.0, start + 2.0), rel=1e-12, abs=0)


def _tilted_gaussian_kernel() -> Kernel:
    """psi(x, y) = x exp(-pi (x^2 + y^2)): 2-D and not radial, so its spheres need the angle grid."""
    return Kernel(
        dim=2,
        name="x-gauss",
        spatial=lambda x, y: (x * np.exp(-np.pi * (x**2 + y**2))).astype(complex),
        fourier=lambda u, v: -1j * u * np.exp(-np.pi * (u**2 + v**2)),
        fourier_mode="closed_form",
        support_radius=math.inf,
        cancellation_order=0,
    )


def test_non_radial_local_power_closed_form():
    # integral_{|x|<1} x^2 e^(-2 pi |x|^2) dx = (pi/2) integral_0^1 v e^(-2 pi v) dv
    exact = (math.pi / 2.0) * (1.0 - math.exp(-2.0 * math.pi) * (1.0 + 2.0 * math.pi)) / (4.0 * math.pi**2)
    assert local_power_integral(_tilted_gaussian_kernel(), 2.0) == pytest.approx(exact, rel=1e-12, abs=0)


def test_non_radial_sphere_max_over_midpoint_angles():
    r = np.array([0.1, 0.5, 1.3, 3.0])
    # the midpoint angle nearest the x axis is pi/64
    expected = r * np.exp(-np.pi * r**2) * math.cos(math.pi / 64.0)
    np.testing.assert_allclose(_radial_abs_max(_tilted_gaussian_kernel(), r), expected, rtol=1e-13, atol=0)


def test_untagged_1d_sphere_is_both_points():
    # neither even nor odd, so |psi(-r)| != |psi(r)|: the sphere {-r, r} needs both
    k = Kernel(
        dim=1,
        name="shifted-gauss",
        spatial=lambda x: np.exp(-np.pi * (x - 0.5) ** 2).astype(complex),
        fourier=lambda xi: np.exp(-np.pi * xi**2 - 1j * np.pi * xi),
        fourier_mode="closed_form",
        support_radius=math.inf,
        cancellation_order=-1,
    )
    r = np.array([0.1, 0.5, 1.3, 3.0])
    plus, minus = np.exp(-np.pi * (r - 0.5) ** 2), np.exp(-np.pi * (r + 0.5) ** 2)
    np.testing.assert_allclose(_radial_abs_max(k, r), plus, rtol=1e-15, atol=0)
    np.testing.assert_allclose(_angular_power_sum(k, r, 2.0), plus**2 + minus**2, rtol=1e-14, atol=0)
