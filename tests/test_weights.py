import math

import numpy as np
import pytest

from scalesq import (
    BallFamily,
    Geometry,
    SampledField,
    ap_characteristic_products,
    ap_constant_estimate,
    ap_stability_report,
    constant_weight,
    dyadic_ball_family,
    gaussian_field,
    power_weight,
    weight_from_id,
    weighted_norm,
)


def test_constant_weight_positive_only():
    with pytest.raises(ValueError):
        constant_weight(0.0)
    w = constant_weight(2.0)
    assert np.all(w(np.array([1.0, -3.0])) == 2.0)


def test_power_weight_clamp():
    w = power_weight(-0.5, radius_floor=0.1)
    vals = w(np.array([0.0, 0.05, 1.0]))
    assert vals[0] == vals[1] == 0.1**-0.5
    assert math.isclose(vals[2], 1.0)


def test_weight_registry():
    assert weight_from_id("const").kind == "const"
    assert weight_from_id("pow:0.3").kind == "pow:0.3"
    with pytest.raises(ValueError):
        weight_from_id("pow:x")
    with pytest.raises(ValueError):
        weight_from_id("gauss")


def test_weighted_norm_manual(geom_small):
    f = SampledField(geom_small, np.ones(geom_small.shape))
    w = power_weight(1.0, radius_floor=None)
    # h * sum |x| over the grid
    expected = (geom_small.cell_volume * np.sum(np.abs(geom_small.spatial_axis()))) ** 0.5
    assert math.isclose(weighted_norm(f, 2.0, w), expected, rel_tol=1e-12)


def test_weighted_norm_p2_is_l2(geom_small):
    f = gaussian_field(geom_small)
    from scalesq import l2_norm

    assert math.isclose(weighted_norm(f, 2.0, constant_weight()), l2_norm(f), rel_tol=1e-12)


def test_weighted_norm_rejects_blowup(geom_small):
    f = gaussian_field(geom_small)
    w = power_weight(-2.0)  # infinite at the origin sample
    with pytest.raises(ValueError):
        weighted_norm(f, 2.0, w)


# ---------------------------------------------------------------------------
# ball families and characteristic products

def test_ball_family_validation():
    with pytest.raises(ValueError):
        BallFamily(1, ((( 0.0, 0.0), 1.0),))
    with pytest.raises(ValueError):
        BallFamily(1, (((0.0,), -1.0),))


def test_dyadic_ball_family_size():
    geom = Geometry(1, 256, 16.0)
    fam = dyadic_ball_family(geom, -2, 2, centers_per_axis=5)
    assert len(fam) == 5 * 5
    geom2 = Geometry(2, 64, 8.0)
    fam2 = dyadic_ball_family(geom2, 0, 1, centers_per_axis=3)
    assert len(fam2) == 2 * 9


def test_characteristic_product_constant_weight():
    geom = Geometry(1, 256, 16.0)
    fam = dyadic_ball_family(geom, -2, 2)
    prods = ap_characteristic_products(constant_weight(3.0), 2.0, fam)
    assert np.allclose(prods, 1.0, rtol=1e-12)


def test_characteristic_product_at_least_one():
    geom = Geometry(1, 256, 16.0)
    fam = dyadic_ball_family(geom, -3, 3)
    w = power_weight(0.3, radius_floor=None)
    prods = ap_characteristic_products(w, 2.0, fam)
    assert np.all(prods >= 1.0 - 1e-9)


def test_ap_estimate_inside_range_is_stable():
    # |x|^0.3 lies in A_2 on the line (needs -1 < a < 1)
    geom = Geometry(1, 256, 16.0)
    rep = ap_stability_report(power_weight(0.3), 2.0, geom)
    assert rep["stable"]
    assert rep["estimate"] >= 1.0


def test_ap_estimate_outside_range_grows():
    # |x|^1.5 fails A_2; the dual-average integral diverges, so refining
    # toward the origin keeps inflating the estimate
    geom = Geometry(1, 256, 16.0)
    rep = ap_stability_report(power_weight(1.5), 2.0, geom)
    assert not rep["stable"]
    assert rep["refined_estimate"] > rep["estimate"] * 1.2


def test_ap_estimate_in_two_dimensions():
    # |x|^0.3 lies in A_2 on the plane (needs -2 < a < 2), |x|^3 does not
    geom = Geometry(2, 64, 8.0)
    rep = ap_stability_report(power_weight(0.3), 2.0, geom, j_min=-2, j_max=1, samples_per_ball=16)
    assert rep["stable"] and rep["estimate"] >= 1.0
    rep = ap_stability_report(power_weight(3.0), 2.0, geom, j_min=-2, j_max=1, samples_per_ball=16)
    assert not rep["stable"] and rep["refined_estimate"] > rep["estimate"] * 1.2


def test_ap_products_reject_nonpositive_weight():
    geom = Geometry(1, 256, 16.0)
    fam = dyadic_ball_family(geom, 0, 0)
    from scalesq import Weight

    w = Weight(lambda x: np.zeros(np.shape(x)), kind="zero")
    with pytest.raises(ValueError):
        ap_characteristic_products(w, 2.0, fam)


def test_ap_needs_p_above_one():
    geom = Geometry(1, 256, 16.0)
    fam = dyadic_ball_family(geom, 0, 0)
    with pytest.raises(ValueError):
        ap_constant_estimate(constant_weight(), 1.0, fam)
