import itertools
import math

import numpy as np
import pytest

from scalesq import (
    Geometry,
    SampledField,
    constant_weight,
    gaussian_field,
    power_weight,
    weight_from_id,
    weighted_norm,
)
from scalesq.weights import require_ap_weight
from oracles import ap_estimates


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
    x = np.array([-2.0, 0.5])
    assert np.array_equal(weight_from_id("const")(x), [1.0, 1.0])
    assert np.array_equal(weight_from_id("pow:0.3")(x), np.abs(x) ** 0.3)
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
# the A_p gate against the estimate of the A_p constant over balls
#
# For every dim and p the weights |x|^A sit 0.5 inside and 0.5 outside each
# end of the gate's range; at the upper end, for p > 2, the margin is 0.5 in
# the dual weight's exponent A/(p-1), which is then the wider one.  Outside,
# one average is not integrable at the centre: the ball centred there gives
# the same product at every radius, and doubling its sampling multiplies it
# by 2^0.5 or more, so the refined estimate grows by 40% or more.  Inside,
# the midpoint rule converges and the refinement moves the estimate by a few
# percent.  Stable means a drift of at most 20%.

AP_CASES = {1: (Geometry(1, 256, 16.0), {}), 2: (Geometry(2, 64, 8.0), {"j_min": -2, "j_max": 1, "m": 64})}


def ap_weights(dim: int, p: float, inside: bool):
    lo, hi = -dim, dim * (p - 1.0)
    step = 0.5 if inside else -0.5
    return [lo + step, hi - step * max(1.0, p - 1.0)]


def ap_drift(dim: int, p: float, a: float) -> float:
    geom, sizes = AP_CASES[dim]
    base, refined = ap_estimates(power_weight(a), p, geom, **sizes)
    assert base >= 1.0 - 1e-9  # the product is at least 1 on every ball (Jensen)
    return abs(refined - base) / base


def test_ap_estimate_inside_range_is_stable():
    for dim, p in itertools.product((1, 2), (1.5, 2.0, 3.0)):
        for a in ap_weights(dim, p, inside=True):
            require_ap_weight(f"pow:{a:g}", dim, p)
            assert ap_drift(dim, p, a) <= 0.2, (dim, p, a)


def test_ap_estimate_outside_range_grows():
    for dim, p in itertools.product((1, 2), (1.5, 2.0, 3.0)):
        for a in ap_weights(dim, p, inside=False):
            with pytest.raises(ValueError, match="is not in A_"):
                require_ap_weight(f"pow:{a:g}", dim, p)
            assert ap_drift(dim, p, a) > 0.2, (dim, p, a)


def test_ap_estimate_in_two_dimensions():
    # |x|^0.3 lies in A_2 on the plane (needs -2 < a < 2), |x|^3 does not
    geom, sizes = AP_CASES[2]
    base, refined = ap_estimates(power_weight(0.3), 2.0, geom, **sizes)
    assert abs(refined - base) <= 0.2 * base and base >= 1.0
    base, refined = ap_estimates(power_weight(3.0), 2.0, geom, **sizes)
    assert refined > base * 1.2


def test_characteristic_product_constant_weight():
    for dim, (geom, sizes) in AP_CASES.items():
        assert ap_estimates(constant_weight(3.0), 2.0, geom, **sizes) == pytest.approx((1.0, 1.0), rel=1e-12)


def test_characteristic_product_at_least_one():
    geom = Geometry(1, 256, 16.0)
    for a in (-0.5, 0.3, 0.9):
        base, refined = ap_estimates(power_weight(a, radius_floor=None), 2.0, geom, -3, 3)
        assert min(base, refined) >= 1.0 - 1e-9
