import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scalesq import (
    DegenerateSymbolError,
    DyadicRange,
    Geometry,
    LogTimeGrid,
    SampledField,
    Symbol,
    apply_multiplier,
    bessel_split_symbol,
    bessel_symbol,
    continuous_symbol,
    continuous_tail_estimate,
    default_dyadic_range,
    default_time_grid,
    dyadic_defect_bound,
    dyadic_symbol,
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
from oracles import (
    centred_homogeneity_defect,
    centred_min_modulus,
    centred_sample,
    forward_transform,
    full_grid_multiplier,
)

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
    assert sym.sample(geom_small)[0] == 0.0  # the zero frequency comes first in FFT order
    assert sym.sample(geom_small, half=True)[0] == 0.0


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


@pytest.mark.parametrize("dim", [1, 2])
def test_homogeneity_defect_is_the_max_over_nonzero_frequencies(dim):
    # a NaN at the zero frequency must not reach the max
    geom = Geometry(dim, 16, 4.0)
    n = geom.n_samples
    vals = np.random.default_rng(dim).standard_normal(geom.shape) + 0j
    vals[(0,) * dim] = np.nan
    at = lambda j: vals[tuple(np.mod(j, n))]  # FFT index of frequency j
    js = np.array(np.meshgrid(*[np.arange(-n // 4, n // 4)] * dim)).reshape(dim, -1).T
    want = max(abs(at(2 * j) - at(j)) for j in js if j.any())
    assert sampled_homogeneity_defect(vals, geom) == want


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
    F = forward_transform(f)  # centred, as fftshift puts the FFT-order sample
    vals = np.fft.fftshift(sym.sample(geom))
    freq_side = (2.0 * geom.half_length) ** -1 * np.sum(np.abs(vals * F) ** 2)
    assert math.isclose(l2_norm(g) ** 2, freq_side, rel_tol=1e-10)


# ---------------------------------------------------------------------------
# the half-spectrum route of even symbols against the full complex grid

HALF_GEOMS = {1: Geometry(1, 256, 16.0), 2: Geometry(2, 64, 8.0)}
HALF_KERNELS = {1: ["haar", "gm:0.75", "poisson-q", "riesz-diff:0.5:ball", "sgn-diff:ball"],
                2: ["poisson-q:2", "riesz-diff:0.5:ball:2"]}


def even_symbols(geom):
    """Every kind of symbol `apply_multiplier` takes on the half spectrum."""
    tg = LogTimeGrid(0.25, 4.0, nodes_per_octave=4)
    syms = [riesz_symbol(0.5), riesz_symbol(-0.75), bessel_symbol(1.5), bessel_symbol(-2.0),
            riesz_bessel_ratio_symbol(0.5), bessel_split_symbol(1.5)]
    for kid in HALF_KERNELS[geom.dim]:
        k = kernel_from_id(kid)
        syms += [continuous_symbol(k, tg), continuous_symbol(k, tg, window=(0.5, 2.0)), dyadic_symbol(k, DyadicRange(-3, 2))]
    syms += [invert_multiplier(riesz_symbol(0.5), 1e-12, geom), invert_multiplier(bessel_symbol(1.0), 1e-12, geom),
             invert_multiplier(syms[-3], 1e-12, geom)]
    return syms


def field_of_kind(geom, kind: str):
    """A real field (float64), the same samples stored as complex, a complex
    field, and one whose real part is zero."""
    band = random_band_field(geom, seed=3, band=(0.25, 4.0)).values
    noise = np.random.default_rng(4).standard_normal(geom.shape)
    values = {"real": band.real + 0.1 * noise, "real-as-complex": (band.real + 0.1 * noise).astype(complex),
              "complex": band + 0.1 * noise, "imaginary": 1j * band.imag}[kind]
    return SampledField(geom, values)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", ["real", "real-as-complex", "complex", "imaginary"])
def test_even_symbols_take_the_half_spectrum(monkeypatch, dim, kind):
    geom = HALF_GEOMS[dim]
    f = field_of_kind(geom, kind)
    syms = even_symbols(geom)
    want = [full_grid_multiplier(sym, f) for sym in syms]

    sample = Symbol.sample

    def half_only(self, geom, half=False):
        if not half:
            raise AssertionError(f"{self.name} was sampled on the full grid")
        return sample(self, geom, half)

    monkeypatch.setattr(Symbol, "sample", half_only)
    for sym, w in zip(syms, want):
        assert sym.even, sym.name
        got = apply_multiplier(sym, f).values
        assert np.linalg.norm(got - w) <= 1e-13 * np.linalg.norm(w), sym.name
        # a real field gives a real field; a complex one keeps both parts
        assert np.iscomplexobj(got) == bool(np.imag(f.values).any()), sym.name


def test_odd_one_scale_symbol_keeps_the_full_grid(geom_small):
    # psihat(t xi) of haar is imaginary and odd: the half spectrum would drop
    # its action, so only a symbol declared even leaves the full grid
    k = haar_kernel()
    sym = Symbol("one-scale", lambda xi: k.fourier(1.5 * xi), dc_value=0.0)
    assert not sym.even
    f = mean_subtract(random_band_field(geom_small, seed=5))
    assert np.array_equal(apply_multiplier(sym, f).values, full_grid_multiplier(sym, f))
    real = SampledField(geom_small, f.values.real)
    g = apply_multiplier(sym, real).values
    assert np.abs(g.imag).max() < 1e-12 * np.abs(g).max()  # the odd symbol maps real to real ...
    assert np.array_equal(g, full_grid_multiplier(sym, real))  # ... through the full grid


def test_half_sample_is_the_full_sample_on_the_half_grid():
    for dim, geom in HALF_GEOMS.items():
        half = geom.n_samples // 2 + 1
        for sym in even_symbols(geom):
            full = sym.sample(geom)
            assert np.array_equal(full, np.fft.ifftshift(centred_sample(sym, geom))), sym.name
            assert np.array_equal(sym.sample(geom, half=True), full.real[..., :half]), sym.name
            assert not np.any(full.imag), sym.name


CHECK_KERNELS = {1: ["gm:0.75", "haar", "riesz-diff:0.5:ball"], 2: ["poisson-q:2", "riesz-diff:0.5:ball:2"]}


@pytest.mark.parametrize("dim", [1, 2])
def test_fft_order_checks_equal_the_centred_index_arithmetic(dim):
    # the structural checks index FFT-order samples (j -> j mod N, 2j mod N,
    # the zero frequency at 0); the centred samples, indexed j -> j + N/2,
    # must give the same bits
    geom = HALF_GEOMS[dim]
    syms = [bessel_symbol(1.0)]
    for kid in CHECK_KERNELS[dim]:
        k = kernel_from_id(kid)
        syms += [continuous_symbol(k, default_time_grid(geom)), dyadic_symbol(k, default_dyadic_range(geom))]
    for sym in syms:
        vals, centred = sym.sample(geom), centred_sample(sym, geom)
        assert np.array_equal(vals, np.fft.ifftshift(centred)), sym.name
        assert sampled_homogeneity_defect(vals, geom) == centred_homogeneity_defect(centred, geom), sym.name
        for annulus in (None, (1.0, 2.0)):
            got = sampled_min_modulus(vals, geom, annulus)
            assert got == centred_min_modulus(centred, geom, annulus), (sym.name, annulus)


# ---------------------------------------------------------------------------
# symbols of |xi| alone, sampled once per shell of the grid

def shell_symbols(dim: int) -> dict:
    """Every kind of symbol that `sample` takes on the shells, by name."""
    tg, kr = LogTimeGrid(0.25, 8.0, nodes_per_octave=8), DyadicRange(-4, 4)
    kids = ["poisson-q", "riesz-diff:0.5:ball", "gm:0.75", "haar"] if dim == 1 else ["poisson-q:2", "riesz-diff:0.5:ball:2"]
    syms = {}
    for kid in kids:
        syms[f"m[{kid}]"] = continuous_symbol(kernel_from_id(kid), tg)
        syms[f"md[{kid}]"] = dyadic_symbol(kernel_from_id(kid), kr)
    for sym in (riesz_symbol(0.5), riesz_symbol(-1.25), bessel_symbol(0.7), bessel_symbol(-1.3),
                riesz_bessel_ratio_symbol(0.5), bessel_split_symbol(1.5)):
        syms[sym.name] = sym
    assert all(sym.sampler is not None for sym in syms.values())
    return syms


def evaluated_on_the_grid(sym: Symbol) -> Symbol:
    """The symbol evaluated point by point on the grid, without its sampler."""
    return replace(sym, sampler=None)


@pytest.mark.parametrize("geom", [Geometry(1, 256, 16.0), Geometry(1, 256, 10.0), Geometry(2, 64, 8.0)],
                         ids=lambda g: f"{g.dim}d-L{g.half_length:g}")
def test_shell_samples_are_the_grid_samples_bit_for_bit(geom):
    # the shells' |xi| and |xi|^2 are the grid's bits in 1-D at any L, and in
    # 2-D where 2L is a power of two
    for name, sym in shell_symbols(geom.dim).items():
        for half in (False, True):
            assert np.array_equal(sym.sample(geom, half), evaluated_on_the_grid(sym).sample(geom, half)), (name, half)


def test_shell_samples_off_a_power_of_two_move_by_round_off():
    # with 2L = 20 the shells' |xi| and |xi|^2 differ from the grid's by
    # round-off: the potential-type symbols move by at most 4 ulp, and the
    # kernel symbols by 4 ulp of their largest value, since where they fall
    # off steeply (the continuous poisson-q:2 symbol at the corner, 11 ulp of
    # its value there) a moved radius moves them by more ulp of their own
    geom = Geometry(2, 64, 10.0)
    eps = np.finfo(float).eps
    for name, sym in shell_symbols(2).items():
        for half in (False, True):
            got, want = sym.sample(geom, half), evaluated_on_the_grid(sym).sample(geom, half)
            scale = np.max(np.abs(want)) if name.startswith(("m[", "md[")) else np.abs(want)
            assert np.all(np.abs(got - want) <= 4 * eps * scale), (name, half)
            assert not np.array_equal(got, want), (name, half)  # some radius did move


@pytest.mark.parametrize("geom", [Geometry(2, 64, 8.0), Geometry(2, 64, 10.0)], ids=["L8", "L10"])
def test_inverted_shell_symbol_names_the_grid_argmin(geom):
    for name, sym in shell_symbols(2).items():
        top = float(np.max(np.abs(sym.sample(geom))))
        with pytest.raises(DegenerateSymbolError) as got:
            invert_multiplier(sym, 2.0 * top, geom)
        with pytest.raises(DegenerateSymbolError) as want:
            invert_multiplier(evaluated_on_the_grid(sym), 2.0 * top, geom)
        # the same frequency, with a modulus that may differ by round-off off a power of two
        assert str(got.value).split(" at ")[1] == str(want.value).split(" at ")[1], name
        if geom.half_length == 8.0:
            inv = invert_multiplier(sym, 1e-300, geom).sample(geom)
            assert np.array_equal(inv, evaluated_on_the_grid(invert_multiplier(evaluated_on_the_grid(sym), 1e-300, geom)).sample(geom)), name
