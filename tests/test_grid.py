import io
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalesq
from scalesq import (
    DyadicRange,
    Geometry,
    LogTimeGrid,
    SampledField,
    bump_field,
    default_dyadic_range,
    default_geometry,
    default_time_grid,
    g_function,
    gaussian_derivative_field,
    gaussian_field,
    kernel_from_id,
    l2_norm,
    load_field_binary,
    load_field_csv,
    mean_subtract,
    modulated_gaussian_field,
    random_band_field,
    save_field_binary,
    save_field_csv,
)
from scalesq.grid import MAX_FIELD_BYTES, _repr_cells, _repr_tables, _write_csv_rows, scale_set
from scalesq.sobolev import default_test_family
from oracles import (
    centred_grids,
    eager_test_family,
    forward_transform,
    grid_gaussian_derivative_field,
    grid_gaussian_field,
    inverse_transform,
    save_field_csv_rows,
    slow_transform,
)


def test_geometry_validation():
    with pytest.raises(ValueError):
        Geometry(3, 64, 1.0)
    with pytest.raises(ValueError):
        Geometry(1, 100, 1.0)
    with pytest.raises(ValueError):
        Geometry(1, 4, 1.0)
    with pytest.raises(ValueError):
        Geometry(1, 64, -2.0)


def test_geometry_axes(geom_small):
    x = geom_small.spatial_axis()
    assert x[0] == -geom_small.half_length
    assert np.allclose(np.diff(x), geom_small.spacing)
    xi = geom_small.frequency_axis()
    assert xi[geom_small.n_samples // 2] == 0.0
    assert np.allclose(np.diff(xi), 1.0 / (2.0 * geom_small.half_length))


def test_default_geometry_shapes():
    assert default_geometry(1).shape == (4096,)
    assert default_geometry(2).shape == (512, 512)
    with pytest.raises(ValueError):
        default_geometry(3)


def test_field_shape_validation(geom_small):
    with pytest.raises(ValueError):
        SampledField(geom_small, np.zeros(7))


# the centred transforms of the oracles, the tests' reference for the
# Fourier convention, against the direct DFT sums

def test_forward_transform_matches_slow_dft(rng):
    geom = Geometry(1, 64, 4.0)
    f = SampledField(geom, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    assert np.allclose(forward_transform(f), slow_transform(f), atol=1e-12)


def test_forward_transform_matches_slow_dft_2d(rng):
    geom = Geometry(2, 16, 2.0)
    f = SampledField(geom, rng.standard_normal((16, 16)) * (1.0 + 0.5j))
    assert np.allclose(forward_transform(f), slow_transform(f), atol=1e-12)


def test_gaussian_hat_is_gaussian():
    # width-1 centered Gaussian is its own transform under this convention
    geom = Geometry(1, 512, 16.0)
    f = gaussian_field(geom, 1.0)
    F = forward_transform(f)
    xi = geom.frequency_axis()
    assert np.allclose(F, np.exp(-np.pi * xi**2), atol=1e-12)


@given(seed=st.integers(0, 2**32 - 1))
def test_roundtrip_exact(seed):
    geom = Geometry(1, 128, 8.0)
    rng = np.random.default_rng(seed)
    f = SampledField(geom, rng.standard_normal(128) + 1j * rng.standard_normal(128))
    back = inverse_transform(geom, forward_transform(f))
    assert np.allclose(back, f.values, atol=1e-13)


@given(seed=st.integers(0, 2**32 - 1))
def test_parseval(seed):
    geom = Geometry(1, 128, 8.0)
    rng = np.random.default_rng(seed)
    f = SampledField(geom, rng.standard_normal(128) + 1j * rng.standard_normal(128))
    F = forward_transform(f)
    spatial = geom.cell_volume * np.sum(np.abs(f.values) ** 2)
    spectral = (2.0 * geom.half_length) ** -geom.dim * np.sum(np.abs(F) ** 2)
    assert math.isclose(spatial, spectral, rel_tol=1e-12)


def test_l2_norm_keeps_the_bits_of_the_plain_sum():
    # the power-of-two scaling that keeps a huge field's norm finite leaves
    # an ordinary field's norm as the plain sum has it
    rng = np.random.default_rng(3)
    for geom in (Geometry(1, 512, 8.0), Geometry(2, 64, 8.0)):
        for size in (1e-30, 0.3, 1.0, 3.7, 1e30):
            values = size * (rng.standard_normal(geom.shape) + 1j * rng.standard_normal(geom.shape))
            for v in (values, values.real):
                plain = float(np.sqrt(geom.cell_volume * np.sum(np.abs(v + 0j) ** 2)))
                assert l2_norm(SampledField(geom, v)) == plain
    geom, huge = Geometry(1, 64, 8.0), np.full(64, 1e300 - 3e299j)
    assert l2_norm(SampledField(geom, huge)) == math.ldexp(l2_norm(SampledField(geom, huge * 2.0**-900)), 900)


def test_l2_norm_and_mean(geom_small):
    f = SampledField(geom_small, np.ones(geom_small.shape))
    assert math.isclose(l2_norm(f), math.sqrt(2.0 * geom_small.half_length), rel_tol=1e-12)
    assert np.mean(f.values) == 1.0
    assert abs(np.mean(mean_subtract(f).values)) < 1e-15


# ---------------------------------------------------------------------------
# scale grids

def test_log_time_grid_validation():
    with pytest.raises(ValueError):
        LogTimeGrid(1.0, 0.5)
    with pytest.raises(ValueError):
        LogTimeGrid(-1.0, 2.0)
    with pytest.raises(ValueError):
        LogTimeGrid(0.5, 2.0, nodes_per_octave=0)
    for t_min, t_max in ((1e-300, 1e300), (1.0, math.inf)):
        with pytest.raises(ValueError, match="t_max/t_min must be finite"):
            LogTimeGrid(t_min, t_max)


@pytest.mark.parametrize("j", [10**9, 10**400], ids=["1e9", "1e400"])
def test_log_time_grid_above_the_budget_is_refused(j):
    # 7e9 scales on the default 1-D window would take 52 GiB; only the
    # constructors run, so no scale array is made
    geom = default_geometry(1)
    with pytest.raises(ValueError, match="nodes_per_octave"):
        default_time_grid(geom, j)
    with pytest.raises(ValueError, match="nodes_per_octave"):
        scale_set(geom, True, nodes_per_octave=j)


def test_time_window_does_not_take_the_default_windows_node_count():
    # a short window may carry many nodes per octave that the default window could not
    tg = scale_set(default_geometry(1), True, 1.0, 1.0001, 10**9)
    assert tg.node_count == 144_263


@given(
    t_min=st.floats(1e-6, 1e3),
    octaves=st.integers(1, 40),
    j=st.integers(1, 64),
)
def test_log_time_grid_integrates_constants(t_min, octaves, j):
    tg = LogTimeGrid(t_min, t_min * 2.0**octaves, nodes_per_octave=j)
    total = tg.weight * np.sum(np.ones_like(tg.scales))
    assert math.isclose(total, octaves * math.log(2.0), rel_tol=1e-12)


def test_log_time_grid_nodes_inside_range():
    tg = LogTimeGrid(0.1, 100.0, nodes_per_octave=8)
    t = tg.scales
    assert np.all(t > 0.1) and np.all(t < 100.0)
    assert tg.node_count == t.size


def test_log_time_grid_integrates_powers():
    # integral of t^2 dt/t over [1, 4] = (16-1)/2; midpoint-in-log needs
    # a dense rule for this non-constant integrand
    tg = LogTimeGrid(1.0, 4.0, nodes_per_octave=4096)
    total = tg.weight * np.sum(tg.scales**2)
    assert math.isclose(total, 7.5, rel_tol=1e-6)


def test_window_open_interval():
    from scalesq.squarefn import _window_run

    for scales in (LogTimeGrid(1.0, 16.0, nodes_per_octave=1), DyadicRange(-3, 3)):
        t = scales.scales
        assert t[_window_run(t, (t[0], t[-1]))].size == t.size - 2


def test_default_time_grid_bounds():
    geom = Geometry(1, 1024, 32.0)
    tg = default_time_grid(geom)
    assert math.isclose(tg.t_min, 4.0 * geom.spacing)
    assert math.isclose(tg.t_max, geom.half_length / 4.0)


def test_dyadic_range():
    kr = DyadicRange(-3, 2)
    assert list(kr.exponents) == [-3, -2, -1, 0, 1, 2]
    assert np.allclose(kr.scales, [0.125, 0.25, 0.5, 1.0, 2.0, 4.0])
    assert kr.weight == 1.0
    with pytest.raises(ValueError):
        DyadicRange(2, 1)
    # every 2^k a finite nonzero double
    assert DyadicRange(-1074, 1023).scales[[0, -1]].tolist() == [5e-324, 2.0**1023]
    for k_min, k_max in ((-1075, 0), (0, 1024), (5000, 5001)):
        with pytest.raises(ValueError, match="-1074 <= k_min <= k_max <= 1023"):
            DyadicRange(k_min, k_max)


def test_default_dyadic_range_covers_grid():
    geom = Geometry(1, 1024, 32.0)
    kr = default_dyadic_range(geom)
    assert 2.0**kr.k_min <= geom.spacing
    assert 2.0**kr.k_max >= geom.half_length


# ---------------------------------------------------------------------------
# field factories

def test_factories_mean_zero(geom_small):
    d = gaussian_derivative_field(geom_small, 1.2)
    assert abs(np.mean(d.values)) < 1e-12
    b = random_band_field(geom_small, seed=5)
    assert abs(np.mean(b.values)) < 1e-12


def test_random_band_field_spectrum(geom_small):
    band = (0.5, 2.0)
    f = random_band_field(geom_small, seed=9, band=band)
    F = forward_transform(f)
    rho = np.abs(geom_small.frequency_axis())
    outside = (rho < band[0]) | (rho > band[1])
    assert np.max(np.abs(F[outside])) < 1e-10


@pytest.mark.parametrize("dim", [1, 2])
def test_random_band_field_is_the_centred_inverse_of_its_coefficients(dim):
    geom, band = Geometry(dim, 64, 8.0), (0.25, 2.0)
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal(geom.shape) + 1j * rng.standard_normal(geom.shape)
    rho = np.sqrt(sum(x**2 for x in np.broadcast_arrays(*centred_grids(geom))))
    coeffs[(rho < band[0]) | (rho > band[1])] = 0.0
    assert np.array_equal(random_band_field(geom, 7, band).values, inverse_transform(geom, coeffs))


def test_random_band_field_seed_determinism(geom_small):
    a = random_band_field(geom_small, seed=3)
    b = random_band_field(geom_small, seed=3)
    c = random_band_field(geom_small, seed=4)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_bump_field_support(geom_small):
    f = bump_field(geom_small, radius=2.0)
    x = geom_small.spatial_axis()
    assert np.all(f.values[np.abs(x) >= 2.0] == 0)
    assert f.values[np.argmin(np.abs(x))].real > 0


def test_modulated_gaussian_center_frequency(geom_small):
    freq = 1.0
    f = modulated_gaussian_field(geom_small, freq, width=2.0)
    F = forward_transform(f)
    xi = geom_small.frequency_axis()
    assert abs(xi[np.argmax(np.abs(F))] - freq) < 2.0 / (
        2.0 * geom_small.half_length
    )


def test_center_tuple_validation(geom_2d_small):
    with pytest.raises(ValueError):
        gaussian_field(geom_2d_small, 1.0, center=(1.0,))


@pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf, 1e-200])
def test_shapes_refuse_a_bad_width(geom_2d_small, value):
    # 1e-200 is positive but its square is zero, which the Gaussian divides by
    for shape in (gaussian_field, gaussian_derivative_field):
        with pytest.raises(ValueError, match="width"):
            shape(geom_2d_small, value)
    with pytest.raises(ValueError, match="width"):
        modulated_gaussian_field(geom_2d_small, 1.0, value)


@pytest.mark.parametrize("value", [0.0, -2.0, np.nan, np.inf])
def test_bump_refuses_a_bad_radius(geom_2d_small, value):
    with pytest.raises(ValueError, match="radius"):
        bump_field(geom_2d_small, value)


@pytest.mark.parametrize("center", [np.nan, (0.0, np.inf), (np.nan, 1.0)])
def test_shapes_refuse_a_center_that_is_not_finite(geom_2d_small, center):
    for shape in (gaussian_field, gaussian_derivative_field, bump_field):
        with pytest.raises(ValueError, match="center"):
            shape(geom_2d_small, 1.0, center)
    with pytest.raises(ValueError, match="center"):
        modulated_gaussian_field(geom_2d_small, 1.0, 1.0, center)


@pytest.mark.parametrize("freq", [np.nan, np.inf, -np.inf])
def test_modulated_gaussian_refuses_a_frequency_that_is_not_finite(geom_2d_small, freq):
    with pytest.raises(ValueError, match="freq"):
        modulated_gaussian_field(geom_2d_small, freq)


@pytest.mark.parametrize("n", [64, 128, 512])
def test_members_from_factors_match_the_full_grid_build(n):
    # the 2-D Gaussians are products of per-axis factors, within 16 ulp of each
    # member's largest value (9 seen, at 64^2), the full-grid route's own
    # error being larger (below); the bumps are still formed on the grid, bit
    # for bit
    geom = Geometry(2, n, 16.0)
    for seed in range(4):
        want, labels = eager_test_family(geom, seed, on_grid=True)
        for got, ref, label in zip(default_test_family(geom, seed).members, want, labels, strict=True):
            assert got.values.dtype == ref.values.dtype, label
            if label.startswith("bump"):
                assert got.values.tobytes() == ref.values.tobytes(), label
            else:
                top = np.max(np.abs(ref.values))
                assert np.max(np.abs(got.values - ref.values)) <= 16 * np.spacing(top), (seed, label)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 2.0**-60, reason="needs an extended long double")
def test_gaussian_factors_are_within_round_off_of_the_exact_gaussian():
    # against exp(-pi |x - c|^2 / w^2) in extended precision: the product of
    # the factors within 6 ulp of its largest value (4.9 seen), the full-grid
    # build of one grid-sized exp within 24 (18.8 seen)
    geom = Geometry(2, 64, 16.0)
    x = geom.spatial_axis().astype(np.longdouble)
    rng = np.random.default_rng(0)
    worst = {"factors": 0.0, "grid": 0.0}
    for _ in range(100):
        w, c = rng.uniform(0.1, 1.5), tuple(rng.uniform(-2.0, 2.0, 2))
        exact = np.exp(-np.pi * ((x[:, None] - c[0]) ** 2 + (x[None, :] - c[1]) ** 2) / np.longdouble(w) ** 2)
        top = np.spacing(float(np.max(exact)))
        for name, build in (("factors", gaussian_field), ("grid", grid_gaussian_field)):
            err = float(np.max(np.abs(build(geom, w, c).values - exact))) / top
            worst[name] = max(worst[name], err)
    assert worst["factors"] <= 6 and worst["grid"] <= 24, worst


@pytest.mark.parametrize("n,half_length", [(256, 16.0), (4096, 32.0), (512, 10.0)])
def test_one_dimensional_members_keep_the_full_grid_bits(n, half_length):
    geom = Geometry(1, n, half_length)
    want, labels = eager_test_family(geom, 5, on_grid=True)
    for got, ref, label in zip(default_test_family(geom, 5).members, want, labels, strict=True):
        assert got.values.tobytes() == ref.values.tobytes(), label


def test_gaussian_derivative_from_factors():
    for geom in (Geometry(1, 256, 8.0), Geometry(2, 64, 8.0)):
        got = gaussian_derivative_field(geom, 1.3, 0.7).values
        want = grid_gaussian_derivative_field(geom, 1.3, 0.7).values
        if geom.dim == 1:
            assert got.tobytes() == want.tobytes()
        else:
            assert np.max(np.abs(got - want)) <= 4 * np.spacing(np.max(np.abs(want)))


# ---------------------------------------------------------------------------
# serialization

@given(seed=st.integers(0, 2**16))
@settings(max_examples=10)
def test_binary_roundtrip(tmp_path_factory, seed):
    geom = Geometry(1, 32, 2.0)
    rng = np.random.default_rng(seed)
    f = SampledField(geom, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    path = str(tmp_path_factory.mktemp("fields") / "f.bin")
    save_field_binary(f, path)
    g = load_field_binary(path)
    assert g.geometry == geom
    assert np.array_equal(g.values, f.values)


# signed zeros in every pairing, tiny and huge parts, and noise
SIGNED_PARTS = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e300, -2.5]


def interleaved_payloads(n: int):
    """(name, interleaved re/im float64s) for a field of n samples."""
    rng = np.random.default_rng(9)
    pairs = np.array([(a, b) for a in SIGNED_PARTS for b in SIGNED_PARTS])
    mixed = np.concatenate([pairs.ravel(), rng.standard_normal(2 * n - pairs.size)])
    real = mixed.copy()
    real[1::2] = 0.0
    negative_zero = real.copy()
    negative_zero[2 * 7 + 1] = -0.0
    real[0::2][:8] = [0.0, -0.0] * 4  # the real parts keep their signed zeros
    return [("real", real), ("one -0.0 imaginary part", negative_zero), ("signed pairs", mixed)]


def write_payload(path, fmt: str, geom, raw) -> None:
    if fmt == "bin":
        with open(path, "wb") as fh:
            fh.write(b"SFLD" + struct.pack("<qqd", geom.dim, geom.n_samples, geom.half_length))
            fh.write(raw.astype("<f8").tobytes())
        return
    rows = (f"{i},{re!r},{im!r}" for i, (re, im) in enumerate(raw.reshape(-1, 2).tolist()))
    with open(path, "w") as fh:
        fh.write(f"# dim={geom.dim} n={geom.n_samples} half_length={geom.half_length!r}\nindex,re,im\n")
        fh.write("\n".join(rows) + "\n")


@pytest.mark.parametrize("fmt", ["bin", "csv"])
def test_loaders_keep_the_bits_of_the_interleaved_sum(tmp_path, fmt):
    # the samples are raw[0::2] + 1j * raw[1::2] bit for bit, signed zeros
    # included; a field whose imaginary parts are all +0.0 comes back real
    geom = Geometry(1, 128, 4.0)
    load = load_field_binary if fmt == "bin" else load_field_csv
    for name, raw in interleaved_payloads(geom.n_samples):
        path = str(tmp_path / f"f.{fmt}")
        write_payload(path, fmt, geom, raw)
        got = load(path).values
        want = raw[0::2] + 1j * raw[1::2]
        assert np.iscomplexobj(got) == (name != "real"), name
        assert np.array_equal(got.astype(complex).view(np.int64), want.view(np.int64)), name


def test_real_fields_stay_real(tmp_path):
    geom = Geometry(2, 64, 8.0)
    values = np.random.default_rng(3).standard_normal(geom.shape)
    f = SampledField(geom, values)
    assert f.values is values  # kept, not copied
    assert SampledField(geom, values.astype(np.float32)).values.dtype == np.float64
    assert SampledField(geom, values + 0j).values.dtype == np.complex128
    assert gaussian_field(geom, 1.0).values.dtype == np.float64
    assert bump_field(geom, 1.0).values.dtype == np.float64
    assert modulated_gaussian_field(geom, 1.0).values.dtype == np.complex128
    assert mean_subtract(f).values.dtype == np.float64
    path = str(tmp_path / "f.bin")
    save_field_binary(f, path)
    back = load_field_binary(path)
    assert back.values.dtype == np.float64 and np.array_equal(back.values, values)
    # the real route keeps the bits of the same samples stored as complex
    as_complex = SampledField(geom, values + 0j)
    assert l2_norm(f) == l2_norm(as_complex)
    sq = g_function(f, kernel_from_id("poisson-q:2"), default_time_grid(geom))
    assert sq.values.dtype == np.float64
    assert np.array_equal(sq.values, g_function(as_complex, kernel_from_id("poisson-q:2"), default_time_grid(geom)).values)


def test_csv_roundtrip(tmp_path, rng):
    geom = Geometry(2, 8, 1.0)
    f = SampledField(geom, rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    path = str(tmp_path / "f.csv")
    save_field_csv(f, path)
    g = load_field_csv(path)
    assert g.geometry == geom
    assert np.allclose(g.values, f.values, atol=0, rtol=0)


@pytest.mark.parametrize("dim,n,block", [(1, 64, 7), (2, 16, 7), (1, 32768, None)])
def test_csv_writer_matches_row_loop_byte_for_byte(tmp_path, rng, monkeypatch, dim, n, block):
    if block is not None:  # several blocks and a partial last one
        monkeypatch.setattr("scalesq.grid._CSV_BLOCK_ROWS", block)
    geom = Geometry(dim, n, 2.5)
    vals = rng.standard_normal(geom.shape) * 10.0 ** rng.integers(-300, 300, geom.shape)
    vals = vals + 1j * rng.standard_normal(geom.shape)
    vals.flat[:6] = [0.0, -0.0, 1.0, -1e-320, 0.1 + 3j, 1e300 - 0.0j]
    f = SampledField(geom, vals)
    fast, rows = tmp_path / "fast.csv", tmp_path / "rows.csv"
    save_field_csv(f, str(fast))
    save_field_csv_rows(f, str(rows))
    assert fast.read_bytes() == rows.read_bytes()


@pytest.mark.parametrize("imag", ["zero", "negative-zero", "complex"])
def test_csv_writer_real_blocks_match_row_loop(tmp_path, monkeypatch, imag):
    # blocks of 5: the first real, the second with -0.0 or complex parts in
    # its imaginary column, or +0.0 throughout
    monkeypatch.setattr("scalesq.grid._CSV_BLOCK_ROWS", 5)
    geom = Geometry(1, 16, 1.0)
    re = [-0.0, 1e16, 1e-5, 5e-324, -2.2250738585072014e-308, 0.1, 1e-300, -1.5, 3.0, 0.0,
          123456789.125, -1e16, 2.5e-310, 7.0, -0.0, 1e300]
    vals = np.array(re, dtype=complex)
    if imag == "negative-zero":
        vals.imag[7] = -0.0
    elif imag == "complex":
        vals.imag[5:10] = [1e-5, -1e16, 5e-324, -0.0, 2.0]
    f = SampledField(geom, vals)
    assert np.signbit(f.values.imag[7]) == (imag == "negative-zero")
    fast, rows = tmp_path / "fast.csv", tmp_path / "rows.csv"
    save_field_csv(f, str(fast))
    save_field_csv_rows(f, str(rows))
    assert fast.read_bytes() == rows.read_bytes()


def formatted(values) -> list[str]:
    """The text `_repr_cells` gives each value, one line each."""
    x = np.asarray(values, dtype=np.float64)
    out = io.BytesIO()
    _write_csv_rows(out, x.size, lambda lo, hi: [_repr_cells(x[lo:hi]), b"\n"])
    return out.getvalue().decode().splitlines()


def test_repr_cells_match_repr_on_random_bits():
    # a million doubles of uniform bits: every exponent, subnormals, NaNs, infinities
    x = np.random.default_rng(29).integers(0, 2**64, size=2**20, dtype=np.uint64).view(np.float64)
    want = [repr(v) for v in x.tolist()]
    got = formatted(x)
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and not bad, bad[:5]


def test_repr_cells_match_repr_on_decimals():
    # doubles read from short decimals, where the shortest digits are few
    rng = np.random.default_rng(30)
    digits = rng.integers(1, 18, 100_000)
    mantissa = rng.integers(1, 10**17, 100_000) % 10**digits
    x = [float(f"{m}e{e}") for m, e in zip(mantissa.tolist(), rng.integers(-345, 310, 100_000).tolist())]
    assert formatted(x) == [repr(v) for v in x]


def test_repr_cells_edge_table():
    edges = [0.0, 1e-4, 1e-5, 9.999999999999999e15, 1e16, 0.1, 1.0 / 3.0, 123456789.125,
             sys.float_info.max, sys.float_info.min, math.inf, math.nan]
    edges += [math.ldexp(c, -1074) for c in range(1, 10_000)]  # subnormals with c < 10^4
    for e in range(-1074, 1024):  # every power of two and both its neighbours
        v = math.ldexp(1.0, e)
        edges += [math.nextafter(v, 0.0), v, math.nextafter(v, math.inf)]
    for k in range(-323, 309):  # the doubles nearest 10^k and both their neighbours
        v = float(f"1e{k}")
        edges += [math.nextafter(v, 0.0), v, math.nextafter(v, math.inf)]
    edges += [-v for v in edges]  # -0.0, -inf, and a NaN with its sign bit set
    assert formatted(edges) == [repr(v) for v in edges]
    assert formatted([0.0, -0.0, 5e-324, math.inf, -math.inf, -math.nan]) == \
        ["0.0", "-0.0", "5e-324", "inf", "-inf", "nan"]


@given(st.lists(st.floats(), min_size=1, max_size=64))
@settings(max_examples=200)
def test_repr_cells_match_repr(values):
    assert formatted(values) == [repr(v) for v in values]


def test_repr_tables_are_exact():
    t = _repr_tables()
    for i, k in enumerate(range(-324, 293)):
        p = Fraction(10) ** -k
        e = p.numerator.bit_length() - p.denominator.bit_length()  # floor(log2 p) is e or e - 1
        e -= Fraction(2) ** e > p
        g = math.floor(p * Fraction(2) ** (125 - e)) + 1
        assert (int(t.g1[i]) << 63) + int(t.g0[i]) == g, k
    # each exponent code's k = floor(log10) of 2^q, or of 3/4 2^q for the
    # uneven intervals, and the shift h = q + floor(log2 10^-k) + 2
    for code in range(4096):
        q = max(code % 2048, 1) - 1075
        v = Fraction(2) ** q * (Fraction(3, 4) if code >= 2048 else 1)
        k = int(t.k[code])
        assert Fraction(10) ** k <= v < Fraction(10) ** (k + 1), code
        p = Fraction(10) ** -k
        assert Fraction(2) ** (int(t.h[code]) - q - 2) <= p < Fraction(2) ** (int(t.h[code]) - q - 1), code


def test_import_builds_no_repr_table(tmp_path):
    probe = (
        "import scalesq, scalesq.cli, scalesq.grid as grid\n"
        "built = [grid._repr_tables.cache_info().currsize]\n"
        "f = scalesq.random_band_field(scalesq.Geometry(1, 64, 4.0), seed=1)\n"
        "scalesq.save_field_csv(f, 'f.csv')\n"
        "built.append(grid._repr_tables.cache_info().currsize)\n"
        "print(built)\n"
    )
    src = os.path.dirname(os.path.dirname(scalesq.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[0, 1]"


def test_csv_writer_of_a_real_512_field_peaks_below_3_mib(tmp_path):
    # the rows are formatted a block at a time: the writer holds one block's
    # temporaries (2.0 MiB with the tables built, 2.4 when it builds them),
    # not the file's 8 MB of text
    geom = Geometry(2, 512, 16.0)
    f = mean_subtract(SampledField(geom, random_band_field(geom, seed=7).values.real))
    tracemalloc.start()
    try:
        save_field_csv(f, str(tmp_path / "f.csv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20, f"peak {peak / 2**20:.2f} MiB"
    assert load_field_csv(str(tmp_path / "f.csv")).values.tobytes() == f.values.tobytes()


def test_geometry_memory_budget():
    # the largest grids whose complex field fits MAX_FIELD_BYTES, and one past them
    assert 16 * 2048**2 == 16 * 2**22 == MAX_FIELD_BYTES
    Geometry(2, 2048, 16.0)
    Geometry(1, 2**22, 32.0)
    for dim, n in ((2, 4096), (2, 8192), (1, 2**23)):
        with pytest.raises(ValueError, match=r"grid\.n_samples = \d+ in \d-D .* above the budget"):
            Geometry(dim, n, 16.0)


def test_geometry_half_length_range():
    Geometry(1, 64, 1e-30)
    Geometry(2, 64, 1e30)
    for L in (1e-31, 1e31, 1e300, 5e-324):
        with pytest.raises(ValueError, match="half_length"):
            Geometry(2, 64, L)


def test_binary_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        load_field_binary(str(path))


def test_csv_rejects_missing_header(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("index,re,im\n0,1.0,0.0\n")
    with pytest.raises(ValueError, match="header"):
        load_field_csv(str(path))
