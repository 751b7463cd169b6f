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
    SpectralField,
    bump_field,
    default_dyadic_range,
    default_geometry,
    default_time_grid,
    forward_transform,
    gaussian_derivative_field,
    gaussian_field,
    inverse_transform,
    l2_norm,
    load_field_binary,
    load_field_csv,
    mean_subtract,
    modulated_gaussian_field,
    random_band_field,
    save_field_binary,
    save_field_csv,
)
from scalesq.grid import MAX_FIELD_BYTES
from oracles import save_field_csv_rows, slow_transform


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
    with pytest.raises(ValueError):
        SpectralField(geom_small, np.zeros((2, 2)))


def test_forward_transform_matches_slow_dft(rng):
    geom = Geometry(1, 64, 4.0)
    f = SampledField(geom, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    fast = forward_transform(f)
    slow = slow_transform(f)
    assert np.allclose(fast.coefficients, slow.coefficients, atol=1e-12)


def test_forward_transform_matches_slow_dft_2d(rng):
    geom = Geometry(2, 16, 2.0)
    f = SampledField(geom, rng.standard_normal((16, 16)) * (1.0 + 0.5j))
    fast = forward_transform(f)
    slow = slow_transform(f)
    assert np.allclose(fast.coefficients, slow.coefficients, atol=1e-12)


def test_gaussian_hat_is_gaussian():
    # width-1 centered Gaussian is its own transform under this convention
    geom = Geometry(1, 512, 16.0)
    f = gaussian_field(geom, 1.0)
    F = forward_transform(f)
    xi = geom.frequency_axis()
    assert np.allclose(F.coefficients, np.exp(-np.pi * xi**2), atol=1e-12)


@given(seed=st.integers(0, 2**32 - 1))
def test_roundtrip_exact(seed):
    geom = Geometry(1, 128, 8.0)
    rng = np.random.default_rng(seed)
    f = SampledField(geom, rng.standard_normal(128) + 1j * rng.standard_normal(128))
    back = inverse_transform(forward_transform(f))
    assert np.allclose(back.values, f.values, atol=1e-13)


@given(seed=st.integers(0, 2**32 - 1))
def test_parseval(seed):
    geom = Geometry(1, 128, 8.0)
    rng = np.random.default_rng(seed)
    f = SampledField(geom, rng.standard_normal(128) + 1j * rng.standard_normal(128))
    F = forward_transform(f)
    spatial = geom.cell_volume * np.sum(np.abs(f.values) ** 2)
    spectral = geom.frequency_cell * np.sum(np.abs(F.coefficients) ** 2)
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
    assert np.max(np.abs(F.coefficients[outside])) < 1e-10


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
    assert abs(xi[np.argmax(np.abs(F.coefficients))] - freq) < 2.0 / (
        2.0 * geom_small.half_length
    )


def test_center_tuple_validation(geom_2d_small):
    with pytest.raises(ValueError):
        gaussian_field(geom_2d_small, 1.0, center=(1.0,))


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
