"""The scale-family engine against the per-scale loops it replaced."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from scalesq import (
    DyadicRange,
    Geometry,
    Kernel,
    LogTimeGrid,
    SampledField,
    ScaleFamily,
    apply_multiplier,
    ball_average_profile,
    bessel_potential,
    constant_weight,
    continuous_symbol,
    default_dyadic_range,
    default_test_family,
    default_time_grid,
    duality_residual,
    dyadic_smoothing_difference,
    dyadic_symbol,
    g_function,
    kernel_from_id,
    marcinkiewicz_antiderivative,
    marcinkiewicz_direct,
    mean_subtract,
    modulated_gaussian_field,
    random_band_field,
    riesz_symbol,
    smoothing_difference_function,
    sobolev_equivalence_ratio,
    square_function_ratio,
    weight_from_id,
    weighted_norm,
)
from scalesq import grid, sobolev
from scalesq.sobolev import _smoothing_family
from scalesq.multiplier import bessel_symbol
from scalesq.squarefn import (
    _GRAM_FLOOR,
    _PRINCIPAL_EPS,
    _PRINCIPAL_SHARE,
    _add_in_order,
    _chunk_layers,
    _column_squares,
    _duality_rows,
    _gram,
    _kept,
    _power_sums,
    _second_difference_family,
    _shells,
    _sided_average_family,
    _spectra,
    _window_run,
)
from oracles import (
    centred_grids,
    centred_route,
    complex_duality_residual,
    complex_layers,
    complex_square_sums,
    complex_synthesis,
    difference_multiplier,
    duality_residual_rows_stacked,
    duality_residual_stacked,
    duality_row_family,
    full_power_sum,
    grid_multiplier,
    kernel_multiplier,
    loop_layers,
    loop_square_sum,
    loop_symbol,
    loop_synthesis,
    on_the_grid,
    riesz_multiplier,
    row_embedding,
    second_difference_loop,
    sided_average_loop,
    stacked_embedding,
)
from test_conditions import _tilted_gaussian_kernel

GEOMS = {1: Geometry(1, 256, 16.0), 2: Geometry(2, 64, 8.0)}
KERNELS = {1: ["haar", "gm:0.75", "poisson-q", "riesz-diff:0.5:ball", "sgn-diff:ball"],
           2: ["poisson-q:2", "riesz-diff:0.5:ball:2"]}
TG = LogTimeGrid(0.25, 8.0, nodes_per_octave=8)
KR = DyadicRange(-4, 4)


def rel(a, b) -> float:
    return float(np.linalg.norm(np.ravel(a - b)) / np.linalg.norm(np.ravel(b)))


def field(dim: int, seed: int = 0):
    return mean_subtract(random_band_field(GEOMS[dim], seed=seed, band=(0.25, 4.0)))


KERNEL_CASES = [(d, k) for d in (1, 2) for k in KERNELS[d]]


@pytest.mark.parametrize("dim,kid", KERNEL_CASES)
def test_g_functions_match_loop(dim, kid):
    kernel, f = kernel_from_id(kid), field(dim)
    m = kernel_multiplier(kernel)
    g = g_function(f, kernel, TG).values
    assert rel(g, np.sqrt(loop_square_sum(f, m, TG.scales, TG.weight))) <= 1e-12
    gd = g_function(f, kernel, KR).values
    assert rel(gd, np.sqrt(loop_square_sum(f, m, KR.scales, 1.0))) <= 1e-12


@pytest.mark.parametrize("dim,kid", KERNEL_CASES)
def test_layer_stacks_and_synthesis_match_loop(dim, kid):
    kernel, f = kernel_from_id(kid), field(dim, seed=1)
    geom, m = GEOMS[dim], kernel_multiplier(kernel)
    h = ScaleFamily.of_kernel(kernel, TG.scales).layers(f)
    assert rel(h, loop_layers(f, m, TG.scales)) <= 1e-12
    l = ScaleFamily.of_kernel(kernel, KR.scales).layers(f)
    assert rel(l, loop_layers(f, m, KR.scales)) <= 1e-12

    keep = (TG.scales > 0.5) & (TG.scales < 4.0)
    run = _window_run(TG.scales, (0.5, 4.0))
    got = ScaleFamily.of_kernel(kernel, TG.scales[run], TG.weight).synthesis(h[run], geom).values
    want = loop_synthesis(h[keep], geom, m, TG.scales[keep], TG.weight)
    assert rel(got, want) <= 1e-12
    keep = np.abs(KR.exponents) <= 2
    run = _window_run(KR.scales, (2.0**-3, 2.0**3))
    got = ScaleFamily.of_kernel(kernel, KR.scales[run]).synthesis(l[run], geom).values
    assert rel(got, loop_synthesis(l[keep], geom, m, KR.scales[keep], 1.0)) <= 1e-12


@pytest.mark.parametrize("dim,kid", KERNEL_CASES)
def test_symbols_match_loop(dim, kid):
    kernel = kernel_from_id(kid)
    m = kernel_multiplier(kernel)
    grids = centred_grids(GEOMS[dim])
    with np.errstate(divide="ignore", invalid="ignore"):
        got = continuous_symbol(kernel, TG, window=(0.5, 4.0)).evaluate(*grids)
        keep = (TG.scales > 0.5) & (TG.scales < 4.0)
        want = loop_symbol(m, TG.scales[keep], TG.weight, *grids)
        assert rel(got, want) <= 1e-12
        assert rel(dyadic_symbol(kernel, KR).evaluate(*grids), loop_symbol(m, KR.scales, 1.0, *grids)) <= 1e-12


@pytest.mark.parametrize("dim", [1, 2])
def test_smoothing_differences_match_loop(dim):
    order, profile, f = 0.5, ball_average_profile(dim), field(dim, seed=2)
    m = difference_multiplier(profile)
    got = smoothing_difference_function(f, order, profile, TG).values
    want = loop_square_sum(f, m, TG.scales, TG.weight * TG.scales ** (-2 * order))
    assert rel(got, np.sqrt(want)) <= 1e-12
    got = dyadic_smoothing_difference(f, order, profile, KR).values
    want = loop_square_sum(f, m, KR.scales, 4.0 ** (-KR.exponents * order))
    assert rel(got, np.sqrt(want)) <= 1e-12


def test_marcinkiewicz_routes_match_loop():
    f = field(1, seed=3)
    for alpha in (0.75, 1.25):
        layers = [sided_average_loop(f, alpha, t, 96) for t in TG.scales]
        want = np.sqrt(TG.weight * np.sum(np.abs(layers) ** 2, axis=0))
        assert rel(marcinkiewicz_direct(f, alpha, TG, u_nodes=96).values, want) <= 1e-12
    layers = [second_difference_loop(f, t) for t in TG.scales]
    want = np.sqrt(TG.weight * np.sum(np.abs(layers) ** 2, axis=0))
    assert rel(marcinkiewicz_antiderivative(f, TG).values, want) <= 1e-12


# ---------------------------------------------------------------------------
# family batches

def test_batch_square_sum_equals_member_by_member():
    # 20 fields of 1024 points split into sub-batches inside a chunk
    geom = Geometry(1, 1024, 32.0)
    members = default_test_family(geom, seed=4).members
    family = ScaleFamily.of_kernel(kernel_from_id("haar"), TG.scales, TG.weight)
    batch = family.square_sum(members)
    for f, got in zip(members, batch):
        assert rel(got, family.square_sum([f])[0]) <= 1e-13


def test_family_ratios_equal_member_by_member():
    geom = Geometry(1, 512, 16.0)
    fam = default_test_family(geom, seed=5)
    w = weight_from_id("pow:0.3", radius_floor=geom.spacing)
    ratio_fns = [
        square_function_ratio(kernel_from_id("poisson-q"), TG, 3.0, w),
        square_function_ratio(kernel_from_id("riesz-diff:0.5:ball"), KR, 2.0, constant_weight()),
        sobolev_equivalence_ratio(0.5, ball_average_profile(1), KR, 2.0, constant_weight()),
    ]
    for ratio_fn in ratio_fns:
        batched = ratio_fn(fam.members)
        plain = [ratio_fn([f])[0] for f in fam.members]
        assert None not in batched and None not in plain
        assert np.allclose(batched, plain, rtol=1e-12, atol=0.0)


def test_batch_rejects_mixed_geometries():
    family = ScaleFamily.of_kernel(kernel_from_id("haar"), TG.scales)
    with pytest.raises(ValueError, match="geometry"):
        family.square_sum([field(1), mean_subtract(random_band_field(Geometry(1, 128, 16.0), 0))])


def test_radial_batch_table_spans_many_layer_chunks():
    # 20 fields of 4096 points take one layer per chunk, but the (scales,
    # 2049 shells) table is evaluated _chunk_layers(2049) scales at a time
    geom = Geometry(1, 4096, 32.0)
    members = default_test_family(geom, seed=4).members
    tg = LogTimeGrid(2.0**-4, 2.0**3, 16)
    family = ScaleFamily.of_kernel(kernel_from_id("poisson-q"), tg.scales, tg.weight)
    calls = []

    def counted(t, *xi):
        calls.append((np.ravel(t).copy(), np.ravel(xi[0]).copy()))
        return family.multiplier(t, *xi)

    assert tg.node_count == 112 and _chunk_layers(geom.n_samples // 2 + 1) == 7
    # off the principal route (untagged), one scale per call if sized for the layers
    dataclasses.replace(family, real=False, multiplier=counted).square_sum(members)
    assert [t.size for t, _ in calls] == [7] * 16
    # the principal route evaluates the one block of 112 scales in blocks of
    # shells within the budget: on every 2049 // 224 = 9th shell for the
    # probe, then on each shell twice, for the Gram and for the rows U_r^T A,
    # whose blocks of r <= 112 rows are on the same shells
    calls.clear()
    got = dataclasses.replace(family, multiplier=counted).square_sum(members)
    assert all(t.size == 112 and 16 * t.size * x.size <= grid._CHUNK_BYTES for t, x in calls)
    assert all(np.array_equal(t, tg.scales) for t, _ in calls)
    shells = np.concatenate([x for _, x in calls])
    twice = np.repeat(np.arange(2049), 2)
    assert np.array_equal(np.sort(shells), np.sort(np.concatenate([twice, np.arange(0, 2049, 9)])) / 64.0)
    want = loop_square_sum(members[3], kernel_multiplier(kernel_from_id("poisson-q")), tg.scales, tg.weight)
    assert rel(got[3], want) <= 1e-12


DUALITY_CASES = [(1, n, kid) for n in (4096, 512) for kid in KERNELS[1]] + [(2, 128, kid) for kid in KERNELS[2]]
# the kernels whose duality residuals take the principal rows on the grids of
# these tests (`squarefn._duality_rows`); the others keep their scales
ROW_DUALITY_KERNELS = {"poisson-q", "poisson-q:2", "riesz-diff:0.5:ball:2"}


def assert_rows_are_the_stacked_route(f, kernel, eps) -> float:
    """The streamed residual of a case that takes the principal rows is the
    stacked route of those rows bit for bit, its embedded field is the
    stacked route of the scales' within the guard, and it is the scales'
    residual within 1e-15; the residual is returned."""
    res = duality_residual(f, kernel, eps)
    assert duality_row_family(f, kernel, eps) is not None
    assert res == duality_residual_rows_stacked(f, kernel, eps)
    assert rel(row_embedding(f, kernel, eps), stacked_embedding(f, kernel, eps)) <= _PRINCIPAL_SHARE
    assert abs(res - duality_residual_stacked(f, kernel, eps)) <= 1e-15
    return res


@pytest.mark.parametrize("dim,n,kid", DUALITY_CASES)
def test_duality_residual_is_the_stacked_route(dim, n, kid):
    geom, kernel = Geometry(dim, n, 32.0 if dim == 1 else 16.0), kernel_from_id(kid)
    for seed in (0, 1):
        f = mean_subtract(random_band_field(geom, seed=seed))
        for eps in (0.125, 0.25):
            if kid in ROW_DUALITY_KERNELS:
                assert_rows_are_the_stacked_route(f, kernel, eps)
            else:  # haar, gm and sgn-diff are not tagged real; riesz-diff's probe keeps its scales
                assert duality_row_family(f, kernel, eps) is None
                assert duality_residual(f, kernel, eps) == duality_residual_stacked(f, kernel, eps), (seed, eps)


def test_duality_takes_17_rows_for_64_scales():
    # 17 principal rows for the 64 scales of eps 0.25 at 4096 points
    geom, kernel = Geometry(1, 4096, 32.0), kernel_from_id("poisson-q")
    tg = LogTimeGrid(0.25, 4.0)
    assert np.count_nonzero((tg.scales > 0.25) & (tg.scales < 4.0)) == 64
    assert duality_row_family(mean_subtract(random_band_field(geom, seed=3)), kernel, 0.25).scales.size == 17


@dataclasses.dataclass(frozen=True)
class _SkewedReflection(Kernel):
    """A kernel whose reflected conjugate's transform is 1 + 1e-9 times its own,
    in both its coordinate and its radial form."""

    def reflect_conjugate(self) -> Kernel:
        reflected = Kernel.reflect_conjugate(self)
        hat, radial_hat = reflected.fourier, reflected.radial_fourier
        return dataclasses.replace(self, name=self.name + "~", fourier=lambda *xi: hat(*xi) * (1.0 + 1e-9),
                                   radial_fourier=lambda r: radial_hat(r) * (1.0 + 1e-9))


def test_duality_of_a_differing_reflection_keeps_the_scales():
    # a real radial kernel whose reflected conjugate is off by 1e-9: its table
    # on the shells is not the analysis table, so the rows are not taken, and
    # the residual sees the fault on a field where the truncated symbol is
    # about 0.2 (|xi| in (0.05, 0.3))
    geom = Geometry(1, 4096, 32.0)
    poisson = kernel_from_id("poisson-q")
    kernel = _SkewedReflection(**{field.name: getattr(poisson, field.name) for field in dataclasses.fields(poisson)})
    assert kernel.real and kernel.radial
    f = mean_subtract(random_band_field(geom, seed=6, band=(0.05, 0.3)))
    assert duality_row_family(f, poisson, 0.125) is not None and duality_row_family(f, kernel, 0.125) is None
    assert duality_residual(f, poisson, 0.125) < 1e-15
    res = duality_residual(f, kernel, 0.125)
    assert res == duality_residual_stacked(f, kernel, 0.125) and res > 1e-10


def duality_peak(f) -> tuple[float, int]:
    tracemalloc.start()
    try:
        res = duality_residual(f, kernel_from_id("poisson-q:2"), eps=0.25)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return res, peak


def test_duality_never_forms_the_stack():
    # 64 layers of 256^2 make a 64 MiB stack; the streamed residual holds
    # one chunk of layers at a time and a few grid-sized arrays: 14.6 real
    # fields' bytes for this complex field, where fresh arrays for every
    # chunk and the full complex grid for the truncated side took 16.5
    geom = Geometry(2, 256, 16.0)
    f = mean_subtract(random_band_field(geom, seed=7))
    res, peak = duality_peak(f)
    assert res < 1e-10
    assert peak < 16 * (8 * 256 * 256), f"peak {peak / 2**20:.2f} MiB"


def test_duality_of_a_real_field_stays_real():
    # a real field is held as real samples, its planes go through the half
    # spectrum, and the truncated side takes the symbol on the half grid:
    # 8.5 real fields' bytes (13.0 when the field was stored complex)
    geom = Geometry(2, 256, 16.0)
    f = mean_subtract(SampledField(geom, random_band_field(geom, seed=7).values.real))
    assert f.values.dtype == np.float64
    res, peak = duality_peak(f)
    assert res < 1e-10
    assert peak < 10 * (8 * 256 * 256), f"peak {peak / 2**20:.2f} MiB"


def test_duality_transforms_the_field_once(monkeypatch):
    # the truncated side multiplies the spectra the embedded side took; the
    # synthesis' forward transforms take stacks of layers, not the field
    geom = Geometry(2, 64, 16.0)
    f = mean_subtract(SampledField(geom, random_band_field(geom, seed=3).values.real))
    calls = []

    def counted(name):
        forward = getattr(np.fft, name)

        def transform(a, *args, **kwargs):
            if np.ndim(a) == geom.dim:
                calls.append(name)
            return forward(a, *args, **kwargs)

        return transform

    for name in ("fftn", "rfftn"):
        monkeypatch.setattr(np.fft, name, counted(name))
    assert duality_residual(f, kernel_from_id("poisson-q:2"), 0.25) < 1e-10
    assert calls == ["rfftn"]


# ---------------------------------------------------------------------------
# stored order: a shift by N/2 moves no bit of an FFT on the power-of-two
# grids that `Geometry` admits, so the engine, which transforms fields as
# they are stored, gives the bits of the centred route; on 8-point axes but
# for the sign of an exact zero (the imaginary parts of a real field's layers
# through the full spectrum)

def assert_same_bits(a: np.ndarray, b: np.ndarray, n: int) -> None:
    assert a.dtype == b.dtype and a.shape == b.shape
    if n == 8:  # x + 0.0 is +0.0 for either zero and x for any other x
        a, b = a + 0.0, b + 0.0
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("geom", [Geometry(1, 2**k, 16.0) for k in range(3, 13)]
                         + [Geometry(2, 2**k, 16.0) for k in range(3, 10)],
                         ids=lambda g: f"{g.dim}d-{g.n_samples}")
def test_stored_order_keeps_the_bits(geom):
    n = geom.n_samples
    rng = np.random.default_rng(n + geom.dim)
    real = rng.standard_normal(geom.shape)
    kernel = kernel_from_id("poisson-q" if geom.dim == 1 else "poisson-q:2")
    tagged = ScaleFamily.of_kernel(kernel, [0.5, 2.0], 0.3)
    symbol = continuous_symbol(kernel, LogTimeGrid(0.5, 2.0, 1))

    def at(values):
        return SampledField(geom, values)

    for values in (real, real + 1j * rng.standard_normal(geom.shape)):
        # the half spectrum (tagged real, an even symbol) and the full one
        for family in (tagged, dataclasses.replace(tagged, real=False)):
            assert_same_bits(family.square_sum([at(values)]),
                             centred_route(lambda v: family.square_sum([at(v)]), values, geom.dim), n)
            layers = family.layers(at(values))
            assert_same_bits(layers, centred_route(lambda v: family.layers(at(v)), values, geom.dim), n)
            assert_same_bits(family.synthesis(layers, geom).values,
                             centred_route(lambda h: family.synthesis(h, geom).values, layers, geom.dim), n)
        for sym in (symbol, dataclasses.replace(symbol, even=False)):
            assert_same_bits(apply_multiplier(sym, at(values)).values,
                             centred_route(lambda v: apply_multiplier(sym, at(v)).values, values, geom.dim), n)


# ---------------------------------------------------------------------------
# energy: the square sum integrated over the grid, by Parseval from the symbol
# on the half grid

def white_noise(geom, seed: int) -> SampledField:
    """Real, mean-zero and carrying content up to the Nyquist frequency."""
    return mean_subtract(SampledField(geom, np.random.default_rng(seed).standard_normal(geom.shape)))


def energy_fields(dim: int, geom=None):
    """A real, a complex (modulated) and a white-noise field carrying Nyquist
    content, all mean-zero so that every family accepts them; in a batch the
    complex field parts the real ones into two runs."""
    geom = geom or GEOMS[dim]
    return [
        mean_subtract(SampledField(geom, random_band_field(geom, seed=8).values.real)),
        mean_subtract(modulated_gaussian_field(geom, 1.5, 2.0, 0.3)),
        white_noise(geom, 11),
    ]


def energies(family, fields) -> np.ndarray:
    """h^d sum_x of the family's square sum of each field, by `_power_sums`."""
    geom = fields[0].geometry
    sums = _power_sums(geom, [family.symbol(*geom.fft_grids(half=True))])
    return (geom.spacing / geom.n_samples) ** geom.dim * np.array([sums(f)[0] for f in fields])


def energy_families(dim: int):
    f = energy_fields(dim)[0]
    profile = ball_average_profile(dim)
    diff = difference_multiplier(profile)
    families = {
        "smoothing": _smoothing_family(0.5, profile, dim, TG),
        "potential-layered": ScaleFamily(
            TG.scales, TG.weight * TG.scales ** -1.0,
            lambda t, *xi: diff(t, *xi) * riesz_multiplier(0.5, *xi)),
    }
    for kid in KERNELS[dim]:
        kernel = kernel_from_id(kid)
        families[f"{kid}:continuous"] = ScaleFamily.of_kernel(kernel, TG.scales, TG.weight)
        families[f"{kid}:dyadic"] = ScaleFamily.of_kernel(kernel, KR.scales)
    if dim == 1:
        families["sided-average"] = _sided_average_family(0.75, TG.scales, 32, TG.weight)
        families["second-difference"] = _second_difference_family(f, TG.scales, TG.weight)
    return families


@pytest.mark.parametrize("dim", [1, 2])
def test_energy_is_the_integrated_square_sum(dim):
    fields = energy_fields(dim)
    h_d = GEOMS[dim].cell_volume
    for name, family in energy_families(dim).items():
        want = h_d * family.square_sum(fields).sum(axis=tuple(range(1, dim + 1)))
        got = energies(family, fields)
        assert np.all(np.abs(got - want) <= 1e-12 * want), name


def physical_ratios(members, dim, p, weight):
    """Weighted norms of the physical square functions, member by member."""
    kernel = kernel_from_id(KERNELS[dim][0])
    dkernel = kernel_from_id(KERNELS[dim][-1])
    profile = ball_average_profile(dim)
    out = {"gfun": [], "dyadic": [], "sobolev": []}
    for f in members:
        nf = weighted_norm(f, p, weight)
        out["gfun"].append(weighted_norm(g_function(f, kernel, TG), p, weight) / nf)
        out["dyadic"].append(weighted_norm(g_function(f, dkernel, KR), p, weight) / nf)
        s = bessel_potential(f, 0.5)
        d = dyadic_smoothing_difference(s, 0.5, profile, KR)
        out["sobolev"].append((weighted_norm(d, p, weight) + weighted_norm(s, p, weight)) / nf)
    return out


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("c", [1.0, 3.7])
def test_constant_weight_ratios_match_physical_route(dim, c):
    members = default_test_family(GEOMS[dim], seed=6).members[:6]
    weight = constant_weight(c)
    ratio_fns = {
        "gfun": square_function_ratio(kernel_from_id(KERNELS[dim][0]), TG, 2.0, weight),
        "dyadic": square_function_ratio(kernel_from_id(KERNELS[dim][-1]), KR, 2.0, weight),
        "sobolev": sobolev_equivalence_ratio(0.5, ball_average_profile(dim), KR, 2.0, weight),
    }
    want = physical_ratios(members, dim, 2.0, weight)
    for name, ratio_fn in ratio_fns.items():
        assert np.allclose(ratio_fn(members), want[name], rtol=1e-12, atol=0.0), name


def test_p2_constant_weight_forms_no_layer(monkeypatch):
    members = default_test_family(GEOMS[1], seed=6).members
    ratio_fn = square_function_ratio(kernel_from_id("haar"), TG, 2.0, constant_weight(2.0))

    def no_inverse(*args, **kwargs):
        raise AssertionError("an inverse FFT formed a layer")

    monkeypatch.setattr(np.fft, "ifftn", no_inverse)
    assert all(r is not None for r in ratio_fn(members))


def test_untagged_family_at_p2_takes_the_physical_route(monkeypatch):
    # a family tagged neither radial, odd nor real promises no even symbol,
    # which the half grid's power sums need
    members = default_test_family(GEOMS[1], seed=6).members
    kernel = dataclasses.replace(kernel_from_id("poisson-q"), radial=False, real=False)
    ball = ball_average_profile(1)
    profile = dataclasses.replace(ball, kernel=dataclasses.replace(ball.kernel, radial=False, real=False))
    weight = constant_weight(3.7)

    def no_parseval(*args):
        raise AssertionError("a Parseval sum ran")

    monkeypatch.setattr(sobolev, "_power_sums", no_parseval)
    got = square_function_ratio(kernel, TG, 2.0, weight)(members)
    nf = [weighted_norm(f, 2.0, weight) for f in members]
    want = [weighted_norm(g_function(f, kernel, TG), 2.0, weight) / n for f, n in zip(members, nf)]
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    got = sobolev_equivalence_ratio(0.5, profile, KR, 2.0, weight)(members)
    assert np.allclose(got, physical_sobolev_ratios(members, 0.5, profile, KR, 2.0, weight), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_parseval_symbols_see_the_half_grid_alone(monkeypatch, dim):
    geom = GEOMS[dim]
    half = np.broadcast_shapes(*(np.shape(x) for x in geom.fft_grids(half=True)))
    # every family here is radial or 1-D odd, so its symbol is summed on the
    # shells of the half grid: all of its points in 1-D, 457 of 64 x 33 in 2-D
    shells = _shells(geom, half=True)[0].shape
    assert shells == half if dim == 1 else math.prod(shells) < math.prod(half)
    shapes = []
    power_sums, summed = sobolev._power_sums, ScaleFamily._summed

    def watched_sums(g, symbols):
        shapes.extend(np.shape(s) for s in symbols if s is not None)
        return power_sums(g, symbols)

    def watched_summed(family, xi):
        shapes.append(np.broadcast_shapes(*(np.shape(x) for x in xi)))
        return summed(family, xi)

    def no_full_spectrum(*args, **kwargs):
        raise AssertionError("a full-spectrum FFT ran")

    monkeypatch.setattr(sobolev, "_power_sums", watched_sums)
    monkeypatch.setattr(ScaleFamily, "_summed", watched_summed)
    monkeypatch.setattr(np.fft, "fftn", no_full_spectrum)
    members = default_test_family(geom, seed=6).members
    for ratio_fn in (
        square_function_ratio(kernel_from_id(KERNELS[dim][0]), TG, 2.0, constant_weight()),
        square_function_ratio(kernel_from_id(KERNELS[dim][-1]), KR, 2.0, constant_weight()),
        sobolev_equivalence_ratio(0.5, ball_average_profile(dim), KR, 2.0, constant_weight(3.7)),
    ):
        assert None not in ratio_fn(members)
    # two symbols per square-function ratio (the family's, as evaluated on the
    # shells and as summed on the half grid), three for the Sobolev ratio (the
    # family's on the shells, sigma b^2 and b^2)
    assert shapes == [shells, half, shells, half, shells, half, half]


@pytest.mark.parametrize("half_length,exact", [(16.0, True), (10.0, False)])
def test_shell_symbols_match_the_grid_symbol(half_length, exact):
    # on shells, without np.unique on the grid: the grid route's bits where
    # 2L is a power of two, round-off of its largest value elsewhere; b^2 at
    # (|xi|, 0) moves by round-off on either grid
    geom = Geometry(2, 64, half_length)
    grids = geom.fft_grids(half=True)
    b = bessel_symbol(0.5)
    families = [ScaleFamily.of_kernel(kernel_from_id(k), TG.scales, TG.weight) for k in KERNELS[2]]
    families.append(_smoothing_family(0.5, ball_average_profile(2), 2, KR))
    for family in families:
        want = family.symbol(*grids)
        got, b2, sigma_b2 = family.on_grid(
            geom, lambda sigma, *xi: [sigma, b.evaluate(*xi) ** 2, sigma * b.evaluate(*xi) ** 2])
        assert got.shape == want.shape
        if exact:
            assert np.array_equal(got, want)
        else:
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(want)
        b2_grid = b.evaluate(*grids) ** 2
        assert np.allclose(b2, b2_grid, rtol=1e-15, atol=0.0)
        assert np.max(np.abs(sigma_b2 - want * b2_grid)) <= 1e-15 * np.max(want * b2_grid)
    # a family without shells evaluates the grid as it is
    grid_family = on_the_grid(families[0])
    assert np.array_equal(grid_family.on_grid(geom)[0], grid_family.symbol(*grids))


@pytest.mark.parametrize("value", [-1.0, np.inf, np.nan])
def test_bad_constant_weights_still_raise(value):
    members = default_test_family(GEOMS[1], seed=6).members[:2]
    weight = lambda *x: np.full(np.broadcast_shapes(*(np.shape(c) for c in x)), value)
    for ratio_fn in (
        square_function_ratio(kernel_from_id("haar"), TG, 2.0, weight),
        sobolev_equivalence_ratio(0.5, ball_average_profile(1), KR, 2.0, weight),
    ):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            ratio_fn(members)


# ---------------------------------------------------------------------------
# radial families: evaluated once per |xi| shell, gathered onto the grid

def radial_families(dim: int):
    """Every radial family the library builds, as the library builds it."""
    profile = ball_average_profile(dim)
    smoothing = _smoothing_family(0.5, profile, dim, TG)
    riesz = riesz_symbol(0.5).evaluate
    families = {
        "smoothing": smoothing,
        "potential-layered": ScaleFamily(
            TG.scales, smoothing.weights,
            lambda t, r: smoothing.multiplier(t, r) * riesz(r), profile.kernel.radial),
    }
    for kid in KERNELS[dim]:
        kernel = kernel_from_id(kid)
        if kernel.radial:
            families[f"{kid}:continuous"] = ScaleFamily.of_kernel(kernel, TG.scales, TG.weight)
            families[f"{kid}:dyadic"] = ScaleFamily.of_kernel(kernel, KR.scales)
    return families


@pytest.mark.parametrize("dim", [1, 2])
def test_shell_path_matches_full_grid_path(dim):
    geom, fields = GEOMS[dim], energy_fields(dim)
    axis = geom.frequency_axis()
    symbol_inputs = {
        "fft": geom.fft_grids(),
        "centred": centred_grids(geom),
        "cli-axis": (axis,) + (np.zeros_like(axis),) * (dim - 1),
    }
    families = radial_families(dim)
    assert len(families) == 6  # two kernels of KERNELS[dim] are radial
    for name, shells in families.items():
        assert shells.radial, name
        full = on_the_grid(shells)
        assert rel(shells.square_sum(fields), full.square_sum(fields)) <= 1e-12, name
        layers = shells.layers(fields[1])
        assert rel(layers, full.layers(fields[1])) <= 1e-12, name
        assert rel(shells.synthesis(layers, geom).values, full.synthesis(layers, geom).values) <= 1e-12, name
        for where, xi in symbol_inputs.items():
            assert rel(shells.symbol(*xi), full.symbol(*xi)) <= 1e-12, (name, where)
        want = energies(full, fields)
        assert np.all(np.abs(energies(shells, fields) - want) <= 1e-12 * want), name


def test_non_radial_kernel_keeps_the_full_grid():
    kernel, f = _tilted_gaussian_kernel(), field(2, seed=9)
    assert not kernel.radial
    m = kernel_multiplier(kernel)
    want = loop_square_sum(f, m, TG.scales, TG.weight)
    family = ScaleFamily.of_kernel(kernel, TG.scales, TG.weight)
    assert rel(family.square_sum([f])[0], want) <= 1e-12
    grids = centred_grids(GEOMS[2])
    assert rel(family.symbol(*grids), loop_symbol(m, TG.scales, TG.weight, *grids)) <= 1e-12
    # flagged radial, its multiplier of the coordinates would be handed the
    # shells' radii alone, one array where the kernel takes two
    with pytest.raises(TypeError):
        dataclasses.replace(family, radial=True).square_sum([f])


# ---------------------------------------------------------------------------
# odd 1-D families: evaluated once per |xi|, gathered with the sign of xi

def odd_families():
    """Every odd 1-D family the library builds, as the library builds it."""
    families = {
        "sided-average": _sided_average_family(0.75, TG.scales, 32, TG.weight),
        "second-difference": _second_difference_family(field(1), TG.scales, TG.weight),
    }
    for kid in KERNELS[1]:
        kernel = kernel_from_id(kid)
        if kernel.odd:
            families[f"{kid}:continuous"] = ScaleFamily.of_kernel(kernel, TG.scales, TG.weight)
            families[f"{kid}:dyadic"] = ScaleFamily.of_kernel(kernel, KR.scales)
    return families


def test_odd_path_matches_full_grid_path():
    geom, fields = GEOMS[1], energy_fields(1)
    families = odd_families()
    assert len(families) == 8  # three kernels of KERNELS[1] are odd
    for name, half in families.items():
        assert half.odd, name
        full = dataclasses.replace(half, odd=False)
        # m(-xi) == -m(xi) bit for bit, so every layer is the same bits
        assert np.array_equal(half.square_sum(fields), full.square_sum(fields)), name
        layers = half.layers(fields[1])
        assert np.array_equal(layers, full.layers(fields[1])), name
        assert np.array_equal(half.synthesis(layers, geom).values, full.synthesis(layers, geom).values), name
        # the symbol adds its scales one at a time, whatever points it sees
        for xi in (geom.fft_grids()[0], geom.frequency_axis()):
            assert np.array_equal(half.symbol(xi), full.symbol(xi)), name


@pytest.mark.parametrize("n", [128, 256])
def test_symbol_row_is_the_axis_evaluation(n):
    # the 2-D symbol CSV is the row xi_2 = 0 of the one sample: each value
    # must not depend on the other points evaluated with it
    geom = Geometry(2, n, 16.0)
    xi = geom.frequency_axis()
    off_dc = xi != 0
    for kid in ("poisson-q:2", "riesz-diff:0.5:ball:2", "riesz-diff:1.5:ball:2"):
        kernel = kernel_from_id(kid)
        for sym in (continuous_symbol(kernel, default_time_grid(geom)),
                    dyadic_symbol(kernel, default_dyadic_range(geom))):
            row = np.fft.fftshift(sym.sample(geom)[:, 0])  # xi_2 = 0 comes first in FFT order
            with np.errstate(divide="ignore", invalid="ignore"):
                axis = sym.evaluate(xi, np.zeros_like(xi))
            assert np.array_equal(row[off_dc], axis[off_dc]), (kid, sym.name)


def test_a_wrong_odd_tag_changes_the_g_function():
    # poisson-q is even: tagged odd, its layers at xi < 0 change sign (on the
    # full grid: on the half grid a wrong sign would touch the -N/2 column alone)
    kernel = kernel_from_id("poisson-q")
    wrong = dataclasses.replace(kernel, odd=True, radial=False, real=False)
    f = field(1, seed=9)
    assert rel(g_function(f, wrong, TG).values, g_function(f, kernel, TG).values) > 1e-2


# ---------------------------------------------------------------------------
# the Sobolev ratio at p = 2 and a constant weight: one forward FFT per member

def physical_sobolev_ratios(members, order, profile, scales, p, weight):
    """(||D Bg|| + ||Bg||) / ||g|| with B the Bessel potential and D the
    smoothing differences over the scale set, every norm taken in physical
    space."""
    out = []
    for g in members:
        s = bessel_potential(g, order)
        d = smoothing_difference_function(s, order, profile, scales)
        out.append((weighted_norm(d, p, weight) + weighted_norm(s, p, weight)) / weighted_norm(g, p, weight))
    return out


# ids "order-dim" on the dyadic range, "order-dim-continuous" on the log-time grid
SOBOLEV_RATIO_CASES = [
    pytest.param(order, dim, scales, id=f"{order}-{dim}{suffix}")
    for scales, suffix in ((KR, ""), (TG, "-continuous"))
    for dim in (1, 2)
    for order in (0.25, 1.5)
]


@pytest.mark.parametrize("order, dim, scales", SOBOLEV_RATIO_CASES)
def test_sobolev_parseval_ratios_match_physical_route(order, dim, scales):
    members = default_test_family(GEOMS[dim], seed=12).members
    profile = ball_average_profile(dim)
    for weight in (constant_weight(), constant_weight(3.7)):
        got = sobolev_equivalence_ratio(order, profile, scales, 2.0, weight)(members)
        want = physical_sobolev_ratios(members, order, profile, scales, 2.0, weight)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    # p = 3 under a power weight keeps the physical route
    weight = weight_from_id("pow:0.3", radius_floor=GEOMS[dim].spacing)
    got = sobolev_equivalence_ratio(order, profile, scales, 3.0, weight)(members)
    want = physical_sobolev_ratios(members, order, profile, scales, 3.0, weight)
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_sobolev_p2_is_one_forward_fft_per_member(monkeypatch, dim):
    members = default_test_family(GEOMS[dim], seed=6).members
    ratio_fn = sobolev_equivalence_ratio(0.5, ball_average_profile(dim), KR, 2.0, constant_weight(3.7))
    calls = []

    def counted(name):
        forward = getattr(np.fft, name)

        def transform(*args, **kwargs):
            calls.append((name, np.shape(args[0])))
            return forward(*args, **kwargs)

        return transform

    def no_inverse(*args, **kwargs):
        raise AssertionError("an inverse FFT ran")

    for name in ("fftn", "rfftn"):
        monkeypatch.setattr(np.fft, name, counted(name))
    for name in ("ifftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, no_inverse)
    assert all(r is not None for r in ratio_fn(members))
    # one rfftn per real plane: the 15 real members one each, the 5 complex two
    planes = sum(2 if np.imag(f.values).any() else 1 for f in members)
    assert planes == 25
    assert calls == [("rfftn", GEOMS[dim].shape)] * planes


@pytest.mark.parametrize("geom", [GEOMS[1], Geometry(1, 64, 4.0), GEOMS[2], Geometry(2, 16, 2.0)],
                         ids=lambda g: f"{g.dim}d-{g.n_samples}")
def test_power_sums_match_the_full_spectrum(geom, rng):
    # even symbols on the full grid, S(-k) = S(k), given to the sums on the half grid
    negated = np.ix_(*((-np.arange(n)) % n for n in geom.shape))  # the index of -k
    noise = rng.uniform(0.5, 2.0, geom.shape)
    symbols = [noise + noise[negated], np.exp(-sum(x**2 for x in geom.fft_grids())), None]
    half = geom.n_samples // 2 + 1
    sums = _power_sums(geom, [None if s is None else np.broadcast_to(s, geom.shape)[..., :half] for s in symbols])
    f = random_band_field(geom, 3, band=(0.0, 8.0))  # complex, with a mean
    for f in (SampledField(geom, f.values.real), f):
        want = [full_power_sum(f, 1.0 if s is None else s) for s in symbols]
        assert np.allclose(sums(f), want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_p2_ratios_match_the_full_spectrum_oracle(dim):
    # the half spectrum of the 15 real members against complex FFTs of the full grid
    geom = GEOMS[dim]
    members = default_test_family(geom, seed=9).members
    grids = geom.fft_grids()
    profile = ball_average_profile(dim)
    sigma = _smoothing_family(0.5, profile, dim, KR).symbol(*grids)
    b2 = bessel_symbol(0.5).evaluate(*grids) ** 2
    want = []
    for g in members:
        diff, smoothed, total = (full_power_sum(g, s) for s in (sigma * b2, b2, 1.0))
        want.append((math.sqrt(diff) + math.sqrt(smoothed)) / math.sqrt(total))
    got = sobolev_equivalence_ratio(0.5, profile, KR, 2.0, constant_weight(3.7))(members)
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    kernel = kernel_from_id(KERNELS[dim][0])
    sigma = ScaleFamily.of_kernel(kernel, TG.scales, TG.weight).symbol(*grids)
    h_d = (geom.spacing / geom.n_samples) ** dim
    want = [math.sqrt(h_d * full_power_sum(g, sigma)) / weighted_norm(g, 2.0, constant_weight()) for g in members]
    got = square_function_ratio(kernel, TG, 2.0, constant_weight())(members)
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# families tagged real: real fields through the half spectrum

REAL_GEOMS = [Geometry(1, 4096, 32.0), Geometry(1, 512, 16.0), Geometry(2, 128, 16.0)]
REAL_KERNELS = {1: ["poisson-q", "riesz-diff:0.5:ball", "band:1:3"], 2: ["poisson-q:2", "riesz-diff:0.5:ball:2"]}
ODD_KERNELS = ["haar", "gm:0.75", "sgn-diff:ball"]


def real_families(dim: int):
    """Every family tagged real that the library builds, as it builds it."""
    profile = ball_average_profile(dim)
    families = {
        "ball": ScaleFamily.of_kernel(profile.kernel, TG.scales, TG.weight),
        "smoothing": _smoothing_family(0.5, profile, dim, TG),
    }
    for kid in REAL_KERNELS[dim]:
        kernel = kernel_from_id(kid)
        families[f"{kid}:continuous"] = ScaleFamily.of_kernel(kernel, TG.scales, TG.weight)
        families[f"{kid}:dyadic"] = ScaleFamily.of_kernel(kernel, KR.scales)
    return families


@pytest.mark.parametrize("geom", REAL_GEOMS, ids=lambda g: f"{g.dim}d-{g.n_samples}")
def test_real_route_matches_complex_oracle(geom):
    fields = energy_fields(geom.dim, geom)
    for name, family in real_families(geom.dim).items():
        assert family.real, name
        sums = family.square_sum(fields)
        for got, want in zip(sums, complex_square_sums(family, fields)):
            assert rel(got, want) <= 1e-12, name
        layers = family.layers(fields[2])
        assert rel(layers, complex_layers(family, fields[2])) <= 1e-12, name
        assert not layers.imag.any(), name
        got = family.synthesis(layers, geom).values
        assert rel(got, complex_synthesis(family, layers, geom)) <= 1e-12, name
        # a complex field, and its complex layers, as a real plane plus i times another
        layers = family.layers(fields[1])
        assert rel(layers, complex_layers(family, fields[1])) <= 1e-12, name
        got = family.synthesis(layers, geom).values
        assert rel(got, complex_synthesis(family, layers, geom)) <= 1e-12, name


def test_a_complex_field_takes_both_planes_in_one_piece():
    # at 256^2 a chunk holds one scale and the budget not even one plane of it:
    # the two planes of a complex field still go through the chunk together
    geom = Geometry(2, 256, 16.0)
    f = mean_subtract(modulated_gaussian_field(geom, 1.5, 2.0, 0.3))
    kernel = kernel_from_id("poisson-q:2")
    family = ScaleFamily.of_kernel(kernel, TG.scales[:4], TG.weight)
    layers = family.layers(f)
    assert rel(layers, complex_layers(family, f)) <= 1e-12
    assert rel(family.synthesis(layers, geom).values, complex_synthesis(family, layers, geom)) <= 1e-12
    res = duality_residual(f, kernel, 0.25)
    assert abs(res - complex_duality_residual(f, kernel, 0.25)) <= 1e-12 and res < 1e-10


REAL_DUALITY_CASES = [(g, kid) for g in REAL_GEOMS for kid in REAL_KERNELS[g.dim][:2]]


@pytest.mark.parametrize("geom,kid", REAL_DUALITY_CASES, ids=lambda c: getattr(c, "n_samples", c))
def test_real_duality_residual_matches_complex_oracle(geom, kid):
    kernel, f = kernel_from_id(kid), white_noise(geom, 24)
    for eps in (0.125, 0.25):
        if kid in ROW_DUALITY_KERNELS:
            res = assert_rows_are_the_stacked_route(f, kernel, eps)
        else:
            res = duality_residual(f, kernel, eps)
            assert res == duality_residual_stacked(f, kernel, eps), eps
        assert abs(res - complex_duality_residual(f, kernel, eps)) <= 1e-12, eps
        assert res < 1e-10, eps


@pytest.mark.parametrize("dim", [1, 2])
def test_real_multipliers_see_the_half_grid_alone(dim):
    # untagged radial, so that the multiplier sees the grid and not its shells
    geom, fields = GEOMS[dim], energy_fields(dim)
    half = geom.fft_grids(half=True)
    shape = np.broadcast_shapes(*(np.shape(x) for x in half))
    for name, family in real_families(dim).items():
        seen = []

        def watched(t, *xi, _multiplier=grid_multiplier(family)):
            seen.append(np.broadcast_shapes(*(np.shape(x) for x in xi)))
            assert all(np.array_equal(np.broadcast_to(x, shape), np.broadcast_to(h, shape)) for x, h in zip(xi, half))
            return _multiplier(t, *xi)

        grid_family = dataclasses.replace(family, radial=False, multiplier=watched)
        grid_family.square_sum(fields)
        grid_family.synthesis(grid_family.layers(fields[1]), geom)
        assert seen and set(seen) == {shape}, name


def test_real_fields_take_the_half_spectrum(monkeypatch):
    geom = Geometry(1, 512, 16.0)
    test_family = default_test_family(geom, seed=4)
    members = test_family.members
    real = [not f.values.imag.any() for f in members]
    assert sum(real) == 15
    seen = {"irfftn": 0, "ifftn": 0}
    for name in seen:
        inverse = getattr(np.fft, name)

        def counted(a, *args, _inverse=inverse, _name=name, **kwargs):
            seen[_name] += a.shape[0] * a.shape[1]  # fields x scales
            return _inverse(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    family = ScaleFamily.of_kernel(kernel_from_id("poisson-q"), TG.scales, TG.weight)
    family.square_sum(members)
    # every field as real planes: the 15 real members one each, the 5 complex
    # two, one inverse per layer: r principal rows for each plane but three,
    # both planes of the Gaussian modulated at 4 and the real plane of the
    # one at 8, the Nyquist frequency, whose energy the rows would not all
    # see; those take the scales
    assert test_family.labels[13:15] == ("modgauss:f4", "modgauss:f8")
    rows, layers = principal_rows(family, members), plane_layers(family, members)
    assert len(layers) == 15 + 2 * 5 and 0 < 2 * rows < TG.node_count
    assert list(layers[16:19]) == [TG.node_count] * 3 and sorted(layers) == [rows] * 22 + [TG.node_count] * 3
    assert seen == {"irfftn": 22 * rows + 3 * TG.node_count, "ifftn": 0}
    # a family without the tag takes every field through the full spectrum
    seen.update(irfftn=0, ifftn=0)
    ScaleFamily.of_kernel(kernel_from_id("haar"), TG.scales, TG.weight).square_sum(members)
    assert seen == {"irfftn": 0, "ifftn": 20 * TG.node_count}


def principal_parts(family, fields) -> list:
    """The (family, planes) parts of the family's square sums of fields."""
    return list(family._principal(family._points(fields[0].geometry), _spectra(fields, family.real)[1]))


def principal_rows(family, fields) -> int:
    """How many principal rows the family's square sums of fields take: the
    parts of `_principal` that do not evaluate the family's own multiplier."""
    return sum(part.scales.size for part, _ in principal_parts(family, fields) if part.multiplier is not family.multiplier)


def plane_layers(family, fields) -> np.ndarray:
    """How many layers, rows or scales, each plane of the fields takes."""
    layers = np.zeros(len(_spectra(fields, family.real)[1]), int)
    for part, planes in principal_parts(family, fields):
        layers[slice(None) if planes is None else planes] += part.scales.size
    return layers


def recorded_eighs(monkeypatch, probes=None) -> list:
    """(Gram, eigenvalues) of every `np.linalg.eigh` call from now on, and
    into the list probes, when given, the Gram of every `eigvalsh` call."""
    seen, eigh, eigvalsh = [], np.linalg.eigh, np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        lam, u = eigh(a, *args, **kwargs)
        seen.append((np.array(a), lam))
        return lam, u

    def probing(a, *args, **kwargs):
        probes.append(np.array(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    if probes is not None:
        monkeypatch.setattr(np.linalg, "eigvalsh", probing)
    return seen


PRINCIPAL_CASES = [(Geometry(1, 4096, 32.0), "poisson-q"), (Geometry(2, 128, 16.0), "poisson-q:2")]


def band_fields(geom):
    """A real, a complex and a white-noise field, all mean-zero, with no
    energy near the grid's Nyquist frequencies beyond white noise's."""
    return [energy_fields(geom.dim, geom)[0], mean_subtract(random_band_field(geom, seed=9)), white_noise(geom, 11)]


@pytest.mark.parametrize("geom,kid", PRINCIPAL_CASES, ids=lambda c: getattr(c, "dim", c))
def test_principal_route_matches_the_scale_loop(geom, kid, monkeypatch):
    # the default log grid, 112 scales at 4096 points and 32 at 128^2, one block each
    kernel, tg = kernel_from_id(kid), default_time_grid(geom)
    family = ScaleFamily.of_kernel(kernel, tg.scales, tg.weight)
    eighs = recorded_eighs(monkeypatch)
    fields = band_fields(geom)
    sums = family.square_sum(fields)
    rows = principal_rows(family, fields)
    assert len(eighs) == 2 and tg.node_count == (112 if geom.dim == 1 else 32)
    assert 0 < 2 * rows <= tg.node_count
    for f, got in zip(fields, sums):
        assert rel(got, loop_square_sum(f, kernel_multiplier(kernel), tg.scales, tg.weight)) <= 1e-12
    # the dropped eigenvalues sum to at most eps trace(G), the next one would not
    gram, lam = eighs[0]
    drop = tg.node_count - rows
    assert np.sum(lam[:drop]) <= _PRINCIPAL_EPS * np.trace(gram) < np.sum(lam[:drop + 1])
    if geom.dim == 1:
        assert rows <= 32  # 26 of 112: a quarter of the inverse FFTs


def test_principal_rows_set_the_inverse_count(monkeypatch):
    # the test family at 4096 points takes one inverse FFT per principal row
    # and real plane: 15 real members, 5 complex ones of two planes
    geom = Geometry(1, 4096, 32.0)
    members, tg = default_test_family(geom, seed=4).members, default_time_grid(geom)
    family = ScaleFamily.of_kernel(kernel_from_id("poisson-q"), tg.scales, tg.weight)
    rows = principal_rows(family, members)
    assert 0 < 4 * rows <= tg.node_count
    seen, irfftn = [], np.fft.irfftn

    def counted(a, *args, **kwargs):
        seen.append(a.shape[0] * a.shape[1])  # planes x rows
        return irfftn(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "irfftn", counted)
    family.square_sum(members)
    assert sum(seen) == (15 + 2 * 5) * rows


def test_fields_the_family_barely_sees_keep_the_scales():
    # a modulated Gaussian at |xi| = 2.5 on a 128^2 grid, Nyquist frequency 2
    # per axis: its energy sits where the multipliers are 1e-7 of their peak,
    # and the rows dropped by the trace rule would take 4.7e-13 of its square
    # sum, above _PRINCIPAL_SHARE.  Its two planes keep the scales; the other
    # fields of its batch (four planes) take the rows all the same
    geom = Geometry(2, 128, 16.0)
    kernel, tg = kernel_from_id("poisson-q:2"), default_time_grid(geom)
    family = ScaleFamily.of_kernel(kernel, tg.scales, tg.weight)
    aliased = energy_fields(2, geom)[1]
    batch = band_fields(geom) + [aliased]
    rows = principal_rows(family, batch)
    assert principal_rows(family, [aliased]) == 0 and 0 < 2 * rows < tg.node_count
    assert list(plane_layers(family, batch)) == [rows] * 4 + [tg.node_count] * 2
    for f, got in zip(batch, family.square_sum(batch)):
        assert rel(got, loop_square_sum(f, kernel_multiplier(kernel), tg.scales, tg.weight)) <= 1e-12


def rotatable_families():
    """{name: (family, geometry)} for every `_rotatable` family the tests and
    the benchmark build: poisson-q and poisson-q:2 on their default log grids
    at every grid size they take, riesz-diff and the ball smoothing family
    of order 0.5 in 1-D and 2-D."""
    cases = {}
    for dim, sizes, kid in ((1, (256, 512, 1024, 2048, 4096), "poisson-q"), (2, (64, 128, 256, 512), "poisson-q:2")):
        for n in sizes:
            geom = Geometry(dim, n, 32.0 if dim == 1 else 16.0)
            tg = default_time_grid(geom)
            cases[f"{kid}-{n}"] = ScaleFamily.of_kernel(kernel_from_id(kid), tg.scales, tg.weight), geom
    for dim, n, kid in ((1, 4096, "riesz-diff:0.5:ball"), (2, 128, "riesz-diff:0.5:ball:2")):
        geom = Geometry(dim, n, 32.0 if dim == 1 else 16.0)
        for scales in (default_time_grid(geom), default_dyadic_range(geom)):
            cases[f"{kid}-{n}-{type(scales).__name__}"] = (
                ScaleFamily.of_kernel(kernel_from_id(kid), scales.scales, scales.weight), geom)
        cases[f"ball-{dim}d"] = _smoothing_family(0.5, ball_average_profile(dim), dim, default_time_grid(geom)), geom
    return cases


ROTATABLE = rotatable_families()


@pytest.mark.parametrize("name", ROTATABLE)
def test_gram_floor_and_single_pass_sums_keep_the_bits(name):
    # the Gram of a block with its entries below 2^-511 zeroed is Re(A A^H)
    # of the table as evaluated, bit for bit, and no operand of its product
    # is a nonzero below the floor; sigma and kappa taken in one pass are
    # the sums of |A|^2 and |B|^2 that the rows were guarded by before
    family, geom = ROTATABLE[name]
    assert family._rotatable()
    points = family._points(geom)[0]
    step = math.isqrt(grid._CHUNK_BYTES // 8)
    for lo in range(0, family.scales.size, step):
        block = slice(lo, lo + step)
        table = list(family._weighted(block, points))
        unfloored = [a.copy() for _, a in table]
        gram = _gram(iter(table))
        assert gram.tobytes() == sum((a @ a.conj().T).real for a in unfloored).tobytes()
        for (_, a), u in zip(table, unfloored):
            assert a.dtype == np.float64
            assert not np.any((a != 0) & (np.abs(a) < _GRAM_FLOOR))
            assert np.array_equal(a, np.where(np.abs(u) < _GRAM_FLOOR, 0.0, u))
        lam, vectors = np.linalg.eigh(gram)
        axes = vectors[:, lam.size - _kept(gram, lam):].T
        rows, sigma, kappa = family._principal_rows(block, points, axes)
        parts = [part for part, _ in table]
        assert rows.tobytes() == np.concatenate([axes @ u for u in unfloored], axis=1).tobytes()
        assert sigma.tobytes() == np.concatenate([np.sum(np.abs(u) ** 2, axis=0) for u in unfloored]).tobytes()
        assert kappa.tobytes() == np.concatenate([np.sum(np.abs(rows[:, p]) ** 2, axis=0) for p in parts]).tobytes()


@pytest.mark.parametrize("points", [1, 2, 5, 146])
def test_single_pass_row_sums_keep_the_bits_of_their_loops(points):
    # on a lone column np.sum and einsum add out of order; the helpers do not
    rng = np.random.default_rng(points)
    q = rng.standard_normal((112, points)) ** 2 * np.exp(rng.uniform(-30, 30, (112, points)))
    acc = rng.uniform(0.0, 1.0, points)
    want = acc.copy()
    for row in q:
        want += row
    _add_in_order(q.copy(), acc)
    assert acc.tobytes() == want.tobytes()
    a = rng.standard_normal((112, points)) * np.exp(rng.uniform(-30, 30, (112, points)))
    assert _column_squares(a, np.empty(points)).tobytes() == np.sum(np.abs(a) ** 2, axis=0).tobytes()


def test_the_default_poisson_table_underflows():
    # the floor is not vacuous: the default 1-D poisson-q table, -2 pi t rho
    # e^(-2 pi t rho) weighted, is subnormal where t rho > ~110
    family, geom = ROTATABLE["poisson-q-4096"]
    a = np.concatenate([a for _, a in family._weighted(slice(None), family._points(geom)[0])], axis=1)
    assert a.shape == (112, 2049)
    assert 0.004 < np.count_nonzero((a != 0) & (np.abs(a) < 2.0**-1022)) / a.size < 0.006
    assert np.count_nonzero((a != 0) & (np.abs(a) < _GRAM_FLOOR)) > np.count_nonzero((a != 0) & (np.abs(a) < 2.0**-1022))


def test_duality_residual_evaluates_three_tables():
    # the synthesis Gram's table, the synthesis rows' and the analysis table
    # that they are checked against, from which the truncated side's symbol
    # is summed as well: three tables of the 64 scales on the shells, and
    # the probe's
    geom = Geometry(2, 128, 16.0)
    kernel = kernel_from_id("poisson-q:2")
    f = mean_subtract(random_band_field(geom, seed=3))
    points = []

    def counted(r, hat=kernel.radial_fourier):
        points.append(np.size(r))
        return hat(r)

    res = duality_residual(f, dataclasses.replace(kernel, radial_fourier=counted), 0.25)
    assert res == duality_residual_rows_stacked(f, kernel, 0.25) and res < 1e-15
    shells = _shells(geom, True)[0].size
    probe = len(range(0, shells, shells // (2 * 64)))
    assert sum(points) == 3 * 64 * shells + 64 * probe


@pytest.mark.parametrize("geom,nodes", [(Geometry(1, 4096, 32.0), 16), (Geometry(1, 4096, 32.0), 64), (Geometry(2, 128, 16.0), 16)],
                         ids=["1d", "1d-two-blocks", "2d"])
def test_duality_rows_sum_the_symbol_of_on_grid(geom, nodes):
    # the symbol summed from the analysis table as the rows are checked has
    # the bits of the analysis family's own sum on the shells, across the
    # blocks of 181 scales too (256 scales at 64 nodes per octave)
    kernel, tg = kernel_from_id("poisson-q" if geom.dim == 1 else "poisson-q:2"), LogTimeGrid(0.25, 4.0, nodes)
    t = tg.scales[_window_run(tg.scales, (0.25, 4.0))]
    analysis = ScaleFamily.of_kernel(kernel, t, tg.weight)
    synthesis = ScaleFamily.of_kernel(kernel.reflect_conjugate(), t, tg.weight)
    f = mean_subtract(random_band_field(geom, seed=3))
    grid_points = analysis._points(geom)
    rows, symbol = _duality_rows(analysis, synthesis, _spectra([f], True)[1], grid_points)
    assert 0 < rows.scales.size < t.size and t.size == 4 * nodes
    assert symbol.tobytes() == analysis._summed(grid_points[0]).tobytes()
    assert np.take(symbol, grid_points[1]).tobytes() == analysis.on_grid(geom)[0].tobytes()


@pytest.mark.parametrize("tg", [default_time_grid(Geometry(1, 4096, 32.0)), default_dyadic_range(Geometry(1, 4096, 32.0))],
                         ids=["log", "dyadic"])
def test_high_rank_family_keeps_the_scale_route(tg, monkeypatch):
    # riesz-diff's probe keeps more than half the scales (95 of 112 on the
    # log grid): the family is its own one part, for every plane, and no
    # Gram on all 2049 shells is formed
    geom = Geometry(1, 4096, 32.0)
    family = ScaleFamily.of_kernel(kernel_from_id("riesz-diff:0.5:ball"), tg.scales, tg.weight)
    probes = []
    eighs = recorded_eighs(monkeypatch, probes)
    [(part, planes)] = principal_parts(family, energy_fields(1, geom))
    assert np.array_equal(part.scales, family.scales) and np.array_equal(part.weights, family.weights)
    assert part.multiplier is family.multiplier and planes is None
    assert eighs == [] and [g.shape[0] for g in probes] == [tg.scales.size]


def test_fine_scale_sets_take_blocks_of_bounded_gram(monkeypatch):
    # 1000 nodes per octave over three octaves: 3001 scales in blocks of 181,
    # so eigh never sees the 3001^2 Gram
    geom = Geometry(1, 64, 4.0)
    tg = LogTimeGrid(0.25, 2.0, 1000)
    kernel = kernel_from_id("poisson-q")
    family = ScaleFamily.of_kernel(kernel, tg.scales, tg.weight)
    probes = []
    eighs = recorded_eighs(monkeypatch, probes)
    f = energy_fields(1, geom)[0]
    got = family.square_sum([f])[0]
    assert math.isqrt(grid._CHUNK_BYTES // 8) == 181
    assert len(eighs) == len(probes) == math.ceil(tg.node_count / 181)
    assert max(g.shape[0] for g, _ in eighs) == max(g.shape[0] for g in probes) == 181
    assert rel(got, loop_square_sum(f, kernel_multiplier(kernel), tg.scales, tg.weight)) <= 1e-12


@pytest.mark.parametrize("geom", [Geometry(1, 512, 3.0), Geometry(1, 64, 16.0), Geometry(2, 64, 16.0),
                                  Geometry(2, 512, 16.0), Geometry(2, 64, 3.0), Geometry(2, 32, 0.7)],
                         ids=lambda g: f"{g.dim}d-{g.n_samples}-{g.half_length:g}")
@pytest.mark.parametrize("half", [True, False])
def test_integer_shells_are_the_float_shells(geom, half):
    # sqrt(K) / (2L) from the integer K = sum k_i^2, against the float route:
    # bit for bit in 1-D and where 2L is a power of two, within round-off elsewhere
    xi = geom.fft_grids(half)
    rho, index = _shells(geom, half)
    want = np.sqrt(sum(x**2 for x in xi))
    assert index.shape == want.shape and index.dtype == np.min_scalar_type(rho.size)
    assert np.all(np.diff(rho) > 0) and rho[0] == 0.0
    if geom.dim == 1 or math.log2(2.0 * geom.half_length).is_integer():
        assert np.array_equal(rho[index], want)
        assert np.array_equal(rho, np.unique(want))
    else:
        assert np.max(np.abs(rho[index] - want) / np.maximum(want, 1e-300)) <= 1e-15


def test_wrong_real_tag_drops_the_nyquist_term():
    # haar is real but odd: its multiplier is imaginary at -N/2, so its
    # layers of a real field keep an imaginary Nyquist term that the half
    # spectrum cannot hold
    geom = Geometry(1, 4096, 32.0)
    f = white_noise(geom, 25)
    # the term dropped is proportional to |fhat(-N/2)|^2, of order N for this draw
    assert abs(np.fft.rfft(f.values.real)[-1]) ** 2 > geom.n_samples
    family = ScaleFamily.of_kernel(kernel_from_id("haar"), default_dyadic_range(geom).scales)
    wrong = dataclasses.replace(family, real=True)
    assert rel(wrong.square_sum([f]), family.square_sum([f])) > 1e-4
    assert np.abs(family.layers(f).imag).max() > 1e-3


def test_no_odd_kernel_or_family_is_tagged_real():
    for kid in ODD_KERNELS:
        assert not kernel_from_id(kid).real, kid
        assert not kernel_from_id(kid).reflect_conjugate().real, kid
    for name, family in odd_families().items():
        assert not family.real, name


@pytest.mark.parametrize("dim", [1, 2])
def test_real_tag_is_hermitian_on_the_grid(dim):
    # m_t(-xi) == conj m_t(xi) at every grid frequency, -N/2 being its own
    # negative, so m_t is real wherever xi is self-conjugate
    geom = Geometry(dim, 32, 4.0)
    neg = -np.arange(geom.n_samples) % geom.n_samples  # the FFT index of -xi
    mirror = (slice(None), neg) if dim == 1 else (slice(None), neg[:, None], neg[None, :])
    families = real_families(dim)
    smoothing = grid_multiplier(families["smoothing"])
    families["potential"] = ScaleFamily(TG.scales, 1.0, lambda t, *xi: smoothing(t, *xi) * riesz_multiplier(0.5, *xi))
    for name, family in families.items():
        t = family.scales.reshape((-1,) + (1,) * dim)
        m = np.broadcast_to(grid_multiplier(family)(t, *geom.fft_grids()), family.scales.shape + geom.shape)
        assert np.array_equal(m[mirror], np.conj(m)), name
