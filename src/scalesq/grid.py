"""Periodic sampled fields, their frequency grids, and scale quadrature.

Fields live on the box [-L, L)^d sampled at N points per axis, with N a
power of two.  The frequencies are xi_j = j / (2L), j in {-N/2, ..., N/2 - 1}
(`Geometry.frequency_axis`), and the Fourier convention

    fhat(xi) = integral f(x) exp(-2 pi i <x, xi>) dx

is the one of the kernels' hats.  Every spectrum in the package is held in
FFT order, frequency j at index j mod N (`Geometry.fft_grids`), and its FFTs
are unscaled: a multiplier m acts on a field as IFFT(m FFT(f)), in which the
Riemann-sum factor h^d of the forward transform cancels against the inverse.
Fields are transformed as stored: the operators commute with translations.
"""

from __future__ import annotations

import functools
import math
import struct
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from numpy.typing import NDArray

_BINARY_MAGIC = b"SFLD"
# log-time nodes per octave of a continuous-scale grid unless one is given
NODES_PER_OCTAVE = 16
# CSV rows formatted per block: a row takes about 240 bytes of temporaries
# while its text is worked out, so a 512^2 field's write peaks near 2 MiB
_CSV_BLOCK_ROWS = 8192
# bytes of one complex field at most, so the largest grids accepted are
# 2048^2 in 2-D and 2^22 points in 1-D; a real field takes half of it.  The
# 2-D commands hold 6 to 16 real fields' bytes beside their input at their
# peak (README, "Memory"), so a command on the largest grid stays near half
# a GB
MAX_FIELD_BYTES = 64 * 1024 * 1024
# bytes of one chunk of temporaries, the one budget of the scale-layer
# engine's chunks of layers and the spatial quadratures' blocks of points
_CHUNK_BYTES = 256 * 1024


def _fit_chunk(item_bytes: int, least: int = 1) -> int:
    """How many items of `item_bytes` each fit in `_CHUNK_BYTES`; at least `least`."""
    return max(least, _CHUNK_BYTES // item_bytes)


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Geometry:
    """Sampling geometry of a periodic box [-L, L)^dim with N points per axis.

    Attributes
    ----------
    dim : 1 or 2
    n_samples : points per axis, power of two, at least 8, with a complex
        field of at most `MAX_FIELD_BYTES`
    half_length : L in [1e-30, 1e30]
    """

    dim: int
    n_samples: int
    half_length: float

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if not _is_power_of_two(self.n_samples) or self.n_samples < 8:
            raise ValueError(
                f"n_samples must be a power of two >= 8, got {self.n_samples}"
            )
        if not (0 < self.half_length < np.inf):
            raise ValueError(f"half_length must be positive and finite, got {self.half_length}")
        if not (1e-30 <= self.half_length <= 1e30):
            # keeps the cell volumes h^d and (2L)^-d far inside floating-point range
            raise ValueError(f"half_length must lie in [1e-30, 1e30], got {self.half_length}")
        size = 16 * self.n_samples**self.dim
        if size > MAX_FIELD_BYTES:
            raise ValueError(
                f"grid.n_samples = {self.n_samples} in {self.dim}-D makes a complex field of "
                f"{size / 2**20:g} MiB, above the budget of {MAX_FIELD_BYTES / 2**20:g} MiB per field"
            )

    @property
    def spacing(self) -> float:
        """Grid spacing h = 2L/N."""
        return 2.0 * self.half_length / self.n_samples

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n_samples,) * self.dim

    def spatial_axis(self) -> NDArray[np.float64]:
        n, L = self.n_samples, self.half_length
        return -L + np.arange(n) * self.spacing

    def frequency_axis(self) -> NDArray[np.float64]:
        n, L = self.n_samples, self.half_length
        return (np.arange(n) - n // 2) / (2.0 * L)

    def spatial_grids(self) -> tuple[NDArray[np.float64], ...]:
        """Per-axis coordinate arrays shaped for mutual broadcasting."""
        ax = self.spatial_axis()
        if self.dim == 1:
            return (ax,)
        return (ax[:, None], ax[None, :])

    def fft_grids(self, half: bool = False) -> tuple[NDArray[np.float64], ...]:
        """Per-axis frequency arrays in FFT order, frequency j/(2L) at index
        j mod N, shaped for mutual broadcasting.  With `half`, the last axis
        keeps its first N/2 + 1 frequencies, the last of them -N/2: the grid
        of the half spectrum that `rfftn` gives and `irfftn` takes."""
        ax = np.fft.ifftshift(self.frequency_axis())
        last = ax[: self.n_samples // 2 + 1] if half else ax
        return (last,) if self.dim == 1 else (ax[:, None], last[None, :])

    def spectrum_shape(self, half: bool = False) -> tuple[int, ...]:
        """The shape of the grids of `fft_grids(half)`."""
        return self.shape[:-1] + (self.n_samples // 2 + 1,) if half else self.shape


def default_geometry(dim: int) -> Geometry:
    """Workhorse grids: N=4096, L=32 in 1-D and N=512, L=16 in 2-D."""
    if dim == 1:
        return Geometry(1, 4096, 32.0)
    if dim == 2:
        return Geometry(2, 512, 16.0)
    raise ValueError(f"dim must be 1 or 2, got {dim}")


@dataclass(frozen=True)
class SampledField:
    """Samples of a function on the spatial grid of `geometry`: float64 for
    real values, at half the bytes, complex128 for complex ones.  Values
    already of that dtype are kept, not copied; a complex array stays
    complex even when its imaginary parts are all zero."""

    geometry: Geometry
    values: NDArray[np.float64] | NDArray[np.complex128]

    def __post_init__(self):
        v = np.asarray(self.values)
        v = v.astype(np.complex128 if np.iscomplexobj(v) else np.float64, copy=False)
        if v.shape != self.geometry.shape:
            raise ValueError(
                f"values shape {v.shape} does not match grid shape {self.geometry.shape}"
            )
        object.__setattr__(self, "values", v)


def _normalized(values: np.ndarray) -> tuple[np.ndarray, int]:
    """(a new array of values times 2^-e, e) with 2^(e-1) <= max(|re|, |im|) < 2^e,
    e = 0 for zeros; real values stay real.  The scaling is exact unless a
    part falls subnormal."""
    complex_ = np.iscomplexobj(values)
    parts = (values.real, values.imag) if complex_ else (values,)
    e = math.frexp(float(max(np.max(np.abs(p), initial=0.0) for p in parts)))[1]
    if not complex_:
        return np.ldexp(values, -e), e
    out = np.empty(values.shape, dtype=np.complex128)
    np.ldexp(values.real, -e, out=out.real)
    np.ldexp(values.imag, -e, out=out.imag)
    return out, e


def l2_norm(f: SampledField) -> float:
    """Discrete L2 norm, (h^d sum |f|^2)^(1/2).

    The sum is taken on f times 2^-e, e the binary exponent of its largest
    part, and the norm scaled back, so that no square of a finite field
    overflows; power-of-two scaling commutes with every rounding, so an
    ordinary field gets the bits of the plain sum.  A real field is squared
    in its scaled copy, |x|^2 = x x bit for bit.
    """
    v, e = _normalized(f.values)
    power = np.abs(v) if np.iscomplexobj(v) else v
    power *= power
    return float(np.ldexp(np.sqrt(f.geometry.cell_volume * np.sum(power)), e))


# ---------------------------------------------------------------------------
# scale sets
#
# A scale set gives increasing `scales` t_j and the `weight` w every scale
# carries; a square function over it is sum_j w |psi_{t_j} * f|^2.  The two
# kinds differ only in those two values.


@dataclass(frozen=True)
class LogTimeGrid:
    """Midpoint rule in log t for integrals against dt/t on [t_min, t_max].

    The cell width in log2 t is 1/J with J = nodes_per_octave; the scales sit
    at cell midpoints t_min * 2^((j + 1/2)/J) and every one carries the weight
    ln(2)/J.  When J*log2(t_max/t_min) is an integer the rule integrates
    constants exactly: sum of weights = ln(t_max/t_min).
    """

    t_min: float
    t_max: float
    nodes_per_octave: int = NODES_PER_OCTAVE

    def __post_init__(self):
        if not (0 < self.t_min < self.t_max):
            raise ValueError(
                f"need 0 < t_min < t_max, got ({self.t_min}, {self.t_max})"
            )
        if not math.isfinite(self.t_max / self.t_min):
            raise ValueError(f"t_max/t_min must be finite, got {self.t_max!r}/{self.t_min!r}")
        if self.nodes_per_octave < 1:
            raise ValueError("nodes_per_octave must be a positive integer")
        # the scales are one array of doubles, held to the budget of a field; a
        # Python float against the int, so that no J converts to a double
        if self.nodes_per_octave > (MAX_FIELD_BYTES // 8) / math.log2(self.t_max / self.t_min):
            raise ValueError(
                f"nodes_per_octave = {self.nodes_per_octave} makes more than {MAX_FIELD_BYTES // 8} "
                f"scales over [{self.t_min!r}, {self.t_max!r}]"
            )

    @property
    def node_count(self) -> int:
        octaves = np.log2(self.t_max / self.t_min)
        return int(np.ceil(self.nodes_per_octave * octaves - 1e-9))

    @property
    def scales(self) -> NDArray[np.float64]:
        j = np.arange(self.node_count)
        return self.t_min * 2.0 ** ((j + 0.5) / self.nodes_per_octave)

    @property
    def weight(self) -> float:
        """Quadrature weight per node for the dt/t measure."""
        return np.log(2.0) / self.nodes_per_octave


def default_time_grid(geom: Geometry, nodes_per_octave: int = NODES_PER_OCTAVE) -> LogTimeGrid:
    """Truncation adapted to the grid: t from 4h up to L/4."""
    return LogTimeGrid(4.0 * geom.spacing, geom.half_length / 4.0, nodes_per_octave)


@dataclass(frozen=True)
class DyadicRange:
    """Integer scale exponents k_min..k_max inclusive, scales t = 2^k, each
    with weight 1.  Every 2^k is a finite nonzero double: -1074 <= k <= 1023."""

    k_min: int
    k_max: int
    weight = 1.0

    def __post_init__(self):
        if self.k_min > self.k_max:
            raise ValueError(f"empty dyadic range: need k_min <= k_max, got [{self.k_min}, {self.k_max}]")
        if not (-1074 <= self.k_min and self.k_max <= 1023):
            raise ValueError(f"need -1074 <= k_min <= k_max <= 1023, got [{self.k_min}, {self.k_max}]")

    @property
    def exponents(self) -> NDArray[np.int64]:
        return np.arange(self.k_min, self.k_max + 1)

    @property
    def scales(self) -> NDArray[np.float64]:
        return 2.0 ** self.exponents.astype(float)


def default_dyadic_range(geom: Geometry) -> DyadicRange:
    """Scales between the grid spacing and the box size, padded one octave."""
    lo = int(np.floor(np.log2(geom.spacing))) - 1
    hi = int(np.ceil(np.log2(geom.half_length))) + 1
    return DyadicRange(lo, hi)


ScaleSet = LogTimeGrid | DyadicRange


def _largest_scale_limit(geom: Geometry) -> float:
    """The largest t whose 2 pi t |xi|, at every frequency of the grid, has a
    finite square: the radial transforms square each coordinate of t xi, and
    a scale past this one sends them to inf and NaN."""
    xi_max = math.sqrt(geom.dim) * (geom.n_samples // 2) / (2.0 * geom.half_length)
    return math.sqrt(sys.float_info.max) / (2.0 * math.pi * xi_max)


def scale_set(
    geom: Geometry,
    continuous: bool,
    t_min: float | None = None,
    t_max: float | None = None,
    nodes_per_octave: int = NODES_PER_OCTAVE,
    k_min: int | None = None,
    k_max: int | None = None,
) -> ScaleSet:
    """The scale set on `geom`: the log-time grid on [t_min, t_max] with
    nodes_per_octave nodes per octave when `continuous`, else the dyadic
    range k_min..k_max; the other kind's bounds are not read.

    A bound left None comes from `default_time_grid` (t_min and t_max
    together: one alone is refused) or `default_dyadic_range`.  Scales whose
    t |xi| on this grid would overflow the kernel transforms are refused.
    Every error is a ValueError naming the parameter.
    """
    if continuous:
        if (t_min is None) != (t_max is None):
            raise ValueError("t_min and t_max must be given together")
        if t_min is None:
            base = default_time_grid(geom)  # only its window is read
            t_min, t_max = base.t_min, base.t_max
        scales = LogTimeGrid(t_min, t_max, nodes_per_octave)
        limit = _largest_scale_limit(geom)
        if t_max > limit:
            raise ValueError(
                f"t_max = {t_max!r} overflows the kernel transforms on this grid; need t_max <= {limit:.6g}"
            )
        return scales
    base = default_dyadic_range(geom)
    scales = DyadicRange(base.k_min if k_min is None else k_min, base.k_max if k_max is None else k_max)
    limit = math.floor(math.log2(_largest_scale_limit(geom)))
    if scales.k_max > limit:
        raise ValueError(
            f"k_max = {scales.k_max} overflows the kernel transforms on this grid; need k_max <= {limit}"
        )
    return scales


# ---------------------------------------------------------------------------
# field constructors

def _require_positive(name: str, value: float) -> float:
    """value as a float, or a ValueError naming the parameter unless it is
    positive and finite with a nonzero finite square, which the shapes
    divide by."""
    value = float(value)
    if not (value > 0 and 0 < value * value < math.inf):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _center_tuple(geom: Geometry, center) -> tuple[float, ...]:
    c = (center,) * geom.dim if np.isscalar(center) else tuple(center)
    if len(c) != geom.dim:
        raise ValueError(f"center has {len(c)} components, expected {geom.dim}")
    return tuple(_require_finite("center", v) for v in c)


def _squared_distance(coords, c) -> np.ndarray:
    """|x - c|^2 on the broadcast coordinate arrays, a new array."""
    return sum((x - ci) ** 2 for x, ci in zip(coords, c))


def _gaussian_of(q: np.ndarray, width: float) -> np.ndarray:
    """exp(-pi q / width^2), formed in q itself."""
    q *= -np.pi
    q /= width**2
    return np.exp(q, out=q)


def _gaussian_factors(geom: Geometry, width: float, center) -> tuple[list, tuple[float, ...]]:
    """([exp(-pi (x_i - c_i)^2 / width^2) on each axis of the grid, shaped for
    mutual broadcasting], the center c), behind the gates on width and center.
    The Gaussian is the product of the factors, so no grid-sized `exp` is taken."""
    width = _require_positive("width", width)
    c = _center_tuple(geom, center)
    return [_gaussian_of((x - ci) ** 2, width) for x, ci in zip(geom.spatial_grids(), c)], c


def _product_field(geom: Geometry, factors: list) -> SampledField:
    """The field of the broadcast product of per-axis factors, formed in one
    new array of the grid's shape; in 1-D the one factor itself."""
    values = factors[0]
    for factor in factors[1:]:
        values = values * factor
    return SampledField(geom, values)


def gaussian_field(geom: Geometry, width: float = 1.0, center=0.0) -> SampledField:
    """exp(-pi |x - c|^2 / width^2); self-dual at width 1, center 0."""
    return _product_field(geom, _gaussian_factors(geom, width, center)[0])


def gaussian_derivative_field(geom: Geometry, width: float = 1.0, center=0.0) -> SampledField:
    """First derivative of the Gaussian along the first axis; mean zero."""
    factors, c = _gaussian_factors(geom, width, center)
    factors[0] *= -2.0 * np.pi * (geom.spatial_grids()[0] - c[0]) / width**2
    return _product_field(geom, factors)


def modulated_gaussian_field(
    geom: Geometry, freq: float, width: float = 1.0, center=0.0
) -> SampledField:
    """Gaussian envelope times exp(2 pi i freq x_1), the modulation on the
    first axis's factor."""
    freq = _require_finite("freq", freq)
    factors, _ = _gaussian_factors(geom, width, center)
    factors[0] = factors[0] * np.exp(2j * np.pi * freq * geom.spatial_grids()[0])
    return _product_field(geom, factors)


def bump_field(geom: Geometry, radius: float = 1.0, center=0.0) -> SampledField:
    """Smooth compactly supported bump exp(-1/(1 - |x-c|^2/r^2)) inside |x-c| < r,
    formed in the array of |x-c|^2/r^2 and exponentiated inside alone."""
    radius = _require_positive("radius", radius)
    q = _squared_distance(geom.spatial_grids(), _center_tuple(geom, center))
    q /= radius**2
    inside = q < 1.0
    vals = np.exp(-1.0 / (1.0 - q[inside]))
    q.fill(0.0)
    q[inside] = vals
    return SampledField(geom, q)


def random_band_field(geom: Geometry, seed: int, band: tuple[float, float] = (0.25, 4.0)) -> SampledField:
    """Random smooth field with spectrum supported in band (by |xi|), mean zero.

    The coefficients are drawn on the centred grid of `frequency_axis`, and
    the field is the Riemann sum of the inversion integral over them."""
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(geom.shape) + 1j * rng.standard_normal(geom.shape)
    rho = np.sqrt(sum(x**2 for x in np.ix_(*[geom.frequency_axis()] * geom.dim)))
    coeffs = np.where((rho >= band[0]) & (rho <= band[1]), coeffs, 0.0)
    return SampledField(geom, np.fft.fftshift(np.fft.ifftn(np.fft.ifftshift(coeffs))) / geom.cell_volume)


def mean_subtract(f: SampledField) -> SampledField:
    return SampledField(f.geometry, f.values - np.mean(f.values))


# ---------------------------------------------------------------------------
# the text of doubles for the CSV writers: repr's bytes, a whole array at once
#
# Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020) finds
# the shortest decimal in a double's rounding interval, the nearest to it
# when there are two, with fixed-width integer arithmetic; here each step is
# one numpy operation over uint64 arrays.  CPython's repr (David Gay's dtoa)
# picks the same digits and lays them out as below.

# bytes of one formatted value: sign, 22 of digits and point, exponent word
_REPR_CELL = 32
# decimal exponents k of the powers 10^-k that Schubfach scales by
_G_K_MIN, _G_K_MAX = -324, 292
_M32 = np.uint64(0xFFFFFFFF)
_M63 = np.uint64(2**63 - 1)


class _ReprTables(NamedTuple):
    """Lookup tables of `_repr_cells`; see `_repr_tables`."""

    g1: np.ndarray  # g_k >> 63, by k - _G_K_MIN
    g0: np.ndarray  # g_k mod 2^63
    k: np.ndarray  # by exponent code: the decimal exponent of the scaled interval
    h: np.ndarray  # by exponent code: the shift of 4c that lines it up with g_k
    g_parts: tuple  # by exponent code: g1, then g1 >> 32, g1 & M, g0 >> 32, g0 & M (M = 2^32 - 1)
    quads: np.ndarray  # four ASCII digits of 0..9999 as one little-endian uint32
    unpadded: np.ndarray  # the same with NULs for leading zeros, all four for 0
    tz4: np.ndarray  # trailing zero digits of the four of 0..9999
    pow10: np.ndarray  # 10^0 .. 10^17
    exps: np.ndarray  # "e-05", "e+300", ...: by decimal point position + 324, 0 none
    left: np.ndarray  # by layout: 0xFF where the cell holds a digit before the point
    right: np.ndarray  # 0xFF where it holds a digit after the point
    point: np.ndarray  # "." where it holds the point


def _g(k: int) -> int:
    """g_k = floor(10^-k 2^(125 - floor(log2 10^-k))) + 1, in [2^125, 2^126)."""
    if k <= 0:
        p = 10**-k
        e = p.bit_length() - 1
        return (p << (125 - e) if e <= 125 else p >> (e - 125)) + 1
    d = 10**k  # floor(log2 10^-k) = -d.bit_length(), since d is no power of two
    return (1 << (125 + d.bit_length())) // d + 1


@functools.cache
def _repr_tables() -> _ReprTables:
    """The tables, built from exact integers on the first CSV write (a few
    milliseconds), so that importing the package pays nothing for them.

    A finite double is c 2^q with c < 2^53; its exponent code is its biased
    exponent field (0 for subnormals, which have q = -1074 like field 1),
    plus 2048 when c = 2^52 above the subnormals.  The interval of such a
    double is uneven, a quarter ulp below and a half above, and it takes
    k = floor(log10(3/4 2^q)) in place of floor(log10 2^q)."""
    gs = [_g(k) for k in range(_G_K_MIN, _G_K_MAX + 1)]
    g1 = np.array([g >> 63 for g in gs], dtype=np.uint64)
    g0 = np.array([g & (2**63 - 1) for g in gs], dtype=np.uint64)
    q = np.tile(np.maximum(np.arange(2048), 1) - 1075, 2)
    uneven = np.arange(4096) >= 2048
    # Giulietti's integer forms of floor(log10 2^q), floor(log10(3/4 2^q))
    # and floor(log2 10^-k), exact far beyond these exponents
    k = np.where(uneven, q * 661_971_961_083 - 274_743_187_321, q * 661_971_961_083) >> 41
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).astype(np.uint64)
    gk1, gk0 = g1[k - _G_K_MIN], g0[k - _G_K_MIN]
    g_parts = (gk1, gk1 >> np.uint64(32), gk1 & _M32, gk0 >> np.uint64(32), gk0 & _M32)

    i = np.arange(10000)
    digits = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1) + ord("0")
    digits = digits.astype(np.uint8)
    quads = digits.view("<u4").ravel().copy()
    digits[np.cumsum(digits != ord("0"), axis=1) == 0] = 0
    unpadded = digits.view("<u4").ravel()
    tz4 = np.select([i % 10 != 0, i % 100 != 0, i % 1000 != 0, i != 0], [0, 1, 2, 3], 4).astype(np.uint8)
    pow10 = np.array([10**j for j in range(18)], dtype=np.uint64)
    # exponent e = decimal point position - 1 at e + 325, none at 0
    exps = b"".join(f"e{e:+03d}".encode().ljust(8, b"\0") for e in range(-324, 309))
    exps = np.frombuffer(bytes(8) + exps, dtype="<u8")

    # layouts by P * 23 + end: with Z = "0000" and the 17 digits, the digits
    # and point sit at cell columns 1.. as Z[a:P] + "." + Z[P:end], where
    # a = min(P - 1, 4) keeps one zero before the point; no point when P = end
    P = np.arange(23)[:, None, None]
    end = np.arange(23)[None, :, None]
    m = np.arange(_REPR_CELL) - 1
    shape = (23 * 23, _REPR_CELL)

    def layout(mask, byte):
        return np.broadcast_to(mask * np.uint8(byte), (23, 23, _REPR_CELL)).reshape(shape).copy()

    return _ReprTables(
        g1, g0, k, h, g_parts, quads, unpadded, tz4, pow10, exps,
        left=layout((m >= np.minimum(P - 1, 4)) & (m < P), 0xFF),
        right=layout((m > P) & (m <= end), 0xFF),
        point=layout((m == P) & (P < end), ord(".")),
    )


def _mulhi(a_hi, a_lo, b_hi, b_lo):
    """The high 64 bits of the 128-bit product of a_hi 2^32 + a_lo and
    b_hi 2^32 + b_lo, from products of their 32-bit halves."""
    lh, hl = a_lo * b_hi, a_hi * b_lo
    carry = a_lo * b_lo
    carry >>= np.uint64(32)
    carry += lh & _M32
    carry += hl & _M32
    carry >>= np.uint64(32)
    carry += a_hi * b_hi
    lh >>= np.uint64(32)
    hl >>= np.uint64(32)
    carry += lh
    carry += hl
    return carry


def _rop(g, cp):
    """Giulietti's rop of g = g1 2^63 + g0 and cp: about g cp / 2^127, its
    lowest bit set when the dropped bits of z are not all zero (round to
    odd); g holds g1 and the 32-bit halves of g1 and g0."""
    c_hi, c_lo = cp >> np.uint64(32), cp & _M32
    z = g[0] * cp  # the low 64 bits of g1 cp, wrapped
    z >>= np.uint64(1)
    z += _mulhi(g[3], g[4], c_hi, c_lo)
    vb = _mulhi(g[1], g[2], c_hi, c_lo)
    vb += z >> np.uint64(63)
    vb |= (z & _M63) != 0
    return vb


def _scaled_interval(bits: np.ndarray, t: _ReprTables):
    """(vbl, vb, vbr, k) for each double v = c 2^q of bits: vb is about
    4 v 10^-k, rounded to odd, and [vbl, vbr] the interval of decimals that
    read back as v on the same scale.  Its ends belong to it when c is even,
    as round-half-even reads them back, so they move in by one when c is odd."""
    field = (bits >> np.uint64(52)) & np.uint64(0x7FF)
    frac = bits & np.uint64(2**52 - 1)
    uneven = (frac == 0) & (field > 1)
    code = field.astype(np.intp) + 2048 * uneven
    c = frac | (np.minimum(field, 1) << np.uint64(52))
    del field, frac
    h = np.take(t.h, code)
    g = [np.take(part, code) for part in t.g_parts]
    cb = c << np.uint64(2)
    odd = c & np.uint64(1)
    vbl = _rop(g, (cb - np.uint64(2) + uneven) << h) + odd
    vb = _rop(g, cb << h)
    vbr = _rop(g, (cb + np.uint64(2)) << h) - odd
    return vbl, vb, vbr, np.take(t.k, code)


def _shortest_digits(bits: np.ndarray, t: _ReprTables) -> tuple[np.ndarray, np.ndarray]:
    """(d, k) with d 10^k the shortest decimal that reads back as each double
    of bits, the nearest when two are as short, the even one on a tie.  Any
    d for zeros, infinities and NaNs."""
    vbl, vb, vbr, k = _scaled_interval(bits, t)
    s = vb >> np.uint64(2)
    # one digit fewer when exactly one multiple of ten is in the interval
    # (Java's s >= 100 guard asks two digits of its output, repr does not)
    sp10 = s // np.uint64(10) * np.uint64(10)
    tp10 = sp10 + np.uint64(10)
    upin = vbl <= sp10 << np.uint64(2)
    wpin = tp10 << np.uint64(2) <= vbr
    # else s or s + 1, whichever is in, or nearer v, or even
    s1 = s + np.uint64(1)
    uin = vbl <= s << np.uint64(2)
    win = s1 << np.uint64(2) <= vbr
    mid = (s << np.uint64(2)) + np.uint64(2)
    lower = np.where(uin != win, uin, (vb < mid) | ((vb == mid) & ((s & np.uint64(1)) == 0)))
    d = np.where(upin != wpin, np.where(upin, sp10, tp10), np.where(lower, s, s1))
    return d, k


def _repr_cells(x: np.ndarray) -> np.ndarray:
    """The bytes of repr(float(v)) for each v of the float64 array x, one
    (x.size, _REPR_CELL) uint8 row each, with NUL bytes between and around
    the characters: drop every NUL to read the text.

    As repr: the fewest significant digits that read back to the same
    double; fixed notation when the decimal point position p (v = 0.d 10^p)
    has -4 < p <= 16, with at least one digit either side of the point,
    else d.ddd, or d alone, then "e", the sign and two or three digits of
    p - 1; "0.0" and "-0.0" for zeros; "inf", "-inf" and "nan".
    """
    t = _repr_tables()
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    n = x.size
    d, k = _shortest_digits(x.view(np.uint64), t)
    nonzero = x != 0
    d[~nonzero] = 0
    nd = np.searchsorted(t.pow10, d, side="right")  # digits of d, 0 for zero
    point = np.where(nonzero, nd + k, 1)
    # d padded with zeros to 17 digits, as one digit and four groups of four
    d = d * np.take(t.pow10, 17 - nd)
    lead = d // np.uint64(10**16)
    rest = d - lead * np.uint64(10**16)
    hi8 = rest // np.uint64(10**8)
    lo8 = (rest - hi8 * np.uint64(10**8)).astype(np.uint32)
    hi8 = hi8.astype(np.uint32)
    hi4, lo4 = hi8 // np.uint32(10000), lo8 // np.uint32(10000)
    groups = [hi4, hi8 - hi4 * np.uint32(10000), lo4, lo8 - lo4 * np.uint32(10000)]
    z = np.zeros((n, _REPR_CELL), dtype=np.uint8)  # Z = "0000" and the digits at columns 3..23
    words = z.view("<u4")
    words[:, 0] = ord("0") << 24
    for j, q in enumerate([lead] + groups, 1):
        words[:, j] = np.take(t.quads, q)
    tz = np.take(t.tz4, groups[0])  # trailing zeros of the last sixteen digits
    for q in groups[1:]:
        tz = np.where(q == 0, tz + np.uint8(4), np.take(t.tz4, q))
    significant = 17 - tz.astype(np.intp)
    sci = (point <= -4) | (point > 16)
    P = np.where(sci, 5, 4 + point)  # where the point goes in Z
    end = np.where(sci, 4 + significant, np.maximum(4 + significant, P + 1))
    layout = P * 23 + end
    # cell column 1 + m holds Z[m] before the point, Z[m - 1] after it: Z
    # shifted left by two or by one byte, the whole block as one flat array
    cells = np.empty_like(z)
    cf, zf = cells.ravel(), z.ravel()
    np.bitwise_and(zf[2:], np.take(t.left, layout, axis=0).ravel()[:-2], out=cf[:-2])
    cf[-2:] = 0
    cf[:-1] |= zf[1:] & np.take(t.right, layout, axis=0).ravel()[:-1]
    cells |= np.take(t.point, layout, axis=0)
    cells[:, 0] = np.signbit(x) * np.uint8(ord("-"))
    cells.view("<u8")[:, 3] = np.take(t.exps, np.where(sci, point + 324, 0))
    for i in np.flatnonzero(~np.isfinite(x)):
        text = repr(float(x[i])).encode()
        cells[i] = 0
        cells[i, :len(text)] = list(text)
    return cells


def _index_cells(lo: int, hi: int) -> np.ndarray:
    """The decimal digits of lo, ..., hi - 1 (below 10^8), one NUL-padded
    (hi - lo, 8) uint8 row each."""
    t = _repr_tables()
    i = np.arange(lo, hi, dtype=np.uint32)
    upper = i // np.uint32(10000)
    lower = i - upper * np.uint32(10000)
    cells = np.empty((i.size, 8), dtype=np.uint8)
    words = cells.view("<u4")
    words[:, 0] = np.take(t.unpadded, upper)
    words[:, 1] = np.where(upper == 0, np.take(t.unpadded, lower), np.take(t.quads, lower))
    if lo == 0:
        cells[0, 7] = ord("0")
    return cells


def _joined_rows(parts: list) -> np.ndarray:
    """The text of a block of CSV rows: the parts side by side, cells (one
    uint8 row per CSV row) and constant byte strings between them, laid
    out in one array and read without its NULs."""
    n = next(p.shape[0] for p in parts if isinstance(p, np.ndarray))
    widths = [len(p) if isinstance(p, bytes) else p.shape[1] for p in parts]
    rows = np.empty((n, sum(widths)), dtype=np.uint8)
    at = 0
    for part, w in zip(parts, widths):
        rows[:, at:at + w] = np.frombuffer(part, dtype=np.uint8) if isinstance(part, bytes) else part
        at += w
    return rows[rows != 0]


def _write_csv_rows(fh, n: int, columns: Callable[[int, int], list]) -> None:
    """Write rows 0 .. n - 1 to the binary file fh in blocks of
    `_CSV_BLOCK_ROWS`: rows lo .. hi - 1 from the parts columns(lo, hi)
    gives, joined by `_joined_rows`, whose arrays are freed before the next
    block's are made."""
    for lo in range(0, n, _CSV_BLOCK_ROWS):
        fh.write(_joined_rows(columns(lo, min(n, lo + _CSV_BLOCK_ROWS))))


# ---------------------------------------------------------------------------
# serialization: flat binary and CSV, both carrying (dim, N, L) headers

def save_field_binary(f: SampledField, path: str) -> None:
    """Write magic, dim, N, L (little-endian), then interleaved re/im float64."""
    g = f.geometry
    with open(path, "wb") as fh:
        fh.write(_BINARY_MAGIC)
        fh.write(struct.pack("<qqd", g.dim, g.n_samples, g.half_length))
        flat = f.values.ravel()
        data = np.empty(2 * flat.size, dtype="<f8")
        data[0::2] = flat.real
        data[1::2] = flat.imag
        fh.write(data.tobytes())


def _finite_field(path: str, geom: Geometry, vals: np.ndarray) -> SampledField:
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise ValueError(f"{path}: non-finite sample at flat index {bad[0]}")
    return SampledField(geom, vals.reshape(geom.shape))


def _header_geometry(path: str, dim, n, L) -> Geometry:
    try:
        return Geometry(int(dim), int(n), float(L))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _interleaved_samples(raw: np.ndarray) -> np.ndarray:
    """The samples of interleaved float64 parts re, im with the bits of
    re + 1j * im, signed zeros included: its real part is re + 0.0 * im and
    its imaginary part im + 0.0.  A real array, re + 0.0, when every
    imaginary part is +0.0; else raw itself, made over in place and viewed
    as complex."""
    re, im = raw[0::2], raw[1::2]
    if not im.view(np.int64).any():  # +0.0 is the one double whose bits are all zero
        return re + 0.0
    zero = np.flatnonzero(re == 0.0)  # re + 0.0 * im is re wherever re is not zero
    with np.errstate(invalid="ignore"):  # 0 * inf: a non-finite sample, refused after
        re[zero] += 0.0 * im[zero]
    im += 0.0
    return raw.view(np.complex128)


def load_field_binary(path: str) -> SampledField:
    """Read a binary field: a real field when every imaginary part is +0.0.
    The payload is read straight into one array, and no more of it than the
    header's grid holds: a longer file is refused after one byte more."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _BINARY_MAGIC:
            raise ValueError(f"{path}: not a sampled-field file (bad magic {magic!r})")
        header = fh.read(24)
        if len(header) != 24:
            raise ValueError(f"{path}: truncated header ({4 + len(header)} of 28 bytes)")
        geom = _header_geometry(path, *struct.unpack("<qqd", header))
        expected = 2 * geom.n_samples**geom.dim
        raw = np.fromfile(fh, dtype="<f8", count=expected).astype(np.float64, copy=False)
        if raw.size == expected and fh.read(1):
            raise ValueError(f"{path}: expected {expected} floats, found more")
    if raw.size != expected:
        raise ValueError(f"{path}: expected {expected} floats, found {raw.size}")
    return _finite_field(path, geom, _interleaved_samples(raw))


def save_field_csv(f: SampledField, path: str) -> None:
    """Rows of (flat index, re, im) with a header comment recording dim, N, L.

    Every float is written as the bytes of its `repr`, the shortest decimal
    that reads back to the same double (`_repr_cells`), and the file is
    byte for byte the one a loop writing f"{i},{re!r},{im!r}\\n" would give.
    A block of rows whose imaginary parts are all +0.0 (sign bit clear)
    writes the constant "0.0" for them without formatting each one.
    """
    g = f.geometry
    flat = f.values.ravel()

    def columns(lo: int, hi: int) -> list:
        block = flat[lo:hi]
        imag = block.imag
        if imag.any() or np.signbit(imag).any():
            return [_index_cells(lo, hi), b",", _repr_cells(block.real), b",", _repr_cells(imag), b"\n"]
        return [_index_cells(lo, hi), b",", _repr_cells(block.real), b",0.0\n"]

    with open(path, "wb") as fh:
        fh.write(f"# dim={g.dim} n={g.n_samples} half_length={g.half_length!r}\n".encode())
        fh.write(b"index,re,im\n")
        _write_csv_rows(fh, flat.size, columns)


def load_field_csv(path: str) -> SampledField:
    """Read a field CSV; every flat index must appear exactly once.  Bytes
    that are not text read as U+FFFD, which no number or header parses as.
    No more rows are read than the header's grid holds and one more, so a
    longer file is refused without reading it whole.  As in
    `load_field_binary`, the field is real when every imaginary part is +0.0."""
    with open(path, errors="replace") as fh:
        header = fh.readline()
        if not header.startswith("#"):
            raise ValueError(f"{path}: missing geometry header line")
        try:
            meta = dict(tok.split("=") for tok in header[1:].split())
            dim, n, L = meta["dim"], meta["n"], meta["half_length"]
        except (KeyError, ValueError):
            raise ValueError(f"{path}: malformed geometry header {header.strip()!r}") from None
        geom = _header_geometry(path, dim, n, L)
        fh.readline()  # column names
        size = geom.n_samples**geom.dim
        try:
            with warnings.catch_warnings():
                # no rows leaves an empty array, which the shape check below names
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                # blank lines are skipped, and not counted as rows
                warnings.filterwarnings("ignore", "Input line .* contained no data", UserWarning)
                rows = np.loadtxt(fh, delimiter=",", ndmin=2, max_rows=size + 1)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if rows.shape[1:] != (3,):
        raise ValueError(f"{path}: expected rows of index,re,im")
    if rows.shape[0] > size:
        raise ValueError(f"{path}: expected {size} rows, found more")
    idx = rows[:, 0]
    bad = (idx < 0) | (idx >= size) | (idx != np.round(idx))
    if bad.any():
        raise ValueError(f"{path}: index {idx[bad][0]:g} out of range: need an integer in [0, {size})")
    idx = idx.astype(int)
    seen = np.bincount(idx, minlength=size)
    if seen.max() > 1:
        raise ValueError(f"{path}: index {np.argmax(seen)} appears {seen.max()} times")
    if seen.min() == 0:
        raise ValueError(f"{path}: {size - idx.size} of {size} indices missing, first {np.argmin(seen)}")
    raw = np.empty((size, 2))
    raw[idx] = rows[:, 1:]
    return _finite_field(path, geom, _interleaved_samples(raw.ravel()))
