"""Periodic sampled fields, their frequency grids, and scale quadrature.

Fields live on the box [-L, L)^d sampled at N points per axis, with N a
power of two.  The frequencies are xi_j = j / (2L), j in {-N/2, ..., N/2 - 1}
(`Geometry.frequency_axis`), and the Fourier convention

    fhat(xi) = integral f(x) exp(-2 pi i <x, xi>) dx

is the one of the kernels' hats.  Every spectrum in the package is held in
FFT order, frequency j at index j mod N (`Geometry.fft_grids`), and its FFTs
are unscaled: a multiplier m acts on a field as IFFT(m FFT(f)), in which the
Riemann-sum factor h^d of the forward transform cancels against the inverse.
"""

from __future__ import annotations

import math
import struct
import sys
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

_BINARY_MAGIC = b"SFLD"
# log-time nodes per octave of a continuous-scale grid unless one is given
NODES_PER_OCTAVE = 16
# CSV rows formatted per block: Python floats take four times a sample's bytes
_CSV_BLOCK_ROWS = 16384
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

def field_from_function(geom: Geometry, fn: Callable) -> SampledField:
    """Sample fn(*coords) on the spatial grid; real values make a real field.
    A result of the grid's shape is kept as it is, any other broadcast and
    copied."""
    vals = np.asarray(fn(*geom.spatial_grids()))
    if vals.shape != geom.shape:
        vals = np.broadcast_to(vals, geom.shape).copy()
    return SampledField(geom, vals)


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

    The floats are written as their repr, block by block, each block by one
    %-format of its rows; a block whose imaginary parts are all +0.0 (sign
    bit clear) writes the constant "0.0" for them without formatting each
    one.
    """
    g = f.geometry
    flat = f.values.ravel()
    with open(path, "w") as fh:
        fh.write(f"# dim={g.dim} n={g.n_samples} half_length={g.half_length!r}\n")
        fh.write("index,re,im\n")
        for lo in range(0, flat.size, _CSV_BLOCK_ROWS):
            block = flat[lo:lo + _CSV_BLOCK_ROWS]
            columns = [range(lo, lo + block.size), block.real.tolist()]
            imag = block.imag
            if imag.any() or np.signbit(imag).any():
                columns.append(imag.tolist())
            row = "%d,%r,%r\n" if len(columns) == 3 else "%d,%r,0.0\n"
            values = [None] * (len(columns) * block.size)
            for i, column in enumerate(columns):
                values[i::len(columns)] = column
            fh.write(row * block.size % tuple(values))


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
