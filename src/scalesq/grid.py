"""Periodic sampled fields, their Fourier transforms, and scale quadrature.

Fields live on the box [-L, L)^d sampled at N points per axis, with N a
power of two.  The Fourier transform follows the convention

    fhat(xi) = integral f(x) exp(-2 pi i <x, xi>) dx,

discretized as the Riemann sum h^d * sum_m f(x_m) exp(-2 pi i <x_m, xi_j>)
over grid points x_m = -L + m h (h = 2L/N) and frequencies
xi_j = j / (2L) with j in {-N/2, ..., N/2 - 1}.  Round trips are exact to
machine precision and Parseval holds in the form

    h^d sum |f(x_m)|^2  =  (2L)^{-d} sum |fhat(xi_j)|^2.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

_BINARY_MAGIC = b"SFLD"
# log-time nodes per octave of a continuous-scale grid unless one is given
NODES_PER_OCTAVE = 16
# CSV rows formatted per block: Python floats take four times a sample's bytes
_CSV_BLOCK_ROWS = 16384
# bytes of one complex field at most: a command holds about ten field-sized
# arrays at once (input, spectra, accumulators, output, a chunk of layers),
# so the largest grid accepted, 2048^2 in 2-D or 2^22 points in 1-D, keeps
# a command near 1 GB
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
    def frequency_cell(self) -> float:
        return (2.0 * self.half_length) ** -self.dim

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

    def frequency_grids(self) -> tuple[NDArray[np.float64], ...]:
        ax = self.frequency_axis()
        if self.dim == 1:
            return (ax,)
        return (ax[:, None], ax[None, :])

    @property
    def dc_index(self) -> tuple[int, ...]:
        return (self.n_samples // 2,) * self.dim


def default_geometry(dim: int) -> Geometry:
    """Workhorse grids: N=4096, L=32 in 1-D and N=512, L=16 in 2-D."""
    if dim == 1:
        return Geometry(1, 4096, 32.0)
    if dim == 2:
        return Geometry(2, 512, 16.0)
    raise ValueError(f"dim must be 1 or 2, got {dim}")


@dataclass(frozen=True)
class SampledField:
    """Complex samples of a function on the spatial grid of `geometry`."""

    geometry: Geometry
    values: NDArray[np.complex128]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != self.geometry.shape:
            raise ValueError(
                f"values shape {v.shape} does not match grid shape {self.geometry.shape}"
            )
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class SpectralField:
    """Fourier coefficients indexed by j = -N/2 .. N/2-1 along each axis."""

    geometry: Geometry
    coefficients: NDArray[np.complex128]

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=np.complex128)
        if c.shape != self.geometry.shape:
            raise ValueError(
                f"coefficients shape {c.shape} does not match grid shape {self.geometry.shape}"
            )
        object.__setattr__(self, "coefficients", c)


def forward_transform(f: SampledField) -> SpectralField:
    """Riemann-sum Fourier transform of a sampled field."""
    g = f.geometry
    coeffs = g.cell_volume * np.fft.fftshift(np.fft.fftn(np.fft.ifftshift(f.values)))
    return SpectralField(g, coeffs)


def inverse_transform(F: SpectralField) -> SampledField:
    """Exact inverse of `forward_transform` (and the Riemann sum of the
    inversion integral, the two coincide on the grid)."""
    g = F.geometry
    values = (
        np.fft.fftshift(np.fft.ifftn(np.fft.ifftshift(F.coefficients)))
        / g.cell_volume
    )
    return SampledField(g, values)


def _normalized(values: np.ndarray) -> tuple[np.ndarray, int]:
    """(values times 2^-e, e) with 2^(e-1) <= max(|re|, |im|) < 2^e, e = 0 for
    zeros.  The scaling is exact unless a part falls subnormal."""
    peak = max(np.max(np.abs(values.real), initial=0.0), np.max(np.abs(values.imag), initial=0.0))
    e = math.frexp(float(peak))[1]
    out = np.empty(values.shape, dtype=np.complex128)
    np.ldexp(values.real, -e, out=out.real)
    np.ldexp(values.imag, -e, out=out.imag)
    return out, e


def l2_norm(f: SampledField) -> float:
    """Discrete L2 norm, (h^d sum |f|^2)^(1/2).

    The sum is taken on f times 2^-e, e the binary exponent of its largest
    part, and the norm scaled back, so that no square of a finite field
    overflows; power-of-two scaling commutes with every rounding, so an
    ordinary field gets the bits of the plain sum.
    """
    v, e = _normalized(f.values)
    return float(np.ldexp(np.sqrt(f.geometry.cell_volume * np.sum(np.abs(v) ** 2)), e))


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
            raise ValueError(f"empty dyadic range [{self.k_min}, {self.k_max}]")
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


# ---------------------------------------------------------------------------
# field constructors

def field_from_function(geom: Geometry, fn: Callable) -> SampledField:
    """Sample fn(*coords) on the spatial grid."""
    vals = np.broadcast_to(fn(*geom.spatial_grids()), geom.shape)
    return SampledField(geom, np.asarray(vals, dtype=np.complex128))


def _center_tuple(geom: Geometry, center) -> tuple[float, ...]:
    if np.isscalar(center):
        return (float(center),) * geom.dim
    c = tuple(float(v) for v in center)
    if len(c) != geom.dim:
        raise ValueError(f"center has {len(c)} components, expected {geom.dim}")
    return c


def gaussian_field(geom: Geometry, width: float = 1.0, center=0.0) -> SampledField:
    """exp(-pi |x - c|^2 / width^2); self-dual at width 1, center 0."""
    c = _center_tuple(geom, center)

    def fn(*coords):
        q = sum((x - ci) ** 2 for x, ci in zip(coords, c))
        return np.exp(-np.pi * q / width**2)

    return field_from_function(geom, fn)


def gaussian_derivative_field(geom: Geometry, width: float = 1.0, center=0.0) -> SampledField:
    """First derivative of the Gaussian along the first axis; mean zero."""
    c = _center_tuple(geom, center)

    def fn(*coords):
        q = sum((x - ci) ** 2 for x, ci in zip(coords, c))
        return (-2.0 * np.pi * (coords[0] - c[0]) / width**2) * np.exp(
            -np.pi * q / width**2
        )

    return field_from_function(geom, fn)


def modulated_gaussian_field(
    geom: Geometry, freq: float, width: float = 1.0, center=0.0
) -> SampledField:
    """Gaussian envelope times exp(2 pi i freq x_1)."""
    c = _center_tuple(geom, center)

    def fn(*coords):
        q = sum((x - ci) ** 2 for x, ci in zip(coords, c))
        return np.exp(-np.pi * q / width**2) * np.exp(2j * np.pi * freq * coords[0])

    return field_from_function(geom, fn)


def bump_field(geom: Geometry, radius: float = 1.0, center=0.0) -> SampledField:
    """Smooth compactly supported bump exp(-1/(1 - |x-c|^2/r^2)) inside |x-c| < r."""
    c = _center_tuple(geom, center)

    def fn(*coords):
        q = sum((x - ci) ** 2 for x, ci in zip(coords, c)) / radius**2
        out = np.zeros(np.broadcast_shapes(*(np.shape(x) for x in coords)))
        inside = q < 1.0
        with np.errstate(divide="ignore", over="ignore"):
            vals = np.exp(-1.0 / np.maximum(1.0 - q, 1e-300))
        out[inside] = np.broadcast_to(vals, out.shape)[inside]
        return out

    return field_from_function(geom, fn)


def random_band_field(geom: Geometry, seed: int, band: tuple[float, float] = (0.25, 4.0)) -> SampledField:
    """Random smooth field with spectrum supported in band (by |xi|), mean zero."""
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(geom.shape) + 1j * rng.standard_normal(geom.shape)
    rho = np.sqrt(sum(x**2 for x in np.broadcast_arrays(*geom.frequency_grids())))
    coeffs = np.where((rho >= band[0]) & (rho <= band[1]), coeffs, 0.0)
    f = inverse_transform(SpectralField(geom, coeffs))
    return f


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


def load_field_binary(path: str) -> SampledField:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _BINARY_MAGIC:
            raise ValueError(f"{path}: not a sampled-field file (bad magic {magic!r})")
        header = fh.read(24)
        if len(header) != 24:
            raise ValueError(f"{path}: truncated header ({4 + len(header)} of 28 bytes)")
        geom = _header_geometry(path, *struct.unpack("<qqd", header))
        raw = np.frombuffer(fh.read(), dtype="<f8")
    expected = 2 * geom.n_samples**geom.dim
    if raw.size != expected:
        raise ValueError(f"{path}: expected {expected} floats, found {raw.size}")
    return _finite_field(path, geom, raw[0::2] + 1j * raw[1::2])


def save_field_csv(f: SampledField, path: str) -> None:
    """Rows of (flat index, re, im) with a header comment recording dim, N, L.

    The floats are written as their repr, block by block; a block whose
    imaginary parts are all +0.0 (sign bit clear) writes the constant "0.0"
    for them without formatting each one.
    """
    g = f.geometry
    flat = f.values.ravel()
    with open(path, "w") as fh:
        fh.write(f"# dim={g.dim} n={g.n_samples} half_length={g.half_length!r}\n")
        fh.write("index,re,im\n")
        for lo in range(0, flat.size, _CSV_BLOCK_ROWS):
            block = flat[lo:lo + _CSV_BLOCK_ROWS]
            imag = block.imag
            if imag.any() or np.signbit(imag).any():
                im = map(repr, imag.tolist())
            else:
                im = ["0.0"] * block.size
            rows = zip(map(str, range(lo, lo + block.size)), map(repr, block.real.tolist()), im)
            fh.write("\n".join(map(",".join, rows)))
            fh.write("\n")


def load_field_csv(path: str) -> SampledField:
    """Read a field CSV; every flat index must appear exactly once.  Bytes
    that are not text read as U+FFFD, which no number or header parses as."""
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
        try:
            with warnings.catch_warnings():
                # no rows leaves an empty array, which the shape check below names
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                rows = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if rows.shape[1:] != (3,):
        raise ValueError(f"{path}: expected rows of index,re,im")
    size = geom.n_samples**geom.dim
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
    vals = np.empty(size, dtype=np.complex128)
    vals[idx] = rows[:, 1] + 1j * rows[:, 2]
    return _finite_field(path, geom, vals)
