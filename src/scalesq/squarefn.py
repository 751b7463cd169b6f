"""Square functions of Littlewood-Paley type and their adjoint embeddings.

Every operator here is one `ScaleFamily`: a Fourier multiplier m_t per
scale t, with weight w_t, acting on a field f through its layers
IFFT(m_t fhat).  The family gives the square sum of a batch of fields,
sum_t w_t |IFFT(m_t fhat)|^2; the layer stack of one field; the synthesis
sum_t w_t IFFT(m_t FFT(h_t)) of a stack h, or of layers streamed chunk by
chunk; and the symbol sigma(xi) = sum_t w_t |m_t(xi)|^2.  Each runs over
chunks of at most `grid._CHUNK_BYTES` of layers (at least one layer of each
plane), evaluating a chunk's multipliers once per call for every field of
the batch, so memory beyond inputs and outputs does not grow with the
number of scales.  The engine, `multiplier.apply_multiplier` and
`duality_residual` take a field's planes through one forward transform,
`_spectra`, and transform fields and layers as stored (no centring shift).

The family's tag decides its spectrum.  A family tagged real promises
m_t(-xi) = conj m_t(xi) at every frequency of the DFT grid, the
self-conjugate ones included, so m_t is real at xi = 0 and on the Nyquist
frequencies, and it maps real fields to real layers.  It takes every field
as real planes, its real part and its imaginary part when that is non-zero,
each through the half spectrum: `rfftn`, the multipliers on the first
N/2 + 1 frequencies of the last axis, `irfftn`, and out*out for the square.
The layers of f = re + i im are those of re plus i those of im, and its
square sum the sum of theirs.  A real layer is half the bytes of a complex
one, so a chunk holds twice the scales.  Every other family takes each
field as one complex plane through the full spectrum.  Real odd families
(haar, gm:a, sgn-diff, the sided averages and second differences) are not
tagged: their multiplier is imaginary at the Nyquist frequency -N/2, which
is its own negative, so their layers of a real field keep an imaginary
Nyquist term that the half spectrum would drop.

A radial family, one whose multipliers depend on |xi| alone, or a 1-D odd
family, m_t(-xi) = -m_t(xi), is evaluated once per |xi| shell: each call
keys the grid's points by their integer |k|^2 (`_shells`), evaluates a
(scales, shells) table on the shells' radii alone, as many whole chunks of
layers at a time as fit in `grid._CHUNK_BYTES`, and gathers each chunk onto
the grid in blocks as it multiplies the spectra (`_times`), an odd family
with the sign of xi; the symbol on a grid is summed over scales on its
shells and gathered once (`ScaleFamily.on_grid`), and the symbol at any
other frequencies on their distinct |xi|^2.  Nothing is cached between
calls.

The square sum of a family tagged real and radial may take fewer layers
than it has scales (`ScaleFamily._principal`; the basis filters of Perona,
"Deformable kernels for early vision", IEEE TPAMI 17(5), 1995): the sum is
invariant under any real orthogonal mixing of the weighted multipliers
sqrt(w_t) m_t, so a block of scales can be rotated onto the eigenvectors of
its Gram on the shells and the rows whose eigenvalues sum to at most 2^-52
of its trace dropped.  The Gram takes the entries of the table below
2^-511 as zero (`_gram`), so that none of its products is subnormal, which
the CPU computes on a slow path (the 1-D poisson-q table underflows at
large t|xi|); that moves it by far less than the rank rule sees, and the
rows are made from the table as it is.  A probe, the same rule on a Gram of
about two shells per scale, first sends a block that would keep more than
half its scales back to them, at the cost of that small table; a plane
whose energy the dropped rows would not all see takes the block's scales
too.  The default 1-D poisson-q family (112 scales at 4096 points) takes
26 rows, the 512^2 poisson-q:2 family 19 of 64; riesz-diff and the ball and
smoothing families, 88% of whose scales stay, keep them.  The embedded side
of `duality_residual` takes the same rows for analysis and synthesis alike
(`_duality_rows`) when the kernel is real and radial and its reflected
conjugate has its table bit for bit, and its truncated side then sums the
symbol from the analysis table of that check, three tables in all; a layer
stack, a synthesis of one, a symbol and every other duality residual take
the scales.  The p = 2 constant-weight ratios in `sobolev` take their norms
by the discrete Parseval identity from even symbols on the half grid,
evaluated once per shell and gathered (`ScaleFamily.on_grid`), and one
`rfftn` per real plane of a field into buffers made once (`_power_sums`),
and form no layer.

Every kernel operator takes a scale set (`grid.ScaleSet`): its scales t_j
and the weight w each carries.  Continuous scale: a log-time grid, weighted
by its dt/t rule.  Dyadic: t = 2^k, unit weights.  m_t(xi) = psihat(t xi),
psi_t the L1-normalized dilate.  A window is the open interval (lo, hi) on
t for either kind.

The adjoint embedding (`ScaleFamily.synthesis`) integrates a stack of
layers, one per scale, back to a single field, E(h) = sum_j w psi_{t_j} * h_j;
feeding it the analysis layers of f with the reflected conjugate kernel
reproduces the truncated multiplier acting on f, which `duality_residual`
checks.  There the layers are streamed: the synthesis consumes each chunk of
analysis layers as it is made, its spectra taking the buffer of the chunk's
spent products, and the stack of all layers is never stored.

The direct Marcinkiewicz route never touches |psihat|^2: it evaluates the
sided averages by Gauss-Jacobi quadrature in the offset variable, summing
the offsets' shifts into one spectral multiplier per scale, and squares in
physical space.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from .grid import (
    NODES_PER_OCTAVE,
    Geometry,
    LogTimeGrid,
    SampledField,
    ScaleSet,
    _fit_chunk,
    _normalized,
    l2_norm,
)
from .kernels import Kernel, _jacobi_unit_rule

# complex fields per batch of the ratio functions in `sobolev` that form
# layers or weighted norms: the 20 test fields of a 1-D grid of 4096 points
# (1.3 MB) stay one batch, a 2-D field of 512^2 points (4 MiB) goes alone
_BATCH_BYTES = 2 * 1024 * 1024
# a block of scales drops the eigenvalues of its Gram that sum to at most this
# share of its trace (`ScaleFamily._principal_axes`): binary64's machine epsilon
_PRINCIPAL_EPS = 2.0**-52
# and a plane takes the kept rows only while the dropped ones take at most this
# share of its energy in its square sum, so that its sum moves by no more
_PRINCIPAL_SHARE = 2.0**-46
# the entries of a block below this magnitude are taken as zero in its Gram
# (`_gram`): the product of two that are not is 0 or at least 2^-1022, a normal
# number, so that no multiply-add of the product takes the CPU's slow path for
# subnormal operands or results
_GRAM_FLOOR = 2.0**-511


# ---------------------------------------------------------------------------
# the scale-layer engine

def _chunk_layers(points: int, real: bool = False) -> int:
    """How many layers of `points` values fit in a chunk, complex ones or real
    ones at half the bytes; at least one."""
    return _fit_chunk((8 if real else 16) * points)


def _planes(values: np.ndarray, real: bool = True) -> list:
    """The planes values, a field or a stack of layers, go through: with `real`
    their real part and, when that is non-zero, their imaginary part
    (values = planes[0] + i planes[1]), a real array being its own one plane;
    else the values themselves."""
    if not (real and np.iscomplexobj(values)):
        return [values]
    return [values.real] + ([values.imag] if values.imag.any() else [])


def _joined(planes: np.ndarray) -> np.ndarray:
    """planes[0] + i planes[1] over the first axis, a lone plane as it is."""
    return planes[0] if len(planes) == 1 else planes[0] + 1j * planes[1]


def _buffer(buf: np.ndarray | None, shape: tuple, dtype) -> tuple[np.ndarray, np.ndarray]:
    """(a C-contiguous array of `shape` on the front of the flat buffer buf,
    the buffer): a new buffer of `dtype` when buf is None or too small.  A
    loop passes each chunk's result back in, so that its chunks share one
    buffer instead of each taking a fresh one from the heap."""
    size = math.prod(shape)
    if buf is None or buf.size < size:
        buf = np.empty(size, dtype)
    return buf[:size].reshape(shape), buf


def _inverse_into(spec: np.ndarray, out: np.ndarray, dim: int) -> np.ndarray:
    """The inverse FFT over the last `dim` axes of spec, written into out with
    the bits of `np.fft.irfftn` (a real out, spec a half spectrum) or
    `np.fft.ifftn` (a complex out).  The half spectrum's leading axes are
    transformed in place, overwriting spec, where irfftn takes a temporary."""
    ax = tuple(range(-dim, 0))
    if np.iscomplexobj(out):
        return np.fft.ifftn(spec, axes=ax, out=out)
    for axis in ax[:-1]:
        np.fft.ifft(spec, axis=axis, out=spec)
    return np.fft.irfftn(spec, s=out.shape[-1:], axes=ax[-1:], out=out)


def _spectra(fields: Sequence[SampledField], half: bool):
    """(the index of each field's first plane, the spectra of the batch's
    planes on (plane, 1, *grid)): the real planes of each field (`_planes`)
    through `rfftn` with `half`, else each field through `fftn`."""
    geom = fields[0].geometry
    if any(f.geometry != geom for f in fields):
        raise ValueError("the fields of a batch must share one geometry")
    planes = [_planes(f.values, half) for f in fields]
    first = np.cumsum([0] + [len(p) for p in planes[:-1]])
    spec = np.empty((first[-1] + len(planes[-1]), 1) + geom.spectrum_shape(half), dtype=np.complex128)
    forward = np.fft.rfftn if half else np.fft.fftn
    for row, plane in zip(spec, (p for ps in planes for p in ps)):
        forward(plane, out=row[0])
    return first, spec


def _multiplied(spec: np.ndarray, m: np.ndarray, geom: Geometry, half: bool) -> SampledField:
    """IFFT(m FFT(f)) from the spectra of f's planes (`_spectra`), which it
    overwrites, m sampled on their grid; the planes joined, re + i im."""
    spec = spec[:, 0]
    spec *= m
    out = _inverse_into(spec, np.empty((len(spec),) + geom.shape, dtype=float if half else complex), geom.dim)
    return SampledField(geom, _joined(out))


def _times(m: np.ndarray, grid, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = M x, M the multipliers m of a chunk of scales on the points of
    grid (what `ScaleFamily._points` gave) put on its grid, x and out on
    (plane, scale, *grid); out may be x.

    Multipliers on shells are gathered onto the grid by its index, with its
    sign, in blocks of the grid's first axis: a block's gathered multipliers
    and the block of the index that `np.take` casts to intp take at most
    `grid._CHUNK_BYTES` together, so neither is ever formed whole.
    """
    _, index, sign = grid
    if index is None:
        return np.multiply(m, x, out=out)
    dim = index.ndim
    rows = _fit_chunk((m.itemsize * len(m) + 8) * math.prod(index.shape[1:]))
    for r in range(0, len(index), rows):
        block = (Ellipsis, slice(r, r + rows)) + (slice(None),) * (dim - 1)
        mb = np.take(m, index[r:r + rows], axis=1)
        if sign is not None:
            mb *= sign[r:r + rows]
        np.multiply(mb, x[block], out=out[block])
    return out


def _half_counts(columns: int) -> np.ndarray:
    """How often each column of the last axis of a half spectrum occurs in
    the full one: twice, but for the first and the last (-N/2)."""
    twice = np.full(columns, 2.0)
    twice[[0, -1]] = 1.0
    return twice


def _power_sums(geom: Geometry, symbols):
    """f -> [sum_k S(k) |FFT(f)_k|^2 for S in symbols] over the DFT grid of
    geom, one `rfftn` per real plane of f (`_planes`) and no layer; each S
    even, S(-k) = S(k), and given on the half grid (None standing for 1).

    A real plane's power spectrum is even, so its full sum is the sum over
    the half spectrum, every column of the last axis but the first and the
    last (-N/2) counted twice.  Against an even S the cross term of the two
    planes of f = re + i im cancels, so f's sum is the sum of its planes'.
    Each plane's spectrum, its power and the weighted products are written
    into three half-grid buffers made here, once, and the sums taken by `np.sum`.
    """
    twice = _half_counts(geom.n_samples // 2 + 1)
    weighted = [twice if s is None else twice * s for s in symbols]
    shape = geom.spectrum_shape(half=True)
    spec, power, product = np.empty(shape, complex), np.empty(shape), np.empty(shape)

    def sums(f: SampledField) -> np.ndarray:
        out = np.zeros(len(weighted))
        for plane in _planes(f.values):
            np.fft.rfftn(plane, out=spec)
            np.multiply(spec.real, spec.real, out=power)
            np.add(power, np.multiply(spec.imag, spec.imag, out=product), out=power)
            out += [np.sum(np.multiply(s, power, out=product)) for s in weighted]
        return out

    return sums


def _shells(geom: Geometry, half: bool, squares: bool = False):
    """(|xi| of each shell, or |xi|^2 with `squares`, the index of each
    point's shell) on the grid `geom.fft_grids(half)`.

    The shells are the distinct K = sum_i k_i^2 of the integer wave numbers
    k_i = 2L xi_i, in increasing order, found by `np.bincount`; the index is
    each point's rank among them, in the narrowest dtype that holds it, and
    a shell's |xi| is sqrt(K) / (2L), its |xi|^2 K / (2L)^2.  In 1-D every
    |k| <= N/2 is a shell, its own rank, and its |xi|^2 is fl(|xi|^2).  They
    are sqrt(fl(sum_i xi_i^2)) and fl(sum_i xi_i^2) bit for bit in 1-D, and
    in 2-D when 2L is a power of two; elsewhere they differ by round-off.
    """
    n, scale = geom.n_samples, 2.0 * geom.half_length
    k = np.minimum(np.arange(n), n - np.arange(n))  # |k| in FFT order
    last = k[: n // 2 + 1] if half else k
    if geom.dim == 1:
        rho = np.arange(n // 2 + 1) / scale
        return rho**2 if squares else rho, last.astype(np.min_scalar_type(n // 2 + 1))
    key = k[:, None] ** 2 + last[None, :] ** 2
    present = np.bincount(key.ravel()) > 0
    shells = np.flatnonzero(present)
    rank = np.cumsum(present, dtype=np.min_scalar_type(shells.size))
    rank -= 1  # K = 0 is a shell, so no rank is below it
    return shells / scale**2 if squares else np.sqrt(shells) / scale, rank[key]


def _shell_powers(spec: np.ndarray, index: np.ndarray, shells: int) -> np.ndarray:
    """(plane, shell) energies of the half spectra of `_spectra` spec: each
    plane's |FFT|^2 summed over the points of each shell of index, every
    column of the last axis but the first and the last (-N/2) counted twice,
    as the full spectrum holds it."""
    twice = _half_counts(spec.shape[-1])
    flat = index.ravel()
    return np.array([np.bincount(flat, ((row.real**2 + row.imag**2) * twice).ravel(), shells) for row in spec[:, 0]])


def _gram(weighted) -> np.ndarray:
    """A A^T summed over the (slice, block of A) pairs of
    `ScaleFamily._weighted`, A real (the table of a `_rotatable` family), each
    entry below `_GRAM_FLOOR` in magnitude set to zero first, in place.

    That keeps every product of the sum normal, and it moves an entry of the
    Gram by at most P 2^-511 max|a| over P points: for the default 1-D
    poisson-q family (112 scales on 2049 shells, 0.5% of whose entries are
    subnormal) about 2^-490 of the trace, far below the 2^-52 of the trace
    that decides the rank (`_kept`), and on every family the tests and the
    benchmark build the Gram keeps its bits.  Without the floor that Gram
    took 6.1 ms, with it 1.0-1.4 ms (one thread of a 2-core Xeon).  The
    blocks' magnitudes go to one buffer that every block reuses, and only a
    block whose least magnitude is below the floor is written: one with a
    zero entry, as at xi = 0 for a kernel of mean zero, or whose table
    underflows, as the 1-D poisson-q one does where t|xi| > 110.
    """
    gram, buf = 0, None
    for _, a in weighted:
        mag, buf = _buffer(buf, a.shape, float)
        if np.abs(a, out=mag).min() < _GRAM_FLOOR:
            np.copyto(a, 0.0, where=mag < _GRAM_FLOOR)
        gram = gram + a @ a.T
    return gram


def _add_in_order(q: np.ndarray, acc: np.ndarray) -> None:
    """acc += q[0] + q[1] + ..., the rows of the C-contiguous q (which it
    overwrites) added to acc one after another, as a loop over them adds
    them.  `np.sum` over the first axis adds the rows in order while they hold
    two or more values each, but sums a lone column pairwise;
    `np.add.accumulate` adds in order by definition."""
    q[0] += acc
    if q.shape[1] > 1:
        np.sum(q, axis=0, out=acc)
    else:
        acc[...] = np.add.accumulate(q, axis=0)[-1]


def _column_squares(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = sum_i a_ij^2 over the rows of the real, C-contiguous a, with the
    bits of `np.sum(np.abs(a) ** 2, axis=0)`: `np.einsum` adds the rows in
    order in one pass, as that sum does, while they hold two or more values
    each; a lone column, which np.sum adds pairwise, is left to np.sum."""
    if a.shape[1] > 1:
        return np.einsum("ij,ij->j", a, a, out=out)
    return np.sum(a * a, axis=0, out=out)


def _kept(gram: np.ndarray, lam: np.ndarray) -> int:
    """How many of gram's eigenvalues lam (ascending) stay when the smallest
    ones that sum to at most `_PRINCIPAL_EPS` trace(gram) are dropped."""
    return lam.size - np.count_nonzero(np.cumsum(lam) <= _PRINCIPAL_EPS * np.trace(gram))


def _energy_lost(power: np.ndarray, sigma: np.ndarray, kappa: np.ndarray) -> np.ndarray:
    """Whether each plane, of energies power on the shells (`_shell_powers`),
    would lose more than `_PRINCIPAL_SHARE` of its square sum's energy,
    power . sigma, to the dropped principal rows: power . (sigma - kappa),
    sigma and kappa as in `ScaleFamily._principal_rows`."""
    return power @ (sigma - kappa) > _PRINCIPAL_SHARE * (power @ sigma)


def _spectrum_moved(power: np.ndarray, sigma: np.ndarray, kappa: np.ndarray) -> np.ndarray:
    """Whether the dropped principal rows would move each plane's synthesis
    of its own layers, of spectrum sigma fhat, by more than
    `_PRINCIPAL_SHARE` of its L2 norm: the rows make kappa fhat, so the
    change is |sigma - kappa| fhat, power holding |fhat|^2 on the shells."""
    return power @ (sigma - kappa) ** 2 > _PRINCIPAL_SHARE**2 * (power @ sigma**2)


def _row_family(rows: np.ndarray) -> "ScaleFamily":
    """The rows of a table on a family's shells as a family of unit weights,
    row i its multiplier at "scale" i: valid on those shells alone, which the
    engine is handed with it (`ScaleFamily._add_squares`)."""
    return ScaleFamily(np.arange(len(rows)), 1.0, lambda i, _: rows[i.ravel().astype(np.intp)], radial=True, real=True)


def _require_mean_zero(f: SampledField, what: str) -> None:
    """Operators with a homogeneous symbol are only faithful off the zero
    frequency; reject fields carrying mean mass instead of zeroing it."""
    dc = abs(f.geometry.cell_volume * np.sum(f.values))  # fhat(0) = h^d sum f
    if dc > 1e-9 * max(l2_norm(f), 1e-300):
        raise ValueError(
            f"{what} requires a mean-zero field: |fhat(0)| = {dc:.3e} "
            f"exceeds 1e-9 * l2 norm; subtract the mean first"
        )


@dataclass(frozen=True)
class ScaleFamily:
    """Fourier multipliers m_t for the given scales, with per-scale weights w_t.

    `multiplier(t, *xi)` evaluates a chunk of scales at once: t has shape
    (c, 1, ..., 1), one trailing axis per axis of the broadcast frequency
    arrays xi, and the result broadcasts to (c,) + that shape.  `radial`
    declares that m_t(xi) depends on |xi| alone; such a family's multiplier
    is a function of the radius, `multiplier(t, r)` with r = |xi| >= 0 one
    array, and it is evaluated once per distinct |xi|^2 of its input.  `odd`
    declares m_t(-xi) == -m_t(xi) bit for bit; on 1-D input such a family
    is evaluated once per distinct xi^2, at |xi|, and the values at xi < 0
    negated.  `dim`, when given, is the dimension of the frequencies the
    multipliers take; input of another dimension raises ValueError.

    `real` declares m_t(-xi) == conj m_t(xi) at every frequency of the DFT
    grid, the self-conjugate ones included: m_t is real at xi = 0 and on the
    Nyquist frequencies, where -N/2 is its own negative.  Such a family maps
    real fields to real layers, and it takes every field through the half
    spectrum as real planes (`_planes`): each plane through `rfftn`,
    the multipliers on the first N/2 + 1 frequencies of the last axis, and
    `irfftn`, the layers of f = re + i im being those of re plus i those of
    im.  Every other family takes every field through the full spectrum as
    one complex plane.  A real odd family must not carry the tag, since its
    multiplier is imaginary at -N/2 and the half spectrum would drop that
    term of its layers.

    The square sum of a family tagged real and radial takes one layer per
    principal row of its blocks of scales (`_principal`), where a probe
    finds that at most half the scales would stay, instead of one per
    scale; a plane to which the dropped rows would lose more than 2^-46 of
    its energy takes the scales.
    """

    scales: NDArray[np.float64]
    weights: NDArray[np.float64]
    multiplier: Callable
    radial: bool = False
    odd: bool = False
    real: bool = False
    dim: int | None = None

    def __post_init__(self):
        scales = np.atleast_1d(np.asarray(self.scales, dtype=float))
        object.__setattr__(self, "scales", scales)
        object.__setattr__(self, "weights", np.broadcast_to(np.asarray(self.weights, float), scales.shape))

    @classmethod
    def of_kernel(cls, kernel: Kernel, scales, weights=1.0) -> "ScaleFamily":
        """m_t(xi) = psihat(t xi): the layers f * psi_t of the L1-normalized
        dilates; psihat(t r), `kernel.radial_fourier`, for a radial kernel."""
        hat = kernel.radial_fourier if kernel.radial else None
        multiplier = (lambda t, *xi: kernel.fourier(*(t * x for x in xi))) if hat is None else (lambda t, r: hat(t * r))
        return cls(scales, weights, multiplier, hat is not None, kernel.odd, kernel.real, kernel.dim)

    @property
    def even_symbol(self) -> bool:
        """Whether the symbol sum_t w_t |m_t(xi)|^2 is even, as |m_t|^2 is for
        a family tagged radial, odd or real (every registry kernel and
        profile is one of them)."""
        return self.radial or self.odd or self.real

    def _on_shells(self, dim: int) -> bool:
        """Whether the family is evaluated once per |xi| shell on input of
        `dim` axes, radial or odd in 1-D; ValueError for another dim than its."""
        if self.dim not in (None, dim):
            raise ValueError(f"the multipliers have dim {self.dim}, field has dim {dim}")
        return self.radial or (self.odd and dim == 1)

    def _points(self, geom: Geometry, half: bool | None = None):
        """(where to evaluate the multipliers, the index gathering them onto the
        grid, the sign applied after the gather) for the grid
        `geom.fft_grids(half)`, by default the one the family's spectra live
        on, half = `real`.

        A family `_on_shells` is evaluated on the radii of its shells
        (`_shells`) alone; the index maps each point of the grid to its shell,
        and an odd family takes sign -1 where xi < 0 (xi = 0 keeps its value).
        Any other family is evaluated on the grid itself, index and sign None.
        """
        half = self.real if half is None else half
        xi = geom.fft_grids(half)
        if not self._on_shells(geom.dim):
            return xi, None, None
        rho, index = _shells(geom, half)
        return (rho,), index, (np.where(xi[0] < 0, -1.0, 1.0) if self.odd and geom.dim == 1 else None)

    def _tables(self, points, layers: int):
        """(slice of scales, their multipliers at points) for chunks of `layers` scales."""
        trailing = (1,) * len(np.broadcast_shapes(*(np.shape(x) for x in points)))
        for lo in range(0, self.scales.size, layers):
            chunk = slice(lo, lo + layers)
            yield chunk, self.multiplier(self.scales[chunk].reshape((-1,) + trailing), *points)

    def _chunks(self, grid, layers: int):
        """(slice of scales, their multipliers on the points of grid) for
        chunks of `layers` scales, grid being what `_points` gave; `_times`
        puts them on the grid.

        The multipliers are evaluated in tables of as many whole chunks as fit
        in `grid._CHUNK_BYTES` on the points (at least one): a radial table on
        few shells covers many chunks of a large batch.
        """
        points = grid[0]
        size = math.prod(np.broadcast_shapes(*(np.shape(x) for x in points)))
        per_table = max(1, _chunk_layers(size) // layers) * layers
        for table, tm in self._tables(points, per_table):
            for lo in range(0, self.scales[table].size, layers):
                yield slice(table.start + lo, table.start + lo + layers), tm[lo:lo + layers]

    def _per_chunk(self, geom: Geometry, other: int) -> int:
        """How many layers of `other` planes each, or planes of `other` layers
        each, fit in `grid._CHUNK_BYTES` on geom, real or complex as the family's
        planes are; at least one."""
        return _chunk_layers(other * math.prod(geom.shape), self.real)

    def _layer_chunks(self, spec: np.ndarray, geom: Geometry, grid):
        """(slice of scales, slice of the planes of `_spectra`, their layers in
        FFT order on (plane, scale, *grid), the spent buffer of their products),
        chunk by chunk; grid is what `_points(geom)` gave.

        A chunk holds `_per_chunk` scales of every plane, at most
        `grid._CHUNK_BYTES` of layers (at least one scale), and its multipliers
        are evaluated once, on the grid of the spectra.  Its planes are
        transformed as many at a time as fit in `grid._CHUNK_BYTES` beside its
        scales, at least two for a family tagged real, so that the planes of
        a batch of one field come in one piece.  The products and the layers
        are formed in two buffers that every chunk reuses, so a consumer must
        be done with a chunk's layers before it asks for the next.  The
        products, complex values of the layers' spectra, are spent once the
        layers are made: a consumer may overwrite their buffer (a flat array
        for `_buffer`) with the spectra of the layers it was handed."""
        prod_buf = out_buf = None
        for chunk, m in self._chunks(grid, self._per_chunk(geom, len(spec))):
            step = max(1 + self.real, self._per_chunk(geom, len(m)))
            for lo in range(0, len(spec), step):
                part = spec[lo:lo + step]
                prod, prod_buf = _buffer(prod_buf, part.shape[:1] + m.shape[:1] + part.shape[2:], np.complex128)
                _times(m, grid, part, prod)
                out, out_buf = _buffer(out_buf, prod.shape[:2] + geom.shape, float if self.real else complex)
                yield chunk, slice(lo, lo + len(prod)), _inverse_into(prod, out, geom.dim), prod_buf

    def square_sum(self, fields: Sequence[SampledField]) -> NDArray[np.float64]:
        """sum_t w_t |IFFT(m_t fhat)|^2 for each field of a batch, stacked on
        axis 0; for real planes, the sum over the planes of f = re + i im.
        The layers are those of the family's principal rows (`_principal`)
        where it has them."""
        first, spec = _spectra(fields, self.real)
        geom = fields[0].geometry
        grid = self._points(geom)
        acc = np.zeros((len(spec),) + geom.shape)
        for family, planes in self._principal(grid, spec):
            if planes is None:
                family._add_squares(spec, geom, grid, acc)
            else:
                part = np.zeros((planes.size,) + geom.shape)
                family._add_squares(spec[planes], geom, grid, part)
                acc[planes] += part
        return np.add.reduceat(acc, first, axis=0) if len(spec) > len(fields) else acc

    def _add_squares(self, spec: np.ndarray, geom: Geometry, grid, acc: np.ndarray) -> None:
        """acc += sum_t w_t |layer_t|^2 for the planes of `_spectra`, grid
        being what `_points(geom)` gave."""
        power_buf = sum_buf = None
        for chunk, part, out, _ in self._layer_chunks(spec, geom, grid):
            if self.real:  # the chunk's real layers are squared where they lie
                power = np.multiply(out, out, out=out)
            else:
                power, power_buf = _buffer(power_buf, out.shape, float)
                np.square(np.abs(out, out=power), out=power)
            weights = self.weights[chunk]
            if len(weights) == 1:  # weighted where it lies, the bits of the einsum; w = 1 leaves them
                summed = power[:, 0] if weights[0] == 1.0 else np.multiply(power[:, 0], weights[0], out=power[:, 0])
            else:
                summed, sum_buf = _buffer(sum_buf, out.shape[:1] + geom.shape, float)
                np.einsum("j,bj...->b...", weights, power, out=summed)
            acc[part] += summed

    def _rotatable(self) -> bool:
        """Whether the family's blocks of scales may be rotated onto principal
        rows: it is tagged real and radial, so that it is evaluated on shells
        and its multipliers there are float64 (the `Kernel` contract of a real
        even kernel), and of nonnegative weights."""
        return self.real and self.radial and bool((self.weights >= 0).all())

    def _blocks(self, grid, spec: np.ndarray, lost, twin: "ScaleFamily | None" = None, symbol=None):
        """(slice of scales, their principal rows or None, which planes of
        `_spectra` spec the rows fail) for each block of at most
        isqrt(`grid._CHUNK_BYTES` / 8) = 181 scales of a `_rotatable` family
        on grid (what `_points` gave), so that a block's Gram fits the budget.

        A block has rows where its probe finds axes (`_principal_axes`) and,
        when the family twin is given, twin's table is its own bit for bit
        (`_principal_rows`, which adds twin's symbol over the block's scales
        to symbol on the shells).  lost(power, sigma, kappa) then says which
        planes, of energies power on the shells (`_shell_powers`), the rows
        fail.  The blocks are made as they are asked for, so that the rows of
        all of them are never held at once, and the planes' shell energies
        are found for a block with rows alone.
        """
        points, index, _ = grid
        step = math.isqrt(_fit_chunk(8))
        for lo in range(0, self.scales.size, step):
            block = slice(lo, lo + step)
            axes = self._principal_axes(block, points)
            made = None if axes is None else self._principal_rows(block, points, axes, twin, symbol)
            if made is None:
                yield block, None, None
                continue
            rows, sigma, kappa = made
            yield block, rows, lost(_shell_powers(spec, index, points[0].size), sigma, kappa)

    def _principal(self, grid, spec: np.ndarray):
        """(family, planes) pairs whose square sums, each over its planes of
        `_spectra` spec (None: all of them), add up to this family's on grid
        (what `_points` gave).

        A `_rotatable` family goes by `_blocks`.  A block with rows gives the
        family of its rows (`_row_family`) for the planes that lose at most
        `_PRINCIPAL_SHARE` of their energy to the dropped rows (`_energy_lost`),
        and its own scales for the others; the scales of the blocks without
        stay one family, for every plane.  Any other family is its own one
        part.  The pairs are made as they are asked for.
        """
        if not self._rotatable():
            yield self, None
            return
        keep = np.zeros(self.scales.size, bool)
        for block, rows, lost in self._blocks(grid, spec, _energy_lost):
            if rows is None:
                keep[block] = True
                continue
            if len(rows) and not lost.all():
                yield _row_family(rows), (np.flatnonzero(~lost) if lost.any() else None)
            if lost.any():
                scales = dataclasses.replace(self, scales=self.scales[block], weights=self.weights[block])
                yield scales, (None if lost.all() else np.flatnonzero(lost))
        if keep.any():
            yield dataclasses.replace(self, scales=self.scales[keep], weights=self.weights[keep]), None

    def _table(self, block: slice, points):
        """(slice of points, m_j for the block's scales there) over the 1-D
        arrays `points`, in blocks of points within `grid._CHUNK_BYTES`."""
        t = self.scales[block].reshape(-1, 1)
        step = _fit_chunk(16 * t.size)
        for lo in range(0, points[0].size, step):
            m = self.multiplier(t, *(x[lo:lo + step] for x in points))
            yield slice(lo, lo + m.shape[1]), m

    def _weighted(self, block: slice, points):
        """(slice of points, sqrt(w_j) m_j for the block's scales there), the
        blocks of points of `_table`; each block a new array."""
        root_w = np.sqrt(self.weights[block])[:, None]
        for part, m in self._table(block, points):
            yield part, root_w * m

    def _principal_axes(self, block: slice, points) -> np.ndarray | None:
        """U_r^T for the block's S scales on the P points `points`, or None
        when a probe finds that more than half of them would stay.

        A = sqrt(w_j) m_j on the points, real, G = A A^T with the entries of A
        below 2^-511 taken as zero (`_gram`), (lambda, U) = eigh(G), and U_r
        drops the eigenvectors whose eigenvalues sum to at most
        `_PRINCIPAL_EPS` trace(G) (`_kept`).  The probe applies that rule to
        the Gram on every k-th point, k = P // (2 S), about two points per
        scale, before G is formed: a block that keeps most of its scales
        costs a table on 2 S points, not a second table on all P.  On fewer
        than 4 S points the probe is G.  A sampled Gram keeps no more rows
        than G.  On 1-D grids of 256 to 65536 points and 2-D grids of 64^2 to
        512^2 with their default log grids, the probe keeps 13-50% of the
        scales for poisson-q and 69-88% for riesz-diff and the ball smoothing
        families (G: 20-56% and 69-91%).  Past one half, rows measured no
        faster than the scales in one process for those (`BENCH_25.json`).
        """
        size = self.scales[block].size
        stride = max(1, points[0].size // (2 * size))
        probe = _gram(self._weighted(block, tuple(x[::stride] for x in points)))
        if 2 * _kept(probe, np.linalg.eigvalsh(probe)) > size:
            return None
        gram = probe if stride == 1 else _gram(self._weighted(block, points))
        lam, u = np.linalg.eigh(gram)
        return u[:, size - _kept(gram, lam):].T

    def _principal_rows(self, block: slice, points, axes: np.ndarray, twin: "ScaleFamily | None" = None, symbol=None):
        """(the rows B = U_r^T A on the points, sigma, kappa), axes being U_r^T
        (`_principal_axes`) and sigma and kappa the sums of A^2 and B^2 over
        their rows at each point, A real; None when the family twin, given,
        has a weighted table on the block's scales and the points that differs
        from A by a bit.  A (and twin's table with it) is evaluated in blocks
        of points (`_weighted`), never whole, and A is not floored as the
        Gram's is, so that the rows keep their bits.

        Given twin, the sums sum_j w_j m_j^2 of its table over the block's
        scales are added to symbol on the points, scale by scale in scale
        order (`_add_in_order`): the arithmetic of `_summed`, so that, summed
        over the blocks, symbol has the bits of twin's `on_grid` on the shells
        and the duality residual need not evaluate that table a fourth time.

        U is real and orthogonal, so sum_j w_j |L_j|^2 =
        sum_i |sum_j U_ji sqrt(w_j) L_j|^2 for the layers L_j of a real
        plane, and each row stays Hermitian.  On a shell, the dropped rows
        would add sigma - kappa to the square sum of a unit spectrum.
        """
        size = points[0].size
        rows, sigma, kappa = np.empty((len(axes), size)), np.empty(size), np.empty(size)
        theirs = None
        if twin is not None:
            theirs, w = twin._table(block, points), twin.weights[block][:, None]
            root_w = np.sqrt(w)
        for part, a in self._weighted(block, points):
            if theirs is not None:
                m = next(theirs)[1]
                if not np.array_equal(a, root_w * m):
                    return None
                _add_in_order(w * np.square(m), symbol[part])
            rows[:, part] = b = axes @ a
            _column_squares(a, sigma[part])
            _column_squares(b, kappa[part])
        return rows, sigma, kappa

    def square_function(self, fields: Sequence[SampledField]) -> list[SampledField]:
        """The square root of `square_sum`, one real nonnegative field per input."""
        sq = self.square_sum(fields)
        return [SampledField(fields[0].geometry, v) for v in np.sqrt(sq, out=sq)]

    def layers(self, f: SampledField) -> NDArray[np.complex128]:
        """The stack IFFT(m_t fhat), one layer per scale, filled chunk by chunk."""
        stack = np.empty((self.scales.size,) + f.geometry.shape, dtype=np.complex128)
        _, spec = _spectra([f], self.real)
        for chunk, _, out, _ in self._layer_chunks(spec, f.geometry, self._points(f.geometry)):
            stack[chunk] = _joined(out)
        return stack

    def synthesis(self, layers: np.ndarray, geom: Geometry) -> SampledField:
        """sum_t w_t IFFT(m_t FFT(h_t)) of a stack h with one layer per scale."""
        planes = _planes(layers, self.real)
        step = self._per_chunk(geom, len(planes))
        chunks = (slice(lo, lo + step) for lo in range(0, self.scales.size, step))
        stacked = ((c, np.stack([p[c] for p in planes]), None) for c in chunks)
        return self._synthesize(stacked, geom, self._points(geom), len(planes))

    def _synthesize(self, chunks, geom: Geometry, grid, planes: int) -> SampledField:
        """sum_t w_t IFFT(m_t FFT(h_t)) over (slice of scales, the `planes`
        planes of their layers h_t in FFT order, on (plane, scale, *grid), a
        flat complex buffer to take their spectra or None) triples, consumed
        as they come; the slices must be the family's own chunks of
        `_per_chunk` scales, and grid is what `_points(geom)` gave.  Without
        a buffer the spectra go to one that every chunk reuses.  Each plane
        is synthesized on its own and the result joined, re + i im.  The
        chunks' buffers are let go before the sum's inverse transform."""
        ax = tuple(range(-geom.dim, 0))
        acc = np.zeros((planes,) + geom.spectrum_shape(self.real), dtype=np.complex128)
        forward = np.fft.rfftn if self.real else np.fft.fftn
        m = h = spare = spec = spec_buf = None
        for (chunk, m), (given, h, spare) in zip(self._chunks(grid, self._per_chunk(geom, planes)), chunks, strict=True):
            assert given == chunk, f"layers for scales {given} arrived where {chunk} was due"
            spec, spec_buf = _buffer(spare if spare is not None else spec_buf, h.shape[:-geom.dim] + acc.shape[1:], complex)
            forward(h, axes=ax, out=spec)
            _times(m, grid, spec, spec)
            for j, w in enumerate(self.weights[chunk]):  # weighted in place, scale by scale
                acc += spec[:, j] if w == 1.0 else np.multiply(spec[:, j], w, out=spec[:, j])
        del m, h, spare, spec, spec_buf
        out = _inverse_into(acc, np.empty((planes,) + geom.shape, float if self.real else complex), geom.dim)
        return SampledField(geom, _joined(out))

    def symbol(self, *xi) -> NDArray[np.float64]:
        """sum_t w_t |m_t(xi)|^2 at the broadcast frequency arrays xi.

        The terms are added one scale at a time in scale order, so the value
        at a frequency does not depend on the other points of the call.  A
        family `_on_shells` is evaluated at the square root of each distinct
        |xi|^2 (`np.unique`); sqrt(fl(x^2)) == |x|, so in 1-D that is |xi|.
        """
        xi = [np.asarray(x, dtype=float) for x in xi]
        if not self._on_shells(len(xi)):
            return self._summed(xi)
        key = sum(x**2 for x in xi)
        shells, index = np.unique(key, return_inverse=True)
        return np.take(self._summed((np.sqrt(shells),)), index.reshape(key.shape))

    def _summed(self, points) -> NDArray[np.float64]:
        """sum_t w_t |m_t|^2 with the multipliers evaluated at points, scale by scale."""
        acc = np.zeros(np.broadcast_shapes(*(np.shape(x) for x in points)))
        for chunk, m in self._tables(points, _chunk_layers(acc.size)):
            for w, mj in zip(self.weights[chunk], m):
                acc += w * np.abs(mj) ** 2
        return acc

    def on_grid(self, geom: Geometry, evaluate: Callable = lambda sigma, *xi: [sigma], half: bool = True) -> list:
        """The arrays evaluate(sigma, *xi) returns, sigma the symbol at the
        frequency arrays xi, on the grid `geom.fft_grids(half)`.

        A family `_on_shells` evaluates them once per shell (`_points`), xi
        the shells' radii alone, and gathers them onto the grid by the
        shells' index, so evaluate must take |xi| alone there; it may write
        into sigma.  Any other family evaluates them on the grid.  sigma has
        the bits of `symbol` on the grid in 1-D and where 2L is a power of
        two, and differs from it by round-off elsewhere (`_shells`).
        """
        xi, index, _ = self._points(geom, half)
        values = evaluate(self._summed(xi), *xi)
        return values if index is None else [np.take(v, index) for v in values]


def _window_run(scales: np.ndarray, window: tuple[float, float] | None) -> slice:
    """The scales inside the open interval `window` (all if None) as a slice,
    so that a stack is viewed, not copied; a window over increasing scales
    keeps one run of them."""
    if window is None:
        return slice(None)
    lo, hi = window
    idx = np.flatnonzero((scales > lo) & (scales < hi))
    if idx.size == 0:
        raise ValueError(f"no scales inside window {window}")
    return slice(idx[0], idx[-1] + 1)


# ---------------------------------------------------------------------------
# kernel square functions

def g_function(f: SampledField, kernel: Kernel, scales: ScaleSet) -> SampledField:
    """Square function (sum_j w |f * psi_{t_j}|^2)^(1/2); real and nonnegative.

    It is taken on f times 2^-e, e the binary exponent of the field's largest
    part, and scaled back by 2^e, so that no square of a finite field (a
    `gfun --input` file, say) overflows.  The square function is
    1-homogeneous and power-of-two scaling commutes with every rounding, so
    a field of ordinary size gets the bits of the plain route.
    """
    v, e = _normalized(f.values)
    family = ScaleFamily.of_kernel(kernel, scales.scales, scales.weight)
    g = family.square_function([SampledField(f.geometry, v)])[0]
    return SampledField(f.geometry, np.ldexp(g.values, e))


# ---------------------------------------------------------------------------
# the Marcinkiewicz integral, directly from sided averages

def _sided_average_family(alpha: float, scales, u_nodes: int, weights=1.0) -> ScaleFamily:
    """S_t(f)(x) = alpha integral_0^1 (1-s)^(alpha-1) [f(x-ts) - f(x+ts)] ds, the
    endpoint weight absorbed into a Gauss-Jacobi rule (nodes s_i, weights W_i):
    its multiplier sums the offsets' shifts, sum_i W_i (-2i sin(2 pi t s_i xi))."""
    if alpha <= 0:
        raise ValueError(f"order must be positive, got {alpha}")
    s, W = _jacobi_unit_rule(alpha, u_nodes)

    def multiplier(t, *xi):
        if len(xi) != 1:
            raise ValueError("sided averages are one-dimensional")
        phase = 2.0 * np.pi * t * xi[0]
        return -2j * sum(wi * np.sin(si * phase) for si, wi in zip(s, W))

    return ScaleFamily(scales, weights, multiplier, odd=True)


def marcinkiewicz_direct(
    f: SampledField, alpha: float, tg: LogTimeGrid, u_nodes: int = 64
) -> SampledField:
    """(sum_j w |S_{t_j}(f)|^2)^(1/2) by direct double quadrature."""
    return _sided_average_family(alpha, tg.scales, u_nodes, tg.weight).square_function([f])[0]


def _second_difference_family(f: SampledField, scales, weights=1.0) -> ScaleFamily:
    """-(F(x+t) + F(x-t) - 2 F(x)) / t, F the antiderivative of a mean-zero f: the
    multiplier (2 - 2 cos(2 pi t xi)) / (2 pi i t xi) = -2 pi i t xi sinc(t xi)^2."""
    if f.geometry.dim != 1:
        raise ValueError("second differences are one-dimensional")
    _require_mean_zero(f, "the antiderivative route")

    return ScaleFamily(scales, weights, lambda t, xi: -2j * np.pi * t * xi * np.sinc(t * xi) ** 2, odd=True)


def marcinkiewicz_antiderivative(f: SampledField, tg: LogTimeGrid) -> SampledField:
    """Order-1 Marcinkiewicz integral via second differences of the antiderivative."""
    return _second_difference_family(f, tg.scales, tg.weight).square_function([f])[0]


# ---------------------------------------------------------------------------
# the duality identity

def _duality_rows(analysis: ScaleFamily, synthesis: ScaleFamily, spec: np.ndarray, grid):
    """(the family of the principal rows of synthesis (`_row_family`) whose
    layers of the `_spectra` spec, synthesized by itself, give the embedded
    side of `duality_residual` with its spectrum moved by at most
    `_PRINCIPAL_SHARE` in L2, the symbol of analysis on the shells of grid
    with the bits of `ScaleFamily.on_grid`, summed from the table the check
    below evaluates); None where that side takes the scales.

    For real radial families, sum_j w_j m~_j m_j = sum_i b_i b_i when the
    reflected conjugate multipliers m~_j are the m_j, b_i the principal
    rows of the weighted family sqrt(w_j) m_j, up to the dropped rows.  So the rows are taken when
    both families are tagged real and radial, every block of synthesis has
    rows (`ScaleFamily._blocks`), its weighted table on the shells is the
    analysis table under the same weights bit for bit, checked as the rows
    are made, and no plane fails the guard (`_spectrum_moved`).
    """
    if not (analysis.real and analysis.radial and synthesis._rotatable()):
        return None
    rows, symbol = [], np.zeros(grid[0][0].size)
    for _, block_rows, moved in synthesis._blocks(grid, spec, _spectrum_moved, analysis, symbol):
        if block_rows is None or moved.any():
            return None
        rows.append(block_rows)
    return _row_family(rows[0] if len(rows) == 1 else np.concatenate(rows)), symbol


def duality_residual(
    f: SampledField, kernel: Kernel, eps: float, nodes_per_octave: int = NODES_PER_OCTAVE
) -> float:
    """Relative L2 gap between the embedded analysis layers and the
    truncated multiplier.

    Analysis layers F_j = f * psi_{t_j} over the window (eps, 1/eps) are
    synthesized with the reflected conjugate kernel and compared against the
    truncated symbol acting on f; both sides share one discretization, so
    the residual is pure floating-point noise unless something is wired
    wrong.  The layers are streamed: each chunk of them is synthesized as
    soon as it is made, into the buffer of the chunk's spent products, so
    the stack of all layers is never formed.  A real radial kernel whose
    reflected conjugate has its multipliers bit for bit takes the principal
    rows of the weighted family on both sides instead of the scales
    (`_duality_rows`), moving the embedded spectrum by at most 2^-46 of its
    L2 norm; the truncated side always takes the symbol, summed scale by
    scale, times f's spectra from the embedded side where the symbol's half
    is the family's, as for every real registry kernel.  The grid's shells
    are found once, for both families.  With the rows, the symbol is summed
    on the shells from the analysis table that the rows are checked against,
    so that three tables of the scales on the shells are evaluated, not
    four: the synthesis Gram's, the synthesis rows' and that one.

    Raises ValueError for eps outside (0, 1), and for a field that is zero
    or of no finite L2 norm, against which no gap is relative.
    """
    if not (0 < eps < 1):
        raise ValueError(f"need 0 < eps < 1, got {eps}")
    norm = l2_norm(f)
    if not math.isfinite(norm):
        raise ValueError(f"the duality residual needs a field of finite L2 norm, got {norm} (NaN or infinite values)")
    if norm == 0.0:
        raise ValueError("the duality residual is relative to the L2 norm of the field, which is zero")
    geom = f.geometry
    tg = LogTimeGrid(eps, 1.0 / eps, nodes_per_octave)
    t = tg.scales[_window_run(tg.scales, (eps, 1.0 / eps))]
    family = ScaleFamily.of_kernel(kernel, t, tg.weight)  # its layers do not read the weights, its symbol does
    synthesis = ScaleFamily.of_kernel(kernel.reflect_conjugate(), t, tg.weight)
    _, spec = _spectra([f], family.real)
    grid = family._points(geom)  # the reflected conjugate keeps the tags, and so the points
    rows, symbol = _duality_rows(family, synthesis, spec, grid) or (None, None)
    analysis, synthesis = (family, synthesis) if rows is None else (rows, rows)
    layers = ((chunk, out, spent) for chunk, _, out, spent in analysis._layer_chunks(spec, geom, grid))
    embedded = synthesis._synthesize(layers, geom, grid, len(spec))
    del analysis, synthesis, rows  # the row table goes before the truncated side
    even = family.even_symbol
    # with the rows, the symbol was summed on the shells of the half grid, the spectra's, as they were made
    sigma = family.on_grid(geom, half=even)[0] if symbol is None else np.take(symbol, grid[1])
    sigma[(0,) * geom.dim] = 0.0  # the pinned zero frequency of `multiplier.continuous_symbol`
    truncated = _multiplied(spec if even == family.real else _spectra([f], even)[1], sigma, geom, even)
    gap = np.subtract(embedded.values, truncated.values, out=embedded.values)  # in place: no grid-sized temporary
    return l2_norm(SampledField(geom, gap)) / norm
