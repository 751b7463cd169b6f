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
number of scales.  The square sum shifts each input and each output once,
never a layer: |.|^2 does not see shifts.

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
finds the distinct |xi|^2 of its input, evaluates a (scales, shells) table,
as many whole chunks of layers at a time as fit in `grid._CHUNK_BYTES` on the
shells, and gathers it onto the grid one chunk at a time, an odd family
with the sign of xi; the symbol is summed over scales on the shells and
gathered once.  Nothing is cached between calls.  The p = 2
constant-weight ratios in `sobolev` take their norms by the discrete
Parseval identity from even symbols on the half grid and one `rfftn` per
real plane of a field (`_power_sums`), and form no layer.

Every kernel operator takes a scale set (`grid.ScaleSet`): its scales t_j
and the weight w each carries.  Continuous scale: a log-time grid, weighted
by its dt/t rule.  Dyadic: t = 2^k, unit weights.  m_t(xi) = psihat(t xi),
psi_t the L1-normalized dilate.  A window is the open interval (lo, hi) on
t for either kind.

The adjoint embedding (`ScaleFamily.synthesis`) integrates a stack of
layers, one per scale, back to a single field, E(h) = sum_j w psi_{t_j} * h_j;
feeding it the analysis layers of f with the reflected conjugate kernel
reproduces the truncated multiplier acting on f, which `duality_residual`
checks.  There the layers are
streamed: the synthesis consumes each chunk of analysis layers as it is
made, and the stack of all layers is never stored.

The direct Marcinkiewicz route never touches |psihat|^2: it evaluates the
sided averages by Gauss-Jacobi quadrature in the offset variable, summing
the offsets' shifts into one spectral multiplier per scale, and squares in
physical space.
"""

from __future__ import annotations

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


# ---------------------------------------------------------------------------
# the scale-layer engine

def _spatial_axes(geom: Geometry) -> tuple[int, ...]:
    return tuple(range(-geom.dim, 0))


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


def _power_sums(geom: Geometry, symbols):
    """f -> [sum_k S(k) |FFT(f)_k|^2 for S in symbols] over the DFT grid of
    geom, one `rfftn` per real plane of f (`_planes`) and no layer; each S
    even, S(-k) = S(k), and given on the half grid (None standing for 1).

    A real plane's power spectrum is even, so its full sum is the sum over
    the half spectrum, every column of the last axis but the first and the
    last (-N/2) counted twice.  Against an even S the cross term of the two
    planes of f = re + i im cancels, so f's sum is the sum of its planes'.
    |FFT(f)|^2 does not see the centring shift.
    """
    twice = np.full(geom.n_samples // 2 + 1, 2.0)
    twice[[0, -1]] = 1.0
    weighted = [twice if s is None else twice * s for s in symbols]

    def sums(f: SampledField) -> np.ndarray:
        out = np.zeros(len(weighted))
        for plane in _planes(f.values):
            spec = np.fft.rfftn(plane)
            power = spec.real**2 + spec.imag**2
            out += [np.sum(s * power) for s in weighted]
        return out

    return sums


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
    declares that m_t(xi) depends on |xi| alone; such a family is evaluated
    once per distinct |xi|^2 of its input, at (|xi|, 0, ..., 0).  `odd`
    declares m_t(-xi) == -m_t(xi) bit for bit; on 1-D input such a family
    is evaluated once per distinct xi^2, at |xi|, and the values at xi < 0
    negated.

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
    """

    scales: NDArray[np.float64]
    weights: NDArray[np.float64]
    multiplier: Callable
    radial: bool = False
    odd: bool = False
    real: bool = False

    def __post_init__(self):
        scales = np.atleast_1d(np.asarray(self.scales, dtype=float))
        object.__setattr__(self, "scales", scales)
        object.__setattr__(self, "weights", np.broadcast_to(np.asarray(self.weights, float), scales.shape))

    @classmethod
    def of_kernel(cls, kernel: Kernel, scales, weights=1.0) -> "ScaleFamily":
        """m_t(xi) = psihat(t xi): the layers f * psi_t of the L1-normalized dilates."""
        def multiplier(t, *xi):
            if len(xi) != kernel.dim:
                raise ValueError(f"kernel '{kernel.name}' has dim {kernel.dim}, field has dim {len(xi)}")
            return kernel.fourier(*(t * x for x in xi))

        return cls(scales, weights, multiplier, kernel.radial, kernel.odd, kernel.real)

    @property
    def even_symbol(self) -> bool:
        """Whether the symbol sum_t w_t |m_t(xi)|^2 is even, as |m_t|^2 is for
        a family tagged radial, odd or real (every registry kernel and
        profile is one of them)."""
        return self.radial or self.odd or self.real

    def _points(self, xi):
        """(where to evaluate the multipliers, the index gathering them onto xi,
        the sign applied after the gather).

        A radial family, or an odd family on 1-D input, is evaluated on its
        shells, the distinct values of |xi|^2, at (|xi|, 0, ..., 0); the index
        maps each point of xi to its shell, and an odd family takes sign -1
        where xi < 0 (xi = 0 keeps its value).  sqrt(fl(x^2)) == |x| in
        binary64, so a 1-D shell is |xi| itself.  Any other family is
        evaluated at xi itself, index and sign None.
        """
        odd = self.odd and len(xi) == 1
        if not (self.radial or odd):
            return xi, None, None
        key = sum(np.asarray(x, dtype=float) ** 2 for x in xi)
        shells, index = np.unique(key, return_inverse=True)
        rho = np.sqrt(shells)
        points = (rho,) + (np.zeros_like(rho),) * (len(xi) - 1)
        sign = np.where(np.asarray(xi[0]) < 0, -1.0, 1.0) if odd else None
        # the index lives through every chunk: the narrowest dtype keeps it small
        index = index.reshape(np.shape(key)).astype(np.min_scalar_type(shells.size))
        return points, index, sign

    def _tables(self, points, layers: int):
        """(slice of scales, their multipliers at points) for chunks of `layers` scales."""
        trailing = (1,) * len(np.broadcast_shapes(*(np.shape(x) for x in points)))
        for lo in range(0, self.scales.size, layers):
            chunk = slice(lo, lo + layers)
            yield chunk, self.multiplier(self.scales[chunk].reshape((-1,) + trailing), *points)

    def _chunks(self, xi, layers: int):
        """(slice of scales, their multipliers on xi) for chunks of `layers` scales.

        The multipliers are evaluated on the points of `_points` in tables of
        as many whole chunks as fit in `grid._CHUNK_BYTES` there (at least one), and
        gathered onto xi one chunk at a time, into one buffer that every
        chunk reuses: a radial table on few shells covers many chunks of a
        large batch.
        """
        points, index, sign = self._points(xi)
        size = math.prod(np.broadcast_shapes(*(np.shape(x) for x in points)))
        per_table = max(1, _chunk_layers(size) // layers) * layers
        gathered = None
        for table, tm in self._tables(points, per_table):
            for lo in range(0, self.scales[table].size, layers):
                m = tm[lo:lo + layers]
                if index is not None:
                    out, gathered = _buffer(gathered, m.shape[:1] + index.shape, m.dtype)
                    m = np.take(m, index, axis=1, out=out, mode="clip")  # "raise" would buffer out
                if sign is not None:
                    m *= sign
                yield slice(table.start + lo, table.start + lo + layers), m

    def _per_chunk(self, geom: Geometry, other: int) -> int:
        """How many layers of `other` planes each, or planes of `other` layers
        each, fit in `grid._CHUNK_BYTES` on geom, real or complex as the family's
        planes are; at least one."""
        return _chunk_layers(other * math.prod(geom.shape), self.real)

    def _spectra(self, fields: Sequence[SampledField]):
        """(the index of each field's first plane, the spectra of the batch's
        planes in FFT order, on (plane, 1, *grid))."""
        geom = fields[0].geometry
        if any(f.geometry != geom for f in fields):
            raise ValueError("the fields of a batch must share one geometry")
        planes = [_planes(f.values, self.real) for f in fields]
        first = np.cumsum([0] + [len(p) for p in planes[:-1]])
        spec = np.empty((first[-1] + len(planes[-1]), 1) + geom.spectrum_shape(self.real), dtype=np.complex128)
        forward = np.fft.rfftn if self.real else np.fft.fftn
        for row, plane in zip(spec, (p for ps in planes for p in ps)):
            forward(np.fft.ifftshift(plane), out=row[0])
        return first, spec

    def _layer_chunks(self, spec: np.ndarray, geom: Geometry):
        """(slice of scales, slice of the planes of `_spectra`, their layers in
        FFT order on (plane, scale, *grid)), chunk by chunk.

        A chunk holds `_per_chunk` scales of every plane, at most
        `grid._CHUNK_BYTES` of layers (at least one scale), and its multipliers
        are evaluated once, on the grid of the spectra.  Its planes are
        transformed as many at a time as fit in `grid._CHUNK_BYTES` beside its
        scales, at least two for a family tagged real, so that the planes of
        a batch of one field come in one piece.  The products and the layers
        are formed in two buffers that every chunk reuses, so a consumer must
        be done with a chunk's layers before it asks for the next."""
        prod_buf = out_buf = None
        for chunk, m in self._chunks(geom.fft_grids(half=self.real), self._per_chunk(geom, len(spec))):
            step = max(1 + self.real, self._per_chunk(geom, len(m)))
            for lo in range(0, len(spec), step):
                part = spec[lo:lo + step]
                prod, prod_buf = _buffer(prod_buf, (len(part),) + m.shape, np.complex128)
                np.multiply(m, part, out=prod)
                out, out_buf = _buffer(out_buf, prod.shape[:2] + geom.shape, float if self.real else complex)
                yield chunk, slice(lo, lo + len(prod)), _inverse_into(prod, out, geom.dim)

    def square_sum(self, fields: Sequence[SampledField]) -> NDArray[np.float64]:
        """sum_t w_t |IFFT(m_t fhat)|^2 for each field of a batch, stacked on
        axis 0; for real planes, the sum over the planes of f = re + i im."""
        first, spec = self._spectra(fields)
        geom = fields[0].geometry
        acc = np.zeros((len(spec),) + geom.shape)
        power_buf = sum_buf = None
        for chunk, part, out in self._layer_chunks(spec, geom):
            if self.real:  # the chunk's real layers are squared where they lie
                power = np.multiply(out, out, out=out)
            else:
                power, power_buf = _buffer(power_buf, out.shape, float)
                np.square(np.abs(out, out=power), out=power)
            summed, sum_buf = _buffer(sum_buf, out.shape[:1] + geom.shape, float)
            acc[part] += np.einsum("j,bj...->b...", self.weights[chunk], power, out=summed)
        if len(spec) > len(fields):
            acc = np.add.reduceat(acc, first, axis=0)
        return np.fft.fftshift(acc, axes=_spatial_axes(geom))

    def square_function(self, fields: Sequence[SampledField]) -> list[SampledField]:
        """The square root of `square_sum`, one real nonnegative field per input."""
        sq = self.square_sum(fields)
        return [SampledField(fields[0].geometry, v) for v in np.sqrt(sq, out=sq)]

    def layers(self, f: SampledField) -> NDArray[np.complex128]:
        """The stack IFFT(m_t fhat), one layer per scale, filled chunk by chunk."""
        stack = np.empty((self.scales.size,) + f.geometry.shape, dtype=np.complex128)
        _, spec = self._spectra([f])
        for chunk, _, out in self._layer_chunks(spec, f.geometry):
            stack[chunk] = np.fft.fftshift(_joined(out), axes=_spatial_axes(f.geometry))
        return stack

    def synthesis(self, layers: np.ndarray, geom: Geometry) -> SampledField:
        """sum_t w_t IFFT(m_t FFT(h_t)) of a stack h with one layer per scale."""
        planes = _planes(layers, self.real)
        ax, step = _spatial_axes(geom), self._per_chunk(geom, len(planes))
        chunks = (slice(lo, lo + step) for lo in range(0, self.scales.size, step))
        stacked = ((c, np.fft.ifftshift(np.stack([p[c] for p in planes]), axes=ax)) for c in chunks)
        return self._synthesize(stacked, geom, len(planes))

    def _synthesize(self, chunks, geom: Geometry, planes: int) -> SampledField:
        """sum_t w_t IFFT(m_t FFT(h_t)) over (slice of scales, the `planes`
        planes of their layers h_t in FFT order, on (plane, scale, *grid))
        pairs, consumed as they come; the slices must be the family's own
        chunks of `_per_chunk` scales.  Each plane is synthesized on
        its own and the result joined, re + i im."""
        ax = _spatial_axes(geom)
        grids = geom.fft_grids(half=self.real)
        acc = np.zeros((planes,) + geom.spectrum_shape(self.real), dtype=np.complex128)
        ours = self._chunks(grids, self._per_chunk(geom, planes))
        forward = np.fft.rfftn if self.real else np.fft.fftn
        spec_buf = None
        for (chunk, m), (given, h) in zip(ours, chunks, strict=True):
            assert given == chunk, f"layers for scales {given} arrived where {chunk} was due"
            spec, spec_buf = _buffer(spec_buf, h.shape[:-geom.dim] + acc.shape[1:], np.complex128)
            forward(h, axes=ax, out=spec)
            np.multiply(m, spec, out=spec)
            for j, w in enumerate(self.weights[chunk]):  # weighted in place, scale by scale
                term = spec[:, j]
                term *= w
                acc += term
        out = _inverse_into(acc, np.empty((planes,) + geom.shape, float if self.real else complex), geom.dim)
        return SampledField(geom, np.fft.fftshift(_joined(out)))

    def symbol(self, *xi) -> NDArray[np.float64]:
        """sum_t w_t |m_t(xi)|^2 at the broadcast frequency arrays xi.

        The terms are added one scale at a time in scale order, so the value
        at a frequency does not depend on the other points of the call.
        """
        points, index, _ = self._points([np.asarray(x, dtype=float) for x in xi])  # |m|^2 is even
        acc = np.zeros(np.broadcast_shapes(*(np.shape(x) for x in points)))
        for chunk, m in self._tables(points, _chunk_layers(acc.size)):
            for w, mj in zip(self.weights[chunk], m):
                acc += w * np.abs(mj) ** 2
        return acc if index is None else np.take(acc, index)


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
    soon as it is made, so the stack of all layers is never formed.
    """
    from .multiplier import apply_multiplier, continuous_symbol

    if not (0 < eps < 1):
        raise ValueError(f"need 0 < eps < 1, got {eps}")
    window = (eps, 1.0 / eps)
    tg = LogTimeGrid(eps, 1.0 / eps, nodes_per_octave)
    t = tg.scales[_window_run(tg.scales, window)]
    analysis = ScaleFamily.of_kernel(kernel, t)
    synthesis = ScaleFamily.of_kernel(kernel.reflect_conjugate(), t, tg.weight)
    _, spec = analysis._spectra([f])
    layers = ((chunk, out) for chunk, _, out in analysis._layer_chunks(spec, f.geometry))
    embedded = synthesis._synthesize(layers, f.geometry, len(spec))
    truncated = apply_multiplier(continuous_symbol(kernel, tg, window), f)
    gap = l2_norm(SampledField(f.geometry, embedded.values - truncated.values))
    return gap / l2_norm(f)
