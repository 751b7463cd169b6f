"""Reference routes for the tests, independent of the library's machinery.

Everything here goes through direct DFT sums, scipy adaptive quadrature,
or closed forms worked out by hand, never through the package's spectral
helpers; the exceptions, the composed routes, the one-call-per-point
scans and the complex route, chain public operators that a
streamed, layered, batched or half-spectrum route must reproduce.
Slow is fine; these run on small grids.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import integrate

from scalesq import SampledField, SpectralField


# ---------------------------------------------------------------------------
# direct transforms

def slow_transform(f: SampledField) -> SpectralField:
    """O(N^2) DFT matrix applied axis by axis."""
    g = f.geometry
    x = g.spatial_axis()
    xi = g.frequency_axis()
    M = np.exp(-2j * np.pi * np.outer(xi, x)) * g.spacing
    if g.dim == 1:
        coeffs = M @ f.values
    else:
        coeffs = M @ f.values @ M.T
    return SpectralField(g, coeffs)


def save_field_csv_rows(f: SampledField, path: str) -> None:
    """The field CSV written one formatted row at a time: header comment,
    column names, then (flat index, re, im) with the floats' repr."""
    g = f.geometry
    with open(path, "w") as fh:
        fh.write(f"# dim={g.dim} n={g.n_samples} half_length={g.half_length!r}\n")
        fh.write("index,re,im\n")
        for i, v in enumerate(f.values.ravel()):
            fh.write(f"{i},{float(v.real)!r},{float(v.imag)!r}\n")


def save_symbol_csv_rows(path: str, header: str, xi, values) -> None:
    """The symbol CSV written one formatted row at a time: the header line,
    column names, then (xi, re, im) with the floats' repr."""
    with open(path, "w") as fh:
        fh.write(header)
        fh.write("xi,re,im\n")
        for x, v in zip(xi, values):
            fh.write(f"{float(x)!r},{float(v.real)!r},{float(v.imag)!r}\n")


# ---------------------------------------------------------------------------
# kernel transforms by adaptive quadrature

def odd_compact_hat(spatial, radius: float, xi: float, limit: int = 400) -> complex:
    """hat of a real odd kernel supported in [-radius, radius]."""
    if xi == 0.0:
        return 0.0j
    val, _ = integrate.quad(
        lambda r: float(np.real(spatial(np.array([r]))[0])),
        0.0,
        radius,
        weight="sin",
        wvar=2.0 * math.pi * xi,
        limit=limit,
    )
    return -2j * val


def gm_hat_quad(alpha: float, xi: float) -> complex:
    """hat of alpha (1-|x|)^(alpha-1) sgn(x) on (-1,1), edge moved to 0.

    After v = 1 - u the oscillation splits into cos/sin pieces against the
    algebraic weight v^(alpha-1), which QUADPACK's oscillatory rule accepts.
    """
    if xi == 0.0:
        return 0.0j
    w = 2.0 * math.pi * xi

    def weight_fn(v: float) -> float:
        return v ** (alpha - 1.0) if v > 0.0 else 0.0

    c, _ = integrate.quad(weight_fn, 0.0, 1.0, weight="cos", wvar=w, limit=400)
    s, _ = integrate.quad(weight_fn, 0.0, 1.0, weight="sin", wvar=w, limit=400)
    return -2j * alpha * (math.sin(w) * c - math.cos(w) * s)


def gm_hat_mpmath(alpha: float, xi: float, dps: int = 40) -> complex:
    """hat of the graded kernel from mpmath's own 1F1 at dps digits.

    -2i Im[e^(ia) 1F1(alpha; alpha+1; -ia)], a = 2 pi xi, by the Kummer
    integral alpha integral_0^1 u^(alpha-1) e^(zu) du = 1F1(alpha; alpha+1; z).
    """
    import mpmath

    with mpmath.workdps(dps):
        a = 2 * mpmath.pi * mpmath.mpf(xi)
        val = mpmath.im(mpmath.exp(1j * a) * mpmath.hyp1f1(alpha, alpha + 1, -1j * a))
        return complex(0.0, float(-2 * val))


def gm_hat_rule(alpha: float, xi) -> np.ndarray:
    """hat of the graded kernel by the 48-node Gauss-Jacobi rule that defines
    it on the mid band 1 <= 2 pi |xi| < 30 + 2 alpha:
    -2i sgn(xi) sum_i W_i sin(2 pi |xi| s_i), s_i, W_i the rule for
    integral_0^1 alpha (1-s)^(alpha-1) g(s) ds from scipy's roots_jacobi."""
    from scipy.special import roots_jacobi

    x, w = roots_jacobi(48, alpha - 1.0, 0.0)
    s, weights = (x + 1.0) / 2.0, alpha * 2.0 ** -alpha * w
    xi = np.asarray(xi, dtype=float)
    a = 2.0 * np.pi * np.abs(xi)
    return -2j * np.sign(xi) * (weights @ np.sin(np.outer(s, a)))


def poisson_hat_quad(xi: float) -> complex:
    """hat of the even kernel (1/pi)(x^2-1)/(1+x^2)^2 via a cosine transform."""
    c = 1.0 / math.pi

    def psi(r: float) -> float:
        return c * (r * r - 1.0) / (1.0 + r * r) ** 2

    if xi == 0.0:
        val, _ = integrate.quad(psi, 0.0, np.inf, limit=400)
        return complex(2.0 * val)
    val, _ = integrate.quad(
        psi, 0.0, np.inf, weight="cos", wvar=2.0 * math.pi * xi, limit=400
    )
    return complex(2.0 * val)


def ball_deficit_mpmath(rho, dim: int, dps: int = 40):
    """1 - ballhat at modulus rho as an mpmath number: 1 - sin(z)/z with
    z = 2 pi rho in 1-D, 1 - J1(z)/(z/2) in 2-D."""
    import mpmath

    with mpmath.workdps(dps):
        z = 2 * mpmath.pi * mpmath.mpf(rho)
        if dim == 1:
            return 1 - mpmath.sin(z) / z
        return 1 - mpmath.besselj(1, z) / (z / 2)


def sgn_ball_average_quad(x: float) -> float:
    """(sgn * ball)(x) = integral over |y| < 1 of sgn(x - y) / 2 dy, adaptively."""
    cut = min(max(x, -1.0), 1.0)
    below, _ = integrate.quad(lambda y: 0.5 * np.sign(x - y), -1.0, cut)
    above, _ = integrate.quad(lambda y: 0.5 * np.sign(x - y), cut, 1.0)
    return below + above


def riesz_radial_rule(alpha: float, reach: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes rho_i and weights W_i of the 160-node rule for
    integral_0^reach rho^(alpha-1) g(rho) d rho, from scipy's roots_jacobi."""
    from scipy.special import roots_jacobi

    x, w = roots_jacobi(160, 0.0, alpha - 1.0)
    return reach * ((x + 1.0) / 2.0), reach**alpha * 2.0**-alpha * w


def riesz_ball_average_dense(alpha: float, x) -> np.ndarray:
    """(ball * tau |.|^(alpha-1))(x) in 1-D as the dense radial sum
    tau sum_i W_i (d(x + rho_i) + d(x - rho_i)), d = 1/2 on [-1, 1], the rule
    on [0, reach] with the batch's reach max|x| + 1.5, a few points at a time."""
    x = np.asarray(x, dtype=float)
    tau = math.gamma((1.0 - alpha) / 2.0) / (math.sqrt(math.pi) * 2.0**alpha * math.gamma(alpha / 2.0))
    rho, w = riesz_radial_rule(alpha, float(np.max(np.abs(x))) + 1.5)
    density = lambda y: np.where(np.abs(y) <= 1.0, 0.5, 0.0)
    out = np.empty(x.size)
    for lo in range(0, x.size, 1024):
        part = x.ravel()[lo:lo + 1024]
        out[lo:lo + 1024] = w @ (density(part + rho[:, None]) + density(part - rho[:, None]))
    return tau * out.reshape(x.shape)


def disk_hat_dblquad(rho: float) -> float:
    """Transform of the unit-disk average at radius rho, by direct 2-D quadrature."""

    def upper(x: float) -> float:
        return math.sqrt(max(0.0, 1.0 - x * x))

    val, _ = integrate.dblquad(
        lambda y, x: math.cos(2.0 * math.pi * rho * x) / math.pi,
        -1.0,
        1.0,
        lambda x: -upper(x),
        upper,
        epsabs=1e-12,
    )
    return val


# ---------------------------------------------------------------------------
# closed forms

def haar_hat_closed(xi):
    xi = np.asarray(xi, dtype=float)
    out = np.zeros(xi.shape, dtype=complex)
    nz = xi != 0
    out[nz] = -2j * np.sin(np.pi * xi[nz]) ** 2 / (np.pi * xi[nz])
    return out


def ball_hat_1d_closed(xi):
    xi = np.asarray(xi, dtype=float)
    out = np.ones(xi.shape, dtype=complex)
    nz = xi != 0
    out[nz] = np.sin(2.0 * np.pi * xi[nz]) / (2.0 * np.pi * xi[nz])
    return out


def gm_local_power_closed(alpha: float, u: float) -> float:
    """integral over |x|<1 of |alpha (1-|x|)^(alpha-1)|^u, by hand."""
    denom = u * (alpha - 1.0) + 1.0
    if denom <= 0:
        return math.inf
    return 2.0 * alpha**u / denom


def gm_tail_weight_closed(alpha: float, u: float) -> float:
    """Same integral as gm_local_power_closed via the substitution v = 1-r."""
    return gm_local_power_closed(alpha, u)


def haar_hormander_closed(x: float, y: float) -> float:
    """Shift energy of the square wave: the integrand is 1 exactly between
    the two support edges 1 and 1/(1-y/x), zero elsewhere."""
    rho = y / x
    if rho == 0.0:
        return 0.0
    return abs((1.0 - rho) ** -2 - 1.0) / (2.0 * x * x)


def scan_ratio_alpha1_closed(rho: float, same_sign: bool) -> float:
    """R(x, y) at grading 1 depends only on rho = |y/x| and the sign pairing."""
    if same_sign:
        return (2.0 - rho) / (2.0 * (1.0 - rho) ** 2)
    return (2.0 + rho) / (2.0 * (1.0 + rho) ** 2)


def poisson_majorant_l1_closed() -> float:
    """||H||_1 for the Poisson t-derivative, using the exact antiderivative
    of (r^2-1)/(1+r^2)^2, which is -r/(1+r^2).

    |psi| falls from 1/pi at 0 to zero at r = 1, then peaks at r = sqrt(3)
    with value 1/(8 pi) before decaying; the majorant is flat at that peak
    value between the matching radius r0 < 1 and sqrt(3).
    """
    c = 1.0 / math.pi
    peak = c / 8.0
    # solve (1 - r^2)/(1 + r^2)^2 = 1/8 for r in (0, 1)
    roots = np.roots([1.0, 0.0, 2.0 + 8.0, 0.0, 1.0 - 8.0])
    r0 = min(
        float(r.real)
        for r in roots
        if abs(r.imag) < 1e-12 and 0.0 < r.real < 1.0
    )
    inner = c * r0 / (1.0 + r0 * r0)  # integral of |psi| on [0, r0]
    flat = (math.sqrt(3.0) - r0) * peak
    tail = c * math.sqrt(3.0) / (1.0 + 3.0)  # integral of psi on [sqrt(3), inf)
    return 2.0 * (inner + flat + tail)


def poisson_tail_moment_quad(eps: float) -> float:
    c = 1.0 / math.pi
    val, _ = integrate.quad(
        lambda r: c * (r * r - 1.0) / (1.0 + r * r) ** 2 * r**eps,
        1.0,
        np.inf,
        limit=400,
    )
    return 2.0 * val


def poisson_local_power_quad(u: float) -> float:
    c = 1.0 / math.pi
    val, _ = integrate.quad(
        lambda r: (c * (1.0 - r * r) / (1.0 + r * r) ** 2) ** u, 0.0, 1.0, limit=200
    )
    return 2.0 * val


def hormander_quad(kernel, x: float, y: float) -> float:
    """Adaptive-quadrature route for the shift energy of a compact kernel."""
    s = 1.0 if x > 0 else -1.0
    stretch = 1.0 - y / x
    R = kernel.support_radius

    def integrand(u: float) -> float:
        a = np.real(kernel.spatial(np.array([s * u * stretch])))[0]
        b = np.real(kernel.spatial(np.array([s * u])))[0]
        return u * abs(a - b) ** 2

    top = R / min(1.0, stretch)
    pts = sorted(p for p in (R, R / stretch) if 0.0 < p < top)
    val, _ = integrate.quad(integrand, 0.0, top, points=pts, limit=800)
    return val / (x * x)


def scan_max_pointwise(
    kernel, alpha: float, j_step: float, m_step: float, nodes: int
) -> tuple[float, tuple[float, float]]:
    """The Hormander ratio scan with one energy integral per (x, y) point:
    the slow route of conditions.marcinkiewicz_estimate_scan, same grid,
    same visiting order, same strict comparison."""
    from scalesq import hormander_energy

    exps = np.arange(-2.0, 2.0 + 1e-9, j_step)
    ms = np.arange(2.0, 12.0 + 1e-9, m_step)
    best = (-math.inf, (0.0, 0.0))
    for sx in (1.0, -1.0):
        for ex in exps:
            xx = sx * 2.0**ex
            for sy in (1.0, -1.0):
                for m in ms:
                    yy = sy * 2.0**-m * abs(xx)
                    L = hormander_energy(kernel, xx, yy, nodes)
                    ratio = L * abs(xx) ** (1.0 + 2.0 * alpha) / abs(yy) ** (2.0 * alpha - 1.0)
                    if ratio > best[0]:
                        best = (float(ratio), (float(xx), float(yy)))
    return best


def nondegeneracy_loop(kernel, mode: str) -> tuple[float, tuple[float, ...]]:
    """(min_value, worst_direction) of conditions.nondegeneracy_check with one
    kernel call per direction (continuous) or annulus frequency (dyadic), the
    candidates visited in order and a strict < keeping the first minimum."""
    from scalesq.conditions import _directions

    if mode == "continuous":
        samples = np.geomspace(1e-3, 1e3, 64 * 20)
        candidates = _directions(kernel.dim, count=32)
    elif kernel.dim == 1:
        base = np.linspace(1.0, 2.0, 129)
        candidates = [(x,) for x in base] + [(-x,) for x in base]
    else:
        rads = np.linspace(1.0, 2.0, 17)
        angles = (np.arange(32) + 0.5) * (2.0 * np.pi / 32)
        candidates = [(r * math.cos(t), r * math.sin(t)) for r in rads for t in angles]
    if mode == "dyadic":
        samples = 2.0 ** np.arange(-12, 13).astype(float)
    worst = (math.inf, (0.0,) * kernel.dim)
    for c in candidates:
        sup = float(np.max(np.abs(kernel.fourier(*(samples * x for x in c)))))
        if sup < worst[0]:
            worst = (sup, c)
    return worst[0], tuple(float(x) for x in worst[1])


def max_scaled_modulus_loop(kernel, delta: float, xi_max: float, per_octave: int) -> float:
    """conditions._max_scaled_modulus with two kernel calls per direction: the
    coarse log scan, then 400 points across the cells beside its argmax."""
    from scalesq.conditions import _directions

    count = max(2, int(round(per_octave * math.log2(xi_max))) + 1)
    radii = np.geomspace(1.0, xi_max, count)
    best = 0.0
    for direc in _directions(kernel.dim):
        scaled = np.abs(kernel.fourier(*(radii * d for d in direc))) * radii**delta
        i = int(np.argmax(scaled))
        fine = np.linspace(radii[max(i - 1, 0)], radii[min(i + 1, radii.size - 1)], 400)
        best = max(best, float(np.max(np.abs(kernel.fourier(*(fine * d for d in direc))) * fine**delta)))
    return best


# ---------------------------------------------------------------------------
# physical-space scale averages

def _periodic_spline(f: SampledField):
    """Periodic cubic-spline interpolant of a 1-D field, as positions -> values."""
    from scipy.interpolate import CubicSpline

    g = f.geometry
    x = g.spatial_axis()
    period = 2.0 * g.half_length
    xx = np.append(x, x[0] + period)
    vv = np.append(f.values, f.values[0])
    spline = CubicSpline(xx, vv, bc_type="periodic")
    return lambda positions: spline(np.mod(positions - x[0], period) + x[0])


def sided_average_physical(
    f: SampledField, alpha: float, t: float, n_s: int = 4001
) -> np.ndarray:
    """S_t at grading alpha by the substitution s = (1 - u/t)^alpha.

    The substitution flattens the endpoint weight exactly, leaving a plain
    trapezoid over s in [0, 1]; accuracy is then set by the smoothness of
    the field, not the grading.
    """
    g = f.geometry
    x = g.spatial_axis()
    s = np.linspace(0.0, 1.0, n_s)
    u = t * (1.0 - s ** (1.0 / alpha))
    h = s[1] - s[0]
    interp = _periodic_spline(f)
    acc = np.zeros(g.shape, dtype=complex)
    for i, ui in enumerate(u):
        w = h if 0 < i < n_s - 1 else h / 2.0
        acc += w * (interp(x - ui) - interp(x + ui))
    return acc


def moving_average_physical(f: SampledField, t: float, upsample: int = 8) -> np.ndarray:
    """(f * ball_t)(x) = (F(x+t) - F(x-t)) / (2t) with F a cumulative trapezoid.

    Requires a mean-zero field so the antiderivative of the periodic
    extension is itself periodic.  The field is upsampled by linear
    interpolation first so the cumulative integral resolves scales below
    the grid spacing.
    """
    g = f.geometry
    x = g.spatial_axis()
    fine = np.linspace(-g.half_length, g.half_length, upsample * g.n_samples + 1)
    vals = _periodic_spline(f)(fine)
    F = integrate.cumulative_trapezoid(vals, fine, initial=0.0)
    drift = (F[-1] - F[0]) / (fine[-1] - fine[0])  # residual mean after sampling
    F = F - drift * (fine - fine[0])

    def F_at(pos: np.ndarray) -> np.ndarray:
        period = 2.0 * g.half_length
        wrapped = np.mod(pos + g.half_length, period) - g.half_length
        re = np.interp(wrapped, fine, F.real)
        im = np.interp(wrapped, fine, F.imag)
        return re + 1j * im

    return (F_at(x + t) - F_at(x - t)) / (2.0 * t)


# ---------------------------------------------------------------------------
# per-scale layer loops: the slow route of the scale-family engine
#
# One shifted transform pair per scale (per offset node for the sided
# averages), exactly as the square functions were computed before they were
# batched and chunked.  Multipliers take (t, *xi) with a scalar t.

def _shifted_spectrum(f: SampledField) -> np.ndarray:
    g = f.geometry
    return g.cell_volume * np.fft.fftshift(np.fft.fftn(np.fft.ifftshift(f.values)))


def _shifted_inverse(geom, spectral: np.ndarray) -> np.ndarray:
    ax = tuple(range(-geom.dim, 0))
    return (
        np.fft.fftshift(np.fft.ifftn(np.fft.ifftshift(spectral, axes=ax), axes=ax), axes=ax)
        / geom.cell_volume
    )


def _shifted_forward(geom, layers: np.ndarray) -> np.ndarray:
    ax = tuple(range(-geom.dim, 0))
    return geom.cell_volume * np.fft.fftshift(
        np.fft.fftn(np.fft.ifftshift(layers, axes=ax), axes=ax), axes=ax
    )


def kernel_multiplier(kernel):
    return lambda t, *xi: kernel.fourier(*(t * x for x in xi))


def difference_multiplier(profile):
    return lambda t, *xi: 1.0 - profile.fourier(*(t * x for x in xi))


def riesz_multiplier(order: float, *xi) -> np.ndarray:
    """(2 pi |xi|)^(-order), zero at the origin."""
    rho = np.sqrt(sum(np.asarray(x, dtype=float) ** 2 for x in xi))
    out = np.zeros(rho.shape)
    out[rho > 0] = (2.0 * np.pi * rho[rho > 0]) ** (-order)
    return out


def loop_layers(f: SampledField, multiplier, scales) -> np.ndarray:
    """IFFT(m_t fhat) scale by scale."""
    g = f.geometry
    F = _shifted_spectrum(f)
    grids = g.frequency_grids()
    return np.array(
        [_shifted_inverse(g, np.broadcast_to(multiplier(t, *grids), g.shape) * F) for t in scales]
    )


def loop_square_sum(f: SampledField, multiplier, scales, weights) -> np.ndarray:
    """sum_t w_t |IFFT(m_t fhat)|^2 scale by scale."""
    weights = np.broadcast_to(weights, np.shape(scales))
    acc = np.zeros(f.geometry.shape)
    for w, layer in zip(weights, loop_layers(f, multiplier, scales)):
        acc += w * np.abs(layer) ** 2
    return acc


def loop_synthesis(layers: np.ndarray, geom, multiplier, scales, weights) -> np.ndarray:
    """sum_t w_t IFFT(m_t FFT(h_t)) scale by scale."""
    weights = np.broadcast_to(weights, np.shape(scales))
    grids = geom.frequency_grids()
    total = np.zeros(geom.shape, dtype=complex)
    for w, t, h in zip(weights, scales, layers):
        total += w * np.broadcast_to(multiplier(t, *grids), geom.shape) * _shifted_forward(geom, h)
    return _shifted_inverse(geom, total)


def loop_symbol(multiplier, scales, weights, *xi) -> np.ndarray:
    """sum_t w_t |m_t(xi)|^2 scale by scale."""
    weights = np.broadcast_to(weights, np.shape(scales))
    acc = np.zeros(np.broadcast_shapes(*(np.shape(x) for x in xi)))
    for w, t in zip(weights, scales):
        acc += w * np.abs(multiplier(t, *xi)) ** 2
    return acc


def fiber_norm(layers: np.ndarray, weight: float) -> np.ndarray:
    """(sum_j w |h_j(y)|^2)^(1/2) over every layer of a stack, one per scale."""
    return np.sqrt(weight * np.sum(np.abs(layers) ** 2, axis=0))


def sided_average_loop(f: SampledField, alpha: float, t: float, u_nodes: int) -> np.ndarray:
    """S_t with one inverse transform per Gauss-Jacobi offset node."""
    from scipy.special import roots_jacobi

    x, w = roots_jacobi(u_nodes, alpha - 1.0, 0.0)
    s, W = (x + 1.0) / 2.0, alpha * 2.0 ** (-alpha) * w
    g = f.geometry
    phase = -2j * np.sin(2.0 * np.pi * t * np.outer(s, g.frequency_axis()))
    diffs = _shifted_inverse(g, phase * _shifted_spectrum(f)[None, :])
    return np.einsum("i,ij->j", W.astype(complex), diffs)


def second_difference_loop(f: SampledField, t: float) -> np.ndarray:
    """-(F(x+t) + F(x-t) - 2 F(x)) / t with F the spectral antiderivative."""
    g = f.geometry
    F = _shifted_spectrum(f)
    xi = g.frequency_axis()
    anti = np.zeros_like(F)
    nz = xi != 0
    anti[nz] = F[nz] / (2j * np.pi * xi[nz])
    second = (np.exp(2j * np.pi * t * xi) + np.exp(-2j * np.pi * t * xi) - 2.0) * anti
    return _shifted_inverse(g, second) * (-1.0 / t)


# ---------------------------------------------------------------------------
# composed routes

def duality_residual_stacked(f: SampledField, kernel, eps: float) -> float:
    """The duality residual through a stored layer stack: every analysis
    layer on the log-time grid, then the windowed synthesis of that stack
    with the reflected conjugate kernel, against the truncated multiplier."""
    from scalesq import LogTimeGrid, ScaleFamily, apply_multiplier, continuous_symbol, l2_norm
    from scalesq.squarefn import _window_run

    window = (eps, 1.0 / eps)
    tg = LogTimeGrid(eps, 1.0 / eps)
    layers = ScaleFamily.of_kernel(kernel, tg.scales).layers(f)
    run = _window_run(tg.scales, window)
    synthesis = ScaleFamily.of_kernel(kernel.reflect_conjugate(), tg.scales[run], tg.weight)
    embedded = synthesis.synthesis(layers[run], f.geometry)
    truncated = apply_multiplier(continuous_symbol(kernel, tg, window), f)
    return l2_norm(SampledField(f.geometry, embedded.values - truncated.values)) / l2_norm(f)


# ---------------------------------------------------------------------------
# the complex route of the scale-family engine
#
# A family's layers, square sums and syntheses through complex FFTs of the
# full grid, one scale at a time, whatever the field: the route every field
# took before families tagged real sent real fields through the half
# spectrum.  Only the family's multiplier, scales and weights are used.

def complex_layers(family, f: SampledField) -> np.ndarray:
    return loop_layers(f, family.multiplier, family.scales)


def complex_square_sums(family, fields) -> np.ndarray:
    return np.array([loop_square_sum(f, family.multiplier, family.scales, family.weights) for f in fields])


def complex_synthesis(family, layers: np.ndarray, geom) -> np.ndarray:
    return loop_synthesis(layers, geom, family.multiplier, family.scales, family.weights)


def complex_duality_residual(f: SampledField, kernel, eps: float) -> float:
    """The duality residual with the analysis layers and their synthesis
    taken scale by scale through complex FFTs."""
    from scalesq import LogTimeGrid, apply_multiplier, continuous_symbol, l2_norm

    tg = LogTimeGrid(eps, 1.0 / eps)
    t = tg.scales[(tg.scales > eps) & (tg.scales < 1.0 / eps)]
    layers = loop_layers(f, kernel_multiplier(kernel), t)
    embedded = loop_synthesis(layers, f.geometry, kernel_multiplier(kernel.reflect_conjugate()), t, tg.weight)
    truncated = apply_multiplier(continuous_symbol(kernel, tg, (eps, 1.0 / eps)), f)
    return l2_norm(SampledField(f.geometry, embedded - truncated.values)) / l2_norm(f)


# ---------------------------------------------------------------------------
# the eager test family and the full-spectrum power sums
#
# The test family as it was built before members were built on demand: all
# twenty fields at once, each jitter and amplitude drawn just before its
# member is made.  And sum_k S(k) |FFT(f)_k|^2 through a complex FFT of the
# full grid, the route every field took before real fields took `rfftn`.

def eager_test_family(geom, seed: int) -> tuple[tuple[SampledField, ...], tuple[str, ...]]:
    from scalesq import bump_field, gaussian_field, mean_subtract, modulated_gaussian_field

    rng = np.random.default_rng(seed)
    L = geom.half_length
    unit = L / 32.0
    members, labels = [], []

    def jitter():
        return tuple(rng.uniform(-L / 40.0, L / 40.0, size=geom.dim))

    def add(label, f):
        amp = rng.uniform(0.5, 2.0)
        members.append(mean_subtract(SampledField(geom, amp * f.values)))
        labels.append(label)

    for base_center in (-L / 16.0, L / 16.0):
        for w in [0.35, 0.55, 0.9, 1.4, 2.2]:
            center = tuple(base_center + d for d in jitter())
            add(f"gauss:w{w:g}:c{base_center:g}", gaussian_field(geom, w * unit, center))
    for m in (16, 32, 64, 128, 256):
        freq = m / (2.0 * L)
        add(f"modgauss:f{freq:g}", modulated_gaussian_field(geom, freq, 1.2 * unit, jitter()))
    for w in (2.0, 3.0, 4.0, 5.0, 6.0):
        add(f"bump:w{w:g}", bump_field(geom, w * unit, jitter()))
    return tuple(members), tuple(labels)


def full_power_sum(f: SampledField, symbol) -> float:
    """sum_k S(k) |FFT(f)_k|^2 over the full grid, S in FFT order."""
    power = np.abs(np.fft.fftn(f.values)) ** 2
    return float(np.sum(np.broadcast_to(symbol, power.shape) * power))


# ---------------------------------------------------------------------------
# the A_p constant of a weight, estimated over balls
#
# The package decides whether pow:A is an A_p weight in closed form
# (`weights.require_ap_weight`); this is the numerical check of that gate.

def ap_estimates(w, p: float, geom, j_min: int = -4, j_max: int = 4, m: int = 512) -> tuple[float, float]:
    """(estimate, refined estimate) of the A_p constant of the weight w: the
    largest avg_B(w) avg_B(w^(-1/(p-1)))^(p-1) over the balls B of radius 2^j,
    j_min <= j <= j_max, centred on 9 points per axis of the middle half of
    the box, each average a midpoint rule of m points per diameter that never
    samples the centre.  The refined pass reaches two octaves further down at
    2m points per diameter.  A lower bound for the supremum: a weight in A_p
    gives a refined estimate near the first, one outside an estimate that
    keeps growing as the sampling nears a singularity."""
    cs = np.linspace(-geom.half_length / 2.0, geom.half_length / 2.0, 9)
    centres = list(itertools.product(cs, repeat=geom.dim))

    def estimate(j_lo: int, m: int) -> float:
        best = 0.0
        for j in range(j_lo, j_max + 1):
            r = 2.0**j
            offsets = (np.arange(m) + 0.5) * (2.0 * r / m) - r
            grids = np.meshgrid(*[offsets] * geom.dim, indexing="ij")
            inside = sum(g * g for g in grids) <= r * r
            for c in centres:
                v = w(*(ci + g[inside] for ci, g in zip(c, grids)))
                best = max(best, np.mean(v) * np.mean(v ** (-1.0 / (p - 1.0))) ** (p - 1.0))
        return float(best)

    return estimate(j_min, m), estimate(j_min - 2, 2 * m)
