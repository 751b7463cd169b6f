"""Cancellation kernels and averaging profiles with paired evaluators.

Every kernel carries a spatial evaluator, a Fourier evaluator under the
convention fhat(xi) = integral f(x) exp(-2 pi i x.xi) dx, and enough decay
metadata for the condition checkers.  The Fourier side is authoritative for
kernels with singular or slowly decaying spatial parts; spatial evaluators
for those are quadrature-backed diagnostics.

The zoo:

* haar: sgn(x) on [-1, 1]; hat is -2 pi i xi sinc(xi)^2.
* gm:a: alpha |1-|x||^(alpha-1) sgn(x) on (-1, 1), the profile whose
  square function is the generalized Marcinkiewicz integral; hat is
  -2i Im[e^(iw) 1F1(alpha; alpha+1; -iw)], w = 2 pi xi (DLMF 13.4.1).
* poisson-q[:d]: t-derivative of the Poisson kernel at t=1, with the
  normalization gamma((d+1)/2) / pi^((d+1)/2); hat is -2 pi |xi| e^(-2 pi |xi|).
* ball (averaging profile): normalized indicator of the unit ball.
* riesz-diff:a:profile[:d]: riesz_core - profile * riesz_core where
  riesz_core has hat (2 pi |xi|)^(-a); hat is (2 pi |xi|)^(-a)(1 - profilehat).
* sgn-diff:profile: sgn - sgn * profile = sgn(x) - (2 cdf(x) - 1) in closed
  form; hat is -i (1 - profilehat)/(pi xi).

Both difference kernels take 1 - profilehat from the profile's `deficit`,
which keeps full relative precision near xi = 0.  A radial kernel or profile
states its transform and deficit once, as functions of r = |xi| >= 0; their
coordinate forms are derived from those by `_on_radius`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .grid import _fit_chunk

_MOMENT_TOL = 1e-9
_DEFICIT_SERIES = 0.05  # |xi| below which 1 - profilehat comes from its Taylor series
_GM_PANEL = 1.25  # width in a = 2 pi |xi| of the graded hat's mid-band Chebyshev panels
_GM_DEGREE = 12
_GM_MIN_ORDER = 2.0**-10  # the unit rule's weights sum to 1 within 8e-16 down to here
_GM_MAX_ORDER = 1024.0  # the mid-band table of the largest order holds 1662 panels


class MomentClassError(ValueError):
    """Averaging profile fails the moment conditions required at this order."""


# ---------------------------------------------------------------------------
# quadrature helpers

def _stirling_tail(x: float) -> float:
    """ln Gamma(x) - [(x - 1/2) ln x - x + ln(2 pi)/2], to 1e-22 for x >= 500 (DLMF 5.11.1)."""
    return 1.0 / (12.0 * x) - 1.0 / (360.0 * x**3) + 1.0 / (1260.0 * x**5)


def _jacobi_mass(a: float, b: float) -> float:
    """mu0 = integral of (1-x)^a (1+x)^b over [-1, 1] = 2^(a+b+1) B(a+1, b+1).

    For a + b > 1000, ln Gamma(p + q) - ln Gamma(p), p >= q, would lose 1e-12
    to log-gammas near 6000; Stirling's series gives it without that
    cancellation, and the power of two is applied by ldexp.
    """
    if a + b <= 1000:
        return 2.0 ** (a + b + 1) * math.exp(math.lgamma(a + 1) + math.lgamma(b + 1) - math.lgamma(a + b + 2))
    p, q = max(a, b) + 1.0, min(a, b) + 1.0
    rise = (p - 0.5) * math.log1p(q / p) + q * math.log(p + q) - q + _stirling_tail(p + q) - _stirling_tail(p)
    whole, frac = divmod(a + b + 1.0, 1.0)
    try:
        return math.ldexp(2.0**frac * math.exp(math.lgamma(q) - rise), int(whole))
    except OverflowError:
        raise ValueError(f"Gauss-Jacobi weight (1-x)^{a!r} (1+x)^{b!r} has no finite mass") from None


def roots_jacobi(n: int, a: float, b: float):
    """Nodes and weights of the n-point Gauss-Jacobi rule for (1-x)^a (1+x)^b on [-1, 1].

    Golub-Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues of the
    symmetric tridiagonal Jacobi matrix of the weight's orthonormal
    polynomials, and each weight is the weight's mass mu0 (`_jacobi_mass`)
    times the squared first component of the node's unit eigenvector; one
    `np.linalg.eigh` gives both.  a = b = 0 is Gauss-Legendre.  For a = b the
    rule is symmetrised, so its nodes are odd and its weights even to the bit.
    """
    try:
        m = int(n)
    except (TypeError, ValueError, OverflowError):
        m = None
    if m is None or m != n or m < 1:
        raise ValueError(f"Gauss-Jacobi order must be a positive integer, got {n!r}")
    for name, e in (("a", a), ("b", b)):
        if not (math.isfinite(e) and e > -1.0):
            raise ValueError(f"Gauss-Jacobi exponent {name} must be finite and > -1, got {e!r}")
    mu0 = _jacobi_mass(a, b)
    j = np.arange(1.0, m)  # the off-diagonal's recurrence indices k = 1 ... n-1
    diagonal = np.empty(m)
    diagonal[0] = (b - a) / (2 + a + b)  # the k = 0 term cancelled: its general form is 0/0 at a + b = 0
    diagonal[1:] = (b * b - a * a) / ((2.0 * j + a + b) * (2.0 * j + a + b + 2))
    # the k = 1 factor is 1; for a + b = -1 its general form would be 0/0
    ratio = np.ones(m - 1)
    ratio[1:] = np.sqrt(j[1:] * (j[1:] + a + b) / (2.0 * j[1:] + a + b - 1))
    off = 2.0 / (2.0 * j + a + b) * np.sqrt((j + a) * (j + b) / (2 * j + a + b + 1)) * ratio
    x, v = np.linalg.eigh(np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1))
    w = mu0 * v[0] ** 2
    if a == b:
        x = (x - x[::-1]) / 2
        w = (w + w[::-1]) / 2
    return x, w


@lru_cache(maxsize=512)
def _jacobi_rule(n: int, end: float = 0.0, start: float = 0.0):
    """Nodes and weights for integral_0^1 (1-s)^end s^start g(s) ds, exponents > -1.

    Gauss-Jacobi on [-1, 1] mapped to [0, 1]; end = start = 0 is Gauss-Legendre.
    Every caller shares the cached arrays, so they are read-only.
    """
    x, w = roots_jacobi(n, end, start)
    s, w = (x + 1.0) / 2.0, 2.0 ** (-end - start - 1.0) * w
    s.setflags(write=False)
    w.setflags(write=False)
    return s, w


def _jacobi_unit_rule(alpha: float, n: int):
    """Nodes and weights for integral_0^1 alpha (1-s)^(alpha-1) g(s) ds; weights sum to 1."""
    s, w = _jacobi_rule(n, alpha - 1.0)
    return s, alpha * w


def _point_blocks(size: int, rows: int) -> list[slice]:
    """Blocks of a batch of `size` points whose (rows, block) float temporaries
    each fit `grid._CHUNK_BYTES`, at least two points a block.

    A reduction over the rows sums a lone contiguous column in another order
    than each column of a wider block, so a last lone point joins the block
    before it: a point's sum order then does not depend on the block width.
    """
    step = _fit_chunk(8 * rows, 2)
    starts = list(range(0, size, step))
    if len(starts) > 1 and size - starts[-1] == 1:
        starts.pop()
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [size])]


def _blocked_quadrature(weights: np.ndarray, integrand: Callable, points: np.ndarray) -> np.ndarray:
    """sum_i weights[i] integrand(block)[i, j] over the `_point_blocks` of the 1-D points.

    The integrand's (rows, block) temporaries stay within the chunk budget,
    and each point's value is the same bits at any block width.
    """
    out = np.empty(points.shape)
    for block in _point_blocks(points.size, weights.size):
        part = points[block]
        # a batch of one point is doubled, so that it too sums as a column of a wider block
        wide = np.resize(part, max(part.size, 2))
        out[block] = np.einsum("i,ij->j", weights, integrand(wide))[: part.size]
    return out


@dataclass(frozen=True)
class _GradedTable:
    """Per-order coefficients of the graded hat's three bands (`_graded_hat`).

    `chebyshev[k, p]` is the degree-k Chebyshev coefficient on panel p of the
    mid band, [1 + p w, 1 + (p + 1) w] in a with w = `_GM_PANEL`; `top` is
    30 + 2 alpha, where the large-argument expansion takes over.  `maclaurin`
    and `expansion` lead with their highest power, as np.polyval takes them.
    """

    top: float
    chebyshev: np.ndarray
    maclaurin: np.ndarray
    expansion: np.ndarray
    log_gamma: float


@lru_cache(maxsize=64)
def _graded_table(alpha: float) -> _GradedTable:
    """The tables of `_graded_hat` for one order, built once.

    The mid band is interpolated from the 48-node Gauss-Jacobi rule, which
    stays the definition there: each panel holds the degree-12 Chebyshev
    interpolant of the rule on its 13 first-kind nodes.  The rule's
    a-derivatives are bounded by its weights' sum, 1, so the interpolant is
    within ~1e-16 of it on a panel of width 1.25 whatever the order; round-off
    keeps the two within 1e-14 (9e-15 seen, at order 2^-10).  The rule itself
    is within 6e-15 of the largest exact value of the hat at orders up to
    1.25, and 1e-13 at 1024 (mpmath).
    """
    top = 30.0 + 2.0 * alpha
    panels = math.ceil((top - 1.0) / _GM_PANEL)
    theta = np.pi * (np.arange(_GM_DEGREE + 1.0) + 0.5) / (_GM_DEGREE + 1)
    centres = 1.0 + _GM_PANEL * (np.arange(panels) + 0.5)
    nodes = centres[:, None] + 0.5 * _GM_PANEL * np.cos(theta)
    s, W = _jacobi_unit_rule(alpha, 48)
    rule = _blocked_quadrature(W, lambda am: np.sin(np.outer(s, am)), nodes.ravel())
    # the discrete Chebyshev transform on first-kind nodes, c_0 halved
    basis = np.cos(np.outer(np.arange(_GM_DEGREE + 1.0), theta)) * (2.0 / theta.size)
    basis[0] /= 2.0
    # 1 / poch(alpha + 1, 2k + 1), the product taken downwards as scipy's poch does
    maclaurin = np.array([(-1.0) ** k / math.prod(alpha + 1.0 + i for i in range(2 * k, -1, -1))
                          for k in range(16)])
    expansion = (-1.0) ** np.arange(16.0) * np.cumprod(np.append(1.0, alpha - np.arange(1.0, 31.0)))[::2]
    return _GradedTable(
        top=top,
        chebyshev=basis @ rule.reshape(panels, theta.size).T,
        maclaurin=maclaurin[::-1],
        expansion=expansion[::-1],
        log_gamma=math.lgamma(alpha + 1.0),
    )


def _graded_hat(alpha: float, xi) -> np.ndarray:
    """-2i sgn(xi) Im[e^(ia) 1F1(alpha; alpha+1; -ia)], a = 2 pi |xi| (DLMF 13.4.1).

    Im[...] = integral_0^1 alpha (1-s)^(alpha-1) sin(a s) ds.  For 1 <= a < 30 + 2 alpha
    a fixed 48-node Gauss-Jacobi rule takes it to round-off; it is read from a
    per-order table of Chebyshev panels built from that rule (`_graded_table`),
    each point by Clenshaw's recurrence on the panel it falls in.  Below, the
    Maclaurin series does; above, more cheaply, the incomplete gamma expansion
    of DLMF 8.11.2 (u_k = (alpha-1)...(alpha-k)):
    Gamma(alpha+1) a^-alpha sin(a - pi alpha / 2) + alpha sum_m (-1)^m u_2m a^-(2m+1).
    Every step is elementwise, so a point's value does not depend on the
    other points of the call.
    """
    table = _graded_table(alpha)
    xi = np.asarray(xi, dtype=float)
    a = 2.0 * np.pi * np.abs(xi)
    out = np.empty(a.shape)
    small, large = a < 1.0, a >= table.top
    mid = ~(small | large)
    a_mid = a[mid]
    coef = table.chebyshev
    panel = np.minimum(np.floor((a_mid - 1.0) / _GM_PANEL), coef.shape[1] - 1)
    t = (a_mid - (1.0 + _GM_PANEL * (panel + 0.5))) / (0.5 * _GM_PANEL)  # in [-1, 1]
    panel, t2 = panel.astype(np.intp), 2.0 * t
    b1 = b2 = 0.0
    for row in coef[:0:-1]:
        b1, b2 = row[panel] + t2 * b1 - b2, b1
    out[mid] = coef[0][panel] + t * b1 - b2
    out[small] = a[small] * np.polyval(table.maclaurin, a[small] ** 2)
    a_large = a[large]
    out[large] = alpha / a_large * np.polyval(table.expansion, a_large**-2.0)
    out[large] += np.exp(table.log_gamma - alpha * np.log(a_large)) * np.sin(a_large - np.pi * alpha / 2)
    return -2j * np.sign(xi) * out


# ---------------------------------------------------------------------------
# kernel and profile containers

def _on_radius(hat: Callable) -> Callable:
    """The coordinate form xi -> hat(|xi|) of a radial transform hat(r), r >= 0.
    sqrt(fl(x^2)) == |x| in binary64, so (r, 0, ..., 0) gets the bits of hat(r)."""
    return lambda *coords: hat(np.asarray(np.sqrt(sum(np.asarray(x, dtype=float) ** 2 for x in coords))))


@dataclass(frozen=True)
class Kernel:
    """A convolution kernel with spatial and Fourier evaluators.

    Evaluators take `dim` coordinate arrays (broadcastable together) and
    return the broadcast result.  Spatial values are real, float64: every
    kernel with a spatial side is real in space.  The Fourier values of a
    real even kernel are float64 too, those of an odd one complex.  The
    Fourier evaluator is pointwise: a value does not depend on the other
    points of the call, which lets the condition checkers send a whole scan
    in one call.
    `support_radius` is inf for kernels with unbounded support.
    `cancellation_order` is the largest M such that all moments of
    multi-degree <= M vanish (and converge absolutely).

    Decay metadata, all optional:

    * spatial_tail_exponent q: |psi(x)| <= C |x|^-q for large |x|.
    * fourier_tail_exponent delta: |psihat(xi)| <= C |xi|^-delta at infinity.
    * fourier_origin_exponent eps: |psihat(xi)| <= C |xi|^eps near 0.
    * origin_singularity s: |psi(x)| ~ C |x|^-s as x -> 0; None if bounded.
    * edge_singularity (r, e): |psi| ~ (r - |x|)^e as |x| -> r inside the
      support, e < 0 meaning an integrable blow-up.

    Symmetry tags, which the scale-layer engine and the condition checkers
    trust: `radial` promises that psi and psihat depend on |x| and |xi| alone,
    and a radial kernel states `radial_fourier`, psihat as a function of
    r = |xi| >= 0, from which `fourier` is derived (`_on_radius`);
    `odd` promises psi(-x) == -psi(x) and psihat(-xi) == -psihat(xi), both
    bit for bit; `real` promises psihat(-xi) == conj psihat(xi) at every
    frequency of every sampling grid, the self-conjugate ones included, so
    psihat is real at xi = 0 and on the Nyquist frequencies.  A real even
    kernel keeps that promise.  A real odd one does not: its hat is
    imaginary at the Nyquist frequency -N/2, which is its own negative on
    the grid.
    """

    dim: int
    name: str
    spatial: Callable | None
    fourier: Callable
    support_radius: float
    cancellation_order: int
    spatial_tail_exponent: float | None = None
    fourier_tail_exponent: float | None = None
    fourier_origin_exponent: float | None = None
    origin_singularity: float | None = None
    edge_singularity: tuple[float, float] | None = None
    radial: bool = False
    odd: bool = False
    real: bool = False
    radial_fourier: Callable | None = None

    def fourier_at_scale(self, t: float, *coords):
        """Fourier transform of the L1-normalized dilate, psihat(t xi)."""
        return self.fourier(*(t * np.asarray(c, dtype=float) for c in coords))

    def reflect_conjugate(self) -> "Kernel":
        """Kernel x -> conj(psi(-x)); its hat is conj(psihat), in both forms."""
        spatial = None
        if self.spatial is not None:
            base = self.spatial
            spatial = lambda *cs: np.conj(base(*(-np.asarray(c, dtype=float) for c in cs)))
        base_hat, radial_hat = self.fourier, self.radial_fourier
        return replace(
            self,
            name=self.name + "~",
            spatial=spatial,
            fourier=lambda *cs: np.conj(base_hat(*cs)),
            radial_fourier=None if radial_hat is None else lambda r: np.conj(radial_hat(r)),
        )


@dataclass(frozen=True)
class AveragingProfile:
    """Unit-mass bump used for local averages f * profile_t.

    The profile's values are `kernel.spatial`.  `deficit` is the real
    1 - profilehat, to full relative precision near the origin where the
    subtraction cancels; a radial profile states it once as a function of
    r = |xi| >= 0, `radial_deficit`, and derives `deficit` from it.  `moment` returns the exact mixed moment for a
    degree tuple.  `cdf`, for 1-D profiles, is the closed-form integral of
    the profile up to x.
    """

    kernel: Kernel
    deficit: Callable
    moment: Callable
    cdf: Callable | None = None
    radial_deficit: Callable | None = None

    @property
    def dim(self) -> int:
        return self.kernel.dim

    @property
    def name(self) -> str:
        return self.kernel.name

    @property
    def fourier(self) -> Callable:
        return self.kernel.fourier


@dataclass(frozen=True)
class MomentClassReport:
    order: float
    ok: bool
    unit_mass_error: float
    moments: dict[tuple[int, ...], float]
    tol: float = _MOMENT_TOL

    def failures(self) -> list[str]:
        out = []
        if self.unit_mass_error >= self.tol:
            out.append(f"total mass differs from 1 by {self.unit_mass_error:.3e}")
        for gamma, val in self.moments.items():
            if abs(val) >= self.tol:
                out.append(f"moment {gamma} = {val:.3e} does not vanish")
        return out


def _degree_tuples(dim: int, degree: int) -> list[tuple[int, ...]]:
    if dim == 1:
        return [(degree,)]
    return [(degree - b, b) for b in range(degree + 1)]


def moment_class_check(profile: AveragingProfile, alpha: float) -> MomentClassReport:
    """Check membership of the profile in the order-alpha moment class.

    Requires unit total mass, and for alpha >= 1 vanishing moments of all
    degrees 1..floor(alpha).  The values are the profile's exact moments, up
    to the first degree where one does not vanish and the check fails.
    """
    if alpha <= 0:
        raise ValueError(f"order must be positive, got {alpha}")
    mom = profile.moment
    zero = (0,) * profile.dim
    mass_err = abs(mom(zero) - 1.0)
    moments: dict[tuple[int, ...], float] = {}
    degree = 1
    while degree <= alpha and all(abs(v) < _MOMENT_TOL for v in moments.values()):
        moments |= {gamma: mom(gamma) for gamma in _degree_tuples(profile.dim, degree)}
        degree += 1
    ok = mass_err < _MOMENT_TOL and all(abs(v) < _MOMENT_TOL for v in moments.values())
    return MomentClassReport(order=alpha, ok=ok, unit_mass_error=mass_err, moments=moments)


def _require_moment_class(profile: AveragingProfile, alpha: float, context: str) -> None:
    report = moment_class_check(profile, alpha)
    if not report.ok:
        raise MomentClassError(
            f"{context}: profile '{profile.name}' fails the order-{alpha} "
            f"moment conditions: " + "; ".join(report.failures())
        )


# ---------------------------------------------------------------------------
# the kernel zoo

def haar_kernel() -> Kernel:
    """Odd square wave sgn(x) on [-1, 1]."""

    def spatial(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) <= 1.0, np.sign(x), 0.0)

    def fourier(xi):
        xi = np.asarray(xi, dtype=float)
        return -2j * np.pi * xi * np.sinc(xi) ** 2

    return Kernel(
        dim=1,
        name="haar",
        spatial=spatial,
        fourier=fourier,
        support_radius=1.0,
        cancellation_order=0,
        fourier_tail_exponent=1.0,
        fourier_origin_exponent=1.0,
        odd=True,
    )


def marcinkiewicz_kernel(alpha: float) -> Kernel:
    """Graded odd profile alpha |1-|x||^(alpha-1) sgn(x) on (-1, 1).

    Its square function is the generalized Marcinkiewicz integral of order
    alpha; alpha = 1 recovers the Haar kernel.  The hat is in closed form,
    psihat(xi) = -2i Im[e^(ia) 1F1(alpha; alpha+1; -ia)], a = 2 pi xi, from the
    Kummer integral of 1F1 (DLMF 13.4.1), evaluated on |xi| since it is odd.
    On 1 <= 2 pi |xi| < 30 + 2 alpha that integral is defined by a 48-node
    Gauss-Jacobi rule, and read from Chebyshev panels built once per order
    from the rule (`_graded_table`).  Their count grows with the order, so
    the order is capped at 1024, where the table holds 1662 panels.  The
    rule's weights sum to 1 within 8e-16 at orders down to 2^-10.  Below it
    they sum to the mass (`_jacobi_mass`) of the rounded exponent alpha - 1,
    alpha / (1 + fl(alpha - 1)), which has lost alpha's low digits: 1 + 4.6e-12
    at 1e-5 and 1 + 8e-4 at 1e-15.  So the order starts at 2^-10.
    """
    if not _GM_MIN_ORDER <= alpha <= _GM_MAX_ORDER:
        raise ValueError(f"gm order must lie in [2^-10, {_GM_MAX_ORDER:g}], got {alpha}")

    def spatial(x):
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        out = np.zeros(ax.shape)
        inside = ax < 1.0
        with np.errstate(divide="ignore"):
            vals = alpha * (1.0 - ax[inside]) ** (alpha - 1.0)
        out[inside] = vals * np.sign(x[inside])
        return out

    edge = (1.0, alpha - 1.0) if alpha != 1.0 else None
    return Kernel(
        dim=1,
        name=f"gm:{alpha:g}",
        spatial=spatial,
        fourier=lambda xi: _graded_hat(alpha, xi),
        support_radius=1.0,
        cancellation_order=0,
        fourier_tail_exponent=min(alpha, 1.0),
        fourier_origin_exponent=1.0,
        edge_singularity=edge,
        odd=True,
    )


def poisson_derivative_kernel(dim: int = 1) -> Kernel:
    """t-derivative at t=1 of the Poisson kernel c_d t / (|x|^2 + t^2)^((d+1)/2).

    The normalization c_d = gamma((d+1)/2) / pi^((d+1)/2) makes the Poisson
    kernel a unit-mass approximate identity, so the hat is exactly
    -2 pi |xi| exp(-2 pi |xi|).
    """
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    c = math.gamma((dim + 1) / 2.0) / math.pi ** ((dim + 1) / 2.0)

    def spatial(*coords):
        r2 = sum(np.asarray(x, dtype=float) ** 2 for x in coords)
        return c * (r2 - dim) / (r2 + 1.0) ** ((dim + 3) / 2.0)

    radial_fourier = lambda rho: -2.0 * np.pi * rho * np.exp(-2.0 * np.pi * rho)
    return Kernel(
        dim=dim,
        name="poisson-q" if dim == 1 else f"poisson-q:{dim}",
        spatial=spatial,
        fourier=_on_radius(radial_fourier),
        support_radius=math.inf,
        cancellation_order=1,
        spatial_tail_exponent=float(dim + 1),
        fourier_tail_exponent=2.0,  # any polynomial rate; 2 is a safe tag
        fourier_origin_exponent=1.0,
        radial=True,
        real=True,
        radial_fourier=radial_fourier,
    )


def _disk_moment(gamma: tuple[int, ...]) -> float:
    a, b = gamma
    if a % 2 or b % 2:
        return 0.0
    a2, b2 = a // 2, b // 2
    angular = 2.0 * math.gamma(a2 + 0.5) * math.gamma(b2 + 0.5) / math.gamma(a2 + b2 + 1.0)
    return angular / ((a + b + 2.0) * math.pi)


# Taylor coefficients of the ball deficits in w: 1 - sin(z)/z = w sum_k (-1)^k w^k/(2k+3)!
# with w = z^2, z = 2 pi xi; 1 - J1(z)/(z/2) = w sum_k (-1)^k w^k/((k+1)!(k+2)!) with
# w = (z/2)^2, z = 2 pi rho.  For |xi| < _DEFICIT_SERIES the eighth term is below
# 1e-20 of the first.
_SINC_DEFICIT = np.array([(-1.0) ** k / math.factorial(2 * k + 3) for k in range(8)])
_DISK_DEFICIT = np.array([(-1.0) ** k / (math.factorial(k + 1) * math.factorial(k + 2)) for k in range(8)])


def _series_deficit(w: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """w sum_k coeffs[k] w^k by Horner's rule."""
    acc = np.full_like(w, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= w
        acc += c
    return w * acc


# J1(x) = (x/2) sum_k (-1)^k u^k / (k! (k+1)!), u = (x/2)^2; below _J1_SERIES the
# fourteenth term is under 1e-19 of the first.
_J1_SERIES = 2.0
_J1_MACLAURIN = np.array([(-1.0) ** k / (math.factorial(k) * math.factorial(k + 1)) for k in range(14)])
_J1_HANKEL = 25.0


def _hankel_j1_coefficients(terms: int) -> tuple[np.ndarray, np.ndarray]:
    """The series P and Q of J1's Hankel expansion in z = 1/x^2 (DLMF 10.17.3):
    (-1)^k a_2k(1) and (-1)^k a_(2k+1)(1), a_k(1) = prod_(j<=k) (4 - (2j-1)^2) / (k! 8^k).
    Past 12 terms they are below 1e-19 at x = 25."""
    a = [1.0]
    for k in range(1, 2 * terms):
        a.append(a[-1] * (4.0 - (2 * k - 1) ** 2) / (8.0 * k))
    sign = (-1.0) ** np.arange(terms)
    return sign * np.array(a[0::2]), sign * np.array(a[1::2])


_J1_P, _J1_Q = _hankel_j1_coefficients(12)


def _miller_j1(x: np.ndarray) -> np.ndarray:
    """J1 on 2 <= x < 25 by Miller's backward recurrence (DLMF 3.6).

    J_(k-1) = (2k/x) J_k - J_(k+1) runs down from J_N = 1, J_(N+1) = 0, and
    the sum 1 = J0 + 2 sum_k J_2k (DLMF 10.12.4) normalises it.  The start
    order N is even and depends on the point alone: a point joins the
    recurrence, with exact zeros, at its own N, so its value does not depend
    on the other points of the batch.
    """
    start = 2.0 * np.floor((x + 6.0 * np.cbrt(x) + 20.0) / 2.0)
    two_over_x = 2.0 / x
    jk, jp = np.zeros_like(x), np.zeros_like(x)  # J_k and J_(k+1)
    even_sum, j1 = np.zeros_like(x), np.zeros_like(x)
    for k in range(int(start.max(initial=0.0)), 0, -1):
        jk += start == k
        jp *= -1.0
        jp += k * two_over_x * jk  # now J_(k-1)
        jk, jp = jp, jk
        if k == 2:
            j1 = jk.copy()
        elif k % 2 and k > 1:
            even_sum += jk
    return j1 / (jk + 2.0 * even_sum)


def _bessel_j1(x) -> np.ndarray:
    """The Bessel function J1 at x >= 0, pointwise.

    The Maclaurin series below 2, Miller's backward recurrence on [2, 25)
    (`_miller_j1`), and above that the Hankel expansion (DLMF 10.17.3),
    J1(x) = sqrt(2/(pi x)) (P cos(chi) - Q sin(chi)), chi = x - 3 pi/4, with chi's
    cosine and sine formed from those of x itself, so that no bit of x is
    lost to a reduced argument.  Within 4e-16 of mpmath on [0, 3000].
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    small, large = x < _J1_SERIES, x >= _J1_HANKEL
    mid = ~(small | large)
    xs = x[small]
    out[small] = 0.5 * xs * np.polynomial.polynomial.polyval(0.25 * xs * xs, _J1_MACLAURIN)
    xl = x[large]
    z = 1.0 / (xl * xl)
    p = np.polynomial.polynomial.polyval(z, _J1_P)
    q = np.polynomial.polynomial.polyval(z, _J1_Q) / xl
    s, c = np.sin(xl), np.cos(xl)
    # sqrt 2 cos(chi) = s - c and sqrt 2 sin(chi) = -(s + c)
    out[large] = np.sqrt(1.0 / (np.pi * xl)) * (p * (s - c) + q * (s + c))
    out[mid] = _miller_j1(x[mid])
    return out


def ball_average_profile(dim: int = 1) -> AveragingProfile:
    """Normalized indicator of the unit ball; unit mass, even, order < 2."""
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    cdf = None
    if dim == 1:
        def density(x):
            x = np.asarray(x, dtype=float)
            return np.where(np.abs(x) <= 1.0, 0.5, 0.0)

        radial_fourier = lambda r: np.sinc(2.0 * r)

        def radial_deficit(r):
            out = np.asarray(1.0 - np.sinc(2.0 * r))
            small = (r < _DEFICIT_SERIES) & (r > 0.0)  # 1 - sinc(0) is 0 exactly
            if small.any():  # skip the fixed cost of the series when no point needs it
                out[small] = _series_deficit((2.0 * np.pi * r[small]) ** 2, _SINC_DEFICIT)
            return out

        def cdf(x):
            return (np.clip(np.asarray(x, dtype=float), -1.0, 1.0) + 1.0) / 2.0

        def moment(gamma):
            (k,) = gamma
            return 0.0 if k % 2 else 1.0 / (k + 1.0)
    else:
        def density(x, y):
            r2 = np.asarray(x, dtype=float) ** 2 + np.asarray(y, dtype=float) ** 2
            return np.where(r2 <= 1.0, 1.0 / math.pi, 0.0)

        def radial_fourier(rho):
            out = np.ones(rho.shape)
            nz = rho > 1e-12
            out[nz] = _bessel_j1(2.0 * np.pi * rho[nz]) / (np.pi * rho[nz])
            return out

        def radial_deficit(rho):
            small = rho < _DEFICIT_SERIES
            out = np.empty(rho.shape)
            big = rho[~small]
            out[~small] = 1.0 - _bessel_j1(2.0 * np.pi * big) / (np.pi * big)
            out[small] = _series_deficit((np.pi * rho[small]) ** 2, _DISK_DEFICIT)
            return out

        moment = _disk_moment

    kern = Kernel(
        dim=dim,
        name="ball" if dim == 1 else f"ball:{dim}",
        spatial=density,
        fourier=_on_radius(radial_fourier),
        support_radius=1.0,
        cancellation_order=-1,
        fourier_tail_exponent=(dim + 1.0) / 2.0,
        radial=True,
        real=True,
        radial_fourier=radial_fourier,
    )
    return AveragingProfile(kern, _on_radius(radial_deficit), moment, cdf, radial_deficit)


def riesz_constant(alpha: float, dim: int) -> float:
    """Normalization of the kernel |x|^(alpha-dim) whose hat is (2 pi |xi|)^-alpha."""
    return math.gamma((dim - alpha) / 2.0) / (
        math.pi ** (dim / 2.0) * 2.0**alpha * math.gamma(alpha / 2.0)
    )


def _ball_run_weight(rho: np.ndarray, cum: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per point, the weight of the nodes i with |fl(x + rho_i)| <= 1; `cum`
    holds the rule's cumulative weights, 0 first.

    The nodes ascend, so fl(x + rho_i) does too, and those nodes are one run.
    np.searchsorted guesses each end from -1 - x and 1 - x; the guess is off
    by at most a node or so, where rounding decides, and is settled on the
    membership test itself, so ties fall as a node-by-node test puts them.
    """
    n = rho.size

    def settle(count, before):
        # count = the number of leading nodes i at which before(fl(x + rho_i)) holds
        while True:
            down = (count > 0) & ~before(x + rho[np.maximum(count - 1, 0)])
            up = (count < n) & before(x + rho[np.minimum(count, n - 1)])
            if not (down.any() or up.any()):
                return count
            count = count - down + up

    lo = settle(np.searchsorted(rho, -1.0 - x), lambda v: v < -1.0)
    hi = settle(np.searchsorted(rho, 1.0 - x, side="right"), lambda v: v <= 1.0)
    return cum[hi] - cum[lo]


def _smoothed_riesz_core(profile: AveragingProfile, alpha: float, coords):
    """(profile * riesz_core)(x) by polar quadrature around the singularity.

    A 160-node radial rule on [0, reach], reach = max|x| + 1.5 over the whole
    batch, so a point's value depends on the other points of its batch; in
    2-D each radial node averages 96 angles.  In 1-D the profile is the ball,
    whose density is 1/2 on [-1, 1]: the rule's sum
    sum_i W_i [d(x + rho_i) + d(x - rho_i)] is half the weight of the run of
    nodes with |x + rho_i| <= 1 plus half that of the run with
    |x - rho_i| <= 1, read from the rule's cumulative weights
    (`_ball_run_weight`); the second run is the first at -x, since
    fl(-x + rho) = -fl(x - rho).  The points are walked in `_point_blocks`, so the
    temporaries, a few of one value per point in 1-D and (96, block) per
    radial node in 2-D, stay within `grid._CHUNK_BYTES` whatever the batch
    size, and every point's value is the same bits at any block width.
    """
    dim = profile.dim
    tau = riesz_constant(alpha, dim)
    pts = [np.asarray(c, dtype=float) for c in coords]
    shape = np.broadcast_shapes(*(p.shape for p in pts))
    pts = [np.broadcast_to(p, shape).ravel() for p in pts]
    reach = float(np.max(np.sqrt(sum(p**2 for p in pts)))) + 1.5
    n_rad = 160
    s, w = _jacobi_rule(n_rad, start=alpha - 1.0)
    rho = reach * s
    w_rad = reach**alpha * w  # absorbs rho^(alpha-1) d rho
    out = np.zeros(pts[0].shape)
    if dim == 1:
        cum = np.concatenate(([0.0], np.cumsum(w_rad)))
        x = pts[0]
        for block in _point_blocks(out.size, 8):  # about 8 arrays of one value a point at once
            out[block] = _ball_run_weight(rho, cum, x[block]) + _ball_run_weight(rho, cum, -x[block])
        out *= tau * 0.5
    else:
        n_ang = 96
        theta = (np.arange(n_ang) + 0.5) * (2.0 * np.pi / n_ang)
        ct, st = np.cos(theta), np.sin(theta)
        x, y = pts
        for block in _point_blocks(out.size, n_ang):
            acc, xb, yb = out[block], x[None, block], y[None, block]
            for i in range(n_rad):
                px = xb + rho[i] * ct[:, None]
                py = yb + rho[i] * st[:, None]
                acc += w_rad[i] * profile.kernel.spatial(px, py).mean(axis=0)
        out *= tau * 2.0 * np.pi
    return out.reshape(shape)


def riesz_difference_kernel(alpha: float, profile: AveragingProfile) -> Kernel:
    """Difference of the fractional kernel and its profile average.

    hat(xi) = (2 pi |xi|)^(-alpha) (1 - profilehat(xi)), which vanishes at
    the origin like |xi|^(floor(alpha)+1-alpha) and decays like |xi|^-alpha.
    Requires 0 < alpha < dim and a radial profile (`radial_deficit`) in the
    order-alpha moment class, in 1-D the ball (`_smoothed_riesz_core`).  The spatial evaluator is a
    quadrature diagnostic; the Fourier side is authoritative.
    """
    dim = profile.dim
    if not (0.0 < alpha < dim):
        raise ValueError(f"need 0 < alpha < dim = {dim}, got alpha = {alpha}")
    if dim == 1 and profile.name != "ball":
        raise ValueError(
            f"riesz_difference_kernel: the 1-D spatial side sums the ball's density; "
            f"profile '{profile.name}' is not the ball"
        )
    _require_moment_class(profile, alpha, "riesz_difference_kernel")
    tau = riesz_constant(alpha, dim)
    deficit = profile.radial_deficit

    def radial_fourier(rho):
        gap = deficit(rho)
        out = np.zeros(rho.shape)
        nz = rho > 1e-300
        out[nz] = (2.0 * np.pi * rho[nz]) ** (-alpha) * gap[nz]
        return out

    def spatial(*coords):
        r = np.sqrt(sum(np.asarray(c, dtype=float) ** 2 for c in coords))
        # the value is formed in one array of the batch: large batches set the peak memory
        core = np.where(r > 0, r, np.nan)
        del r
        with np.errstate(divide="ignore"):
            core **= alpha - dim
        core *= tau
        core -= _smoothed_riesz_core(profile, alpha, coords)
        return core[()]  # a scalar for scalar coordinates

    frac = math.floor(alpha) + 1.0 - alpha
    return Kernel(
        dim=dim,
        name=f"riesz-diff:{alpha:g}:{profile.name}",
        spatial=spatial,
        fourier=_on_radius(radial_fourier),
        support_radius=math.inf,
        cancellation_order=0,
        spatial_tail_exponent=dim + math.floor(alpha) + 1.0 - alpha,
        fourier_tail_exponent=alpha,
        fourier_origin_exponent=frac,
        origin_singularity=dim - alpha,
        radial=True,
        real=True,
        radial_fourier=radial_fourier,
    )


def sgn_difference_kernel(profile: AveragingProfile) -> Kernel:
    """sgn - sgn * profile in one dimension; hat is -i (1 - profilehat)/(pi xi).

    Requires a profile in the order-1 moment class (unit mass, vanishing
    first moment), which makes the hat O(|xi|) at the origin, and with a
    closed-form cdf: (sgn * profile)(x) = 2 cdf(x) - 1, so the spatial side
    is sgn(x) - (2 cdf(x) - 1) exactly.  The profile must be even (radial),
    which makes the kernel odd; the spatial side is evaluated on |x| and
    given the sign of x, and the hat divides the even deficit by xi, so the
    `odd` tag holds bit for bit.
    """
    if profile.dim != 1:
        raise ValueError("sgn_difference_kernel is one-dimensional")
    if profile.cdf is None:
        raise ValueError(f"sgn_difference_kernel: profile '{profile.name}' has no cdf")
    if not profile.kernel.radial:
        raise ValueError(f"sgn_difference_kernel: profile '{profile.name}' is not even")
    _require_moment_class(profile, 1.0, "sgn_difference_kernel")
    deficit = profile.deficit
    cdf = profile.cdf

    def fourier(xi):
        xi = np.asarray(xi, dtype=float)
        gap = deficit(xi)
        out = np.zeros(xi.shape, dtype=complex)
        nz = np.abs(xi) > 1e-300
        out[nz] = -1j * gap[nz] / (np.pi * xi[nz])
        return out

    def spatial(x):
        x = np.asarray(x, dtype=float)
        return np.sign(x) * (1.0 - (2.0 * cdf(np.abs(x)) - 1.0))

    return Kernel(
        dim=1,
        name=f"sgn-diff:{profile.name}",
        spatial=spatial,
        fourier=fourier,
        support_radius=profile.kernel.support_radius,
        cancellation_order=0,
        fourier_tail_exponent=1.0,
        fourier_origin_exponent=1.0,
        odd=True,
    )


def band_indicator_kernel(lo: float, hi: float) -> Kernel:
    """Fourier-side surrogate with hat = indicator of lo <= |xi| <= hi.

    A diagnostic counterexample: its dyadic dilates miss frequencies when
    hi/lo < 2, so the non-degeneracy gate must reject it.  No spatial
    evaluator is provided.
    """
    if not (0 < lo < hi):
        raise ValueError(f"need 0 < lo < hi, got ({lo}, {hi})")

    def fourier(xi):
        a = np.abs(np.asarray(xi, dtype=float))
        return ((a >= lo) & (a <= hi)).astype(float)

    return Kernel(
        dim=1,
        name=f"band:{lo:g}:{hi:g}",
        spatial=None,
        fourier=fourier,
        support_radius=math.inf,
        cancellation_order=0,
        real=True,
    )


# ---------------------------------------------------------------------------
# registry

def profile_from_id(pid: str, dim: int = 1) -> AveragingProfile:
    if pid == "ball":
        return ball_average_profile(dim)
    raise ValueError(f"unknown averaging profile id '{pid}' (known: ball)")


def kernel_from_id(kid: str) -> Kernel:
    """Build a kernel from a registry id.

    Forms: "haar", "gm:ALPHA", "poisson-q[:DIM]", "riesz-diff:ALPHA:PROFILE[:DIM]",
    "sgn-diff:PROFILE", "band:LO:HI".
    """
    parts = kid.split(":")
    head, rest = parts[0], parts[1:]

    def num(token: str, cast):
        try:
            return cast(token)
        except ValueError:
            raise ValueError(f"malformed kernel id '{kid}': bad component '{token}'") from None

    if head == "haar" and not rest:
        return haar_kernel()
    if head == "gm" and len(rest) == 1:
        return marcinkiewicz_kernel(num(rest[0], float))
    if head == "poisson-q" and len(rest) <= 1:
        return poisson_derivative_kernel(num(rest[0], int) if rest else 1)
    if head == "riesz-diff" and len(rest) in (2, 3):
        dim = num(rest[2], int) if len(rest) == 3 else 1
        return riesz_difference_kernel(num(rest[0], float), profile_from_id(rest[1], dim))
    if head == "sgn-diff" and len(rest) == 1:
        return sgn_difference_kernel(profile_from_id(rest[0], 1))
    if head == "band" and len(rest) == 2:
        return band_indicator_kernel(num(rest[0], float), num(rest[1], float))
    raise ValueError(
        f"unknown kernel id '{kid}' (forms: haar, gm:A, poisson-q[:D], "
        f"riesz-diff:A:PROFILE[:D], sgn-diff:PROFILE, band:LO:HI)"
    )
