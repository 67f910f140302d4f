"""Complex eigenvalues by the method of normal fundamental systems.

A time-harmonic solution u(x) e^{s tau}, s = q + i*omega, turns the damped
wave equation into the complex first-order system

    (u, u')' = A (u, u'),   A = [[0, 1], [K, 0]],   K = s^2 / (1 + eps1*s),

whose coefficients do not depend on x, with A^2 = K*I.  One classical RK4
step of length h is therefore exactly (1 + e)*I + b*A with z = h^2*K,
e = z/2 + z^2/24 and b = h*(1 + z/6); products and powers of such matrices
keep that form, so the fundamental matrix Gamma(x) (the Cauchy problems
whose initial states form the identity) is the pair (e, b) raised to the
step count by binary powering on complex scalars.  The clamped end leaves
only the solution with initial state (u, u') = (0, 1), and the end-mass
boundary condition applied to it is the single complex row
f = (D1 - i*D2)*u(1) + (D3 - i*D4)*u'(1); the characteristic determinant
Delta(omega, q) = |f|^2 vanishes exactly at eigenvalues.  The residual f of
the discretised system is analytic in s (the propagator is a polynomial in
K and D1..D4 are polynomials in s), so eigenvalues are located as its zeros
by a complex secant iteration (Muller's method without the quadratic term)
started at a seed; the normalized Delta then certifies the answer.

:func:`integrate_fundamental` returns the realified 4x4 view of the
propagator, acting on the real state (g1, g2, g3, g4) = (u1, u2, u1', u2')
with u = u1 + i*u2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from . import asymptotic, conservative
from .params import DimensionlessParams

if TYPE_CHECKING:
    import numpy as np

DEFAULT_STEP = 1.0 / 2000.0
DEFAULT_SUBINTERVALS = 8
OVERFLOW_LIMIT = 1e150
CONVERGED_TOL = 1e-12         # normalized determinant of a converged search
BAND_HALFWIDTH = math.pi / 2  # mode-hop guard around the seed omega

_DENOM_FLOOR = 1e-30   # rhs-coefficient denominator guard
_NORM_FLOOR = 1e-300   # keeps the normalized determinant total
_RANK_TOL = 1e-8       # normalized-determinant level accepted as "singular"
_SECANT_OFFSET = (1 + 1j) * 1e-3  # second secant point relative to the seed
_SECANT_RTOL = 1e-15   # stop once a secant step is this small relative to |s|


@dataclass(frozen=True)
class BoundaryCoefficients:
    """End-mass boundary polynomials D1..D4 evaluated at (q, omega)."""

    D1: float
    D2: float
    D3: float
    D4: float


@dataclass(frozen=True)
class SpectralPoint:
    """A point s = q + i*omega: the seed or the result of a search.

    A result carries the normalized determinant at s, whether the search
    converged, and ``slope``: df/ds of the boundary residual from the last
    secant quotient of the search (None when it formed none).  A seed with
    a finite, non-zero slope starts its search with a Newton step, so a
    result can seed the next search directly.  The slope takes no part in
    equality or repr.
    """

    q: float
    omega: float
    delta_value: float = math.nan
    converged: bool = False
    slope: complex | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ModeShape:
    grid: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    C3: float
    C4: float


@dataclass(frozen=True)
class SweepRow:
    nu: float
    mode: int
    q: float
    omega: float
    delta_value: float
    converged: bool


@dataclass(frozen=True)
class SolveOptions:
    """Controls for the secant eigenvalue search."""

    step: float = DEFAULT_STEP
    subintervals: int = DEFAULT_SUBINTERVALS
    max_iterations: int = 500         # secant steps


def rhs_coefficients(q: float, omega: float, eps1: float) -> tuple[float, float]:
    """(K1, K2) of the normal system; K1 + i*K2 = s^2/(1 + eps1*s).

    Raises ValueError for a non-finite q or omega and ZeroDivisionError when
    eps1^2 omega^2 + (1 + eps1 q)^2 degenerates.
    """
    if not (math.isfinite(q) and math.isfinite(omega)):
        raise ValueError(f"non-finite spectral point q={q}, omega={omega}")
    den = eps1 * eps1 * omega * omega + (1.0 + eps1 * q) ** 2
    if den <= _DENOM_FLOOR:
        raise ZeroDivisionError("degenerate rhs denominator: 1 + eps1*s ~ 0")
    K1 = (q * q - omega * omega + eps1 * q * (q * q + omega * omega)) / den
    K2 = (2.0 * q + eps1 * (q * q + omega * omega)) * omega / den
    return K1, K2


def boundary_coefficients(q: float, omega: float,
                          dp: DimensionlessParams) -> BoundaryCoefficients:
    """The four end-mass boundary polynomials in (q, omega) and the parameters.

    They are the real/imaginary parts of the complex boundary polynomials:
    D1 + i*D2 ~ coefficient of u(1), D3 + i*D4 ~ coefficient of u'(1)
    (conjugated), which tests verify independently.
    """
    eps1, mu, nu, eta, delta = dp.eps1, dp.mu, dp.nu, dp.eta, dp.delta
    q2, w2 = q * q, omega * omega
    D1 = eta * (q2 - w2) + eta * delta * q * q2 * (nu + mu) \
        - 3.0 * eta * delta * q * w2 * (nu + mu)
    D2 = -3.0 * eta * delta * q2 * omega * (nu + mu) \
        + eta * omega * (mu * delta * w2 - 2.0 * q + nu * delta * w2)
    D3 = delta * (q2 - w2) * (eps1 * mu + eta) \
        + eps1 * eta * delta * q * (q2 - 3.0 * w2) \
        + q * (mu * delta + eps1) + 1.0
    D4 = -omega * (eps1 + mu * delta) \
        + eps1 * eta * delta * omega * (w2 - 3.0 * q2) \
        - 2.0 * delta * q * omega * (eta + eps1 * mu)
    return BoundaryCoefficients(D1=D1, D2=D2, D3=D3, D4=D4)


# A propagator (1 + e)*I + b*A of the complex system, stored as (e, b).
Pair = tuple[complex, complex]

_IDENTITY: Pair = (0j, 0j)


def _rk4_pair(K: complex, h: float) -> Pair:
    # One classical Runge-Kutta step for y' = A y is exactly multiplication
    # by the degree-4 Taylor polynomial of exp(hA); A^2 = K*I folds it into
    # (1 + z/2 + z^2/24)*I + h*(1 + z/6)*A with z = h^2*K.
    z = h * h * K
    return z * (0.5 + z / 24.0), h * (1.0 + z / 6.0)


def _compose(left: Pair, right: Pair, K: complex) -> Pair:
    # Product of two propagators; the offset e is carried instead of
    # a = 1 + e so that its small part is never rounded against 1.
    e, b = left
    f, d = right
    return e + f + e * f + b * d * K, b * (1.0 + f) + d * (1.0 + e)


def _power(pair: Pair, n: int, K: complex) -> Pair:
    # Binary powering with _compose written out: the lowest set bit takes
    # the current square as the result instead of multiplying it into the
    # identity, and the square of (e, b) is (e*(2 + e) + b^2*K, 2*b*(1 + e)).
    if not n:
        return _IDENTITY
    e, b = pair
    while not n & 1:
        e, b = e * (2.0 + e) + b * b * K, 2.0 * b * (1.0 + e)
        n >>= 1
    re, rb = e, b
    n >>= 1
    while n:
        e, b = e * (2.0 + e) + b * b * K, 2.0 * b * (1.0 + e)
        if n & 1:
            re, rb = (re + e + re * e + rb * b * K,
                      rb * (1.0 + e) + b * (1.0 + re))
        n >>= 1
    return re, rb


def _check_overflow(pair: Pair, K: complex) -> None:
    # The realified 4x4 matrix has the real and imaginary parts of a, b and
    # b*K as its entries; NaN fails the comparison too.
    e, b = pair
    for c in (1.0 + e, b, b * K):
        if not (abs(c.real) <= OVERFLOW_LIMIT and abs(c.imag) <= OVERFLOW_LIMIT):
            raise OverflowError(
                "fundamental matrix entry exceeded 1e150; subdivide the interval")


def _interval_pair(K: complex, length: float, step: float) -> Pair:
    """Propagator over one interval: full steps, then one shortened step
    landing exactly on its end.  Overflow-checked."""
    if not step > 0:
        raise ValueError("step must be positive")
    nfull = int(math.floor(length / step + 1e-9))
    remainder = length - nfull * step
    pair = _power(_rk4_pair(K, step), nfull, K)
    if remainder > 1e-14:
        pair = _compose(_rk4_pair(K, remainder), pair, K)
    _check_overflow(pair, K)
    return pair


def integrate_fundamental(q: float, omega: float, dp: DimensionlessParams,
                          x_start: float = 0.0, x_end: float = 1.0,
                          step: float = DEFAULT_STEP) -> np.ndarray:
    """Fundamental matrix at x_end for identity initial data at x_start.

    Fixed-step classical fourth-order integration; the last step is
    shortened to land exactly on x_end.  The result is the real 4x4 form of
    the complex propagator [[a, b], [b*K, a]].  Raises OverflowError when
    any entry exceeds 1e150 (the caller should subdivide), ValueError on a
    reversed interval or non-positive step.
    """
    import numpy as np

    if x_end < x_start:
        raise ValueError("x_end must not precede x_start")
    if not step > 0:
        raise ValueError("step must be positive")
    length = x_end - x_start
    if length == 0.0:
        return np.eye(4)

    K = complex(*rhs_coefficients(q, omega, dp.eps1))
    e, b = _interval_pair(K, length, step)
    a, bK = 1.0 + e, b * K
    return np.array([
        [a.real, -a.imag, b.real, -b.imag],
        [a.imag, a.real, b.imag, b.real],
        [bK.real, -bK.imag, a.real, -a.imag],
        [bK.imag, bK.real, a.imag, a.real],
    ])


def _end_propagator(q: float, omega: float, dp: DimensionlessParams,
                    n: int, step: float) -> Pair:
    """Overflow-checked propagator of [0, 1] as the n-th power of one
    1/n-subinterval propagator (see :func:`delta_subdivided`)."""
    if n < 1:
        raise ValueError("subinterval count must be at least 1")
    K = complex(*rhs_coefficients(q, omega, dp.eps1))
    gamma_end = _power(_interval_pair(K, 1.0 / n, step), n, K)
    _check_overflow(gamma_end, K)
    return gamma_end


def _boundary_residual(gamma_end: Pair, q: float, omega: float,
                       dp: DimensionlessParams) -> tuple[complex, float]:
    """End-mass residual f and its bound from the propagator of [0, 1].

    Solution 3 (initial state u = 0, u' = 1) ends at (u, u') = (b, a).  The
    end-mass condition is the single complex row f = P*u + Q*u' with
    P = D1 - i*D2 and Q = D3 - i*D4, and the raw 2x2 real determinant is
    Delta = |f|^2 >= 0.  Cauchy-Schwarz bounds |f| by
    ||(P, Q)|| * ||(u, u')||, the second value returned.
    """
    e, b = gamma_end
    u, du = b, 1.0 + e
    bc = boundary_coefficients(q, omega, dp)
    P = complex(bc.D1, -bc.D2)
    Q = complex(bc.D3, -bc.D4)
    return (P * u + Q * du,
            math.hypot(abs(P), abs(Q)) * math.hypot(abs(u), abs(du)))


def _normalized(f: complex, scale: float) -> float:
    """Delta-hat from a residual and its bound: Delta divided by the square
    of the Cauchy-Schwarz bound of |f|, a scale-free value in [0, 1] with
    the same zeros as Delta, O(1) away from the spectrum and at roundoff
    level on it.  The floor keeps it total."""
    r = f / max(scale, _NORM_FLOOR)
    return r.real * r.real + r.imag * r.imag


def _normalized_determinant(gamma_end: Pair, q: float, omega: float,
                            dp: DimensionlessParams) -> float:
    return _normalized(*_boundary_residual(gamma_end, q, omega, dp))


def delta(q: float, omega: float, dp: DimensionlessParams,
          step: float = DEFAULT_STEP) -> float:
    """Normalized characteristic determinant from a single-interval
    integration of [0, 1]; non-negative, zero exactly at eigenvalues."""
    return delta_subdivided(q, omega, dp, 1, step)


def delta_subdivided(q: float, omega: float, dp: DimensionlessParams,
                     n: int = DEFAULT_SUBINTERVALS,
                     step: float = DEFAULT_STEP) -> float:
    """Normalized determinant with [0, 1] split into n equal subintervals.

    Each subinterval gets a fresh fundamental matrix from identity initial
    data; matching values and derivatives at the junctions is exactly
    multiplication of the per-subinterval matrices.  The coefficients do not
    depend on x, so all n are the same matrix and the product is its n-th
    power.  Both the subinterval propagator and the composed product are
    overflow-checked (OverflowError).  n = 1 is :func:`delta`.
    """
    gamma_end = _end_propagator(q, omega, dp, n, step)
    return _normalized_determinant(gamma_end, q, omega, dp)


def find_eigenvalue(dp: DimensionlessParams, seed: SpectralPoint,
                    options: SolveOptions | None = None) -> SpectralPoint:
    """Locate an eigenvalue near the seed as a zero of the boundary residual.

    The residual f(s) = P*u(1) + Q*u'(1) of the discretised fundamental
    system (the propagator :func:`delta_subdivided` uses) is analytic in
    s = q + i*omega, so a complex secant iteration converges superlinearly
    to its zeros, which are the zeros of the normalized determinant.  Its
    first iterate is the Newton step s0 - f(s0)/slope when the seed carries
    a finite, non-zero slope, and s0 + (1 + i)*1e-3 otherwise.  It stops
    when a step is below 1e-15*|s|, when f or its difference vanishes, or
    after ``max_iterations`` steps.  An iterate that is not finite, has
    omega <= 0 or leaves the seed's band (half-width ``BAND_HALFWIDTH``,
    which prevents mode hopping) ends the search, as does an overflow or a
    degenerate rhs denominator.

    The result is the last iterate whose residual was evaluated, with the
    normalized determinant of that evaluation as delta_value (NaN when even
    the seed cannot be evaluated) and the last secant quotient df/ds as
    slope; converged means the iteration settled and delta_value is below
    ``CONVERGED_TOL``.  Raises ValueError for a non-finite seed; otherwise
    never raises: a failed search comes back with converged=False.
    """
    opts = options or SolveOptions()
    if not (math.isfinite(seed.q) and math.isfinite(seed.omega)):
        raise ValueError(f"non-finite seed q={seed.q}, omega={seed.omega}")

    def residual(s: complex) -> tuple[complex, float]:
        gamma_end = _end_propagator(s.real, s.imag, dp, opts.subintervals,
                                    opts.step)
        return _boundary_residual(gamma_end, s.real, s.imag, dp)

    def admissible(s: complex) -> bool:
        return (cmath.isfinite(s) and s.imag > 0.0
                and abs(s.imag - seed.omega) < BAND_HALFWIDTH)

    s0 = complex(seed.q, seed.omega)
    last, value, slope, settled = s0, math.nan, None, False
    try:
        f0, scale = residual(s0)
        value = _normalized(f0, scale)
        s1 = s0 + _SECANT_OFFSET
        if seed.slope:  # neither None nor 0
            # A NaN or infinite slope gives a NaN or zero step: no Newton.
            newton = s0 - f0 / seed.slope
            if newton != s0 and cmath.isfinite(newton):
                s1 = newton
        for _ in range(opts.max_iterations):
            if not admissible(s1):
                break
            f1, scale = residual(s1)
            last, value = s1, _normalized(f1, scale)
            df = f1 - f0
            if f1 == 0 or df == 0:
                settled = True
                break
            slope = df / (s1 - s0)
            ds = f1 * (s1 - s0) / df
            s0, f0, s1 = s1, f1, s1 - ds
            if abs(ds) <= _SECANT_RTOL * abs(s1):
                settled = True
                break
    except (OverflowError, ZeroDivisionError):
        pass
    return SpectralPoint(q=last.real, omega=last.imag, delta_value=value,
                         converged=settled and value < CONVERGED_TOL,
                         slope=slope)


def mode_shape(point: SpectralPoint, dp: DimensionlessParams,
               resolution: int = 201, step: float = DEFAULT_STEP) -> ModeShape:
    """Displacement profile (u1, u2) of a converged eigenvalue on a grid.

    The profile is C * u(x) with u the displacement of solution 3 and
    C = C3 + i*C4 a null direction of the 2x2 boundary system.  That system
    is a scaled rotation, so C is only defined up to a complex factor; the
    shape is therefore rotated to make its largest-magnitude sample real and
    positive (rendering the conservative limit purely real) and scaled to
    unit peak amplitude, which fixes C = 1/u(x_peak).

    Raises ValueError for an unconverged point and numpy.linalg.LinAlgError
    when the boundary system is numerically full-rank (the point is not an
    eigenvalue).
    """
    import numpy as np

    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if not point.converged:
        raise ValueError("mode_shape needs a converged SpectralPoint")

    grid = np.linspace(0.0, 1.0, resolution)
    K = complex(*rhs_coefficients(point.q, point.omega, dp.eps1))
    interval = _interval_pair(K, 1.0 / (resolution - 1), step)
    gamma = _IDENTITY
    profile = [0j]  # u of solution 3 at each grid point
    for _ in range(resolution - 1):
        gamma = _compose(interval, gamma, K)
        profile.append(gamma[1])
    _check_overflow(gamma, K)

    dhat = _normalized_determinant(gamma, point.q, point.omega, dp)
    if dhat >= _RANK_TOL:
        raise np.linalg.LinAlgError(
            f"boundary system is full rank (normalized determinant {dhat:.3e}); "
            "the point is not an eigenvalue")

    profile = np.array(profile)
    peak = int(np.argmax(np.abs(profile)))
    c_final = 1.0 / profile[peak]
    profile = profile / profile[peak]
    return ModeShape(grid=grid, u1=profile.real, u2=profile.imag,
                     C3=c_final.real, C4=c_final.imag)


def sweep_feedback(dp: DimensionlessParams, nu_values, modes=(1, 2),
                   omega_max: float = 20.0,
                   options: SolveOptions | None = None) -> list[SweepRow]:
    """Track eigenvalues of the requested modes across an ascending nu grid.

    dp.nu is ignored; each grid value replaces it.  Mode k starts from the
    k-th undamped frequency with the closed-form growth-rate estimate.  A
    grid point whose two predecessors converged (at distinct nu) is seeded
    by predictor-corrector continuation: the linear extrapolation in nu of
    those two eigenvalues, carrying the slope df/ds of the nearer one, so
    that :func:`find_eigenvalue` starts with a Newton step.  Any other later
    point is seeded from its predecessor's eigenvalue (warm start).
    Unconverged points are flagged in their rows, never dropped.  Rows come
    back ordered by (nu, mode).
    """
    nu_values = [float(v) for v in nu_values]
    if sorted(nu_values) != nu_values:
        raise ValueError("nu grid must be ascending")
    if not nu_values:
        return []
    opts = options or SolveOptions()

    roots = conservative.find_roots(dp, omega_max, max_count=max(modes))
    if len(roots) < max(modes):
        raise ValueError(
            f"only {len(roots)} undamped frequencies below omega_max={omega_max:g}; "
            f"mode {max(modes)} requested")

    rows = []
    for mode in modes:
        w0 = roots[mode - 1].omega
        first = replace(dp, nu=nu_values[0])
        seed = SpectralPoint(q=asymptotic.corrected_eigenvalue(w0, first).q,
                             omega=w0)
        converged = []  # (nu, point) of up to two rows since the last failure
        for nu in nu_values:
            if len(converged) == 2 and converged[0][0] < converged[1][0]:
                (nu_a, a), (nu_b, b) = converged
                s_a, s_b = complex(a.q, a.omega), complex(b.q, b.omega)
                s = s_b + (s_b - s_a) * ((nu - nu_b) / (nu_b - nu_a))
                seed = SpectralPoint(q=s.real, omega=s.imag, slope=b.slope)
            point = find_eigenvalue(replace(dp, nu=nu), seed, opts)
            rows.append(SweepRow(nu=nu, mode=mode, q=point.q,
                                 omega=point.omega,
                                 delta_value=point.delta_value,
                                 converged=point.converged))
            seed = SpectralPoint(q=point.q, omega=point.omega)
            converged = converged[-1:] + [(nu, point)] if point.converged else []
    rows.sort(key=lambda r: (r.nu, r.mode))
    return rows
