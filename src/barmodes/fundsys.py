"""Complex eigenvalues by the method of normal fundamental systems.

A time-harmonic solution u(x) e^{s tau}, s = q + i*omega, turns the damped
wave equation into the complex first-order system

    (u, u')' = A (u, u'),   A = [[0, 1], [K, 0]],   K = s^2 / (1 + eps1*s),

whose coefficients do not depend on x, with A^2 = K*I.  One classical RK4
step of length h is therefore exactly (1 + e)*I + b*A with z = h^2*K,
e = z/2 + z^2/24 and b = h*(1 + z/6).  Its eigenvalues on the eigenvectors
of A are 1 + e +- b*sqrt(K), so it equals exp(l*I + t*A/sqrt(K)) with
l +- t = log1p(e +- b*sqrt(K)).  All such exponentials commute: the
exponents of the steps add, and the n equal subintervals multiply their
sum by n.  The fundamental matrix Gamma(x) (the Cauchy problems whose
initial states form the identity) is therefore exp(L)*(cosh(T)*I +
sinh(T)*A/sqrt(K)) in closed form, a handful of complex function calls
whatever the step count.  The clamped end leaves only the solution with
initial state (u, u') = (0, 1), which ends at u(1) = exp(L)*sinh(T)/sqrt(K)
and u'(1) = exp(L)*cosh(T), and the end-mass boundary condition applied to
it is the single complex row f = (D1 - i*D2)*u(1) + (D3 - i*D4)*u'(1); the
characteristic determinant Delta(omega, q) = |f|^2 vanishes exactly at
eigenvalues.  The residual f of the discretised system is analytic in s
(the propagator is a polynomial in K and D1..D4 are polynomials in s), so
eigenvalues are located as its zeros by Newton's method from a seed, with
the slope of the continuous system; the normalized Delta then certifies
the answer.

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
STABILITY_EDGE = 2.0 * math.sqrt(2.0)  # largest h*omega with |RK4 step| <= 1
MAX_ITERATIONS = 500          # residual evaluations (Newton steps) per search

_DENOM_FLOOR = 1e-30   # rhs-coefficient denominator guard
_NORM_FLOOR = 1e-300   # keeps the normalized determinant total
_RANK_TOL = 1e-8       # normalized-determinant level accepted as "singular"
_NEWTON_RTOL = 1e-15   # stop once a Newton step is this small relative to |s|


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
    converged, and ``slope``: df/ds of the boundary residual at s (None
    when the search evaluated nothing).  A search does not read the slope
    of its seed.  The slope takes no part in equality or repr.
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
    """Discretisation of the fundamental system that the Newton eigenvalue
    search uses: the RK4 step and the number of equal subintervals."""

    step: float = DEFAULT_STEP
    subintervals: int = DEFAULT_SUBINTERVALS


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


# A propagator exp(L*I + T*A/r) = a*I + b*A of the complex system, r^2 = K,
# stored by its exponents (L, T); propagators commute, so composing them
# adds their exponents and the n-th power multiplies them by n.
Exponents = tuple[complex, complex]


def _log1p(z: complex) -> complex:
    # log(1 + z) without rounding 1 + z, whose small part carries a whole
    # RK4 step; cmath has no log1p.  A zero 1 + z is a singular step.
    x, y = z.real, z.imag
    m = x * (2.0 + x) + y * y   # |1 + z|^2 - 1
    if m <= -1.0:
        raise ZeroDivisionError("singular RK4 step: its propagator has a zero "
                                "eigenvalue")
    return complex(0.5 * math.log1p(m), math.atan2(y, 1.0 + x))


def _step_exponents(r: complex, h: float) -> Exponents:
    # One classical Runge-Kutta step for y' = A y is exactly multiplication
    # by the degree-4 Taylor polynomial of exp(hA); A^2 = K*I folds it into
    # (1 + e)*I + b*A with z = h^2*K, e = z/2 + z^2/24 and b = h*(1 + z/6).
    # Its eigenvalues on the eigenvectors of A are 1 + e +- b*r, so it is
    # exp(l*I + t*A/r) with l +- t = log1p(e +- b*r).  Any branch of the
    # logarithm or of r gives the same propagator, because the exponents
    # are only ever used times an integer step count.
    w = h * r
    z = w * w
    e, bw = z * (0.5 + z / 24.0), w * (1.0 + z / 6.0)
    plus, minus = _log1p(e + bw), _log1p(e - bw)
    return 0.5 * (plus + minus), 0.5 * (plus - minus)


def _layout(length: float, step: float) -> tuple[int, float]:
    """Steps over an interval: nfull full steps, then one shortened step of
    the remainder (0.0 if none) landing exactly on its end.  Raises
    ValueError for a step that is not positive, or so small (subnormal)
    that length/step, the step count, is not finite."""
    if not step > 0:
        raise ValueError("step must be positive")
    steps = length / step
    if not math.isfinite(steps):
        raise ValueError(f"step {step!r} is too small: length/step overflows")
    nfull = int(math.floor(steps + 1e-9))
    remainder = length - nfull * step
    return nfull, remainder if remainder > 1e-14 else 0.0


def _point_exponents(q: float, omega: float, eps1: float, step: float,
                     layout: tuple[int, float]) -> tuple[complex, ...]:
    """(K, r, L, T) at s = q + i*omega: K = s^2/(1 + eps1*s), r = sqrt(K)
    and the exponents of the propagator over an interval whose steps
    _layout gave as layout.  Raises as rhs_coefficients and _log1p do."""
    K = complex(*rhs_coefficients(q, omega, eps1))
    r = cmath.sqrt(K)
    nfull, remainder = layout
    l, t = _step_exponents(r, step)
    L, T = nfull * l, nfull * t
    if remainder:
        l, t = _step_exponents(r, remainder)
        L, T = L + l, T + t
    return K, r, L, T


def _propagator(K: complex, r: complex, L: complex, T: complex,
                length: float) -> tuple[complex, complex]:
    """(a, b) of the propagator exp(L*I + T*A/r) = a*I + b*A over an
    interval of the given length; at K = 0 it is I + length*A.  Raises
    OverflowError when an entry of its realified 4x4 matrix (the real and
    imaginary parts of a, b and b*K) exceeds 1e150 or is not finite."""
    g = cmath.exp(L)
    a = g * cmath.cosh(T)
    b = g * cmath.sinh(T) / r if r else complex(length)
    for c in (a, b, b * K):
        if not (abs(c.real) <= OVERFLOW_LIMIT and abs(c.imag) <= OVERFLOW_LIMIT):
            raise OverflowError(
                "fundamental matrix entry exceeded 1e150; subdivide the interval")
    return a, b


def integrate_fundamental(q: float, omega: float, dp: DimensionlessParams,
                          x_start: float = 0.0, x_end: float = 1.0,
                          step: float = DEFAULT_STEP) -> np.ndarray:
    """Fundamental matrix at x_end for identity initial data at x_start.

    Fixed-step classical fourth-order integration in closed form; the last
    step is shortened to land exactly on x_end.  The result is the real 4x4
    form of the complex propagator [[a, b], [b*K, a]] (the identity on an
    empty interval).  Raises OverflowError when any entry exceeds 1e150
    (the caller should subdivide), ValueError on a reversed interval and a
    step that :func:`_layout` rejects, even on an empty interval.
    """
    import numpy as np

    if x_end < x_start:
        raise ValueError("x_end must not precede x_start")
    length = x_end - x_start
    layout = _layout(length, step)
    if length == 0.0:
        return np.eye(4)

    K, r, L, T = _point_exponents(q, omega, dp.eps1, step, layout)
    a, b = _propagator(K, r, L, T, length)
    bK = b * K
    return np.array([
        [a.real, -a.imag, b.real, -b.imag],
        [a.imag, a.real, b.imag, b.real],
        [bK.real, -bK.imag, a.real, -a.imag],
        [bK.imag, bK.real, a.imag, a.real],
    ])


def _residual_fn(dp: DimensionlessParams, n: int, step: float):
    """(s, nu) -> (f, scale, f') of the end-mass residual of the discretised
    system, with nu defaulting to dp.nu.

    Built once per search, or once per :func:`sweep_feedback` call, it
    validates n and step, lays out the steps of a 1/n-subinterval and takes
    the coefficients of P(s) = D1 - i*D2 = eta*s^2*(1 + delta*(nu + mu)*s)
    and Q(s) = D3 - i*D4 = 1 + a1*s + a2*s^2 + a3*s^3.  Only the s^3
    coefficient p3 = eta*delta*(nu + mu) of P depends on nu, and it is
    formed at each evaluation, so one kernel serves every nu: its value at
    nu is bit for bit the value of the kernel built for replace(dp, nu=nu).
    f = P*u(1) + Q*u'(1) is the end-mass row on solution 3 (u = 0, u' = 1
    at x = 0), whose end state is the column (b, a) of the n-th power of
    the subinterval propagator; that power, formed from n times the
    subinterval's exponents, is the one propagator built and checked for
    overflow.  scale = ||(P, Q)|| * ||(u, u')|| bounds |f|, and Delta =
    |f|^2.  f' is the slope of :func:`find_eigenvalue`, with K'/(2K) =
    (2 + eps1*s)/(2s*(1 + eps1*s)).
    """
    if n < 1:
        raise ValueError("subinterval count must be at least 1")
    layout = _layout(1.0 / n, step)
    eps1, eta, mu = dp.eps1, dp.eta, dp.mu
    eta_delta = eta * dp.delta
    a1 = eps1 + mu * dp.delta
    a2 = dp.delta * (eta + eps1 * mu)
    a3 = eps1 * eta * dp.delta
    eta2, a22, a33 = 2.0 * eta, 2.0 * a2, 3.0 * a3

    def residual(s: complex,
                 nu: float = dp.nu) -> tuple[complex, float, complex]:
        K, r, L, T = _point_exponents(s.real, s.imag, eps1, step, layout)
        du, u = _propagator(K, r, n * L, n * T, 1.0)
        p3 = eta_delta * (nu + mu)
        Ps = eta + p3 * s                     # P / s^2
        P, Q = Ps * s * s, 1.0 + s * (a1 + s * (a2 + a3 * s))
        dP, dQ = s * (eta2 + 3.0 * p3 * s), a1 + s * (a22 + a33 * s)
        den = 1.0 + eps1 * s
        g = s * (2.0 + eps1 * s) / (2.0 * den)  # s^2 * K'/(2K)
        df = dP * u + dQ * du + g * (Ps * (du - u) + Q * u / den)
        return (P * u + Q * du,
                math.hypot(abs(P), abs(Q)) * math.hypot(abs(u), abs(du)), df)

    return residual


def _normalized(f: complex, scale: float) -> float:
    """Delta-hat from a residual and its bound: Delta divided by the square
    of the Cauchy-Schwarz bound of |f|, a scale-free value in [0, 1] with
    the same zeros as Delta, O(1) away from the spectrum and at roundoff
    level on it.  The floor keeps it total."""
    r = f / max(scale, _NORM_FLOOR)
    return r.real * r.real + r.imag * r.imag


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
    power; only that product is built and overflow-checked (OverflowError).
    n = 1 is :func:`delta`.  Raises ValueError for n < 1, a step that is
    not positive and a step so small that the step count of a subinterval,
    (1/n)/step, is not finite.
    """
    f, scale, _ = _residual_fn(dp, n, step)(complex(q, omega))
    return _normalized(f, scale)


def find_eigenvalue(dp: DimensionlessParams, seed: SpectralPoint,
                    options: SolveOptions | None = None, *,
                    _kernel=None) -> SpectralPoint:
    """Locate an eigenvalue near the seed as a zero of the boundary residual.

    The residual f(s) = P*u(1) + Q*u'(1) of the discretised fundamental
    system (the propagator :func:`delta_subdivided` uses) is analytic in
    s = q + i*omega, and its zeros are the zeros of the normalized
    determinant.  They are found by Newton's method from the seed.  Each
    evaluation also gives the slope

        f' = P'*u + Q'*u' + (P*(u' - u)/(2K) + Q*u/2) * K',

    K' = s*(2 + eps1*s)/(1 + eps1*s)^2, which is exact for the continuous
    system (u = sinh(l)/l, u' = cosh(l), l^2 = K) and within the RK4 error
    for the discretised one.  The search stops when a step is below
    1e-15*|s|, when f vanishes, or after ``MAX_ITERATIONS`` evaluations.
    An iterate that is not finite, has omega <= 0 or leaves the seed's band
    (half-width ``BAND_HALFWIDTH``, which prevents mode hopping) ends the
    search, as do an overflow, a degenerate rhs denominator, a singular RK4
    step and a zero slope.

    The result is the last iterate whose residual was evaluated, with the
    normalized determinant of that evaluation as delta_value (NaN when even
    the seed cannot be evaluated) and f' there as slope; converged means
    the iteration settled and delta_value is below ``CONVERGED_TOL``.  A
    slope carried by the seed is not used.  Raises ValueError, before any
    evaluation, for a non-finite seed and for options with fewer than one
    subinterval, a step that is not positive, or a step so small that the
    step count of a subinterval, (1/subintervals)/step, is not finite;
    otherwise never raises: a failed search comes back with
    converged=False.

    ``_kernel`` is private to :func:`sweep_feedback`: a pair (residual, nu)
    of a kernel that :func:`_residual_fn` built from dp and these options,
    and the feedback gain to evaluate it at in place of dp.nu.
    """
    opts = options or SolveOptions()
    if not (math.isfinite(seed.q) and math.isfinite(seed.omega)):
        raise ValueError(f"non-finite seed q={seed.q}, omega={seed.omega}")
    if _kernel is None:
        residual, nu = _residual_fn(dp, opts.subintervals, opts.step), dp.nu
    else:
        residual, nu = _kernel

    omega0 = seed.omega
    s = last = complex(seed.q, omega0)
    value, slope, settled = math.nan, None, False
    try:
        for _ in range(MAX_ITERATIONS):
            f, scale, df = residual(s, nu)
            last, value, slope = s, _normalized(f, scale), df
            if f == 0:
                settled = True
                break
            ds = f / df
            s = s - ds
            if abs(ds) <= _NEWTON_RTOL * abs(s):
                settled = True
                break
            if not (cmath.isfinite(s) and s.imag > 0.0
                    and abs(s.imag - omega0) < BAND_HALFWIDTH):
                break
    except (OverflowError, ZeroDivisionError):
        pass
    return SpectralPoint(q=last.real, omega=last.imag, delta_value=value,
                         converged=settled and value < CONVERGED_TOL,
                         slope=slope)


def mode_shape(point: SpectralPoint, dp: DimensionlessParams,
               resolution: int = 201,
               options: SolveOptions | None = None) -> ModeShape:
    """Displacement profile (u1, u2) of a converged eigenvalue on a grid.

    The profile is C*u(x) on the discretised system that find_eigenvalue
    solves with these options: u = exp(x*L)*sinh(x*T)/sqrt(K), with (L, T)
    the exponents of its [0, 1] propagator, sampled at `resolution` evenly
    spaced x.  C = C3 + i*C4, a null direction of the boundary system, is
    fixed by rotating the largest sample to real and positive (so the
    conservative limit is real) and scaling the peak to 1: C = 1/u(x_peak).
    Raises ValueError for an unconverged point, a resolution below 2 and
    options the search rejects, and numpy.linalg.LinAlgError when the rank
    check, delta_subdivided with these options (a search result's own
    delta_value), is not below 1e-8: the point is not an eigenvalue.
    """
    import numpy as np

    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if not point.converged:
        raise ValueError("mode_shape needs a converged SpectralPoint")

    opts = options or SolveOptions()
    n, step = opts.subintervals, opts.step
    dhat = delta_subdivided(point.q, point.omega, dp, n, step)
    if dhat >= _RANK_TOL:
        raise np.linalg.LinAlgError(
            f"boundary system is full rank (normalized determinant {dhat:.3e}); "
            "the point is not an eigenvalue")

    # u of solution 3 at x: b of the x-th power of the [0, 1] propagator.
    _, r, L, T = _point_exponents(point.q, point.omega, dp.eps1, step,
                                  _layout(1.0 / n, step))
    grid = np.linspace(0.0, 1.0, resolution)
    profile = np.exp(grid * (n * L)) * np.sinh(grid * (n * T)) / r
    peak = int(np.argmax(np.abs(profile)))
    c_final = 1.0 / profile[peak]
    profile = profile / profile[peak]
    return ModeShape(grid=grid, u1=profile.real, u2=profile.imag,
                     C3=c_final.real, C4=c_final.imag)


def _extrapolate(points: list[tuple[float, complex]], x: float) -> complex:
    """Value at x of the line (two points) or parabola (three points) through
    the (abscissa, value) points, whose abscissae are distinct.  Lagrange
    form, each weight a product of the factors (x - xj)/(xi - xj) in order."""
    if len(points) == 2:
        (x0, y0), (x1, y1) = points
        return 0j + (x - x1) / (x0 - x1) * y0 + (x - x0) / (x1 - x0) * y1
    (x0, y0), (x1, y1), (x2, y2) = points
    return (0j + (x - x1) / (x0 - x1) * ((x - x2) / (x0 - x2)) * y0
            + (x - x0) / (x1 - x0) * ((x - x2) / (x1 - x2)) * y1
            + (x - x0) / (x2 - x0) * ((x - x1) / (x2 - x1)) * y2)


def sweep_feedback(dp: DimensionlessParams, nu_values, modes=(1, 2),
                   omega_max: float = 20.0,
                   options: SolveOptions | None = None) -> list[SweepRow]:
    """Track eigenvalues of the requested modes across an ascending nu grid.

    dp.nu is ignored; each grid value replaces it.  The residual is affine
    in nu, so one residual kernel serves the whole sweep, and each row is
    one :func:`find_eigenvalue` call on it at the row's nu.  Mode k starts
    from the k-th undamped frequency with the closed-form growth-rate
    estimate.  A grid point whose two or three predecessors converged (at
    distinct nu) is seeded by predictor-corrector continuation: the
    polynomial extrapolation in nu through those eigenvalues, linear from
    two and quadratic from three.  Any other later point is seeded from its
    predecessor's eigenvalue (warm start).  Unconverged points are flagged
    in their rows, never dropped.  Rows come back ordered by (nu, mode).
    Raises ValueError, before any search, for a mode below 1, a repeated
    mode, and a nu grid that is not finite or not ascending.
    """
    if any(mode < 1 for mode in modes) or len(set(modes)) < len(modes):
        raise ValueError(f"modes must be distinct and at least 1: {modes}")
    nu_values = [float(v) for v in nu_values]
    if not all(math.isfinite(v) for v in nu_values):
        raise ValueError("nu grid must be finite")
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

    kernel = _residual_fn(dp, opts.subintervals, opts.step)
    first = replace(dp, nu=nu_values[0])
    rows = []
    for mode in modes:
        w0 = roots[mode - 1].omega
        seed = SpectralPoint(q=asymptotic.corrected_eigenvalue(w0, first).q,
                             omega=w0)
        history = []  # (nu, s) of up to three converged rows at distinct nu
        for nu in nu_values:
            if len(history) >= 2:
                s = _extrapolate(history, nu)
                seed = SpectralPoint(q=s.real, omega=s.imag)
            # The module global, so that a wrapper of it sees every row.
            point = find_eigenvalue(dp, seed, opts, _kernel=(kernel, nu))
            rows.append(SweepRow(nu=nu, mode=mode, q=point.q,
                                 omega=point.omega,
                                 delta_value=point.delta_value,
                                 converged=point.converged))
            seed = point
            s = complex(point.q, point.omega)
            if not point.converged:
                history = []
            elif history and history[-1][0] < nu:
                history = history[-2:] + [(nu, s)]
            else:
                history = [(nu, s)]
    rows.sort(key=lambda r: (r.nu, r.mode))
    return rows
