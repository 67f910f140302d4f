"""Complex eigenvalues by the method of normal fundamental systems.

A time-harmonic solution u(x) e^{s tau}, s = q + i*omega, turns the damped
wave equation into the complex first-order system

    (u, u')' = A (u, u'),   A = [[0, 1], [K, 0]],   K = s^2 / (1 + eps1*s),

whose coefficients do not depend on x, with A^2 = K*I.  The propagator of
the bar [0, 1], the fundamental matrix Gamma(1) (the Cauchy problems whose
initial states at x = 0 form the identity), is therefore exp(A) =
cosh(r)*I + sinh(r)*A/r with r = sqrt(K), in closed form.  The clamped end
leaves only the solution with initial state (u, u') = (0, 1), which ends
at u(1) = sinh(r)/r and u'(1) = cosh(r), and the end-mass boundary
condition applied to it is the single complex row
f = (D1 - i*D2)*u(1) + (D3 - i*D4)*u'(1); the characteristic determinant
Delta(omega, q) = |f|^2 vanishes exactly at eigenvalues.  f is analytic in
s (D1..D4 are polynomials in s), so eigenvalues are located as its zeros
by Newton's method from a seed, with the exact slope; the normalized Delta
then certifies the answer.  Every search, sweep and mode profile solves
this continuous system and reads no step.  The paper's RK4 discretisation
of it, which no search loads, is in :mod:`barmodes.rk4`.
:func:`boundary_coefficients` gives the real form D1..D4 of the
residual's P and Q.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import replace
from typing import TYPE_CHECKING, NamedTuple

from . import asymptotic, conservative
# params defines the defaults and SolveOptions, so that the CLI reads the
# defaults without compiling this module; they are fundsys's names too.
from .params import DEFAULT_OMEGA_MAX, DEFAULT_RESOLUTION, SolveOptions

if TYPE_CHECKING:
    import numpy as np

    from .params import DimensionlessParams

OVERFLOW_LIMIT = 1e150
CONVERGED_TOL = 1e-12         # normalized determinant of a converged search
BAND_HALFWIDTH = math.pi / 2  # mode-hop guard around the seed omega
MAX_ITERATIONS = 500          # residual evaluations (Newton steps) per search

_DENOM_FLOOR = 1e-30   # rhs-coefficient denominator guard
_NORM_FLOOR = 1e-300   # keeps the normalized determinant total
_NEWTON_RTOL = 1e-15   # stop once a Newton step is this small relative to |s|
_FREE_RTOL = 1e-8      # a step this small from a converged evaluation is
                       # taken without evaluating its end
_DUPLICATE_RTOL = 1e-8  # two modes' eigenvalues this close (relative) are one
_OVERFLOW_MESSAGE = ("fundamental matrix entry exceeded 1e150: it leaves the "
                     "float range at this point and step")


class BoundaryCoefficients(NamedTuple):
    """End-mass boundary polynomials D1..D4 evaluated at (q, omega)."""

    D1: float
    D2: float
    D3: float
    D4: float


class SpectralPoint(NamedTuple):
    """A point s = q + i*omega: the seed or the result of a search.

    A result carries the normalized determinant at s and whether the search
    converged.
    """

    q: float
    omega: float
    delta_value: float = math.nan
    converged: bool = False


class ModeShape(NamedTuple):
    grid: np.ndarray
    u1: np.ndarray
    u2: np.ndarray


class SweepRow(NamedTuple):
    nu: float
    mode: int
    q: float
    omega: float
    delta_value: float
    converged: bool


def rhs_coefficients(q: float, omega: float, eps1: float) -> complex:
    """K = s^2/(1 + eps1*s) of the normal system at s = q + i*omega, in
    complex arithmetic.

    Raises ValueError for a non-finite q or omega and ZeroDivisionError when
    |1 + eps1*s|^2 = eps1^2 omega^2 + (1 + eps1 q)^2 degenerates.
    """
    s = complex(q, omega)
    if not cmath.isfinite(s):
        raise ValueError(f"non-finite spectral point q={q}, omega={omega}")
    x = 1.0 + eps1 * q
    if eps1 * eps1 * omega * omega + x * x <= _DENOM_FLOOR:
        raise ZeroDivisionError("degenerate rhs denominator: 1 + eps1*s ~ 0")
    return s * s / (1.0 + eps1 * s)


def _row_coefficients(dp: DimensionlessParams) -> tuple[float, ...]:
    """(eps1, mu, eta, eta*delta, a1, a2, a3, 2*eta, 2*a2, 3*a3), what
    :func:`_residual` reads of dp: the end-mass row P*u(1) + Q*u'(1) has
    P(s) = s^2*(eta + eta*delta*(nu + mu)*s) and
    Q(s) = 1 + a1*s + a2*s^2 + a3*s^3.  nu is not in it."""
    eps1, mu, eta, delta = dp.eps1, dp.mu, dp.eta, dp.delta
    a2, a3 = delta * (eta + eps1 * mu), eps1 * eta * delta
    return (eps1, mu, eta, eta * delta, eps1 + mu * delta, a2, a3,
            2.0 * eta, 2.0 * a2, 3.0 * a3)


def boundary_coefficients(q: float, omega: float,
                          dp: DimensionlessParams) -> BoundaryCoefficients:
    """The end-mass boundary polynomials at s = q + i*omega in real form:
    D1 = Re P, D2 = -Im P, D3 = Re Q and D4 = -Im Q, with P and Q evaluated
    as :func:`_residual` evaluates them."""
    _, mu, eta, eta_delta, a1, a2, a3, *_ = _row_coefficients(dp)
    s = complex(q, omega)
    P = (eta + eta_delta * (dp.nu + mu) * s) * s * s
    Q = 1.0 + s * (a1 + s * (a2 + a3 * s))
    return BoundaryCoefficients(D1=P.real, D2=-P.imag, D3=Q.real, D4=-Q.imag)


def _propagator_at(q: float, omega: float,
                   eps1: float) -> tuple[complex, ...]:
    """(r, a, b) of the [0, 1] propagator exp(A) = a*I + b*A at
    s = q + i*omega: a = cosh(r) and b = sinh(r)/r, r = sqrt(K) (I + A at
    K = 0).  Raises as rhs_coefficients and :func:`_checked` do, and with
    the 1e150 message where cmath overflows or refuses an infinite K."""
    K = rhs_coefficients(q, omega, eps1)
    r = cmath.sqrt(K)
    try:
        a = cmath.cosh(r)
        b = cmath.sinh(r) / r if r else 1 + 0j
    # cmath's bare 'math range error', and its 'math domain error' where K,
    # though s is finite, is not (s^2 overflows)
    except (OverflowError, ValueError):
        raise OverflowError(_OVERFLOW_MESSAGE) from None
    return _checked(K, r, a, b)


def _checked(K: complex, r: complex, a: complex,
             b: complex) -> tuple[complex, ...]:
    """(r, a, b) of a propagator a*I + b*A at K, once its entries are in
    range.  Raises OverflowError when the real or imaginary part of an
    entry of [[a, b], [b*K, a]] exceeds 1e150 or is not finite, and when a
    or b is 0, which only an underflow gives.  A modulus bounds both
    parts, so entries whose moduli sum to at most 1e150 pass without the
    part-by-part test."""
    bK = b * K
    try:
        in_range = abs(a) + abs(b) + abs(bK) <= OVERFLOW_LIMIT and a and b
    except OverflowError:   # finite parts, a modulus past the float range
        in_range = False
    if not in_range:
        for c in (a, b, bK):
            if not (abs(c.real) <= OVERFLOW_LIMIT
                    and abs(c.imag) <= OVERFLOW_LIMIT):
                raise OverflowError(_OVERFLOW_MESSAGE)
        if not (a and b):
            raise OverflowError("fundamental matrix entry underflowed to 0")
    return r, a, b


def _residual(row: tuple[float, ...], s: complex, nu: float,
              built: tuple[complex, ...]) -> tuple[complex, ...]:
    """(f, f', (P, Q, u, u')) of the end-mass residual at s and the
    feedback gain nu, on row, the :func:`_row_coefficients` of the other
    groups, and built, the (r, a, b) of the propagator at s that the
    caller builds: exp(A) (:func:`_propagator_at`) for a search or a mode
    profile, the RK4 system (rk4._propagator) for rk4.delta_subdivided.

    P(s) = D1 - i*D2 = eta*s^2*(1 + delta*(nu + mu)*s) and
    Q(s) = D3 - i*D4 = 1 + a1*s + a2*s^2 + a3*s^3.  Only the s^3
    coefficient p3 = eta*delta*(nu + mu) of P depends on nu, and it is
    formed at each evaluation, so one row serves every nu.
    f = P*u(1) + Q*u'(1) is the end-mass row on solution 3 (u = 0, u' = 1
    at x = 0), whose end state (u, u') = (u(1), u'(1)) is the column (b, a)
    of the [0, 1] propagator.  f' is the slope of the continuous system's
    residual, with K'/(2K) = (2 + eps1*s)/(2s*(1 + eps1*s)): exact on
    exp(A), within the RK4 error on an RK4 build.  (P, Q, u, u') are the
    four factors of the bound of |f| that :func:`_normalized` forms, once
    per search.
    """
    eps1, mu, eta, eta_delta, a1, a2, a3, eta2, a22, a33 = row
    _, du, u = built
    p3 = eta_delta * (nu + mu)
    Ps = eta + p3 * s                     # P / s^2
    P, Q = Ps * s * s, 1.0 + s * (a1 + s * (a2 + a3 * s))
    dP, dQ = s * (eta2 + 3.0 * p3 * s), a1 + s * (a22 + a33 * s)
    den = 1.0 + eps1 * s
    g = s * (2.0 + eps1 * s) / (2.0 * den)  # s^2 * K'/(2K)
    df = dP * u + dQ * du + g * (Ps * (du - u) + Q * u / den)
    return P * u + Q * du, df, (P, Q, u, du)


def _normalized(f: complex, bound: tuple[complex, ...]) -> float:
    """Delta-hat from a residual f = P*u + Q*du and bound = (P, Q, u, du):
    Delta divided by the square of the Cauchy-Schwarz bound
    ||(P, Q)|| * ||(u, du)|| of |f|, a scale-free value in [0, 1] with the
    same zeros as Delta, O(1) away from the spectrum and at roundoff level
    on it.  The floor keeps it total."""
    P, Q, u, du = bound
    scale = math.hypot(abs(P), abs(Q)) * math.hypot(abs(u), abs(du))
    r = f / max(scale, _NORM_FLOOR)
    return r.real * r.real + r.imag * r.imag


def find_eigenvalue(dp: DimensionlessParams, seed: SpectralPoint,
                    options: SolveOptions | None = None, *,
                    _row=None) -> SpectralPoint:
    """Locate an eigenvalue near the seed as a zero of the boundary residual.

    The residual f(s) = P*u(1) + Q*u'(1) of the continuous fundamental
    system, whose [0, 1] propagator is exp(A) (u(1) = sinh(r)/r,
    u'(1) = cosh(r), r^2 = K), is analytic in s = q + i*omega, and its
    zeros are the zeros of the normalized determinant.  They are found by
    Newton's method from the seed.  Each evaluation also gives the exact
    slope

        f' = P'*u + Q'*u' + (P*(u' - u)/(2K) + Q*u/2) * K',

    K' = s*(2 + eps1*s)/(1 + eps1*s)^2.  The search stops when a step is
    below 1e-15*|s| (as where f vanishes), or after ``MAX_ITERATIONS``
    evaluations.  It also stops at s - ds, without evaluating it, when a
    step ds, smaller than the one before it and at most 1e-8*|s|, comes
    from an evaluation whose normalized determinant is already below
    ``CONVERGED_TOL``, and s - ds passes the band test below: Newton's
    method converges quadratically, and the step's end lies about
    gamma*|ds|^2 from the zero (Kantorovich; Smale's alpha theory).
    An iterate that is not finite, has omega <= 0 or leaves the seed's band
    (half-width ``BAND_HALFWIDTH``, which prevents mode hopping) ends the
    search, as do an overflow, a degenerate rhs denominator and a zero
    slope.

    The result is the last iterate whose residual was evaluated, or the
    end of the unevaluated last step, with the normalized determinant of
    the last evaluation as delta_value: after an unevaluated step, that is
    the value one Newton step before the reported point, below
    ``CONVERGED_TOL`` by construction (NaN when even the seed cannot be
    evaluated).  converged means the iteration settled and delta_value is
    below ``CONVERGED_TOL``, so a converged answer is the continuous
    eigenvalue to rounding.  Raises ValueError, before any evaluation, for
    a non-finite seed; otherwise never raises: a failed search comes back
    with converged=False.  ``options`` is not read, neither used nor
    checked: a search has no step.  The slot stays for callers that pass
    SolveOptions to it.

    ``_row`` is private to :func:`sweep_feedback`: a pair (row, nu) of the
    :func:`_row_coefficients` of dp and the feedback gain to evaluate the
    residual at in place of dp.nu.  Without it, the search forms the row
    of dp, once, after the seed check.
    """
    s = last = complex(seed.q, seed.omega)
    if not cmath.isfinite(s):
        raise ValueError(f"non-finite seed q={seed.q}, omega={seed.omega}")
    row, nu = (_row_coefficients(dp), dp.nu) if _row is None else _row
    eps1 = row[0]

    omega0 = s.imag
    value = math.nan   # Delta-hat at last: None until formed, NaN unevaluated
    size = math.inf   # the size of the step before
    settled = False
    try:
        for _ in range(MAX_ITERATIONS):
            f, df, bound = _residual(row, s, nu,
                                     _propagator_at(s.real, s.imag, eps1))
            last, value = s, None
            ds = f / df   # 0 where f vanishes: a step of 0 settles
            s = s - ds
            step = abs(ds)
            if step <= _NEWTON_RTOL * abs(s):
                settled = True
                break
            if not (cmath.isfinite(s) and s.imag > 0.0
                    and abs(s.imag - omega0) < BAND_HALFWIDTH):
                break
            if step < size and step <= _FREE_RTOL * abs(s):
                value = _normalized(f, bound)
                if value < CONVERGED_TOL:
                    last, settled = s, True
                    break
            size = step
    except (OverflowError, ZeroDivisionError):
        pass
    if value is None:
        value = _normalized(f, bound)
    return SpectralPoint(last.real, last.imag, value,
                         settled and value < CONVERGED_TOL)


def mode_shape(point: SpectralPoint, dp: DimensionlessParams,
               resolution: int = DEFAULT_RESOLUTION) -> ModeShape:
    """Displacement profile (u1, u2) of a converged eigenvalue on a grid.

    The profile is u(x)/u(x_peak) on the continuous system that
    find_eigenvalue solves: u = sinh(x*r)/r, r = sqrt(K), sampled at
    `resolution` evenly spaced x.  Dividing by the largest sample makes it
    exactly 1 + 0i, so the conservative limit is real.  The grid,
    np.linspace(0, 1, resolution) bit for bit, is one read-only array
    shared by every ModeShape of that resolution; u1 and u2 are the
    shape's own.  The samples are computed in cmath by _mode_profile,
    which the modeshape verb formats without loading numpy.  Raises
    ValueError for an unconverged point and a resolution that is not an
    integer of at least 2, and numpy.linalg.LinAlgError when the rank
    check, the normalized determinant of the search's residual at the
    point, is not below ``CONVERGED_TOL``: the point is not an eigenvalue.
    For a search result that is its delta_value when the search evaluated
    its answer; after an unevaluated last Newton step it is the
    determinant one step further on, where the search's value was already
    below the tolerance.
    """
    import numpy as np

    grid, profile = _mode_profile(point, dp, resolution)
    profile = np.array(profile, dtype=complex)
    return ModeShape(grid=_shared_grid(len(grid)), u1=profile.real,
                     u2=profile.imag)


@functools.lru_cache(maxsize=8)
def _unit_grid(resolution: int) -> tuple[float, ...]:
    """The points of np.linspace(0, 1, resolution), bit for bit, as a
    tuple built once per resolution and shared by every caller, so it is
    immutable.  With :func:`_shared_grid` it is one of two bounded caches
    of the same grid: this one for the profile and the modeshape verb,
    which do not load numpy, that one for ModeShape."""
    h = 1.0 / (resolution - 1)
    return tuple([i * h for i in range(resolution - 1)] + [1.0])


@functools.lru_cache(maxsize=8)
def _shared_grid(resolution: int) -> np.ndarray:
    """The cached :func:`_unit_grid` tuple as one read-only array, built
    once per resolution and shared by every ModeShape of that resolution:
    the second bounded cache of the grid."""
    import numpy as np

    grid = np.array(_unit_grid(resolution))
    grid.flags.writeable = False
    return grid


def _mode_profile(point: SpectralPoint, dp: DimensionlessParams,
                  resolution: int) -> tuple[tuple[float, ...], list[complex]]:
    """(grid, u1 + i*u2) of :func:`mode_shape`: the cached
    :func:`_unit_grid` tuple and a list of samples.  The peak that
    normalizes the samples is the first sample of largest modulus, and it
    is set to exactly 1 + 0i.  Reads q, omega and converged of point only,
    so a SweepRow at nu = dp.nu serves as well (at another nu, the rank
    check fails).  The rank check's :func:`_residual` is on the row of dp,
    formed once per call.  Raises as mode_shape does."""
    resolution = conservative._count(resolution, 2, "resolution")
    if not point.converged:
        raise ValueError("mode_shape needs a converged SpectralPoint")

    # One exp(A) propagator serves the rank check and the profile.
    row = _row_coefficients(dp)
    built = _propagator_at(point.q, point.omega, row[0])
    f, _, bound = _residual(row, complex(point.q, point.omega), dp.nu, built)
    dhat = _normalized(f, bound)
    if not dhat < CONVERGED_TOL:
        from numpy.linalg import LinAlgError
        raise LinAlgError(
            f"boundary system is full rank (normalized determinant {dhat:.3e}); "
            "the point is not an eigenvalue")

    # u of solution 3 at x: b of the propagator exp(x*A).
    r = built[0]
    grid = _unit_grid(resolution)
    profile = [cmath.sinh(x * r) / r for x in grid]
    peak = max(profile, key=abs)   # max keeps the first of equal moduli
    top = profile.index(peak)
    profile = [u / peak for u in profile]
    profile[top] = 1 + 0j
    return grid, profile


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
                   omega_max: float = DEFAULT_OMEGA_MAX,
                   options: SolveOptions | None = None) -> list[SweepRow]:
    """Track eigenvalues of the requested modes across an ascending nu grid.

    dp.nu is ignored; each grid value replaces it.  The residual is affine
    in nu, so the sweep forms one coefficient row of dp, and each row is
    one :func:`find_eigenvalue` call on it at the row's nu.  This is the one
    place that turns an undamped frequency into a search: a one-point grid
    [dp.nu] is the single search of each mode at dp.  Mode k starts from
    the closed-form growth-rate estimate at the first grid value, or from
    q = 0 where that estimate degenerates (ZeroDivisionError) or is not
    finite, and from omega_k*sqrt(1 - (eps1*omega_k/2)^2), the frequency
    that material damping alone gives the k-th undamped frequency omega_k,
    or omega_k itself where eps1*omega_k >= 2.  A grid
    point whose two or three predecessors converged (at distinct nu) is
    seeded by predictor-corrector continuation: the polynomial
    extrapolation in nu through those eigenvalues, linear from two and
    quadratic from three, unless that extrapolation has omega <= 0 (a
    branch crossing the real axis), which no search may start from.  Any
    other later point is seeded from its predecessor's eigenvalue (warm
    start); "converged" here is the search's own verdict.  At each grid
    point, a converged row whose eigenvalue lies within 1e-8 (relative)
    of a converged row of a mode listed earlier in
    ``modes`` is a second search landing on one eigenvalue and comes back
    with converged=False, as does one within 1e-8 of its own conjugate,
    a real (aperiodic) root and not an oscillatory mode.  Unconverged
    points are flagged in their rows, never dropped.  Rows come back grid
    point by grid point, each point's in the order of ``modes``: row
    i*len(modes) + k is mode modes[k] at nu_values[i]; an empty grid or
    mode list gives none.  Raises ValueError, before any search, for a mode
    that is not an integer or is below 1, a repeated mode, and a nu grid
    that is not finite or not ascending.  ``options`` is not read, as in
    :func:`find_eigenvalue`.
    """
    message = f"modes must be distinct integers of at least 1: {modes}"
    try:
        modes = [operator.index(mode) for mode in modes]
    except TypeError:
        raise ValueError(message) from None
    if any(mode < 1 for mode in modes) or len(set(modes)) < len(modes):
        raise ValueError(message)
    nu_values = [float(v) for v in nu_values]
    if not all(math.isfinite(v) for v in nu_values):
        raise ValueError("nu grid must be finite")
    if sorted(nu_values) != nu_values:
        raise ValueError("nu grid must be ascending")
    if not (nu_values and modes):
        return []

    roots = conservative.find_roots(dp, omega_max, max_count=max(modes))
    if len(roots) < max(modes):
        raise ValueError(
            f"only {len(roots)} undamped frequencies below omega_max={omega_max:g}; "
            f"mode {max(modes)} requested")

    row = _row_coefficients(dp)
    first = replace(dp, nu=nu_values[0])
    seeds = []
    for mode in modes:
        w0 = roots[mode - 1].omega
        try:
            q0 = asymptotic.corrected_eigenvalue(w0, first).q
        except ZeroDivisionError:
            q0 = math.nan
        # Material damping alone gives s^2 = -w0^2*(1 + eps1*s), whose root
        # has omega = w0*sqrt(1 - (eps1*w0/2)^2) while eps1*w0 < 2.
        e = row[0] * w0
        seeds.append(SpectralPoint(
            q=q0 if math.isfinite(q0) else 0.0,
            omega=w0 * math.sqrt(1.0 - (0.5 * e) ** 2) if e < 2.0 else w0))
    # Per mode, (nu, s) of up to three converged rows at distinct nu.
    histories = [[] for _ in modes]
    rows = []
    for nu in nu_values:
        accepted = []  # eigenvalues of this grid point's converged rows
        for k, mode in enumerate(modes):
            history = histories[k]
            if len(history) >= 2:
                s = _extrapolate(history, nu)
                if s.imag > 0.0:   # else the predecessor's eigenvalue
                    seeds[k] = SpectralPoint(q=s.real, omega=s.imag)
            # The module global, so that a wrapper of it sees every row.
            point = find_eigenvalue(dp, seeds[k], _row=(row, nu))
            seeds[k] = point
            s = complex(point.q, point.omega)
            # |s - conj(s)| = 2*omega: a root repeating its conjugate is real.
            converged = (point.converged
                         and 2.0 * point.omega > _DUPLICATE_RTOL * abs(s))
            for other in accepted:
                if converged and abs(other - s) <= _DUPLICATE_RTOL * abs(s):
                    converged = False
            if converged:
                accepted.append(s)
            rows.append(SweepRow(nu=nu, mode=mode, q=point.q,
                                 omega=point.omega,
                                 delta_value=point.delta_value,
                                 converged=converged))
            if not point.converged:
                histories[k] = []
            elif history and history[-1][0] < nu:
                histories[k] = history[-2:] + [(nu, s)]
            else:
                histories[k] = [(nu, s)]
    return rows


def __getattr__(name):
    # PEP 562: the two rk4 functions that bench/tracing.py wraps here.
    # Nothing in src/ or tests/ reads them through this module.
    if name in ("integrate_fundamental", "delta_subdivided"):
        from . import rk4
        return getattr(rk4, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
