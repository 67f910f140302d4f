"""Complex eigenvalues by the method of normal fundamental systems.

A time-harmonic solution u = (u1(x) + i*u2(x)) e^{(q+i*omega) tau} turns the
damped wave equation into a linear first-order system in the state
(g1, g2, g3, g4) = (u1, u2, u1', u2'):

    g1' = g3,  g2' = g4,
    g3' = K1*g1 - K2*g2,
    g4' = K2*g1 + K1*g2,        K1 + i*K2 = s^2 / (1 + eps1*s),  s = q + i*omega.

The system is the real form of the complex one (u, u')' = A (u, u') with
A = [[0, 1], [K, 0]], K = K1 + i*K2, and A^2 = K*I.  One classical RK4 step
of length h is therefore exactly (1 + e)*I + b*A with z = h^2*K,
e = z/2 + z^2/24 and b = h*(1 + z/6); products and powers of such matrices
keep that form, so the fundamental matrix Gamma(x) (the four Cauchy
problems whose initial states form the identity) is the pair (e, b) raised
to the step count by binary powering on complex scalars.  Its realified
4x4 view is what :func:`integrate_fundamental` returns.  The clamped end
kills solutions 1 and 2; the end-mass boundary condition applied to
columns 3 and 4 yields a 2x2 homogeneous system whose determinant
Delta(omega, q) = |f|^2, f = (D1 - i*D2)*u(1) + (D3 - i*D4)*u'(1), vanishes
exactly at eigenvalues.  Delta is non-negative, so eigenvalues are located
by derivative-free minimization of its normalized form over (q, omega).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize

from . import asymptotic, conservative
from .params import DimensionlessParams

# A 4x4 ndarray whose column j holds the state of Cauchy solution j.
FundamentalMatrix = np.ndarray

DEFAULT_STEP = 1.0 / 2000.0
DEFAULT_SUBINTERVALS = 8
OVERFLOW_LIMIT = 1e150

_DENOM_FLOOR = 1e-30   # rhs-coefficient denominator guard
_NORM_FLOOR = 1e-300   # keeps the normalized determinant total
_RANK_TOL = 1e-8       # normalized-determinant level accepted as "singular"
_BAND_PENALTY = 1e6    # objective value outside the seed's frequency band


@dataclass(frozen=True)
class StateVector:
    """State (u1, u2, u1', u2') at one spatial point."""

    g1: float
    g2: float
    g3: float
    g4: float

    def as_array(self) -> np.ndarray:
        return np.array([self.g1, self.g2, self.g3, self.g4])


def state_derivative(state: StateVector, K1: float, K2: float) -> StateVector:
    """Right-hand side of the normal system, spelled out state-wise.

    The integrator works on the matrix form; this is the same system kept
    in human-checkable shape (and cross-checked against the matrix in tests).
    """
    return StateVector(
        g1=state.g3,
        g2=state.g4,
        g3=K1 * state.g1 - K2 * state.g2,
        g4=K2 * state.g1 + K1 * state.g2,
    )


@dataclass(frozen=True)
class BoundaryCoefficients:
    """End-mass boundary polynomials D1..D4 evaluated at (q, omega)."""

    D1: float
    D2: float
    D3: float
    D4: float

    def as_matrix(self) -> np.ndarray:
        """The two boundary rows at x = 1 acting on a state (g1..g4)."""
        return np.array([
            [self.D1, self.D2, self.D3, self.D4],
            [-self.D2, self.D1, -self.D4, self.D3],
        ])


@dataclass(frozen=True)
class SpectralPoint:
    q: float
    omega: float
    delta_value: float = math.nan
    converged: bool = False


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
    """Controls for the direct-search eigenvalue solver."""

    step: float = DEFAULT_STEP
    subintervals: int = DEFAULT_SUBINTERVALS
    simplex_size: float = 1e-3        # initial simplex half-width in q and omega
    diameter_tol: float = 1e-10       # stop when the simplex is this small
    max_iterations: int = 500
    converged_tol: float = 1e-12      # normalized determinant level
    band_halfwidth: float = np.pi / 2  # mode-hop guard around the seed omega


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
    result = _IDENTITY
    while n:
        if n & 1:
            result = _compose(result, pair, K)
        n >>= 1
        if n:
            pair = _compose(pair, pair, K)
    return result


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
                          step: float = DEFAULT_STEP) -> FundamentalMatrix:
    """Fundamental matrix at x_end for identity initial data at x_start.

    Fixed-step classical fourth-order integration; the last step is
    shortened to land exactly on x_end.  The result is the real 4x4 form of
    the complex propagator [[a, b], [b*K, a]].  Raises OverflowError when
    any entry exceeds 1e150 (the caller should subdivide), ValueError on a
    reversed interval or non-positive step.
    """
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


def _normalized_determinant(gamma_end: Pair, q: float, omega: float,
                            dp: DimensionlessParams) -> float:
    """Delta-hat from the propagator of [0, 1].

    Solution 3 (initial state u = 0, u' = 1) ends at (u, u') = (b, a).  The
    end-mass condition is the single complex row f = P*u + Q*u' with
    P = D1 - i*D2 and Q = D3 - i*D4, and the raw 2x2 real determinant is
    Delta = |f|^2 >= 0.  Cauchy-Schwarz bounds |f| by
    ||(P, Q)|| * ||(u, u')||; dividing by that bound gives a scale-free value
    in [0, 1] with the same zeros and minimizers as Delta, O(1) away from
    the spectrum and at roundoff level on it.  The floor keeps it total.
    """
    e, b = gamma_end
    u, du = b, 1.0 + e
    bc = boundary_coefficients(q, omega, dp)
    P = complex(bc.D1, -bc.D2)
    Q = complex(bc.D3, -bc.D4)
    scale = math.hypot(abs(P), abs(Q)) * math.hypot(abs(u), abs(du))
    r = (P * u + Q * du) / max(scale, _NORM_FLOOR)
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
    power.  Both the subinterval propagator and the composed product are
    overflow-checked (OverflowError).  n = 1 is :func:`delta`.
    """
    if n < 1:
        raise ValueError("subinterval count must be at least 1")
    K = complex(*rhs_coefficients(q, omega, dp.eps1))
    gamma_end = _power(_interval_pair(K, 1.0 / n, step), n, K)
    _check_overflow(gamma_end, K)
    return _normalized_determinant(gamma_end, q, omega, dp)


def find_eigenvalue(dp: DimensionlessParams, seed: SpectralPoint,
                    options: SolveOptions | None = None) -> SpectralPoint:
    """Locate an eigenvalue near the seed by simplex minimization of the
    normalized determinant over (q, omega).

    Runs Nelder-Mead from the seed (initial simplex offsets from
    ``simplex_size``), then restarts once from the found point with a 10x
    smaller simplex.  Frequencies outside the seed's band (half-width
    ``band_halfwidth``) get a large penalty, which prevents mode hopping.
    Raises ValueError for a non-finite seed; otherwise never raises: a
    failed search comes back with converged=False.
    """
    opts = options or SolveOptions()
    omega_seed = seed.omega

    def objective(z):
        qq, ww = z
        if ww <= 0.0 or abs(ww - omega_seed) >= opts.band_halfwidth:
            return _BAND_PENALTY
        try:
            return delta_subdivided(qq, ww, dp, opts.subintervals, opts.step)
        except (OverflowError, ZeroDivisionError):
            return _BAND_PENALTY

    x0 = np.array([seed.q, seed.omega], dtype=float)
    size = opts.simplex_size
    result = None
    for _ in range(2):  # initial search + one refining restart
        simplex = np.array([x0, x0 + [size, 0.0], x0 + [0.0, size]])
        result = minimize(
            objective, x0, method="Nelder-Mead",
            options={
                "initial_simplex": simplex,
                "xatol": opts.diameter_tol,
                "fatol": np.inf,
                "maxiter": opts.max_iterations,
                "maxfev": 50 * opts.max_iterations,
            },
        )
        x0 = result.x
        size = opts.simplex_size / 10.0

    q_best, omega_best = float(x0[0]), float(x0[1])
    value = float(result.fun)
    return SpectralPoint(q=q_best, omega=omega_best, delta_value=value,
                         converged=value < opts.converged_tol)


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
    k-th undamped frequency with the closed-form growth-rate estimate, and
    every later grid point is seeded from its predecessor (warm start).
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
        for nu in nu_values:
            point = find_eigenvalue(replace(dp, nu=nu), seed, opts)
            rows.append(SweepRow(nu=nu, mode=mode, q=point.q,
                                 omega=point.omega,
                                 delta_value=point.delta_value,
                                 converged=point.converged))
            seed = SpectralPoint(q=point.q, omega=point.omega)
    rows.sort(key=lambda r: (r.nu, r.mode))
    return rows
