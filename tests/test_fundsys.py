import cmath
import json
import math
import random
import warnings
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from barmodes import asymptotic, conservative, fundsys, rk4
from barmodes.params import DEFAULT_STEP, DimensionlessParams, validate

from support import (OMEGA_1, REF, UNDAMPED, box_sets, mp_newton, mp_residual,
                     run_fresh)


def random_dp(rng):
    return DimensionlessParams(
        eps1=rng.uniform(0.0, 0.1),
        mu=rng.uniform(0.0, 0.1),
        nu=rng.uniform(0.0, 0.1),
        eta=rng.uniform(0.1, 10.0),
        delta=rng.uniform(0.01, 2.0),
    )


def small_dissipation_dp(rng):
    return DimensionlessParams(
        eps1=rng.uniform(0.0, 0.02),
        mu=rng.uniform(0.0, 0.02),
        nu=rng.uniform(0.0, 0.1),
        eta=rng.uniform(0.5, 10.0),
        delta=rng.uniform(0.02, 0.5),
    )


def asymptotic_seeds(dp, count):
    """Cold seeds of the first `count` modes below omega = 20."""
    return [fundsys.SpectralPoint(
        q=asymptotic.corrected_eigenvalue(r.omega, dp).q, omega=r.omega)
        for r in conservative.find_roots(dp, 20.0, max_count=count)]


def nelder_mead_eigenvalue(dp, seed):
    """The paper's direct search, kept as a cross-check: two Nelder-Mead
    passes over the normalized determinant of the continuous system
    (simplex half-widths 1e-3, then 1e-4 from the first answer), with a
    penalty outside the seed's band."""
    minimize = pytest.importorskip("scipy.optimize").minimize

    def objective(z):
        q, omega = z
        if omega <= 0.0 or abs(omega - seed.omega) >= fundsys.BAND_HALFWIDTH:
            return 1e6
        try:
            return exact_delta(dp, complex(q, omega))
        except (OverflowError, ZeroDivisionError):
            return 1e6

    x0, size = np.array([seed.q, seed.omega]), 1e-3
    for _ in range(2):
        simplex = np.array([x0, x0 + [size, 0.0], x0 + [0.0, size]])
        result = minimize(objective, x0, method="Nelder-Mead",
                          options={"initial_simplex": simplex, "xatol": 1e-10,
                                   "fatol": np.inf, "maxiter": 500,
                                   "maxfev": 25000})
        x0, size = result.x, size / 10.0
    return complex(*x0), float(result.fun)


def propagator(q, omega, eps1, count=None):
    """(r, a, b) of count equal RK4 steps, as delta_subdivided builds them,
    or of exp(A) for None, as a search builds it."""
    if count is None:
        return fundsys._propagator_at(q, omega, eps1)
    return rk4._propagator(q, omega, eps1, count)


def kernel_on(dp, count):
    """The residual of dp on its coefficient row, building its propagator
    at each evaluation: count equal RK4 steps, or exp(A) for None.
    (s, nu=dp.nu) -> (f, f', (P, Q, u, u'))."""
    row = fundsys._row_coefficients(dp)

    def residual(s, nu=dp.nu):
        return fundsys._residual(row, s, nu, propagator(
            s.real, s.imag, dp.eps1, count))

    return residual


def rk4_kernel(dp, n, step):
    """kernel_on the RK4 system of n subintervals and this step."""
    return kernel_on(dp, rk4._step_count(n, step))


def exact_delta(dp, s):
    """The normalized determinant of the continuous system at s, as a
    search and the mode profile's rank check form it."""
    f, _, bound = kernel_on(dp, None)(s)
    return fundsys._normalized(f, bound)


def end_residual(dp, s):
    """The boundary residual f(s) of the continuous system."""
    return kernel_on(dp, None)(s)[0]


def residual_bound(bound):
    """The Cauchy-Schwarz bound ||(P, Q)|| * ||(u, u')|| of |f| from the
    kernel's four factors (P, Q, u, u')."""
    P, Q, u, du = bound
    return math.hypot(abs(P), abs(Q)) * math.hypot(abs(u), abs(du))


def kernel_end_state(monkeypatch, dp, s, n, step):
    """(u(1), u'(1)) of solution 3 as the RK4 residual kernel computes
    them: the column (b, a) of the one propagator it builds."""
    built = []
    original = rk4._propagator

    def recording(*args):
        built.append(original(*args))
        return built[-1]

    with monkeypatch.context() as m:
        m.setattr(rk4, "_propagator", recording)
        rk4_kernel(dp, n, step)(s)
    *_, a, b = built[-1]
    return b, a


def kernel_polynomials(dp, s):
    """(P(s), Q(s)) as the residual evaluates them: P*u + Q*u' on an end
    state (u, u') of (1, 0), then (0, 1)."""
    row = fundsys._row_coefficients(dp)
    return [fundsys._residual(row, s, dp.nu, (None, a, b))[0]
            for a, b in ((0j, 1 + 0j), (1 + 0j, 0j))]


def secant_eigenvalue(dp, seed):
    """The complex secant search that Newton's method replaced, kept as a
    cross-check: second point seed + (1 + i)*1e-3, secant steps on the
    continuous system's residual until a step is below 1e-15*|s|, and the
    last evaluated iterate as the answer."""
    s0 = complex(seed.q, seed.omega)
    s1 = s0 + (1 + 1j) * 1e-3
    f0 = end_residual(dp, s0)
    for _ in range(100):
        f1 = end_residual(dp, s1)
        if f1 == 0 or f1 == f0:
            return s1
        s0, f0, s1 = s1, f1, s1 - f1 * (s1 - s0) / (f1 - f0)
        if abs(s1 - s0) <= 1e-15 * abs(s1):
            return s0
    raise AssertionError(f"secant did not settle from {seed}")


def lagrange_extrapolate(points, x):
    """Value at x of the polynomial through the (abscissa, value) points
    (Lagrange form, any number of points)."""
    total = 0j
    for i, (xi, yi) in enumerate(points):
        weight = 1.0
        for j, (xj, _) in enumerate(points):
            if j != i:
                weight *= (x - xj) / (xi - xj)
        total += weight * yi
    return total


def seed_omega(dp, w0):
    """The seed frequency of the undamped frequency w0, as sweep_feedback
    forms it: w0*sqrt(1 - (eps1*w0/2)^2) where eps1*w0 < 2, else w0."""
    e = dp.eps1 * w0
    return w0 * math.sqrt(1.0 - (0.5 * e) ** 2) if e < 2.0 else w0


def reference_sweep(dp, nu_values, modes, omega_max):
    """The per-row nu sweep that one coefficient row per sweep replaced,
    kept as a cross-check: a direct search on replace(dp, nu=...) per row,
    seeds from a Lagrange extrapolation through up to three converged rows
    at distinct nu, else from the previous row.  Mode by mode, then laid
    out grid position by grid position, modes in the order given; no
    duplicate or real-root guard."""
    roots = conservative.find_roots(dp, omega_max, max_count=max(modes))
    branches = []
    for mode in modes:
        w0 = roots[mode - 1].omega
        first = replace(dp, nu=nu_values[0])
        seed = fundsys.SpectralPoint(
            q=asymptotic.corrected_eigenvalue(w0, first).q,
            omega=seed_omega(dp, w0))
        history, branch = [], []
        for nu in nu_values:
            if len(history) >= 2:
                s = lagrange_extrapolate(history, nu)
                seed = fundsys.SpectralPoint(q=s.real, omega=s.imag)
            point = fundsys.find_eigenvalue(replace(dp, nu=nu), seed)
            branch.append(fundsys.SweepRow(
                nu=nu, mode=mode, q=point.q, omega=point.omega,
                delta_value=point.delta_value, converged=point.converged))
            seed = fundsys.SpectralPoint(q=point.q, omega=point.omega)
            s = complex(point.q, point.omega)
            if not point.converged:
                history = []
            elif history and history[-1][0] < nu:
                history = history[-2:] + [(nu, s)]
            else:
                history = [(nu, s)]
        branches.append(branch)
    return [row for at_nu in zip(*branches) for row in at_nu]


def row_bits(row):
    """A sweep row with its floats as hex strings, so that == is bit
    identity (it tells -0.0 from 0.0 and matches NaN)."""
    return (row.nu.hex(), row.mode, row.q.hex(), row.omega.hex(),
            row.delta_value.hex(), row.converged)


def equal_steps(length, step):
    """The fewest equal steps no longer than step over an interval of this
    length, with a relative 1e-12 for the rounding of length/step."""
    return max(1, math.ceil(length / step * (1.0 - 1e-12)))


def mp_rk4_power(K, n, step):
    """(a, b) of the propagator a*I + b*A of [0, 1] for an mpmath K, in the
    working precision: the RK4 step (1 + z/2 + z^2/24)*I + h*(1 + z/6)*A,
    z = h^2*K, raised to the power N = n*equal_steps(1/n, step), with h the
    double-precision 1/N that the code takes."""
    mp = pytest.importorskip("mpmath")

    def rk4_step(h):
        z = h * h * K
        return 1 + z / 2 + z * z / 24, h * (1 + z / 6)

    def mul(x, y):
        return x[0] * y[0] + x[1] * y[1] * K, x[0] * y[1] + x[1] * y[0]

    def power(x, m):
        result = (mp.mpc(1), mp.mpc(0))
        for bit in bin(m)[2:]:
            result = mul(result, result)
            if bit == "1":
                result = mul(result, x)
        return result

    count = n * equal_steps(1.0 / n, step)
    return power(rk4_step(mp.mpf(1.0 / count)), count)


def mp_end_propagator(q, omega, dp, n, step):
    """(a, b) of mp_rk4_power in 50-digit arithmetic, at the K that
    rhs_coefficients gives in double precision."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        K = mp.mpc(fundsys.rhs_coefficients(q, omega, dp.eps1))
        a, b = mp_rk4_power(K, n, step)
        return complex(a), complex(b)


def paper_boundary_coefficients(q, omega, dp):
    """(D1, D2, D3, D4): the paper's end-mass boundary polynomials, expanded
    in real (q, omega) as the paper writes them; D1 - i*D2 and D3 - i*D4
    are the coefficients of u(1) and u'(1) in the end-mass row."""
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
    return D1, D2, D3, D4


def propagator_entries(q, omega, dp, *args, **kwargs):
    """(a, b, b*K): the distinct entries of the propagator [[a, b],
    [b*K, a]] whose pair (a, b) integrate_fundamental returns."""
    a, b = rk4.integrate_fundamental(q, omega, dp, *args, **kwargs)
    return a, b, b * fundsys.rhs_coefficients(q, omega, dp.eps1)


def entry_error(entries, exact):
    """Largest gap between the real or imaginary parts of matching
    propagator entries: the largest entry gap of their real 4x4 forms."""
    return max(max(abs((x - y).real), abs((x - y).imag))
               for x, y in zip(entries, exact))


def undamped_gamma(omega, x):
    """Analytic propagator entries (a, b, b*K) for eps1 = 0, q = 0: the
    harmonic oscillator gamma'' = -omega^2 gamma."""
    c, s = np.cos(omega * x), np.sin(omega * x)
    return c, s / omega, -omega * s


def realify(M):
    """Real 4x4 form, on (u1, u2, u1', u2'), of a complex 2x2 matrix acting
    on (u, u')."""
    R = np.empty((4, 4))
    for i in range(2):
        for j in range(2):
            c = M[i][j]
            R[2 * i:2 * i + 2, 2 * j:2 * j + 2] = [[c.real, -c.imag],
                                                   [c.imag, c.real]]
    return R


def damped_gamma(q, omega, dp, x):
    """Analytic propagator entries (a, b, b*K) of u'' = lambda^2 u,
    lambda^2 = K."""
    lam = np.sqrt(fundsys.rhs_coefficients(q, omega, dp.eps1))
    s = np.sinh(lam * x)
    return np.cosh(lam * x), s / lam, lam * s


def reference_propagator(q, omega, dp, length, step):
    """The 4x4 construction: the RK4 Taylor polynomial of the real system
    matrix for the fewest equal steps over length no longer than step,
    raised to their count."""
    K = fundsys.rhs_coefficients(q, omega, dp.eps1)
    K1, K2 = K.real, K.imag
    A = np.array([[0.0, 0.0, 1.0, 0.0],
                  [0.0, 0.0, 0.0, 1.0],
                  [K1, -K2, 0.0, 0.0],
                  [K2, K1, 0.0, 0.0]])

    def rk4_step(h):
        M, term = np.eye(4), np.eye(4)
        for k in (1, 2, 3, 4):
            term = term @ (h * A) / k
            M = M + term
        return M

    count = equal_steps(length, step)
    return np.linalg.matrix_power(rk4_step(length / count), count)


def reference_delta(q, omega, dp, n, step):
    """Normalized determinant from n composed 4x4 subinterval propagators."""
    edges = np.linspace(0.0, 1.0, n + 1)
    G = np.eye(4)
    for a, b in zip(edges, edges[1:]):
        G = reference_propagator(q, omega, dp, b - a, step) @ G
    D1, D2, D3, D4 = paper_boundary_coefficients(q, omega, dp)
    cols = G[:, 2:4]
    rows = np.array([[D1, D2, D3, D4],
                     [-D2, D1, -D4, D3]])
    E = rows @ cols
    raw = E[0, 0] * E[1, 1] - E[0, 1] * E[1, 0]
    d_norm2 = D1**2 + D2**2 + D3**2 + D4**2
    return max(raw, 0.0) / (0.5 * d_norm2 * float(np.sum(cols * cols)))


# ------------------------------------------------------------ rhs coefficients

def test_rhs_coefficients_undamped():
    assert fundsys.rhs_coefficients(0.3, 1.1, 0.0) == pytest.approx(
        complex(0.3**2 - 1.1**2, 2 * 0.3 * 1.1))
    K = fundsys.rhs_coefficients(0.0, 2.0, 0.0)
    assert (K.real, K.imag) == (-4.0, 0.0)


def test_rhs_coefficients_zero_frequency_has_no_coupling():
    for q, eps1 in ((0.5, 0.0), (-0.2, 0.03), (1.0, 0.1)):
        assert fundsys.rhs_coefficients(q, 0.0, eps1).imag == 0.0


def test_rhs_coefficients_complex_oracle():
    # K must equal s^2/(1 + eps1*s) with s = q + i*omega.
    rng = np.random.default_rng(41)
    for _ in range(300):
        q = rng.uniform(-2, 2)
        omega = rng.uniform(0.01, 10)
        eps1 = rng.uniform(0, 0.2)
        s = complex(q, omega)
        expected = s * s / (1.0 + eps1 * s)
        assert fundsys.rhs_coefficients(q, omega, eps1) == pytest.approx(
            expected, rel=1e-12)


def test_rhs_coefficients_is_k_to_a_few_ulp():
    # K = s^2/(1 + eps1*s) in complex arithmetic against 34 digits: over the
    # outside-box ranges, near the pole 1 + eps1*s = 0 and out to |s| = 1e150
    # (a fifth of those undamped), K is within 4 ulp of |K| times
    # (1 + |eps1*s|)/|1 + eps1*s|, the condition of forming 1 + eps1*s
    # (1.44 of those units at worst when drawn).  ZeroDivisionError comes
    # exactly where eps1^2*omega^2 + (1 + eps1*q)^2 is at most 1e-30, about
    # half of the draws near the pole.
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(29)
    ulp, raised = 2.0 ** -52, 0
    for kind in ("outside", "pole", "large") * 100:
        turn = np.exp(1j * rng.uniform(-np.pi, np.pi))
        eps1 = 10.0 ** rng.uniform(-4.0, 0.5)
        if kind == "outside":
            s = 10.0 ** rng.uniform(-3.0, 1.5) * turn
        elif kind == "pole":
            s = (-1.0 + 10.0 ** rng.uniform(-16.5, -13.5) * turn) / eps1
        else:
            s = 10.0 ** rng.uniform(100.0, 150.0) * turn
            eps1 = eps1 if rng.random() < 0.8 else 0.0
        q, omega = float(s.real), float(s.imag)
        x = 1.0 + eps1 * q
        if eps1 * eps1 * omega * omega + x * x <= 1e-30:
            with pytest.raises(ZeroDivisionError):
                fundsys.rhs_coefficients(q, omega, eps1)
            raised += 1
            continue
        K = fundsys.rhs_coefficients(q, omega, eps1)
        with mp.workdps(34):
            s, eps1 = mp.mpc(q, omega), mp.mpf(eps1)
            exact = s * s / (1 + eps1 * s)
            condition = (1 + abs(eps1 * s)) / abs(1 + eps1 * s)
            assert abs(mp.mpc(K) - exact) <= 4 * ulp * abs(exact) * condition, (
                kind, q, omega, eps1)
    assert 30 <= raised <= 70


def test_rhs_coefficients_degenerate_denominator():
    # 1 + eps1*q = 0 and omega = 0 annihilates the denominator.
    with pytest.raises(ZeroDivisionError):
        fundsys.rhs_coefficients(-10.0, 0.0, 0.1)


@pytest.mark.parametrize("q, omega", [(np.nan, 1.0), (0.0, np.nan),
                                      (np.inf, 1.0), (0.0, -np.inf)])
def test_rhs_coefficients_rejects_non_finite_point(q, omega):
    with pytest.raises(ValueError):
        fundsys.rhs_coefficients(q, omega, 0.005)
    with pytest.raises(ValueError):
        rk4.delta_subdivided(q, omega, REF)


# -------------------------------------------------------- boundary coefficients

def test_boundary_coefficients_conservative_values():
    omega = 1.3
    bc = fundsys.boundary_coefficients(0.0, omega, UNDAMPED)
    assert bc.D1 == pytest.approx(-UNDAMPED.eta * omega**2, rel=1e-15)
    assert bc.D2 == 0.0
    assert bc.D3 == pytest.approx(1 - UNDAMPED.eta * UNDAMPED.delta * omega**2,
                                  rel=1e-15)
    assert bc.D4 == 0.0


def test_boundary_coefficients_static_limit():
    bc = fundsys.boundary_coefficients(0.0, 0.0, REF)
    assert (bc.D1, bc.D2, bc.D4) == (0.0, 0.0, 0.0)
    assert bc.D3 == 1.0


def test_boundary_coefficients_complex_oracle():
    # Independent re-derivation: with u = U(x) e^{s tau}, the end-mass
    # boundary condition reads P(s) U(1) + Q(s) U'(1) = 0 where
    #   P(s) = eta*delta*(nu+mu)*s^3 + eta*s^2
    #   Q(s) = eps1*eta*delta*s^3 + delta*(eta+eps1*mu)*s^2
    #          + (mu*delta+eps1)*s + 1
    # and D1 = Re P, D2 = -Im P, D3 = Re Q, D4 = -Im Q.
    rng = np.random.default_rng(17)
    for _ in range(300):
        q = rng.uniform(-2, 2)
        omega = rng.uniform(0.0, 10)
        dp = random_dp(rng)
        s = complex(q, omega)
        P = dp.eta * dp.delta * (dp.nu + dp.mu) * s**3 + dp.eta * s**2
        Q = (dp.eps1 * dp.eta * dp.delta * s**3
             + dp.delta * (dp.eta + dp.eps1 * dp.mu) * s**2
             + (dp.mu * dp.delta + dp.eps1) * s + 1.0)
        bc = fundsys.boundary_coefficients(q, omega, dp)
        assert bc.D1 == pytest.approx(P.real, rel=1e-12, abs=1e-12)
        assert bc.D2 == pytest.approx(-P.imag, rel=1e-12, abs=1e-12)
        assert bc.D3 == pytest.approx(Q.real, rel=1e-12, abs=1e-12)
        assert bc.D4 == pytest.approx(-Q.imag, rel=1e-12, abs=1e-12)


def test_kernel_polynomials_match_boundary_coefficients():
    # The search evaluates P and Q as complex polynomials in s; they must
    # be the paper's D1 - i*D2 and D3 - i*D4, and boundary_coefficients
    # must be their real form bit for bit.
    rng = np.random.default_rng(19)
    for k in range(300):
        dp = REF if k < 20 else random_dp(rng)
        if k % 3 == 0:
            dp = replace(dp, nu=0.0)
        s = complex(rng.uniform(-2, 2), rng.uniform(0.0, 10))
        D1, D2, D3, D4 = paper_boundary_coefficients(s.real, s.imag, dp)
        P, Q = kernel_polynomials(dp, s)
        assert abs(P - complex(D1, -D2)) <= 1e-13 * abs(P)
        assert abs(Q - complex(D3, -D4)) <= 1e-13 * abs(Q)
        bc = fundsys.boundary_coefficients(s.real, s.imag, dp)
        assert (complex(bc.D1, -bc.D2), complex(bc.D3, -bc.D4)) == (P, Q)


# ------------------------------------------------------------------ integrator

def test_integrator_matches_harmonic_oracle():
    entries = propagator_entries(0.0, np.pi, UNDAMPED, step=1.0 / 2000.0)
    a, b, _ = entries
    assert a.real == pytest.approx(-1.0, abs=1e-8)   # cos(pi)
    assert b.real == pytest.approx(0.0, abs=1e-8)    # sin(pi)/pi
    assert entry_error(entries, undamped_gamma(np.pi, 1.0)) < 1e-8


@pytest.mark.parametrize("q, omega", [(-0.3, 2.0 * np.pi), (0.4, 5.0),
                                      (-1.0, 8.0)])
def test_integrator_matches_damped_oracle(q, omega):
    exact = damped_gamma(q, omega, REF, 1.0)
    e1 = entry_error(propagator_entries(q, omega, REF, step=1.0 / 2000.0),
                     exact)
    e2 = entry_error(propagator_entries(q, omega, REF, step=1.0 / 4000.0),
                     exact)
    assert e1 < 1e-8
    assert e2 <= e1 / 8.0


def test_integrator_matches_matrix_reference():
    rng = np.random.default_rng(11)
    for _ in range(40):
        dp = random_dp(rng)
        q = rng.uniform(-1, 1)
        omega = rng.uniform(0.01, 10)
        # 0.0007 and 0.003 do not divide 1: [0, 1] takes equal steps
        # just shorter than them.
        for step in (1.0 / 500.0, 1.0 / 300.0, 0.0007, 0.003):
            a, b, bK = propagator_entries(q, omega, dp, step)
            G = realify([[a, b], [bK, a]])
            ref = reference_propagator(q, omega, dp, 1.0, step)
            assert np.max(np.abs(G - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [1, 2, 8])
def test_delta_subdivided_matches_matrix_reference(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(30):
        dp = random_dp(rng)
        q = rng.uniform(-1, 1)
        omega = rng.uniform(0.01, 10)
        # 1/700 does not divide 1/8, so n = 8 takes equal steps of 1/704.
        step = rng.choice([1.0 / 2000.0, 1.0 / 700.0])
        value = rk4.delta_subdivided(q, omega, dp, n=n, step=step)
        assert abs(value - reference_delta(q, omega, dp, n, step)) <= 1e-12


def test_integrator_fourth_order_error_signature():
    exact = undamped_gamma(np.pi, 1.0)
    e1 = entry_error(propagator_entries(0.0, np.pi, UNDAMPED,
                                        step=1.0 / 250.0), exact)
    e2 = entry_error(propagator_entries(0.0, np.pi, UNDAMPED,
                                        step=1.0 / 500.0), exact)
    assert e2 <= e1 / 8.0


def test_integrator_non_dividing_step_lands_on_endpoint():
    # Neither step divides 1: [0, 1] takes the fewest equal steps no longer
    # than it, count steps of 1/count that land exactly on x = 1.
    omega = 2.0
    for step in (0.0007, 0.003):
        count = rk4._step_count(1, step)
        assert (count - 1) * step < 1.0 < count * step
        entries = propagator_entries(0.0, omega, UNDAMPED, step=step)
        assert entries == propagator_entries(0.0, omega, UNDAMPED,
                                             step=1.0 / count)
        assert entry_error(entries, undamped_gamma(omega, 1.0)) < 1e-9


def test_fundamental_determinant_is_one():
    # det [[a, b], [b*K, a]] = a^2 - b^2*K; its real 4x4 form has |det|^2.
    rng = np.random.default_rng(5)
    for _ in range(25):
        dp = random_dp(rng)
        q = rng.uniform(-1, 1)
        omega = rng.uniform(0.1, 8)
        a, b, bK = propagator_entries(q, omega, dp, step=1.0 / 500.0)
        det = a * a - b * bK
        assert det == pytest.approx(1.0, abs=1e-6)
        assert abs(det) ** 2 == pytest.approx(1.0, abs=1e-6)


def test_integrator_overflow_raises():
    with pytest.raises(OverflowError):
        rk4.integrate_fundamental(400.0, 1.0, UNDAMPED, step=1.0 / 500.0)


@pytest.mark.parametrize("step", [DEFAULT_STEP, 1e-7])
def test_cmath_overflow_raises_the_modules_message(step):
    # At s = 5000 + i, |sqrt(K)| ~ 980: cosh overflows inside cmath, on the
    # RK4 branch at the default step and on exp(A) at step 1e-7.  It raised
    # cmath's bare 'math range error'.
    message = "^fundamental matrix entry exceeded 1e150"
    with pytest.raises(OverflowError, match=message):
        rk4.integrate_fundamental(5000.0, 1.0, REF, step)
    with pytest.raises(OverflowError, match=message):
        rk4.delta_subdivided(5000.0, 1.0, REF, 1, step)


@pytest.mark.parametrize("count", [None, 8])
@pytest.mark.parametrize("q, omega, eps1", [(9.6e296, 1.0, 14.25),
                                            (0.0, 1e200, 0.005)])
def test_non_finite_k_raises_the_modules_message(q, omega, eps1, count):
    # s is finite but s^2 overflows, so K is inf - inf*j or NaN: cmath.cosh
    # raised a bare 'ValueError: math domain error' on exp(A), which a
    # search on a config with nu or mu = 1e300 reached.
    assert not cmath.isfinite(fundsys.rhs_coefficients(q, omega, eps1))
    with pytest.raises(OverflowError,
                       match="^fundamental matrix entry exceeded 1e150"):
        propagator(q, omega, eps1, count)


def test_modulus_past_the_float_range_raises_the_modules_message():
    # At s = 710.6 + i*pi/4 with eps1 = 0, r = s and cosh(r) has both parts
    # ~1.44e308: finite, but abs() of it raises 'absolute value too large'.
    with pytest.raises(OverflowError,
                       match="^fundamental matrix entry exceeded 1e150"):
        fundsys._propagator_at(710.6, math.pi / 4, 0.0)


def test_singular_rk4_step_raises():
    # 1 + z = 0: the step's propagator has a zero eigenvalue.
    with pytest.raises(ZeroDivisionError, match="^singular RK4 step: "):
        rk4._log1p(-1 + 0j)


def test_integrator_underflow_raises():
    # 3000 RK4 steps of h*omega = 2, each shrinking |u| by |R(2i)| = 0.745,
    # leave the float range: a zero u(1) makes the residual f = Q(s), whose
    # zeros searches reported as converged.
    with pytest.raises(OverflowError, match="underflow"):
        rk4.integrate_fundamental(0.0, 6000.0, UNDAMPED, step=2.0 / 6000.0)
    # At omega ~ 1e-75 one step of 1e-300 has h*sqrt(K) below the float
    # range, which zeroed RK4's exponents; that step is exp(A) to rounding,
    # and the search finds the continuous eigenvalue.
    mp = pytest.importorskip("mpmath")
    dp = replace(REF, eta=1e150)
    w1 = conservative.find_roots(dp, 20.0, max_count=1)[0].omega
    point = fundsys.find_eigenvalue(
        dp, fundsys.SpectralPoint(q=0.0, omega=w1),
        fundsys.SolveOptions(step=1e-300, subintervals=8))
    assert point.converged
    s = complex(point.q, point.omega)
    with mp.workdps(34):
        exact = mp_newton(mp_residual(dp), s)
        assert abs(s - exact) <= 1e-12 * abs(exact), (s, exact)


def test_subinterval_shorter_than_rounding_slop_is_one_step():
    # 1/subintervals = 1e-15 used to be dropped as rounding of no full
    # steps: the propagator was the identity and the search converged on
    # a zero of Q(s), at omega = 1.195 for mode 1.
    assert rk4._step_count(10**15, DEFAULT_STEP) == 10**15
    seed = asymptotic_seeds(REF, 1)[0]
    point = fundsys.find_eigenvalue(
        REF, seed, fundsys.SolveOptions(subintervals=10**15))
    production = fundsys.find_eigenvalue(REF, seed)
    assert point.converged
    assert abs(complex(point.q, point.omega)
               - complex(production.q, production.omega)) < 1e-9


def test_step_count_is_the_fewest_equal_steps_no_longer_than_step():
    # Seeded draws step = 10^U(-7, 1): the count is a multiple of n, its
    # steps 1/count are no longer than step (in exact arithmetic), and n
    # fewer steps would be too long.  A step 1/(n*m) that divides every
    # subinterval gives exactly n*m; an absolute slop of 1e-9 on the
    # quotient got nearly 1% of those wrong.
    rng = np.random.default_rng(23)
    for n in (1, 3, 8, 12, 10**6):
        for step in 10.0 ** rng.uniform(-7.0, 1.0, 500):
            count = rk4._step_count(n, step)
            assert count % n == 0 and count >= n
            assert Fraction(1, count) <= Fraction(step)
            if count > n:
                assert Fraction(1, count - n) > Fraction(step)
        for m in 10.0 ** rng.uniform(0.0, 11.0, 500):
            m = int(m)
            assert rk4._step_count(n, 1.0 / (n * m)) == n * m


def test_step_longer_than_a_subinterval_is_one_step():
    # A step of 1e160 made the unused full-step exponent NaN (0*inf): the
    # propagator raised OverflowError, and the search came back
    # unconverged with a NaN determinant.
    one = rk4.integrate_fundamental(0.0, 1.0, REF, step=1.0)
    for step in (3.0, 1e10, 1e160, 1e300):
        assert rk4.integrate_fundamental(0.0, 1.0, REF, step=step) == one
    seed = asymptotic_seeds(REF, 1)[0]
    point = fundsys.find_eigenvalue(
        REF, seed, fundsys.SolveOptions(step=1e160, subintervals=8))
    assert point.converged
    assert point == fundsys.find_eigenvalue(
        REF, seed, fundsys.SolveOptions(step=0.125, subintervals=8))


def test_power_of_two_split_is_exact_at_a_dividing_step():
    # At step 1/2000 the splits 1, 2, 4 and 8 all take the same 2000 equal
    # steps, so the kernel's output is the same bit for bit.
    rng = np.random.default_rng(31)
    step = 1.0 / 2000.0
    for dp in [REF] + [random_dp(rng) for _ in range(4)]:
        kernels = [rk4_kernel(dp, n, step) for n in (1, 2, 4, 8)]
        for _ in range(20):
            s = complex(rng.uniform(-1.0, 0.5), rng.uniform(0.01, 20.0))
            first = kernels[0](s)
            assert all(kernel(s) == first for kernel in kernels[1:])


@pytest.mark.parametrize("step", [1.0 / 2000.0, 0.0007, 0.05, 0.2])
@pytest.mark.parametrize("n", [1, 3, 8])
def test_end_propagator_matches_exact_rk4_power(monkeypatch, step, n):
    # The closed form exp(L)*(cosh(T)*I + sinh(T)*A/sqrt(K)) against the
    # RK4 step polynomial raised to the same power in 50 digits; 0.0007
    # divides no subinterval, so its equal steps are shorter than it.
    rng = np.random.default_rng(int(step * 1e4) + n)
    for _ in range(6):
        dp = random_dp(rng)
        q = rng.uniform(-1.0, 0.5)
        omega = rng.uniform(0.01, min(20.0, 2.5 / step))
        K = fundsys.rhs_coefficients(q, omega, dp.eps1)
        u, du = kernel_end_state(monkeypatch, dp, complex(q, omega), n, step)
        a, b = mp_end_propagator(q, omega, dp, n, step)
        errors = (abs(du - a), abs(u - b), abs((u - b) * K))
        assert max(errors) <= 1e-13 * max(abs(a), abs(b), abs(b * K))


def test_end_propagator_reaches_its_limit_at_zero(monkeypatch):
    # K = 0 at s = 0, where A is nilpotent and the propagator of [0, 1] is
    # I + A: u(1) = u'(1) = 1, so f = Q(0) = 1, f' = Q'(0), and the bound's
    # factors (P, Q, u, u') are (0, 1, 1, 1), a bound of sqrt(2).
    # Near it the exact end state is (sinh(l)/l, cosh(l)) = (1 + K/6,
    # 1 + K/2) to O(K^2).
    for n, step in ((1, 1.0 / 2000.0), (8, 0.0007)):
        assert kernel_end_state(monkeypatch, REF, 0j, n, step) == (1, 1)
        f, df, bound = rk4_kernel(REF, n, step)(0j)
        assert (f, df, bound) == (1, REF.eps1 + REF.mu * REF.delta,
                                  (0, 1, 1, 1))
        assert residual_bound(bound) == np.sqrt(2.0)
        for s in (1e-150j, 1e-9j, 1e-7 * (1 + 1j), complex(-1e-8, 0.0)):
            K = fundsys.rhs_coefficients(s.real, s.imag, REF.eps1)
            u, du = kernel_end_state(monkeypatch, REF, s, n, step)
            assert abs(u - (1 + K / 6)) <= 1e-15
            assert abs(du - (1 + K / 2)) <= 1e-15
    assert rk4.integrate_fundamental(0.0, 0.0, REF) == (1, 1)


@pytest.mark.parametrize("step", [1.0 / 2000.0, 0.01])
@pytest.mark.parametrize("n", [1, 8])
def test_residual_kernel_takes_nu_as_an_argument(monkeypatch, n, step):
    # The residual on dp's row at nu is bit for bit the residual on the
    # row of replace(dp, nu=nu), and f is affine in nu: only P's s^3
    # coefficient eta*delta*(nu + mu) moves, so
    # f(s; nu) - f(s; 0) = nu*eta*delta*s^3*u(1).
    # The gap is measured against the bound scale of |f|, because f(nu) -
    # f(0) cancels digits when nu*delta*|s| is small.
    rng = np.random.default_rng(39 + n)
    for dp in [REF] + [small_dissipation_dp(rng) for _ in range(6)]:
        kernel = rk4_kernel(dp, n, step)
        for seed in asymptotic_seeds(dp, 5):
            s = (complex(seed.q, seed.omega)
                 + complex(*rng.uniform(-1e-3, 1e-3, 2)))
            u, _ = kernel_end_state(monkeypatch, dp, s, n, step)
            f0 = kernel(s, 0.0)[0]
            assert kernel(s) == kernel(s, dp.nu)
            for nu in (0.0, 0.013, 0.05, 0.1):
                f, df, bound = kernel(s, nu)
                assert (f, df, bound) == rk4_kernel(
                    replace(dp, nu=nu), n, step)(s)
                gap = f - f0 - nu * dp.eta * dp.delta * s ** 3 * u
                assert abs(gap) <= 1e-13 * residual_bound(bound)


# ------------------------------------------------------------------ determinant

def test_delta_vanishes_on_conservative_spectrum():
    roots = conservative.find_roots(UNDAMPED, omega_max=10.0)
    assert len(roots) >= 2
    for r in roots:
        assert rk4.delta_subdivided(0.0, r.omega, UNDAMPED, n=1,
                                    step=1.0 / 2000.0) < 1e-10


def test_delta_positive_off_spectrum():
    w1 = conservative.find_roots(UNDAMPED, omega_max=1.0)[0].omega
    assert rk4.delta_subdivided(0.3, w1, UNDAMPED, n=1,
                                step=1.0 / 1000.0) > 1e-4


def test_delta_nonnegative_at_random_points():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        q = rng.uniform(-1, 1)
        omega = rng.uniform(1e-3, 10.0)
        value = rk4.delta_subdivided(q, omega, REF, n=1,
                                     step=1.0 / 200.0)
        assert value >= 0.0


def test_delta_subdivided_single_interval_equals_basic():
    # n = 1 is the end-mass row P*u(1) + Q*u'(1) on one integration of
    # [0, 1], normalized by its Cauchy-Schwarz bound: the same arithmetic,
    # so bitwise equal.
    for (q, omega) in ((0.0, OMEGA_1), (0.1, 2.0), (-0.3, 5.5)):
        du, u = rk4.integrate_fundamental(q, omega, REF, step=1.0 / 500.0)
        D = fundsys.boundary_coefficients(q, omega, REF)
        P, Q = complex(D.D1, -D.D2), complex(D.D3, -D.D4)
        r = (P * u + Q * du) / (math.hypot(abs(P), abs(Q))
                                * math.hypot(abs(u), abs(du)))
        value = rk4.delta_subdivided(q, omega, REF, n=1, step=1.0 / 500.0)
        assert value == r.real * r.real + r.imag * r.imag


def test_delta_subdivided_consistency():
    rng = np.random.default_rng(77)
    for _ in range(20):
        q = rng.uniform(-0.05, 0.05)
        omega = OMEGA_1 + rng.uniform(-0.05, 0.05)
        d1 = rk4.delta_subdivided(q, omega, REF, n=1, step=1.0 / 1000.0)
        for n in (2, 4, 8):
            dn = rk4.delta_subdivided(q, omega, REF, n=n, step=1.0 / 1000.0)
            assert abs(dn - d1) / (1.0 + d1) < 1e-6


def test_delta_subdivided_composition_matches_oracle():
    # (a, b) composes as a*I + b*A does: A^2 = K*I.  Each subinterval's
    # pair is read off the 4x4 reference: a from the u column, b from u'.
    n = 4
    K = fundsys.rhs_coefficients(0.0, np.pi, UNDAMPED.eps1)
    a, b = 1, 0
    for _ in range(n):
        G = reference_propagator(0.0, np.pi, UNDAMPED, 1.0 / n, 1.0 / 2000.0)
        ai, bi = complex(G[0, 0], G[1, 0]), complex(G[0, 2], G[1, 2])
        a, b = ai * a + bi * b * K, ai * b + bi * a
    assert a.real == pytest.approx(-1.0, abs=1e-8)
    du, u = rk4.integrate_fundamental(0.0, np.pi, UNDAMPED,
                                      step=1.0 / 2000.0)
    assert abs(a - du) <= 1e-12 and abs(b - u) <= 1e-12


def test_delta_subdivided_composed_overflow_raises():
    # Each subinterval stays below the limit; only the product exceeds it.
    sub = reference_propagator(0.0, 1e4, REF, 0.125, DEFAULT_STEP)
    assert np.max(np.abs(sub)) <= fundsys.OVERFLOW_LIMIT
    with pytest.raises(OverflowError):
        rk4.delta_subdivided(0.0, 1e4, REF)


@pytest.mark.parametrize("n", [1, 8, 200])
def test_kernel_builds_one_propagator_per_evaluation(monkeypatch, n):
    # The end state comes straight from the composed propagator over [0, 1];
    # the subinterval's is never built, whatever the subinterval count.
    # delta_subdivided builds the RK4 one, of its step count; a search
    # builds exp(A) (no count), one per evaluation, whatever its options.
    built = []

    def recording(module, name):
        original = getattr(module, name)

        def record(*args):
            built.append((name, args))
            return original(*args)

        monkeypatch.setattr(module, name, record)

    recording(fundsys, "_propagator_at")
    recording(rk4, "_propagator")
    calls = count_rhs_calls(monkeypatch)
    for step in (DEFAULT_STEP, 0.01):
        for s in (complex(-0.01, 0.35), complex(0.0, 5.0),
                  complex(0.3, 17.0)):
            built.clear()
            rk4.delta_subdivided(s.real, s.imag, REF, n, step)
            assert built == [("_propagator", (s.real, s.imag, REF.eps1,
                                              rk4._step_count(n, step)))]
        built.clear()
        calls.clear()
        seed = asymptotic_seeds(REF, 2)[-1]
        assert fundsys.find_eigenvalue(
            REF, seed, fundsys.SolveOptions(step, n)).converged
        assert len(built) == len(calls) > 0
        assert {(name, len(args)) for name, args in built} == {
            ("_propagator_at", 3)}


def mp_exponent_propagator(K, count):
    """(a, b) of count RK4 steps for an mpmath K from their exponent form, in
    the working precision: w = h*r with r = sqrt(K) and h the
    double-precision 1/count, l +- t = log(1 + e +- w*(1 + z/6)) with
    z = w^2 and e = z/2 + z^2/24, (L, T) = count*(l, t), a = exp(L)*cosh(T)
    and b = exp(L)*sinh(T)/r."""
    mp = pytest.importorskip("mpmath")
    r = mp.sqrt(K)
    w = mp.mpf(1.0 / count) * r
    z = w * w
    e, bw = z / 2 + z * z / 24, w * (1 + z / 6)
    plus, minus = mp.log(1 + e + bw), mp.log(1 + e - bw)
    L, T = count * (plus + minus) / 2, count * (plus - minus) / 2
    return mp.exp(L) * mp.cosh(T), mp.exp(L) * mp.sinh(T) / r


def test_closed_form_propagator_is_rk4_to_rounding():
    # With the fewest steps that put |h*sqrt(K)| below exact_step, where
    # the steps are exp(A) to rounding, the propagator is RK4's exponent
    # form in 50 digits within 4*2^-52*cosh(Re r)*(1 + |r|): a relative
    # rounding of the exponent T moves cosh(T) by up to |r|*cosh(Re r) of
    # it.  b is compared with that scale over max(1, |r|).  Drawn: K in all
    # four quadrants, near the rhs pole (1 + eps1*s ~ 0, |K| up to 8e4) and
    # near K = 0 (one step).
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(28)
    ulp, quadrants = 2.0 ** -52, set()
    exact_step = (120.0 * 2.0 ** -53) ** 0.25   # ~3.4e-4
    for kind in ("quadrant", "pole", "zero") * 100:
        turn = np.exp(1j * rng.uniform(-np.pi, np.pi))
        if kind == "quadrant":
            s, eps1 = 10.0 ** rng.uniform(-2.0, 1.3) * turn, 0.005
        elif kind == "pole":
            s, eps1 = -2.0 + 10.0 ** rng.uniform(-4.0, -2.0) * turn, 0.5
        else:
            s, eps1 = 10.0 ** rng.uniform(-12.0, -4.0) * turn, 0.005
        q, omega = float(s.real), float(s.imag)
        K = fundsys.rhs_coefficients(q, omega, eps1)
        quadrants.add((K.real > 0, K.imag > 0))
        count = max(1, math.ceil(abs(K) ** 0.5 / exact_step))
        r, a, b = rk4._propagator(q, omega, eps1, count)
        with mp.workdps(50):
            exact_a, exact_b = mp_exponent_propagator(mp.mpc(K), count)
            scale = 4 * ulp * math.cosh(r.real) * (1.0 + abs(r))
            assert abs(a - exact_a) <= scale, (q, omega, eps1, count)
            assert abs(b - exact_b) * max(1.0, abs(r)) <= scale, (
                q, omega, eps1, count)
    assert len(quadrants) == 4


def test_rk4_propagator_past_the_cosh_range_is_in_range():
    # 8000 RK4 steps at this point have exponents L ~ -2503 - 1126j and
    # T ~ 1874 - 16579j: exp(L) underflows and cosh(T) overflows, but the
    # entries, ~1e-274, are in range.  They raised "exceeded 1e150"; they
    # now come from the steps' eigenvalue powers e^(L +- T).  A relative
    # rounding of the exponents, |L +- T| up to ~1.8e4, moves an entry by
    # up to ~4e-12 of itself (5.4e-12 seen).
    mp = pytest.importorskip("mpmath")
    q, omega = -2569.609278492613, 9.940254866056055
    dp = replace(REF, eps1=3.9853927879276833e-4)
    a, b = rk4.integrate_fundamental(q, omega, dp, step=1.0 / 8000.0)
    assert 1e-276 < abs(a) < 1e-272
    K = fundsys.rhs_coefficients(q, omega, dp.eps1)
    with mp.workdps(50):
        exact_a, exact_b = mp_exponent_propagator(mp.mpc(K), 8000)
        assert abs(a - exact_a) <= 2e-11 * abs(exact_a)
        assert abs(b - exact_b) <= 2e-11 * abs(exact_b)


def test_unevaluated_last_steps_follow_exp_a_evaluations(monkeypatch):
    # A search ends on a Newton step it does not evaluate only from an
    # evaluation whose propagator is exp(A) (no count), where f' is the
    # residual's own slope.  Every search evaluation is exp(A), so this
    # holds at every step: at step 0.0005 modes 2-7 of the reference set,
    # whose RK4 steps are not exp(A) to rounding, end so as mode 1 does,
    # as they do at the default step.
    builds = []
    original = fundsys._propagator_at

    def recording(q, omega, *args):
        builds.append((complex(q, omega), args))
        return original(q, omega, *args)

    monkeypatch.setattr(fundsys, "_propagator_at", recording)
    free = []
    for opts in (fundsys.SolveOptions(), fundsys.SolveOptions(step=0.0005)):
        for mode, seed in enumerate(asymptotic_seeds(REF, 7), 1):
            builds.clear()
            point = fundsys.find_eigenvalue(REF, seed, opts)
            assert point.converged
            assert all(args == (REF.eps1,) for _, args in builds)
            if complex(point.q, point.omega) != builds[-1][0]:
                free.append((opts.step, mode))
    assert len(free) >= 7
    assert ([mode for step, mode in free if step == 0.0005]
            == [mode for step, mode in free if step != 0.0005])
    assert len([mode for step, mode in free if step == 0.0005]) > 1


# Outside small dissipation, mode 1 is aperiodic: a real root near
# s = -0.0622733.
APERIODIC = DimensionlessParams(
    eps1=0.0022989367474588176, mu=9.687177258985631, nu=0.02,
    eta=7.490796060555215, delta=1.7389555402781556)


@pytest.mark.parametrize("omega", [1e-36, 1e-20, 1e-12])
def test_unevaluated_last_step_keeps_to_the_band(omega):
    # From a seed just above the real root, the Newton step lands below
    # the real axis, which ends the search unconverged at the seed.  An
    # unevaluated last step taken without the band test reported that
    # point, omega ~ -2.6e-26 and below, as converged.
    seed = fundsys.SpectralPoint(q=-0.0622733160591, omega=omega)
    point = fundsys.find_eigenvalue(APERIODIC, seed)
    assert not point.converged
    assert (point.q, point.omega) == (seed.q, seed.omega)


def test_default_step_searches_skip_the_rk4_logarithms(monkeypatch):
    # A default-step sweep of every reference mode below omega = 20 takes
    # none of RK4's logarithms.  Mode 2's RK4 system, which
    # delta_subdivided evaluates, takes two per evaluation at any step,
    # the default one included; its search takes none (below).
    logs = []
    original = rk4._log1p

    def counting(z):
        logs.append(z)
        return original(z)

    monkeypatch.setattr(rk4, "_log1p", counting)
    calls = count_rhs_calls(monkeypatch)
    rows = fundsys.sweep_feedback(REF, [REF.nu], range(1, 8))
    assert all(row.converged for row in rows) and calls
    assert logs == []
    seed = asymptotic_seeds(REF, 2)[1]
    for step in (DEFAULT_STEP, 0.0005):
        logs.clear()
        calls.clear()
        rk4.delta_subdivided(seed.q, seed.omega, REF, 8, step)
        assert len(logs) == 2 * len(calls) == 2


@pytest.mark.parametrize("step", [0.2, 0.05, 0.01, 0.0005, DEFAULT_STEP])
def test_searches_and_mode_profiles_take_no_log1p_or_exp(monkeypatch, step):
    # Every search and mode profile runs on exp(A), a = cosh(r) and
    # b = sinh(r)/r, with neither RK4's logarithms nor exp(L), at every
    # step: the RK4 system of the options takes both.
    calls, exp, log1p = [], cmath.exp, rk4._log1p
    monkeypatch.setattr(rk4, "_log1p",
                        lambda z: calls.append("_log1p") or log1p(z))
    monkeypatch.setattr(cmath, "exp", lambda z: calls.append("exp") or exp(z))
    opts = fundsys.SolveOptions(step=step)
    rhs = count_rhs_calls(monkeypatch)
    rows = fundsys.sweep_feedback(REF, [REF.nu], range(1, 8), options=opts)
    assert all(row.converged for row in rows)
    for seed, row in zip(asymptotic_seeds(REF, 7), rows):
        assert fundsys.find_eigenvalue(REF, seed, opts).converged
        fundsys.mode_shape(row, REF)
    assert calls == [] and rhs


def test_integrate_fundamental_is_the_kernels_propagator(monkeypatch):
    # integrate_fundamental and the n = 1 residual kernel build the same
    # [0, 1] propagator, so its (a, b) is the kernel's end state (u', u)
    # bit for bit: one code path, not two that agree.
    rng = np.random.default_rng(43)
    for _ in range(200):
        dp = random_dp(rng)
        step = float(rng.choice([1.0 / 2000.0, 0.0007, 0.01, 0.05]))
        q, omega = rng.uniform(-1.0, 0.5), rng.uniform(0.01, 20.0)
        u, du = kernel_end_state(monkeypatch, dp, complex(q, omega), 1, step)
        assert rk4.integrate_fundamental(q, omega, dp, step) == (du, u)


def test_delta_subdivided_rejects_bad_count():
    with pytest.raises(ValueError):
        rk4.delta_subdivided(0.0, 1.0, REF, n=0)


@pytest.mark.parametrize("step", [1e-320, 5e-324])
def test_subnormal_step_is_a_value_error(step):
    # length/step overflows to inf, whose step count int(floor(inf)) raised
    # OverflowError, which says a propagator entry left the float range,
    # instead of rejecting the step.
    with pytest.raises(ValueError, match="too small"):
        rk4.delta_subdivided(0.0, 0.35, REF, 1, step)
    with pytest.raises(ValueError, match="too small"):
        rk4.integrate_fundamental(0.0, 0.35, REF, step=step)


# ------------------------------------------------------------------- eigensolve

def test_find_eigenvalue_recovers_conservative_root():
    seed = fundsys.SpectralPoint(q=0.01, omega=0.36)
    point = fundsys.find_eigenvalue(UNDAMPED, seed)
    assert point.converged
    assert point.q == pytest.approx(0.0, abs=1e-6)
    assert point.omega == pytest.approx(OMEGA_1, abs=1e-6)
    assert point.delta_value < 1e-12


def test_find_eigenvalue_near_critical_feedback_is_neutral():
    dp = DimensionlessParams(0.005, 0.008, 0.0529760481, 7.0, 0.1)
    ev = asymptotic.corrected_eigenvalue(OMEGA_1, dp)
    point = fundsys.find_eigenvalue(dp, fundsys.SpectralPoint(ev.q, OMEGA_1))
    assert point.converged
    assert abs(point.q) < 1e-3


def test_find_eigenvalue_stays_in_seed_band():
    point = fundsys.find_eigenvalue(
        UNDAMPED, fundsys.SpectralPoint(q=0.0, omega=0.36))
    assert abs(point.omega - 0.36) < np.pi / 2


def test_find_eigenvalue_never_raises_on_starved_budget(monkeypatch):
    # A far seed with almost no iteration budget cannot reach the spectrum:
    # the solver must report failure, not throw.
    monkeypatch.setattr(fundsys, "MAX_ITERATIONS", 3)
    point = fundsys.find_eigenvalue(
        UNDAMPED, fundsys.SpectralPoint(q=0.5, omega=1.8))
    assert not point.converged
    assert np.isfinite(point.delta_value)


def test_find_eigenvalue_never_raises_on_overflow():
    # Every evaluation overflows at this frequency; the seed comes back.
    point = fundsys.find_eigenvalue(REF, fundsys.SpectralPoint(q=0.0, omega=1e4))
    assert not point.converged
    assert (point.q, point.omega) == (0.0, 1e4)
    assert np.isnan(point.delta_value)


def test_find_eigenvalue_agrees_with_nelder_mead():
    rng = np.random.default_rng(31)
    cases = [(REF, 5)] + [(small_dissipation_dp(rng), 3) for _ in range(3)]
    for dp, count in cases:
        seeds = asymptotic_seeds(dp, count)
        assert len(seeds) == count
        for seed in seeds:
            point = fundsys.find_eigenvalue(dp, seed)
            s_nm, value_nm = nelder_mead_eigenvalue(dp, seed)
            assert point.converged and value_nm < fundsys.CONVERGED_TOL
            assert abs(complex(point.q, point.omega) - s_nm) <= 1e-9


def test_find_eigenvalue_agrees_with_secant():
    # Cold searches for every mode below omega = 20, and sweep rows against
    # a secant search warm-started from the previous row.
    rng = np.random.default_rng(37)
    for dp in [REF] + [small_dissipation_dp(rng) for _ in range(8)]:
        for seed in asymptotic_seeds(dp, None):
            point = fundsys.find_eigenvalue(dp, seed)
            s_ref = secant_eigenvalue(dp, seed)
            assert point.converged
            s = complex(point.q, point.omega)
            assert abs(s - s_ref) <= 1e-13 * abs(s_ref)
        rows = fundsys.sweep_feedback(dp, [0.01 * i for i in range(11)],
                                      modes=(1, 2))
        for mode in (1, 2):
            branch = [r for r in rows if r.mode == mode]
            for before, row in zip(branch, branch[1:]):
                seed = fundsys.SpectralPoint(q=before.q, omega=before.omega)
                s_ref = secant_eigenvalue(replace(dp, nu=row.nu), seed)
                assert row.converged
                s = complex(row.q, row.omega)
                assert abs(s - s_ref) <= 1e-13 * abs(s_ref)


small_dissipation = st.builds(
    DimensionlessParams, eps1=st.floats(0.0, 0.02), mu=st.floats(0.0, 0.02),
    nu=st.floats(0.0, 0.1), eta=st.floats(0.5, 10.0),
    delta=st.floats(0.02, 0.5))


@settings(max_examples=60, deadline=None)
@given(dp=small_dissipation, mode=st.integers(1, 7),
       dq=st.floats(-0.5, 0.5), domega=st.floats(-1.0, 1.0))
def test_find_eigenvalue_never_raises(dp, mode, dq, domega):
    # Seeds around the modes below omega = 20: a search may fail, but it
    # must not raise, and converged must mean a small normalized
    # determinant.
    roots = conservative.find_roots(dp, 20.0, max_count=mode)
    w0 = roots[-1].omega
    seed = fundsys.SpectralPoint(
        q=asymptotic.corrected_eigenvalue(w0, dp).q + dq,
        omega=max(w0 + domega, 0.01))
    point = fundsys.find_eigenvalue(dp, seed)
    if point.converged:
        assert point.delta_value < fundsys.CONVERGED_TOL


def count_rhs_calls(monkeypatch):
    """Record every rhs_coefficients call, one per residual evaluation, of
    fundsys and of rk4, which binds its own name for it."""
    calls = []
    original = fundsys.rhs_coefficients

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(fundsys, "rhs_coefficients", counting)
    monkeypatch.setattr(rk4, "rhs_coefficients", counting)
    return calls


def test_find_eigenvalue_cold_search_cost(monkeypatch):
    # One rhs_coefficients call per residual evaluation; the normalized
    # determinant comes from the last of them, not from an extra one.  The
    # search evaluates P and Q itself, without boundary_coefficients.
    calls = count_rhs_calls(monkeypatch)
    boundary_calls = []
    monkeypatch.setattr(fundsys, "boundary_coefficients",
                        lambda *args: boundary_calls.append(args))
    counts = []
    rng = np.random.default_rng(32)
    for dp in [REF] + [small_dissipation_dp(rng) for _ in range(10)]:
        for seed in asymptotic_seeds(dp, None):
            calls.clear()
            point = fundsys.find_eigenvalue(dp, seed)
            assert point.converged
            assert len(calls) <= 4
            counts.append(len(calls))
    assert np.mean(counts) <= 2.9
    assert boundary_calls == []


def test_reference_sweep_cost(monkeypatch):
    # The 21-point x 2-mode reference sweep at the default step: most rows
    # end on one evaluation, whose Newton step is taken without evaluating
    # its end.  Confirming each last step took 89 evaluations.
    calls = count_rhs_calls(monkeypatch)
    rows = fundsys.sweep_feedback(REF, [0.005 * i for i in range(21)], (1, 2))
    assert len(rows) == 42 and all(row.converged for row in rows)
    assert len(calls) <= 49


def test_box_set_evaluation_counts(monkeypatch):
    # The counts README quotes.  On the reference set and the 64 box sets,
    # the 455 cold searches (a one-point sweep of every mode below
    # omega = 20) take at most 3 residual evaluations each and 1081 in all,
    # and the 2730 rows of the 21 x 2 nu sweeps take 3245; every search
    # and row converges.
    calls, cold_counts = count_rhs_calls(monkeypatch), []
    search = fundsys.find_eigenvalue

    def counting(*args, **kwargs):
        before = len(calls)
        point = search(*args, **kwargs)
        cold_counts.append(len(calls) - before)
        return point

    cold, cold_calls, rows, row_calls = [], 0, [], 0
    for dp in box_sets():
        count = len(conservative.find_roots(dp, 20.0))
        start = len(calls)
        with monkeypatch.context() as m:
            m.setattr(fundsys, "find_eigenvalue", counting)
            cold += fundsys.sweep_feedback(dp, [dp.nu], range(1, count + 1))
        cold_calls += len(calls) - start
        start = len(calls)
        rows += fundsys.sweep_feedback(dp, [0.005 * i for i in range(21)],
                                       (1, 2))
        row_calls += len(calls) - start
    assert len(cold) == len(cold_counts) == 455
    assert len(rows) == 2730
    assert all(row.converged for row in cold + rows)
    assert max(cold_counts) <= 3
    assert cold_calls <= 2.38 * len(cold)
    assert row_calls <= 1.19 * len(rows)


@pytest.mark.parametrize("options", [
    fundsys.SolveOptions(subintervals=0), fundsys.SolveOptions(step=0.0),
    fundsys.SolveOptions(step=-1e-3), fundsys.SolveOptions(step=np.nan),
    fundsys.SolveOptions(subintervals=-3),
    fundsys.SolveOptions(step=-np.inf),
    fundsys.SolveOptions(step=1e-320, subintervals=1),
    fundsys.SolveOptions(step=5e-324),
    fundsys.SolveOptions(subintervals=2.5),
    fundsys.SolveOptions(subintervals=8.0)])
def test_find_eigenvalue_reads_no_options(options):
    # The options set only the RK4 system, which rejects these; a search
    # builds none, so it neither checks nor uses them and answers bit for
    # bit as with none.  It used to reject them before evaluating.
    with pytest.raises(ValueError):
        rk4.delta_subdivided(-0.01, 0.35, REF, options.subintervals,
                             options.step)
    seed = fundsys.SpectralPoint(q=-0.01, omega=0.35)
    point = fundsys.find_eigenvalue(REF, seed, options)
    assert point.converged
    assert repr(point) == repr(fundsys.find_eigenvalue(REF, seed))


def test_searches_sweeps_and_profiles_check_no_step_count(monkeypatch):
    # Nothing on the search path builds an RK4 system, so nothing there
    # counts steps: with _step_count raising, direct searches at any
    # options, a sweep and a mode shape still answer bit for bit.  Each
    # checked its options through _step_count before it evaluated.
    seed = asymptotic_seeds(REF, 1)[0]
    grid = [0.005 * i for i in range(21)]
    rows = [row_bits(row) for row in fundsys.sweep_feedback(REF, grid)]
    profile = fundsys.mode_shape(fundsys.find_eigenvalue(REF, seed), REF)

    def refuse(*args):
        raise AssertionError("a step count on the search path")

    monkeypatch.setattr(rk4, "_step_count", refuse)
    for options in ((), (fundsys.SolveOptions(),),
                    (fundsys.SolveOptions(step=0.01, subintervals=3),)):
        point = fundsys.find_eigenvalue(REF, seed, *options)
        assert (point.q.hex(), point.omega.hex(), point.delta_value.hex(),
                point.converged) == ("-0x1.1182976445692p-16",
                                     "0x1.69e2c883744a0p-2",
                                     "0x1.c370edac0eb53p-93", True)
        assert [row_bits(row) for row in fundsys.sweep_feedback(
            REF, grid, options=options[0] if options else None)] == rows
        shape = fundsys.mode_shape(point, REF)
        assert shape.u1.tobytes() == profile.u1.tobytes()
        assert shape.u2.tobytes() == profile.u2.tobytes()
    with pytest.raises(AssertionError, match="step count"):
        rk4.delta_subdivided(point.q, point.omega, REF)


def test_direct_searches_form_their_own_row(monkeypatch):
    # A bisection in nu calls find_eigenvalue without a row; each call
    # forms the row of its own dp, once, whatever the options, with
    # options the RK4 system rejects too, and answers bit for bit as the
    # sweep path's call on REF's row at that nu does.  Nothing is shared
    # between calls, so a -0.0 group keeps its sign in its call's row.
    rows = []
    form = fundsys._row_coefficients

    def counting(dp):
        rows.append(form(dp))
        return rows[-1]

    monkeypatch.setattr(fundsys, "_row_coefficients", counting)
    seed = asymptotic_seeds(REF, 1)[0]
    for nu in (0.0, 0.025, 0.0125, 0.01875, 0.05):
        dp = replace(REF, nu=nu)
        swept = fundsys.find_eigenvalue(REF, seed, _row=(form(REF), nu))
        for options in ((), (fundsys.SolveOptions(),),
                        (fundsys.SolveOptions(subintervals=8.0),),
                        (fundsys.SolveOptions(step=0.01, subintervals=3),)):
            rows.clear()
            point = fundsys.find_eigenvalue(dp, seed, *options)
            assert rows == [form(dp)]
            assert repr(point) == repr(swept)
        seed = point
    for mu in (0.0, -0.0, 0.0):
        rows.clear()
        assert fundsys.find_eigenvalue(replace(REF, mu=mu), seed).converged
        assert [row[1] for row in rows] == [mu]
        assert math.copysign(1.0, rows[0][1]) == math.copysign(1.0, mu)


# Direct searches, one-point sweeps and mode shapes on REF and on REF with
# an int, an np.float64 and a -0.0 group, as reprs and bytes;
# answers(order) makes the calls of CALLS in that order.  REF is bound
# before the code runs.
TYPED_GROUP_CALLS = """
from dataclasses import replace

import numpy as np

from barmodes import asymptotic, conservative, fundsys

SETS = [REF, replace(REF, eta=7), replace(REF, eps1=np.float64(0.005)),
        replace(REF, mu=-0.0)]


def search(dp):
    root = conservative.find_roots(dp, 20.0, max_count=2)[1].omega
    seed = fundsys.SpectralPoint(
        q=asymptotic.corrected_eigenvalue(root, dp).q, omega=root)
    return fundsys.find_eigenvalue(dp, seed)


def shape(dp):
    shape = fundsys.mode_shape(search(dp), dp)
    return (shape.u1.tobytes() + shape.u2.tobytes()).hex()


def sweep(dp):
    return repr(fundsys.sweep_feedback(dp, [dp.nu], modes=(1, 2)))


CALLS = [(call, dp) for dp in SETS
         for call in (lambda dp: repr(search(dp)), sweep, shape)]


def answers(order):
    return [CALLS[i][0](CALLS[i][1]) for i in order]
"""


def test_typed_groups_answer_as_they_do_alone():
    # A -0.0 group keeps its sign, so no call may reuse what a call on
    # other groups formed: with an int and an np.float64 group too, the
    # calls interleaved here answer bit for bit, and in the same types
    # (repr), as the same calls run in reverse order in a fresh
    # interpreter, where an np.float64 set comes before REF.
    calls = ("from barmodes.params import DimensionlessParams\n"
             f"REF = {REF!r}\n" + TYPED_GROUP_CALLS)
    alone = json.loads(run_fresh(
        calls + "import json\n"
        "print(json.dumps(answers(reversed(range(len(CALLS))))))\n"))
    namespace = {}
    exec(calls, namespace)
    interleaved = namespace["answers"](range(len(namespace["CALLS"])))
    assert interleaved == alone[::-1]


TYPED_GROUPS = {
    "float64-eps1": replace(REF, eps1=np.float64(REF.eps1)),
    "float64-eta-delta": replace(REF, eta=np.float64(REF.eta),
                                 delta=np.float64(REF.delta)),
    "all-float64": DimensionlessParams(*map(np.float64, (
        REF.eps1, REF.mu, REF.nu, REF.eta, REF.delta))),
    "int-eta": replace(REF, eta=7),
}


def typed_answers(dp):
    """reprs of the cold searches of modes 1-7, their one-point sweep, the
    21 x 2 sweep, mode 7's 201-point profile, and the closed forms: the
    conservative roots below omega = 20 and, on each, the corrected
    eigenvalue, critical feedback and excitation report (none excited),
    and the boundary frequency at dp.nu."""
    cold = [fundsys.find_eigenvalue(dp, seed)
            for seed in asymptotic_seeds(dp, 7)]
    roots = conservative.find_roots(dp, 20.0)
    reports = [asymptotic.excitation_indicator(root.omega, dp)
               for root in roots]
    assert all(report.excited is False for report in reports)
    return [repr(cold),
            repr(fundsys.sweep_feedback(dp, [dp.nu], range(1, 8))),
            repr(fundsys.sweep_feedback(dp, [0.005 * i for i in range(21)])),
            repr(fundsys._mode_profile(cold[-1], dp, 201)),
            repr(roots),
            repr([asymptotic.corrected_eigenvalue(root.omega, dp)
                  for root in roots]),
            repr([asymptotic.critical_feedback(root.omega, dp)
                  for root in roots]),
            repr(reports),
            repr(asymptotic.boundary_frequency(dp.nu, dp))]


@pytest.mark.parametrize("group", list(TYPED_GROUPS))
def test_typed_groups_answer_as_the_float_groups(group):
    # The record stores each group as a float, at construction and under
    # replace, so an int or np.float64 group answers as REF does, in value
    # and type.  An np.float64 group made the residual np.complex128, whose
    # rounding and repr differ, and the closed forms answered in numpy
    # scalars: excitation_indicator's excited was np.False_.
    dp = TYPED_GROUPS[group]
    for record in (dp, replace(dp, nu=np.float64(0.02))):
        assert [type(getattr(record, f.name)) for f in fields(record)] == (
            [float] * 5)
    assert typed_answers(dp) == typed_answers(REF)


@pytest.mark.parametrize("q, omega", [(np.nan, 0.35), (-0.01, np.inf)])
def test_find_eigenvalue_rejects_a_non_finite_seed_before_evaluating(
        monkeypatch, q, omega):
    calls = count_rhs_calls(monkeypatch)
    with pytest.raises(ValueError,
                       match=f"^non-finite seed q={q}, omega={omega}$"):
        fundsys.find_eigenvalue(REF, fundsys.SpectralPoint(q=q, omega=omega))
    assert calls == []


def last_evaluated(calls):
    """The point of the last residual evaluation count_rhs_calls recorded."""
    q, omega, _ = calls[-1]
    return complex(q, omega)


def test_find_eigenvalue_reports_its_last_evaluation(monkeypatch):
    # A search that settles on a negligible step reports its last evaluated
    # point, with that point's normalized determinant.  Every evaluation is
    # exp(A), so most searches end on a Newton step they do not evaluate:
    # the answer is one step past the last evaluation, delta_value is the
    # determinant there, and the determinant at the answer is below
    # CONVERGED_TOL too.  The options change none of it.
    calls = count_rhs_calls(monkeypatch)
    kernel = kernel_on(REF, None)
    ends = []
    for opts in (fundsys.SolveOptions(step=0.01), fundsys.SolveOptions()):
        for seed in asymptotic_seeds(REF, 5):
            calls.clear()
            point = fundsys.find_eigenvalue(REF, seed, opts)
            last = last_evaluated(calls)
            assert point.converged
            s = complex(point.q, point.omega)
            ends.append((point, s == last))
            if s == last:
                assert point.delta_value == exact_delta(REF, s)
                continue
            f, df, _ = kernel(last)
            assert s == last - f / df
            assert point.delta_value == exact_delta(REF, last)
            assert exact_delta(REF, s) < fundsys.CONVERGED_TOL
    assert ends[:5] == ends[5:]
    assert sum(not evaluated for _, evaluated in ends[5:]) >= 4


ORACLE_EXTREMES = (0.0, 5e-324, 1e-300, 1e-15, 1e150, 1e300)
# 9.9e-16 at worst when drawn; at a coarse step the search had solved the
# RK4 system, and only 1e-10 from its root could be asserted.
ORACLE_RTOL = 1e-14


def oracle_group(rng):
    """A dimensionless group drawn as the CLI contract fuzzer draws it:
    log-uniform over 1e-4..30, with one of ORACLE_EXTREMES in one draw of
    four."""
    if rng.uniform() < 0.25:
        return float(rng.choice(ORACLE_EXTREMES))
    return 10.0 ** rng.uniform(-4.0, math.log10(30.0))


def test_converged_eigenvalues_match_a_34_digit_oracle():
    # Every converged eigenvalue of modes 1-4 of the reference set and of
    # drawn sets (step and subintervals drawn too), until there are 150,
    # against Newton's method in 34 digits on the continuous residual
    # P*sinh(r)/r + Q*cosh(r), started from the float answer.  An oracle
    # root in the lower half-plane is another root (the conjugate); only a
    # real root may sit a rounding below the axis.  The search solves the
    # continuous system at every step, so converged bounds the distance to
    # it.  At a coarse step the searches had solved the RK4 system: 40 of
    # these 151 eigenvalues lay more than 1e-8 from the continuous one, the
    # largest 6.6e-4 away.
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(15)
    dp, opts, found = REF, fundsys.SolveOptions(), []
    while len(found) < 150:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            accepted = not validate(dp)
        try:
            rows = fundsys.sweep_feedback(dp, [dp.nu], range(1, 5),
                                          options=opts) if accepted else []
        except (ValueError, OverflowError):
            rows = []   # a shortfall or an overflow: the CLI refuses these
        found += [(dp, opts, complex(row.q, row.omega)) for row in rows
                  if row.converged]
        dp = DimensionlessParams(*(oracle_group(rng) for _ in range(5)))
        opts = fundsys.SolveOptions(
            step=10.0 ** rng.uniform(math.log10(2e-4), math.log10(0.14)),
            subintervals=int(rng.integers(1, 13)))
    with mp.workdps(34):
        for dp, opts, s in found:
            root = mp_newton(mp_residual(dp), s)
            assert root is not None and root.imag >= -1e-25 * abs(root), (
                dp, opts, s, root)
            assert abs(s - root) <= ORACLE_RTOL * abs(root), (dp, opts, s,
                                                              root)


def test_converged_eigenvalues_near_the_aperiodic_transition_match_the_oracle():
    # Mode k turns aperiodic where eps1*omega_k reaches 2: its conjugate
    # pair meets the real axis.  150 drawn sets put eps1*omega_k within
    # 1e-16 to 0.1 of 2 for a drawn k in 1..4; every converged row of a
    # one-point sweep of modes 1..k lies within 1e-12 of the 34-digit root
    # that Newton's method reaches from it.  Near this transition, a rule
    # that settled a search once its steps stopped shrinking had called
    # complex points up to 7.9e-4 from a real root converged.
    mp = pytest.importorskip("mpmath")
    rng = random.Random(21)

    def damping():
        return 0.0 if rng.random() < 0.5 else 10.0 ** rng.uniform(-4.0, 0.0)

    found = []
    for _ in range(150):
        eta = 10.0 ** rng.uniform(-3.0, 1.5)
        delta = 10.0 ** rng.uniform(-2.0, 0.5)
        mu, nu, k = damping(), damping(), rng.randint(1, 4)
        omega_k = conservative.find_roots(
            DimensionlessParams(0.0, mu, nu, eta, delta), 40.0,
            max_count=k)[-1].omega
        eps1 = (2.0 + rng.uniform(-1.0, 1.0)
                * 10.0 ** rng.uniform(-16.0, -1.0)) / omega_k
        dp = DimensionlessParams(eps1, mu, nu, eta, delta)
        rows = fundsys.sweep_feedback(dp, [nu], range(1, k + 1),
                                      omega_max=40.0)
        found += [(dp, complex(row.q, row.omega)) for row in rows
                  if row.converged]
    assert len(found) >= 200
    with mp.workdps(34):
        for dp, s in found:
            root = mp_newton(mp_residual(dp), s)
            assert root is not None and root.imag >= -1e-25 * abs(root), (
                dp, s, root)
            assert abs(s - root) <= 1e-12 * abs(root), (dp, s, root)


def test_default_options_give_the_continuous_eigenvalue():
    # The default step puts the RK4 error below rounding: modes 1-7 of the
    # reference set lie within 1e-14 of the continuous eigenvalue, the
    # 34-digit zero of P*sinh(r)/r + Q*cosh(r).  At step 1/2000 modes 2-7
    # lay 3.3e-14 to 5.1e-11 from it.
    mp = pytest.importorskip("mpmath")
    rows = fundsys.sweep_feedback(REF, [REF.nu], range(1, 8))
    assert [row.mode for row in rows if row.converged] == list(range(1, 8))
    with mp.workdps(34):
        for row in rows:
            s = complex(row.q, row.omega)
            exact = mp_newton(mp_residual(REF), s)
            assert exact is not None, (row.mode, s)
            assert abs(s - exact) <= 1e-14 * abs(exact), (row.mode, s, exact)


# Option sets from the coarsest the library accepts to the default.
STEP_OPTION_SETS = [fundsys.SolveOptions(step=step) for step in
                    (0.2, 0.05, 0.01, 0.0005)]


@pytest.mark.parametrize("opts", STEP_OPTION_SETS)
def test_searches_and_profiles_are_the_same_at_every_step(opts):
    # step and subintervals set only the RK4 system: the cold searches of
    # reference modes 1-7, the 21 x 2 reference sweep and the mode shapes
    # are bit for bit those of the default options.
    default = fundsys.SolveOptions()
    for seed in asymptotic_seeds(REF, 7):
        assert repr(fundsys.find_eigenvalue(REF, seed, opts)) == repr(
            fundsys.find_eigenvalue(REF, seed, default))
    grid = [0.005 * i for i in range(21)]
    rows = fundsys.sweep_feedback(REF, grid, (1, 2), options=opts)
    assert [row_bits(r) for r in rows] == [
        row_bits(r) for r in fundsys.sweep_feedback(REF, grid, (1, 2))]
    for row, default_row in zip(
            fundsys.sweep_feedback(REF, [REF.nu], range(1, 8), options=opts),
            fundsys.sweep_feedback(REF, [REF.nu], range(1, 8))):
        shape = fundsys.mode_shape(row, REF)
        expected = fundsys.mode_shape(default_row, REF)
        assert shape.u1.tobytes() == expected.u1.tobytes()
        assert shape.u2.tobytes() == expected.u2.tobytes()


@pytest.mark.parametrize("subintervals", [1, 8])
def test_coarse_step_eigenvalues_are_the_continuous_ones(subintervals):
    # At step 0.2 reference modes 3, 4 and 5 came back converged 0.010,
    # 0.061 and 0.155 from the continuous eigenvalue with one subinterval
    # (N = 5 RK4 steps), and 1.7e-3 to 1.3e-2 with eight (N = 8): the
    # search solved the RK4 system.  Converged now means accurate.
    mp = pytest.importorskip("mpmath")
    opts = fundsys.SolveOptions(step=0.2, subintervals=subintervals)
    with mp.workdps(34):
        for seed in asymptotic_seeds(REF, 5)[2:]:
            point = fundsys.find_eigenvalue(REF, seed, opts)
            assert point.converged
            s = complex(point.q, point.omega)
            exact = mp_newton(mp_residual(REF), s)
            assert abs(s - exact) <= 1e-14 * abs(exact), (seed, s, exact)


def test_searches_near_the_rk4_stability_edge_settle_quickly(monkeypatch):
    # At step 0.14 with one subinterval (h*omega up to 2.5, near RK4's
    # stability edge 2*sqrt(2)), Newton's continuous slope on the RK4
    # residual took 17 evaluations for reference mode 6, and mode 7 left
    # its band after one.  On exp(A) each search takes at most 3.
    calls = count_rhs_calls(monkeypatch)
    opts = fundsys.SolveOptions(step=0.14, subintervals=1)
    for seed in asymptotic_seeds(REF, 7):
        calls.clear()
        assert fundsys.find_eigenvalue(REF, seed, opts).converged
        assert len(calls) <= 3


def test_residual_kernel_slope_at_an_eigenvalue():
    # The kernel's slope f', which Newton's method divides by, is df/ds of
    # the continuous residual at a search's answer.
    kernel = kernel_on(REF, None)
    for seed in asymptotic_seeds(REF, 5):
        point = fundsys.find_eigenvalue(REF, seed)
        assert point.converged
        s, h = complex(point.q, point.omega), 1e-5
        central = (end_residual(REF, s + h)
                   - end_residual(REF, s - h)) / (2 * h)
        assert abs(kernel(s)[1] - central) <= 1e-7 * abs(central)


def test_sweep_feedback_continuation(monkeypatch):
    # Predictor-corrector continuation in nu: at most 3 residual
    # evaluations per row on average, against about 4 for a warm start,
    # and every row is the eigenvalue a warm-started search from the
    # previous row finds.
    nu_grid = [0.005 * i for i in range(21)]
    rng = np.random.default_rng(33)
    for dp in [REF] + [small_dissipation_dp(rng) for _ in range(10)]:
        calls = count_rhs_calls(monkeypatch)
        rows = fundsys.sweep_feedback(dp, nu_grid, modes=(1, 2))
        monkeypatch.undo()
        assert len(calls) <= 3 * len(rows)
        assert all(r.converged for r in rows)
        for mode in (1, 2):
            branch = [r for r in rows if r.mode == mode]
            for before, row in zip(branch, branch[1:]):
                fresh = fundsys.find_eigenvalue(
                    replace(dp, nu=row.nu),
                    fundsys.SpectralPoint(q=before.q, omega=before.omega))
                assert fresh.converged
                s, s_fresh = complex(row.q, row.omega), complex(fresh.q,
                                                                fresh.omega)
                assert abs(s - s_fresh) <= 1e-12 * abs(s_fresh)


@pytest.mark.parametrize("package", ["scipy", "numpy"])
def test_import_loads_no_scipy(package):
    code = ("import sys, barmodes; print(sorted(m for m in sys.modules "
            f"if m.split('.')[0] == {package!r}))")
    assert run_fresh(code).strip() == "[]"


def test_propagator_and_polynomials_load_no_numpy():
    # integrate_fundamental, characteristic and boundary_coefficients are
    # cmath/math only; numpy is loaded by mode_shape alone.
    code = """
import sys
from barmodes import conservative, fundsys, rk4
from barmodes.params import DimensionlessParams
dp = DimensionlessParams(eps1=0.005, mu=0.008, nu=0.05, eta=7.0, delta=0.1)
a, b = rk4.integrate_fundamental(-0.01, 0.35, dp)
assert isinstance(a, complex) and isinstance(b, complex)
assert isinstance(conservative.characteristic(0.35, dp), float)
assert isinstance(fundsys.boundary_coefficients(-0.01, 0.35, dp).D1, float)
print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
"""
    assert run_fresh(code).strip() == "[]"


# ------------------------------------------------------------------- mode shape

@pytest.fixture(scope="module")
def conservative_mode_one():
    seed = fundsys.SpectralPoint(q=0.0, omega=0.36)
    point = fundsys.find_eigenvalue(UNDAMPED, seed)
    assert point.converged
    return point


def test_mode_shape_conservative_is_real_sine(conservative_mode_one):
    shape = fundsys.mode_shape(conservative_mode_one, UNDAMPED,
                               resolution=101)
    assert np.max(np.abs(shape.u2)) <= 1e-6
    expected = np.sin(conservative_mode_one.omega * shape.grid)
    expected = expected / np.max(np.abs(expected))
    assert np.max(np.abs(shape.u1 - expected)) < 1e-6


def test_mode_shape_clamped_end_and_normalization(conservative_mode_one):
    shape = fundsys.mode_shape(conservative_mode_one, UNDAMPED,
                               resolution=64)
    assert shape.u1[0] == 0.0 and shape.u2[0] == 0.0
    assert np.max(np.hypot(shape.u1, shape.u2)) == pytest.approx(1.0, abs=1e-15)
    assert len(shape.grid) == 64
    assert np.array_equal(shape.grid, np.linspace(0.0, 1.0, 64))


def test_mode_shape_rejects_unconverged_point():
    bogus = fundsys.SpectralPoint(q=0.0, omega=0.36, delta_value=1.0,
                                  converged=False)
    with pytest.raises(ValueError):
        fundsys.mode_shape(bogus, UNDAMPED, resolution=11)


@pytest.mark.parametrize("count", [2.5, 8.0, "8", None])
def test_counts_must_be_integers(conservative_mode_one, count):
    # A float subinterval count ran a float step count (2000.0 for 2.5),
    # and a float resolution raised TypeError from range().
    with pytest.raises(ValueError, match="subinterval count must be an "
                                         "integer"):
        rk4.delta_subdivided(-0.01, 0.35, REF, n=count)
    with pytest.raises(ValueError, match="resolution must be an integer"):
        fundsys.mode_shape(conservative_mode_one, UNDAMPED, resolution=count)


def test_mode_shape_rejects_non_eigenvalue():
    # Converged flag forged at a point that is not on the spectrum.
    forged = fundsys.SpectralPoint(q=0.25, omega=1.9, delta_value=0.0,
                                   converged=True)
    with pytest.raises(np.linalg.LinAlgError):
        fundsys.mode_shape(forged, UNDAMPED, resolution=11)


def test_mode_shape_rank_check_is_the_search_tolerance():
    # Reference mode 1 moved by 1e-5 in omega has a normalized determinant
    # of ~1e-9, above CONVERGED_TOL: marked converged, it is refused, as the
    # search would refuse it, although a looser rank tolerance such as 1e-8
    # would pass it.
    point = fundsys.find_eigenvalue(REF, asymptotic_seeds(REF, 1)[0])
    assert point.converged
    moved = point._replace(omega=point.omega + 1e-5)
    dhat = exact_delta(REF, complex(moved.q, moved.omega))
    assert fundsys.CONVERGED_TOL <= dhat < 1e-8
    with pytest.raises(np.linalg.LinAlgError):
        fundsys.mode_shape(moved, REF)


# Option sets from step 1/2000 to coarse steps with 8, 3 and 1
# subintervals.
SHAPE_OPTION_SETS = [fundsys.SolveOptions(step=step, subintervals=n)
                     for step, n in [(1.0 / 2000.0, 8), (0.003, 8), (0.05, 8),
                                     (0.1, 8), (0.01, 3), (0.07, 1)]]


@pytest.mark.parametrize("opts", SHAPE_OPTION_SETS)
def test_mode_shape_profiles_the_system_its_search_solved(monkeypatch, opts):
    # The rank check is the search's own residual, so a converged search
    # always has a shape: 77 searches per option set, all converged.
    normalized, seen = fundsys._normalized, []

    def spy(*args):
        seen.append(normalized(*args))
        return seen[-1]

    calls = count_rhs_calls(monkeypatch)
    rng = np.random.default_rng(43)
    shapes = 0
    for dp in [REF] + [small_dissipation_dp(rng) for _ in range(10)]:
        roots = conservative.find_roots(dp, 20.0)
        for seed in asymptotic_seeds(dp, len(roots)):
            calls.clear()
            point = fundsys.find_eigenvalue(dp, seed, opts)
            if not point.converged:
                continue
            last = last_evaluated(calls)
            seen.clear()
            with monkeypatch.context() as m:
                m.setattr(fundsys, "_normalized", spy)
                shape = fundsys.mode_shape(point, dp)
            if complex(point.q, point.omega) == last:
                assert seen == [point.delta_value]
            else:
                # An unevaluated last step: delta_value is the determinant
                # of the last evaluation.
                assert len(seen) == 1 and seen[0] < fundsys.CONVERGED_TOL
                assert point.delta_value == exact_delta(dp, last)
            assert len(shape.grid) == 201
            # Dividing the peak sample by itself can leave roundoff in its
            # u2, where the normalisation defines u2 = 0.
            assert (1.0, 0.0) in zip(shape.u1.tolist(), shape.u2.tolist())
            assert np.max(np.hypot(shape.u1, shape.u2)) <= 1.0 + 1e-15
            shapes += 1
    assert shapes >= 70


def test_mode_shape_resolution_only_sets_the_sampling():
    point = fundsys.find_eigenvalue(REF, asymptotic_seeds(REF, 1)[0])
    assert point.converged
    middle, end = [], []
    for resolution in (11, 101, 201):
        shape = fundsys.mode_shape(point, REF, resolution)
        half = (resolution - 1) // 2
        assert shape.grid[half] == 0.5
        middle.append(complex(shape.u1[half], shape.u2[half]))
        end.append(complex(shape.u1[-1], shape.u2[-1]))
    assert np.allclose(middle, middle[0], rtol=0.0, atol=1e-15)
    assert np.allclose(end, end[0], rtol=0.0, atol=1e-15)


def test_mode_shape_grid_is_one_read_only_array_per_resolution(
        conservative_mode_one):
    # Every shape of one resolution holds the same grid array,
    # np.linspace(0, 1, resolution) bit for bit, and writing to it raises;
    # u1 and u2 stay each shape's own.  The profile's grid is one cached
    # tuple per resolution, the same points.
    for resolution in (2, 3, 64, 201, 1000, np.int64(201)):
        first, second = (fundsys.mode_shape(conservative_mode_one, UNDAMPED,
                                            resolution)
                         for _ in range(2))
        assert second.grid is first.grid
        linspace = np.linspace(0.0, 1.0, resolution)
        assert first.grid.tobytes() == linspace.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            first.grid[0] = 0.5
        assert second.u1 is not first.u1 and first.u1.flags.writeable
        points = fundsys._unit_grid(resolution)
        assert fundsys._unit_grid(resolution) is points
        assert type(points) is tuple
        assert np.array(points).tobytes() == linspace.tobytes()


def reference_profile(point, dp, resolution):
    """(grid, samples) of the mode profile built with lists: the grid
    [i*h, ...] + [1.0], the samples sinh(x*r)/r, their moduli, and the
    first index of the largest modulus, whose sample divides them all and
    is then set to 1 + 0i."""
    r = fundsys._propagator_at(point.q, point.omega, dp.eps1)[0]
    h = 1.0 / (resolution - 1)
    grid = [i * h for i in range(resolution - 1)] + [1.0]
    profile = [cmath.sinh(x * r) / r for x in grid]
    sizes = list(map(abs, profile))
    top = sizes.index(max(sizes))
    peak = profile[top]
    profile = [u / peak for u in profile]
    profile[top] = 1 + 0j
    return grid, profile


def test_mode_profile_is_its_list_construction_bit_for_bit(
        conservative_mode_one):
    # Reference modes 1-7 and the undamped mode 1: the cached grid and the
    # one-pass peak scan give the list construction's grid and samples,
    # and mode_shape's arrays hold the same bits.  repr tells -0.0 from
    # 0.0.
    points = [(point, REF) for point in (
        fundsys.find_eigenvalue(REF, seed) for seed in asymptotic_seeds(REF, 7))]
    points.append((conservative_mode_one, UNDAMPED))
    for point, dp in points:
        assert point.converged
        for resolution in (2, 3, 11, 201):
            grid, profile = reference_profile(point, dp, resolution)
            got = fundsys._mode_profile(point, dp, resolution)
            assert repr(list(got[0])) == repr(grid)
            assert repr(got[1]) == repr(profile)
            shape = fundsys.mode_shape(point, dp, resolution)
            samples = np.array(profile)
            assert shape.u1.tobytes() == samples.real.tobytes()
            assert shape.u2.tobytes() == samples.imag.tobytes()


# ------------------------------------------------------------------- nu sweep

def test_sweep_feedback_empty_grid():
    assert fundsys.sweep_feedback(REF, [], modes=(1,)) == []


def test_sweep_feedback_empty_mode_list():
    # An empty mode list gives no rows, as an empty grid does, once the
    # grid has been checked; max() of no modes had raised.
    assert fundsys.sweep_feedback(REF, [0.0], modes=()) == []
    with pytest.raises(ValueError, match="nu grid must be ascending"):
        fundsys.sweep_feedback(REF, [0.01, 0.0], modes=())


def test_sweep_feedback_takes_numpy_integer_modes():
    rows = fundsys.sweep_feedback(REF, [0.0], modes=np.array([1, 2]))
    assert rows == fundsys.sweep_feedback(REF, [0.0], modes=(1, 2))


def test_sweep_feedback_rows_and_warm_start():
    rows = fundsys.sweep_feedback(REF, [0.0, 0.005, 0.01], modes=(1,))
    assert len(rows) == 3
    assert [r.nu for r in rows] == [0.0, 0.005, 0.01]
    for r in rows:
        assert r.mode == 1
        assert r.converged
        assert abs(r.omega - OMEGA_1) < 1e-3
        assert r.q < 0.0  # all below the critical feedback


def test_sweep_feedback_repeated_nu():
    # Two rows at one nu give no extrapolation direction; the next row is
    # warm-started instead.
    rows = fundsys.sweep_feedback(REF, [0.0, 0.01, 0.01, 0.02], modes=(1,))
    assert all(r.converged for r in rows)
    assert (rows[1].q, rows[1].omega) == pytest.approx((rows[2].q,
                                                        rows[2].omega))


def test_sweep_feedback_orders_rows_by_nu_then_mode():
    rows = fundsys.sweep_feedback(REF, [0.0, 0.01], modes=(1, 2),
                                  omega_max=10.0)
    key = [(r.nu, r.mode) for r in rows]
    assert key == sorted(key)
    assert len(rows) == 4


def test_sweep_feedback_rejects_descending_grid():
    with pytest.raises(ValueError):
        fundsys.sweep_feedback(REF, [0.01, 0.0], modes=(1,))


@pytest.mark.parametrize("modes", [(0,), (0, 2), (-1, 1), (1, 1), (2, 1, 2),
                                   (1.5,), (1, 2.0), ("1",), (None,)])
def test_sweep_feedback_rejects_bad_modes(modes):
    # roots[mode - 1] would wrap around for mode 0 and label mode 2's
    # eigenvalue "mode 0"; a repeated mode would duplicate its rows.  A
    # mode of 1.5 had passed the check and was then reported as a shortfall
    # of undamped frequencies below omega_max.
    with pytest.raises(ValueError, match="modes must be distinct integers"):
        fundsys.sweep_feedback(REF, [0.0], modes=modes)


@pytest.mark.parametrize("nu_values", [[0.0, np.nan], [0.0, np.inf],
                                       [np.nan, 0.0], [-np.inf, 0.0]])
def test_sweep_feedback_rejects_non_finite_grid(monkeypatch, nu_values):
    # Unchecked, a NaN or infinite nu gives a silent NaN row copied from
    # the previous one, or a "non-finite seed" error naming the wrong cause.
    searches = []
    monkeypatch.setattr(fundsys, "find_eigenvalue",
                        lambda *args, **kwargs: searches.append(args))
    with pytest.raises(ValueError, match="nu grid must be finite"):
        fundsys.sweep_feedback(REF, nu_values, modes=(1,))
    assert searches == []


@pytest.mark.parametrize("opts", [fundsys.SolveOptions(),
                                  fundsys.SolveOptions(step=1.0 / 400.0,
                                                       subintervals=2)])
def test_sweep_feedback_matches_the_per_row_sweep(opts):
    # One coefficient row per sweep, the unrolled extrapolation and the result
    # reused as the next seed change no bit of any row; nor do the options,
    # which no search reads.
    rng = np.random.default_rng(40)
    grids = ([0.005 * i for i in range(21)], [0.0, 0.01, 0.01, 0.02, 0.1])
    for dp in [REF] + [small_dissipation_dp(rng) for _ in range(10)]:
        for nu_values in grids:
            rows = fundsys.sweep_feedback(dp, nu_values, modes=(1, 2),
                                          options=opts)
            expected = reference_sweep(dp, nu_values, (1, 2), 20.0)
            assert [row_bits(r) for r in rows] == [row_bits(r)
                                                   for r in expected]


def test_sweep_feedback_makes_one_search_call_per_row(monkeypatch):
    # A wrapper of the module global find_eigenvalue sees every row as one
    # call with dp and the seed positional, and the sweep forms one
    # coefficient row in all, not one per row or per mode.
    searches, formed = [], []
    search, form = fundsys.find_eigenvalue, fundsys._row_coefficients

    def counting_search(*args, **kwargs):
        searches.append(args)
        return search(*args, **kwargs)

    def counting_form(*args):
        formed.append(args)
        return form(*args)

    monkeypatch.setattr(fundsys, "find_eigenvalue", counting_search)
    monkeypatch.setattr(fundsys, "_row_coefficients", counting_form)
    nu_grid = [0.005 * i for i in range(21)]
    rows = fundsys.sweep_feedback(REF, nu_grid, modes=(1, 2))
    assert len(rows) == len(searches) == 42
    assert all(args[0] is REF and isinstance(args[1], fundsys.SpectralPoint)
               for args in searches)
    assert formed == [(REF,)]


# Outside small dissipation, with mode 2 aperiodic: both searches of modes 1
# and 2 land on mode 1's eigenvalue.
DUPLICATING = DimensionlessParams(
    eps1=0.0013097058547352455, mu=0.4876225461206822,
    nu=0.008175825081262286, eta=0.15590497168843653,
    delta=2.5715024029470617)


def test_sweep_feedback_flags_a_repeated_eigenvalue_per_grid_point():
    # The guard compares rows at the same grid position, not the same nu
    # value: the grid repeats 0.0, and a guard keyed on nu would also
    # compare mode 3's second row with its first and flag it.
    rows = fundsys.sweep_feedback(DUPLICATING, [0.0, 0.0], modes=(1, 2, 3))
    assert [(r.mode, r.converged) for r in rows] == [
        (1, True), (2, False), (3, True), (1, True), (2, False), (3, True)]
    for one, two in zip(rows[0::3], rows[1::3]):
        assert abs(complex(one.q, one.omega) - complex(two.q, two.omega)) \
            <= 1e-8 * abs(complex(one.q, one.omega))


def test_sweep_feedback_flags_a_real_root(monkeypatch):
    # Mode 1 of APERIODIC is aperiodic: its search converges on the real
    # root near s = -0.0622733 of the continuous system, whose omega is a
    # rounding above the axis.  It lies within 1e-8 of its own conjugate,
    # so the row is not a converged oscillatory mode.
    points, search = [], fundsys.find_eigenvalue

    def recording(*args, **kwargs):
        points.append(search(*args, **kwargs))
        return points[-1]

    monkeypatch.setattr(fundsys, "find_eigenvalue", recording)
    row = fundsys.sweep_feedback(APERIODIC, [APERIODIC.nu], modes=(1,))[0]
    assert points[0].converged and row.delta_value < 1e-16
    assert abs(complex(row.q, row.omega) + 0.0622733) < 1e-6
    assert 0.0 < 2.0 * row.omega <= 1e-8 * abs(row.q)
    assert not row.converged


# eps1*omega_1 ~ 2 on these sets: mode 1's conjugate pair has met the real
# axis, and the continuous system's roots near s = -1.5689 are real.  Each
# with the float q, omega and delta_value its one-point mode-1 sweep reports.
TURNING_APERIODIC = [
    (DimensionlessParams(1.274512778753114, 0.0, 0.0, 0.001, 0.01),
     (-1.5692269796715608, 4.654652537400229e-05, 2.814580817145471e-15)),
    (DimensionlessParams(1.2745127384872887, 0.0, 0.0, 0.001, 0.1),
     (-1.569225887155745, 0.0001471940435531973, 2.814563599124268e-13)),
]


@pytest.mark.parametrize("dp, reported", TURNING_APERIODIC)
def test_search_where_a_mode_turns_aperiodic_is_not_converged(
        monkeypatch, dp, reported):
    # The search's second step is larger than its first and would cross
    # the real axis, which ends the search, though the normalized
    # determinant is already below CONVERGED_TOL.  A rule that settled on
    # such a step reported these rows converged, 2.1e-4 and 6.5e-4 (of its
    # modulus) from the nearest root of the continuous system, which is
    # real.  The rows keep their bits and their two evaluations,
    # unconverged.
    mp = pytest.importorskip("mpmath")
    calls = count_rhs_calls(monkeypatch)
    row, = fundsys.sweep_feedback(dp, [0.0], (1,))
    assert row_bits(row) == row_bits(fundsys.SweepRow(0.0, 1, *reported,
                                                      False))
    assert len(calls) == 2
    with mp.workdps(34):
        root = mp_newton(mp_residual(dp), complex(row.q, row.omega))
    assert root is not None and abs(root.imag) <= 1e-25
    assert abs(complex(row.q, row.omega) - root) > 2e-4 * abs(root)


def test_sweep_feedback_seeds_no_search_below_the_real_axis():
    # Mode 1 of APERIODIC reaches the real axis as nu grows: a continuation
    # seed extrapolated across it had omega < 0, and every mode-1 row from
    # nu = 0.02 on reported that seed, omega = -1.15e-36.  Such a row is
    # seeded from its predecessor and stays on the real root, flagged.
    grid = [0.005 * i for i in range(21)]
    rows = fundsys.sweep_feedback(APERIODIC, grid, (1, 2))
    assert all(row.omega > 0.0 for row in rows)
    mode_one = [row for row in rows if row.mode == 1]
    assert not any(row.converged for row in mode_one[2:])
    for row in mode_one[4:]:
        assert abs(row.q + 0.0622733) < 1e-4


@settings(max_examples=30, deadline=None)
@given(dp=small_dissipation,
       grid=st.lists(st.sampled_from([0.0, 0.01, 0.02, 0.05, 0.1]),
                     min_size=1, max_size=6).map(sorted),
       modes=st.sampled_from([(1, 2), (2, 1), (1, 2, 3)]))
def test_sweep_feedback_lays_rows_out_by_grid_position(dp, grid, modes):
    # Row i*m + k is mode modes[k] at grid[i], also where the grid repeats
    # a value (a sort by (nu, mode) put one mode's eigenvalue in another
    # mode's place there), and it is the per-row sweep's row bit for bit.
    rows = fundsys.sweep_feedback(dp, grid, modes=modes)
    expected = reference_sweep(dp, grid, modes, 20.0)
    assert len(rows) == len(grid) * len(modes)
    for i, nu in enumerate(grid):
        for k, mode in enumerate(modes):
            row = rows[i * len(modes) + k]
            assert (row.nu, row.mode) == (nu, mode)
    assert [row_bits(r) for r in rows] == [row_bits(r) for r in expected]


@pytest.mark.parametrize("dp", [
    # corrected_eigenvalue raises ZeroDivisionError
    DimensionlessParams(eps1=4e-05, mu=2.9, nu=0.0003, eta=1e-300,
                        delta=1e+300),
    # corrected_eigenvalue gives q = -inf for modes 2 and 3
    DimensionlessParams(eps1=0.0, mu=1e150, nu=0.14, eta=1e150,
                        delta=0.035)], ids=["degenerate", "non-finite"])
def test_sweep_feedback_falls_back_to_the_conservative_seed(monkeypatch, dp):
    # An unusable first-order estimate seeds the search at q = 0 instead of
    # ending the sweep in an exception; omega follows the seed rule.
    seeds, search = [], fundsys.find_eigenvalue

    def recording(dp, seed, *args, **kwargs):
        seeds.append(seed)
        return search(dp, seed, *args, **kwargs)

    monkeypatch.setattr(fundsys, "find_eigenvalue", recording)
    roots = conservative.find_roots(dp, 20.0, max_count=3)
    rows = fundsys.sweep_feedback(dp, [dp.nu], modes=(1, 2, 3))
    assert len(rows) == 3
    for seed, root in zip(seeds, roots):
        assert seed.omega == seed_omega(dp, root.omega)
        try:
            q = asymptotic.corrected_eigenvalue(root.omega, dp).q
        except ZeroDivisionError:
            q = np.nan
        assert seed.q == (q if np.isfinite(q) else 0.0)
    assert 0.0 in [seed.q for seed in seeds]
