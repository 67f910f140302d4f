import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import barmodes
from barmodes import asymptotic, conservative, fundsys
from barmodes.params import DimensionlessParams

REF = DimensionlessParams(eps1=0.005, mu=0.008, nu=0.05, eta=7.0, delta=0.1)
UNDAMPED = DimensionlessParams(0.0, 0.0, 0.0, eta=7.0, delta=0.1)
OMEGA_1 = 0.3534042288

# Coarser-than-production controls keep the unit suite quick; accuracy
# statements at production resolution live in the acceptance tests.
FAST = fundsys.SolveOptions(step=1.0 / 400.0, subintervals=2)
# The search options of the conservative_mode_one fixture.
SHAPE_OPTS = fundsys.SolveOptions(step=1.0 / 1000.0, subintervals=2)


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


def nelder_mead_eigenvalue(dp, seed, opts):
    """The paper's direct search, kept as a cross-check: two Nelder-Mead
    passes over the normalized determinant (simplex half-widths 1e-3, then
    1e-4 from the first answer), with a penalty outside the seed's band."""
    minimize = pytest.importorskip("scipy.optimize").minimize

    def objective(z):
        q, omega = z
        if omega <= 0.0 or abs(omega - seed.omega) >= fundsys.BAND_HALFWIDTH:
            return 1e6
        try:
            return fundsys.delta_subdivided(q, omega, dp, opts.subintervals,
                                            opts.step)
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


def end_residual(dp, s, opts):
    """The boundary residual f(s) of the discretised system."""
    return fundsys._residual_fn(dp, opts.subintervals, opts.step)(s)[0]


def kernel_end_state(monkeypatch, dp, s, n, step):
    """(u(1), u'(1)) of solution 3 as the residual kernel computes them: the
    column (b, a) of the one propagator it builds."""
    built = []
    original = fundsys._propagator

    def recording(*args):
        built.append(original(*args))
        return built[-1]

    with monkeypatch.context() as m:
        m.setattr(fundsys, "_propagator", recording)
        fundsys._residual_fn(dp, n, step)(s)
    a, b = built[-1]
    return b, a


def kernel_polynomials(monkeypatch, dp, s):
    """(P(s), Q(s)) as the residual kernel evaluates them: its residual
    P*u + Q*u' with the end state (u, u') forced to (1, 0), then (0, 1)."""
    kernel = fundsys._residual_fn(dp, 1, fundsys.DEFAULT_STEP)
    values = []
    for a, b in ((0j, 1 + 0j), (1 + 0j, 0j)):
        with monkeypatch.context() as m:
            m.setattr(fundsys, "_propagator", lambda *args: (a, b))
            values.append(kernel(s)[0])
    return values


def secant_eigenvalue(dp, seed, opts):
    """The complex secant search that Newton's method replaced, kept as a
    cross-check: second point seed + (1 + i)*1e-3, secant steps on the same
    residual until a step is below 1e-15*|s|, and the last evaluated
    iterate as the answer."""
    s0 = complex(seed.q, seed.omega)
    s1 = s0 + (1 + 1j) * 1e-3
    f0 = end_residual(dp, s0, opts)
    for _ in range(100):
        f1 = end_residual(dp, s1, opts)
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


def reference_sweep(dp, nu_values, modes, omega_max, opts):
    """The per-row nu sweep that one nu-kernel per sweep replaced, kept as
    a cross-check: a replace(dp, nu=...) and a fresh search kernel per row,
    seeds from a Lagrange extrapolation through up to three converged rows
    at distinct nu, else from the previous row."""
    roots = conservative.find_roots(dp, omega_max, max_count=max(modes))
    rows = []
    for mode in modes:
        w0 = roots[mode - 1].omega
        first = replace(dp, nu=nu_values[0])
        seed = fundsys.SpectralPoint(
            q=asymptotic.corrected_eigenvalue(w0, first).q, omega=w0)
        history = []
        for nu in nu_values:
            if len(history) >= 2:
                s = lagrange_extrapolate(history, nu)
                seed = fundsys.SpectralPoint(q=s.real, omega=s.imag)
            point = fundsys.find_eigenvalue(replace(dp, nu=nu), seed, opts)
            rows.append(fundsys.SweepRow(
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
    rows.sort(key=lambda r: (r.nu, r.mode))
    return rows


def row_bits(row):
    """A sweep row with its floats as hex strings, so that == is bit
    identity (it tells -0.0 from 0.0 and matches NaN)."""
    return (row.nu.hex(), row.mode, row.q.hex(), row.omega.hex(),
            row.delta_value.hex(), row.converged)


def mp_end_propagator(q, omega, dp, n, step):
    """(a, b) of the propagator a*I + b*A of [0, 1] in 50-digit arithmetic:
    the RK4 step (1 + z/2 + z^2/24)*I + h*(1 + z/6)*A, z = h^2*K, raised to
    the full-step count of a 1/n-subinterval, one shortened step to its
    end, and the n-th power of that.  Step count and remainder are the
    ones the double-precision code takes."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        K = mp.mpc(*fundsys.rhs_coefficients(q, omega, dp.eps1))

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

        length = 1.0 / n
        nfull = int(np.floor(length / step + 1e-9))
        remainder = length - nfull * step
        sub = power(rk4_step(mp.mpf(step)), nfull)
        if remainder > 1e-14:
            sub = mul(rk4_step(mp.mpf(remainder)), sub)
        a, b = power(sub, n)
        return complex(a), complex(b)


def undamped_gamma(omega, x):
    """Analytic fundamental matrix for eps1 = 0, q = 0: two decoupled
    harmonic oscillators gamma'' = -omega^2 gamma."""
    c, s = np.cos(omega * x), np.sin(omega * x)
    return np.array([
        [c, 0.0, s / omega, 0.0],
        [0.0, c, 0.0, s / omega],
        [-omega * s, 0.0, c, 0.0],
        [0.0, -omega * s, 0.0, c],
    ])


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
    """Analytic fundamental matrix of u'' = lambda^2 u, lambda^2 = K."""
    lam = np.sqrt(complex(*fundsys.rhs_coefficients(q, omega, dp.eps1)))
    c, s = np.cosh(lam * x), np.sinh(lam * x)
    return realify([[c, s / lam], [lam * s, c]])


def reference_propagator(q, omega, dp, length, step):
    """The 4x4 construction: the RK4 Taylor polynomial of the real system
    matrix raised to the full-step count, then one shortened step."""
    K1, K2 = fundsys.rhs_coefficients(q, omega, dp.eps1)
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

    nfull = int(np.floor(length / step + 1e-9))
    remainder = length - nfull * step
    G = np.linalg.matrix_power(rk4_step(step), nfull)
    if remainder > 1e-14:
        G = rk4_step(remainder) @ G
    return G


def reference_delta(q, omega, dp, n, step):
    """Normalized determinant from n composed 4x4 subinterval propagators."""
    edges = np.linspace(0.0, 1.0, n + 1)
    G = np.eye(4)
    for a, b in zip(edges, edges[1:]):
        G = reference_propagator(q, omega, dp, b - a, step) @ G
    bc = fundsys.boundary_coefficients(q, omega, dp)
    cols = G[:, 2:4]
    rows = np.array([[bc.D1, bc.D2, bc.D3, bc.D4],
                     [-bc.D2, bc.D1, -bc.D4, bc.D3]])
    E = rows @ cols
    raw = E[0, 0] * E[1, 1] - E[0, 1] * E[1, 0]
    d_norm2 = bc.D1**2 + bc.D2**2 + bc.D3**2 + bc.D4**2
    return max(raw, 0.0) / (0.5 * d_norm2 * float(np.sum(cols * cols)))


# ------------------------------------------------------------ rhs coefficients

def test_rhs_coefficients_undamped():
    assert fundsys.rhs_coefficients(0.3, 1.1, 0.0) == pytest.approx(
        (0.3**2 - 1.1**2, 2 * 0.3 * 1.1))
    K1, K2 = fundsys.rhs_coefficients(0.0, 2.0, 0.0)
    assert (K1, K2) == (-4.0, 0.0)


def test_rhs_coefficients_zero_frequency_has_no_coupling():
    for q, eps1 in ((0.5, 0.0), (-0.2, 0.03), (1.0, 0.1)):
        _, K2 = fundsys.rhs_coefficients(q, 0.0, eps1)
        assert K2 == 0.0


def test_rhs_coefficients_complex_oracle():
    # K1 + i*K2 must equal s^2/(1 + eps1*s) with s = q + i*omega.
    rng = np.random.default_rng(41)
    for _ in range(300):
        q = rng.uniform(-2, 2)
        omega = rng.uniform(0.01, 10)
        eps1 = rng.uniform(0, 0.2)
        s = complex(q, omega)
        expected = s * s / (1.0 + eps1 * s)
        K1, K2 = fundsys.rhs_coefficients(q, omega, eps1)
        assert complex(K1, K2) == pytest.approx(expected, rel=1e-12)


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
        fundsys.delta_subdivided(q, omega, REF)


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


def test_kernel_polynomials_match_boundary_coefficients(monkeypatch):
    # The search evaluates P and Q as complex polynomials in s; they must
    # be the paper's D1 - i*D2 and D3 - i*D4.
    rng = np.random.default_rng(19)
    for k in range(300):
        dp = REF if k < 20 else random_dp(rng)
        if k % 3 == 0:
            dp = replace(dp, nu=0.0)
        s = complex(rng.uniform(-2, 2), rng.uniform(0.0, 10))
        bc = fundsys.boundary_coefficients(s.real, s.imag, dp)
        P, Q = kernel_polynomials(monkeypatch, dp, s)
        assert abs(P - complex(bc.D1, -bc.D2)) <= 1e-13 * abs(P)
        assert abs(Q - complex(bc.D3, -bc.D4)) <= 1e-13 * abs(Q)


# ------------------------------------------------------------------ integrator

def test_zero_length_integration_is_identity():
    G = fundsys.integrate_fundamental(0.1, 1.0, REF, x_start=0.4, x_end=0.4)
    assert np.array_equal(G, np.eye(4))


def test_integrator_matches_harmonic_oracle():
    G = fundsys.integrate_fundamental(0.0, np.pi, UNDAMPED, step=1.0 / 2000.0)
    assert G[0, 0] == pytest.approx(-1.0, abs=1e-8)   # cos(pi)
    assert G[0, 2] == pytest.approx(0.0, abs=1e-8)    # sin(pi)/pi
    assert np.max(np.abs(G - undamped_gamma(np.pi, 1.0))) < 1e-8


@pytest.mark.parametrize("q, omega", [(-0.3, 2.0 * np.pi), (0.4, 5.0),
                                      (-1.0, 8.0)])
def test_integrator_matches_damped_oracle(q, omega):
    exact = damped_gamma(q, omega, REF, 1.0)
    e1 = np.max(np.abs(fundsys.integrate_fundamental(
        q, omega, REF, step=1.0 / 2000.0) - exact))
    e2 = np.max(np.abs(fundsys.integrate_fundamental(
        q, omega, REF, step=1.0 / 4000.0) - exact))
    assert e1 < 1e-8
    assert e2 <= e1 / 8.0


def test_integrator_matches_matrix_reference():
    rng = np.random.default_rng(11)
    for _ in range(40):
        dp = random_dp(rng)
        q = rng.uniform(-1, 1)
        omega = rng.uniform(0.01, 10)
        for x_end, step in ((1.0, 1.0 / 500.0), (0.775, 1.0 / 300.0),
                            (0.125, 1.0 / 2000.0)):
            G = fundsys.integrate_fundamental(q, omega, dp, 0.0, x_end, step)
            ref = reference_propagator(q, omega, dp, x_end, step)
            assert np.max(np.abs(G - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [1, 2, 8])
def test_delta_subdivided_matches_matrix_reference(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(30):
        dp = random_dp(rng)
        q = rng.uniform(-1, 1)
        omega = rng.uniform(0.01, 10)
        # 1/700 does not divide 1/8, so n = 8 takes a remainder step.
        step = rng.choice([1.0 / 2000.0, 1.0 / 700.0])
        value = fundsys.delta_subdivided(q, omega, dp, n=n, step=step)
        assert abs(value - reference_delta(q, omega, dp, n, step)) <= 1e-12


def test_integrator_fourth_order_error_signature():
    exact = undamped_gamma(np.pi, 1.0)
    e1 = np.max(np.abs(fundsys.integrate_fundamental(
        0.0, np.pi, UNDAMPED, step=1.0 / 250.0) - exact))
    e2 = np.max(np.abs(fundsys.integrate_fundamental(
        0.0, np.pi, UNDAMPED, step=1.0 / 500.0) - exact))
    assert e2 <= e1 / 8.0


def test_integrator_short_final_step_lands_on_endpoint():
    # 1/300 does not divide 0.775; the remainder step must close the gap.
    omega = 2.0
    G = fundsys.integrate_fundamental(0.0, omega, UNDAMPED, x_start=0.0,
                                      x_end=0.775, step=1.0 / 300.0)
    assert np.max(np.abs(G - undamped_gamma(omega, 0.775))) < 1e-9


def test_fundamental_determinant_is_one():
    rng = np.random.default_rng(5)
    for _ in range(25):
        dp = random_dp(rng)
        q = rng.uniform(-1, 1)
        omega = rng.uniform(0.1, 8)
        G = fundsys.integrate_fundamental(q, omega, dp, step=1.0 / 500.0)
        assert np.linalg.det(G) == pytest.approx(1.0, abs=1e-6)


def test_integrator_overflow_raises():
    with pytest.raises(OverflowError):
        fundsys.integrate_fundamental(400.0, 1.0, UNDAMPED, step=1.0 / 500.0)


def test_integrator_rejects_reversed_interval():
    with pytest.raises(ValueError):
        fundsys.integrate_fundamental(0.0, 1.0, REF, x_start=1.0, x_end=0.0)


@pytest.mark.parametrize("step", [1.0 / 2000.0, 0.0007, 0.05, 0.2])
@pytest.mark.parametrize("n", [1, 3, 8])
def test_end_propagator_matches_exact_rk4_power(monkeypatch, step, n):
    # The closed form exp(L)*(cosh(T)*I + sinh(T)*A/sqrt(K)) against the
    # RK4 step polynomial raised to the same power in 50 digits; 0.0007
    # divides no subinterval, so it takes a remainder step.
    rng = np.random.default_rng(int(step * 1e4) + n)
    for _ in range(6):
        dp = random_dp(rng)
        q = rng.uniform(-1.0, 0.5)
        omega = rng.uniform(0.01, min(20.0, 2.5 / step))
        K = complex(*fundsys.rhs_coefficients(q, omega, dp.eps1))
        u, du = kernel_end_state(monkeypatch, dp, complex(q, omega), n, step)
        a, b = mp_end_propagator(q, omega, dp, n, step)
        errors = (abs(du - a), abs(u - b), abs((u - b) * K))
        assert max(errors) <= 1e-13 * max(abs(a), abs(b), abs(b * K))


def test_end_propagator_reaches_its_limit_at_zero(monkeypatch):
    # K = 0 at s = 0, where A is nilpotent and every propagator is
    # I + length*A: u(1) = u'(1) = 1, so f = Q(0) = 1 and f' = Q'(0).
    # Near it the exact end state is (sinh(l)/l, cosh(l)) = (1 + K/6,
    # 1 + K/2) to O(K^2).
    for n, step in ((1, 1.0 / 2000.0), (8, 0.0007)):
        assert kernel_end_state(monkeypatch, REF, 0j, n, step) == (1, 1)
        assert fundsys._residual_fn(REF, n, step)(0j) == (
            1, np.sqrt(2.0), REF.eps1 + REF.mu * REF.delta)
        for s in (1e-150j, 1e-9j, 1e-7 * (1 + 1j), complex(-1e-8, 0.0)):
            K = complex(*fundsys.rhs_coefficients(s.real, s.imag, REF.eps1))
            u, du = kernel_end_state(monkeypatch, REF, s, n, step)
            assert abs(u - (1 + K / 6)) <= 1e-15
            assert abs(du - (1 + K / 2)) <= 1e-15
    G = fundsys.integrate_fundamental(0.0, 0.0, REF, x_end=0.7)
    assert np.array_equal(G, realify([[1, 0.7], [0, 1]]))


@pytest.mark.parametrize("step", [1.0 / 2000.0, 0.01])
@pytest.mark.parametrize("n", [1, 8])
def test_residual_kernel_takes_nu_as_an_argument(monkeypatch, n, step):
    # One kernel evaluated at nu is bit for bit the kernel built for
    # replace(dp, nu=nu), and f is affine in nu: only P's s^3 coefficient
    # eta*delta*(nu + mu) moves, so f(s; nu) - f(s; 0) = nu*eta*delta*s^3*u(1).
    # The gap is measured against the bound scale of |f|, because f(nu) -
    # f(0) cancels digits when nu*delta*|s| is small.
    rng = np.random.default_rng(39 + n)
    for dp in [REF] + [small_dissipation_dp(rng) for _ in range(6)]:
        kernel = fundsys._residual_fn(dp, n, step)
        for seed in asymptotic_seeds(dp, 5):
            s = (complex(seed.q, seed.omega)
                 + complex(*rng.uniform(-1e-3, 1e-3, 2)))
            u, _ = kernel_end_state(monkeypatch, dp, s, n, step)
            f0 = kernel(s, 0.0)[0]
            assert kernel(s) == kernel(s, dp.nu)
            for nu in (0.0, 0.013, 0.05, 0.1):
                f, scale, df = kernel(s, nu)
                assert (f, scale, df) == fundsys._residual_fn(
                    replace(dp, nu=nu), n, step)(s)
                gap = f - f0 - nu * dp.eta * dp.delta * s ** 3 * u
                assert abs(gap) <= 1e-13 * scale


# ------------------------------------------------------------------ determinant

def test_delta_vanishes_on_conservative_spectrum():
    roots = conservative.find_roots(UNDAMPED, omega_max=10.0)
    assert len(roots) >= 2
    for r in roots:
        assert fundsys.delta(0.0, r.omega, UNDAMPED, step=1.0 / 2000.0) < 1e-10


def test_delta_positive_off_spectrum():
    w1 = conservative.find_roots(UNDAMPED, omega_max=1.0)[0].omega
    assert fundsys.delta(0.3, w1, UNDAMPED, step=1.0 / 1000.0) > 1e-4


def test_delta_nonnegative_at_random_points():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        q = rng.uniform(-1, 1)
        omega = rng.uniform(1e-3, 10.0)
        value = fundsys.delta(q, omega, REF, step=1.0 / 200.0)
        assert value >= 0.0


def test_delta_subdivided_single_interval_equals_basic():
    for (q, omega) in ((0.0, OMEGA_1), (0.1, 2.0), (-0.3, 5.5)):
        a = fundsys.delta(q, omega, REF, step=1.0 / 500.0)
        b = fundsys.delta_subdivided(q, omega, REF, n=1, step=1.0 / 500.0)
        assert a == b  # identical code path -> bitwise equal


def test_delta_subdivided_consistency():
    rng = np.random.default_rng(77)
    for _ in range(20):
        q = rng.uniform(-0.05, 0.05)
        omega = OMEGA_1 + rng.uniform(-0.05, 0.05)
        d1 = fundsys.delta_subdivided(q, omega, REF, n=1, step=1.0 / 1000.0)
        for n in (2, 4, 8):
            dn = fundsys.delta_subdivided(q, omega, REF, n=n, step=1.0 / 1000.0)
            assert abs(dn - d1) / (1.0 + d1) < 1e-6


def test_delta_subdivided_composition_matches_oracle():
    n = 4
    G = np.eye(4)
    edges = np.linspace(0.0, 1.0, n + 1)
    for i in range(n):
        G = fundsys.integrate_fundamental(0.0, np.pi, UNDAMPED, edges[i],
                                          edges[i + 1], step=1.0 / 2000.0) @ G
    assert G[0, 0] == pytest.approx(-1.0, abs=1e-8)


def test_delta_subdivided_composed_overflow_raises():
    # Each subinterval stays below the limit; only the product exceeds it.
    fundsys.integrate_fundamental(0.0, 1e4, REF, 0.0, 0.125)
    with pytest.raises(OverflowError):
        fundsys.delta_subdivided(0.0, 1e4, REF)


@pytest.mark.parametrize("n", [1, 8, 200])
def test_kernel_builds_one_propagator_per_evaluation(monkeypatch, n):
    # The end state comes straight from the composed propagator over [0, 1];
    # the subinterval's is never built, whatever the subinterval count.
    built = []
    original = fundsys._propagator

    def recording(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(fundsys, "_propagator", recording)
    calls = count_rhs_calls(monkeypatch)
    kernel = fundsys._residual_fn(REF, n, fundsys.DEFAULT_STEP)
    for s in (complex(-0.01, 0.35), complex(0.0, 5.0), complex(0.3, 17.0)):
        built.clear()
        kernel(s)
        assert len(built) == 1
        assert built[0][-1] == 1.0
    # A search evaluates the same kernel: one propagator per evaluation.
    built.clear()
    calls.clear()
    seed = asymptotic_seeds(REF, 2)[-1]
    assert fundsys.find_eigenvalue(
        REF, seed, fundsys.SolveOptions(subintervals=n)).converged
    assert len(built) == len(calls) > 0


def test_delta_subdivided_rejects_bad_count():
    with pytest.raises(ValueError):
        fundsys.delta_subdivided(0.0, 1.0, REF, n=0)


@pytest.mark.parametrize("step", [1e-320, 5e-324])
def test_subnormal_step_is_a_value_error(conservative_mode_one, step):
    # length/step overflows to inf, whose step count int(floor(inf)) raised
    # OverflowError, the "subdivide" signal, instead of rejecting the step.
    with pytest.raises(ValueError, match="too small"):
        fundsys.delta_subdivided(0.0, 0.35, REF, 1, step)
    with pytest.raises(ValueError, match="too small"):
        fundsys.integrate_fundamental(0.0, 0.35, REF, step=step)
    with pytest.raises(ValueError, match="too small"):
        fundsys.mode_shape(conservative_mode_one, UNDAMPED, resolution=11,
                           options=replace(SHAPE_OPTS, step=step))


# ------------------------------------------------------------------- eigensolve

def test_find_eigenvalue_recovers_conservative_root():
    seed = fundsys.SpectralPoint(q=0.01, omega=0.36)
    point = fundsys.find_eigenvalue(UNDAMPED, seed, FAST)
    assert point.converged
    assert point.q == pytest.approx(0.0, abs=1e-6)
    assert point.omega == pytest.approx(OMEGA_1, abs=1e-6)
    assert point.delta_value < 1e-12


def test_find_eigenvalue_near_critical_feedback_is_neutral():
    dp = DimensionlessParams(0.005, 0.008, 0.0529760481, 7.0, 0.1)
    ev = asymptotic.corrected_eigenvalue(OMEGA_1, dp)
    point = fundsys.find_eigenvalue(dp, fundsys.SpectralPoint(ev.q, OMEGA_1), FAST)
    assert point.converged
    assert abs(point.q) < 1e-3


def test_find_eigenvalue_stays_in_seed_band():
    point = fundsys.find_eigenvalue(
        UNDAMPED, fundsys.SpectralPoint(q=0.0, omega=0.36), FAST)
    assert abs(point.omega - 0.36) < np.pi / 2


def test_find_eigenvalue_never_raises_on_starved_budget(monkeypatch):
    # A far seed with almost no iteration budget cannot reach the spectrum:
    # the solver must report failure, not throw.
    monkeypatch.setattr(fundsys, "MAX_ITERATIONS", 3)
    opts = fundsys.SolveOptions(step=1.0 / 200.0, subintervals=1)
    point = fundsys.find_eigenvalue(
        UNDAMPED, fundsys.SpectralPoint(q=0.5, omega=1.8), opts)
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
    opts = fundsys.SolveOptions()
    for dp, count in cases:
        seeds = asymptotic_seeds(dp, count)
        assert len(seeds) == count
        for seed in seeds:
            point = fundsys.find_eigenvalue(dp, seed, opts)
            s_nm, value_nm = nelder_mead_eigenvalue(dp, seed, opts)
            assert point.converged and value_nm < fundsys.CONVERGED_TOL
            assert abs(complex(point.q, point.omega) - s_nm) <= 1e-9


def test_find_eigenvalue_agrees_with_secant():
    # Cold searches for every mode below omega = 20, and sweep rows against
    # a secant search warm-started from the previous row.
    rng = np.random.default_rng(37)
    opts = fundsys.SolveOptions()
    for dp in [REF] + [small_dissipation_dp(rng) for _ in range(8)]:
        for seed in asymptotic_seeds(dp, None):
            point = fundsys.find_eigenvalue(dp, seed, opts)
            s_ref = secant_eigenvalue(dp, seed, opts)
            assert point.converged
            s = complex(point.q, point.omega)
            assert abs(s - s_ref) <= 1e-13 * abs(s_ref)
        rows = fundsys.sweep_feedback(dp, [0.01 * i for i in range(11)],
                                      modes=(1, 2), options=opts)
        for mode in (1, 2):
            branch = [r for r in rows if r.mode == mode]
            for before, row in zip(branch, branch[1:]):
                seed = fundsys.SpectralPoint(q=before.q, omega=before.omega)
                s_ref = secant_eigenvalue(replace(dp, nu=row.nu), seed, opts)
                assert row.converged
                s = complex(row.q, row.omega)
                assert abs(s - s_ref) <= 1e-13 * abs(s_ref)


small_dissipation = st.builds(
    DimensionlessParams, eps1=st.floats(0.0, 0.02), mu=st.floats(0.0, 0.02),
    nu=st.floats(0.0, 0.1), eta=st.floats(0.5, 10.0),
    delta=st.floats(0.02, 0.5))


@settings(max_examples=60, deadline=None)
@given(dp=small_dissipation, mode=st.integers(1, 7),
       dq=st.floats(-0.5, 0.5), domega=st.floats(-1.0, 1.0),
       edge_fraction=st.floats(0.01, 1.0), subintervals=st.integers(1, 16))
def test_find_eigenvalue_never_raises(dp, mode, dq, domega, edge_fraction,
                                      subintervals):
    # Seeds around the modes below omega = 20, steps up to the RK4
    # stability edge at omega = 20: a search may fail, but it must not
    # raise, and converged must mean a small normalized determinant.
    roots = conservative.find_roots(dp, 20.0, max_count=mode)
    w0 = roots[-1].omega
    seed = fundsys.SpectralPoint(
        q=asymptotic.corrected_eigenvalue(w0, dp).q + dq,
        omega=max(w0 + domega, 0.01))
    opts = fundsys.SolveOptions(
        step=edge_fraction * fundsys.STABILITY_EDGE / 20.0,
        subintervals=subintervals)
    point = fundsys.find_eigenvalue(dp, seed, opts)
    if point.converged:
        assert point.delta_value < fundsys.CONVERGED_TOL


def count_rhs_calls(monkeypatch):
    """Record every rhs_coefficients call, one per residual evaluation."""
    calls = []
    original = fundsys.rhs_coefficients

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(fundsys, "rhs_coefficients", counting)
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
            assert len(calls) <= 6
            counts.append(len(calls))
    assert np.mean(counts) <= 3.8
    assert boundary_calls == []


@pytest.mark.parametrize("options", [
    fundsys.SolveOptions(subintervals=0), fundsys.SolveOptions(step=0.0),
    fundsys.SolveOptions(step=-1e-3), fundsys.SolveOptions(step=np.nan),
    fundsys.SolveOptions(subintervals=-3),
    fundsys.SolveOptions(step=-np.inf),
    fundsys.SolveOptions(step=1e-320, subintervals=1),
    fundsys.SolveOptions(step=5e-324)])
def test_find_eigenvalue_rejects_bad_options_before_evaluating(monkeypatch,
                                                                options):
    calls = count_rhs_calls(monkeypatch)
    with pytest.raises(ValueError):
        fundsys.find_eigenvalue(REF, fundsys.SpectralPoint(q=-0.01, omega=0.35),
                                options)
    assert calls == []


def test_find_eigenvalue_reports_its_last_evaluation():
    opts = fundsys.SolveOptions()
    for seed in asymptotic_seeds(REF, 5):
        point = fundsys.find_eigenvalue(REF, seed, opts)
        assert point.converged
        assert point.delta_value == fundsys.delta_subdivided(
            point.q, point.omega, REF, opts.subintervals, opts.step)


def test_spectral_point_slope_is_not_compared_or_shown():
    point = fundsys.SpectralPoint(q=-0.1, omega=2.0, slope=3 + 4j)
    assert point == fundsys.SpectralPoint(q=-0.1, omega=2.0)
    assert "slope" not in repr(point)
    assert fundsys.SpectralPoint(q=0.0, omega=1.0).slope is None


def test_find_eigenvalue_ignores_a_seed_slope():
    # Every Newton step takes its slope from its own evaluation, so a slope
    # carried by the seed, usable or not, changes nothing.
    rng = np.random.default_rng(36)
    opts = fundsys.SolveOptions()
    for dp in [REF] + [small_dissipation_dp(rng) for _ in range(3)]:
        for seed in asymptotic_seeds(dp, 4):
            plain = fundsys.find_eigenvalue(dp, seed, opts)
            assert plain.converged and plain.slope is not None
            for slope in (0.0, complex(np.nan, np.nan), -np.inf,
                          1e6 * plain.slope, plain.slope):
                point = fundsys.find_eigenvalue(
                    dp, replace(seed, slope=slope), opts)
                assert point == plain and point.slope == plain.slope


def test_find_eigenvalue_reports_the_slope_at_its_answer():
    # slope is df/ds of the discretised residual at the returned point, up
    # to the RK4 error of the continuous-system derivative.
    opts = fundsys.SolveOptions()
    for seed in asymptotic_seeds(REF, 5):
        point = fundsys.find_eigenvalue(REF, seed, opts)
        s, h = complex(point.q, point.omega), 1e-5
        central = (end_residual(REF, s + h, opts)
                   - end_residual(REF, s - h, opts)) / (2 * h)
        assert abs(point.slope - central) <= 1e-7 * abs(central)


def test_sweep_feedback_continuation(monkeypatch):
    # Predictor-corrector continuation in nu: at most 3 residual
    # evaluations per row on average, against about 4 for a warm start,
    # and every row is the eigenvalue a warm-started search from the
    # previous row finds.
    nu_grid = [0.005 * i for i in range(21)]
    opts = fundsys.SolveOptions()
    rng = np.random.default_rng(33)
    for dp in [REF] + [small_dissipation_dp(rng) for _ in range(10)]:
        calls = count_rhs_calls(monkeypatch)
        rows = fundsys.sweep_feedback(dp, nu_grid, modes=(1, 2), options=opts)
        monkeypatch.undo()
        assert len(calls) <= 3 * len(rows)
        assert all(r.converged for r in rows)
        for mode in (1, 2):
            branch = [r for r in rows if r.mode == mode]
            for before, row in zip(branch, branch[1:]):
                fresh = fundsys.find_eigenvalue(
                    replace(dp, nu=row.nu),
                    fundsys.SpectralPoint(q=before.q, omega=before.omega), opts)
                assert fresh.converged
                s, s_fresh = complex(row.q, row.omega), complex(fresh.q,
                                                                fresh.omega)
                assert abs(s - s_fresh) <= 1e-12 * abs(s_fresh)


@pytest.mark.parametrize("package", ["scipy", "numpy"])
def test_import_loads_no_scipy(package):
    src = str(Path(barmodes.__file__).resolve().parents[1])
    code = ("import sys, barmodes; print(sorted(m for m in sys.modules "
            f"if m.split('.')[0] == {package!r}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.strip() == "[]"


# ------------------------------------------------------------------- mode shape

@pytest.fixture(scope="module")
def conservative_mode_one():
    seed = fundsys.SpectralPoint(q=0.0, omega=0.36)
    point = fundsys.find_eigenvalue(UNDAMPED, seed, SHAPE_OPTS)
    assert point.converged
    return point


def test_mode_shape_conservative_is_real_sine(conservative_mode_one):
    shape = fundsys.mode_shape(conservative_mode_one, UNDAMPED,
                               resolution=101, options=SHAPE_OPTS)
    assert np.max(np.abs(shape.u2)) <= 1e-6
    expected = np.sin(conservative_mode_one.omega * shape.grid)
    expected = expected / np.max(np.abs(expected))
    assert np.max(np.abs(shape.u1 - expected)) < 1e-6


def test_mode_shape_clamped_end_and_normalization(conservative_mode_one):
    shape = fundsys.mode_shape(conservative_mode_one, UNDAMPED,
                               resolution=64, options=SHAPE_OPTS)
    assert shape.u1[0] == 0.0 and shape.u2[0] == 0.0
    assert np.max(np.hypot(shape.u1, shape.u2)) == pytest.approx(1.0, abs=1e-15)
    assert len(shape.grid) == 64


def test_mode_shape_rejects_unconverged_point():
    bogus = fundsys.SpectralPoint(q=0.0, omega=0.36, delta_value=1.0,
                                  converged=False)
    with pytest.raises(ValueError):
        fundsys.mode_shape(bogus, UNDAMPED, resolution=11)


def test_mode_shape_rejects_non_eigenvalue():
    # Converged flag forged at a point that is not on the spectrum.
    forged = fundsys.SpectralPoint(q=0.25, omega=1.9, delta_value=0.0,
                                   converged=True)
    with pytest.raises(np.linalg.LinAlgError):
        fundsys.mode_shape(forged, UNDAMPED, resolution=11,
                           options=replace(SHAPE_OPTS, step=1.0 / 500.0))


# Option sets the CLI accepts for modes below omega = 20: production, and
# coarse steps with 8, 3 and 1 subintervals.
SHAPE_OPTION_SETS = [fundsys.SolveOptions(step=step, subintervals=n)
                     for step, n in [(1.0 / 2000.0, 8), (0.003, 8), (0.05, 8),
                                     (0.1, 8), (0.01, 3), (0.07, 1)]]


@pytest.mark.parametrize("opts", SHAPE_OPTION_SETS)
def test_mode_shape_profiles_the_system_its_search_solved(monkeypatch, opts):
    # The rank check is the search's own residual, so a converged search
    # always has a shape: 77 searches per option set, all converged.
    delta_subdivided, seen = fundsys.delta_subdivided, []

    def spy(*args):
        seen.append(delta_subdivided(*args))
        return seen[-1]

    monkeypatch.setattr(fundsys, "delta_subdivided", spy)
    rng = np.random.default_rng(43)
    shapes = 0
    for dp in [REF] + [small_dissipation_dp(rng) for _ in range(10)]:
        roots = conservative.find_roots(dp, 20.0)
        for seed in asymptotic_seeds(dp, len(roots)):
            point = fundsys.find_eigenvalue(dp, seed, opts)
            if not point.converged:
                continue
            seen.clear()
            shape = fundsys.mode_shape(point, dp, options=opts)
            assert seen == [point.delta_value]
            assert len(shape.grid) == 201
            shapes += 1
    assert shapes >= 70


def test_mode_shape_resolution_only_sets_the_sampling():
    opts = fundsys.SolveOptions(step=0.03, subintervals=8)
    point = fundsys.find_eigenvalue(REF, asymptotic_seeds(REF, 1)[0], opts)
    assert point.converged
    middle, end = [], []
    for resolution in (11, 101, 201):
        shape = fundsys.mode_shape(point, REF, resolution, options=opts)
        half = (resolution - 1) // 2
        assert shape.grid[half] == 0.5
        middle.append(complex(shape.u1[half], shape.u2[half]))
        end.append(complex(shape.u1[-1], shape.u2[-1]))
    assert np.allclose(middle, middle[0], rtol=0.0, atol=1e-15)
    assert np.allclose(end, end[0], rtol=0.0, atol=1e-15)


# ------------------------------------------------------------------- nu sweep

def test_sweep_feedback_empty_grid():
    assert fundsys.sweep_feedback(REF, [], modes=(1,)) == []


def test_sweep_feedback_rows_and_warm_start():
    rows = fundsys.sweep_feedback(REF, [0.0, 0.005, 0.01], modes=(1,),
                                  options=FAST)
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
    rows = fundsys.sweep_feedback(REF, [0.0, 0.01, 0.01, 0.02], modes=(1,),
                                  options=FAST)
    assert all(r.converged for r in rows)
    assert (rows[1].q, rows[1].omega) == pytest.approx((rows[2].q,
                                                        rows[2].omega))


def test_sweep_feedback_orders_rows_by_nu_then_mode():
    rows = fundsys.sweep_feedback(REF, [0.0, 0.01], modes=(1, 2),
                                  options=FAST, omega_max=10.0)
    key = [(r.nu, r.mode) for r in rows]
    assert key == sorted(key)
    assert len(rows) == 4


def test_sweep_feedback_rejects_descending_grid():
    with pytest.raises(ValueError):
        fundsys.sweep_feedback(REF, [0.01, 0.0], modes=(1,), options=FAST)


@pytest.mark.parametrize("modes", [(0,), (0, 2), (-1, 1), (1, 1), (2, 1, 2)])
def test_sweep_feedback_rejects_bad_modes(modes):
    # roots[mode - 1] would wrap around for mode 0 and label mode 2's
    # eigenvalue "mode 0"; a repeated mode would duplicate its rows.
    with pytest.raises(ValueError, match="modes"):
        fundsys.sweep_feedback(REF, [0.0], modes=modes, options=FAST)


@pytest.mark.parametrize("nu_values", [[0.0, np.nan], [0.0, np.inf],
                                       [np.nan, 0.0], [-np.inf, 0.0]])
def test_sweep_feedback_rejects_non_finite_grid(monkeypatch, nu_values):
    # Unchecked, a NaN or infinite nu gives a silent NaN row copied from
    # the previous one, or a "non-finite seed" error naming the wrong cause.
    searches = []
    monkeypatch.setattr(fundsys, "find_eigenvalue",
                        lambda *args, **kwargs: searches.append(args))
    with pytest.raises(ValueError, match="nu grid must be finite"):
        fundsys.sweep_feedback(REF, nu_values, modes=(1,), options=FAST)
    assert searches == []


@pytest.mark.parametrize("opts", [fundsys.SolveOptions(), FAST])
def test_sweep_feedback_matches_the_per_row_sweep(opts):
    # One nu-kernel per sweep, the unrolled extrapolation and the result
    # reused as the next seed change no bit of any row.
    rng = np.random.default_rng(40)
    grids = ([0.005 * i for i in range(21)], [0.0, 0.01, 0.01, 0.02, 0.1])
    for dp in [REF] + [small_dissipation_dp(rng) for _ in range(10)]:
        for nu_values in grids:
            rows = fundsys.sweep_feedback(dp, nu_values, modes=(1, 2),
                                          options=opts)
            expected = reference_sweep(dp, nu_values, (1, 2), 20.0, opts)
            assert [row_bits(r) for r in rows] == [row_bits(r)
                                                   for r in expected]


def test_sweep_feedback_makes_one_search_call_per_row(monkeypatch):
    # A wrapper of the module global find_eigenvalue sees every row as one
    # call with dp and the seed positional, and the sweep builds one
    # residual kernel in all, not one per row or per mode.
    searches, kernels = [], []
    search, build = fundsys.find_eigenvalue, fundsys._residual_fn

    def counting_search(*args, **kwargs):
        searches.append(args)
        return search(*args, **kwargs)

    def counting_build(*args):
        kernels.append(args)
        return build(*args)

    monkeypatch.setattr(fundsys, "find_eigenvalue", counting_search)
    monkeypatch.setattr(fundsys, "_residual_fn", counting_build)
    nu_grid = [0.005 * i for i in range(21)]
    rows = fundsys.sweep_feedback(REF, nu_grid, modes=(1, 2), options=FAST)
    assert len(rows) == len(searches) == 42
    assert all(args[0] is REF and isinstance(args[1], fundsys.SpectralPoint)
               for args in searches)
    assert kernels == [(REF, FAST.subintervals, FAST.step)]
