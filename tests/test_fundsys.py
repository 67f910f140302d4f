import numpy as np
import pytest

from barmodes import asymptotic, conservative, fundsys
from barmodes.params import DimensionlessParams

REF = DimensionlessParams(eps1=0.005, mu=0.008, nu=0.05, eta=7.0, delta=0.1)
UNDAMPED = DimensionlessParams(0.0, 0.0, 0.0, eta=7.0, delta=0.1)
OMEGA_1 = 0.3534042288

# Coarser-than-production controls keep the unit suite quick; accuracy
# statements at production resolution live in the acceptance tests.
FAST = fundsys.SolveOptions(step=1.0 / 400.0, subintervals=2)


def random_dp(rng):
    return DimensionlessParams(
        eps1=rng.uniform(0.0, 0.1),
        mu=rng.uniform(0.0, 0.1),
        nu=rng.uniform(0.0, 0.1),
        eta=rng.uniform(0.1, 10.0),
        delta=rng.uniform(0.01, 2.0),
    )


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
    E = bc.as_matrix() @ cols
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


def test_state_derivative_matches_normal_system():
    state = fundsys.StateVector(g1=0.2, g2=-0.4, g3=1.5, g4=0.7)
    K1, K2 = 3.0, -2.0
    der = fundsys.state_derivative(state, K1, K2)
    assert der.g1 == state.g3
    assert der.g2 == state.g4
    assert der.g3 == K1 * state.g1 - K2 * state.g2
    assert der.g4 == K2 * state.g1 + K1 * state.g2


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


def test_boundary_rows_structure():
    bc = fundsys.boundary_coefficients(0.2, 1.7, REF)
    rows = bc.as_matrix()
    assert rows.shape == (2, 4)
    assert np.array_equal(rows[0], [bc.D1, bc.D2, bc.D3, bc.D4])
    assert np.array_equal(rows[1], [-bc.D2, bc.D1, -bc.D4, bc.D3])


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


def test_delta_subdivided_rejects_bad_count():
    with pytest.raises(ValueError):
        fundsys.delta_subdivided(0.0, 1.0, REF, n=0)


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


def test_find_eigenvalue_never_raises_on_starved_budget():
    # A far seed with almost no iteration budget cannot reach the spectrum:
    # the solver must report failure, not throw.
    opts = fundsys.SolveOptions(step=1.0 / 200.0, subintervals=1,
                                max_iterations=3)
    point = fundsys.find_eigenvalue(
        UNDAMPED, fundsys.SpectralPoint(q=0.5, omega=1.8), opts)
    assert not point.converged
    assert np.isfinite(point.delta_value)


# ------------------------------------------------------------------- mode shape

@pytest.fixture(scope="module")
def conservative_mode_one():
    seed = fundsys.SpectralPoint(q=0.0, omega=0.36)
    opts = fundsys.SolveOptions(step=1.0 / 1000.0, subintervals=2)
    point = fundsys.find_eigenvalue(UNDAMPED, seed, opts)
    assert point.converged
    return point


def test_mode_shape_conservative_is_real_sine(conservative_mode_one):
    shape = fundsys.mode_shape(conservative_mode_one, UNDAMPED,
                               resolution=101, step=1.0 / 1000.0)
    assert np.max(np.abs(shape.u2)) <= 1e-6
    expected = np.sin(conservative_mode_one.omega * shape.grid)
    expected = expected / np.max(np.abs(expected))
    assert np.max(np.abs(shape.u1 - expected)) < 1e-6


def test_mode_shape_clamped_end_and_normalization(conservative_mode_one):
    shape = fundsys.mode_shape(conservative_mode_one, UNDAMPED,
                               resolution=64, step=1.0 / 1000.0)
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
        fundsys.mode_shape(forged, UNDAMPED, resolution=11, step=1.0 / 500.0)


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


def test_sweep_feedback_orders_rows_by_nu_then_mode():
    rows = fundsys.sweep_feedback(REF, [0.0, 0.01], modes=(1, 2),
                                  options=FAST, omega_max=10.0)
    key = [(r.nu, r.mode) for r in rows]
    assert key == sorted(key)
    assert len(rows) == 4


def test_sweep_feedback_rejects_descending_grid():
    with pytest.raises(ValueError):
        fundsys.sweep_feedback(REF, [0.01, 0.0], modes=(1,), options=FAST)
