"""Acceptance checks at production settings.

Every test prints exactly one

    [criterion NN] PASS/FAIL -- <what was checked> (<measured numbers>)

line and then asserts on the same condition, so the summary is readable in
plain pytest output (the suite runs with -s) while failures still fail the
run.  Unit-level coverage with cheaper settings lives in the other test
modules; this file is the end-to-end gate.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from barmodes import asymptotic, conservative, fundsys, rk4
from barmodes.params import DimensionlessParams

REF = DimensionlessParams(eps1=0.005, mu=0.008, nu=0.05, eta=7.0, delta=0.1)
UNDAMPED = DimensionlessParams(0.0, 0.0, 0.0, eta=7.0, delta=0.1)
OMEGA_1 = 0.3534042288
OMEGA_2 = 2.904816694
NU_CRIT = 0.0529760481

PRODUCTION = fundsys.SolveOptions()  # step 1e-6, 8 subintervals


def report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:2d}] {status} -- {label}{suffix}")
    return ok


@pytest.fixture(scope="module")
def production_sweep():
    """One production-resolution feedback sweep shared by criteria 4-6."""
    grid = [i * 0.005 for i in range(21)]  # 0(0.005)0.1
    start = time.perf_counter()
    rows = fundsys.sweep_feedback(REF, grid, modes=(1, 2), omega_max=20.0,
                                  options=PRODUCTION)
    elapsed = time.perf_counter() - start
    assert all(row.converged for row in rows)
    return rows, elapsed


def test_criterion_01_conservative_frequencies():
    conservative.find_roots(UNDAMPED, 20.0)  # warm-up outside the timer
    start = time.perf_counter()
    roots = conservative.find_roots(UNDAMPED, 20.0)
    elapsed = time.perf_counter() - start
    err1 = abs(roots[0].omega - OMEGA_1)
    err2 = abs(roots[1].omega - OMEGA_2)
    ok = err1 < 1e-6 and err2 < 1e-6 and elapsed < 0.1
    assert report(1, "conservative frequencies 0.3534042288 / 2.904816694"
                     " within 1e-6, runtime < 0.1 s", ok,
                  f"errors {err1:.1e} / {err2:.1e}, {elapsed * 1e3:.1f} ms")


def test_criterion_02_critical_feedback():
    asymptotic.critical_feedback(OMEGA_1, REF)  # warm-up outside the timer
    start = time.perf_counter()
    nu1 = asymptotic.critical_feedback(OMEGA_1, REF)
    nu2 = asymptotic.critical_feedback(OMEGA_2, REF)
    elapsed = time.perf_counter() - start
    ok = (nu1 is not None and abs(nu1 - NU_CRIT) < 1e-4
          and nu2 is None and elapsed < 0.01)
    shown = "None" if nu1 is None else f"{nu1:.10f}"
    assert report(2, "critical feedback 0.0529760481 within 1e-4 for mode 1,"
                     " never-excited for mode 2, runtime < 0.01 s", ok,
                  f"nu_crit={shown}, mode 2 -> {nu2}, "
                  f"{elapsed * 1e6:.0f} us")


def test_criterion_03_two_method_agreement():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        dp = DimensionlessParams(eps1=rng.uniform(0.0, 0.1),
                                 mu=rng.uniform(0.0, 0.1),
                                 nu=rng.uniform(0.0, 0.1),
                                 eta=rng.uniform(0.1, 10.0),
                                 delta=rng.uniform(0.01, 2.0))
        omega = rng.uniform(1e-6, 10.0)
        bracket = asymptotic.second_method_bracket(omega, dp)
        numerator = asymptotic.excitation_indicator(omega, dp).numerator
        scale = max(abs(bracket), abs(numerator), 1e-300)
        worst = max(worst, abs(bracket - numerator) / scale)
    ok = worst < 1e-12
    assert report(3, "both excitation conditions agree to 1e-12 over 1000"
                     " random samples", ok, f"worst relative gap {worst:.2e}")


def test_criterion_04_asymptotic_numeric_crossing(production_sweep):
    rows, sweep_elapsed = production_sweep
    start = time.perf_counter()
    branch = [row for row in rows if row.mode == 1]
    bracket = next(((a, b) for a, b in zip(branch, branch[1:])
                    if a.q < 0.0 <= b.q), None)
    ok, nu_star, elapsed = False, float("nan"), sweep_elapsed
    if bracket is not None:
        (lo_nu, lo), (hi_nu, hi) = ((bracket[0].nu, bracket[0]),
                                    (bracket[1].nu, bracket[1]))
        while hi_nu - lo_nu > 2e-4:
            mid = 0.5 * (lo_nu + hi_nu)
            point = fundsys.find_eigenvalue(
                replace(REF, nu=mid),
                fundsys.SpectralPoint(q=lo.q, omega=lo.omega), PRODUCTION)
            assert point.converged
            if point.q >= 0.0:
                hi_nu, hi = mid, point
            else:
                lo_nu, lo = mid, point
        nu_star = 0.5 * (lo_nu + hi_nu)
        elapsed = sweep_elapsed + (time.perf_counter() - start)
        ok = abs(nu_star - NU_CRIT) < 1e-3 and elapsed < 30.0
    assert report(4, "numeric growth-rate zero within 1e-3 of the closed-form"
                     " critical feedback, sweep + bisection < 30 s", ok,
                  f"nu*={nu_star:.6f} vs {NU_CRIT:.6f}, {elapsed:.1f} s")


def test_criterion_05_frequency_insensitivity(production_sweep):
    rows, _ = production_sweep
    ok, details = True, []
    for mode, ref in ((1, OMEGA_1), (2, OMEGA_2)):
        omegas = [row.omega for row in rows if row.mode == mode]
        spread = max(omegas) - min(omegas)
        offset = max(abs(w - ref) for w in omegas)
        ok = ok and spread < 1e-3 and offset < 1e-3
        details.append(f"mode {mode}: spread {spread:.1e}, offset {offset:.1e}")
    assert report(5, "frequencies vary < 1e-3 across the sweep and stay"
                     " within 1e-3 of the conservative values", ok,
                  "; ".join(details))


def test_criterion_06_second_mode_stays_stable(production_sweep):
    rows, _ = production_sweep
    q2 = [row.q for row in rows if row.mode == 2]
    ok = all(q < 0.0 for q in q2)
    assert report(6, "second-mode growth rate negative for every swept"
                     " feedback value", ok, f"max q2 = {max(q2):.3e}")


def test_criterion_07_determinant_nonnegative():
    rng = np.random.default_rng(7)
    lowest = np.inf
    for _ in range(1000):
        q = rng.uniform(-1.0, 1.0)
        omega = rng.uniform(1e-6, 10.0)
        lowest = min(lowest, rk4.delta_subdivided(
            q, omega, REF, n=PRODUCTION.subintervals, step=PRODUCTION.step))
    ok = lowest >= 0.0
    assert report(7, "normalized determinant non-negative at 1000 random"
                     " points", ok, f"smallest value {lowest:.2e}")


def test_criterion_08_conservative_limit_recovery():
    roots = conservative.find_roots(UNDAMPED, 10.0)
    residual = max(rk4.delta_subdivided(0.0, r.omega, UNDAMPED,
                                        n=PRODUCTION.subintervals,
                                        step=PRODUCTION.step)
                   for r in roots)
    worst = 0.0
    recovered = True
    for root in roots:
        seed = fundsys.SpectralPoint(q=0.01, omega=root.omega + 0.01)
        point = fundsys.find_eigenvalue(UNDAMPED, seed, PRODUCTION)
        recovered &= point.converged
        worst = max(worst, abs(point.q), abs(point.omega - root.omega))
    ok = residual < 1e-8 and recovered and worst < 1e-6
    assert report(8, "determinant < 1e-8 on the conservative spectrum and"
                     " direct search recovers it to 1e-6 from 1e-2-perturbed"
                     " seeds", ok,
                  f"{len(roots)} roots, max determinant {residual:.1e}, "
                  f"max recovery error {worst:.1e}")


def test_criterion_09_integrator_against_harmonic_solution():
    # The propagator [[a, b], [b*K, a]] against [[cos, sin/omega],
    # [-omega*sin, cos]]: the largest gap of a real or imaginary part, which
    # is the largest entry gap of the two matrices' real 4x4 forms.
    omega = np.pi
    c, s = np.cos(omega), np.sin(omega)
    K = fundsys.rhs_coefficients(0.0, omega, UNDAMPED.eps1)

    def error(step):
        a, b = rk4.integrate_fundamental(0.0, omega, UNDAMPED, step=step)
        gaps = (a - c, b - s / omega, b * K + omega * s)
        return max(max(abs(g.real), abs(g.imag)) for g in gaps)

    e_coarse = error(1.0 / 2000.0)
    e_fine = error(1.0 / 4000.0)
    ok = e_coarse < 1e-8 and e_fine <= e_coarse / 8.0
    assert report(9, "fundamental matrix matches the cos/sin solution within"
                     " 1e-8 at step 1/2000 and the error drops >= 8x on"
                     " halving", ok,
                  f"errors {e_coarse:.2e} -> {e_fine:.2e}, "
                  f"ratio {e_coarse / e_fine:.1f}")


def test_criterion_10_subdivision_consistency():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(100):
        q = rng.uniform(-0.05, 0.05)
        omega = OMEGA_1 + rng.uniform(-0.05, 0.05)
        base = rk4.delta_subdivided(q, omega, REF, n=1, step=PRODUCTION.step)
        for n in (2, 4, 8):
            dn = rk4.delta_subdivided(q, omega, REF, n=n,
                                      step=PRODUCTION.step)
            worst = max(worst, abs(dn - base) / (1.0 + base))
    ok = worst < 1e-6
    assert report(10, "subdivided determinant consistent with the single-"
                      "interval value at 100 points near the first"
                      " eigenvalue", ok, f"worst deviation {worst:.2e}")
