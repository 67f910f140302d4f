import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from barmodes import asymptotic, conservative, fundsys
from barmodes.params import SMALLNESS_LIMIT, DimensionlessParams

from support import NU_CRIT, OMEGA_1, OMEGA_2, REF, UNDAMPED, box_sets


def dp_with(nu, base=REF):
    return DimensionlessParams(base.eps1, base.mu, nu, base.eta, base.delta)


# ---------------------------------------------------------------- eigenvalue

def test_corrected_eigenvalue_conservative_limit_is_exact():
    ev = asymptotic.corrected_eigenvalue(OMEGA_1, UNDAMPED)
    assert ev.q == 0.0
    assert ev.omega == OMEGA_1


def test_corrected_eigenvalue_decays_below_critical_feedback():
    ev = asymptotic.corrected_eigenvalue(OMEGA_1, dp_with(0.05))
    assert ev.q < 0.0
    assert ev.omega == OMEGA_1


def test_corrected_eigenvalue_grows_above_critical_feedback():
    ev = asymptotic.corrected_eigenvalue(OMEGA_1, dp_with(0.06))
    assert ev.q > 0.0


# ------------------------------------------------------- excitation condition

def test_indicator_is_numerator_over_denominator():
    rep = asymptotic.excitation_indicator(1.7, REF)
    assert rep.indicator == pytest.approx(rep.numerator / rep.denominator, rel=1e-15)
    assert rep.excited == (rep.indicator <= 0)


def test_numerator_crosses_zero_at_critical_feedback():
    lo = asymptotic.excitation_indicator(OMEGA_1, dp_with(NU_CRIT - 1e-4)).numerator
    hi = asymptotic.excitation_indicator(OMEGA_1, dp_with(NU_CRIT + 1e-4)).numerator
    assert lo > 0 > hi


def test_not_excited_without_feedback():
    rep = asymptotic.excitation_indicator(OMEGA_1, dp_with(0.0))
    assert not rep.excited
    assert rep.numerator > 0


def test_neutral_when_all_dissipation_vanishes():
    dp = DimensionlessParams(0.0, 0.0, 0.0, eta=7.0, delta=0.1)
    rep = asymptotic.excitation_indicator(OMEGA_1, dp)
    assert rep.indicator == 0.0
    assert rep.excited  # equality counts as the self-vibration boundary


@given(w=st.floats(min_value=0.05, max_value=9.0),
       nu_a=st.floats(min_value=0.0, max_value=0.1),
       nu_b=st.floats(min_value=0.0, max_value=0.1))
def test_numerator_is_affine_in_nu(w, nu_a, nu_b):
    # N(w, .) affine: midpoint value equals mean of endpoint values exactly
    # (up to roundoff of the polynomial evaluation itself).
    n_a = asymptotic.excitation_indicator(w, dp_with(nu_a)).numerator
    n_b = asymptotic.excitation_indicator(w, dp_with(nu_b)).numerator
    n_mid = asymptotic.excitation_indicator(w, dp_with(0.5 * (nu_a + nu_b))).numerator
    scale = max(abs(n_a), abs(n_b), 1e-30)
    assert abs(n_mid - 0.5 * (n_a + n_b)) <= 1e-12 * scale


def test_excitation_condition_is_the_sign_of_the_growth_rate():
    # indicator = -2*q/w^2 in exact arithmetic, so stability's excited_k
    # flags and spectrum's q_asymptotic agree in sign.  The bound is that
    # of the rounding in the numerator's terms, over the denominator.
    rng = random.Random(3)
    checked = 0
    for _ in range(600):
        eps1, mu, nu = (10.0 ** rng.uniform(-4, 0) for _ in range(3))
        eta, delta = 10.0 ** rng.uniform(-1.5, 1.5), 10.0 ** rng.uniform(-2, 0.5)
        dp = DimensionlessParams(eps1, mu, nu, eta, delta)
        for root in conservative.find_roots(dp, 30.0, max_count=5):
            w, ed = root.omega, eta * delta
            try:
                report = asymptotic.excitation_indicator(w, dp)
                q = asymptotic.corrected_eigenvalue(w, dp).q
            except ZeroDivisionError:
                continue
            w2 = w * w
            terms = (eps1 * ed**2 * w2 * w2, 2 * ed**2 * mu * w2,
                     eps1 * eta**2 * (1.0 - delta) * w2, 2 * ed * eps1 * w2,
                     eps1 * (1.0 + eta), 2 * ed**2 * w2 * nu, 2 * ed * nu)
            bound = 1e-13 * sum(map(abs, terms)) / abs(report.denominator)
            assert abs(report.indicator + 2.0 * q / w2) <= bound, (dp, w)
            if abs(report.indicator) > bound:
                assert report.excited == (q >= 0.0), (dp, w)
            checked += 1
    assert checked >= 2000


# ------------------------------------------------------------- critical feedback

def test_critical_feedback_reference_value():
    nu_c = asymptotic.critical_feedback(OMEGA_1, REF)
    assert nu_c == pytest.approx(NU_CRIT, abs=1e-4)


def test_second_frequency_never_excited():
    assert asymptotic.critical_feedback(OMEGA_2, REF) is None


def test_undamped_bar_destabilized_by_any_feedback():
    dp = DimensionlessParams(0.0, 0.0, 0.0, eta=7.0, delta=0.1)
    w = 0.3  # eta*delta*w^2 = 0.063 < 1
    assert asymptotic.critical_feedback(w, dp) == 0.0


def test_critical_feedback_degenerate_slope_raises():
    # Slope 2*eta*delta*(eta*delta*w^2 - 1) vanishes at w = 1/sqrt(eta*delta);
    # eta*delta = 0.25 makes that w = 2 exactly representable.
    dp = DimensionlessParams(eps1=0.005, mu=0.008, nu=0.0, eta=2.5, delta=0.1)
    with pytest.raises(ZeroDivisionError):
        asymptotic.critical_feedback(2.0, dp)


# ------------------------------------------------------------ boundary frequency

def test_boundary_frequency_meets_first_mode_at_critical_feedback():
    wb = asymptotic.boundary_frequency(NU_CRIT, REF)
    assert wb == pytest.approx(0.35340, abs=1e-4)


def test_boundary_frequency_reaches_zero_when_constant_term_vanishes():
    nu0 = REF.eps1 * (1 + REF.eta) / (2 * REF.eta * REF.delta)
    assert nu0 == pytest.approx(0.0285714286, abs=1e-9)
    wb = asymptotic.boundary_frequency(0.0285714286, REF)
    assert wb is not None
    assert abs(wb) < 1e-3


def test_no_boundary_without_feedback():
    assert asymptotic.boundary_frequency(0.0, REF) is None
    # Without dissipation either, the numerator vanishes for every w.
    undamped = DimensionlessParams(0.0, 0.0, 0.0, eta=7.0, delta=0.1)
    assert asymptotic.boundary_frequency(0.0, undamped) is None


def test_boundary_frequency_inverts_critical_feedback():
    for w in (0.25, 0.3534042288, 0.5, 0.9):
        nu_c = asymptotic.critical_feedback(w, REF)
        assert nu_c is not None and nu_c > 0
        back = asymptotic.boundary_frequency(nu_c, REF)
        assert back == pytest.approx(w, abs=1e-8)


def test_boundary_frequency_huge_mass_ratio():
    # eta = 1e100 puts the first mode near 1/sqrt(eta*(1 + delta)) = 9.5e-51.
    # The unscaled discriminant overflowed to inf, and the textbook formula
    # cancels its small root to 0; the boundary must still invert the
    # critical feedback there.
    big = dp_with(0.05, DimensionlessParams(0.005, 0.008, 0.0, 1e100, 0.1))
    w1 = 1.0 / np.sqrt(1e100 * 1.1)
    for w in (0.5 * w1, w1, 3.0 * w1):
        nu_c = asymptotic.critical_feedback(w, big)
        back = asymptotic.boundary_frequency(nu_c, big)
        assert back == pytest.approx(w, rel=1e-9, abs=0.0)
    assert asymptotic.boundary_frequency(0.0, big) is None


# -------------------------------------------------------------- second method

def test_bracket_equals_excitation_numerator():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        w = rng.uniform(1e-3, 10.0)
        dp = DimensionlessParams(
            eps1=rng.uniform(0.0, 0.1),
            mu=rng.uniform(0.0, 0.1),
            nu=rng.uniform(0.0, 0.1),
            eta=rng.uniform(0.1, 10.0),
            delta=rng.uniform(0.01, 2.0),
        )
        h = asymptotic.second_method_bracket(w, dp)
        n = asymptotic.excitation_indicator(w, dp).numerator
        assert abs(h - n) <= 1e-12 * max(abs(h), abs(n), 1e-300)


def test_bracket_zero_crossing_matches_critical_feedback():
    lo = asymptotic.second_method_bracket(OMEGA_1, dp_with(NU_CRIT - 1e-4))
    hi = asymptotic.second_method_bracket(OMEGA_1, dp_with(NU_CRIT + 1e-4))
    assert lo > 0 > hi


# ------------------------------------------------ the two routes' order law

def test_closed_form_and_search_agree_to_second_order():
    # The closed forms are first order in the dissipation, so their gap to
    # the searched eigenvalue shrinks like t^2 as (eps1, mu, nu) scale by t.
    # Each search is the last row of a one-point sweep of modes 1..k, the
    # way the CLI searches mode k.  A first-order error in either route,
    # such as the residual's a1 or the closed-form q scaled by 1.01, fails.
    rng = random.Random(11)
    scales = (1e-2, 5e-3, 2.5e-3, 1.25e-3)
    orders, ratios = [], []
    for _ in range(60):
        eps1, mu, nu = (10.0 ** rng.uniform(-1.0, 0.0) for _ in range(3))
        eta = 10.0 ** rng.uniform(-1.0, 1.0)
        delta = 10.0 ** rng.uniform(-1.5, 0.3)
        for k in (1, 2, 3, 5):
            gaps = []
            for t in scales:
                dp = DimensionlessParams(t * eps1, t * mu, t * nu, eta, delta)
                row = fundsys.sweep_feedback(dp, [dp.nu], range(1, k + 1))[-1]
                assert row.converged, (dp, k)
                w = conservative.find_roots(dp, 20.0, max_count=k)[-1].omega
                ev = asymptotic.corrected_eigenvalue(w, dp)
                gaps.append(abs(complex(row.q, row.omega)
                                - complex(ev.q, ev.omega)))
            ratios.append(gaps[-1] / scales[-1] ** 2)
            orders.append(math.log2(gaps[-2] / gaps[-1]))
            assert 1.9 <= orders[-1] <= 2.1, (eps1, mu, nu, eta, delta, k, gaps)
    print(f"{len(orders)} cases; worst order "
          f"{max(orders, key=lambda p: abs(p - 2.0)):.3f}, "
          f"largest gap/t^2 at the smallest t {max(ratios):.1f}")


# ------------------------------------------------- reference expressions

def reference_denominator(w, eta, delta):
    return (eta * delta * w**2) ** 2 \
        + (delta * eta - 2 * delta + eta) * eta * w**2 + eta + 1.0


def reference_eigenvalue(w, dp):
    eps1, mu, nu, eta, delta = dp.eps1, dp.mu, dp.nu, dp.eta, dp.delta
    den = reference_denominator(w, eta, delta)
    lam = eta * delta * w**2 * ((delta * mu + nu * delta - eps1) * eta * w**2
                                - nu) / den
    return -0.5 * eps1 * w**2 - lam, w


def reference_chi_and_slope(omega, dp):
    c, s = math.cos(omega), math.sin(omega)
    ed = dp.eta * dp.delta
    chi = (ed * omega * omega - 1.0) * c + dp.eta * omega * s
    slope = (2.0 * ed + dp.eta) * omega * c \
        + (1.0 + dp.eta - ed * omega * omega) * s
    return chi, slope


def test_closed_forms_are_their_reference_expressions_bit_for_bit():
    # The closed-form seed, the excitation denominator and chi with its
    # slope, each against its expression written out term by term, with
    # w**2 at every use: at every box-set root below omega = 20 (455), and
    # on the reference set at 20,000 frequencies drawn on (0, 30), 11 of
    # which have a w*w, the correctly rounded product, one bit from w**2,
    # the libm power.  Hex strings make == bit identity.
    def bits(*values):
        return [float(v).hex() for v in values]

    cases = [(dp, root.omega) for dp in box_sets()
             for root in conservative.find_roots(dp, 20.0)]
    assert len(cases) == 455
    rng = random.Random(1)
    cases += [(REF, rng.uniform(0.0, 30.0)) for _ in range(20_000)]
    for dp, w in cases:
        ev = asymptotic.corrected_eigenvalue(w, dp)
        assert bits(*ev) == bits(*reference_eigenvalue(w, dp)), (dp, w)
        assert (bits(asymptotic.excitation_indicator(w, dp).denominator)
                == bits(reference_denominator(w, dp.eta, dp.delta))), (dp, w)
        assert (bits(*conservative._chi_and_slope(w, dp))
                == bits(*reference_chi_and_slope(w, dp))), (dp, w)


# ------------------------------------------- beyond small dissipation

# Box set 20 of the benchmark's draws (bench/workloads.py parameter_sets(7)).
BOX_SET_20 = DimensionlessParams(
    eps1=0.015026498397098558, mu=0.0005039374160352072,
    nu=0.037218527256520396, eta=0.7883277966490605,
    delta=0.07898820905840448)


def test_critical_feedback_far_above_small_dissipation_is_first_order():
    # The closed form puts mode 2 of this set (omega_2 = 3.2704) on the
    # stability boundary at nu = 2.5377, and calls it excited at nu = 3,
    # but the continuous system has no such crossing: a sweep of modes 1-3
    # over nu = 0(0.05)6 converges on all 363 rows and keeps mode 2's q at
    # or below -0.0074, largest (-0.00748) at nu = 4.6.  A nu* that far
    # above SMALLNESS_LIMIT is a first-order answer; this pins the
    # disagreement until the stability boundary has a numeric route.
    assert box_sets()[20] == BOX_SET_20
    rows = fundsys.sweep_feedback(BOX_SET_20, [0.05 * i for i in range(121)],
                                  (1, 2, 3))
    assert len(rows) == 363 and all(row.converged for row in rows)
    mode_two = [row for row in rows if row.mode == 2]
    assert all(row.q <= -0.0074 for row in mode_two)
    top = max(mode_two, key=lambda row: row.q)
    assert top.q == pytest.approx(-0.00748, abs=5e-6)
    assert top.nu == pytest.approx(4.6)
    omega_2 = conservative.find_roots(BOX_SET_20, 20.0, max_count=2)[1].omega
    assert omega_2 == pytest.approx(3.2704, abs=1e-4)
    nu_crit = asymptotic.critical_feedback(omega_2, BOX_SET_20)
    assert nu_crit == pytest.approx(2.5377, abs=1e-4)
    assert nu_crit > SMALLNESS_LIMIT
    assert asymptotic.excitation_indicator(omega_2, dp_with(3.0, BOX_SET_20)
                                           ).excited
