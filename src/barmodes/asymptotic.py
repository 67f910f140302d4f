"""Closed-form small-dissipation results: first-order complex eigenvalues,
the self-excitation condition with its critical-feedback and
boundary-frequency solvers, and the forced-resonance construction of the
second perturbation route.

All operations take the unscaled dissipation parameters (eps1, mu, nu); the
formal bookkeeping small parameter that groups them is collapsed away since
only the products are ever observable.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .params import DimensionlessParams

_DEGENERATE_DENOM = 1e-12
_DEGENERATE_SLOPE = 1e-15
_POLE_TOL = 1e-12


class ComplexEigenvalue(NamedTuple):
    """Exponent s = q + i*omega of a time-harmonic solution e^{s*tau}."""

    q: float      # growth rate (real part)
    omega: float  # frequency (imaginary part)


class ExcitationReport(NamedTuple):
    indicator: float    # numerator/denominator
    numerator: float
    denominator: float
    excited: bool       # indicator <= 0


class ForcedModeCoefficients(NamedTuple):
    """Coefficients of U(x) = (B1+B2*x)cos(w*x) + (C1+C2*x)sin(w*x)."""

    B1: float
    B2: float
    C1: float
    C2: float
    A: float


def _frequency_denominator(w, eta, delta):
    # Shared by the eigenvalue correction and the excitation condition.
    return (eta * delta * w**2) ** 2 + (delta * eta - 2 * delta + eta) * eta * w**2 \
        + eta + 1.0


def _excitation_numerator_parts(w, dp):
    """Return (intercept, slope) of the excitation numerator N(w, nu),
    which is affine in nu:  N = intercept + slope*nu."""
    eps1, mu, eta, delta = dp.eps1, dp.mu, dp.eta, dp.delta
    w2 = w * w
    intercept = (eps1 * eta**2 * delta**2 * w2 * w2
                 + (2 * eta**2 * delta**2 * mu
                    + eps1 * eta**2 * (1.0 - delta)
                    - 2 * eta * delta * eps1) * w2
                 + eps1 * (1.0 + eta))
    slope = 2.0 * eta * delta * (eta * delta * w2 - 1.0)
    return intercept, slope


def corrected_eigenvalue(w: float, dp: DimensionlessParams) -> ComplexEigenvalue:
    """First-order complex eigenvalue built on a conservative frequency w.

    The frequency correction is

        Lam = eta*delta*w^2 * ((delta*mu + nu*delta - eps1)*eta*w^2 - nu)
              / (eta^2*delta^2*w^4 + (delta*eta - 2*delta + eta)*eta*w^2 + eta + 1)

    and the exponent of the time factor gives q = -eps1*w^2/2 - Lam with the
    frequency unchanged at this order.

    Raises ZeroDivisionError if the correction denominator degenerates.
    """
    eps1, mu, nu, eta, delta = dp.eps1, dp.mu, dp.nu, dp.eta, dp.delta
    den = _frequency_denominator(w, eta, delta)
    if abs(den) < _DEGENERATE_DENOM:
        raise ZeroDivisionError("degenerate correction denominator")
    lam = eta * delta * w**2 * ((delta * mu + nu * delta - eps1) * eta * w**2 - nu) / den
    return ComplexEigenvalue(q=-0.5 * eps1 * w**2 - lam, omega=w)


def excitation_indicator(w: float, dp: DimensionlessParams) -> ExcitationReport:
    """Self-excitation condition at frequency w: excited iff indicator <= 0.

    Raises ZeroDivisionError if the denominator degenerates.
    """
    intercept, slope = _excitation_numerator_parts(w, dp)
    numerator = intercept + slope * dp.nu
    denominator = _frequency_denominator(w, dp.eta, dp.delta)
    if abs(denominator) < _DEGENERATE_DENOM:
        raise ZeroDivisionError("degenerate excitation denominator")
    indicator = numerator / denominator
    return ExcitationReport(indicator=indicator, numerator=numerator,
                            denominator=denominator, excited=indicator <= 0.0)


def critical_feedback(w: float, dp: DimensionlessParams) -> float | None:
    """Feedback value at which frequency w sits on the stability boundary.

    The excitation numerator is affine in nu, so the boundary is a closed
    form.  Returns None ("never excited") when the zero falls at negative
    feedback — such a frequency stays stable for every admissible nu.
    dp.nu is ignored.

    Raises ZeroDivisionError when the slope in nu vanishes (feedback has no
    influence at this frequency).
    """
    intercept, slope = _excitation_numerator_parts(w, dp)
    if abs(slope) < _DEGENERATE_SLOPE:
        raise ZeroDivisionError("feedback has no influence at this frequency")
    nu_crit = -intercept / slope
    if nu_crit < 0.0:
        return None
    return nu_crit


def boundary_frequency(nu: float, dp: DimensionlessParams) -> float | None:
    """Frequency separating stable from excitable modes at feedback nu.

    The excitation numerator is a quadratic in w^2; the boundary frequency
    is the square root of its smallest non-negative real root.  Returns
    None ("no boundary") when no such root exists.  dp.nu is ignored.
    """
    eps1, mu, eta, delta = dp.eps1, dp.mu, dp.eta, dp.delta
    a2 = eps1 * eta**2 * delta**2
    a1 = (2 * eta**2 * delta**2 * (mu + nu)
          + eps1 * eta**2 * (1.0 - delta)
          - 2 * eta * delta * eps1)
    a0 = eps1 * (1.0 + eta) - 2 * eta * delta * nu
    # The same roots with the largest coefficient scaled to 1, so that the
    # discriminant cannot overflow for a huge mass ratio.
    scale = max(abs(a2), abs(a1), abs(a0)) or 1.0
    a2, a1, a0 = a2 / scale, a1 / scale, a0 / scale

    if a2 == 0.0:
        if a1 == 0.0:
            return None  # numerator constant in w: no separating frequency
        candidates = [-a0 / a1]
    else:
        disc = a1 * a1 - 4.0 * a2 * a0
        if disc < 0.0:
            return None
        # -a1 and the root of the discriminant never cancel in t; the
        # other root is a0/t (Vieta), exact even where it is tiny.
        t = -0.5 * (a1 + math.copysign(math.sqrt(disc), a1))
        candidates = [t / a2, a0 / t] if t else [0.0]

    admissible = [s for s in candidates if s >= 0.0]
    if not admissible:
        return None
    return math.sqrt(min(admissible))


def second_method_bracket(omega: float, dp: DimensionlessParams) -> float:
    """Damping/feedback bracket from the denominator of
    :func:`second_method_indicator`; algebraically identical to the
    excitation numerator, which is how the two perturbation routes agree."""
    eps1, mu, nu, eta, delta = dp.eps1, dp.mu, dp.nu, dp.eta, dp.delta
    r = eta * delta * omega**2 - 1.0
    return (eps1 * (eta**2 * omega**2 * (1.0 - delta) + r * r + eta)
            + 2.0 * (eta**2 * omega**2 * delta**2 * (nu + mu) - eta * nu * delta))


def second_method_indicator(omega: float, dp: DimensionlessParams,
                            C2: float) -> float:
    """Excitation indicator of the forced-resonance route (excited iff <= 0).

    Evaluates

        C2 * ([eta^2 w^2 (1+delta) + (eta delta w^2 - 1)^2 - eta] * w * cot(w)
              - (eta delta w^2 - 1)^2) / (bracket * w^3)

    with the bracket from :func:`second_method_bracket`, at the end x = 1
    where the boundary condition was imposed.

    Raises ZeroDivisionError at a cot pole (|sin(w)| < 1e-12) or when the
    bracket degenerates.
    """
    s = math.sin(omega)
    if abs(s) < _POLE_TOL:
        raise ZeroDivisionError("cot pole: omega is a multiple of pi")
    bracket = second_method_bracket(omega, dp)
    if abs(bracket) < _DEGENERATE_SLOPE:
        raise ZeroDivisionError("degenerate damping bracket")
    eta, delta = dp.eta, dp.delta
    r = eta * delta * omega**2 - 1.0
    cot = math.cos(omega) / s
    numer = (eta**2 * omega**2 * (1.0 + delta) + r * r - eta) * omega * cot - r * r
    return C2 * numer / (bracket * omega**3)


def forced_mode(omega: float, A: float, dp: DimensionlessParams,
                C1: float = 0.0, C2: float = 0.0, num_points: int = 101):
    """Resonantly forced spatial profile U(x) sampled on a uniform grid.

    Returns (coefficients, x, U, residual).  The particular solution fixes
    B1 = 0 and B2 = eps1*A*omega^2/2; C1 and C2 pass through as the free
    homogeneous constants.  The residual of U'' + omega^2 U =
    -eps1*A*omega^3*sin(omega x) is identically 2*C2*omega*cos(omega x):
    the x*sin term is itself resonant, so the residual vanishes only for
    C2 = 0.
    """
    import numpy as np

    eps1 = dp.eps1
    B1 = 0.0
    B2 = 0.5 * eps1 * A * omega**2
    x = np.linspace(0.0, 1.0, num_points)
    c = np.cos(omega * x)
    s = np.sin(omega * x)
    u = (B1 + B2 * x) * c + (C1 + C2 * x) * s
    upp = (-2.0 * B2 * omega * s - (B1 + B2 * x) * omega**2 * c
           + 2.0 * C2 * omega * c - (C1 + C2 * x) * omega**2 * s)
    residual = upp + omega**2 * u + eps1 * A * omega**3 * s
    coeffs = ForcedModeCoefficients(B1=B1, B2=B2, C1=C1, C2=C2, A=A)
    return coeffs, x, u, residual
