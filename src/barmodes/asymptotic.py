"""Closed-form small-dissipation results: first-order complex eigenvalues,
the self-excitation condition with its critical-feedback and
boundary-frequency solvers, and the damping bracket of the second
perturbation route.

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


class ComplexEigenvalue(NamedTuple):
    """Exponent s = q + i*omega of a time-harmonic solution e^{s*tau}."""

    q: float      # growth rate (real part)
    omega: float  # frequency (imaginary part)


class ExcitationReport(NamedTuple):
    indicator: float    # numerator/denominator
    numerator: float
    denominator: float
    excited: bool       # indicator <= 0


def _frequency_denominator(w, eta, delta):
    # Shared by the eigenvalue correction and the excitation condition.
    w2 = w**2   # not w*w, which rounds differently in some last bits
    return (eta * delta * w2) ** 2 + (delta * eta - 2 * delta + eta) * eta * w2 \
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
    w2 = w**2
    lam = eta * delta * w2 * ((delta * mu + nu * delta - eps1) * eta * w2 - nu) / den
    return ComplexEigenvalue(-0.5 * eps1 * w2 - lam, w)


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

    A value above 0.1, outside the small-dissipation regime, is a
    first-order answer: it may be a crossing that the continuous system
    does not have.
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
    """Damping/feedback bracket of the second (forced-resonance)
    perturbation route, the denominator of its excitation indicator;
    algebraically identical to the excitation numerator, which is how the
    two perturbation routes agree."""
    eps1, mu, nu, eta, delta = dp.eps1, dp.mu, dp.nu, dp.eta, dp.delta
    r = eta * delta * omega**2 - 1.0
    return (eps1 * (eta**2 * omega**2 * (1.0 - delta) + r * r + eta)
            + 2.0 * (eta**2 * omega**2 * delta**2 * (nu + mu) - eta * nu * delta))
