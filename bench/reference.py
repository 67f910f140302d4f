"""Independent eigenvalue reference for the benchmark's accuracy score.

Because the bar equation has x-independent coefficients, u'' = lambda^2 u
with lambda^2 = s^2 / (1 + eps1*s), the clamped solution with u'(0) = 1 is
known exactly: u(1) = sinh(lambda)/lambda and u'(1) = cosh(lambda).  The
end-mass boundary condition then collapses to one complex function

    f(s) = P(s) * u(1) + Q(s) * u'(1),   P = D1 - i*D2,  Q = D3 - i*D4,

whose zeros are the eigenvalues.  P and Q are written here as complex
polynomials, independently of ``fundsys.boundary_coefficients``;
:func:`check_boundary_polynomials` confirms that the two agree before any
reference is trusted.  Roots are found by complex Newton started from the
closed-form (asymptotic) seed, never from the numeric answer being scored,
so a search that hops to a neighbouring mode cannot score itself.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

NEWTON_MAX_ITER = 60
RESIDUAL_LIMIT = 1e-10   # normalized |f(s_ref)| accepted for a reference
BAND_HALFWIDTH = math.pi / 2


class ReferenceError(Exception):
    """The reference itself could not be established."""


@dataclass(frozen=True)
class Reference:
    s: complex
    residual: float      # |f(s)| / (|P u(1)| + |Q u'(1)|)
    iterations: int


def boundary_polynomials(s: complex, dp):
    """(P, Q, dP/ds, dQ/ds) of the end-mass row at s."""
    eps1, mu, nu, eta, delta = dp.eps1, dp.mu, dp.nu, dp.eta, dp.delta
    damp = delta * (nu + mu)
    P = eta * s * s * (1.0 + damp * s)
    dP = eta * s * (2.0 + 3.0 * damp * s)
    a1 = mu * delta + eps1
    a2 = delta * (eta + eps1 * mu)
    a3 = eps1 * eta * delta
    Q = 1.0 + s * (a1 + s * (a2 + s * a3))
    dQ = a1 + s * (2.0 * a2 + 3.0 * a3 * s)
    return P, Q, dP, dQ


def _propagator(z: complex):
    """(sinh(l)/l, cosh(l)) with l^2 = z; both are entire in z."""
    if abs(z) < 1e-8:
        return 1.0 + z / 6.0, 1.0 + z / 2.0
    lam = cmath.sqrt(z)
    return cmath.sinh(lam) / lam, cmath.cosh(lam)


def end_row(s: complex, dp):
    """(f(s), f'(s), normalizing scale |P u(1)| + |Q u'(1)|)."""
    eps1 = dp.eps1
    den = 1.0 + eps1 * s
    z = s * s / den
    S, C = _propagator(z)
    P, Q, dP, dQ = boundary_polynomials(s, dp)
    dz = s * (2.0 + eps1 * s) / (den * den)
    dS = (C - S) / (2.0 * z) if abs(z) > 1e-8 else 1.0 / 6.0
    f = P * S + Q * C
    df = dP * S + dQ * C + (P * dS + 0.5 * Q * S) * dz
    return f, df, abs(P * S) + abs(Q * C)


def find_reference(omega_seed: float, q_seed: float, dp) -> Reference:
    """Root of f by complex Newton from the asymptotic seed q + i*omega.

    Raises ReferenceError when Newton does not settle, when the root leaves
    the seed's frequency band, or when |f| there is not at roundoff level.
    """
    s = complex(q_seed, omega_seed)
    for it in range(1, NEWTON_MAX_ITER + 1):
        f, df, _ = end_row(s, dp)
        if df == 0:
            raise ReferenceError("zero derivative in Newton iteration")
        step = f / df
        s -= step
        if abs(step) <= 4e-16 * abs(s):
            break
    else:
        raise ReferenceError(f"Newton did not settle from {q_seed}+{omega_seed}i")
    f, _, scale = end_row(s, dp)
    residual = abs(f) / scale
    if not (s.imag > 0 and abs(s.imag - omega_seed) < BAND_HALFWIDTH):
        raise ReferenceError(f"reference {s} left the band of omega={omega_seed}")
    if not residual <= RESIDUAL_LIMIT:
        raise ReferenceError(f"reference residual {residual:.2e} at {s}")
    return Reference(s=s, residual=residual, iterations=it)


def check_boundary_polynomials(fundsys, draw_params, rng, points=64):
    """Largest relative gap between (P, Q) here and fundsys' D1..D4.

    Compares at random (q, omega, parameter set) triples; a gap above 1e-12
    means one of the two polynomial sets is wrong and no reference built on
    them may be used.
    """
    worst = 0.0
    for _ in range(points):
        dp = draw_params(rng)
        q, omega = rng.uniform(-1.0, 1.0), rng.uniform(0.0, 20.0)
        P, Q, _, _ = boundary_polynomials(complex(q, omega), dp)
        bc = fundsys.boundary_coefficients(q, omega, dp)
        mine = np.array([P.real, -P.imag, Q.real, -Q.imag])
        theirs = np.array([bc.D1, bc.D2, bc.D3, bc.D4])
        scale = max(float(np.max(np.abs(mine))), 1.0)
        worst = max(worst, float(np.max(np.abs(mine - theirs))) / scale)
    return worst


def digits(s_num: complex, s_ref: complex) -> float:
    """-log10 of the relative error, capped at 16 for an exact match."""
    rel = abs(s_num - s_ref) / abs(s_ref)
    if not math.isfinite(rel):
        return 0.0   # no number was delivered
    return 16.0 if rel == 0.0 else min(16.0, -math.log10(rel))
