"""The paper's RK4 discretisation of the normal fundamental system.

The paper integrates (u, u')' = A (u, u'), A = [[0, 1], [K, 0]],
K = s^2/(1 + eps1*s), over [0, 1] by N equal classical Runge-Kutta steps.
One step of length h for y' = A y is exactly multiplication by the
degree-4 Taylor polynomial of exp(hA), and A^2 = K*I folds it into
(1 + e)*I + b*A with z = h^2*K, e = z/2 + z^2/24 and b = h*(1 + z/6).  Its
eigenvalues on the eigenvectors of A are 1 + e +- b*r, r = sqrt(K), so it
is exp(l*I + t*A/r) with l +- t = log1p(e +- b*r).  Such exponentials
commute: the N equal steps that cover [0, 1] (n subintervals, each of the
fewest steps no longer than the requested one) make exp(L*I + T*A/r),
(L, T) = N*(l, t), and the propagator a*I + b*A has a = exp(L)*cosh(T) and
b = exp(L)*sinh(T)/r, a handful of complex function calls whatever the
step count.  Any branch of the logarithm or of r gives the same
propagator, because the exponents are only ever used times an integer
step count.  With w = h*r, N*t = r*(1 - w^4/120 + ...) and N*l is
O(N*w^6), so for |w| below (120*2^-53)^(1/4) ~ 3.4e-4 (at the default
step of 1e-6, every mode below omega ~ 340) the N steps are exp(A) to
rounding, and the exponent form, the one formula at every step, gives
exp(A) there within a few rounding units of max(1, |r|).  At K = 0,
A^2 = 0 and every step is I + h*A, so the propagator is I + A.

No eigenvalue search, sweep or mode profile builds this system: they
solve the continuous one in :mod:`barmodes.fundsys`, and no CLI verb
loads this module.  :func:`integrate_fundamental` (the propagator of
[0, 1] as the complex pair (a, b)) and :func:`delta_subdivided` (its
normalized determinant) build it, of a step and a subinterval count (what
SolveOptions holds), for acceptance criteria 9 and 10.
"""

from __future__ import annotations

import cmath
import math
from typing import TYPE_CHECKING

from . import conservative
from .fundsys import (_OVERFLOW_MESSAGE, _checked, _normalized, _residual,
                      _row_coefficients, rhs_coefficients)
from .params import DEFAULT_STEP, DEFAULT_SUBINTERVALS

if TYPE_CHECKING:
    from .params import DimensionlessParams


def _log1p(z: complex) -> complex:
    # log(1 + z) without rounding 1 + z, whose small part carries a whole
    # RK4 step; cmath has no log1p.  A zero 1 + z is a singular step.
    x, y = z.real, z.imag
    m = x * (2.0 + x) + y * y   # |1 + z|^2 - 1
    if m <= -1.0:
        raise ZeroDivisionError("singular RK4 step: its propagator has a zero "
                                "eigenvalue")
    return complex(0.5 * math.log1p(m), math.atan2(y, 1.0 + x))


def _step_count(n: int, step: float) -> int:
    """Equal RK4 steps over [0, 1]: n times the fewest no longer than step
    in a 1/n-subinterval, with a relative 1e-12 for the rounding of
    (1/n)/step.  Raises ValueError for an n that is not an integer of at
    least 1, a step that is not positive, and a step so small (subnormal)
    that the count is not finite."""
    n = conservative._count(n, 1, "subinterval count")
    if not step > 0:
        raise ValueError("step must be positive")
    steps = 1.0 / n / step
    if not math.isfinite(n * steps):
        raise ValueError(f"step {step!r} is too small: length/step overflows")
    return n * max(1, math.ceil(steps * (1.0 - 1e-12)))


def _propagator(q: float, omega: float, eps1: float,
                count: int) -> tuple[complex, ...]:
    """(r, a, b) of the [0, 1] propagator a*I + b*A of count equal RK4
    steps at s = q + i*omega, as the module docstring derives it;
    r = sqrt(K), and a = b = 1 (I + A) at K = 0.  Where exp(L) or
    cosh(T) leaves the float range but their product need not
    (Re L << 0 < |Re T|), a and b come from the count-th powers e^(L +- T)
    of the step's eigenvalues instead.  Raises as rhs_coefficients,
    _log1p and fundsys._checked do, and with the 1e150 message where cmath
    overflows or refuses an infinite K.
    """
    K = rhs_coefficients(q, omega, eps1)
    r = cmath.sqrt(K)
    if not r:   # the exponent form divides by r
        return r, 1 + 0j, 1 + 0j
    try:
        w = 1.0 / count * r
        z = w * w
        e, bw = z * (0.5 + z / 24.0), w * (1.0 + z / 6.0)
        plus, minus = _log1p(e + bw), _log1p(e - bw)
        L = count * (0.5 * (plus + minus))
        T = count * (0.5 * (plus - minus))
        try:
            g = cmath.exp(L)
            a = g * cmath.cosh(T)
            b = g * cmath.sinh(T) / r
        except OverflowError:   # Re L << 0 < |Re T|
            up, down = cmath.exp(count * plus), cmath.exp(count * minus)
            a = 0.5 * (up + down)
            b = (up - down) / (2.0 * r)
    # cmath's bare 'math range error', and its 'math domain error' where K,
    # though s is finite, is not (s^2 overflows)
    except (OverflowError, ValueError):
        raise OverflowError(_OVERFLOW_MESSAGE) from None
    return _checked(K, r, a, b)


def integrate_fundamental(q: float, omega: float, dp: DimensionlessParams,
                          step: float = DEFAULT_STEP) -> tuple[complex, complex]:
    """Fundamental matrix of [0, 1] for identity initial data at x = 0, of
    the fewest equal RK4 steps no longer than step: the pair (a, b) of the
    propagator a*I + b*A = [[a, b], [b*K, a]] acting on (u, u').  Raises
    as :func:`_propagator` and :func:`_step_count` do."""
    return _propagator(q, omega, dp.eps1, _step_count(1, step))[1:]


def delta_subdivided(q: float, omega: float, dp: DimensionlessParams,
                     n: int = DEFAULT_SUBINTERVALS,
                     step: float = DEFAULT_STEP) -> float:
    """Normalized characteristic determinant of the paper's RK4 system with
    [0, 1] split into n equal subintervals; non-negative, zero exactly at
    its eigenvalues.  Matching values and derivatives at the junctions
    multiplies the subintervals' fundamental matrices, all one matrix as
    the coefficients do not depend on x: the product is the propagator of
    n times a subinterval's fewest equal steps no longer than step, and
    only it is built and overflow-checked.  Raises as :func:`_propagator`
    and :func:`_step_count` do."""
    row = _row_coefficients(dp)
    built = _propagator(q, omega, row[0], _step_count(n, step))
    f, _, bound = _residual(row, complex(q, omega), dp.nu, built)
    return _normalized(f, bound)
