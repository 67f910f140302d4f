"""Real eigenfrequencies of the undamped bar/end-mass problem.

With every dissipative parameter removed the frequency equation reduces to
cot(w) = eta*w / (1 - eta*delta*w^2).  Both sides have poles, so root
finding is done on the equivalent entire function

    chi(w) = (eta*delta*w^2 - 1)*cos(w) + eta*w*sin(w)
           = eta*w*cos(w) * (tan(w) - h(w)),   h(w) = 1/(eta*w) - delta*w.

For eta > 0 and delta >= 0, h is strictly decreasing, so tan - h is
strictly increasing on each branch of tan and crosses zero exactly once:
chi has one simple root on (0, pi/2) and one on each ((k - 1/2)pi,
(k + 1/2)pi).  At the branch points chi = +-eta*w with alternating signs,
so the branch points bracket the roots in closed form, without a scan.
The slope of chi is closed form too, so each bracket is refined by
Newton's method, with a bisection whenever a Newton step would leave it.
These real roots seed every other solver in the package.
"""

from __future__ import annotations

import math
import operator
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .params import DimensionlessParams

_ROOT_RTOL = 1e-13     # stop at a step this small relative to the root
_MAX_REFINE_STEPS = 100  # bisection alone needs ~45 from a branch bracket


class ConservativeRoot(NamedTuple):
    omega: float
    index: int  # 1-based mode number


def _count(value, least: int, what: str) -> int:
    """value as an int, through operator.index.  Raises ValueError when it
    is not an integer or is below least."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer: {value!r}") from None
    if count < least:
        raise ValueError(f"{what} must be at least {least}")
    return count


def characteristic(omega: float, dp: DimensionlessParams) -> float:
    """chi(omega) at one frequency, zero exactly at eigenfrequencies."""
    return _chi_and_slope(omega, dp)[0]


def _chi_and_slope(omega: float, dp: DimensionlessParams) -> tuple[float, float]:
    """chi(omega) and chi'(omega) at one frequency."""
    c, s = math.cos(omega), math.sin(omega)
    eta = dp.eta
    ed = eta * dp.delta
    edw2 = ed * omega * omega
    chi = (edw2 - 1.0) * c + eta * omega * s
    slope = (2.0 * ed + eta) * omega * c + (1.0 + eta - edw2) * s
    return chi, slope


def _refine(lo: float, chi_lo: float, hi: float,
            dp: DimensionlessParams) -> float:
    """The root of chi in a sign-change bracket [lo, hi], where chi(lo) is
    chi_lo, the branch walk's value: Newton steps from the midpoint, with a
    bisection of the shrinking bracket in place of any step that would
    leave it.  The first bracket starts at 0, and there Newton starts from
    the small-frequency root 1/sqrt(c) of chi ~ -1 + c*w^2,
    c = eta*(1 + delta) + 1/2, when that is lower: for a huge mass ratio
    the root sits near 0, and from the midpoint Newton and bisection would
    only halve their way down to it."""
    x = 0.5 * (lo + hi)
    if lo == 0.0:
        x = min(x, 1.0 / math.sqrt(dp.eta * (1.0 + dp.delta) + 0.5))
    for _ in range(_MAX_REFINE_STEPS):
        chi, slope = _chi_and_slope(x, dp)
        if chi == 0.0:
            return x
        if (chi < 0.0) == (chi_lo < 0.0):
            lo, chi_lo = x, chi
        else:
            hi = x
        x_new = x - chi / slope if slope != 0.0 else math.nan
        if lo <= x_new <= hi:
            if abs(x_new - x) <= _ROOT_RTOL * x_new:
                return x_new
        else:   # also taken for NaN
            x_new = 0.5 * (lo + hi)
            if hi - lo <= _ROOT_RTOL * hi:
                return x_new
        x = x_new
    return x


def find_roots(dp: DimensionlessParams, omega_max: float,
               max_count: int | None = None) -> list[ConservativeRoot]:
    """All roots of the characteristic on (0, omega_max], sorted ascending.

    Root k lies on the k-th branch of tan, between the edges 0, pi/2,
    3pi/2, ... (see the module docstring), so the branches are walked edge
    by edge, with omega_max closing the last, partial one, and chi is
    evaluated only at the edges.  A sign change of chi across a branch is
    one root, refined by safeguarded Newton steps until a step falls below
    1e-13 of the root; an exact zero at an edge is taken as the root.  The
    walk stops at omega_max or after the max_count-th branch (no cap when
    None).

    Raises ValueError unless eta > 0, delta >= 0 and omega_max > 0, all
    finite: outside that premise the branch argument does not hold; and
    for a max_count that is neither None nor an integer of at least 0.
    """
    eta, delta = dp.eta, dp.delta
    if not (math.isfinite(eta) and eta > 0):
        raise ValueError(f"eta must be positive and finite, got {eta}")
    if not (math.isfinite(delta) and delta >= 0):
        raise ValueError(f"delta must be non-negative and finite, got {delta}")
    if not (math.isfinite(omega_max) and omega_max > 0):
        raise ValueError("omega_max must be positive and finite")

    count = (math.inf if max_count is None
             else _count(max_count, 0, "max_count"))
    roots = []
    lo, chi_lo = 0.0, -1.0   # chi(0) = -1
    k = 1
    while k <= count and lo < omega_max:
        hi = min((k - 0.5) * math.pi, omega_max)
        chi_hi = _chi_and_slope(hi, dp)[0]
        if chi_hi == 0.0:
            roots.append(hi)
        elif chi_lo * chi_hi < 0.0:
            roots.append(_refine(lo, chi_lo, hi, dp))
        lo, chi_lo = hi, chi_hi
        k += 1
    return [ConservativeRoot(w, i + 1) for i, w in enumerate(roots)]
