"""Real eigenfrequencies of the undamped bar/end-mass problem.

With every dissipative parameter removed the frequency equation reduces to
cot(w) = eta*w / (1 - eta*delta*w^2).  Both sides have poles, so root
finding is done on the equivalent entire function

    chi(w) = (eta*delta*w^2 - 1)*cos(w) + eta*w*sin(w),

which is smooth everywhere and changes sign at each eigenfrequency.  Its
slope is closed form too, so each sign-change bracket is refined by Newton's
method, with a bisection whenever a Newton step would leave the bracket.
These real roots seed every other solver in the package.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .params import DimensionlessParams

# Undamped roots are separated by O(pi); 0.01 leaves two orders of margin.
DEFAULT_SCAN_STEP = 0.01

# Halvings of the scan step allowed while the bracket count keeps changing.
_MAX_RESCANS = 6

_ROOT_XTOL = 1e-13     # stop once a refinement step is this small
_MAX_REFINE_STEPS = 100  # bisection alone needs ~50 from a scan bracket


@dataclass(frozen=True)
class ConservativeRoot:
    omega: float
    index: int  # 1-based mode number


def characteristic(omega, dp: DimensionlessParams):
    """chi(omega); accepts scalars or arrays, zero exactly at eigenfrequencies."""
    omega = np.asarray(omega, dtype=float)
    chi = (dp.eta * dp.delta * omega**2 - 1.0) * np.cos(omega) \
        + dp.eta * omega * np.sin(omega)
    return chi if chi.ndim else float(chi)


def _chi_and_slope(omega: float, dp: DimensionlessParams) -> tuple[float, float]:
    """chi(omega) and chi'(omega) at one frequency."""
    c, s = math.cos(omega), math.sin(omega)
    ed = dp.eta * dp.delta
    chi = (ed * omega * omega - 1.0) * c + dp.eta * omega * s
    slope = (2.0 * ed + dp.eta) * omega * c \
        + (1.0 + dp.eta - ed * omega * omega) * s
    return chi, slope


def _bracket_roots(grid, vals):
    """Sign-change brackets [(lo, hi)] of chi sampled as vals on an
    ascending grid; an exact zero off 0 yields a degenerate (x, x) one."""
    zero = (vals == 0.0) & (grid > 0.0)
    change = np.append(vals[:-1] * vals[1:] < 0.0, False)
    return [(float(grid[i]), float(grid[i] if zero[i] else grid[i + 1]))
            for i in np.flatnonzero(zero | change)]


def _refine(lo: float, hi: float, dp: DimensionlessParams) -> float:
    """The root of chi in a sign-change bracket: Newton steps from the
    midpoint, with a bisection of the shrinking bracket in place of any
    step that would leave it."""
    chi_lo = _chi_and_slope(lo, dp)[0]
    x = 0.5 * (lo + hi)
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
            if abs(x_new - x) <= _ROOT_XTOL:
                return x_new
        else:   # also taken for NaN
            x_new = 0.5 * (lo + hi)
            if hi - lo <= _ROOT_XTOL:
                return x_new
        x = x_new
    return x


def find_roots(dp: DimensionlessParams, omega_max: float,
               max_count: int | None = None) -> list[ConservativeRoot]:
    """All roots of the characteristic on (0, omega_max], sorted ascending.

    chi is sampled once at half DEFAULT_SCAN_STEP; when that scan finds as
    many sign-change brackets as its even samples (the scan at the full
    step), the first max_count of them (all when None) are refined by
    safeguarded Newton steps until a step falls below 1e-13.  Otherwise the
    step is halved and the scan repeated (at most 6 scans), and a non-fatal
    warning reports the step at which extra roots had been hidden (the
    symptom of nearly-double roots).
    """
    if not omega_max > 0:
        raise ValueError("omega_max must be positive")

    step = min(DEFAULT_SCAN_STEP, omega_max)
    n = max(int(np.ceil(omega_max / step)), 1)
    for _ in range(_MAX_RESCANS):
        grid = np.linspace(0.0, omega_max, 2 * n + 1)
        vals = characteristic(grid, dp)
        brackets = _bracket_roots(grid, vals)
        hidden = len(brackets) - len(_bracket_roots(grid[::2], vals[::2]))
        if not hidden:
            break
        warnings.warn(
            f"scan step {step:g} hid {hidden} root(s); "
            "rescanning at half step",
            UserWarning,
            stacklevel=2,
        )
        step /= 2.0
        n *= 2

    roots = [lo if lo == hi else _refine(lo, hi, dp)
             for lo, hi in brackets[:max_count]]
    return [ConservativeRoot(omega=w, index=i + 1) for i, w in enumerate(roots)]
