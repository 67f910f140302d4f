"""Physical and dimensionless parameter sets of the bar/end-mass system.

The model is a longitudinally vibrating elastic bar, clamped at one end,
carrying at the other end a mass that sits on a centering spring, a damper
and a velocity-feedback actuator.  All solvers in this package work on the
five dimensionless groups; this module holds both representations, the
conversion between them, and the solvers' defaults and SolveOptions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

# Above this value eps1/mu/nu are no longer "small" dissipation and the
# perturbation-based solvers lose their accuracy guarantees.
SMALLNESS_LIMIT = 0.1

# Defaults and options of fundsys and rk4.  They live here, so
# that the CLI uses them without the solvers.  The step and subintervals
# set only rk4's system; no search reads them, because every search solves
# the continuous one.  The propagator is built in closed form, so the step
# count costs nothing; at this step the RK4 error, about
# 7.4e-3*(h*omega)^4 relative, lies below rounding for omega up to about
# 340, where the RK4 propagator is exp(A) to rounding.
DEFAULT_STEP = 1e-6
DEFAULT_SUBINTERVALS = 8
DEFAULT_OMEGA_MAX = 20.0      # ceiling of the undamped frequencies searched
DEFAULT_RESOLUTION = 201      # mode-shape grid points


class SolveOptions(NamedTuple):
    """The paper's RK4 discretisation of the fundamental system: the step
    and the number of equal subintervals.  Nothing in the package reads a
    SolveOptions: the search, the sweep and the mode shape take one and
    neither use nor check it, as they solve the continuous system, whose
    propagator is exp(A).  Its defaults, DEFAULT_STEP and
    DEFAULT_SUBINTERVALS, are those of rk4.integrate_fundamental and
    rk4.delta_subdivided and of the CLI; they give N = 10^6 equal steps
    over [0, 1], whose eigenvalues are the continuous ones to rounding."""

    step: float = DEFAULT_STEP
    subintervals: int = DEFAULT_SUBINTERVALS


_STRICTLY_POSITIVE = ("rho", "S", "E", "c", "m", "l")
_NON_NEGATIVE = ("beta", "b", "d")


@dataclass(frozen=True)
class PhysicalParams:
    """The nine physical constants of the hybrid system (SI units)."""

    rho: float   # mass density, kg/m^3
    S: float     # cross-section area, m^2
    E: float     # elastic modulus, Pa
    beta: float  # material dissipation coefficient, s
    b: float     # executive-mechanism damping factor, N*s/m
    c: float     # centering-spring rigidity, N/m
    d: float     # feedback coefficient, N*s/m
    m: float     # attached end mass, kg
    l: float     # bar length, m

    def __post_init__(self):
        for name in _STRICTLY_POSITIVE:
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")
        for name in _NON_NEGATIVE:
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative")
        for name in _STRICTLY_POSITIVE + _NON_NEGATIVE:
            if getattr(self, name) == math.inf:
                raise ValueError(f"{name} must be finite")

    @property
    def wave_speed(self) -> float:
        """Longitudinal wave speed a = sqrt(E/rho)."""
        return math.sqrt(self.E / self.rho)


@dataclass(frozen=True)
class DimensionlessParams:
    """The five dimensionless groups every solver operates on.

    Construction, dataclasses.replace included, stores float() of each
    group, so an int or np.float64 group computes and answers as its float
    does.  Unlike :class:`PhysicalParams`, it does not validate: NaN,
    +-inf and negative values pass through, so that :func:`validate` can
    report on deliberately out-of-range values.
    """

    eps1: float   # material dissipation
    mu: float     # mechanism damping
    nu: float     # feedback coefficient
    eta: float    # mass ratio
    delta: float  # stiffness ratio

    def __post_init__(self):
        for name in ("eps1", "mu", "nu", "eta", "delta"):
            value = getattr(self, name)
            # A float needs no store, which saves ~0.6 us a record: a nu
            # track can build one per search of ~10 us.
            if type(value) is not float:
                object.__setattr__(self, name, float(value))


def to_dimensionless(p: PhysicalParams) -> DimensionlessParams:
    """Map physical constants to the dimensionless groups.

    eps1 = beta*a/l, mu = b*a/(E*S), nu = d*a/(E*S), eta = m/(rho*S*l),
    delta = E*S/(c*l), with wave speed a = sqrt(E/rho).  Raises ValueError,
    naming the quantity, when one of the three products (the denominators)
    underflows to 0 and otherwise when a product or the wave speed
    overflows to inf: either leaves the groups formed from it undefined.
    """
    a = p.wave_speed
    ES, cl, rhoSl = p.E * p.S, p.c * p.l, p.rho * p.S * p.l
    products = (("E*S", ES), ("c*l", cl), ("rho*S*l", rhoSl))
    for name, product in products:
        if product == 0.0:
            raise ValueError(f"{name} underflows to 0; the dimensionless "
                             "groups divided by it are not finite")
    for name, value in products + (("the wave speed sqrt(E/rho)", a),):
        if value == math.inf:
            raise ValueError(f"{name} is not finite: it overflows "
                             "floating-point arithmetic")
    return DimensionlessParams(
        eps1=p.beta * a / p.l,
        mu=p.b * a / ES,
        nu=p.d * a / ES,
        eta=p.m / rhoSl,
        delta=ES / cl,
    )


def validate(dp: DimensionlessParams) -> list[str]:
    """Return the list of violated invariants (empty means valid).

    Non-fatally warns when eps1, mu or nu exceed ``SMALLNESS_LIMIT``: the
    values are usable by the numerical solver but outside the
    small-dissipation regime the perturbation formulas assume.
    """
    problems = []
    # "not (x > 0)" also catches NaN.
    if not dp.eta > 0:
        problems.append("eta > 0 violated")
    if not dp.delta > 0:
        problems.append("delta > 0 violated")
    for name in ("eps1", "mu", "nu"):
        if not getattr(dp, name) >= 0:
            problems.append(f"{name} >= 0 violated")
    # Only +inf passes the sign checks above.
    for name in ("eps1", "mu", "nu", "eta", "delta"):
        if getattr(dp, name) == math.inf:
            problems.append(f"{name} < inf violated")
    for name in ("eps1", "mu", "nu"):
        value = getattr(dp, name)
        if SMALLNESS_LIMIT < value < math.inf:
            warnings.warn(
                f"{name} = {value:g} exceeds {SMALLNESS_LIMIT}; outside the "
                "small-dissipation regime of the perturbation solvers",
                UserWarning,
                stacklevel=2,
            )
    return problems
