import math
import re

import pytest
from hypothesis import given, strategies as st

from barmodes.params import (
    DimensionlessParams,
    PhysicalParams,
    to_dimensionless,
    validate,
)


def test_unit_bar_maps_identity_like():
    # With rho = E = S = l = 1 the wave speed is 1, so beta, b, d, m map
    # straight through and delta = 1/c.
    p = PhysicalParams(rho=1, S=1, E=1, beta=0.005, b=0.008, d=0.05, m=7, c=10, l=1)
    dp = to_dimensionless(p)
    assert dp.eps1 == pytest.approx(0.005, abs=1e-15)
    assert dp.mu == pytest.approx(0.008, abs=1e-15)
    assert dp.nu == pytest.approx(0.05, abs=1e-15)
    assert dp.eta == pytest.approx(7.0, abs=1e-15)
    assert dp.delta == pytest.approx(0.1, abs=1e-15)


def test_zero_dissipation_maps_to_zero():
    p = PhysicalParams(rho=2.5, S=0.3, E=7e3, beta=0.0, b=0.0, d=0.0, m=1.2, c=4.0, l=3.0)
    dp = to_dimensionless(p)
    assert dp.eps1 == 0.0
    assert dp.mu == 0.0
    assert dp.nu == 0.0


def test_wave_speed_enters_eps1():
    # a = sqrt(1/4) = 0.5, so eps1 = 0.02 * 0.5 / 2 = 0.005 (hand evaluation).
    p = PhysicalParams(rho=4, S=1, E=1, beta=0.02, b=0, d=0, m=1, c=1, l=2)
    assert to_dimensionless(p).eps1 == pytest.approx(0.005, rel=1e-14)


@pytest.mark.parametrize("values, product", [
    (dict(rho=1e-300, S=1e-15, l=1e-15), "rho*S*l"),
    (dict(E=1e-170, S=1e-170), "E*S"),
    (dict(c=1e-200, l=1e-200), "c*l"),
])
def test_underflowing_denominator_is_a_value_error(values, product):
    p = PhysicalParams(**{**dict(rho=1, S=1, E=1, beta=1, b=1, d=1, m=1, c=1,
                                 l=1), **values})
    with pytest.raises(ValueError, match=rf"^{re.escape(product)} underflows"):
        to_dimensionless(p)


@pytest.mark.parametrize("values, quantity", [
    (dict(rho=1e200, S=1e200), "rho*S*l"),
    (dict(E=1e200, S=1e200), "E*S"),
    (dict(c=1e200, l=1e200), "c*l"),
    (dict(rho=1e-300, E=1e300), "the wave speed sqrt(E/rho)"),
])
def test_overflowing_quantity_is_named(values, quantity):
    # These gave groups of 0, inf or NaN, reported as violated bounds of
    # the groups, not as the overflow that made them.
    p = PhysicalParams(**{**dict(rho=1, S=1, E=1, beta=1, b=1, d=1, m=1, c=1,
                                 l=1), **values})
    with pytest.raises(ValueError, match=rf"^{re.escape(quantity)} is not "
                                         "finite: it overflows"):
        to_dimensionless(p)


def test_nonpositive_required_field_rejected():
    with pytest.raises(ValueError):
        PhysicalParams(rho=0, S=1, E=1, beta=0, b=0, d=0, m=1, c=1, l=1)
    with pytest.raises(ValueError):
        PhysicalParams(rho=1, S=1, E=-2, beta=0, b=0, d=0, m=1, c=1, l=1)
    with pytest.raises(ValueError):
        PhysicalParams(rho=1, S=1, E=1, beta=-1e-9, b=0, d=0, m=1, c=1, l=1)


@pytest.mark.parametrize("name", ["rho", "S", "E", "beta", "b", "c", "d",
                                  "m", "l"])
def test_infinite_physical_constant_rejected(name):
    values = dict(rho=1, S=1, E=1, beta=0, b=0, d=0, m=1, c=1, l=1)
    values[name] = math.inf
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        PhysicalParams(**values)


@pytest.mark.parametrize("name", ["eps1", "mu", "nu", "eta", "delta"])
def test_validate_reports_infinite_group(name):
    values = dict(eps1=0.005, mu=0.008, nu=0.05, eta=7, delta=0.1)
    values[name] = math.inf
    assert validate(DimensionlessParams(**values)) == [f"{name} < inf violated"]


def test_validate_accepts_reference_parameters():
    dp = DimensionlessParams(eps1=0.005, mu=0.008, nu=0.05, eta=7, delta=0.1)
    assert validate(dp) == []


def test_validate_reports_sign_violation():
    dp = DimensionlessParams(eps1=0.005, mu=0.008, nu=0.05, eta=-1, delta=0.1)
    problems = validate(dp)
    assert any("eta" in p for p in problems)


def test_validate_warns_outside_small_dissipation_regime():
    dp = DimensionlessParams(eps1=0.5, mu=0.008, nu=0.05, eta=7, delta=0.1)
    with pytest.warns(UserWarning, match="eps1"):
        problems = validate(dp)
    assert problems == []  # a warning, not a violation


positive = st.floats(min_value=1e-3, max_value=1e3)
nonneg = st.floats(min_value=0.0, max_value=1e2)


@pytest.mark.filterwarnings("ignore::UserWarning")  # smallness advisories
@given(rho=positive, S=positive, E=positive, beta=nonneg, b=nonneg,
       d=nonneg, m=positive, c=positive, l=positive)
def test_conversion_output_is_always_valid(rho, S, E, beta, b, d, m, c, l):
    p = PhysicalParams(rho=rho, S=S, E=E, beta=beta, b=b, d=d, m=m, c=c, l=l)
    dp = to_dimensionless(p)
    assert validate(dp) == []
    assert dp.eta > 0 and dp.delta > 0
    assert dp.eps1 >= 0 and dp.mu >= 0 and dp.nu >= 0


@given(rho=positive, S=positive, E=positive, m=positive, c=positive,
       l=positive, k=st.floats(min_value=1e-2, max_value=1e2))
def test_delta_scale_consistency(rho, S, E, m, c, l, k):
    # Scaling E and c by the same factor leaves delta = ES/(cl) unchanged.
    base = PhysicalParams(rho=rho, S=S, E=E, beta=0, b=0, d=0, m=m, c=c, l=l)
    scaled = PhysicalParams(rho=rho, S=S, E=E * k, beta=0, b=0, d=0, m=m, c=c * k, l=l)
    d0 = to_dimensionless(base).delta
    d1 = to_dimensionless(scaled).delta
    assert d1 == pytest.approx(d0, rel=1e-12)


def test_wave_speed_property():
    p = PhysicalParams(rho=4, S=1, E=9, beta=0, b=0, d=0, m=1, c=1, l=1)
    assert p.wave_speed == pytest.approx(math.sqrt(9 / 4), rel=1e-15)
