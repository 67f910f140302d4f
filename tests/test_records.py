"""The result, option and physical-parameter records are NamedTuples:
immutable, built from keywords with their defaults, with a dataclass-style
repr, and no dataclass is generated for them when a verb imports the
package."""

import math

import pytest

from barmodes import asymptotic, conservative, fundsys, params

from support import run_fresh

# Each record with keyword arguments for its fields that have no default.
RECORDS = [
    (fundsys.BoundaryCoefficients, dict(D1=1.0, D2=2.0, D3=3.0, D4=4.0)),
    (fundsys.SpectralPoint, dict(q=-0.01, omega=0.35)),
    (fundsys.ModeShape, dict(grid=[0.0, 1.0], u1=[0.0, 1.0], u2=[0.0, 0.0])),
    (fundsys.SweepRow, dict(nu=0.05, mode=1, q=-0.01, omega=0.35,
                            delta_value=1e-20, converged=True)),
    (fundsys.SolveOptions, dict()),
    (asymptotic.ComplexEigenvalue, dict(q=-0.01, omega=0.35)),
    (asymptotic.ExcitationReport, dict(indicator=-1.0, numerator=-2.0,
                                       denominator=2.0, excited=True)),
    (conservative.ConservativeRoot, dict(omega=0.35, index=1)),
    (params.PhysicalParams, dict(rho=7800.0, S=1e-4, E=2.1e11, beta=1e-5,
                                 b=10.0, c=2e6, d=50.0, m=5.0, l=2.0)),
]


def test_verb_import_generates_only_the_parameter_dataclasses():
    code = """
import sys
import barmodes.cli
print(sorted(f"{name}.{attr}" for name, module in list(sys.modules.items())
             if name.split(".")[0] == "barmodes"
             for attr, value in vars(module).items()
             if isinstance(value, type) and value.__module__ == name
             and hasattr(value, "__dataclass_fields__")))
"""
    assert run_fresh(code).strip() == str([
        "barmodes.params.DimensionlessParams"])


@pytest.mark.parametrize("record, fields", RECORDS,
                         ids=[r.__name__ for r, _ in RECORDS])
def test_record_rejects_attribute_assignment(record, fields):
    value = record(**fields)
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, 0.0)
    with pytest.raises(AttributeError):
        value.extra = 0.0


@pytest.mark.parametrize("record, fields", RECORDS,
                         ids=[r.__name__ for r, _ in RECORDS])
def test_record_builds_from_keywords_with_its_defaults(record, fields):
    value = record(**fields)
    assert {name: getattr(value, name) for name in fields} == fields
    for name, default in record._field_defaults.items():
        if name not in fields:
            assert getattr(value, name) is default
    assert repr(value) == (f"{record.__name__}(" + ", ".join(
        f"{name}={getattr(value, name)!r}" for name in record._fields) + ")")


def test_spectral_point_defaults_and_repr():
    point = fundsys.SpectralPoint(q=-0.01, omega=0.35)
    assert math.isnan(point.delta_value) and point.converged is False
    assert repr(point) == (
        "SpectralPoint(q=-0.01, omega=0.35, delta_value=nan, converged=False)")
    assert fundsys.SolveOptions() == fundsys.SolveOptions(
        step=params.DEFAULT_STEP, subintervals=params.DEFAULT_SUBINTERVALS)


def test_conservative_root_index_is_the_field():
    # The mode number shadows tuple.index.
    assert conservative.ConservativeRoot(omega=0.35, index=2).index == 2
