"""Eigenvalue and stability toolkit for a damped elastic bar whose free end
carries a mass under spring, damper and velocity-feedback forces.

Four solver modules are provided:

* ``conservative`` — real eigenfrequencies of the undamped limit;
* ``asymptotic`` — first-order complex-eigenvalue corrections and the
  self-excitation condition in closed form;
* ``fundsys`` — fully numerical complex eigenvalues via normal fundamental
  systems of solutions and a Newton search for the zeros of the boundary
  residual;
* ``rk4`` — the paper's RK4 discretisation of that system, which no search
  loads.

``params`` holds the physical and dimensionless parameter sets, and ``cli``
ties the solvers together behind the ``barmodes`` command.

Importing the package loads none of them: each submodule is imported on
first access (``barmodes.fundsys``, ``from barmodes import fundsys``), and
loads only the modules it uses.  ``conservative`` and ``asymptotic`` import
no other submodule, the ``stability`` verb never loads ``fundsys``, and no
verb loads ``rk4``.
"""

import sys

__all__ = ["asymptotic", "conservative", "fundsys", "params", "rk4"]

__version__ = "0.1.0"


def __getattr__(name):
    # PEP 562: called only for a name the package does not hold yet, and
    # importing a submodule binds it here, so each loads once.  __import__
    # rather than importlib.import_module keeps the submodule's own line in
    # ``python -X importtime``.
    if name in __all__:
        module = f"{__name__}.{name}"
        __import__(module)
        return sys.modules[module]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
