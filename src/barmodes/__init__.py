"""Eigenvalue and stability toolkit for a damped elastic bar whose free end
carries a mass under spring, damper and velocity-feedback forces.

Three solver families are provided:

* ``conservative`` — real eigenfrequencies of the undamped limit;
* ``asymptotic`` — first-order complex-eigenvalue corrections and the
  self-excitation condition in closed form;
* ``fundsys`` — fully numerical complex eigenvalues via normal fundamental
  systems of solutions and a Newton search for the zeros of the boundary
  residual.

``params`` holds the physical and dimensionless parameter sets, and ``cli``
ties the solvers together behind the ``barmodes`` command.
"""

from . import asymptotic, conservative, fundsys, params

__all__ = ["asymptotic", "conservative", "fundsys", "params"]

__version__ = "0.1.0"
