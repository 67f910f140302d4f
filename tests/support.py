"""Inputs and oracles that several test modules share, each defined once.

This is a plain module, not a test module: pytest does not collect it, and
the test modules, which tests/ holds without an __init__.py, import it by
name.  The benchmark keeps its own copies in bench/, so that the tier-1
tests do not import it.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import barmodes
from barmodes.params import DimensionlessParams

# The reference set and its undamped counterpart.
REF = DimensionlessParams(eps1=0.005, mu=0.008, nu=0.05, eta=7.0, delta=0.1)
UNDAMPED = DimensionlessParams(0.0, 0.0, 0.0, eta=7.0, delta=0.1)

# The first two undamped frequencies at eta = 7, delta = 0.1, and mode 1's
# critical feedback on the reference set.
OMEGA_1 = 0.3534042288
OMEGA_2 = 2.904816694
NU_CRIT = 0.0529760481

# The benchmark's small-dissipation box (bench/workloads.py BOX), from
# which its parameter_sets(7) draws the 64 sets after the reference set.
BOX = (("eps1", 0.0, 0.02), ("mu", 0.0, 0.02), ("nu", 0.0, 0.1),
       ("eta", 0.5, 10.0), ("delta", 0.02, 0.5))


def box_sets():
    """The reference set, then the 64 box sets, drawn as parameter_sets(7)
    draws them; "box set i" is entry i."""
    rng = np.random.default_rng(7)
    return [REF] + [DimensionlessParams(**{name: float(rng.uniform(lo, hi))
                                           for name, lo, hi in BOX})
                    for _ in range(64)]


# The README configuration: the reference set and its [run] section.
REF_SECTION = """\
[dimensionless]
eps1 = 0.005
mu = 0.008
nu = 0.05
eta = 7
delta = 0.1
"""

README_RUN = """\
[run]
modes = 2
omega_max = 20
step = 0.0005
subintervals = 8
nu_min = 0
nu_max = 0.1
nu_step = 0.005
grid_points = 201
mode = 1
"""

README_CONFIG = REF_SECTION + "\n" + README_RUN


# ------------------------------------------------------ the 34-digit oracle

def mp_row(dp, s):
    """(P(s), Q(s)) of the end-mass row P*u(1) + Q*u'(1) for an mpmath s, in
    the working precision, from the paper's D1 - i*D2 and D3 - i*D4."""
    mp = pytest.importorskip("mpmath")
    eps1, mu, nu, eta, delta = (mp.mpf(getattr(dp, name)) for name in
                                ("eps1", "mu", "nu", "eta", "delta"))
    P = eta * s * s * (1 + delta * (nu + mu) * s)
    Q = 1 + s * ((eps1 + mu * delta)
                 + s * (delta * (eta + eps1 * mu) + s * eps1 * eta * delta))
    return P, Q


def mp_residual(dp):
    """f(s) = P*u(1) + Q*u'(1) of the continuous system in the working
    precision: u(1) = sinh(r)/r and u'(1) = cosh(r) with r^2 = K."""
    mp = pytest.importorskip("mpmath")

    def residual(s):
        P, Q = mp_row(dp, s)
        K = s * s / (1 + dp.eps1 * s)
        r = mp.sqrt(K)
        return P * mp.sinh(r) / r + Q * mp.cosh(r)

    return residual


def mp_newton(residual, s0):
    """The zero of residual that Newton's method reaches from s0 in the
    working precision (None when it does not settle), with the slope as a
    central difference whose step is relative to |s|."""
    mp = pytest.importorskip("mpmath")
    s = mp.mpc(s0)
    tol = mp.mpf(10) ** (6 - mp.mp.dps)
    for _ in range(40):
        ds = residual(s) / mp.diff(residual, s, h=abs(s) * tol ** 2)
        s -= ds
        if abs(ds) <= tol * abs(s):
            return s
    return None


# ------------------------------------------------------ a fresh interpreter

SRC = str(Path(barmodes.__file__).resolve().parents[1])


def run_fresh(code):
    """The stdout of `python -c code` in a fresh interpreter that imports
    barmodes from the tree under test; the run must exit 0."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
