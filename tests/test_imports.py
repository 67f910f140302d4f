"""The import graph: each consumer loads only the modules it runs.

Every check runs in a fresh interpreter, whose sys.modules holds only what
the code under test imported."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import barmodes

SRC = str(Path(barmodes.__file__).resolve().parents[1])
SUBMODULES = ["asymptotic", "conservative", "fundsys", "params", "rk4"]

README_CONFIG = """\
[dimensionless]
eps1 = 0.005
mu = 0.008
nu = 0.05
eta = 7
delta = 0.1

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


def loaded_after(code, *watched):
    """The barmodes modules, and those of `watched`, in sys.modules of a
    fresh interpreter once `code` has run, sorted."""
    script = code + f"""
import json, sys
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] == "barmodes" or m in {watched!r})))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_package_import_loads_no_submodule():
    # dir() lists the submodules without loading them.
    code = ("import barmodes\n"
            "assert set(barmodes.__all__) <= set(dir(barmodes))\n")
    assert loaded_after(code) == ["barmodes"]


@pytest.mark.parametrize("name", ["asymptotic", "conservative"])
def test_closed_forms_load_neither_params_nor_dataclasses(name):
    assert loaded_after(f"from barmodes import {name}", "dataclasses") == [
        "barmodes", f"barmodes.{name}"]


def test_stability_verb_loads_neither_fundsys_nor_cmath(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(README_CONFIG)
    out = str(tmp_path / "out.csv")
    main = "from barmodes import cli\n"
    verb = ("assert cli.main([{!r}, '--config', {!r}, '--out', {!r}]) == 0\n"
            .format)
    assert loaded_after(main + verb("stability", str(config), out),
                        "cmath") == ["barmodes", "barmodes.asymptotic",
                                     "barmodes.cli", "barmodes.conservative",
                                     "barmodes.params"]
    searching = "".join(verb(name, str(config), out)
                        for name in ("spectrum", "sweep", "modeshape"))
    assert loaded_after(main + searching, "cmath") == [
        "barmodes", "barmodes.asymptotic", "barmodes.cli",
        "barmodes.conservative", "barmodes.fundsys", "barmodes.params",
        "cmath"]


def test_no_verb_loads_rk4(tmp_path):
    # The paper's RK4 system serves no search: importing fundsys or the CLI
    # and running all four verbs leave it unloaded.
    config = tmp_path / "run.ini"
    config.write_text(README_CONFIG)
    out = str(tmp_path / "out.csv")
    verbs = "".join(
        f"assert cli.main([{verb!r}, '--config', {str(config)!r}, "
        f"'--out', {out!r}]) == 0\n"
        for verb in ("stability", "spectrum", "sweep", "modeshape"))
    for code in ("import barmodes.fundsys", "import barmodes.cli"):
        assert "barmodes.rk4" not in loaded_after(code)
    loaded = loaded_after("from barmodes import cli\n" + verbs)
    assert "barmodes.fundsys" in loaded and "barmodes.rk4" not in loaded


def test_fundsys_bridges_only_the_two_rk4_functions():
    # bench/tracing.py wraps these two through fundsys, which hands out
    # rk4's own functions and no other rk4 name.
    from barmodes import fundsys, params, rk4

    assert fundsys.integrate_fundamental is rk4.integrate_fundamental
    assert fundsys.delta_subdivided is rk4.delta_subdivided
    for name in ("DEFAULT_STEP", "DEFAULT_SUBINTERVALS"):
        assert getattr(rk4, name) is getattr(params, name)
    for name in ("DEFAULT_STEP", "DEFAULT_SUBINTERVALS", "_step_count",
                 "_log1p", "_propagator"):
        with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
            getattr(fundsys, name)


@pytest.mark.parametrize("code", [
    "import barmodes\nbarmodes.rk4",
    "import barmodes\nfor name in dir(barmodes): getattr(barmodes, name)",
    "from barmodes import *",
])
def test_every_submodule_is_reachable(code):
    assert loaded_after(code) == ["barmodes"] + [f"barmodes.{name}"
                                                 for name in SUBMODULES]


def test_package_namespace():
    assert barmodes.__all__ == SUBMODULES
    for name in SUBMODULES:
        assert getattr(barmodes, name).__name__ == f"barmodes.{name}"
    # fundsys binds the search defaults and options record that params
    # defines; the RK4 step defaults are rk4's.
    for name in ("DEFAULT_OMEGA_MAX", "DEFAULT_RESOLUTION", "SolveOptions"):
        assert getattr(barmodes.fundsys, name) is getattr(barmodes.params,
                                                          name)
    with pytest.raises(AttributeError, match="has no attribute 'solver'"):
        barmodes.solver
