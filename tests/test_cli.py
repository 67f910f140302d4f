import cmath
import collections
import contextlib
import io
import math
import random
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from barmodes import cli, conservative, fundsys
from barmodes.params import DimensionlessParams

from support import (README_RUN, REF_SECTION, mp_newton, mp_residual,
                     run_fresh)

CONSERVATIVE_SECTION = """\
[dimensionless]
eps1 = 0
mu = 0
nu = 0
eta = 7
delta = 0.1
"""

# Mechanism damping mu = 1e6 makes every seed overflow, so no search
# evaluates anything; it is also outside the small-dissipation regime.
OVERFLOW_SECTION = CONSERVATIVE_SECTION.replace("mu = 0\n", "mu = 1e6\n")
SMALL_DISSIPATION_WARNING = ("warning: mu = 1e+06 exceeds 0.1; outside the "
                             "small-dissipation regime of the perturbation "
                             "solvers\n")

# A steel-like bar; only plumbing is under test, values just need to be legal.
PHYSICAL_SECTION = """\
[physical]
rho = 7800
S = 1e-4
E = 2.1e11
beta = 1e-5
b = 10
c = 2e6
d = 50
m = 5
l = 2
"""

# A step and subintervals other than the defaults.  They set only the
# paper's RK4 system, which no verb solves, so they must change no cell.
FAST_RUN = """\
[run]
step = 0.0025
subintervals = 2
"""


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_output(path):
    """Split an output file into (echo dict, header cells, data rows)."""
    lines = path.read_text().splitlines()
    echo, rest = {}, []
    for line in lines:
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            echo[key.strip()] = value.strip()
        else:
            rest.append(line)
    header = rest[0].split(",")
    rows = [line.split(",") for line in rest[1:]]
    return echo, header, rows


def run_cli(tmp_path, verb, config_text, extra_run="", strict=False):
    cfg = write_config(tmp_path, config_text + extra_run)
    out = tmp_path / "out.csv"
    argv = [verb, "--config", cfg, "--out", str(out)]
    if strict:
        argv.append("--strict")
    code = cli.main(argv)
    return code, out


# ----------------------------------------------------------------- config file

def test_missing_config_file_exits_2(tmp_path, capsys):
    assert cli.main(["spectrum", "--config", str(tmp_path / "nope.ini")]) == 2
    assert "config error" in capsys.readouterr().err


def test_config_file_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "run.ini"
    path.write_bytes(b"# caf\xff\n" + (REF_SECTION + FAST_RUN).encode())
    assert cli.main(["spectrum", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: cannot read config file:")


def test_both_parameter_sections_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, REF_SECTION + "\n[physical]\nrho = 1\n")
    assert cli.main(["spectrum", "--config", cfg]) == 2
    assert "exactly one" in capsys.readouterr().err


def test_neither_parameter_section_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "[run]\nmodes = 2\n")
    assert cli.main(["spectrum", "--config", cfg]) == 2
    assert "exactly one" in capsys.readouterr().err


def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, REF_SECTION + "[run]\nstep_size = 0.1\n")
    assert cli.main(["spectrum", "--config", cfg]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_default_section_is_an_unknown_section(tmp_path, capsys):
    # configparser would merge [DEFAULT] into every section, and the error
    # would name [dimensionless] for a key written under [DEFAULT].
    cfg = write_config(tmp_path, "[DEFAULT]\nstep = 0.0025\n\n"
                       + REF_SECTION + README_RUN)
    assert cli.main(["spectrum", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "unknown section [DEFAULT]" in err
    assert "[dimensionless]" not in err


def test_missing_parameter_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, REF_SECTION.replace("delta = 0.1\n", ""))
    assert cli.main(["spectrum", "--config", cfg]) == 2
    assert "missing key" in capsys.readouterr().err


def test_non_numeric_value_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, REF_SECTION.replace("0.05", "fast"))
    assert cli.main(["spectrum", "--config", cfg]) == 2
    assert "not a number" in capsys.readouterr().err


def test_invalid_parameter_value_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, REF_SECTION.replace("eta = 7", "eta = -1"))
    assert cli.main(["spectrum", "--config", cfg]) == 2
    assert "eta" in capsys.readouterr().err


@pytest.mark.parametrize("text, expected", [
    (REF_SECTION.replace("eps1 = 0.005", "eps1"),
     r"malformed config file: Source contains parsing errors: .*'eps1\\n'"),
    (REF_SECTION + "[dimensionless]\n", r"malformed config file: While "
     r"reading from .*: section 'dimensionless' already exists"),
    (REF_SECTION + "[foo]\n", re.escape("unknown section [foo]")),
    (REF_SECTION.replace("eps1 = 0.005", "eps1 = -0.005"),
     re.escape("invalid parameters: eps1 >= 0 violated"))],
    ids=["no-delimiter", "repeated-section", "unknown-section",
         "negative-eps1"])
def test_config_file_error_message(tmp_path, capsys, text, expected):
    code, out = run_cli(tmp_path, "stability", text)
    assert code == 2
    assert re.fullmatch(f"config error: {expected}\n",
                        capsys.readouterr().err, flags=re.S)
    assert not out.exists()


@pytest.mark.parametrize("verb", ["spectrum", "stability"])
@pytest.mark.parametrize("name", ["eps1", "mu", "nu", "eta", "delta"])
def test_infinite_parameter_exits_2(tmp_path, capsys, verb, name):
    section = re.sub(rf"^{name} = .*$", f"{name} = inf", REF_SECTION,
                     flags=re.M)
    code, out = run_cli(tmp_path, verb, section, FAST_RUN + "modes = 2\n")
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and name in err
    assert not out.exists()


def test_infinite_omega_max_exits_2(tmp_path, capsys):
    code, out = run_cli(tmp_path, "spectrum", REF_SECTION,
                        "[run]\nmodes = 2\nomega_max = inf\n")
    assert code == 2
    assert "omega_max" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb, key", [("stability", "nu_max"),
                                      ("spectrum", "step"),
                                      ("sweep", "nu_step"),
                                      ("stability", "nu_min")])
def test_non_finite_run_value_exits_2(tmp_path, capsys, verb, key):
    # An infinite [run] value is a config error, neither a traceback
    # (nu_max sizes the grid) nor a table of NA cells (step).
    code, out = run_cli(tmp_path, verb, REF_SECTION,
                        f"[run]\nmodes = 2\n{key} = inf\n", strict=True)
    assert code == 2
    assert f"[run] {key} must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section, text, key", [
    ("physical", PHYSICAL_SECTION, "E"),
    ("dimensionless", REF_SECTION, "eta"),
    ("run", REF_SECTION + README_RUN, "omega_max")],
    ids=["physical", "dimensionless", "run"])
@pytest.mark.parametrize("line, message", [
    ("{key} = 1\nbogus = 1", "[{section}] has unknown key 'bogus'"),
    ("{key} = fast", "[{section}] {key} = 'fast' is not a number"),
    ("{key} = inf", "[{section}] {key} must be finite")],
    ids=["unknown", "malformed", "inf"])
def test_bad_key_or_value_names_section_and_key(tmp_path, capsys, section,
                                                text, key, line, message):
    # An unknown key, a malformed number and a non-finite value are rejected
    # by one section parser, with one message form for all three sections.
    text = re.sub(rf"^{key} = .*$", line.format(key=key), text, flags=re.M)
    code, out = run_cli(tmp_path, "spectrum", text)
    assert code == 2
    expected = message.format(section=section, key=key)
    assert capsys.readouterr().err == f"config error: {expected}\n"
    assert not out.exists()


@pytest.mark.parametrize("verb", ["spectrum", "stability", "sweep",
                                  "modeshape"])
def test_subnormal_step_exits_2(tmp_path, capsys, verb):
    # 1/step overflows: spectrum exited 2 blaming the parameters, and
    # stability echoed the step and exited 0.
    code, out = run_cli(tmp_path, verb, REF_SECTION,
                        "[run]\nmodes = 1\nstep = 1e-320\n", strict=True)
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: [run] step ")
    assert not out.exists()


@pytest.mark.parametrize("run, message", [
    ("nu_step = 1e-300", "nu grid"),
    ("nu_max = 1000000\nnu_step = 1", "nu grid"),
    ("nu_max = 1e308\nnu_step = 1e-10", "nu grid"),
    ("grid_points = 1000001", "grid_points")],
    ids=["tiny-nu-step", "one-too-many", "overflowing-count", "profile"])
def test_grid_beyond_a_million_points_is_a_config_error(tmp_path, run,
                                                        message):
    # load_config only: without the cap, a verb would build the grid.
    path = write_config(tmp_path, REF_SECTION + f"[run]\n{run}\n")
    with pytest.raises(cli.ConfigError, match=message):
        cli.load_config(path)


def test_grid_of_a_million_points_is_accepted(tmp_path):
    path = write_config(tmp_path, REF_SECTION + "[run]\nnu_max = 999999\n"
                        "nu_step = 1\ngrid_points = 1000000\n")
    cli.load_config(path)


@pytest.mark.parametrize("verb", ["spectrum", "stability", "sweep",
                                  "modeshape"])
def test_overflowing_parameter_exits_2(tmp_path, capsys, verb):
    # A finite eta = 1e200 overflows the closed forms of mode 2; that is a
    # config error with a one-line message, not a traceback or inf/NaN
    # cells.  (Mode 1 sits at omega = 9.5e-101 and does not overflow.)
    section = REF_SECTION.replace("eta = 7", "eta = 1e200")
    code, out = run_cli(tmp_path, verb, section,
                        FAST_RUN + "modes = 2\nmode = 2\n")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not out.exists()


def test_no_step_is_refused_for_its_omega_max(tmp_path):
    # step sets only the paper's RK4 system, which no verb builds, so no
    # step * omega_max is refused: 0.2 * 20 = 4, 0.3 * 10 = 3 and the
    # README config at omega_max = 6000 (0.0005 * 6000 = 3) lie past RK4's
    # stability edge 2*sqrt(2), where a check exited 2.  Every verb runs
    # each config under --strict and writes the cells of the config
    # without its step line; only the "# step = ..." echo line differs.
    runs = [f"[run]\nmodes = 2\nstep = {step}\nomega_max = {omega_max}\n"
            for step, omega_max in ((0.2, 20), (0.15, 20), (0.3, 10))]
    runs += ["[run]\nmodes = 1\nstep = 0.14\n",
             README_RUN.replace("omega_max = 20\n", "omega_max = 6000\n")]
    for run in runs:
        step = re.search(r"^step = (.*)$", run, flags=re.M).group(1)
        default_step = run.replace(f"step = {step}\n", "")
        for verb in ("spectrum", "stability", "sweep", "modeshape"):
            outputs = []
            for text in (run, default_step):
                code, out = run_cli(tmp_path, verb, REF_SECTION, text,
                                    strict=True)
                assert code == 0, (run, verb)
                outputs.append(out.read_text().splitlines())
            assert len(outputs[0]) == len(outputs[1])
            assert [(a, b) for a, b in zip(*outputs) if a != b] == [
                (f"# step = {step}", "# step = 1e-06")], (run, verb)


def test_step_at_rk4_stability_edge_is_accepted(tmp_path):
    # 0.14 * 20 = 2.8 lies just inside RK4's stability edge 2*sqrt(2); it
    # ran before the edge check went and runs now.
    code, _ = run_cli(tmp_path, "spectrum", REF_SECTION,
                      "[run]\nmodes = 1\nstep = 0.14\n")
    assert code == 0


def test_huge_mass_ratio_gives_accurate_cells(tmp_path):
    # eta = 1e100 puts mode 1 at 1/sqrt(eta*(1 + delta)) = 9.53e-51: the
    # undamped root must be found there (not stop at 7.4e-14), and the
    # boundary frequency must be NA or of that size (not inf).
    section = REF_SECTION.replace("eta = 7", "eta = 1e100")
    code, out = run_cli(tmp_path, "spectrum", section,
                        FAST_RUN + "modes = 1\n", strict=True)
    assert code == 0
    _, header, rows = read_output(out)
    row = dict(zip(header, rows[0]))
    w1 = 1.0 / np.sqrt(1.1e100)
    assert float(row["omega_conservative"]) == pytest.approx(w1, rel=1e-11,
                                                             abs=0.0)
    assert float(row["omega_numeric"]) == pytest.approx(w1, rel=1e-11, abs=0.0)
    code, out = run_cli(tmp_path, "stability", section,
                        FAST_RUN + "modes = 1\n")
    assert code == 0
    _, _, rows = read_output(out)
    cells = [row[1] for row in rows]
    assert cells[0] == "NA"
    assert all(c == "NA" or 0.0 <= float(c) < 1e-49 for c in cells)
    assert float(cells[-1]) == pytest.approx(1.5008e-50, rel=1e-4, abs=0.0)


def test_descending_nu_grid_exits_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path, REF_SECTION + "[run]\nnu_min = 0.2\nnu_max = 0.1\n")
    assert cli.main(["stability", "--config", cfg]) == 2
    assert "nu_max" in capsys.readouterr().err


def test_physical_section_accepted(tmp_path):
    cfg = write_config(tmp_path, PHYSICAL_SECTION + """
[run]
modes = 1
step = 0.0025
subintervals = 2
""")
    out = tmp_path / "out.csv"
    assert cli.main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    echo, _, rows = read_output(out)
    assert echo["params"] == "physical"
    assert "eps1" in echo and "rho" in echo
    assert len(rows) == 1


@pytest.mark.parametrize("key, value, rule", [
    ("rho", "0", "strictly positive"),
    ("E", "-2", "strictly positive"),
    ("beta", "-1e-9", "non-negative")], ids=["rho", "E", "beta"])
def test_physical_constant_out_of_range_is_named(tmp_path, capsys, key,
                                                 value, rule):
    # The contract fuzzer draws only positive constants, so this pins the
    # message that names the constant.
    section = re.sub(rf"^{key} = .*$", f"{key} = {value}", PHYSICAL_SECTION,
                     flags=re.M)
    for verb in ("spectrum", "stability", "sweep", "modeshape"):
        code, out = run_cli(tmp_path, verb, section, FAST_RUN)
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: [physical] {key} must be {rule}\n")
        assert not out.exists()


@pytest.mark.parametrize("edits, product", [
    ({"rho": "1e-300", "S": "1e-15", "l": "1e-15"}, "rho*S*l"),
    ({"E": "1e-170", "S": "1e-170"}, "E*S"),
    ({"c": "1e-200", "l": "1e-200"}, "c*l"),
])
def test_physical_product_underflow_exits_2(tmp_path, capsys, edits,
                                            product):
    # Each product is of accepted finite positive constants, yet rounds to
    # 0; the division by it ended in ZeroDivisionError with a traceback.
    section = PHYSICAL_SECTION
    for key, value in edits.items():
        section = re.sub(rf"^{key} = .*$", f"{key} = {value}", section,
                         flags=re.M)
    for verb in ("spectrum", "stability", "sweep", "modeshape"):
        code, out = run_cli(tmp_path, verb, section, FAST_RUN, strict=True)
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: [physical] {product} underflows to 0; the "
            "dimensionless groups divided by it are not finite\n")
        assert not out.exists()


@pytest.mark.parametrize("edits, quantity", [
    ({"rho": "1e-300", "S": "1", "E": "1e300", "beta": "0", "b": "0",
      "c": "1", "d": "0", "m": "1", "l": "1"}, "the wave speed sqrt(E/rho)"),
    ({"rho": "1e200", "S": "1e200", "E": "1", "beta": "1e-3", "b": "1",
      "c": "1", "d": "1", "m": "1", "l": "1"}, "rho*S*l"),
])
def test_physical_overflow_names_the_quantity(tmp_path, capsys, edits,
                                              quantity):
    # Both exited 2 with a violation the parameters do not make: "eps1 >= 0
    # violated; mu >= 0 violated; nu >= 0 violated" with beta = b = d = 0,
    # and "eta > 0 violated".
    section = PHYSICAL_SECTION
    for key, value in edits.items():
        section = re.sub(rf"^{key} = .*$", f"{key} = {value}", section,
                         flags=re.M)
    for verb in ("spectrum", "stability", "sweep", "modeshape"):
        code, out = run_cli(tmp_path, verb, section, FAST_RUN)
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: [physical] {quantity} is not finite: it "
            "overflows floating-point arithmetic\n")
        assert not out.exists()


def test_absent_run_section_gives_every_default(tmp_path):
    config = cli.load_config(write_config(tmp_path, REF_SECTION))
    for key, (kind, default) in cli._RUN_KEYS.items():
        value = getattr(config, key)
        assert value == default and type(value) is kind, key


def test_default_nu_grid_has_21_points(tmp_path):
    config = cli.load_config(write_config(tmp_path, REF_SECTION))
    grid = config.nu_grid()
    assert len(grid) == 21
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(0.1, abs=1e-12)


# ------------------------------------------------------------------- spectrum

def test_spectrum_reference_frequencies(tmp_path):
    code, out = run_cli(tmp_path, "spectrum", REF_SECTION,
                        FAST_RUN + "modes = 2\n")
    assert code == 0
    echo, header, rows = read_output(out)
    assert echo["analysis"] == "spectrum"
    assert header == ["index", "omega_conservative", "q_asymptotic",
                      "omega_asymptotic", "q_numeric", "omega_numeric",
                      "delta_hat"]
    assert len(rows) == 2
    w_cons = [float(r[1]) for r in rows]
    assert w_cons[0] == pytest.approx(0.3534042288, abs=1e-6)
    assert w_cons[1] == pytest.approx(2.904816694, abs=1e-6)
    for row in rows:
        assert float(row[5]) == pytest.approx(float(row[1]), abs=1e-3)
        assert float(row[6]) < 1e-12


def continuous_eigenvalue(s, eps1=0.005, mu=0.008, nu=0.05, eta=7.0,
                          delta=0.1):
    """The zero near s of the continuous end-mass residual P*sinh(r)/r +
    Q*cosh(r), r^2 = s^2/(1 + eps1*s), by Newton's method with a central
    difference slope; the defaults are the README set."""
    def residual(s):
        P = eta * s * s * (1 + delta * (nu + mu) * s)
        Q = 1 + s * ((eps1 + mu * delta)
                     + s * (delta * (eta + eps1 * mu) + s * eps1 * eta * delta))
        r = cmath.sqrt(s * s / (1 + eps1 * s))
        return P * cmath.sinh(r) / r + Q * cmath.cosh(r)

    for _ in range(50):
        h = 1e-7 * abs(s)
        ds = residual(s) * 2 * h / (residual(s + h) - residual(s - h))
        s -= ds
        if abs(ds) <= 1e-15 * abs(s):
            return s
    raise AssertionError(f"no continuous eigenvalue near {s}")


def test_spectrum_higher_modes_keep_their_rows(tmp_path):
    # README set, 30 modes.  Seeded at omega_k, mode 27's search left its
    # band (NA, exit 3), and rows 28-30 held the eigenvalues of modes 29-31.
    # Material damping alone puts mode k at s_k = -eps1*w_k^2/2 +
    # i*w_k*sqrt(1 - (eps1*w_k/2)^2); every row lies within 0.01 of it, a
    # mode spacing (~3) from its neighbours' s_k, and is the continuous
    # eigenvalue to the digits printed: the default step's RK4 error lies
    # below rounding, and a %.12g cell rounds its part by at most 5e-12.
    code, out = run_cli(tmp_path, "spectrum", REF_SECTION,
                        "[run]\nmodes = 30\nomega_max = 100\n", strict=True)
    assert code == 0
    _, _, rows = read_output(out)
    assert [int(row[0]) for row in rows] == list(range(1, 31))
    for row in rows:
        s, w = complex(float(row[4]), float(row[5])), float(row[1])
        x = 0.005 * w / 2
        assert abs(s - complex(-x * w, w * math.sqrt(1 - x * x))) < 0.01
        exact = continuous_eigenvalue(s)
        assert abs(s - exact) <= 6e-12 * abs(exact)
    assert [(row[4], row[5]) for row in rows[26:]] == [
        ("-16.1018498886", "78.602343966"),
        ("-17.3849295757", "81.5388865655"),
        ("-18.7173540091", "84.4597687641"),
        ("-20.0991236313", "87.3643041602")]


def test_spectrum_conservative_growth_rates_vanish(tmp_path):
    code, out = run_cli(tmp_path, "spectrum", CONSERVATIVE_SECTION,
                        FAST_RUN + "modes = 2\n")
    assert code == 0
    _, _, rows = read_output(out)
    for row in rows:
        assert abs(float(row[4])) < 1e-6


def test_spectrum_zero_modes_is_header_only(tmp_path):
    code, out = run_cli(tmp_path, "spectrum", REF_SECTION,
                        FAST_RUN + "modes = 0\n")
    assert code == 0
    _, header, rows = read_output(out)
    assert header[0] == "index"
    assert rows == []


@pytest.mark.parametrize("verb, strict", [("spectrum", True),
                                           ("stability", False),
                                           ("sweep", False),
                                           ("modeshape", False)])
def test_mode_shortfall_exits_2(tmp_path, capsys, verb, strict):
    # omega_max = 3 holds only two undamped frequencies, five are asked for;
    # every verb reports the shortfall with the same message.
    code, out = run_cli(tmp_path, verb, REF_SECTION,
                        "[run]\nmodes = 5\nmode = 5\nomega_max = 3\n",
                        strict=strict)
    assert code == 2
    assert ("mode 5 has no conservative frequency below omega_max = 3"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("verb", ["spectrum", "sweep"])
def test_huge_mode_count_is_a_shortfall_not_a_memory_error(tmp_path, capsys,
                                                           verb):
    # The shortfall check comes before anything is built per requested
    # mode: sweep built a tuple of all 10**12 mode numbers first.
    code, out = run_cli(tmp_path, verb, REF_SECTION,
                        "[run]\nmodes = 1000000000000\nomega_max = 3\n")
    assert code == 2
    assert ("mode 1000000000000 has no conservative frequency below "
            "omega_max = 3" in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("verb", ["spectrum", "stability", "sweep",
                                  "modeshape"])
@pytest.mark.parametrize("count, run, walks", [
    (10**12, "omega_max = 1e6\nstep = 1e-6\n", False),
    (2, "omega_max = 2.5\n", True)], ids=["beyond-bound", "within-bound"])
def test_shortfall_beyond_the_branch_bound_walks_no_roots(
        tmp_path, capsys, monkeypatch, verb, count, run, walks):
    # Root k lies above (k - 3/2)*pi, so 10**12 modes cannot fit below
    # omega_max = 1e6: find_roots walked and stored the ~318000 branches
    # below it (4.2 s, 69 MB) before reporting the shortfall.  Two modes
    # may fit below 2.5, so the roots are walked, and one is found.
    walked, find_roots = [], conservative.find_roots

    def recording(*args, **kwargs):
        walked.append(args)
        return find_roots(*args, **kwargs)

    monkeypatch.setattr(conservative, "find_roots", recording)
    code, out = run_cli(tmp_path, verb, REF_SECTION,
                        f"[run]\nmodes = {count}\nmode = {count}\n{run}")
    assert code == 2
    assert (f"mode {count} has no conservative frequency below omega_max = "
            in capsys.readouterr().err)
    assert not out.exists()
    assert bool(walked) == walks


@pytest.mark.parametrize("verb", ["spectrum", "stability", "sweep",
                                  "modeshape"])
def test_mode_count_above_the_cap_walks_no_roots(tmp_path, capsys,
                                                 monkeypatch, verb):
    # omega_max = 1e150 may hold 10**9 modes, so the branch bound lets the
    # count through; find_roots then walked root by root for as long as
    # it was left to run.  The cap on the nu grid caps a mode count too.
    walked = []

    def recording(*args, **kwargs):
        walked.append(args)
        return []

    monkeypatch.setattr(conservative, "find_roots", recording)
    code, out = run_cli(tmp_path, verb, REF_SECTION,
                        "[run]\nmodes = 1000000000\nmode = 1000000000\n"
                        "omega_max = 1e150\nstep = 1e-300\n", strict=True)
    assert code == 2
    assert ("mode 1000000000 exceeds the cap of 1000000 modes"
            in capsys.readouterr().err)
    assert not out.exists()
    assert walked == []


def test_spectrum_writes_no_nan_cell(tmp_path, capsys):
    # No search evaluates anything, so delta_hat is missing: NA, never nan.
    code, out = run_cli(tmp_path, "spectrum", OVERFLOW_SECTION,
                        "[run]\nmodes = 3\n")
    assert code == 0
    err = capsys.readouterr().err
    assert SMALL_DISSIPATION_WARNING in err
    assert "did not converge" in err
    _, header, rows = read_output(out)
    assert len(rows) == 3
    for row in rows:
        assert "nan" not in [cell.lower() for cell in row]
        assert row[header.index("delta_hat")] == "NA"


@pytest.mark.parametrize("verb", ["spectrum", "stability", "sweep",
                                  "modeshape"])
def test_small_dissipation_warning_is_one_line(tmp_path, capsys, verb):
    # The CLI states the warning in its own format, with no source location
    # or code line, and it changes no exit code.
    code, _ = run_cli(tmp_path, verb, OVERFLOW_SECTION, "[run]\nmodes = 3\n")
    assert code == 0
    err = capsys.readouterr().err
    assert err.startswith(SMALL_DISSIPATION_WARNING)
    assert "UserWarning" not in err and ".py:" not in err


def test_readme_config_echo_block(tmp_path):
    code, out = run_cli(tmp_path, "stability", REF_SECTION, README_RUN)
    assert code == 0
    echo = [line for line in out.read_text().splitlines()
            if line.startswith("#")]
    assert echo == [
        "# analysis = stability",
        "# params = dimensionless",
        "# eps1 = 0.005",
        "# mu = 0.008",
        "# nu = 0.05",
        "# eta = 7",
        "# delta = 0.1",
        "# modes = 2",
        "# omega_max = 20",
        "# step = 0.0005",
        "# subintervals = 8",
        "# nu_min = 0",
        "# nu_max = 0.1",
        "# nu_step = 0.005",
        "# grid_points = 201",
        "# mode = 1",
    ]


def test_physical_config_echo_block(tmp_path):
    code, out = run_cli(tmp_path, "stability", PHYSICAL_SECTION, README_RUN)
    assert code == 0
    echo = [line for line in out.read_text().splitlines()
            if line.startswith("#")]
    assert echo == [
        "# analysis = stability",
        "# params = physical",
        "# rho = 7800",
        "# S = 0.0001",
        "# E = 210000000000",
        "# beta = 1e-05",
        "# b = 10",
        "# c = 2000000",
        "# d = 50",
        "# m = 5",
        "# l = 2",
        "# eps1 = 0.0259437260831",
        "# mu = 0.00247083105554",
        "# nu = 0.0123541552777",
        "# eta = 3.20512820513",
        "# delta = 5.25",
        "# modes = 2",
        "# omega_max = 20",
        "# step = 0.0005",
        "# subintervals = 8",
        "# nu_min = 0",
        "# nu_max = 0.1",
        "# nu_step = 0.005",
        "# grid_points = 201",
        "# mode = 1",
    ]


def test_unwritable_output_path_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, REF_SECTION + FAST_RUN + "modes = 1\n")
    out = tmp_path / "missing" / "x.csv"
    assert cli.main(["spectrum", "--config", cfg, "--out", str(out)]) == 2
    assert "output error" in capsys.readouterr().err
    assert not out.exists()


def test_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, REF_SECTION + FAST_RUN + "modes = 1\n")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["spectrum", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["spectrum", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert b"\r" not in out1.read_bytes()


# ------------------------------------------------------------------ stability

def test_stability_reference_map(tmp_path):
    code, out = run_cli(tmp_path, "stability", REF_SECTION,
                        "[run]\nmodes = 2\n")
    assert code == 0
    _, header, rows = read_output(out)
    assert header == ["nu", "omega_boundary", "nu_crit_1", "nu_crit_2",
                      "excited_1", "excited_2"]
    assert len(rows) == 21
    by_nu = {row[0]: row for row in rows}
    assert float(by_nu["0"][2]) == pytest.approx(0.0529760481, abs=1e-4)
    assert by_nu["0"][3] == "never-excited"
    assert by_nu["0"][1] == "NA"           # no boundary frequency at nu = 0
    # mode 1 excited once nu passes its critical value, mode 2 never
    assert by_nu["0.05"][4] == "0"
    assert by_nu["0.055"][4] == "1"
    assert all(row[5] == "0" for row in rows)


def test_stability_boundary_frequency_near_zero_crossing(tmp_path):
    extra = "[run]\nmodes = 1\nnu_min = 0.0285714286\nnu_max = 0.0285714286\n"
    code, out = run_cli(tmp_path, "stability", REF_SECTION, extra)
    assert code == 0
    _, _, rows = read_output(out)
    assert len(rows) == 1
    assert float(rows[0][1]) == pytest.approx(0.0, abs=1e-3)


# ---------------------------------------------------------------------- sweep

def test_sweep_wide_rows(tmp_path):
    extra = FAST_RUN + "modes = 1\nnu_min = 0\nnu_max = 0.01\nnu_step = 0.005\n"
    code, out = run_cli(tmp_path, "sweep", REF_SECTION, extra)
    assert code == 0
    _, header, rows = read_output(out)
    assert header == ["nu", "q_1", "omega_1", "converged_1"]
    assert [row[0] for row in rows] == ["0", "0.005", "0.01"]
    for row in rows:
        assert len(row) == len(header)
        assert row[3] == "1"
        assert float(row[1]) < 0.0
        assert float(row[2]) == pytest.approx(0.3534042288, abs=1e-3)


def test_sweep_keeps_each_mode_in_its_columns_on_a_repeated_grid_value(
        tmp_path):
    # nu_min + i*nu_step rounds to 0.05 more than once.  Rows sorted by
    # (nu, mode) and cut into groups of two put mode 1's eigenvalue under
    # q_2, omega_2 in one row and mode 2's under q_1, omega_1 in the next.
    grid = README_RUN.replace("nu_min = 0\n", "nu_min = 0.05\n") \
        .replace("nu_max = 0.1\n", "nu_max = 0.05000000000000002\n") \
        .replace("nu_step = 0.005\n", "nu_step = 4e-18\n")
    code, out = run_cli(tmp_path, "spectrum", REF_SECTION, grid, strict=True)
    assert code == 0
    _, header, rows = read_output(out)
    modes = [(float(row[header.index("q_numeric")]),
              float(row[header.index("omega_numeric")])) for row in rows]
    code, out = run_cli(tmp_path, "sweep", REF_SECTION, grid, strict=True)
    assert code == 0
    _, header, rows = read_output(out)
    nus = [float(row[0]) for row in rows]
    assert len(set(nus)) < len(nus)
    for row in rows:
        cells = dict(zip(header, row))
        for k, (q, omega) in enumerate(modes, start=1):
            assert float(cells[f"q_{k}"]) == pytest.approx(q, rel=1e-9)
            assert float(cells[f"omega_{k}"]) == pytest.approx(omega,
                                                               rel=1e-9)


def test_sweep_writes_na_for_unevaluated_searches(tmp_path, capsys):
    # Every seed overflows, so no row has an eigenvalue to report: q and
    # omega are NA, not a repeat of the seeds.
    code, out = run_cli(tmp_path, "sweep", OVERFLOW_SECTION,
                        "[run]\nmodes = 3\n", strict=True)
    assert code == 3
    assert "did not converge" in capsys.readouterr().err
    _, header, rows = read_output(out)
    assert len(rows) == 21
    for row in rows:
        assert row[1:7] == ["NA"] * 6
        assert row[7:] == ["0"] * 3


def test_sweep_keeps_an_evaluated_unconverged_row(tmp_path, monkeypatch):
    # A search that evaluated its residual but did not converge still
    # reports where it stopped.
    def stopped(dp, seed, options=None, **kwargs):
        return fundsys.SpectralPoint(q=-0.25, omega=0.5, delta_value=0.5,
                                     converged=False)

    monkeypatch.setattr(fundsys, "find_eigenvalue", stopped)
    code, out = run_cli(tmp_path, "sweep", REF_SECTION,
                        FAST_RUN + "modes = 1\nnu_max = 0.005\n")
    assert code == 0
    _, _, rows = read_output(out)
    assert rows == [["0", "-0.25", "0.5", "0"], ["0.005", "-0.25", "0.5", "0"]]


# ------------------------------------------------------------------ modeshape

def test_modeshape_conservative_profile(tmp_path):
    extra = FAST_RUN + "grid_points = 11\nmode = 1\n"
    code, out = run_cli(tmp_path, "modeshape", CONSERVATIVE_SECTION, extra)
    assert code == 0
    _, header, rows = read_output(out)
    assert header == ["xbar", "u1", "u2"]
    assert len(rows) == 11
    assert [float(cell) for cell in rows[0]] == [0.0, 0.0, 0.0]
    omega1 = 0.3534042288
    for row in rows:
        x, u1, u2 = map(float, row)
        assert u1 == pytest.approx(np.sin(omega1 * x) / np.sin(omega1),
                                   abs=1e-5)
        assert abs(u2) < 1e-6


@pytest.mark.parametrize("step, mode", [(0.05, 5), (0.05, 7), (0.1, 3),
                                        (0.1, 5), (0.1, 7)])
def test_modeshape_at_coarse_step(tmp_path, step, mode):
    # The profile and its rank check belong to the system the search
    # solved, so a converged search always has a profile.
    extra = README_RUN.replace("modes = 2\n", "modes = 7\n") \
        .replace("step = 0.0005\n", f"step = {step}\n") \
        .replace("mode = 1\n", f"mode = {mode}\n")
    code, out = run_cli(tmp_path, "modeshape", REF_SECTION, extra)
    assert code == 0
    _, _, rows = read_output(out)
    assert len(rows) == 201
    assert [float(cell) for cell in rows[0]] == [0.0, 0.0, 0.0]


def test_modeshape_mode_out_of_range_exits_2(tmp_path, capsys):
    extra = "[run]\nmode = 3\nomega_max = 1\n"
    code, _ = run_cli(tmp_path, "modeshape", CONSERVATIVE_SECTION, extra)
    assert code == 2
    assert "mode 3" in capsys.readouterr().err


# ------------------------------------------------------------------ strictness

def unconverged_stub(dp, seed, options=None, **kwargs):
    return fundsys.SpectralPoint(q=seed.q, omega=seed.omega, delta_value=1.0,
                                 converged=False)


def test_strict_mode_exits_3_on_nonconvergence(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(fundsys, "find_eigenvalue", unconverged_stub)
    code, out = run_cli(tmp_path, "spectrum", REF_SECTION,
                        FAST_RUN + "modes = 1\n", strict=True)
    assert code == 3
    assert "did not converge" in capsys.readouterr().err
    _, _, rows = read_output(out)  # the file is still written
    assert rows[0][4] == "NA" and rows[0][5] == "NA"


def test_nonconvergence_without_strict_exits_0(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(fundsys, "find_eigenvalue", unconverged_stub)
    code, out = run_cli(tmp_path, "spectrum", REF_SECTION,
                        FAST_RUN + "modes = 1\n")
    assert code == 0
    assert "did not converge" in capsys.readouterr().err
    _, _, rows = read_output(out)
    assert rows[0][4] == "NA"


# ------------------------------------------------ closed forms out of reach

def dimensionless_section(eps1, mu, nu, eta, delta):
    return (f"[dimensionless]\neps1 = {eps1}\nmu = {mu}\nnu = {nu}\n"
            f"eta = {eta}\ndelta = {delta}\n")


# corrected_eigenvalue raises ZeroDivisionError at mode 1 (omega = 1).
DEGENERATE_SEED = dimensionless_section("4e-05", "2.9", "0.0003", "1e-300",
                                        "1e+300")
# corrected_eigenvalue gives q = -inf at modes 2 and 3.
NON_FINITE_SEED = dimensionless_section("0", "1e+150", "0.14", "1e+150",
                                        "0.035")
# Mode 2 is aperiodic; the searches of modes 1 and 2 both land on mode 1's
# eigenvalue.
DUPLICATING = dimensionless_section(
    "0.0013097058547352455", "0.4876225461206822", "0.008175825081262286",
    "0.15590497168843653", "2.5715024029470617")


def assert_finite_cells(out):
    _, _, rows = read_output(out)
    for row in rows:
        for cell in row:
            assert cell.lower() not in ("nan", "inf", "-inf"), row


@pytest.mark.parametrize("section, run, verb", [
    (DEGENERATE_SEED, "", "spectrum"),
    (DEGENERATE_SEED, "nu_max = 0.01\n", "sweep"),
    (DEGENERATE_SEED, "", "modeshape"),
    (NON_FINITE_SEED, "modes = 3\n", "spectrum"),
    (NON_FINITE_SEED, "modes = 3\nnu_max = 0.01\n", "sweep")],
    ids=["degenerate-spectrum", "degenerate-sweep", "degenerate-modeshape",
         "non-finite-spectrum", "non-finite-sweep"])
def test_unusable_first_order_seed_falls_back(tmp_path, section, run, verb):
    # These verbs ended in a traceback (ZeroDivisionError, or ValueError:
    # non-finite seed); the search now starts at the conservative point.
    code, out = run_cli(tmp_path, verb, section, FAST_RUN + run, strict=True)
    assert code in (0, 3)
    assert_finite_cells(out)


def test_spectrum_asymptotic_cells_are_na_where_the_closed_form_fails(
        tmp_path):
    code, out = run_cli(tmp_path, "spectrum", DEGENERATE_SEED,
                        FAST_RUN + "modes = 2\n")
    assert code == 0
    _, header, rows = read_output(out)
    cells = [dict(zip(header, row)) for row in rows]
    assert cells[0]["q_asymptotic"] == cells[0]["omega_asymptotic"] == "NA"
    assert float(cells[1]["q_asymptotic"]) < 0.0
    code, out = run_cli(tmp_path, "spectrum", NON_FINITE_SEED,
                        FAST_RUN + "modes = 3\n")
    assert code == 0
    _, header, rows = read_output(out)
    cells = [dict(zip(header, row)) for row in rows]
    assert [c["q_asymptotic"] for c in cells[1:]] == ["NA", "NA"]
    assert [c["omega_asymptotic"] for c in cells[1:]] == [
        c["omega_conservative"] for c in cells[1:]]


def test_stability_writes_na_for_an_infinite_critical_feedback(tmp_path):
    # The closed-form critical feedback overflows to inf, which was written
    # as "inf" in every nu_crit_k cell.
    section = dimensionless_section("1e+298", "1e+148", "0.0001", "1e-15",
                                    "1.5")
    code, out = run_cli(tmp_path, "stability", section,
                        "[run]\nmodes = 4\nnu_max = 0.01\n")
    assert code == 0
    assert_finite_cells(out)
    _, header, rows = read_output(out)
    for row in rows:
        assert row[2:6] == ["NA"] * 4


def test_stability_writes_na_for_a_degenerate_excitation_flag(tmp_path):
    # excitation_indicator raises ZeroDivisionError for mode 1, which ended
    # stability in a traceback.
    section = dimensionless_section(
        "6.6016315452939995", "0.0014229758456258742", "0.06117458291837345",
        "1e-15", "1e+150")
    code, out = run_cli(tmp_path, "stability", section,
                        "[run]\nmodes = 6\nomega_max = 40\nnu_max = 0.01\n")
    assert code == 0
    _, header, rows = read_output(out)
    assert len(rows) == 3
    for row in rows:
        flags = dict(zip(header, row))
        assert flags["excited_1"] == "NA"
        assert all(flags[f"excited_{k}"] in ("0", "1") for k in range(2, 7))


def test_spectrum_counts_a_duplicated_eigenvalue_as_unconverged(tmp_path,
                                                                capsys):
    # Modes 1 and 2 were both written as -0.0742147686683,1.33562192492
    # with exit 0.
    code, out = run_cli(tmp_path, "spectrum", DUPLICATING,
                        "[run]\nmodes = 3\n", strict=True)
    assert code == 3
    assert "did not converge" in capsys.readouterr().err
    _, header, rows = read_output(out)
    cells = [dict(zip(header, row)) for row in rows]
    assert cells[1]["q_numeric"] == cells[1]["omega_numeric"] == "NA"
    for k in (0, 2):
        assert "NA" not in (cells[k]["q_numeric"], cells[k]["omega_numeric"])


def test_sweep_counts_a_duplicated_eigenvalue_as_unconverged(tmp_path):
    code, out = run_cli(tmp_path, "sweep", DUPLICATING, "[run]\nmodes = 3\n",
                        strict=True)
    assert code == 3
    _, header, rows = read_output(out)
    assert len(rows) == 21
    for row in rows:
        cells = dict(zip(header, row))
        assert cells["converged_2"] == "0"
        assert cells["converged_1"] == "1"


def test_modeshape_counts_a_duplicated_eigenvalue_as_unconverged(tmp_path,
                                                                 capsys):
    # Mode 2's search lands on mode 1's eigenvalue.  A sweep of mode 2
    # alone gave the duplicate guard nothing to compare with, and the verb
    # profiled mode 1's eigenvalue as mode 2 with exit 0.
    code, out = run_cli(tmp_path, "modeshape", DUPLICATING,
                        "[run]\nmode = 2\n", strict=True)
    assert code == 3
    assert "did not converge" in capsys.readouterr().err
    assert read_output(out)[2] == []
    code, out = run_cli(tmp_path, "modeshape", DUPLICATING,
                        "[run]\nmode = 3\n", strict=True)
    assert code == 0
    assert len(read_output(out)[2]) == 201


def test_spectrum_counts_a_real_root_as_unconverged(tmp_path, capsys):
    # delta = 1e150 puts mode 1 on the real axis (imaginary part -3.4e-119
    # in 34 digits); spectrum wrote it as omega = 9.26094167813e-74, a
    # frequency it is not, and exited 0.
    section = dimensionless_section(
        "0.03441697414601714", "2.635073834928535", "0.002131903065946611",
        "0.00011352442162894685", "1e+150")
    code, out = run_cli(tmp_path, "spectrum", section,
                        "[run]\nmodes = 2\nstep = 0.000531216731547416\n"
                        "subintervals = 1\n", strict=True)
    assert code == 3
    assert "did not converge" in capsys.readouterr().err
    _, header, rows = read_output(out)
    cells = [dict(zip(header, row)) for row in rows]
    assert cells[0]["q_numeric"] == cells[0]["omega_numeric"] == "NA"
    assert "NA" not in (cells[1]["q_numeric"], cells[1]["omega_numeric"])


def test_spectrum_counts_a_mode_turning_aperiodic_as_unconverged(tmp_path,
                                                                 capsys):
    # eps1*omega_1 ~ 2: mode 1's roots near s = -1.5689 are real.  A rule
    # that settled a search on a step no smaller than the one before had
    # spectrum write -1.56922697967,4.6546525374e-05 with exit 0: a complex
    # point 2.1e-4 (relative) from the real root.
    section = dimensionless_section("1.274512778753114", "0.0", "0.0",
                                    "0.001", "0.01")
    code, out = run_cli(tmp_path, "spectrum", section, "[run]\nmodes = 1\n",
                        strict=True)
    assert code == 3
    assert "did not converge" in capsys.readouterr().err
    _, header, rows = read_output(out)
    cells = dict(zip(header, rows[0]))
    assert cells["q_numeric"] == cells["omega_numeric"] == "NA"
    assert cells["delta_hat"] == "2.81458081715e-15"


def test_sweep_prints_no_negative_frequency(tmp_path):
    # Mode 1 of this set reaches the real axis as nu grows.  A continuation
    # seed extrapolated across it had omega < 0, and every omega_1 cell
    # from nu = 0.02 to 0.1 read -1.15394170731e-36: the unevaluated seed.
    section = dimensionless_section(
        "0.0022989367474588176", "9.687177258985631", "0.02",
        "7.490796060555215", "1.7389555402781556")
    code, out = run_cli(tmp_path, "sweep", section, README_RUN)
    assert code == 0
    _, header, rows = read_output(out)
    cells = [dict(zip(header, row)) for row in rows]
    assert len(cells) == 21
    assert all(float(cell["omega_1"]) > 0.0 for cell in cells)
    assert all(cell["converged_1"] == "0" for cell in cells[4:])


def test_spectrum_survives_a_non_finite_k(tmp_path, capsys):
    # With nu = 1e300 a search reaches a finite s whose K is not finite,
    # where cmath.cosh raised 'ValueError: math domain error' out of
    # spectrum.  The overflow ends that search instead.
    section = dimensionless_section("14.248443735095481",
                                    "0.0024058076295046457", "1e+300",
                                    "0.07121452955562088", "0.155609209108611")
    code, out = run_cli(tmp_path, "spectrum", section, strict=True)
    assert code in (0, 3)
    assert len(read_output(out)[2]) == 5


# Fuzz seed 3 draw 349: a sweep of 5175 nu values whose strongly damped
# rows near nu = 0.85 (q ~ -2 to -4) sit where the residual's rounding
# noise keeps every Newton step above 1e-15*|s|.
FLOOR_GROUPS = ("0.00011054752459377342", "0.12545765950142987",
                "0.00020251896477770337", "0.7877235136985669",
                "10.69256295729562")
FLOOR_RUN = "[run]\nnu_max = 25.873536432870427\ngrid_points = 2\n"


def test_sweep_searches_settle_at_the_rounding_floor(tmp_path, monkeypatch):
    # A search whose steps the rounding floor keeps above 1e-15*|s| settles
    # at the end of its unevaluated last step: a step of at most 1e-8*|s|
    # from an evaluation whose normalized determinant is already below
    # CONVERGED_TOL.  No search of this sweep takes more than 6 of the
    # MAX_ITERATIONS evaluations; near nu = 0.85, 71 of the 91 converged
    # searches settle that way.  Before, 13 searches of this sweep ran all
    # 500 evaluations and came back unconverged at a determinant of ~1e-33.
    # Every converged search near nu = 0.85 is the continuous eigenvalue to
    # 1e-13.
    evaluations, searches = [], []
    rhs, search = fundsys.rhs_coefficients, fundsys.find_eigenvalue

    def counting(*args):
        evaluations[-1] += 1
        return rhs(*args)

    def recording(*args, **kwargs):
        evaluations.append(0)
        point = search(*args, **kwargs)
        searches.append((kwargs["_row"][1], point))
        return point

    monkeypatch.setattr(fundsys, "rhs_coefficients", counting)
    monkeypatch.setattr(fundsys, "find_eigenvalue", recording)
    code, out = run_cli(tmp_path, "sweep", dimensionless_section(*FLOOR_GROUPS),
                        FLOOR_RUN)
    assert code == 0
    assert len(read_output(out)[2]) == 5175
    assert len(evaluations) == 5 * 5175
    assert max(evaluations) < fundsys.MAX_ITERATIONS
    mp = pytest.importorskip("mpmath")
    dp = DimensionlessParams(*map(float, FLOOR_GROUPS))
    checked = 0
    for nu, point in searches:
        if point.converged and 0.83 <= nu <= 0.92:
            s = complex(point.q, point.omega)
            with mp.workdps(34):
                exact = complex(mp_newton(mp_residual(replace(dp, nu=nu)), s))
            assert abs(s - exact) <= 1e-13 * abs(exact), (nu, s, exact)
            checked += 1
    assert checked >= 80


def test_underflowing_step_finds_the_continuous_eigenvalue(tmp_path):
    # eta = 1e150 puts mode 1 at omega ~ 1e-75, where a step of 1e-300 has
    # h*sqrt(K) below the float range.  That zeroed RK4's exponents: spectrum
    # reported a zero of the boundary polynomial Q as converged, then, once
    # the zero propagator was refused, mode 1 as NA, and modeshape wrote no
    # rows.  Such a step is exp(A) to rounding, so mode 1 converges.
    groups = ("0.001", "0.001", "0.001", "1e150", "0.1")
    section = dimensionless_section(*groups)
    code, out = run_cli(tmp_path, "spectrum", section,
                        "[run]\nmodes = 2\nstep = 1e-300\n", strict=True)
    assert code == 0
    _, header, rows = read_output(out)
    cells = [dict(zip(header, row)) for row in rows]
    s = complex(float(cells[0]["q_numeric"]), float(cells[0]["omega_numeric"]))
    mp = pytest.importorskip("mpmath")
    with mp.workdps(34):
        exact = complex(mp_newton(
            mp_residual(DimensionlessParams(*map(float, groups))), s))
    assert abs(s - exact) <= 1e-12 * abs(exact), (s, exact)
    assert float(cells[1]["omega_numeric"]) == pytest.approx(2.8627714,
                                                             abs=1e-6)
    code, out = run_cli(tmp_path, "modeshape", section,
                        "[run]\nstep = 1e-300\n", strict=True)
    assert code == 0
    _, _, rows = read_output(out)
    values = [[float(cell) for cell in row] for row in rows]
    assert len(values) == 201
    assert all(math.isfinite(v) for row in values for v in row)
    assert max(abs(complex(u1, u2)) for _, u1, u2 in values) == 1.0
    assert [1.0, 0.0] in [row[1:] for row in values]


# ------------------------------------------------------------- console entry

def test_module_entry_point(tmp_path):
    cfg = write_config(tmp_path, CONSERVATIVE_SECTION + FAST_RUN + "modes = 1\n")
    out = tmp_path / "out.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "barmodes", "spectrum", "--config", cfg,
         "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    echo, _, rows = read_output(out)
    assert echo["analysis"] == "spectrum"
    assert len(rows) == 1


@pytest.mark.parametrize("verb", sorted(cli._VERBS))
def test_options_before_or_after_the_verb_write_the_same_csv(tmp_path, verb):
    cfg = write_config(tmp_path, REF_SECTION + FAST_RUN
                       + "modes = 2\nnu_step = 0.05\ngrid_points = 11\n")
    before, after = tmp_path / "before.csv", tmp_path / "after.csv"
    assert cli.main(["--config", cfg, "--out", str(before), "--strict",
                     verb]) == 0
    assert cli.main([verb, "--config", cfg, "--out", str(after),
                     "--strict"]) == 0
    assert before.read_bytes() == after.read_bytes()


@pytest.mark.parametrize("argv", [["--config", "{cfg}"],
                                  ["spectra", "--config", "{cfg}"],
                                  ["spectrum"]],
                         ids=["no-verb", "unknown-verb", "no-config"])
def test_usage_error_exits_2_and_writes_no_output(tmp_path, capsys, argv):
    cfg = write_config(tmp_path, REF_SECTION)
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main([arg.format(cfg=cfg) for arg in argv] + ["--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "error:" in err
    assert not out.exists()


def test_help_describes_every_verb(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["-h"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for verb in cli._VERBS:
        assert re.search(rf"^ +{verb} +\w", text, re.MULTILINE), verb


def test_verbs_without_arrays_load_no_numpy(tmp_path):
    # No verb returns an array: modeshape samples its profile in cmath.
    cfg = write_config(tmp_path, REF_SECTION + README_RUN)
    code = f"""
import sys
from barmodes import cli
for verb in ("spectrum", "stability", "sweep", "modeshape"):
    assert cli.main([verb, "--config", {cfg!r},
                     "--out", {str(tmp_path / "out.csv")!r}]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
"""
    assert run_fresh(code).strip() == "[]"
    _, _, rows = read_output(tmp_path / "out.csv")
    assert len(rows) == 201


# ----------------------------------------------------------- contract fuzzer

# A fixed seed and count: about 2.5 ms per verb run, under 2 s in all.
FUZZ_SEED, FUZZ_RUNS = 1, 500
FUZZ_EXTREMES = (0.0, 5e-324, 1e-300, 1e-15, 1e150, 1e300)


def fuzz_value(rng, low=1e-4, high=30.0):
    """Log-uniform over low..high, with one of FUZZ_EXTREMES in one draw of
    four."""
    if rng.random() < 0.25:
        return rng.choice(FUZZ_EXTREMES)
    return 10.0 ** rng.uniform(math.log10(low), math.log10(high))


def fuzz_config(rng):
    """Every key of one parameter section drawn: in about half the configs
    the nine [physical] constants over 1e-6..1e12, in the rest the five
    [dimensionless] groups.  Each [run] key drawn or left at its default,
    a count as the ceiling of a draw over 1..30 (below 1 every draw would
    be the count 1)."""
    if rng.random() < 0.5:
        lines = ["[physical]"] + [f"{key} = {fuzz_value(rng, 1e-6, 1e12)!r}"
                                  for key in cli._PHYSICAL_KEYS]
    else:
        lines = ["[dimensionless]"] + [f"{key} = {fuzz_value(rng)!r}"
                                       for key in cli._DIMLESS_KEYS]
    lines.append("[run]")
    for key, (kind, _) in cli._RUN_KEYS.items():
        if rng.random() < 0.5:
            value = (math.ceil(fuzz_value(rng, 1.0)) if kind is int
                     else repr(fuzz_value(rng)))
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def contract_run(verb, cfg, out):
    """(exit code, or the exception that escaped main; stderr; the output
    file's bytes, or None when none was written) of one --strict run."""
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main([verb, "--config", str(cfg), "--out", str(out),
                             "--strict"])
        except Exception as exc:  # the contract allows none to escape
            code = f"{type(exc).__name__}: {exc}"
    return code, err.getvalue(), out.read_bytes() if out.exists() else None


def converged_eigenvalues(verb, header, rows):
    """Per spectrum file, or per sweep row, the converged eigenvalues."""
    if verb == "spectrum":
        return [[complex(float(row[4]), float(row[5])) for row in rows
                 if row[4] != "NA"]]
    modes = (len(header) - 1) // 3
    return [[complex(float(row[1 + 2 * k]), float(row[2 + 2 * k]))
             for k in range(modes) if row[1 + 2 * modes + k] == "1"]
            for row in rows]


def contract_violations(verb, cfg, code, err, output):
    """How one run breaks the README contract, as a list of reasons."""
    if code not in (0, 2, 3):
        return [f"exit {code}"]
    if code == 2:
        errors = [line for line in err.splitlines()
                  if line.startswith(("config error:", "output error:"))]
        return [] if len(errors) == 1 else [f"exit 2 with {len(errors)} "
                                            "error lines"]
    if output is None:
        return [f"exit {code} without an output file"]
    with contextlib.redirect_stderr(io.StringIO()):
        config = cli.load_config(str(cfg))
    lines = output.decode().splitlines()
    echo = len(cli._echo_lines(config, verb))
    if lines[:echo] != cli._echo_lines(config, verb):
        return ["no echo block"]
    header, rows = lines[echo].split(","), [line.split(",")
                                             for line in lines[echo + 1:]]
    expected = {"spectrum": config.modes,
                "stability": len(config.nu_grid()),
                "sweep": len(config.nu_grid()) if config.modes else 0,
                "modeshape": config.grid_points if code == 0 else 0}[verb]
    problems = []
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, {expected} expected")
    if any(cell.lower() in ("nan", "inf", "-inf") for row in rows
           for cell in row):
        problems.append("nan or inf cell")
    if verb in ("spectrum", "sweep"):
        for values in converged_eigenvalues(verb, header, rows):
            if any(abs(a - b) <= 1e-8 * abs(a) for i, a in enumerate(values)
                   for b in values[i + 1:]):
                problems.append("two converged modes hold one eigenvalue")
                break
    return problems


def test_cli_contract_holds_on_drawn_configs(tmp_path):
    # Draws from far outside the small-dissipation box reach the closed
    # forms' degenerate and overflowing corners, which unit tests of single
    # configs found only one at a time.
    rng = random.Random(FUZZ_SEED)
    cfg, out = tmp_path / "fuzz.ini", tmp_path / "fuzz.csv"
    violations, exits = [], collections.Counter()
    for _ in range(FUZZ_RUNS):
        text, verb = fuzz_config(rng), rng.choice(sorted(cli._VERBS))
        cfg.write_text(text)
        code, err, output = contract_run(verb, cfg, out)
        exits[code] += 1
        problems = contract_violations(verb, cfg, code, err, output)
        if output is not None and contract_run(verb, cfg, out) != (
                code, err, output):
            problems.append("rerun differs")
        violations += [f"{verb}: {problem}\n{text}" for problem in problems]
    assert not violations, f"{len(violations)} violations, the first:\n" \
        + "\n".join(violations[:3])
    # Enough runs get past the config checks to test the solvers.
    assert exits[0] + exits[3] >= FUZZ_RUNS // 10, exits
