import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from barmodes import cli, fundsys

REF_SECTION = """\
[dimensionless]
eps1 = 0.005
mu = 0.008
nu = 0.05
eta = 7
delta = 0.1
"""

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

# The [run] section of the README configuration.
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

# Coarse numerics so the CLI suite stays fast; accuracy at production
# settings is covered by the acceptance tests.
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


@pytest.mark.parametrize("step, omega_max", [(0.2, 20), (0.15, 20),
                                              (0.3, 10)])
def test_step_beyond_rk4_stability_edge_exits_2(tmp_path, capsys, step,
                                                 omega_max):
    # RK4 amplifies the undamped modes once h*omega exceeds 2*sqrt(2);
    # 0.2 * 20 = 4 was accepted and reported wrong eigenvalues as converged.
    code, out = run_cli(tmp_path, "spectrum", REF_SECTION,
                        f"[run]\nmodes = 2\nstep = {step}\n"
                        f"omega_max = {omega_max}\n", strict=True)
    assert code == 2
    assert "stability edge" in capsys.readouterr().err
    assert not out.exists()


def test_step_at_rk4_stability_edge_is_accepted(tmp_path):
    # 0.14 * 20 = 2.8 lies just inside the edge.
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

def unconverged_stub(dp, seed, options=None):
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


def test_verbs_without_arrays_load_no_numpy(tmp_path):
    # spectrum, stability and sweep need no array; modeshape returns one.
    cfg = write_config(tmp_path, REF_SECTION + README_RUN)
    code = f"""
import sys
from barmodes import cli
for verb in ("spectrum", "stability", "sweep"):
    assert cli.main([verb, "--config", {cfg!r},
                     "--out", {str(tmp_path / "out.csv")!r}]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
assert cli.main(["modeshape", "--config", {cfg!r},
                 "--out", {str(tmp_path / "shape.csv")!r}]) == 0
assert "numpy" in sys.modules
"""
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    _, _, rows = read_output(tmp_path / "shape.csv")
    assert len(rows) == 201
