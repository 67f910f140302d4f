"""Command-line front end: spectrum tables, stability maps, feedback sweeps
and mode shapes as reproducible CSV files.

Verbs: spectrum | stability | sweep | modeshape, each with
--config PATH (INI-style), --out PATH (default stdout) and --strict.
Exit codes: 0 ok, 2 config error or unwritable output path, 3 solver
non-convergence under --strict.

Every output starts with `# key = value` comment lines echoing the full
resolved parameter set, so a file re-identifies the run that made it; the
same config always produces byte-identical output.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
import types
import warnings
from dataclasses import replace

from . import asymptotic, conservative, fundsys
from .params import DimensionlessParams, PhysicalParams, to_dimensionless, validate


class ConfigError(Exception):
    """Anything wrong with the config file; mapped to exit code 2."""


# Section keys in echo order: name -> (parser, default); a key without a
# default is required.
_PHYSICAL_KEYS = dict.fromkeys(
    ("rho", "S", "E", "beta", "b", "c", "d", "m", "l"), (float, None))
_DIMLESS_KEYS = dict.fromkeys(("eps1", "mu", "nu", "eta", "delta"),
                              (float, None))
_RUN_KEYS = {
    "modes": (int, 5),
    "omega_max": (float, 20.0),
    "step": (float, fundsys.DEFAULT_STEP),
    "subintervals": (int, fundsys.DEFAULT_SUBINTERVALS),
    "nu_min": (float, 0.0),
    "nu_max": (float, 0.1),
    "nu_step": (float, 0.005),
    "grid_points": (int, 201),
    "mode": (int, 1),
}

_MAX_GRID_POINTS = 10**6  # cap on the nu grid and the mode-shape profile


class RunConfig(types.SimpleNamespace):
    """A loaded config: the `dimensionless` parameters, the `physical` ones
    (None for a [dimensionless] config; kept only for the echo) and one
    attribute per _RUN_KEYS key."""

    def solve_options(self) -> fundsys.SolveOptions:
        return fundsys.SolveOptions(step=self.step,
                                    subintervals=self.subintervals)

    def nu_grid(self) -> list[float]:
        count = int(math.floor(self._nu_steps())) + 1
        return [self.nu_min + i * self.nu_step for i in range(count)]

    def _nu_steps(self) -> float:
        """Steps of the nu grid, a float: nu_grid() has floor(this) + 1
        points, so below _MAX_GRID_POINTS it keeps within the cap."""
        return (self.nu_max - self.nu_min) / self.nu_step + 1e-9


def _parse_section(parser, name, keys) -> dict:
    """The values of section [name] (empty when absent) as `keys` declares
    them.  ConfigError for an unknown key, a missing required key, a value
    its parser rejects and a float that is not finite."""
    section = parser[name] if parser.has_section(name) else {}
    values = {key: default for key, (_, default) in keys.items()
              if default is not None}
    for key, raw in section.items():
        if key not in keys:
            raise ConfigError(f"[{name}] has unknown key '{key}'")
        kind = keys[key][0]
        try:
            values[key] = kind(raw)
        except ValueError:
            what = "a number" if kind is float else "a valid int"
            raise ConfigError(
                f"[{name}] {key} = {raw!r} is not {what}") from None
        if kind is float and not math.isfinite(values[key]):
            raise ConfigError(f"[{name}] {key} must be finite")
    for key in keys:
        if key not in values:
            raise ConfigError(f"[{name}] is missing key '{key}'")
    return values


def _run_checks(c: RunConfig):
    """(holds, message) of each [run] check in order.  A check is evaluated
    only after every earlier one held, so it may divide by step or nu_step."""
    yield c.modes >= 0, "modes must be >= 0"
    yield c.omega_max > 0, "omega_max must be positive"
    yield c.step > 0, "step must be positive"
    yield (math.isfinite(1.0 / c.step),
           "step is too small: 1/step overflows floating-point arithmetic")
    yield (c.step * c.omega_max <= fundsys.STABILITY_EDGE,
           "step * omega_max must not exceed the RK4 stability edge "
           "2*sqrt(2) = 2.83")
    yield c.subintervals >= 1, "subintervals must be >= 1"
    yield c.nu_min >= 0, "nu_min must be >= 0"
    yield c.nu_step > 0, "nu_step must be positive"
    yield c.nu_max >= c.nu_min, "nu_max must be >= nu_min"
    yield (c._nu_steps() < _MAX_GRID_POINTS,
           f"the nu grid (nu_min to nu_max by nu_step) must not exceed "
           f"{_MAX_GRID_POINTS} points")
    yield c.grid_points >= 2, "grid_points must be >= 2"
    yield (c.grid_points <= _MAX_GRID_POINTS,
           f"grid_points must not exceed {_MAX_GRID_POINTS}")
    yield c.mode >= 1, "mode must be >= 1"


def load_config(path: str) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                       interpolation=None)
    parser.optionxform = str  # keys are case-sensitive (S and E are uppercase)
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file: {exc}") from None

    # configparser merges [DEFAULT] into every section; reject it as the
    # section it is rather than as unknown keys of the others.
    if parser.defaults():
        raise ConfigError(f"unknown section [{parser.default_section}]")
    for name in parser.sections():
        if name not in ("physical", "dimensionless", "run"):
            raise ConfigError(f"unknown section [{name}]")

    has_phys = parser.has_section("physical")
    if has_phys == parser.has_section("dimensionless"):
        raise ConfigError(
            "exactly one of [physical] or [dimensionless] must be present")

    physical = None
    if has_phys:
        values = _parse_section(parser, "physical", _PHYSICAL_KEYS)
        try:
            physical = PhysicalParams(**values)
        except ValueError as exc:
            raise ConfigError(f"[physical] {exc}") from None
        dp = to_dimensionless(physical)
    else:
        dp = DimensionlessParams(
            **_parse_section(parser, "dimensionless", _DIMLESS_KEYS))

    # validate warns outside the small-dissipation regime; the CLI reports
    # that as a one-line warning of its own, not in Python's warning format.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        violations = validate(dp)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    if violations:
        raise ConfigError("invalid parameters: " + "; ".join(violations))

    config = RunConfig(dimensionless=dp, physical=physical,
                       **_parse_section(parser, "run", _RUN_KEYS))
    for holds, message in _run_checks(config):
        if not holds:
            raise ConfigError(f"[run] {message}")
    return config


def _fmt(value) -> str:
    """A CSV cell: %.12g, with NaN as the missing value NA."""
    if math.isnan(value):
        return "NA"
    if value == 0.0:
        value = 0.0  # keep -0.0 from printing as "-0"
    return "%.12g" % value


def _echo_lines(config: RunConfig, analysis: str) -> list[str]:
    pairs = [("analysis", analysis),
             ("params", "physical" if config.physical else "dimensionless")]
    if config.physical:
        pairs += [(k, _fmt(getattr(config.physical, k))) for k in _PHYSICAL_KEYS]
    dp = config.dimensionless
    pairs += [(k, _fmt(getattr(dp, k))) for k in _DIMLESS_KEYS]
    pairs += [(k, (str if kind is int else _fmt)(getattr(config, k)))
              for k, (kind, _) in _RUN_KEYS.items()]
    return [f"# {key} = {value}" for key, value in pairs]


def _conservative_roots(config, count):
    """The first `count` undamped frequencies; ConfigError when omega_max
    holds fewer."""
    if count == 0:
        return []
    roots = conservative.find_roots(config.dimensionless, config.omega_max,
                                    max_count=count)
    if len(roots) < count:
        raise ConfigError(f"mode {count} has no conservative frequency "
                          f"below omega_max = {_fmt(config.omega_max)}")
    return roots


def run_spectrum(config: RunConfig):
    """Rows (index, omega_conservative, q/omega asymptotic, q/omega numeric,
    delta_hat) for the first `modes` modes; numeric cells NA when the direct
    search fails to converge."""
    dp = config.dimensionless
    opts = config.solve_options()
    header = ("index,omega_conservative,q_asymptotic,omega_asymptotic,"
              "q_numeric,omega_numeric,delta_hat")
    rows, all_converged = [], True
    for root in _conservative_roots(config, config.modes):
        ev = asymptotic.corrected_eigenvalue(root.omega, dp)
        seed = fundsys.SpectralPoint(q=ev.q, omega=root.omega)
        point = fundsys.find_eigenvalue(dp, seed, opts)
        if point.converged:
            q_num, omega_num = _fmt(point.q), _fmt(point.omega)
        else:
            q_num, omega_num = "NA", "NA"
            all_converged = False
        rows.append(",".join([str(root.index), _fmt(root.omega), _fmt(ev.q),
                              _fmt(ev.omega), q_num, omega_num,
                              _fmt(point.delta_value)]))
    return header, rows, all_converged


def run_stability(config: RunConfig):
    """The stability map over the nu grid: closed-form boundary frequency
    (NA when none exists), critical feedback per mode ("never-excited" when
    the mode cannot be driven unstable), and 0/1 excitation flags."""
    dp = config.dimensionless
    roots = _conservative_roots(config, config.modes)

    crit_cells = []
    for root in roots:
        try:
            nu_crit = asymptotic.critical_feedback(root.omega, dp)
        except ZeroDivisionError:
            crit_cells.append("NA")
            continue
        crit_cells.append("never-excited" if nu_crit is None else _fmt(nu_crit))

    header = "nu,omega_boundary" \
        + "".join(f",nu_crit_{r.index}" for r in roots) \
        + "".join(f",excited_{r.index}" for r in roots)
    rows = []
    for nu in config.nu_grid():
        at_nu = replace(dp, nu=nu)
        wb = asymptotic.boundary_frequency(nu, dp)
        flags = ["1" if asymptotic.excitation_indicator(r.omega, at_nu).excited
                 else "0" for r in roots]
        cells = [_fmt(nu), "NA" if wb is None else _fmt(wb)]
        rows.append(",".join(cells + crit_cells + flags))
    return header, rows, True


def run_sweep(config: RunConfig):
    """Wide rows (nu, q_k, omega_k ..., converged_k ...) tracking the first
    `modes` eigenvalues across the nu grid; q_k and omega_k are NA where
    the search could not evaluate even its seed."""
    modes = tuple(range(1, config.modes + 1))
    _conservative_roots(config, config.modes)  # the shortfall check
    header = "nu" \
        + "".join(f",q_{k},omega_{k}" for k in modes) \
        + "".join(f",converged_{k}" for k in modes)
    if not modes:
        return header, [], True
    sweep = fundsys.sweep_feedback(config.dimensionless, config.nu_grid(),
                                   modes=modes, omega_max=config.omega_max,
                                   options=config.solve_options())

    rows, all_converged = [], True
    for i in range(0, len(sweep), len(modes)):
        group = sweep[i:i + len(modes)]
        cells = [_fmt(group[0].nu)]
        for row in group:
            cells += (["NA", "NA"] if math.isnan(row.delta_value)
                      else [_fmt(row.q), _fmt(row.omega)])
        for row in group:
            cells.append("1" if row.converged else "0")
            all_converged &= row.converged
        rows.append(",".join(cells))
    return header, rows, all_converged


def run_modeshape(config: RunConfig):
    """Normalized displacement profile (xbar, u1, u2) of the configured mode
    at the configured parameters."""
    dp = config.dimensionless
    opts = config.solve_options()
    w0 = _conservative_roots(config, config.mode)[-1].omega
    ev = asymptotic.corrected_eigenvalue(w0, dp)
    point = fundsys.find_eigenvalue(dp, fundsys.SpectralPoint(q=ev.q, omega=w0),
                                    opts)
    header = "xbar,u1,u2"
    if not point.converged:
        return header, [], False
    shape = fundsys.mode_shape(point, dp, resolution=config.grid_points,
                               options=opts)
    rows = [",".join([_fmt(x), _fmt(u1), _fmt(u2)])
            for x, u1, u2 in zip(shape.grid, shape.u1, shape.u2)]
    return header, rows, True


# verb -> (analysis, help text)
_VERBS = {
    "spectrum": (run_spectrum,
                 "first modes via conservative, asymptotic and direct search"),
    "stability": (run_stability,
                  "boundary frequency, critical feedback and excitation map"),
    "sweep": (run_sweep, "eigenvalue branches across the feedback grid"),
    "modeshape": (run_modeshape,
                  "normalized displacement profile of one mode"),
}


def _write_output(path, lines):
    text = "".join(line + "\n" for line in lines)
    if path == "-":
        sys.stdout.write(text)
    else:
        # newline="" keeps the line endings LF on every platform
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="barmodes",
        description="Eigenvalue analyses of a damped bar with an end mass "
                    "under velocity feedback; results as CSV.")
    sub = parser.add_subparsers(dest="analysis", required=True)
    for name, (_, text) in _VERBS.items():
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True, metavar="PATH",
                         help="INI config file")
        cmd.add_argument("--out", default="-", metavar="PATH",
                         help="output CSV path (default: stdout)")
        cmd.add_argument("--strict", action="store_true",
                         help="exit 3 if any eigenvalue search fails to converge")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        header, rows, all_converged = _VERBS[args.analysis][0](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        # Finite but extreme parameters (say eta = 1e200) leave the float
        # range in the closed forms.
        print(f"config error: the parameters overflow floating-point "
              f"arithmetic ({exc.args[-1]})", file=sys.stderr)
        return 2
    try:
        _write_output(args.out,
                      _echo_lines(config, args.analysis) + [header] + rows)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    if not all_converged:
        print("warning: at least one eigenvalue search did not converge",
              file=sys.stderr)
        if args.strict:
            return 3
    return 0
