"""Command-line front end: spectrum tables, stability maps, feedback sweeps
and mode shapes as reproducible CSV files.

One verb (spectrum | stability | sweep | modeshape; `barmodes -h` says
what each writes) and the options --config PATH (INI-style), --out PATH
(default stdout) and --strict, in any order.
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
from dataclasses import fields, replace

from . import asymptotic, conservative
from .params import (
    DEFAULT_OMEGA_MAX,
    DEFAULT_RESOLUTION,
    DEFAULT_STEP,
    DEFAULT_SUBINTERVALS,
    DimensionlessParams,
    PhysicalParams,
    to_dimensionless,
    validate,
)


class ConfigError(Exception):
    """Anything wrong with the config file; mapped to exit code 2."""


# Section keys in echo order: name -> (parser, default); a key without a
# default is required.
_PHYSICAL_KEYS = {name: (float, None) for name in PhysicalParams._fields}
_DIMLESS_KEYS = {f.name: (float, None) for f in fields(DimensionlessParams)}
_RUN_KEYS = {
    "modes": (int, 5),
    "omega_max": (float, DEFAULT_OMEGA_MAX),
    "step": (float, DEFAULT_STEP),
    "subintervals": (int, DEFAULT_SUBINTERVALS),
    "nu_min": (float, 0.0),
    "nu_max": (float, 0.1),
    "nu_step": (float, 0.005),
    "grid_points": (int, DEFAULT_RESOLUTION),
    "mode": (int, 1),
}

_MAX_GRID_POINTS = 10**6  # cap on the nu grid, the profile and a mode count


class RunConfig(types.SimpleNamespace):
    """A loaded config: the `dimensionless` parameters, the `physical` ones
    (None for a [dimensionless] config; kept only for the echo) and one
    attribute per _RUN_KEYS key."""

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
    except (OSError, UnicodeDecodeError) as exc:
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
            dp = to_dimensionless(physical)
        except ValueError as exc:
            raise ConfigError(f"[physical] {exc}") from None
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
    """A CSV cell: %.12g, with a non-finite value (NaN, +-inf) as the
    missing value NA."""
    if not math.isfinite(value):
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
    holds fewer.  Root k lies above (k - 3/2)*pi (see conservative), so a
    count above omega_max/pi + 2, which keeps half a branch of slack for
    rounding, is a shortfall found without walking the branches.  A count
    below that bound but above _MAX_GRID_POINTS is a ConfigError too, also
    raised before any branch is walked."""
    roots = []
    if count <= config.omega_max / math.pi + 2.0:
        if count > _MAX_GRID_POINTS:
            raise ConfigError(f"[run] mode {count} exceeds the cap of "
                              f"{_MAX_GRID_POINTS} modes")
        roots = conservative.find_roots(config.dimensionless,
                                        config.omega_max, max_count=count)
    if len(roots) < count:
        raise ConfigError(f"mode {count} has no conservative frequency "
                          f"below omega_max = {_fmt(config.omega_max)}")
    return roots


def _search(config: RunConfig, nu_values, modes: range):
    """(roots, rows): the first len(modes) undamped frequencies (ConfigError
    when omega_max holds fewer) and fundsys.sweep_feedback's rows for
    `modes` over `nu_values` at the configured omega_max (none for no
    modes); the searches solve the continuous system and read neither step
    nor subintervals.  Every eigenvalue search of every verb runs here.
    `modes` is a range from 1, so a huge count costs nothing before the
    shortfall check."""
    # fundsys is imported only where a verb searches, so that stability,
    # the closed forms alone, never compiles it.
    from . import fundsys
    roots = _conservative_roots(config, len(modes))
    return roots, fundsys.sweep_feedback(config.dimensionless, nu_values,
                                         modes, omega_max=config.omega_max)


def run_spectrum(config: RunConfig):
    """Rows (index, omega_conservative, q/omega asymptotic, q/omega numeric,
    delta_hat) for the first `modes` modes.  The searches are a one-point
    sweep at the configured nu; numeric cells are NA when a search did not
    converge (a second mode landing on an earlier mode's eigenvalue counts
    as unconverged), asymptotic cells NA where the closed form degenerates."""
    dp = config.dimensionless
    roots, sweep = _search(config, [dp.nu], range(1, config.modes + 1))
    header = ("index,omega_conservative,q_asymptotic,omega_asymptotic,"
              "q_numeric,omega_numeric,delta_hat")
    rows, all_converged = [], True
    for root, row in zip(roots, sweep):
        try:
            ev = asymptotic.corrected_eigenvalue(root.omega, dp)
            asym = [_fmt(ev.q), _fmt(ev.omega)]
        except ZeroDivisionError:
            asym = ["NA", "NA"]
        numeric = ([_fmt(row.q), _fmt(row.omega)] if row.converged
                   else ["NA", "NA"])
        all_converged &= row.converged
        rows.append(",".join([str(root.index), _fmt(root.omega)] + asym
                             + numeric + [_fmt(row.delta_value)]))
    return header, rows, all_converged


def run_stability(config: RunConfig):
    """The stability map over the nu grid: closed-form boundary frequency
    (NA when none exists), critical feedback per mode ("never-excited" when
    the mode cannot be driven unstable), and 0/1 excitation flags (NA where
    the excitation condition degenerates)."""
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
        flags = [_excitation_flag(r.omega, at_nu) for r in roots]
        cells = [_fmt(nu), "NA" if wb is None else _fmt(wb)]
        rows.append(",".join(cells + crit_cells + flags))
    return header, rows, True


def _excitation_flag(omega, dp) -> str:
    try:
        excited = asymptotic.excitation_indicator(omega, dp).excited
    except ZeroDivisionError:
        return "NA"
    return "1" if excited else "0"


def run_sweep(config: RunConfig):
    """Wide rows (nu, q_k, omega_k ..., converged_k ...) tracking the first
    `modes` eigenvalues across the nu grid; q_k and omega_k are NA where
    the search could not evaluate even its seed."""
    modes = range(1, config.modes + 1)
    _, sweep = _search(config, config.nu_grid(), modes)
    header = "nu" \
        + "".join(f",q_{k},omega_{k}" for k in modes) \
        + "".join(f",converged_{k}" for k in modes)
    if not modes:
        return header, [], True

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
    at the configured parameters: fundsys.mode_shape's samples, taken
    without loading numpy, of the eigenvalue that a one-point sweep of
    modes 1 to that mode at the configured nu found.  The earlier modes
    are searched so that the duplicate guard sees them: a mode landing on
    an earlier mode's eigenvalue is unconverged and has no profile.  The
    profile, like the search, is of the continuous system: step and
    subintervals set nothing here."""
    dp = config.dimensionless
    _, sweep = _search(config, [dp.nu], range(1, config.mode + 1))
    row = sweep[-1]
    header = "xbar,u1,u2"
    if not row.converged:
        return header, [], False
    from . import fundsys
    grid, profile = fundsys._mode_profile(row, dp, config.grid_points)
    rows = [",".join([_fmt(x), _fmt(u.real), _fmt(u.imag)])
            for x, u in zip(grid, profile)]
    return header, rows, True


_VERBS = {"spectrum": run_spectrum, "stability": run_stability,
          "sweep": run_sweep, "modeshape": run_modeshape}


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
        prog="barmodes", formatter_class=argparse.RawDescriptionHelpFormatter,
        description="""\
Eigenvalue analyses of a damped bar with an end mass under velocity
feedback; results as CSV.

analyses:
  spectrum   first modes via conservative, asymptotic and direct search
  stability  boundary frequency, critical feedback and excitation map
  sweep      eigenvalue branches across the feedback grid
  modeshape  normalized displacement profile of one mode""")
    parser.add_argument("analysis", choices=_VERBS, help="analysis to run")
    parser.add_argument("--config", required=True, metavar="PATH",
                        help="INI config file")
    parser.add_argument("--out", default="-", metavar="PATH",
                        help="output CSV path (default: stdout)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 3 if any eigenvalue search fails to converge")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        header, rows, all_converged = _VERBS[args.analysis](config)
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
