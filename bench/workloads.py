"""The benchmark's workloads: seeded inputs, one unit of work, and checks.

Every workload is a closed loop with one caller: a unit of work starts only
when the previous one has returned, as in a batch scientific run.

track     The production nu sweep 0(0.005)0.1 x modes 1-2, then bisection
          of the mode-1 growth-rate zero to 2e-4 (acceptance criterion 4).
          Every search is warm-started one nu step from its answer, so the
          time goes to find_eigenvalue -> delta_subdivided ->
          integrate_fundamental; start-up and the closed forms do not show.
spectrum  find_roots to omega_max = 20 (about 7 modes), asymptotic seeds and
          a cold search per mode, then the 201-point shape of mode 1.  Cold
          seeds and modes up to omega ~ 18, where the RK4 error is largest,
          make accuracy loss show here first; mode_shape drives the
          propagator over 200 short intervals instead of 8 long ones.
cli       The four verbs, each a fresh ``python -m barmodes`` process on the
          README reference config (modes = 2, sweep on 3 nu points), so
          interpreter start-up, imports and config handling show here.

The library workloads take their parameter sets from
:func:`parameter_sets`: the reference set first, then sets drawn from the
seed in the small-dissipation box.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from barmodes import asymptotic, cli, conservative, fundsys
from barmodes.params import DimensionlessParams

import reference

REFERENCE_PARAMS = DimensionlessParams(eps1=0.005, mu=0.008, nu=0.05,
                                       eta=7.0, delta=0.1)
BOX = (("eps1", 0.0, 0.02), ("mu", 0.0, 0.02), ("nu", 0.0, 0.1),
       ("eta", 0.5, 10.0), ("delta", 0.02, 0.5))
DRAWS = 64

NU_GRID = [i * 0.005 for i in range(21)]
BISECT_WIDTH = 2e-4
OMEGA_MAX = 20.0
SHAPE_POINTS = 201
RECOVERY_TOL = 1e-6   # criterion 8: a search must land this close
NU_STAR_TOL = 1e-3    # criterion 4: numeric vs closed-form critical feedback
CHILD_TIMEOUT = 120.0


def draw_params(rng) -> DimensionlessParams:
    return DimensionlessParams(**{name: float(rng.uniform(lo, hi))
                                  for name, lo, hi in BOX})


def parameter_sets(seed: int) -> list[DimensionlessParams]:
    """The reference set followed by DRAWS sets drawn from the seed."""
    rng = np.random.default_rng(seed)
    return [REFERENCE_PARAMS] + [draw_params(rng) for _ in range(DRAWS)]


@dataclass
class Search:
    dp: DimensionlessParams
    mode: int
    s: complex
    converged: bool


@dataclass
class Unit:
    dp: DimensionlessParams | None
    searches: list = field(default_factory=list)
    nu_star: float | None = None       # track: bisected growth-rate zero
    roots: int = 0                     # spectrum: conservative root count
    shape: object = None               # spectrum: mode shape of mode 1
    error: str = ""                    # spectrum: why the shape is missing
    # cli: VerbRun records, or (verb, rows, converged) for in-process calls
    verbs: list = field(default_factory=list)


@dataclass
class VerbRun:
    verb: str
    returncode: int
    seconds: float
    csv: bytes


class Scorer:
    """Counts checks and failures and scores eigenvalues against the
    independent reference; failures are kept with their reasons."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.digits = []
        self.residuals = []
        self._roots = {}

    def roots(self, dp):
        # Undamped roots depend on eta and delta only.
        key = (dp.eta, dp.delta)
        if key not in self._roots:
            self._roots[key] = [r.omega for r in
                                conservative.find_roots(dp, OMEGA_MAX)]
        return self._roots[key]

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def search(self, search: Search):
        """Converged, and within RECOVERY_TOL of the reference root of f."""
        self.attempted += 1
        omegas = self.roots(search.dp)
        problem = ""
        if search.mode > len(omegas):
            problem = "no conservative frequency for this mode"
        else:
            w0 = omegas[search.mode - 1]
            try:
                q0 = asymptotic.corrected_eigenvalue(w0, search.dp).q
                ref = reference.find_reference(w0, q0, search.dp)
            except (reference.ReferenceError, ZeroDivisionError) as exc:
                problem = f"reference: {exc}"
            else:
                self.residuals.append(ref.residual)
                self.digits.append(reference.digits(search.s, ref.s))
                err = abs(search.s - ref.s)
                if not search.converged:
                    problem = "not converged"
                elif not err <= RECOVERY_TOL:
                    problem = f"|s - s_ref| = {err:.2e}"
        if problem:
            self.failures.append(
                f"mode {search.mode} at {asdict(search.dp)}: {problem}")

    def check_polynomials(self, rng):
        gap = reference.check_boundary_polynomials(fundsys, draw_params, rng)
        self.check(gap <= 1e-12,
                   f"reference D1..D4 differ from fundsys by {gap:.2e}")
        return gap


def _asymptotic_seed(dp, omega):
    return fundsys.SpectralPoint(
        q=asymptotic.corrected_eigenvalue(omega, dp).q, omega=omega)


class _Library:
    """A workload that calls the library in this process."""

    def __init__(self, seed):
        self.params = parameter_sets(seed)
        self.options = fundsys.SolveOptions()

    def complete(self, n):
        """Whether n units can end a timed run."""
        return n >= 1

    def warm_up(self):
        """One production search on the reference set's first mode."""
        dp = self.params[0]
        w1 = conservative.find_roots(dp, OMEGA_MAX, max_count=1)[0].omega
        fundsys.find_eigenvalue(dp, _asymptotic_seed(dp, w1), self.options)


class Track(_Library):
    """Even units use the reference set and odd units the drawn sets in
    turn: a run holds only four or five units, and this keeps its input
    mix alike from seed to seed."""

    name = "track"

    def unit(self, i) -> Unit:
        dp = self.params[(i + 1) // 2 % len(self.params) if i % 2 else 0]
        rows = fundsys.sweep_feedback(dp, NU_GRID, modes=(1, 2),
                                      omega_max=OMEGA_MAX, options=self.options)
        unit = Unit(dp, [Search(replace(dp, nu=r.nu), r.mode,
                                complex(r.q, r.omega), r.converged)
                         for r in rows])
        branch = [r for r in rows if r.mode == 1]
        bracket = next(((a, b) for a, b in zip(branch, branch[1:])
                        if a.q < 0.0 <= b.q), None)
        if bracket is None:
            return unit
        lo, hi = bracket
        lo_nu, hi_nu, lo_s = lo.nu, hi.nu, complex(lo.q, lo.omega)
        while hi_nu - lo_nu > BISECT_WIDTH:
            mid = 0.5 * (lo_nu + hi_nu)
            at = replace(dp, nu=mid)
            point = fundsys.find_eigenvalue(
                at, fundsys.SpectralPoint(q=lo_s.real, omega=lo_s.imag),
                self.options)
            unit.searches.append(Search(at, 1, complex(point.q, point.omega),
                                        point.converged))
            if point.q >= 0.0:
                hi_nu = mid
            else:
                lo_nu, lo_s = mid, complex(point.q, point.omega)
        unit.nu_star = 0.5 * (lo_nu + hi_nu)
        return unit

    def check(self, unit: Unit, scorer: Scorer):
        for search in unit.searches:
            scorer.search(search)
        w1 = scorer.roots(unit.dp)[0]
        try:
            nu_crit = asymptotic.critical_feedback(w1, unit.dp)
        except ZeroDivisionError:
            nu_crit = None   # feedback has no influence on mode 1
        if unit.nu_star is not None:
            ok = nu_crit is not None and abs(unit.nu_star - nu_crit) < NU_STAR_TOL
        else:
            # No crossing on the grid: the closed form must not put one
            # clearly inside it either.
            ok = nu_crit is None or not (
                NU_GRID[0] + NU_STAR_TOL < nu_crit < NU_GRID[-1] - NU_STAR_TOL)
        scorer.check(ok, f"nu* = {unit.nu_star} but closed-form critical "
                         f"feedback {nu_crit} at {asdict(unit.dp)}")


class Spectrum(_Library):
    name = "spectrum"

    def unit(self, i) -> Unit:
        dp = self.params[i % len(self.params)]
        roots = conservative.find_roots(dp, OMEGA_MAX)
        unit = Unit(dp, roots=len(roots))
        points = []
        for root in roots:
            point = fundsys.find_eigenvalue(
                dp, _asymptotic_seed(dp, root.omega), self.options)
            points.append(point)
            unit.searches.append(Search(dp, root.index,
                                        complex(point.q, point.omega),
                                        point.converged))
        try:
            unit.shape = fundsys.mode_shape(points[0], dp,
                                            resolution=SHAPE_POINTS)
        except (IndexError, ValueError, np.linalg.LinAlgError) as exc:
            unit.error = f"{type(exc).__name__}: {exc}"
        return unit

    def check(self, unit: Unit, scorer: Scorer):
        for search in unit.searches:
            scorer.search(search)
        found = sorted((s.s for s in unit.searches if s.converged),
                       key=lambda z: z.imag)
        distinct = sum(1 for i, z in enumerate(found)
                       if i == 0 or abs(z - found[i - 1]) > RECOVERY_TOL)
        scorer.check(distinct == unit.roots,
                     f"{distinct} distinct eigenvalues for {unit.roots} "
                     f"conservative frequencies at {asdict(unit.dp)}")
        shape = unit.shape
        ok = shape is not None and len(shape.grid) == SHAPE_POINTS
        if ok:
            u = shape.u1 + 1j * shape.u2
            ok = (bool(np.all(np.isfinite(u))) and abs(u[0]) < 1e-9
                  and abs(float(np.max(np.abs(u))) - 1.0) < 1e-12)
        scorer.check(ok, f"mode-1 shape unusable ({unit.error or 'bad values'})"
                         f" at {asdict(unit.dp)}")


CLI_CONFIG = """\
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
nu_step = {nu_step}
grid_points = 201
mode = 1
"""
VERBS = ("spectrum", "stability", "sweep", "modeshape")
ECHO_KEYS = ("analysis", "params", "eps1", "mu", "nu", "eta", "delta", "modes",
             "omega_max", "step", "subintervals", "nu_min", "nu_max",
             "nu_step", "grid_points", "mode")
DATA_ROWS = {"spectrum": 2, "stability": 21, "sweep": 3, "modeshape": 201}


class Cli:
    """Verb processes on the reference config.  Unit i is one verb; each
    run of four units is a cycle with every verb once, in an order drawn
    from the seed."""

    name = "cli"

    def __init__(self, seed, root: Path, workdir: Path, env):
        self.rng = np.random.default_rng(seed)
        self.root, self.env = root, env
        workdir.mkdir(parents=True, exist_ok=True)
        self.configs, self.outputs = {}, {}
        for verb in VERBS:
            path = workdir / f"{verb}.ini"
            path.write_text(CLI_CONFIG.format(
                nu_step=0.05 if verb == "sweep" else 0.005), encoding="utf-8")
            self.configs[verb] = str(path)
            self.outputs[verb] = workdir / f"{verb}.csv"
        self.first = {}
        self.order = VERBS

    def complete(self, n):
        """Whole cycles only, and at least two, so every verb is rerun."""
        return n >= 2 * len(VERBS) and n % len(VERBS) == 0

    def unit(self, i) -> Unit:
        """One verb as its own interpreter."""
        if i % len(VERBS) == 0:
            self.order = [VERBS[k] for k in self.rng.permutation(len(VERBS))]
        verb = self.order[i % len(VERBS)]
        out = self.outputs[verb]
        out.unlink(missing_ok=True)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "barmodes", verb,
             "--config", self.configs[verb], "--out", str(out)],
            cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT)
        seconds = time.perf_counter() - start
        csv = out.read_bytes() if out.exists() else b""
        return Unit(None, verbs=[VerbRun(verb, proc.returncode, seconds, csv)])

    def in_process(self) -> Unit:
        """The same four analyses called in this process (traced runs)."""
        unit = Unit(None)
        for verb in VERBS:
            config = cli.load_config(self.configs[verb])
            _, rows, all_converged = getattr(cli, f"run_{verb}")(config)
            unit.verbs.append((verb, len(rows), all_converged))
        return unit

    def check(self, unit: Unit, scorer: Scorer):
        for run in unit.verbs:
            if isinstance(run, tuple):
                verb, rows, all_converged = run
                scorer.check(all_converged and rows == DATA_ROWS[verb],
                             f"in-process {verb}: {rows} rows, "
                             f"converged={all_converged}")
                continue
            self.first.setdefault(run.verb, run.csv)
            problems = []
            if run.returncode != 0:
                problems.append(f"exit code {run.returncode}")
            if run.csv != self.first[run.verb]:
                problems.append("CSV differs from the first run")
            echo, table = _split_csv(run.csv)
            if echo.get("analysis") != run.verb or set(ECHO_KEYS) - echo.keys():
                problems.append("'# key = value' echo incomplete")
            if len(table) != DATA_ROWS[run.verb] + 1:
                problems.append(f"{len(table) - 1} data rows")
            scorer.check(not problems, f"{run.verb}: {', '.join(problems)}")
            for search in _csv_eigenvalues(run.verb, table):
                scorer.search(search)

    @staticmethod
    def eigenvalue_count(unit: Unit) -> int:
        return sum(len(_csv_eigenvalues(r.verb, _split_csv(r.csv)[1]))
                   for r in unit.verbs)


def _split_csv(data: bytes):
    echo, table = {}, []
    for line in data.decode("utf-8", "replace").splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            echo[key.strip()] = value.strip()
        else:
            table.append(line.split(","))
    return echo, table


def _cell(text):
    return math.nan if text == "NA" else float(text)


def _csv_eigenvalues(verb, table) -> list[Search]:
    """Numeric eigenvalues printed by the spectrum and sweep verbs."""
    if not table or verb not in ("spectrum", "sweep"):
        return []
    header, found = table[0], []
    for row in table[1:]:
        cells = dict(zip(header, row))
        try:
            if verb == "spectrum":
                s = complex(_cell(cells["q_numeric"]), _cell(cells["omega_numeric"]))
                found.append(Search(REFERENCE_PARAMS, int(cells["index"]), s,
                                    math.isfinite(s.real)))
            else:
                dp = replace(REFERENCE_PARAMS, nu=float(cells["nu"]))
                for k in (1, 2):
                    s = complex(_cell(cells[f"q_{k}"]), _cell(cells[f"omega_{k}"]))
                    found.append(Search(dp, k, s, cells[f"converged_{k}"] == "1"))
        except (KeyError, ValueError):
            found.append(Search(REFERENCE_PARAMS, 1, complex(math.nan, math.nan),
                                False))
    return found
