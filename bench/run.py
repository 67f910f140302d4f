"""barmodes benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload {track,spectrum,cli} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; ``barmodes`` is imported from ``src`` (every
child interpreter gets ``src`` on PYTHONPATH), so no install is needed.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a human summary and
any failures go to standard error, and a run record (machine, drawn
parameter sets, failures, all figures) goes to ``.bench_run/``.

``--trace 0`` measures the end-to-end metrics with tracing off.  Every
timing is divided by the machine slowdown measured around it with a fixed
calibration kernel (calibration.py), and the process and its children run
on one CPU; the raw timings stay in the run record.

  setup_s         median over fresh interpreters of the set-up time: import,
                  input generation and one warm-up search; for cli, import
                  barmodes.  Measured in child processes, one at a time.
  eig_per_s       eigenvalues delivered per second of the timed phase (cli:
                  eigenvalues printed by the verb processes per second).
  op_ms_p50       median wall time of one operation: a find_eigenvalue call
                  (track, spectrum) or one verb process (cli).
  eig_digits_min  min over the run of -log10(|s - s_ref| / |s_ref|) against
                  the independent reference in reference.py.
  ok_frac         share of checks that passed (1 - failed/attempted).
  peak_rss_mb     peak resident memory of the workload process (cli: of the
                  largest verb or set-up child).

``--trace 1`` runs the workload's first unit of work (reference parameters;
for cli the four analyses called in-process) alternately untraced and
traced until the time is spent, and prints the per-layer metrics: counts
from the first traced unit, times as medians over traced units.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_run"
WORKLOADS = ("track", "spectrum", "cli")
SETUP_REPEATS = 5
CHILD_TIMEOUT = 120.0
# Single-threaded numerics: the machine is shared and has few cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def time_setup(workload, seed, env, clock):
    """(seconds, first, last calibration sample) from spawning a fresh
    interpreter to its 'ready' line, for SETUP_REPEATS interpreters started
    one after another."""
    times = []
    for _ in range(SETUP_REPEATS):
        first = clock.mark()
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "probe.py"), workload, str(seed)],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, text=True)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT)
            line = proc.stdout.readline() if ready else ""
            elapsed = time.perf_counter() - start
            proc.wait(timeout=CHILD_TIMEOUT)
        finally:
            proc.stdout.close()
            stop(proc)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        clock.sample()
        times.append((elapsed, first, clock.mark()))
    return times


@contextlib.contextmanager
def timed_calls(module, attr, clock, ops):
    """Time each call of module.attr and take a calibration sample after it;
    ``ops`` receives (seconds, first, last calibration sample) per call."""
    original = getattr(module, attr)

    def timed(*args, **kwargs):
        first = clock.mark()
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            seconds = time.perf_counter() - start
            clock.sample()
            ops.append((seconds, first, clock.mark()))

    setattr(module, attr, timed)
    try:
        yield
    finally:
        setattr(module, attr, original)


def import_breakdown(env):
    """Cumulative import seconds of barmodes and scipy.optimize in a fresh
    interpreter, from -X importtime (0 when a module is not imported)."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import barmodes"],
        cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT, check=True)
    found = {"barmodes": 0.0, "scipy.optimize": 0.0}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() in found:
            found[parts[2].strip()] = int(parts[1]) / 1e6
    return found


def machine():
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpus": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform(),
            "loadavg_start": os.getloadavg()}


def make_workload(name, seed, env):
    import workloads
    if name == "cli":
        return workloads.Cli(seed, ROOT, OUT / "cli", env)
    return {"track": workloads.Track, "spectrum": workloads.Spectrum}[name](seed)


def peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_timed(args, wl, env, record):
    """Untraced run: end-to-end metrics, each timing divided by the machine
    slowdown measured around it (see calibration.py)."""
    import calibration
    import workloads

    cli = args.workload == "cli"
    clock = calibration.Clock()
    setup = time_setup(args.workload, args.seed, env, clock)
    if not cli:
        wl.warm_up()
    ops, units, unit_s = [], [], []
    searches = (contextlib.nullcontext() if cli else
                timed_calls(workloads.fundsys, "find_eigenvalue", clock, ops))
    with searches:
        start = time.perf_counter()
        while True:
            first, spent = clock.mark(), clock.spent
            t0 = time.perf_counter()
            units.append(wl.unit(len(units)))
            seconds = time.perf_counter() - t0 - (clock.spent - spent)
            clock.sample()
            unit_s.append((seconds, first, clock.mark()))
            if (time.perf_counter() - start >= args.seconds
                    and wl.complete(len(units))):
                break
    if cli:
        ops = unit_s   # one unit is one verb process
        rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
        eigenvalues = sum(wl.eigenvalue_count(u) for u in units)
    else:
        rss = peak_rss_mb(resource.RUSAGE_SELF)
        eigenvalues = sum(len(u.searches) for u in units)

    def scaled(timings):
        return [s / clock.slowdown(first, last) for s, first, last in timings]

    scorer = score(wl, units, record)
    raw_s = sum(s for s, _, _ in unit_s)
    record.update(
        eigenvalues=eigenvalues, operations=len(ops), timed_raw_s=raw_s,
        eig_per_s_raw=eigenvalues / raw_s,
        op_ms_p50_raw=1e3 * statistics.median(s for s, _, _ in ops),
        setup_raw_s=[s for s, _, _ in setup],
        unit_raw_s=[s for s, _, _ in unit_s],
        unit_slowdown=[clock.slowdown(a, b) for _, a, b in unit_s],
        slowdown_median=statistics.median(clock.samples) / calibration.NOMINAL_MS,
        calibration_ms=clock.samples)
    metrics = {
        "setup_s": (statistics.median(scaled(setup)), "s"),
        "eig_per_s": (eigenvalues / sum(scaled(unit_s)), "1/s"),
        "op_ms_p50": (1e3 * statistics.median(scaled(ops)), "ms"),
        "eig_digits_min": (min(scorer.digits, default=0.0), "digits"),
        "ok_frac": (1.0 - len(scorer.failures) / scorer.attempted, "ratio"),
        "peak_rss_mb": (rss, "MB"),
    }
    return scorer, metrics


def run_traced(args, wl, env, record):
    """Traced run: per-layer metrics and the tracing overhead."""
    import calibration
    import tracing
    import workloads

    imports = import_breakdown(env)
    cli = args.workload == "cli"
    if not cli:
        wl.warm_up()
    work = wl.in_process if cli else (lambda: wl.unit(0))
    clock = calibration.Clock()
    # Spans run on a clock that stands still while a calibration sample
    # is taken, so the samples taken after each search stay out of them.
    tracer = tracing.Tracer(
        now=lambda: time.perf_counter_ns() - round(clock.spent * 1e9))
    units, plain_s, traced_s, process_s = [], [], [], {}
    verb_runs = 0
    start = time.perf_counter()
    with timed_calls(workloads.fundsys, "find_eigenvalue", clock, []):
        while not units or time.perf_counter() - start < args.seconds:
            for _ in range(len(workloads.VERBS) if cli else 0):
                units.append(wl.unit(verb_runs))
                verb_runs += 1
                run = units[-1].verbs[0]
                process_s.setdefault(run.verb, []).append(run.seconds)
            # Alternate which half goes first; scale both by the slowdown.
            halves = [(plain_s, contextlib.nullcontext),
                      (traced_s, tracer.recording)]
            for times, context in halves[::-1 if len(plain_s) % 2 else 1]:
                first, spent = clock.mark(), clock.spent
                with context():
                    t0 = time.perf_counter()
                    units.append(work())
                    seconds = time.perf_counter() - t0 - (clock.spent - spent)
                clock.sample()
                times.append(seconds / clock.slowdown(first, clock.mark()))

    scorer = score(wl, units, record)
    metrics = tracer.layer_metrics()
    metrics["cli.import.barmodes_s"] = (imports["barmodes"], "s")
    metrics["cli.import.scipy_optimize_s"] = (imports["scipy.optimize"], "s")
    for verb in ("spectrum", "stability", "sweep", "modeshape"):
        samples = process_s.get(verb)
        metrics[f"cli.process.{verb}_s"] = (
            statistics.median(samples) if samples else 0.0, "s")
    # Same work in both halves, so the rate ratio is the time ratio.
    metrics["trace.overhead_frac"] = (
        statistics.median(plain_s) / statistics.median(traced_s) - 1.0, "ratio")
    metrics["reference.residual_max"] = (max(scorer.residuals, default=0.0), "1")
    record.update(pairs=len(traced_s), untraced_unit_s=plain_s,
                  traced_unit_s=traced_s, spans=len(tracer.name))
    tracer.write(OUT / f"trace-{args.workload}.csv.gz")
    return scorer, metrics


def score(wl, units, record):
    """Every check, run after timing and outside any trace."""
    import numpy as np
    import workloads

    scorer = workloads.Scorer()
    record["polynomial_gap"] = scorer.check_polynomials(
        np.random.default_rng(record["seed"]))
    for unit in units:
        wl.check(unit, scorer)
    record["parameter_sets"] = [asdict(u.dp) for u in units if u.dp is not None]
    record["failures"] = scorer.failures
    record["reference_residual_max"] = max(scorer.residuals, default=0.0)
    record["digits_min"] = min(scorer.digits, default=0.0)
    return scorer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "barmodes" / "__init__.py").is_file():
        print(f"benchmark: no barmodes package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # One core for this process and every child it starts (they run one at
    # a time), so the calibration kernel measures the core the work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    env = child_env()
    OUT.mkdir(exist_ok=True)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine()}
    wl = make_workload(args.workload, args.seed, env)
    run = run_traced if args.trace else run_timed
    scorer, metrics = run(args, wl, env, record)
    record["machine"]["loadavg_end"] = os.getloadavg()
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    name = f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, default=str),
                            encoding="utf-8")

    failed = len(scorer.failures)
    for failure in scorer.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{scorer.attempted} checks, {failed} failed, "
          + (f"{record['operations']} timed operations, "
             if "operations" in record else "") + "eig_digits_min "
          f"{record['digits_min']:.2f} with reference residual max "
          f"{record['reference_residual_max']:.1e}; record .bench_run/{name}",
          file=sys.stderr)
    result = {"correct": failed == 0, "attempted": scorer.attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
