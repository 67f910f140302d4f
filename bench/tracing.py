"""Spans around the public functions of barmodes, recorded from outside.

A :class:`Tracer` replaces module attributes (``fundsys.find_eigenvalue``
and so on) with timing wrappers while it records.  Modules call each other
through those attributes (``fundsys`` looks up ``delta_subdivided`` as a
module global, ``cli`` calls ``fundsys.find_eigenvalue``), so calls made
inside the package are seen too.  Each span stores its name, start, end,
parent span and the id of the search it belongs to (the span id of the
enclosing ``find_eigenvalue`` call), in compact arrays kept in memory and
written out only at the end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import statistics
import time
from array import array

import numpy as np

from barmodes import asymptotic, cli, conservative, fundsys

SEARCH = "fundsys.find_eigenvalue"

# (module, attribute, per-call unit): the layer boundaries that get spans.
TARGETS = (
    (fundsys, "find_eigenvalue", "ms"),
    (fundsys, "delta_subdivided", "us"),
    (fundsys, "integrate_fundamental", "us"),
    (fundsys, "rhs_coefficients", "us"),
    (fundsys, "boundary_coefficients", "us"),
    (fundsys, "mode_shape", "ms"),
    (fundsys, "sweep_feedback", "ms"),
    (conservative, "find_roots", "ms"),
    (asymptotic, "corrected_eigenvalue", "us"),
    (asymptotic, "critical_feedback", "us"),
    (asymptotic, "boundary_frequency", "us"),
    (asymptotic, "excitation_indicator", "us"),
    (cli, "load_config", "ms"),
    (cli, "run_spectrum", "ms"),
    (cli, "run_stability", "ms"),
    (cli, "run_sweep", "ms"),
    (cli, "run_modeshape", "ms"),
)
RAISING = ("fundsys.delta_subdivided", "fundsys.integrate_fundamental")


def label(module, attr):
    return f"{module.__name__.rpartition('.')[2]}.{attr}"


class Tracer:
    """Records spans at every layer boundary in TARGETS.

    ``now`` is the span clock in ns; a caller that pauses work (to take a
    calibration sample) passes a clock that stands still while it does.
    """

    def __init__(self, now=time.perf_counter_ns):
        self._now = now
        self.targets = TARGETS
        self.labels = [label(m, a) for m, a, _ in TARGETS]
        self.name = array("i")
        self.parent = array("i")
        self.search = array("i")
        self.start = array("q")
        self.end = array("q")
        self.raised = array("b")
        self.searches = []     # (span id, seed, result) of each search
        self.reps = []         # (first span, end span) of each recording
        self._stack = [-1]
        self._search = -1

    @contextlib.contextmanager
    def recording(self):
        """Install the wrappers for the duration of the block."""
        saved = []
        first = len(self.name)
        try:
            for index, (module, attr, _) in enumerate(self.targets):
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, index,
                                                 self.labels[index] == SEARCH))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self.reps.append((first, len(self.name)))

    def _wrap(self, fn, index, is_search):
        name, parent, search = self.name, self.parent, self.search
        start, end, raised, stack = self.start, self.end, self.raised, self._stack
        clock = self._now
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(name)
            name.append(index)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            raised.append(0)
            outer = tracer._search
            if is_search:
                tracer._search = sid
            search.append(tracer._search)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[sid] = 1
                raise
            finally:
                end[sid] = clock()
                start[sid] = t0
                stack.pop()
                tracer._search = outer
            if is_search:
                seed = kwargs["seed"] if "seed" in kwargs else args[1]
                tracer.searches.append((sid, seed, result))
            return result

        return traced

    def layer_metrics(self):
        """Per-layer metrics: counts from the first recording, times as the
        median over recordings, all per recording (one unit of work)."""
        n = len(self.name)
        names = np.frombuffer(self.name, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        searches = np.frombuffer(self.search, dtype=np.int32)
        raised = np.frombuffer(self.raised, dtype=np.int8)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)) / 1e9
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent],
                            minlength=n)
        own = dur - child

        metrics = {}
        first, stop = self.reps[0] if self.reps else (0, 0)
        for index, (_, _, unit) in enumerate(self.targets):
            key = self.labels[index]
            calls = int(np.count_nonzero(names[first:stop] == index))
            busy, self_s = [], []
            for a, b in self.reps:
                mask = names[a:b] == index
                busy.append(float(dur[a:b][mask].sum()))
                self_s.append(float(own[a:b][mask].sum()))
            busy_med = statistics.median(busy) if busy else 0.0
            per_call = busy_med / calls if calls else 0.0
            metrics[f"{key}.calls"] = (calls, "count")
            metrics[f"{key}.busy_s"] = (busy_med, "s")
            metrics[f"{key}.self_s"] = (
                statistics.median(self_s) if self_s else 0.0, "s")
            if unit == "us":
                metrics[f"{key}.us_per_call"] = (per_call * 1e6, "us")
            else:
                metrics[f"{key}.ms"] = (per_call * 1e3, "ms")
            if key in RAISING:
                raises = int(raised[first:stop][names[first:stop] == index].sum())
                metrics[f"{key}.raised"] = (raises, "count")

        # Search-level figures: nfev counts the delta_subdivided spans that
        # share a search id with the find_eigenvalue span.
        delta_index = self.labels.index("fundsys.delta_subdivided")
        owners = searches[names == delta_index]
        nfev_by_search = np.bincount(owners[owners >= 0], minlength=n)
        in_first = [(sid, seed, res) for sid, seed, res in self.searches
                    if first <= sid < stop]
        nfev = [int(nfev_by_search[sid]) for sid, _, _ in in_first]
        all_ms = dur[names == self.labels.index(SEARCH)] * 1e3
        metrics[f"{SEARCH}.nfev_mean"] = (
            statistics.fmean(nfev) if nfev else 0.0, "count")
        metrics[f"{SEARCH}.nfev_max"] = (max(nfev, default=0), "count")
        metrics[f"{SEARCH}.ms_p90"] = (
            float(np.percentile(all_ms, 90)) if all_ms.size else 0.0, "ms")
        metrics[f"{SEARCH}.converged_ratio"] = (
            sum(r.converged for _, _, r in in_first) / len(in_first)
            if in_first else 0.0, "ratio")
        dist = [abs(complex(r.q - seed.q, r.omega - seed.omega))
                for _, seed, r in in_first]
        metrics[f"{SEARCH}.seed_dist_median"] = (
            statistics.median(dist) if dist else 0.0, "1")
        return metrics

    def write(self, path):
        """All spans as gzip CSV: id, parent, search, rep, name, start, end."""
        rep_of = np.zeros(len(self.name), dtype=np.int32)
        for r, (a, b) in enumerate(self.reps):
            rep_of[a:b] = r
        with gzip.open(path, "wt", encoding="utf-8", newline="") as handle:
            handle.write("id,parent,search,rep,name,start_ns,end_ns,raised\n")
            for i in range(len(self.name)):
                handle.write(f"{i},{self.parent[i]},{self.search[i]},{rep_of[i]},"
                             f"{self.labels[self.name[i]]},{self.start[i]},"
                             f"{self.end[i]},{self.raised[i]}\n")
