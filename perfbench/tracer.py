"""Spans and counts around the library's public entry points.

The tracer replaces a public function at the module attribute each caller
looks it up through (`orchestrate.solve_daa`, `kkt.solve_baa`, ...) with
a wrapper that records a span, and restores the original on exit. Spans
stay in memory until `layer_metrics` reads them at the end of the run.

Counts come only from public outputs: the `SolveDiagnostic.iterations`
entries a solver appends to its `diag` list, the round count
`solve_bcaa` returns, and `Solution.trace`. A name or hook that has
disappeared from the library makes the metrics that depend on it
missing (None) instead of stopping the run.
"""

from __future__ import annotations

import contextlib
import inspect
import time
from collections import Counter

import numpy as np

from mecalloc import kkt, model, orchestrate, scenario

# (module, attribute, span name, count hook)
TARGETS = (
    (orchestrate, "solve_daa", "kkt.daa", "daa"),
    (orchestrate, "solve_bcaa", "kkt.bcaa", "bcaa"),
    (kkt, "solve_baa", "kkt.baa", "baa"),
    (kkt, "energy_matrix", "physics", None),
    (orchestrate, "energy_matrix", "physics", None),
    (model, "validate", "model.validate", None),
    (scenario, "generate", "scenario.generate", None),
)

class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.counts = Counter()
        self.missing = set()
        self._stack = []
        self._patched = []

    # -- spans ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else None])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def self_times(self):
        """Per span name: (total self seconds, span count)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = {}
        for (name, t0, t1, _), c in zip(self.spans, child):
            s, n = out.get(name, (0.0, 0))
            out[name] = (s + (t1 - t0) - c, n + 1)
        return out

    # -- patching ------------------------------------------------------

    def __enter__(self):
        for module, attr, name, hook in TARGETS:
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.update((name, hook) if hook else (name,))
                continue
            if hook is not None and "diag" not in inspect.signature(fn).parameters:
                self.missing.add(hook)
            self._patched.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, hook))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _wrap(self, fn, name, hook):
        if hook is None or hook in self.missing:
            def plain(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)
            return plain
        sig = inspect.signature(fn)
        count = getattr(self, f"_count_{hook}")

        def counted(*args, **kwargs):
            try:
                bound = sig.bind(*args, **kwargs)
            except TypeError:
                self.missing.add(hook)
                with self.span(name):
                    return fn(*args, **kwargs)
            if bound.arguments.get("diag") is None:
                bound.arguments["diag"] = []
            diag = bound.arguments["diag"]
            start = len(diag)
            with self.span(name):
                result = fn(*bound.args, **bound.kwargs)
            try:
                count(bound.arguments, diag[start:], result)
            except (AttributeError, KeyError, TypeError, ValueError):
                self.missing.add(hook)
            return result
        return counted

    def _count_daa(self, args, entries, result):
        # one entry per user, each carrying the probe count of the search
        if entries:
            self.counts["daa.calls"] += 1
            self.counts["daa.probes"] += entries[0].iterations

    def _count_baa(self, args, entries, result):
        cfg = args["cfg"]
        active = int(np.count_nonzero(np.asarray(args["L"]) > cfg.activity_threshold_bits))
        for e in entries:
            self.counts["baa.calls"] += 1
            self.counts["baa.probes"] += e.iterations
            self.counts["baa.pair_evals"] += e.iterations * active

    def _count_bcaa(self, args, entries, result):
        _, _, rounds = result
        self.counts["bcaa.rounds"] += int(rounds)
        # per round: one bandwidth entry, then one compute entry per AP,
        # all APs sharing the probe count of their joint search
        first_of_round = True
        for e in entries:
            if e.dual.kind != "mu_compute":
                first_of_round = True
                continue
            if first_of_round:
                self.counts["caa.calls"] += 1
                self.counts["caa.probes"] += e.iterations
                first_of_round = False

    # -- results -------------------------------------------------------

    def layer_metrics(self, outer_rounds, iterative_solves):
        """Every per-layer metric as {name: (value or None, unit)}."""
        st = self.self_times()
        c = self.counts

        def secs(name):
            return st.get(name, (0.0, 0))[0]

        def calls(name):
            return st.get(name, (0.0, 0))[1]

        def ratio(a, b):
            return a / b if b else 0.0

        # (metric, value, unit, the span names and hooks it depends on)
        rows = (
            ("kkt.baa.self_s", secs("kkt.baa"), "s", ("kkt.baa",)),
            ("kkt.baa.calls", calls("kkt.baa"), "count", ("kkt.baa",)),
            ("kkt.baa.dual_probes", c["baa.probes"], "count", ("baa",)),
            ("kkt.baa.pair_evals", c["baa.pair_evals"], "count", ("baa",)),
            ("kkt.baa.probes_per_call", ratio(c["baa.probes"], c["baa.calls"]), "count",
             ("baa",)),
            ("kkt.bcaa.self_s", secs("kkt.bcaa"), "s", ("kkt.bcaa", "kkt.baa")),
            ("kkt.bcaa.calls", calls("kkt.bcaa"), "count", ("kkt.bcaa",)),
            ("kkt.bcaa.rounds", c["bcaa.rounds"], "count", ("bcaa",)),
            ("kkt.caa.calls", c["caa.calls"], "count", ("bcaa",)),
            ("kkt.caa.dual_probes", c["caa.probes"], "count", ("bcaa",)),
            ("kkt.caa.probes_per_call", ratio(c["caa.probes"], c["caa.calls"]), "count",
             ("bcaa",)),
            ("kkt.daa.self_s", secs("kkt.daa"), "s", ("kkt.daa",)),
            ("kkt.daa.calls", calls("kkt.daa"), "count", ("kkt.daa",)),
            ("kkt.daa.dual_probes", c["daa.probes"], "count", ("daa",)),
            ("kkt.daa.probes_per_call", ratio(c["daa.probes"], c["daa.calls"]), "count",
             ("daa",)),
            ("orchestrate.self_s", secs("orchestrate"), "s", ("kkt.daa", "kkt.bcaa")),
            ("orchestrate.calls", calls("orchestrate"), "count", ()),
            ("orchestrate.outer_rounds", outer_rounds, "count", ()),
            ("orchestrate.rounds_per_solve", ratio(outer_rounds, iterative_solves), "count",
             ()),
            ("physics.self_s", secs("physics"), "s", ("physics",)),
            ("physics.energy_matrix.calls", calls("physics"), "count", ("physics",)),
            ("model.validate_s", secs("model.validate"), "s", ("model.validate",)),
            ("model.validate.calls", calls("model.validate"), "count", ("model.validate",)),
            ("scenario.generate_s", secs("scenario.generate"), "s", ("scenario.generate",)),
            ("scenario.generate.calls", calls("scenario.generate"), "count",
             ("scenario.generate",)),
        )
        return {name: (None if self.missing.intersection(needs) else value, unit)
                for name, value, unit, needs in rows}


class NoTracer:
    """Stand-in used when tracing is off: spans cost one context switch."""

    def span(self, name):
        return contextlib.nullcontext()
