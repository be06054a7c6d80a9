"""Spans around the calls each cdlab module makes into another, for the traced run.

`Tracer.patched()` replaces the public names each calling module imports
(for example `cdlab.cli.run` or `cdlab.rates.recurrence_coeffs`) with
wrappers that record one span per call: id, parent id, name, start and
end.  Spans stay in memory until the run ends.  A name that a later
version of cdlab no longer has is skipped, and its metrics read 0.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import time
import zlib
from collections import Counter, defaultdict

import numpy as np

# (calling module, imported name, span name).  A span is named after the
# module that defines the function, so one layer collects every caller.
# Names without a metric of their own are wrapped too, so that cli.self_s
# holds only the CLI's own code.
PATCHES = (
    ("cdlab.cli", "run", "engine.run"),
    ("cdlab.cli", "closed_form_C", "engine.closed_form_C"),
    ("cdlab.cli", "epoch_matrix", "engine.epoch_matrix"),
    ("cdlab.cli", "expected_over_x0", "engine.expected_over_x0"),
    ("cdlab.cli", "permuted_epoch_map", "engine.permuted_epoch_map"),
    ("cdlab.cli", "build_log_uniform_spectrum", "quadratic.build_log_uniform_spectrum"),
    ("cdlab.cli", "quadratic_constants", "quadratic.quadratic_constants"),
    ("cdlab.cli", "spectral_radius", "rates.spectral_radius"),
    ("cdlab.cli", "rho_M", "rates.rho_M"),
    ("cdlab.cli", "empirical_rate", "rates.empirical_rate"),
    ("cdlab.cli", "ccd_bounds", "rates.ccd_bounds"),
    ("cdlab.cli", "rcd_rates", "rates.rcd_rates"),
    ("cdlab.cli", "generic_bounds", "rates.generic_bounds"),
    ("cdlab.cli", "sd_rate", "rates.sd_rate"),
    ("cdlab.cli", "rpcd_asymptotic_rate", "rates.rpcd_asymptotic_rate"),
    ("cdlab.cli", "evolve", "recurrence.evolve"),
    ("cdlab.cli", "recurrence_coeffs", "recurrence.recurrence_coeffs"),
    ("cdlab.cli", "write_rows", "cli.write_rows"),
    ("cdlab.engine", "objective", "quadratic.objective"),
    ("cdlab.engine", "closed_form_C", "engine.closed_form_C"),
    ("cdlab.recurrence", "closed_form_C", "engine.closed_form_C"),
    ("cdlab.rates", "recurrence_coeffs", "recurrence.recurrence_coeffs"),
)

ROOT = "bench.pass"
COMMAND = "cli.main"


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self.radius_inputs: set = set()
        self._stack = [0]
        self._ids = itertools.count(1)

    def _observe(self, name, args, kwargs, result) -> None:
        # Exact counts, recorded outside the span so they add nothing to its time.
        if name == "engine.run":
            self.counts["engine.run.epochs"] += result.epochs
        elif name == "engine.closed_form_C":
            self.counts["engine.closed_form_C.bytes"] += 8 * int(_arg(args, kwargs, 0, "n")) ** 2
        elif name == "rates.spectral_radius":
            T = np.ascontiguousarray(_arg(args, kwargs, 0, "T"))
            self.radius_inputs.add((T.shape, zlib.crc32(T)))
        elif name == "recurrence.evolve":
            self.counts["recurrence.evolve.steps"] += int(_arg(args, kwargs, 2, "t"))
        elif name == "cli.write_rows" and isinstance(result, str):
            self.counts["cli.write_rows.bytes"] += len(result.encode())

    def wrap(self, name: str, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            sid, parent = next(ids), stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".failed"] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1))
            self._observe(name, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers of PATCHES; restore the original names on exit."""
        saved = []
        try:
            for module_name, attr, name in PATCHES:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is not None:
                    saved.append((module, attr, fn))
                    setattr(module, attr, self.wrap(name, fn))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def layer_times(self):
        """(calls, inclusive seconds, self seconds) per span name.

        Self time is the span's duration minus the durations of its direct
        children; calls are single-threaded, so children never overlap.
        """
        child = defaultdict(float)
        for _, parent, _, t0, t1 in self.spans:
            child[parent] += t1 - t0
        calls, total, self_s = Counter(), defaultdict(float), defaultdict(float)
        for sid, _, name, t0, t1 in self.spans:
            calls[name] += 1
            total[name] += t1 - t0
            self_s[name] += t1 - t0 - child[sid]
        return calls, total, self_s

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of this pass, named as in BENCHMARK.json."""
        calls, total, self_s = self.layer_times()
        c = self.counts
        m = {}
        for name in ("engine.run", "engine.permuted_epoch_map", "engine.expected_over_x0",
                     "engine.closed_form_C", "quadratic.objective", "quadratic.build_log_uniform_spectrum",
                     "recurrence.recurrence_coeffs", "recurrence.evolve", "rates.spectral_radius",
                     "rates.rho_M", "rates.empirical_rate"):
            m[name + ".calls"] = calls[name]
        for name in ("engine.permuted_epoch_map", "engine.expected_over_x0", "engine.closed_form_C",
                     "quadratic.objective", "quadratic.build_log_uniform_spectrum", "recurrence.evolve",
                     "rates.spectral_radius", "rates.rho_M", "cli.write_rows"):
            m[name + ".s"] = total[name]
        epochs = c["engine.run.epochs"]
        m["engine.run.epochs"] = epochs
        m["engine.run.failed"] = c["engine.run.failed"]
        m["engine.run.self_s"] = self_s["engine.run"]
        m["engine.run.us_per_epoch"] = 1e6 * self_s["engine.run"] / epochs if epochs else 0.0
        m["engine.closed_form_C.bytes"] = c["engine.closed_form_C.bytes"]
        m["recurrence.recurrence_coeffs.self_s"] = self_s["recurrence.recurrence_coeffs"]
        m["recurrence.evolve.steps"] = c["recurrence.evolve.steps"]
        n_radius = calls["rates.spectral_radius"]
        m["rates.spectral_radius.distinct_ratio"] = len(self.radius_inputs) / n_radius if n_radius else 0.0
        m["rates.empirical_rate.failed"] = c["rates.empirical_rate.failed"]
        m["cli.self_s"] = self_s[COMMAND]
        m["cli.write_rows.bytes"] = c["cli.write_rows.bytes"]
        m["trace.pass_s"] = total[ROOT]
        m["trace.self_sum_s"] = sum(v for k, v in self_s.items() if k != ROOT)
        return m

    def columns(self, pass_index: int) -> dict:
        """Span columns of this pass (id, parent, name index, start, end), keyed for np.savez."""
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        arr = np.array([(sid, parent, index[name], t0, t1) for sid, parent, name, t0, t1 in self.spans])
        return {f"pass{pass_index}_spans": arr, f"pass{pass_index}_names": np.array(names)}
