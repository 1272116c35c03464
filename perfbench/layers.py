"""Layer tracing from outside the program.

The tracer wraps public functions and methods of the csns modules, replacing
every module attribute that names the same object, so calls made inside the
package go through the wrapper too.  Spans nest on one stack: a function's
self time is its span minus the spans of the wrapped calls it contains.
Counters that derived metrics need are taken by hooks that run outside the
timed part of the span.
"""

from __future__ import annotations

import functools
import os
import sys
import time

# (module, attribute path) of every traced callable, in report order.
TARGETS = (
    ("particles", "cic_stencil"),
    ("particles", "deposit_moments"),
    ("particles", "convolve_kernel"),
    ("particles", "interpolate"),
    ("particles", "stage_rates"),
    ("particles", "wrap_positions"),
    ("particles", "drag_field"),
    ("particles", "sample_initial"),
    ("fluid", "forward_transform"),
    ("fluid", "inverse_transform"),
    ("fluid", "nonlinear_term"),
    ("fluid", "leray_project"),
    ("fluid", "if_heun"),
    ("driver", "coupled_step"),
    ("driver", "initial_state"),
    ("driver", "run"),
    ("driver", "resume_run"),
    ("diagnostics", "SeriesRecorder.record"),
    ("diagnostics", "dissipation_terms"),
    ("diagnostics", "alignment_gap"),
    ("diagnostics", "energy"),
    ("diagnostics", "verify_timeseries"),
    ("io", "TimeseriesWriter.add_row"),
    ("io", "TimeseriesWriter.close"),
    ("io", "write_snapshot"),
    ("io", "write_checkpoint"),
    ("io", "read_checkpoint"),
    ("io", "read_snapshot"),
    ("io", "read_timeseries"),
    ("initial", "fluid_initial"),
    ("domain", "validate_config"),
    ("domain", "wavenumbers"),
    ("cli", "main"),
)

RECORD = "diagnostics.SeriesRecorder.record"
MB = 1e6
KB = 1e3


def _file_size(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    """Installs wrappers on a csns package and accumulates per-layer totals."""

    def __init__(self, package):
        self.package = package
        prefix = package.__name__ + "."
        self.modules = [m for n, m in list(sys.modules.items())
                        if n == package.__name__ or n.startswith(prefix)]
        self.clock = time.perf_counter
        self.stack = []
        self.stats = {}
        self.absent = []
        self.patches = []
        self.originals = {}
        self.counters = {}
        self._run_keys = set()
        self.reset()

    def reset(self):
        for stat in self.stats.values():
            stat[:] = [0.0, 0]
        self.counters = {"distinct_stencils": 0, "record_stencils": 0,
                         "empty_deposits": 0, "transform_bytes": 0,
                         "gather_bytes": 0, "written_bytes": 0}
        self._run_keys = set()

    def end_run(self, args=None):
        """Fold one driver run's distinct stencil positions into the total.

        A resumed run repeats positions of the run it resumes, so positions
        are told apart within one driver.run or driver.resume_run call.
        """
        self.counters["distinct_stencils"] += len(self._run_keys)
        self._run_keys = set()

    # hooks: (pre(args) -> token, post(args, result, token))

    def _stencil(self, args, result, token):
        self._run_keys.add(hash(args[0].tobytes()))
        if any(name == RECORD for name, _ in self.stack):
            self.counters["record_stencils"] += 1

    def _deposit(self, args, result, token):
        if args[0].n == 0:
            self.counters["empty_deposits"] += 1

    def _transform(self, args, result, token):
        self.counters["transform_bytes"] += args[0].nbytes + result.nbytes

    def _gather(self, args, result, token):
        field, X = args[0], args[1]
        n, d = X.shape
        channels = field.size // (field.shape[-1] ** d)
        self.counters["gather_bytes"] += 8 * channels * n * 2**d

    def _written_after(self, args, result, token):
        self.counters["written_bytes"] += _file_size(args[0])

    def _series_before(self, args):
        return _file_size(args[0].path)

    def _series_after(self, args, result, token):
        self.counters["written_bytes"] += max(
            0, _file_size(args[0].path) - token)

    def _hooks(self, name):
        series = (self._series_before, self._series_after)
        return {
            "driver.run": (self.end_run, None),
            "driver.resume_run": (self.end_run, None),
            "particles.cic_stencil": (None, self._stencil),
            "particles.deposit_moments": (None, self._deposit),
            "particles.interpolate": (None, self._gather),
            "fluid.forward_transform": (None, self._transform),
            "fluid.inverse_transform": (None, self._transform),
            "io.write_snapshot": (None, self._written_after),
            "io.write_checkpoint": (None, self._written_after),
            "io.TimeseriesWriter.add_row": series,
            "io.TimeseriesWriter.close": series,
        }.get(name, (None, None))

    def _wrap(self, name, fn):
        stack, clock, stat = self.stack, self.clock, self.stats[name]
        pre, post = self._hooks(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = clock()
            try:
                token = pre(args) if pre else None
                frame = [0.0]
                stack.append((name, frame))
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    stat[0] += (t1 - t0) - frame[0]
                    stat[1] += 1
                if post:
                    post(args, result, token)
                return result
            finally:
                if stack:
                    stack[-1][1][0] += clock() - t_in

        return traced

    def install(self):
        """Put the wrappers in place; the first call looks the targets up."""
        if not self.originals and not self.absent:
            self._find_targets()
        for owner, key, _, wrapper in self.patches:
            setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original, _ in reversed(self.patches):
            setattr(owner, key, original)

    def _find_targets(self):
        for mod_name, attr in TARGETS:
            name = f"{mod_name}.{attr}"
            owner = getattr(self.package, mod_name, None)
            *cls_path, leaf = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            fn = vars(owner).get(leaf) if owner is not None \
                and hasattr(owner, "__dict__") else None
            if not callable(fn):
                self.absent.append(name)
                continue
            self.originals[name] = fn
            self.stats[name] = [0.0, 0]
            wrapper = self._wrap(name, fn)
            if cls_path:
                self.patches.append((owner, leaf, fn, wrapper))
                continue
            for module in self.modules:
                for key, value in vars(module).items():
                    if value is fn:
                        self.patches.append((module, key, fn, wrapper))

    def cache_counts(self, name):
        """(hits, misses) of an lru_cache'd function, or None if absent."""
        mod_name, attr = name.split(".")
        fn = self.originals.get(name) or getattr(
            getattr(self.package, mod_name, None), attr, None)
        info = getattr(fn, "cache_info", None)
        if info is None:
            return None
        ci = info()
        return ci.hits, ci.misses

    def metrics(self, steps, cache_ratios, import_s, overhead_s):
        """Per-layer metrics per coupled step; absent callables read 0."""
        out = {}
        for mod_name, attr in TARGETS:
            name = f"{mod_name}.{attr}"
            self_s, calls = self.stats.get(name, (0.0, 0))
            out[f"{name}.self_ms"] = (1e3 * self_s / steps, "ms/step")
            out[f"{name}.calls"] = (calls / steps, "1/step")
        self.end_run()
        c = self.counters
        stencil_calls = self.stats.get("particles.cic_stencil", (0.0, 0))[1]
        out["particles.cic_stencil.record_calls"] = (
            c["record_stencils"] / steps, "1/step")
        out["particles.stencil_reuse"] = (
            c["distinct_stencils"] / stencil_calls if stencil_calls else 0.0,
            "ratio")
        out["particles.empty_deposits"] = (c["empty_deposits"] / steps,
                                           "1/step")
        out["fluid.transform_mb"] = (c["transform_bytes"] / MB / steps,
                                     "computed_MB/step")
        out["particles.gather_mb"] = (c["gather_bytes"] / MB / steps,
                                      "computed_MB/step")
        out["io.written_kb"] = (c["written_bytes"] / KB / steps, "kB/step")
        for name, ratio in cache_ratios.items():
            out[f"{name}.hit_ratio"] = (ratio, "ratio")
        out["csns.import_ms"] = (1e3 * import_s, "ms")
        out["tracing_overhead_s"] = (overhead_s, "s")
        return out

    def split(self, top=8):
        """The largest self-time shares, for the run log."""
        total = sum(s for s, _ in self.stats.values()) or 1.0
        rows = sorted(self.stats.items(), key=lambda kv: -kv[1][0])[:top]
        return [(name, s / total, calls) for name, (s, calls) in rows]
