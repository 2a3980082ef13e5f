"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of each package module (a layer) at
every module that binds them, so calls made through ``from ... import``
names are timed too.  Each call is one span; a stack of open spans gives the
self time of a span exactly: its duration minus the durations of the spans
it opened.  A function that a later version of the package renames or
deletes is reported as missing instead of failing the run.

Worker processes forked by a process pool inherit the wrappers.  A worker
writes its totals to a spool directory each time its outermost span ends,
and the parent merges those files when the traced sweep returns.  Workers
started by ``spawn`` or ``forkserver`` import the package afresh and are
not traced.

What each layer should move, and where (workloads named in BENCHMARK.json):

- waterfilling: point latency and throughput on ``sweep``; on
  ``dual-highsnr`` only reverse_waterfill matters (one capacity solve per
  point).
- separated: throughput on ``sweep`` and ``sweep-jobs2``; bypassed on
  ``dual-highsnr``.
- dual: throughput and d_sc_mean_dual on ``dual-highsnr``; about a quarter
  of ``sweep``.
- model: self time of evaluate_dual, so ``dual-highsnr`` latency.
- channel: negligible per point; its import cost shows in setup_s.
- experiment: render_records is serialization.  On ``sweep-jobs2`` the
  self time of collect_sweep is mostly the parent waiting for the workers,
  so it tracks their solve time.  The pool's own cost is the time
  collect_sweep spends beyond the run_point spans of its busiest process
  (``busiest_s``): start-up, pickling and hand-offs, which move points_per_s
  there once points get cheap.
"""

import importlib
import json
import os
import sys
import time

# layer (module of the cas package) -> traced public functions
LAYERS = {
    "waterfilling": ("waterfill_capacity", "reverse_waterfill"),
    "separated": ("evaluate_split", "optimize_separated"),
    "dual": ("evaluate_dual", "optimize_dual", "optimize_dual_best",
             "gradient_step", "capacity_gradient"),
    "model": ("sensing_distortion", "source_eigenvalue", "capacity_eigform",
              "assemble_report"),
    "channel": ("generate_rayleigh", "alphas_from_channel"),
    "experiment": ("run_point", "render_records", "collect_sweep"),
}

# span -> (observation, how observations combine, attribute of the result)
OBSERVED = {
    "dual.optimize_dual": ("accepted_steps", "sum", "iterations"),
    "waterfilling.reverse_waterfill": ("saturated", "sum", "saturated"),
    "waterfilling.waterfill_capacity": ("kkt_residual_max", "max", "kkt_residual"),
}

# span whose time is a process's share of the sweep's work
BUSY_SPAN = "experiment.run_point"


class Tracer:
    """Per-span call counts, total and self times, and result observations."""

    def __init__(self, spool_dir, layers=LAYERS):
        self.spool_dir = spool_dir
        self.layers = layers
        self.pid = os.getpid()
        self.owner_pid = self.pid
        self.stats = {}          # span -> [calls, total_s, self_s]
        self.obs = {}            # observation -> value
        self.missing = set()     # spans or observations not found
        self.stack = []          # child time of each open span
        self.top_s = 0.0         # summed duration of outermost spans here
        self.wall_s = 0.0        # summed wall time of traced regions
        self.worker_self_s = 0.0  # summed self time merged from workers
        self.busiest_s = 0.0     # summed BUSY_SPAN time of each region's busiest process
        self._patched = []       # (module, attribute, original)
        self._t0 = None
        self._busy0 = 0.0

    # -- installation -------------------------------------------------

    def install(self):
        """Wrap every traced function at each package module that binds it."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "cas" or name.startswith("cas."))]
        for layer, names in self.layers.items():
            try:
                mod = importlib.import_module(f"cas.{layer}")
            except ImportError:
                self.missing.update(f"{layer}.{n}" for n in names)
                continue
            if mod not in modules:
                modules.append(mod)
            for name in names:
                span = f"{layer}.{name}"
                orig = getattr(mod, name, None)
                if not callable(orig):
                    self.missing.add(span)
                    continue
                wrapper = self._wrap(span, orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, orig))

    def uninstall(self):
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    # -- spans -------------------------------------------------------------

    def _wrap(self, span, orig):
        observed = OBSERVED.get(span)

        def traced(*args, **kwargs):
            if os.getpid() != self.pid:
                self._reset_in_worker()
            child = [0.0]
            self.stack.append(child)
            t0 = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.stack.pop()
                st = self.stats.setdefault(span, [0, 0.0, 0.0])
                st[0] += 1
                st[1] += dt
                st[2] += dt - child[0]
                if self.stack:
                    self.stack[-1][0] += dt
                else:
                    self.top_s += dt
                    if self.pid != self.owner_pid:
                        self._spool()
            if observed is not None:
                self._observe(observed, result)
            return result

        traced.__wrapped__ = orig
        traced.__name__ = getattr(orig, "__name__", span)
        return traced

    def _observe(self, observed, result):
        name, how, attr = observed
        value = getattr(result, attr, None)
        if value is None:
            self.missing.add(name)
            return
        self._combine(name, how, float(value))

    def _combine(self, name, how, value):
        if how == "sum":
            self.obs[name] = self.obs.get(name, 0.0) + value
        else:
            self.obs[name] = max(self.obs.get(name, value), value)

    def _reset_in_worker(self):
        # a forked worker inherits the parent's totals; count only its own
        self.pid = os.getpid()
        self.stats, self.obs, self.stack = {}, {}, []
        self.missing = set()
        self.top_s = 0.0

    def _spool(self):
        path = os.path.join(self.spool_dir, f"{self.pid}.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"stats": self.stats, "obs": self.obs,
                       "missing": sorted(self.missing)}, fh)
        os.replace(tmp, path)

    # -- traced regions -------------------------------------------------

    def start(self):
        self._busy0 = self._busy_total()
        self._t0 = time.perf_counter()

    def stop(self):
        """End a traced region, merge worker spools, return its wall time."""
        wall = time.perf_counter() - self._t0
        self.wall_s += wall
        main_busy = self._busy_total() - self._busy0
        self.busiest_s += max([main_busy] + self._merge_spool())
        return wall

    def _busy_total(self):
        return self.stats.get(BUSY_SPAN, (0, 0.0))[1]

    def _merge_spool(self):
        """Merge the worker spools; return each worker's BUSY_SPAN time."""
        busy = []
        if not os.path.isdir(self.spool_dir):
            return busy
        for entry in sorted(os.listdir(self.spool_dir)):
            if not entry.endswith(".json"):
                continue
            path = os.path.join(self.spool_dir, entry)
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            os.remove(path)
            busy.append(data["stats"].get(BUSY_SPAN, (0, 0.0))[1])
            for span, (calls, total, self_s) in data["stats"].items():
                st = self.stats.setdefault(span, [0, 0.0, 0.0])
                st[0] += calls
                st[1] += total
                st[2] += self_s
                self.worker_self_s += self_s
            for name, value in data["obs"].items():
                how = next(h for n, h, _ in OBSERVED.values() if n == name)
                self._combine(name, how, value)
            self.missing.update(data["missing"])
        return busy

    @property
    def outside_s(self):
        """Traced wall time in this process not covered by any span."""
        return self.wall_s - self.top_s

    @property
    def total_s(self):
        """Denominator of self shares: traced wall time plus worker span time."""
        return self.wall_s + self.worker_self_s
