"""Layer spans recorded from outside the program.

The tracer replaces functions of the fracnls modules with timing wrappers
while a traced round runs, and puts the originals back afterwards.  The
CLI modules import by name (``from .cache import cached_solve``), so a
wrapper set only on the defining module would never be called: every
module attribute bound to the original object is patched.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from pathlib import Path

# span name -> (module, attribute, attribute of that object or None).
# The per-abscissa integrands of the quadratures run about 1e6 times per op
# and stay unwrapped.
TARGETS = {
    "cli.run": ("fracnls.cli", "run", None),
    "cli.emit_outputs": ("fracnls.cli", "emit_outputs", None),
    "cache.cached_solve": ("fracnls.cache", "cached_solve", None),
    "cache.load_result": ("fracnls.cache", "load_result", None),
    "cache.store_result": ("fracnls.cache", "store_result", None),
    "solvers.petviashvili_mass_constrained": ("fracnls.solvers", "petviashvili_mass_constrained", None),
    "solvers.petviashvili_solve": ("fracnls.solvers", "petviashvili_solve", None),
    "spectral.pad_evaluate": ("fracnls.spectral", "pad_evaluate", None),
    "renorm.gauge_fix": ("fracnls.renorm", "gauge_fix", None),
    "asymptotics.tail_fit": ("fracnls.asymptotics", "tail_fit", None),
    "asymptotics.decay_bound_check": ("fracnls.asymptotics", "decay_bound_check", None),
    "asymptotics.far_field_reconstruction": ("fracnls.asymptotics", "far_field_reconstruction", None),
    "asymptotics.kernel_expansion_check": ("fracnls.asymptotics", "kernel_expansion_check", None),
    "asymptotics.verify_f2_rootless": ("fracnls.asymptotics", "verify_f2_rootless", None),
    "asymptotics.kernel_tail": ("fracnls.asymptotics", "_KernelTail", "__init__"),
    "symbols.laplace_quad": ("fracnls.symbols", "_laplace_quad", None),
    "symbols.kernel_pointwise": ("fracnls.symbols", "kernel_pointwise", None),
    "asymptotics_roots.find_root_translated": ("fracnls.asymptotics_roots", "find_root_translated", None),
    "linearized.build_linearized": ("fracnls.linearized", "build_linearized", None),
    "linearized.kernel_diagnostics": ("fracnls.linearized", "kernel_diagnostics", None),
    "linearized.dense": ("fracnls.linearized", "LinearizedOperator", "dense"),
}


def _cache_file_bytes(cache_dir, key) -> int:
    return sum(p.stat().st_size for p in Path(cache_dir).glob(f"{key}.*"))


def _after_cached_solve(tracer, args, kwargs, result):
    tracer.counters["cache.cached_solve.hits" if result[1] else "cache.cached_solve.misses"] += 1


def _after_load_result(tracer, args, kwargs, result):
    if result is not None:
        tracer.counters["cache.bytes_read"] += _cache_file_bytes(args[0], args[1])


def _after_store_result(tracer, args, kwargs, result):
    tracer.counters["cache.bytes_written"] += _cache_file_bytes(args[0], args[1])


def _after_petviashvili_solve(tracer, args, kwargs, result):
    tracer.counters["solvers.inner_iterations"] += result.iterations


def _after_find_root(tracer, args, kwargs, result):
    tracer.root_args.add((args[0], args[1]))


def _after_dense(tracer, args, kwargs, result):
    m = args[0].grid.points
    tracer.counters["linearized.dense_bytes"] += (2 * m) ** 2 * 8  # computed, not measured


AFTER = {
    "cache.cached_solve": _after_cached_solve,
    "cache.load_result": _after_load_result,
    "cache.store_result": _after_store_result,
    "solvers.petviashvili_solve": _after_petviashvili_solve,
    "asymptotics_roots.find_root_translated": _after_find_root,
    "linearized.dense": _after_dense,
}


class Tracer:
    """In-memory spans: [name, start, end, parent span index, op index]."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.root_args = set()
        self.op = -1
        self.bindings = {}  # span name -> the attributes its wrapper replaced
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "fracnls" or n.startswith("fracnls.")]
        for name, (mod_name, attr, member) in TARGETS.items():
            owner = getattr(sys.modules[mod_name], attr)
            if member is not None:
                # a method: patching the class reaches every instance
                orig = owner.__dict__[member]
                self._patch(owner, member, orig, self._wrap(name, orig, AFTER.get(name)))
                self.bindings[name] = [f"{mod_name}.{attr}.{member}"]
                continue
            wrapper = self._wrap(name, owner, AFTER.get(name))
            self.bindings[name] = []
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is owner:
                        self._patch(mod, key, owner, wrapper)
                        self.bindings[name].append(f"{mod.__name__}.{key}")

    def _patch(self, obj, key, orig, wrapper) -> None:
        self._patches.append((obj, key, orig))
        setattr(obj, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            obj, key, orig = self._patches.pop()
            setattr(obj, key, orig)

    def self_times(self) -> list:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own


def layer_metrics(tracer: Tracer, n_ops: int) -> dict:
    """Per-op layer metrics: every count and time is divided by the op count."""
    calls = Counter(span[0] for span in tracer.spans)
    self_s = Counter()
    for span, own in zip(tracer.spans, tracer.self_times()):
        self_s[span[0]] += own
    c = tracer.counters
    lookups = c["cache.cached_solve.hits"] + c["cache.cached_solve.misses"]
    roots = calls["asymptotics_roots.find_root_translated"]
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def per_op(value):
        return value / n_ops

    for name in (
        "solvers.petviashvili_mass_constrained",
        "solvers.petviashvili_solve",
        "spectral.pad_evaluate",
        "renorm.gauge_fix",
        "asymptotics.far_field_reconstruction",
        "symbols.laplace_quad",
        "symbols.kernel_pointwise",
        "asymptotics_roots.find_root_translated",
    ):
        put(f"{name}.calls", per_op(calls[name]), "count")
        put(f"{name}.self_s", per_op(self_s[name]), "s")
    put("solvers.inner_iterations", per_op(c["solvers.inner_iterations"]), "count")
    put("cache.cached_solve.hits", per_op(c["cache.cached_solve.hits"]), "count")
    put("cache.cached_solve.misses", per_op(c["cache.cached_solve.misses"]), "count")
    put("cache.hit_ratio", c["cache.cached_solve.hits"] / lookups if lookups else 0.0, "ratio")
    put("cache.store_result.self_s", per_op(self_s["cache.store_result"]), "s")
    put("cache.load_result.self_s", per_op(self_s["cache.load_result"]), "s")
    put("cache.bytes_written", per_op(c["cache.bytes_written"]), "B")
    put("cache.bytes_read", per_op(c["cache.bytes_read"]), "B")
    for name in (
        "asymptotics.tail_fit",
        "asymptotics.decay_bound_check",
        "asymptotics.kernel_expansion_check",
        "asymptotics.verify_f2_rootless",
        "linearized.build_linearized",
        "linearized.kernel_diagnostics",
        "cli.run",
        "cli.emit_outputs",
    ):
        put(f"{name}.self_s", per_op(self_s[name]), "s")
    put("asymptotics.kernel_tail.builds", per_op(calls["asymptotics.kernel_tail"]), "count")
    put(
        "asymptotics_roots.find_root_translated.distinct_ratio",
        len(tracer.root_args) / roots if roots else 0.0,
        "ratio",
    )
    put("linearized.dense.calls", per_op(calls["linearized.dense"]), "count")
    put("linearized.dense_bytes", per_op(c["linearized.dense_bytes"]), "B")
    return out
