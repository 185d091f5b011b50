"""One workload in one process: set-up, the timed closed loop, the traced round.

Started by ``run.py``, never by hand; it writes its result as JSON to the
``--result`` path.  One client runs one op at a time (a closed loop) with
``--workers 1``; BLAS and OpenMP threads are pinned by the parent through
the environment before numpy loads.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer, layer_metrics
from workloads import WORKLOADS, argv, draw_round, fill_argvs

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_cli():
    """Import the CLI from the checkout's own sources, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from fracnls import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"fracnls imported from {cli.__file__}, not from {src}")
    return cli


def blas_runtime() -> list:
    """Config string and thread count of every OpenBLAS loaded in this process."""
    found = []
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return found
    for path in libs:
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.restype = ctypes.c_char_p
                found.append({"config": get_config().decode(), "threads": get_threads()})
                break
    return found


def environment(workload, seed, ops) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_runtime(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "seed": seed,
        "s": [op.s for op in ops],
        "masses": {
            cmd.name: [list(op.masses[i]) for op in ops] for i, cmd in enumerate(workload.commands)
        },
        "grids": {cmd.name: cmd.grid for cmd in workload.commands},
    }


class OpRunner:
    """Runs the ops of a round through ``cli.main`` and checks each one.

    An op fails on a nonzero exit code, on a CSV or JSON record whose bytes
    differ from the first run of the same op, or on a cache hit ratio other
    than the workload's.  Every path an op touches lies under ``run_dir``.
    """

    def __init__(self, cli, workload, ops, run_dir: Path):
        self.cli = cli
        self.workload = workload
        self.ops = ops
        self.run_dir = run_dir
        self.cache_dir = run_dir / "cache"
        self.reference = {}

    def fill_cache(self) -> None:
        for op in self.ops:
            for args in fill_argvs(self.workload, op, str(self.cache_dir), str(self.run_dir / "fill")):
                if self._main(args) != 0:
                    raise RuntimeError(f"cache fill failed: fracnls {' '.join(args)}")
        shutil.rmtree(self.run_dir / "fill")

    def _main(self, args) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(args)

    def _cache_listing(self) -> dict:
        if not self.cache_dir.exists():
            return {}
        return {p.name: (p.stat().st_size, p.stat().st_mtime_ns) for p in self.cache_dir.iterdir()}

    def run(self, index: int) -> tuple:
        """Run op ``index``; return (wall seconds, failure reason or None)."""
        op = self.ops[index]
        out_dir = self.run_dir / f"out-{index}"
        shutil.rmtree(out_dir, ignore_errors=True)
        if self.workload.cache == "cold":
            shutil.rmtree(self.cache_dir, ignore_errors=True)
        before = self._cache_listing()
        failure = None
        start = time.perf_counter()
        try:
            for cmd, masses in zip(self.workload.commands, op.masses):
                code = self._main(argv(cmd, op.s, masses, str(self.cache_dir), str(out_dir)))
                if code != 0:
                    failure = f"{cmd.name} exited with code {code}"
                    break
        except Exception:  # the loop must go on: record the op as failed
            failure = traceback.format_exc(limit=-3)
        seconds = time.perf_counter() - start
        return seconds, failure or self._check(index, out_dir, before)

    def _check(self, index, out_dir, before):
        records = {
            p.name: p.read_bytes()
            for p in sorted(out_dir.glob("*"))
            if p.suffix in (".csv", ".json") and not p.name.endswith(".meta.json")
        }
        if len(records) != 2 * len(self.workload.commands):
            return f"expected a CSV and a JSON record per command, found {sorted(records)}"
        first = self.reference.setdefault(index, records)
        if records != first:
            return "record bytes differ from the first run of this op"
        after = self._cache_listing()
        if self.workload.cache == "cold":
            # every lookup on the emptied cache must miss and store its solve,
            # as files named after the solve's key
            stored = len({name.split(".")[0] for name in after})
            if stored != self.workload.points_per_op():
                return f"cache hit ratio not 0: {stored} solves stored for {self.workload.points_per_op()} points"
        elif self.workload.cache == "warm" and after != before:
            return "cache hit ratio below 1: the op wrote to the warm cache"
        return None


def run_round(runner, results, tracer=None) -> None:
    for index in range(len(runner.ops)):
        if tracer is not None:
            tracer.op = len(results)
        seconds, failure = runner.run(index)
        results.append({"op": index, "s": runner.ops[index].s, "seconds": seconds, "failure": failure})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--deadline", type=float, required=True, help="time.monotonic() to stop by")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path, help="where the traced run writes its spans")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    ops = draw_round(workload, args.seed)
    runner = OpRunner(load_cli(), workload, ops, args.run_dir)
    if workload.cache == "warm":
        runner.fill_cache()
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s}
    if args.setup_only:
        args.result.write_text(json.dumps(result))
        return 0

    # whole rounds only, so every s weighs the same in the median
    untraced = []
    start = time.monotonic()
    while not untraced or time.monotonic() - start < args.seconds:
        round_start = time.monotonic()
        run_round(runner, untraced)
        now = time.monotonic()
        if now + (1 + args.trace) * (now - round_start) > args.deadline:
            break  # one more round, and the traced one, would overrun
    result.update(
        ops=untraced,
        environment=environment(workload, args.seed, ops),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if args.trace:
        tracer = Tracer()
        traced = []
        tracer.install()
        try:
            run_round(runner, traced, tracer)
        finally:
            tracer.uninstall()
        metrics = layer_metrics(tracer, len(traced))
        overhead = statistics.median(r["seconds"] for r in traced) / statistics.median(
            r["seconds"] for r in untraced
        )
        metrics["trace_overhead"] = {"value": overhead, "unit": "ratio"}
        result.update(traced_ops=traced, layers=metrics, bindings=tracer.bindings)
        if args.spans is not None:
            args.spans.write_text(
                json.dumps({"fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans})
            )
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
