"""The fracnls benchmark: one workload, timed end to end, optionally traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload solve-cold --seed 0 --seconds 20 --trace 0

Each workload runs in processes of its own, so set-up time and peak memory
belong to it.  The set-up is timed in ``SETUP_REPEATS`` processes and its
median reported; the last of them then runs whole rounds of ops until
``--seconds`` have passed.  With ``--trace 1`` it also runs one more round
with layer spans recorded and reports the per-layer metrics instead.
Every cache and output path lies in a temporary directory under
``.perfbench/`` in the checkout, removed at the end; the full result,
with the environment, is kept in ``.perfbench/<workload>-seed<n>-trace<t>.json``.
The last line of standard output is the JSON summary.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
TIME_LIMIT = 170.0  # seconds; the whole run must end within 180
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def worker_env() -> dict:
    env = dict(os.environ, **PINNED_THREADS)
    env.pop("FRACNLS_CACHE", None)  # every command gets an explicit --cache-dir
    return env


def spawn(args, run_dir: Path, deadline: float, setup_only: bool, spans: Path | None) -> dict:
    result = run_dir / "result.json"
    run_dir.mkdir(parents=True)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--run-dir", str(run_dir), "--result", str(result),
        "--deadline", repr(deadline),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    spawned_at = time.monotonic()
    # CLOCK_MONOTONIC is shared by all processes, so the worker can time its
    # own set-up from this instant
    subprocess.run(
        cmd + ["--spawned-at", repr(spawned_at)], env=worker_env(), check=True,
        stdout=subprocess.DEVNULL, timeout=max(deadline - spawned_at, 1.0) + 5.0,
    )
    return json.loads(result.read_text())


def report(workload, args, main: dict, setup: list) -> dict:
    """Print the human-readable report; return the metrics of the summary line."""
    ops = main["ops"] + main.get("traced_ops", [])
    failed = [op for op in ops if op["failure"]]
    times = [op["seconds"] for op in main["ops"]]
    print(f"workload {workload.name}: {workload.why}")
    print("environment " + json.dumps(main["environment"], sort_keys=True))
    for op in failed:
        print(f"FAILED op {op['op']} (s={op['s']}): {op['failure']}")
    print(f"fail_ratio = {len(failed) / len(ops):.6g} ({len(failed)} of {len(ops)} ops)")
    e2e = {
        "setup_s": (statistics.median(setup), "s"),
        "op_s_p50": (statistics.median(times), "s"),
        "points_per_s": (workload.points_per_op() * len(times) / sum(times), "1/s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} set-ups",
        "op_s_p50": f"median of {len(times)} untraced ops",
        "points_per_s": f"{workload.points_per_op()} (s, N) points per op",
        "peak_rss_mb": "worker process",
    }
    for name, (value, unit) in e2e.items():
        print(f"{name} = {value:.6g} {unit}  ({notes[name]})")
    if not args.trace:
        return {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}
    layers = main["layers"]
    traced = len(main["traced_ops"])
    for name, metric in layers.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}  (per op over {traced} traced ops)")
    for name, want in workload.expected_counts.items():
        got = layers[name]["value"]
        verdict = "as expected" if got == want else f"CHANGED from {want:g}"
        print(f"count check: {name} = {got:g}, {verdict}")
    return layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT

    src = ROOT / "src" / "fracnls"
    if not (src / "__init__.py").is_file():
        print(f"error: no fracnls sources at {src}", file=sys.stderr)
        return 2
    compileall.compile_dir(src, quiet=1)  # the build: later imports read bytecode

    workload = WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    tmp = Path(tempfile.mkdtemp(prefix=f"{stem}-", dir=out_dir))
    try:
        setup = [
            spawn(args, tmp / f"setup-{k}", deadline, True, None)["setup_s"]
            for k in range(SETUP_REPEATS - 1)
        ]
        spans = out_dir / f"{stem}.spans.json" if args.trace else None
        main_result = spawn(args, tmp / "main", deadline, False, spans)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: worker failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    setup.append(main_result["setup_s"])

    metrics = report(workload, args, main_result, setup)
    ops = main_result["ops"] + main_result.get("traced_ops", [])
    failed = sum(1 for op in ops if op["failure"])
    (out_dir / f"{stem}.json").write_text(
        json.dumps({**main_result, "setup_s": setup, "metrics": metrics}, indent=1, sort_keys=True)
    )
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
