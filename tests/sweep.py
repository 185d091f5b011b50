"""The mass-constrained solve over a fixed sweep of points, and the comparison of two sweeps.

    python tests/sweep.py run OUT.json
    python tests/sweep.py compare OLD.json NEW.json

`run` calls `petviashvili_mass_constrained`, with its default start and
tol, at each of the 210 points of the grids (L, M) in GRIDS, s in
{1.1, ..., 1.7} and N in {0.01, 0.05, 0.4, 1, 2, 2.4}, and writes one JSON
entry per point: whether it converged or the error message, theta, the
grid levels it solved on (in the order of the solve's history), its
iterations, its wall time, and whether its grid has a coarser level.  Each
point is solved three times: the outcome, theta, levels and iterations
are the first solve's, the wall time the best of the three.  It takes
about 13 s on 2 vCPUs.  Run it with the tree to measure on the
path (`PYTHONPATH=src`, or `pip install -e .`).

`compare` pairs the points of two such files and prints how many converge
on each side, the points whose outcome or grid levels differ, the largest
relative change of theta, the iteration changes, the failures whose
messages differ apart from their numbers, and the count and wall time of
each kind of point.  It states changes and is not a gate: it exits 0
whatever it finds, and 2 on a usage error.
"""

from __future__ import annotations

import json
import re
import sys
import time
from pathlib import Path

GRIDS = ((64.0, 4096), (256.0, 16384), (256.0, 4096), (128.0, 1024), (32.0, 1024))
S_VALUES = (1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7)
N_VALUES = (0.01, 0.05, 0.4, 1.0, 2.0, 2.4)
REPEATS = 3  # a point's time is the best of this many solves; one time moves by up to 10% between runs


def _outcome(solvers, grid, params) -> dict:
    """Whether the solve converged or its error, with theta, the grid levels and the iterations."""
    try:
        res = solvers.petviashvili_mass_constrained(grid, params)
    except Exception as exc:  # every failure is a measured outcome
        return dict(converged=False, error=f"{type(exc).__name__}: {exc}", theta=None, levels=None, iterations=None)
    return dict(converged=res.converged, error=None, theta=res.multiplier,
                levels=list(dict.fromkeys(res.history["points"])), iterations=res.iterations)


def sweep() -> list:
    # imported here, so `compare` runs where the package is not importable
    from fracnls import solvers
    from fracnls.spectral import SpectralGrid
    from fracnls.symbols import ModelParams

    points = []
    for length, m in GRIDS:
        grid = SpectralGrid(length, m)
        for s in S_VALUES:
            for n in N_VALUES:
                params = ModelParams(s, n)
                point = {"L": length, "M": m, "s": s, "N": n, "coarse": solvers._coarse_factor(grid, params.lam) > 1}
                outcomes, seconds = [], []
                for _ in range(REPEATS):
                    start = time.perf_counter()
                    outcomes.append(_outcome(solvers, grid, params))
                    seconds.append(time.perf_counter() - start)
                point.update(outcomes[0], seconds=min(seconds))
                points.append(point)
    return points


def _key(point) -> tuple:
    return point["L"], point["M"], point["s"], point["N"]


def _kind(point) -> str:
    if point["converged"]:
        if len(point["levels"]) > 1:
            return "converged from a coarse level"
        return "converged through the fallback" if point["coarse"] else "converged on a grid without a coarse level"
    return "failed after a coarse level" if point["coarse"] else "failed on a grid without a coarse level"


def _masked(message: str) -> str:
    """The message with its numbers replaced by #."""
    return re.sub(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?", "#", message)


def compare(old: list, new: list) -> str:
    old_by, new_by = {_key(p): p for p in old}, {_key(p): p for p in new}
    lines = []
    only = sorted(old_by.keys() ^ new_by.keys())
    if only:
        lines.append(f"points on one side only: {only}")
    keys = sorted(old_by.keys() & new_by.keys())
    pairs = [(old_by[k], new_by[k]) for k in keys]
    both = [(a, b) for a, b in pairs if a["converged"] and b["converged"]]
    lines.append(f"converged: {sum(a['converged'] for a, _ in pairs)} old, {sum(b['converged'] for _, b in pairs)} new, "
                 f"{len(both)} both, of {len(pairs)} points")
    for a, b in pairs:
        if a["converged"] != b["converged"]:
            lines.append(f"- outcome differs at {_key(a)}: old {a['error'] or 'converged'}; new {b['error'] or 'converged'}")
        elif a["converged"] and a["levels"] != b["levels"]:
            lines.append(f"- levels differ at {_key(a)}: {a['levels']} -> {b['levels']}")
    if both:
        rel = max(abs(b["theta"] - a["theta"]) / abs(a["theta"]) for a, b in both)
        moved = [b["iterations"] - a["iterations"] for a, b in both if b["iterations"] != a["iterations"]]
        lines.append(f"theta: largest relative change {rel:.2e}")
        lines.append(f"iterations: {len(moved)} points changed"
                     + (f", by {min(moved):+d} to {max(moved):+d}" if moved else ""))
    failed = [(a, b) for a, b in pairs if not a["converged"] and not b["converged"]]
    differ = [(a, b) for a, b in failed if _masked(a["error"] or "") != _masked(b["error"] or "")]
    lines.append(f"failures: {len(failed)} on both sides, {len(differ)} with another message")
    lines.extend(f"- {_key(a)}: {a['error']} -> {b['error']}" for a, b in differ)
    lines.append("| kind of point (old) | points | old s | new s |")
    lines.append("| --- | --- | --- | --- |")
    kinds = {}
    for a, b in pairs:
        row = kinds.setdefault(_kind(a), [0, 0.0, 0.0])
        row[0] += 1
        row[1] += a["seconds"]
        row[2] += b["seconds"]
    for kind, (count, t_old, t_new) in sorted(kinds.items()):
        lines.append(f"| {kind} | {count} | {t_old:.2f} | {t_new:.2f} |")
    t_old, t_new = sum(a["seconds"] for a, _ in pairs), sum(b["seconds"] for _, b in pairs)
    lines.append(f"| all | {len(pairs)} | {t_old:.2f} | {t_new:.2f} |")
    return "\n".join(lines)


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "run":
        Path(argv[1]).write_text(json.dumps({"points": sweep()}, indent=1) + "\n")
        return 0
    if len(argv) == 3 and argv[0] == "compare" and all(Path(a).is_file() for a in argv[1:]):
        old, new = (json.loads(Path(a).read_text())["points"] for a in argv[1:])
        print(compare(old, new))
        return 0
    print("\n".join(line.strip() for line in __doc__.strip().splitlines()[2:4]), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
