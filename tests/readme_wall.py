"""Wall time of the seven README commands as fresh processes, cold and warm.

    python tests/readme_wall.py [--repeats N] [SRC ...]

Each command of the CLI block of the README.md one directory above this
script (COMMANDS, read at import, comments stripped) runs as
`python -m fracnls.cli ...` in a fresh process, first on an empty cache
(cold) and then on the cache that run filled (warm), N times (default 5),
each repetition with new cache and output directories.  The table gives
per command and state the median wall time, the exit code (all of them,
if they differ) and the median stage time that the run's `.meta.json`
holds (`timings.wall_seconds`, the time inside `run`), and a first row
with the median wall time of `python -c "import fracnls.cli"`.

Each SRC is a source directory put first on PYTHONPATH, such as the `src`
of two checkouts; the table gets one column group per SRC, and the
repetitions alternate between them, so host drift falls on both alike.
Without SRC it measures the `fracnls` the interpreter already finds.  It
takes about a minute per SRC on 2 vCPUs.  It states times and is not a
gate: it exits 0 whatever it finds, and 2 on a usage error.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> tuple:
    """The lines of the README's CLI block, each without its leading `fracnls` and its `#` comment."""
    block = README.read_text().split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
    return tuple(" ".join(line.split("#", 1)[0].split()[1:]) for line in block.splitlines())


COMMANDS = readme_commands()
IMPORT = "import fracnls.cli"


def _environment(src: str | None) -> dict:
    env = dict(os.environ)
    if src is not None:
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _timed(argv: list, env: dict) -> tuple:
    """(wall seconds, exit code) of one fresh process, its output discarded."""
    start = time.perf_counter()
    code = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    return time.perf_counter() - start, code


def _stage_seconds(output_dir: Path) -> float:
    """The stage time of the one run that wrote into output_dir; NaN when it wrote no metadata."""
    metas = list(output_dir.glob("*.meta.json"))
    return json.loads(metas[0].read_text())["timings"]["wall_seconds"] if len(metas) == 1 else float("nan")


def _command_runs(command: str, env: dict, work: Path) -> dict:
    """{"cold": (wall, code, stage), "warm": (...)}: one run on an empty cache, then one on the cache it filled."""
    out = {}
    for state in ("cold", "warm"):
        output_dir = work / state
        argv = [sys.executable, "-m", "fracnls.cli", *command.split(),
                "--cache-dir", str(work / "cache"), "--output-dir", str(output_dir)]
        wall, code = _timed(argv, env)
        out[state] = (wall, code, _stage_seconds(output_dir))
    return out


def measure(sources: list, repeats: int) -> dict:
    """{(row, state): {source: [(wall, code, stage), ...]}}, repetitions alternating over the sources."""
    rows = {}
    for _ in range(repeats):
        for src in sources:
            env = _environment(src)
            wall, code = _timed([sys.executable, "-c", IMPORT], env)
            rows.setdefault((IMPORT, ""), {}).setdefault(src, []).append((wall, code, float("nan")))
            for command in COMMANDS:
                with tempfile.TemporaryDirectory() as tmp:
                    for state, run in _command_runs(command, env, Path(tmp)).items():
                        rows.setdefault((command, state), {}).setdefault(src, []).append(run)
    return rows


def _cells(runs: list) -> list:
    walls, codes, stages = zip(*runs)
    code = ",".join(str(c) for c in sorted(set(codes)))
    stage = statistics.median(stages)
    return [f"{statistics.median(walls):.3f}", code, "" if math.isnan(stage) else f"{stage:.3f}"]


def table(rows: dict, sources: list) -> str:
    names = [src or "installed" for src in sources]
    head = ["row", "state"] + [f"{label} {name}" for name in names for label in ("wall s", "exit", "stage s")]
    lines = ["| " + " | ".join(head) + " |", "|" + " --- |" * len(head)]
    for (row, state), runs in rows.items():
        cells = [f"`{row}`", state] + [cell for src in sources for cell in _cells(runs[src])]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    repeats = 5
    if args[:1] == ["--repeats"]:
        if len(args) < 2 or not args[1].isdigit() or int(args[1]) < 1:
            print(__doc__.split("\n\n")[1], file=sys.stderr)
            return 2
        repeats, args = int(args[1]), args[2:]
    if any(arg.startswith("-") for arg in args):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    sources = [str(Path(a).resolve()) for a in args] or [None]
    print(table(measure(sources, repeats), sources))
    return 0


if __name__ == "__main__":
    sys.exit(main())
