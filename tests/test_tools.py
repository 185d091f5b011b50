"""The measuring tools, `record_diff.py`, `sweep.py` and `readme_wall.py`, on small hand-made inputs."""

import json
import re
from pathlib import Path
from types import SimpleNamespace

import readme_wall
import record_diff
import sweep
import fracnls
from fracnls import cli, solvers


def test_record_diff_reports_a_changed_field_and_one_sided_keys(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    records = {
        old: {"gone": 1, "points": [{"theta": 1.0, "x": 2.0}, {"theta": 2.0, "x": 3.0}], "version": "0.1.0"},
        new: {"added": "a", "points": [{"theta": 1.0, "x": 2.0}, {"theta": 2.5, "x": 3.0}], "version": "0.1.0"},
    }
    for seconds, (root, record) in enumerate(records.items()):
        root.mkdir()
        (root / "kernel-0123abcd.json").write_text(json.dumps(record))
        (root / "kernel-0123abcd.meta.json").write_text(json.dumps({"seconds": seconds}))  # not a record
    assert record_diff.main([str(old), str(new)]) == 0
    assert capsys.readouterr().out == (
        "| field | values | changed | largest abs. change | largest rel. change |\n"
        "| --- | --- | --- | --- | --- |\n"
        "| `kernel.points[].theta` | 2 | 1 | 5.00e-01 | 2.50e-01 |\n"
        "\n"
        "1 numeric fields unchanged, 1 changed.\n"
        "Other differences:\n"
        "- kernel.added: only in new\n"
        "- kernel.gone: only in old\n"
        "- kernel-0123abcd.json: bytes differ\n"
        "1 of 1 paired files differ in bytes, 0 on one side only.\n"
    )


def test_record_diff_pairs_every_file_by_its_bytes(tmp_path, capsys):
    # CSV records, plot files and cache entries are paired by relative path;
    # metadata files and temporaries are not compared
    old, new = tmp_path / "old", tmp_path / "new"
    files = {
        "out/solve-0123abcd.json": ('{"theta": 1.0}', '{"theta": 1.0}'),
        "out/solve-0123abcd.csv": ("theta\n1.0\n", "theta\n1.00\n"),
        "out/solve-0123abcd.meta.json": ('{"seconds": 1}', '{"seconds": 2}'),
        "out/profiles-0123abcd/profile-s1.5-N0.1.dat": ("# x re\n0.0 1.0\n", "# x re\n0.0 1.0\n"),
        "cache/0123abcd.prof": ("FNLS1", "FNLS2"),
        "cache/.0123abcd.prof.12.tmp": ("FNLS", ""),
    }
    for rel, texts in files.items():
        for root, text in zip((old, new), texts):
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text(text)
    (old / "cache" / "fedcba98.prof").write_text("FNLS")  # on one side only
    assert record_diff.main([str(old), str(new)]) == 0
    assert capsys.readouterr().out.splitlines()[-5:] == [
        "3 numeric fields unchanged, 0 changed.",
        "- cache/0123abcd.prof: bytes differ",
        "- out/solve-0123abcd.csv: bytes differ",
        "- cache/fedcba98.prof: only in old",
        "2 of 4 paired files differ in bytes, 1 on one side only.",
    ]


def test_record_diff_refuses_files_that_are_not_records(tmp_path, capsys):
    # a CSV record or a metadata file is a usage error: one line, exit 2, no traceback
    for name in ("kernel-0123abcd.csv", "kernel-0123abcd.meta.json"):
        old, new = tmp_path / "old" / name, tmp_path / "new" / name
        for path in (old, new):
            path.parent.mkdir(exist_ok=True)
            path.write_text("s,N\n1.5,0.1\n")
        assert record_diff.main([str(old), str(new)]) == 2
        assert capsys.readouterr().err == "python tests/record_diff.py OLD NEW\n"


def _point(L, M, s, N, coarse, seconds, levels=None, theta=None, iterations=None, error=None):
    return {"L": L, "M": M, "s": s, "N": N, "coarse": coarse, "converged": error is None, "error": error,
            "theta": theta, "levels": levels, "iterations": iterations, "seconds": seconds}


def test_sweep_compare_reports_outcome_levels_and_times(tmp_path, capsys):
    error = "ConvergenceError: residual 1e-3 after 40 iterations"
    old = [
        _point(64.0, 4096, 1.5, 0.1, True, 0.5, [512, 4096], 1.0, 10),
        _point(64.0, 4096, 1.5, 0.2, True, 0.25, [4096], 2.0, 5),
        _point(32.0, 1024, 1.1, 2.4, False, 0.1, [1024], 3.0, 7),
    ]
    new = [
        _point(64.0, 4096, 1.5, 0.1, True, 0.4, [512, 4096], 1.0 + 1e-12, 12),
        _point(64.0, 4096, 1.5, 0.2, True, 0.2, [512, 4096], 2.0, 5),
        _point(32.0, 1024, 1.1, 2.4, False, 0.3, error=error),
    ]
    paths = []
    for name, points in (("old", old), ("new", new)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps({"points": points}))
    assert sweep.main(["compare", *map(str, paths)]) == 0
    assert capsys.readouterr().out == (
        "converged: 3 old, 2 new, 2 both, of 3 points\n"
        f"- outcome differs at (32.0, 1024, 1.1, 2.4): old converged; new {error}\n"
        "- levels differ at (64.0, 4096, 1.5, 0.2): [4096] -> [512, 4096]\n"
        "theta: largest relative change 1.00e-12\n"
        "iterations: 1 points changed, by +2 to +2\n"
        "failures: 0 on both sides, 0 with another message\n"
        "| kind of point (old) | points | old s | new s |\n"
        "| --- | --- | --- | --- |\n"
        "| converged from a coarse level | 1 | 0.50 | 0.40 |\n"
        "| converged on a grid without a coarse level | 1 | 0.10 | 0.30 |\n"
        "| converged through the fallback | 1 | 0.25 | 0.20 |\n"
        "| all | 3 | 0.85 | 0.90 |\n"
    )


def test_sweep_times_whole_passes_and_keeps_the_best_per_point(monkeypatch):
    # each solve advances a fake clock by its scripted duration
    durations = iter([3.0, 5.0, 1.0, 4.0, 2.0, 6.0])
    clock, calls = [0.0], []

    def solve(grid, params):
        calls.append(params.N)
        clock[0] += next(durations)
        return SimpleNamespace(converged=True, multiplier=params.N, history={"points": [grid.points]},
                               iterations=len(calls))

    monkeypatch.setattr(sweep, "GRIDS", ((64.0, 512),))
    monkeypatch.setattr(sweep, "S_VALUES", (1.5,))
    monkeypatch.setattr(sweep, "N_VALUES", (0.1, 0.2))
    monkeypatch.setattr(sweep.time, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(solvers, "petviashvili_mass_constrained", solve)
    points = sweep.sweep()
    assert calls == [0.1, 0.2] * 3  # three whole passes, not three solves in a row
    assert [(p["N"], p["seconds"], p["iterations"]) for p in points] == [(0.1, 1.0, 1), (0.2, 4.0, 2)]
    assert list(points[0]) == ["L", "M", "s", "N", "coarse", "converged", "error", "theta", "levels", "iterations",
                               "seconds"]


def test_readme_wall_times_the_readme_commands():
    # COMMANDS are the README's CLI block without its comments: one command
    # per pipeline, listed in the CLI's order, each with its flags
    assert [command.split()[0] for command in readme_wall.COMMANDS] == list(cli.COMMANDS)
    assert not any("#" in command for command in readme_wall.COMMANDS)


def test_readme_wall_reports_wall_exit_and_stage_per_state(monkeypatch, capsys):
    src = str(Path(fracnls.__file__).parents[1])
    monkeypatch.setattr(readme_wall, "COMMANDS", ("kernel --s-list 1.5 --n-list 0.2",))
    assert readme_wall.main(["--repeats", "1", src]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"| row | state | wall s {src} | exit {src} | stage s {src} |"
    number = r"\d+\.\d{3}"
    assert re.fullmatch(rf"\| `import fracnls.cli` \|  \| {number} \| 0 \|  \|", lines[2])
    for line, state in zip(lines[3:], ("cold", "warm")):
        assert re.fullmatch(rf"\| `kernel --s-list 1.5 --n-list 0.2` \| {state} \| {number} \| 0 \| {number} \|", line)
    assert len(lines) == 5
    assert readme_wall.main(["--repeats", "0"]) == readme_wall.main(["--bogus"]) == 2
