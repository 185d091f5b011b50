"""The two comparison tools, `record_diff.py` and `sweep.py compare`, on small hand-made inputs."""

import json

import record_diff
import sweep


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
    )


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
