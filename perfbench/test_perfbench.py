"""Tests of the benchmark's own machinery: inputs, isolation, checks and spans.

Run from the root of the repository with ``python3 -m pytest perfbench``
(about a minute); the repository's own suite does not collect them.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import worker  # noqa: E402
from spans import TARGETS, Tracer, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    MASS_FACTOR,
    S_VALUES,
    WORKLOADS,
    Command,
    Op,
    Workload,
    argv,
    draw_round,
    fill_argvs,
)

cli = worker.load_cli()


def trace_ops(workload, ops, run_dir):
    runner = worker.OpRunner(cli, workload, ops, run_dir)
    if workload.cache == "warm":
        runner.fill_cache()
    tracer = Tracer()
    results = []
    tracer.install()
    try:
        worker.run_round(runner, results, tracer)
    finally:
        tracer.uninstall()
    assert [r["failure"] for r in results] == [None] * len(ops)
    return tracer, layer_metrics(tracer, len(ops))


def op_with_s(name, seed, s):
    return [op for op in draw_round(WORKLOADS[name], seed) if op.s == s]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced op of every workload, seed 0, s = 1.5 (the cheapest)."""
    return {
        name: trace_ops(WORKLOADS[name], op_with_s(name, 0, 1.5), tmp_path_factory.mktemp(name))
        for name in WORKLOADS
    }


def test_rounds_come_from_the_seed_alone():
    for wl in WORKLOADS.values():
        first = draw_round(wl, 7)
        assert first == draw_round(wl, 7)
        assert first != draw_round(wl, 8)
        assert sorted(op.s for op in first) == list(S_VALUES)
        for op in first:
            for cmd, masses in zip(wl.commands, op.masses):
                for base, mass in zip(cmd.masses, masses):
                    assert MASS_FACTOR[0] * base <= float(mass) <= MASS_FACTOR[1] * base


def test_every_path_stays_in_the_run_directory(tmp_path):
    cache, out = str(tmp_path / "cache"), str(tmp_path / "out")
    for wl in WORKLOADS.values():
        for op in draw_round(wl, 0):
            calls = [argv(cmd, op.s, m, cache, out) for cmd, m in zip(wl.commands, op.masses)]
            calls += fill_argvs(wl, op, cache, out)
            for args in calls:
                assert args[args.index("--cache-dir") + 1] == cache
                assert args[args.index("--output-dir") + 1] == out
                assert args[args.index("--workers") + 1] == "1"


def test_every_wrapper_records_a_call(traced):
    called = set()
    for tracer, _ in traced.values():
        called |= {span[0] for span in tracer.spans}
    assert called == set(TARGETS)


def test_wrappers_reach_the_calling_modules_bindings(traced):
    tracer, _ = traced["solve-cold"]
    assert "fracnls.cli.cached_solve" in tracer.bindings["cache.cached_solve"]
    assert "fracnls.cli.tail_fit" in tracer.bindings["asymptotics.tail_fit"]
    assert "fracnls.solvers.pad_evaluate" in tracer.bindings["spectral.pad_evaluate"]
    assert "fracnls.asymptotics._laplace_quad" in tracer.bindings["symbols.laplace_quad"]


def test_uninstall_restores_the_originals():
    from fracnls import asymptotics, cache, linearized

    before = (cli.cached_solve, cache.cached_solve, asymptotics._KernelTail.__init__,
              linearized.LinearizedOperator.dense)
    tracer = Tracer()
    tracer.install()
    assert cli.cached_solve is not before[0]
    tracer.uninstall()
    after = (cli.cached_solve, cache.cached_solve, asymptotics._KernelTail.__init__,
             linearized.LinearizedOperator.dense)
    assert after == before


def test_cache_hit_ratios(traced):
    assert traced["solve-cold"][1]["cache.hit_ratio"]["value"] == 0.0
    assert traced["solve-cold"][1]["cache.bytes_written"]["value"] > 0
    assert traced["analysis-warm"][1]["cache.hit_ratio"]["value"] == 1.0
    assert traced["analysis-warm"][1]["cache.bytes_read"]["value"] > 0


@pytest.mark.parametrize("seed, s", [(0, 1.5), (3, 1.3)])
def test_analysis_warm_exact_counts(traced, tmp_path, seed, s):
    wl = WORKLOADS["analysis-warm"]
    if (seed, s) == (0, 1.5):
        metrics = traced[wl.name][1]
    else:
        metrics = trace_ops(wl, op_with_s(wl.name, seed, s), tmp_path)[1]
    assert {name: metrics[name]["value"] for name in wl.expected_counts} == wl.expected_counts


def test_traced_counts_repeat(tmp_path):
    wl = WORKLOADS["solve-random"]
    ops = op_with_s(wl.name, 2, 1.5)
    runs = [trace_ops(wl, ops, tmp_path / str(k))[1] for k in range(2)]
    counts = [
        {k: v["value"] for k, v in run.items() if v["unit"] in ("count", "B", "ratio")} for run in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["solvers.inner_iterations"] > 0


SMALL = Command("verify-th2", (0.1,), (64.0, 1024))


def test_a_warm_cache_write_fails_the_op(tmp_path):
    wl = Workload("t", "", (SMALL,), cache="warm")
    runner = worker.OpRunner(cli, wl, draw_round(wl, 0)[:1], tmp_path)
    seconds, failure = runner.run(0)  # the cache was never filled
    assert seconds > 0
    assert failure.startswith("cache hit ratio below 1")


def test_changed_record_bytes_fail_the_op(tmp_path):
    wl = Workload("t", "", (SMALL,), cache="cold")
    runner = worker.OpRunner(cli, wl, draw_round(wl, 0)[:1], tmp_path)
    assert runner.run(0)[1] is None
    assert runner.run(0)[1] is None
    name = next(iter(runner.reference[0]))
    runner.reference[0][name] += b" "
    assert runner.run(0)[1] == "record bytes differ from the first run of this op"


def test_a_failed_check_fails_the_op(tmp_path):
    # s = 1.7 fails the tail checks at the README grids (the reason the
    # workloads stop at s = 1.5)
    wl = Workload("t", "", (Command("verify-th4", (0.1,), (256.0, 16384)),), cache="none")
    runner = worker.OpRunner(cli, wl, [Op(1.7, (("0.1",),))], tmp_path)
    assert runner.run(0)[1].startswith("verify-th4 exited with code")
