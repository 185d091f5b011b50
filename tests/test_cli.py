"""CLI runner: config handling, record emission, determinism, exit codes."""

import contextlib
import csv
import hashlib
import io
import json
import os
import struct
import subprocess
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracnls import __version__, asymptotics, cli
from fracnls.cache import cache_key, cached_solve, load_result, store_result
from fracnls.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_CRITERION_FAIL,
    EXIT_OK,
    EXIT_SOLVER_FAILURE,
    ConfigError,
    RunConfig,
    RunRecord,
    build_config,
    emit_outputs,
    emit_profile_plotdata,
    load_config_file,
    main,
    make_parser,
    run,
)
from fracnls.solvers import SolveResult, local_ground_state
from fracnls.spectral import SpectralGrid, fft

FAST_GRID = {"grid_l": 64.0, "grid_m": 512, "tol": 1e-9}


def fast_config(command, tmp_path, **kw):
    base = dict(
        command=command,
        s_list=(1.5,),
        n_list=(0.2, 0.1),
        cache_dir=str(tmp_path / "cache"),
        output_dir=str(tmp_path / "out"),
        **FAST_GRID,
    )
    base.update(kw)
    return RunConfig(**base)


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which RFC 8259 JSON does not have."""
    def refuse(name):
        raise ValueError(f"non-finite JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


def csv_rows(text):
    """The CSV's rows, each checked as wide as the header."""
    header, *rows = csv.reader(io.StringIO(text))
    assert all(len(row) == len(header) for row in rows)
    return [dict(zip(header, row)) for row in rows]


# -- config -------------------------------------------------------------------

def test_config_rejects_empty_lists(tmp_path):
    with pytest.raises(ConfigError, match="nonempty"):
        fast_config("solve", tmp_path, n_list=())


def test_config_rejects_unknown_command(tmp_path):
    with pytest.raises(ConfigError, match="unknown command"):
        fast_config("explode", tmp_path)


def test_empty_n_list_exits_with_config_error(tmp_path):
    code = main(["solve", "--n-list", "", "--output-dir", str(tmp_path)])
    assert code == EXIT_CONFIG_ERROR


@pytest.mark.parametrize(
    "flags,named",
    [
        (["--grid-m", "1000"], "M must"), (["--grid-l", "0"], "L must"),
        (["--beta-list", "0"], "unrecognized arguments: --beta-list 0"), (["--n-list", "-0.1"], "N-list"),
        (["--inits", "1"], "inits"), (["--tol", "0"], "tol"), (["--tol", "-1"], "tol"),
        (["--n-list", "inf"], "N-list"), (["--workers", "0"], "workers"),
        (["--grid-m", "abc"], "--grid-m"), (["--workers", "x"], "--workers"),
        (["--s-list", "abc"], "--s-list"), (["--config", "/missing.cfg"], "--config"),
        (["--format", "json"], "unrecognized arguments: --format json"),
        (["--grid-m", "1125899906842624"], "M must be at most"),
        # s >= 1.8 is past desk scale; nearer 2, lambda(s) and kappa underflow
        (["--s-list", "1.8"], "s = 1.8 is past desk scale"),
        (["--s-list", "1.5,1.95", "--grid-m", "256"], "s = 1.95 is past desk scale"),
        (["--s-list", "1.999", "--grid-m", "256"], "1/sqrt(lambda(s)) = inf"),
        (["--s-list", "1.5,1.5"], "--s-list repeats a value"), (["--n-list", "0.2,0.2"], "--n-list repeats a value"),
    ],
    ids=[
        "grid-m", "grid-l", "beta-list", "n-list", "inits", "tol-zero", "tol-negative", "n-list-inf",
        "workers", "grid-m-text", "workers-text", "s-list-text", "config-missing", "format",
        "grid-m-huge", "s-1.8", "s-1.95", "s-1.999", "s-list-repeated", "n-list-repeated",
    ],
)
def test_bad_flag_value_exits_with_config_error(tmp_path, capsys, flags, named):
    code = main(["solve", *flags, "--cache-dir", str(tmp_path / "cache"), "--output-dir", str(tmp_path)])
    assert code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert named in err


# one text per setting, with the value it must parse to
SETTING_SAMPLES = {
    "s_list": ("1.25, 1.5", (1.25, 1.5)),
    "n_list": ("0.3", (0.3,)),
    "grid_l": ("32", 32.0),
    "grid_m": ("256", 256),
    "tol": ("1e-8", 1e-8),
    "inits": ("3", 3),
    "cache_dir": ("some-cache", "some-cache"),
    "output_dir": ("some-out", "some-out"),
    "workers": ("2", 2),
}


def test_every_setting_has_a_flag_and_a_config_key(tmp_path):
    assert set(SETTING_SAMPLES) == set(cli.SETTINGS)
    for name, (text, value) in SETTING_SAMPLES.items():
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(f"{name.replace('_', '-')} = {text}\n")
        from_flag = build_config(make_parser().parse_args(["solve", "--" + name.replace("_", "-"), text]))
        from_file = build_config(make_parser().parse_args(["solve", "--config", str(cfg)]))
        for config in (from_flag, from_file):
            assert getattr(config, name) == value
            assert type(getattr(config, name)) is type(cli.SETTINGS[name].default)


@pytest.mark.parametrize("s", ["2.5", "nan", "1.0"])
def test_gn_constant_bad_s_exits_with_config_error(tmp_path, capsys, s):
    code = main(["gn-constant", "--s-list", s, "--cache-dir", str(tmp_path / "cache"), "--output-dir", str(tmp_path)])
    assert code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# example configuration\n"
        "s-list = 1.5\n"
        "n-list = 0.2, 0.1\n"
        "grid-l = 64\n"
        "grid-m = 512\n"
        "tol = 1e-9\n"
    )
    args = make_parser().parse_args(
        ["solve", "--config", str(cfg), "--n-list", "0.3", "--output-dir", str(tmp_path)]
    )
    config = build_config(args)
    assert config.n_list == (0.3,)  # flag wins
    assert config.grid_m == 512  # file value survives
    assert config.s_list == (1.5,)


def test_config_file_malformed(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not a key value line\n")
    with pytest.raises(ConfigError, match="malformed"):
        load_config_file(cfg)


def test_config_hash_stable(tmp_path):
    a = fast_config("solve", tmp_path)
    b = fast_config("solve", tmp_path)
    assert a.config_hash() == b.config_hash()
    c = fast_config("solve", tmp_path, n_list=(0.2,))
    assert a.config_hash() != c.config_hash()


def test_config_echo_leaves_out_deployment(tmp_path):
    config = fast_config("verify-th3", tmp_path, workers=3)
    assert config.echo() == {
        "command": "verify-th3", "s_list": (1.5,), "n_list": (0.2, 0.1),
        "grid_l": 64.0, "grid_m": 512, "tol": 1e-9, "inits": 5,
    }
    moved = fast_config("verify-th3", tmp_path / "elsewhere", workers=1)
    assert moved.config_hash() == config.config_hash()


# -- records and emission ------------------------------------------------------

@pytest.fixture(scope="module")
def solve_record(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli-solve")
    config = fast_config("solve", tmp)
    record = run(config)
    return {"config": config, "record": record, "tmp": tmp}


def test_solve_record_checks(solve_record):
    record = solve_record["record"]
    assert len(record.points) == 2
    for pt in record.points:
        assert pt["error"] is None
        assert pt["checks"]["el_residual"]["pass"]
        assert pt["checks"]["mass_constraint"]["pass"]
        assert pt["checks"]["el_residual"]["value"] <= pt["checks"]["el_residual"]["threshold"]


def test_emitted_json_validates_against_schema(solve_record):
    import jsonschema
    from importlib.resources import files

    config, record = solve_record["config"], solve_record["record"]
    paths = emit_outputs(record, config)
    json_path = next(p for p in paths if p.suffix == ".json" and "meta" not in p.name)
    payload = json.loads(json_path.read_text())
    schema = json.loads(files("fracnls").joinpath("schemas/run_record.schema.json").read_text())
    jsonschema.validate(payload, schema)


def test_schema_config_is_the_echoed_settings():
    from importlib.resources import files

    schema = json.loads(files("fracnls").joinpath("schemas/run_record.schema.json").read_text())
    config = schema["properties"]["config"]
    echoed = [f.name for f in fields(RunConfig) if not f.metadata.get("deployment")]
    assert sorted(config["required"]) == sorted(echoed) == sorted(config["properties"])
    assert config["additionalProperties"] is False


def test_csv_parse_emit_parse_identity(solve_record):
    config, record = solve_record["config"], solve_record["record"]
    paths = emit_outputs(record, config)
    csv_path = next(p for p in paths if p.suffix == ".csv")
    text1 = csv_path.read_text()
    header, *rows = text1.strip().split("\n")
    parsed = [dict(zip(header.split(","), row.split(","))) for row in rows]
    # re-emit from the parsed representation
    lines = [header]
    for rowdict in parsed:
        lines.append(",".join(rowdict[col] for col in header.split(",")))
    text2 = "\n".join(lines) + "\n"
    assert text2 == text1


def test_csv_cells_of_numpy_scalars_parse_as_floats(tmp_path):
    config = fast_config("kernel", tmp_path)
    values = {"envelope_ratio": np.float64(1.0000002618099988), "exp_amplitude_oracle": np.float64(0.75)}
    point = {"s": 1.5, "N": 0.2, **values, "checks": {}, "error": None}
    paths = emit_outputs(RunRecord(config={}, points=[point], timings={}), config)
    header, row = next(p for p in paths if p.suffix == ".csv").read_text().strip().split("\n")
    cells = dict(zip(header.split(","), row.split(",")))
    for name, value in values.items():
        assert float(cells[name]) == value


def test_plotdata_row_count(solve_record, tmp_path):
    from fracnls.spectral import Profile, SpectralGrid

    grid = SpectralGrid(64.0, 512)
    prof = Profile(grid, np.exp(-grid.x**2).astype(complex))
    path = tmp_path / "plot.dat"
    emit_profile_plotdata(prof, path)
    data = np.loadtxt(path)
    assert data.shape == (512, 4)


def test_metadata_file_separate(solve_record):
    config, record = solve_record["config"], solve_record["record"]
    paths = emit_outputs(record, config)
    meta = next(p for p in paths if p.name.endswith(".meta.json"))
    payload = json.loads(meta.read_text())
    assert "timings" in payload and "written_at" in payload
    json_main = next(p for p in paths if p.suffix == ".json" and "meta" not in p.name)
    assert "written_at" not in json_main.read_text()


# -- determinism ----------------------------------------------------------------

def _emit_bytes(config):
    record = run(config)
    paths = emit_outputs(record, config)
    out = {}
    for p in paths:
        if p.name.endswith(".meta.json"):
            continue
        out[p.name] = p.read_bytes()
    return out


@pytest.mark.parametrize("command", ["solve", "verify-th2", "verify-th3", "linearize"])
def test_serial_parallel_identical(tmp_path, command):
    serial = _emit_bytes(fast_config(command, tmp_path, workers=1, inits=2))
    parallel = _emit_bytes(fast_config(command, tmp_path, workers=2, inits=2))
    # the config echo leaves `workers` out, so whole records must match
    assert sorted(name.rsplit(".", 1)[1] for name in serial) == ["csv", "json"]
    assert serial == parallel
    for name, data in serial.items():
        if name.endswith(".csv"):
            assert csv_rows(data.decode())
        else:
            assert strict_json(data.decode())["points"]


def test_record_bytes_independent_of_deployment(tmp_path):
    def records(workers, tag):
        out = tmp_path / f"out-{tag}"
        args = ["solve", "--s-list", "1.5", "--n-list", "0.2,0.1", "--grid-l", "64", "--grid-m", "512",
                "--tol", "1e-9", "--workers", workers, "--cache-dir", str(tmp_path / f"cache-{tag}"),
                "--output-dir", str(out)]
        assert main(args) == EXIT_OK
        return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*"))
                if p.is_file() and not p.name.endswith(".meta.json")}

    serial = records("1", "a")
    assert records("2", "b") == serial
    assert sorted(p.suffix for p in serial if p.parent == Path(".")) == [".csv", ".json"]


# LOBPCG (linearize) and the Newton steps' MINRES (verify-th2) run on BLAS; on a
# 2-vCPU host, two BLAS threads moved eigenvalues by up to 4.7e-15 and the
# residual by 4.6e-16 relative against one
_BLAS_COMMANDS = (
    ["linearize", "--s-list", "1.2,1.3", "--n-list", "0.1", "--grid-l", "128", "--grid-m", "1024"],
    ["verify-th2", "--s-list", "1.5", "--n-list", "0.2,0.1", "--grid-l", "256", "--grid-m", "16384"],
)


def test_record_bytes_independent_of_blas_threads(tmp_path):
    """One interpreter per OPENBLAS_NUM_THREADS (unset, 1, 2; and 2 with two workers) writes the same records.

    The variable is read as each OpenBLAS copy loads, before `main` runs, so
    only a fresh interpreter shows what it does.
    """
    script = "import json, sys\nfrom fracnls.cli import main\nsys.exit(max(main(a) for a in json.loads(sys.argv[1])))"
    src = str(Path(cli.__file__).parents[1])

    def records(threads, workers, tag):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / f"out-{tag}"
        runs = [cmd + ["--workers", workers, "--cache-dir", str(tmp_path / f"cache-{tag}"), "--output-dir", str(out)]
                for cmd in _BLAS_COMMANDS]
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs)], env=env, capture_output=True, text=True,
                              timeout=600)
        assert proc.returncode == EXIT_OK, proc.stderr
        return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.suffix in (".csv", ".json")
                and not p.name.endswith(".meta.json")}

    unset = records(None, "1", "unset")
    assert sorted(Path(name).suffix for name in unset) == [".csv", ".csv", ".json", ".json"]
    for threads, workers in (("1", "1"), ("2", "1"), ("2", "2")):
        assert records(threads, workers, f"{threads}-{workers}") == unset, (threads, workers)


@pytest.mark.parametrize("n_list,pool_size", [((0.2, 0.1), 2), ((0.2,), None)])
def test_worker_pool_never_exceeds_the_points(tmp_path, monkeypatch, n_list, pool_size):
    import fracnls.cli as cli

    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    record = run(fast_config("solve", tmp_path, n_list=n_list, workers=5000))
    assert sizes == ([] if pool_size is None else [pool_size])
    assert not record.any_failure()


def test_uniqueness_point_independent_of_other_points(tmp_path):
    # each point draws its random starts from its own generator
    both = run(fast_config("verify-th3", tmp_path, n_list=(0.2, 0.1), inits=2)).points
    alone = run(fast_config("verify-th3", tmp_path, n_list=(0.2,), inits=2)).points
    assert [pt["N"] for pt in both] == [0.1, 0.2]
    assert both[1] == alone[0]


def _assert_rerun_recomputes(tmp_path, corrupt):
    """A CLI rerun over a cache entry that ``corrupt`` rewrote exits 0, writes the
    same records and restores the entry."""
    config = fast_config("solve", tmp_path, n_list=(0.2,))
    first = _emit_bytes(config)
    (prof,) = Path(config.cache_dir).glob("*.prof")
    stored = prof.read_bytes()
    prof.write_bytes(corrupt(stored))
    args = ["solve", "--s-list", "1.5", "--n-list", "0.2", "--grid-l", "64", "--grid-m", "512",
            "--tol", "1e-9", "--cache-dir", config.cache_dir, "--output-dir", config.output_dir]
    assert main(args) == EXIT_OK
    second = {p.name: p.read_bytes() for p in Path(config.output_dir).iterdir() if p.name in first}
    assert second == first
    assert prof.read_bytes() == stored


@pytest.mark.parametrize("size", [30, 1000])  # short header, short payload
def test_truncated_cache_entry_is_recomputed(tmp_path, size):
    _assert_rerun_recomputes(tmp_path, lambda stored: stored[:size])


@pytest.mark.parametrize("points", [2**40, 256], ids=["huge", "other-grid"])
def test_cache_entry_with_a_wrong_grid_size_is_recomputed(tmp_path, points):
    # bytes 16-24 of the header hold M
    _assert_rerun_recomputes(tmp_path, lambda stored: stored[:16] + points.to_bytes(8, "little") + stored[24:])


def _stored_solve(grid, residual=3.5e-12):
    return SolveResult(grid, fft(local_ground_state(1.5, 0.05, grid).values), 0.0492, residual, -0.125, 21, True)


@pytest.mark.parametrize("residual", [np.nan, 1.0000003])
def test_cache_entry_round_trip_keeps_every_field(tmp_path, residual):
    # a NaN residual and one just off a round number both come back bit for bit
    grid = SpectralGrid(48.0, 128)
    result = _stored_solve(grid, residual)
    store_result(tmp_path, "k", result)
    back = load_result(tmp_path, "k", grid)
    assert back.grid is grid
    for f in fields(SolveResult):
        if f.name not in ("grid", "history"):  # the solver's per-iterate log is not stored
            assert np.array_equal(getattr(back, f.name), getattr(result, f.name), equal_nan=True), f.name
            assert type(getattr(back, f.name)) is type(getattr(result, f.name)), f.name


def test_cache_entry_with_a_bad_magic_is_a_miss(tmp_path):
    grid = SpectralGrid(48.0, 128)
    store_result(tmp_path, "k", _stored_solve(grid))
    prof = tmp_path / "k.prof"
    prof.write_bytes(b"JUNK" + prof.read_bytes()[4:])
    assert load_result(tmp_path, "k", grid) is None


def test_format_2_cache_entry_is_a_miss_and_is_rewritten(tmp_path):
    s, n, tol = 1.5, 0.2, 1e-9
    grid = SpectralGrid(48.0, 128)
    key = cache_key(s, n, grid.length, grid.points, tol)
    old = _stored_solve(grid)
    # format 2: magic, version, L, M, multiplier, residual, energy, iterations,
    # converged and a stabilization factor, then the profile's grid values
    header = struct.pack("<4sIdQdddIId", b"FNLS", 2, grid.length, grid.points, old.multiplier,
                         old.residual, old.energy, old.iterations, old.converged, 1.0)
    (tmp_path / f"{key}.prof").write_bytes(header + old.profile.values.astype("<c16").tobytes())
    assert load_result(tmp_path, key, grid) is None
    fresh = replace(old, multiplier=0.0493)
    got, hit = cached_solve(tmp_path, s, n, grid, tol, lambda: fresh)
    assert got is fresh and not hit
    assert load_result(tmp_path, key, grid).multiplier == 0.0493


def test_each_solve_is_one_file_named_by_its_key(tmp_path):
    # the benchmark counts stored solves by file-name stem
    config = fast_config("solve", tmp_path)
    run(config)
    keys = {cache_key(1.5, n, config.grid_l, config.grid_m, config.tol) for n in config.n_list}
    assert sorted(p.name for p in Path(config.cache_dir).iterdir()) == sorted(f"{k}.prof" for k in keys)


def test_secant_solver_entry_is_a_miss(tmp_path):
    # the key payload as it stood before the solver fingerprint, for the same point
    s, n, length, points, tol = 1.5, 0.2, 64.0, 512, 1e-9
    payload = {"version": __version__, "s": repr(s), "N": repr(n), "L": repr(length), "M": points,
               "method": "petviashvili", "tol": repr(tol)}
    old_key = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:24]
    grid = SpectralGrid(length, points)
    assert cache_key(s, n, length, points, tol) != old_key

    def result(theta):
        return SolveResult(grid, fft(local_ground_state(s, 0.05, grid).values), theta, 0.0, 0.0, 1, True)

    store_result(tmp_path, old_key, result(1.0))
    assert load_result(tmp_path, old_key, grid).multiplier == 1.0
    got, hit = cached_solve(tmp_path, s, n, grid, tol, lambda: result(2.0))
    assert (got.multiplier, hit) == (2.0, False)


def test_cache_key_digest_is_stable():
    # the digest of the entries written by the Newton-MINRES solver on DFT
    # coefficients with the closed-form lambda(s), the start from the coarse
    # grid of spacing min(1/8, 0.5/sqrt(lambda(s))), the Petviashvili hand-off
    # on DFT coefficients and the finish from the last residual's nonlinearity
    assert cache_key(1.5, 0.2, 64.0, 512, 1e-9) == "540933aa96770e93382bd1b9"


@pytest.mark.parametrize("command", ["solve", "linearize"])
def test_cache_replay_identical(tmp_path, command):
    # a warm run reads the coefficients the cold one solved for: the profile and the
    # linearization are formed from the same bits
    config = fast_config(command, tmp_path)
    first = _emit_bytes(config)
    cache_files = set(Path(config.cache_dir).iterdir())
    assert cache_files  # solves were stored
    second = _emit_bytes(config)
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
    assert set(Path(config.cache_dir).iterdir()) == cache_files


# -- exit codes -------------------------------------------------------------------

def test_main_roundtrip_ok(tmp_path):
    code = main(
        [
            "solve",
            "--s-list", "1.5",
            "--n-list", "0.2",
            "--grid-l", "64",
            "--grid-m", "512",
            "--tol", "1e-9",
            "--cache-dir", str(tmp_path / "cache"),
            "--output-dir", str(tmp_path / "out"),
        ]
    )
    assert code == EXIT_OK


@pytest.mark.parametrize("libc", ["missing", "no-mallopt", "glibc"])
def test_heap_setting_is_once_per_process_and_optional(tmp_path, monkeypatch, libc):
    settings, lookups = [], []

    def mallopt(param, value):  # a plain function takes argtypes like a ctypes one
        settings.append((param, value))
        return 1

    def lookup(name):
        lookups.append(name)
        if libc == "missing":
            raise OSError("no libc")
        return SimpleNamespace(mallopt=mallopt) if libc == "glibc" else SimpleNamespace()

    monkeypatch.setattr(cli.ctypes, "CDLL", lookup)
    cli._keep_heap.cache_clear()
    argv = ["solve", "--s-list", "1.5", "--n-list", "0.2", "--grid-l", "64", "--grid-m", "512",
            "--tol", "1e-9", "--cache-dir", str(tmp_path / "cache"), "--output-dir", str(tmp_path / "out")]
    try:
        assert main(argv) == EXIT_OK
        assert main(argv) == EXIT_OK
    finally:
        cli._keep_heap.cache_clear()
    assert lookups == [None]
    # M_MMAP_THRESHOLD = 1 MiB, M_TRIM_THRESHOLD = 4 MiB, set once
    assert settings == ([(-3, 1 << 20), (-1, 4 << 20)] if libc == "glibc" else [])


def test_solver_failure_exit(tmp_path):
    # kernel windows cannot separate at this mass: recorded error, exit 3
    code = main(
        [
            "kernel",
            "--s-list", "1.5",
            "--n-list", "1.8",
            "--cache-dir", str(tmp_path / "cache"),
            "--output-dir", str(tmp_path / "out"),
        ]
    )
    assert code == EXIT_SOLVER_FAILURE


def test_newton_failure_exits_3_with_one_line(tmp_path, capsys):
    # no residual reaches 1e-30: Newton stalls at roundoff and says so in one line
    code = main(["solve", "--s-list", "1.5", "--n-list", "0.1", "--tol", "1e-30",
                 "--cache-dir", str(tmp_path / "cache"), "--output-dir", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert code == EXIT_SOLVER_FAILURE
    errors = [line for line in out.splitlines() if "ERROR" in line]
    assert len(errors) == 1 and "steps" in errors[0] and "residual" in errors[0]
    assert "Traceback" not in out + err
    (record,) = [p for p in Path(tmp_path / "out").glob("solve-*.json") if not p.name.endswith(".meta.json")]
    (point,) = json.loads(record.read_text())["points"]
    assert "\n" not in point["error"] and point["error"] in errors[0]
    # the error has commas: its cell is quoted, and the row stays as wide as the header
    assert "," in point["error"]
    (row,) = csv_rows(record.with_suffix(".csv").read_text())
    assert row["error"] == point["error"]


def _record(outdir, command):
    (record,) = [p for p in Path(outdir).glob(f"{command}-*.json") if not p.name.endswith(".meta.json")]
    return strict_json(record.read_text())


def test_collapsed_newton_iterate_exits_3_with_one_line(tmp_path, capsys):
    # the random starts collapse on this 4-wide torus; the Newton step's
    # symmetry pair is then rank-deficient, which used to end in a traceback
    code = main(["verify-th3", "--s-list", "1.7126254254714588", "--n-list", "0.001", "--grid-l", "4",
                 "--grid-m", "256", "--tol", "0.5", "--inits", "2",
                 "--cache-dir", str(tmp_path / "cache"), "--output-dir", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert code == EXIT_SOLVER_FAILURE
    errors = [line for line in out.splitlines() if "ERROR" in line]
    assert len(errors) == 1 and "collapsed" in errors[0] and "linearly dependent" in errors[0]
    assert "Traceback" not in out + err
    (point,) = _record(tmp_path / "out", "verify-th3")["points"]
    assert point["error"] in errors[0]


@pytest.mark.parametrize(
    "argv,failed,fields",
    [
        # the far-window amplitude overflowed into "envelope_ratio": Infinity
        (["kernel", "--s-list", "1.5949", "--n-list", "0.0001"], [1e-4], "envelope_ratio"),
        # zero far-window samples made "alg_exponent": NaN
        (["kernel", "--s-list", "1.79", "--n-list", "0.001,0.2"], [0.001], "alg_exponent"),
        (["verify-th4", "--s-list", "1.6", "--n-list", "0.0001,0.2", "--grid-l", "128", "--grid-m", "1024",
          "--tol", "1e-12"], [1e-4], "alg_exponent"),
        # a finite far-window amplitude over the model envelope overflowed into "envelope_ratio": Infinity
        (["kernel", "--s-list", "1.6715074120809403", "--n-list", "0.001281389628485582"],
         [0.001281389628485582], "envelope_ratio"),
        # nine abscissae rounded to one made a noise slope and a failing "frequency" verdict
        (["kernel", "--s-list", "1.79", "--n-list", "0.05"], [0.05], "oscillation_frequency"),
    ],
)
def test_log_linear_fit_failures_are_errors_not_non_finite_records(tmp_path, capsys, argv, failed, fields):
    code = main(argv + ["--cache-dir", str(tmp_path / "cache"), "--output-dir", str(tmp_path / "out")])
    assert code == EXIT_SOLVER_FAILURE
    points = _record(tmp_path / "out", argv[0])["points"]
    errors = [pt for pt in points if pt["error"]]
    assert [pt["N"] for pt in errors] == failed
    assert all(fields in pt["error"] and "\n" not in pt["error"] for pt in errors)


def test_verify_th2_without_a_converged_point_has_no_summary(tmp_path, capsys):
    # a summary of no points would carry Infinity, which is not JSON, and pass its monotonicity vacuously
    code = main(["verify-th2", "--s-list", "1.5", "--n-list", "0.2", "--tol", "1e-30", "--grid-m", "1024",
                 "--cache-dir", str(tmp_path / "cache"), "--output-dir", str(tmp_path / "out")])
    assert code == EXIT_SOLVER_FAILURE
    (record,) = [p for p in Path(tmp_path / "out").glob("verify-th2-*.json") if not p.name.endswith(".meta.json")]
    (point,) = strict_json(record.read_text())["points"]
    assert point["error"] and "summary" not in point
    assert len(csv_rows(record.with_suffix(".csv").read_text())) == 1


def test_newton_step_out_of_the_positive_cone_exits_3_with_one_line(tmp_path, capsys):
    # at s = 1.6 on the default torus the first Newton step takes theta below -min n_N
    code = main(["solve", "--s-list", "1.6", "--n-list", "0.1",
                 "--cache-dir", str(tmp_path / "cache"), "--output-dir", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert code == EXIT_SOLVER_FAILURE
    errors = [line for line in out.splitlines() if "ERROR" in line]
    assert len(errors) == 1 and "newton step 1 moved theta" in errors[0] and "not positive" in errors[0]
    assert "Traceback" not in out + err


def test_unconverged_solve_fails_linearize_with_one_line(tmp_path, capsys, monkeypatch):
    def unconverged(grid, params, tol):
        return SolveResult(grid, fft(local_ground_state(params.s, params.lam, grid).values), params.lam,
                           1e-3, 0.0, 1, False)

    monkeypatch.setattr(cli, "petviashvili_mass_constrained", unconverged)
    code = main(["linearize", "--s-list", "1.3", "--n-list", "0.1", "--grid-l", "64", "--grid-m", "512",
                 "--cache-dir", str(tmp_path / "cache"), "--output-dir", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert code == EXIT_SOLVER_FAILURE
    errors = [line for line in out.splitlines() if "ERROR" in line]
    assert len(errors) == 1 and "residual" in errors[0] and "converged" in errors[0]
    assert "Traceback" not in out + err


def test_nonzero_winding_fails_its_check_with_exit_1(tmp_path, capsys, monkeypatch):
    # a root of f2 is a failed check of the paper's claim, not a solver failure
    monkeypatch.setattr(asymptotics, "_winding_number", lambda values: 1)
    code = main(["kernel", "--s-list", "1.5", "--n-list", "0.2",
                 "--cache-dir", str(tmp_path / "cache"), "--output-dir", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert code == EXIT_CRITERION_FAIL
    fails = [line for line in out.splitlines() if "FAIL" in line]
    assert fails == ["s=1.5 N=0.2: winding = 1 (threshold 0) FAIL"]
    assert "ERROR" not in out and "Traceback" not in out + err


def test_any_failure_maps_to_exit_1():
    record = RunRecord(
        config={},
        points=[{"s": 1.5, "checks": {"x": {"value": 2.0, "threshold": 1.0, "mode": "le", "pass": False}}, "error": None}],
        timings={},
    )
    assert record.any_failure() and not record.any_solver_error()


def test_gn_constant_quintic_validation(tmp_path):
    code = main(
        [
            "gn-constant",
            "--s-list", "2.0",
            "--n-list", "0.1",
            "--cache-dir", str(tmp_path / "cache"),
            "--output-dir", str(tmp_path / "out"),
        ]
    )
    assert code == EXIT_OK


@pytest.mark.parametrize("grid_l,grid_m,passes", [("16", "256", False), ("64", "4096", True)])
def test_gn_constant_checks_that_the_torus_holds_the_tail(tmp_path, grid_l, grid_m, passes):
    # on L = 16 the mass threshold reads 2.616, 2.9e-3 above its value on large tori
    code = main(["gn-constant", "--s-list", "1.5", "--grid-l", grid_l, "--grid-m", grid_m,
                 "--cache-dir", str(tmp_path / "cache"), "--output-dir", str(tmp_path / "out")])
    assert code == (EXIT_OK if passes else EXIT_CRITERION_FAIL)
    (point,) = _record(tmp_path / "out", "gn-constant")["points"]
    assert [name for name, chk in point["checks"].items() if not chk["pass"]] == ([] if passes else ["torus_edge"])


def test_gn_constant_is_open_past_desk_scale(tmp_path):
    # gn-constant solves no traveling wave, so the s >= 1.8 refusal spares it
    code = main(["gn-constant", "--s-list", "1.9", "--cache-dir", str(tmp_path / "cache"),
                 "--output-dir", str(tmp_path / "out")])
    assert code == EXIT_OK


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("grid-q = 12\n")
    args = make_parser().parse_args(["solve", "--config", str(cfg)])
    with pytest.raises(ConfigError, match="unknown config key"):
        build_config(args)


# -- random configurations ------------------------------------------------------

_TOLERANCES = (1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 0.5)


@st.composite
def _random_argv(draw):
    """A command line over RunConfig's space: every command, small grids, one worker."""
    command = draw(st.sampled_from(cli.COMMANDS))
    s_top = 2.0 if command == "gn-constant" else 1.8
    s = draw(st.floats(1.0, s_top, exclude_min=True, exclude_max=s_top < 2.0))
    masses = draw(st.lists(st.floats(1e-4, 5.0), min_size=1, max_size=3, unique=True))
    return [
        command, "--s-list", repr(s), "--n-list", ",".join(map(repr, masses)),
        "--grid-l", str(draw(st.integers(4, 256))),
        "--grid-m", str(draw(st.sampled_from((16, 32, 64, 128, 256)))),
        "--tol", repr(draw(st.sampled_from(_TOLERANCES))),
        "--workers", "1",
    ]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(argv=_random_argv())
# the overflowing envelope ratio, on the default grid
@example(argv=["kernel", "--s-list", "1.6715074120809403", "--n-list", "0.001281389628485582", "--grid-l", "64",
               "--grid-m", "4096", "--tol", "1e-10", "--workers", "1"])
def test_random_configurations_exit_with_a_code_and_write_strict_records(argv):
    import jsonschema
    from importlib.resources import files

    schema = json.loads(files("fracnls").joinpath("schemas/run_record.schema.json").read_text())
    with tempfile.TemporaryDirectory() as tmp:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv + ["--cache-dir", f"{tmp}/cache", "--output-dir", f"{tmp}/out"])
        assert code in (EXIT_OK, EXIT_CRITERION_FAIL, EXIT_CONFIG_ERROR, EXIT_SOLVER_FAILURE)
        records = [p for p in Path(tmp, "out").glob("*.json") if not p.name.endswith(".meta.json")]
        if code == EXIT_CONFIG_ERROR:
            assert records == []
            return
        (record,) = records
        payload = strict_json(record.read_text())
        jsonschema.validate(payload, schema)
        csv_rows(record.with_suffix(".csv").read_text())
    failed = [pt for pt in payload["points"] if pt["error"]]
    error_lines = [line for line in out.getvalue().splitlines() if ": ERROR " in line]
    assert len(error_lines) == len(failed)
    assert (code == EXIT_SOLVER_FAILURE) == bool(failed)
