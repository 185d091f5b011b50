"""CLI runner: config handling, record emission, determinism, exit codes."""

import hashlib
import json
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from fracnls import __version__, cli
from fracnls.cache import cache_key, cached_solve, load_result, store_result
from fracnls.cli import (
    EXIT_CONFIG_ERROR,
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
from fracnls.spectral import make_grid

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
    ],
    ids=[
        "grid-m", "grid-l", "beta-list", "n-list", "inits", "tol-zero", "tol-negative", "n-list-inf",
        "workers", "grid-m-text", "workers-text", "s-list-text", "config-missing", "format",
        "grid-m-huge", "s-1.8", "s-1.95", "s-1.999",
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
    paths = emit_outputs(RunRecord(config={}, points=[point]), config)
    header, row = next(p for p in paths if p.suffix == ".csv").read_text().strip().split("\n")
    cells = dict(zip(header.split(","), row.split(",")))
    for name, value in values.items():
        assert float(cells[name]) == value


def test_plotdata_row_count(solve_record, tmp_path):
    from fracnls.spectral import Profile, make_grid

    grid = make_grid(64.0, 512)
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


@pytest.mark.parametrize("size", [30, 1000])  # short header, short payload
def test_truncated_cache_entry_is_recomputed(tmp_path, size):
    config = fast_config("solve", tmp_path, n_list=(0.2,))
    first = _emit_bytes(config)
    (prof,) = Path(config.cache_dir).glob("*.prof")
    stored = prof.read_bytes()
    prof.write_bytes(stored[:size])
    args = ["solve", "--s-list", "1.5", "--n-list", "0.2", "--grid-l", "64", "--grid-m", "512",
            "--tol", "1e-9", "--cache-dir", config.cache_dir, "--output-dir", config.output_dir]
    assert main(args) == EXIT_OK
    second = {p.name: p.read_bytes() for p in Path(config.output_dir).iterdir() if p.name in first}
    assert second == first
    assert prof.read_bytes() == stored


def test_secant_solver_entry_is_a_miss(tmp_path):
    # the key payload as it stood before the solver fingerprint, for the same point
    s, n, length, points, tol = 1.5, 0.2, 64.0, 512, 1e-9
    payload = {"version": __version__, "s": repr(s), "N": repr(n), "L": repr(length), "M": points,
               "method": "petviashvili", "tol": repr(tol)}
    old_key = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:24]
    grid = make_grid(length, points)
    assert cache_key(s, n, length, points, tol) != old_key

    def result(theta):
        return SolveResult(local_ground_state(s, 0.05, grid), theta, 0.0, 0.0, 1, True)

    store_result(tmp_path, old_key, result(1.0), s, n)
    assert load_result(tmp_path, old_key).multiplier == 1.0
    got, hit = cached_solve(tmp_path, s, n, grid, tol, lambda: result(2.0))
    assert (got.multiplier, hit) == (2.0, False)


def test_cache_key_digest_is_stable():
    # the digest of the entries written by the Newton-MINRES solver with the
    # Fourier-space finish and the closed-form lambda(s)
    assert cache_key(1.5, 0.2, 64.0, 512, 1e-9) == "ed299c812ccea328033393b0"


def test_cache_replay_identical(tmp_path):
    config = fast_config("solve", tmp_path)
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


def test_unconverged_solve_fails_linearize_with_one_line(tmp_path, capsys, monkeypatch):
    def unconverged(grid, params, tol):
        return SolveResult(local_ground_state(params.s, params.lam, grid), params.lam, 1e-3,
                           0.0, 1, False)

    monkeypatch.setattr(cli, "petviashvili_mass_constrained", unconverged)
    code = main(["linearize", "--s-list", "1.3", "--n-list", "0.1", "--grid-l", "64", "--grid-m", "512",
                 "--cache-dir", str(tmp_path / "cache"), "--output-dir", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert code == EXIT_SOLVER_FAILURE
    errors = [line for line in out.splitlines() if "ERROR" in line]
    assert len(errors) == 1 and "residual" in errors[0] and "converged" in errors[0]
    assert "Traceback" not in out + err


def test_any_failure_maps_to_exit_1():
    record = RunRecord(
        config={},
        points=[{"s": 1.5, "checks": {"x": {"value": 2.0, "threshold": 1.0, "mode": "le", "pass": False}}, "error": None}],
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
