"""CLI runner: config handling, record emission, determinism, exit codes."""

import concurrent.futures
import contextlib
import csv
import hashlib
import io
import json
import struct
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import fresh_interpreter
from fracnls import __version__, asymptotics, cli
from fracnls.cache import cache_key, cached_solve, load_result, store_result
from fracnls.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_CRITERION_FAIL,
    EXIT_OK,
    EXIT_SOLVER_FAILURE,
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
from fracnls.spectral import Profile, SpectralGrid, fft
from fracnls.symbols import ModelParams, symbol_nN

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
    with pytest.raises(ValueError, match="nonempty"):
        fast_config("solve", tmp_path, n_list=())


def test_config_rejects_unknown_command(tmp_path):
    with pytest.raises(ValueError, match="unknown command"):
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
        # past the float range: the kernel envelope N^(s(2+s)/(2-s)), and s(s-1)/2 (2 pi/L)^2 at the lowest mode
        (["--n-list", "1e300"], "above the largest mass at s = 1.5, "),
        (["--s-list", "1.2", "--n-list", "1e200"], "above the largest mass at s = 1.2, "),
        (["--grid-l", "1e300"], "L = 1e+300 is too long"),
        # gn-constant spacing above 1/8 misreads the mass threshold (22.50, and 2.959 for 2.6085 with N = 2.7 below it)
        (["gn-constant", "--s-list", "1.5", "--grid-l", "256", "--grid-m", "16"], "L/M of at most 1/8"),
        (["gn-constant", "--s-list", "1.5", "--n-list", "2.7", "--grid-l", "256", "--grid-m", "256"],
         "L/M = 256/256 = 1"),
        (["gn-constant", "--grid-l", "1e200", "--grid-m", "256"], "L/M = 1e+200/256"),
        # n_N, or gn-constant's |xi|^s, at the highest frequency pi M/L is not a finite double
        (["--grid-l", "1e-300", "--grid-m", "256"], "L = 1e-300 is too short for M = 256"),
        (["gn-constant", "--grid-l", "1e-300", "--grid-m", "256"], "L = 1e-300 is too short for M = 256"),
        (["gn-constant", "--s-list", "1.9", "--grid-l", "1e-200", "--grid-m", "256"], "L = 1e-200 is too short"),
        # gn-constant on a torus where Q = 1 is stable, which the solve finds (L = 2, 1e-200) or stalls near (L = 3)
        *((["gn-constant", "--s-list", "1.5", "--grid-l", length, "--grid-m", "256"], "L*_Q = 2 pi/(2s)^(1/s) = 3.021")
          for length in ("2", "1e-200", "3")),
        (["kernel", "--grid-l", "5e-324", "--grid-m", "256"], "the highest frequency pi M/L overflows"),
    ],
    ids=[
        "grid-m", "grid-l", "beta-list", "n-list", "inits", "tol-zero", "tol-negative", "n-list-inf",
        "workers", "grid-m-text", "workers-text", "s-list-text", "config-missing", "format",
        "grid-m-huge", "s-1.8", "s-1.95", "s-1.999", "s-list-repeated", "n-list-repeated",
        "n-list-huge", "n-list-huge-s-1.2", "grid-l-huge", "gn-constant-coarse", "gn-constant-coarse-n-2.7",
        "gn-constant-grid-l-huge", "grid-l-tiny", "gn-constant-grid-l-tiny", "gn-constant-s-1.9-grid-l-tiny",
        "gn-constant-grid-l-2", "gn-constant-grid-l-1e-200", "gn-constant-grid-l-3", "kernel-grid-l-subnormal",
    ],
)
def test_bad_flag_value_exits_with_config_error(tmp_path, capsys, flags, named):
    argv = flags if flags[0] in cli.COMMANDS else ["solve", *flags]
    code = main([*argv, "--cache-dir", str(tmp_path / "cache"), "--output-dir", str(tmp_path)])
    assert code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert named in err


def _lowest_mode_n(s: float, n: float, length: float) -> float:
    """n(kappa xi_1) to leading order, s(s-1)/2 (kappa 2 pi/L)^2, at a torus's lowest nonzero mode (L > 2 pi)."""
    return s * (s - 1.0) / 2.0 * (ModelParams(s, n).kappa * 2.0 * np.pi / length) ** 2


def test_masses_whose_kappa_squared_underflows_are_refused_and_the_rest_run(tmp_path, capsys):
    # where n(kappa xi_1) at the lowest mode xi_1 = 2 pi/L is subnormal n_N
    # loses digits there, and where it is 0 the symbol and the kernel shift
    # are undefined: such a mass is one configuration error
    decades = [10.0**-k for k in range(10, 301)]
    dirs = ["--grid-l", "32", "--grid-m", "256", "--inits", "2",
            "--cache-dir", str(tmp_path / "cache"), "--output-dir", str(tmp_path / "out")]
    for s in (1.1, 1.3, 1.5, 1.7):
        normal = [n for n in decades if _lowest_mode_n(s, n, 32.0) >= sys.float_info.min]
        refused = decades[len(normal):]
        assert normal == decades[: len(normal)] and refused
        for command in (c for c in cli.COMMANDS if c != "gn-constant"):
            # every tenth normal decade and the smallest in one run: no run raises
            ran = sorted(set(normal[::10]) | {normal[-1]})
            code = main([command, "--s-list", repr(s), "--n-list", ",".join(map(repr, ran)), *dirs])
            assert code in (EXIT_OK, EXIT_CRITERION_FAIL, EXIT_CONFIG_ERROR, EXIT_SOLVER_FAILURE)
            assert "configuration error" not in capsys.readouterr().err
            for n in refused[::10]:
                assert main([command, "--s-list", repr(s), "--n-list", repr(n), *dirs]) == EXIT_CONFIG_ERROR
                err = capsys.readouterr().err
                assert err.startswith("configuration error:") and err.count("\n") == 1
                # the smallest mass it names is accepted, and its n(kappa xi_1) is normal
                named = float(err.split(f"smallest mass at s = {s:g} on L = 32, ", 1)[1].split(":", 1)[0])
                assert _lowest_mode_n(s, named, 32.0) >= sys.float_info.min > _lowest_mode_n(s, 0.98 * named, 32.0)
                RunConfig(command, s_list=(s,), n_list=(named,), grid_l=32.0, grid_m=256,
                          cache_dir=str(tmp_path / "cache"))


def _envelope_power(s: float, n: float) -> float:
    """N^(s(2+s)/(2-s)), the kernel envelope's power of the mass; inf where it overflows."""
    try:
        return n ** (s * (2.0 + s) / (2.0 - s))
    except OverflowError:
        return np.inf


def test_masses_whose_kernel_envelope_overflows_are_refused_and_the_rest_run(tmp_path, capsys):
    # where N^(s(2+s)/(2-s)) overflows the kernel constants are not finite,
    # and further up neither is kappa: such a mass is one configuration error
    decades = [10.0**k for k in range(1, 301)]
    dirs = ["--grid-l", "32", "--grid-m", "256", "--inits", "2",
            "--cache-dir", str(tmp_path / "cache"), "--output-dir", str(tmp_path / "out")]
    for s in (1.1, 1.3, 1.5, 1.7):
        finite = [n for n in decades if np.isfinite(_envelope_power(s, n))]
        refused = decades[len(finite):]
        assert finite == decades[: len(finite)] and refused
        for command in (c for c in cli.COMMANDS if c != "gn-constant"):
            # every tenth finite decade and the largest in one run: no run raises
            ran = sorted(set(finite[::10]) | {finite[-1]})
            code = main([command, "--s-list", repr(s), "--n-list", ",".join(map(repr, ran)), *dirs])
            assert code in (EXIT_OK, EXIT_CRITERION_FAIL, EXIT_CONFIG_ERROR, EXIT_SOLVER_FAILURE)
            assert "configuration error" not in capsys.readouterr().err
            for n in refused[::10]:
                assert main([command, "--s-list", repr(s), "--n-list", repr(n), *dirs]) == EXIT_CONFIG_ERROR
                err = capsys.readouterr().err
                assert err.startswith("configuration error:") and err.count("\n") == 1
                # the largest mass it names is accepted, and its envelope is finite
                named = float(err.split(f"largest mass at s = {s:g}, ", 1)[1].split(":", 1)[0])
                assert np.isfinite(_envelope_power(s, named)) and not np.isfinite(_envelope_power(s, 1.02 * named))
                RunConfig(command, s_list=(s,), n_list=(named,), grid_l=32.0, grid_m=256,
                          cache_dir=str(tmp_path / "cache"))


def test_smallest_mass_keeps_the_lowest_mode_of_the_symbol_exact(tmp_path, capsys):
    # at s = 1.1 on (64, 4096) a bound on kappa^2 alone accepted N = 1.4e-126,
    # where n(kappa xi_1) is subnormal and n_N/xi^2 - 1 reads 8e-14 at the
    # first mode; the bound on n(kappa xi_1) names a mass above which the
    # symbol is exact to rounding and below which the run is refused
    grid = SpectralGrid(64.0, 4096)
    xi = grid.xi[1:4]

    def error(n):
        return np.max(np.abs(symbol_nN(xi, ModelParams(1.1, n)) / xi**2 - 1.0))

    dirs = ["--grid-l", "64", "--grid-m", "4096",
            "--cache-dir", str(tmp_path / "cache"), "--output-dir", str(tmp_path / "out")]
    assert main(["solve", "--s-list", "1.1", "--n-list", "1.4e-126", *dirs]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1 and " on L = 64, " in err
    named = float(err.split("smallest mass at s = 1.1 on L = 64, ", 1)[1].split(":", 1)[0])
    assert error(1.4e-126) > 1e-14 and error(named) <= 4.5e-16
    RunConfig("solve", s_list=(1.1,), n_list=(named,), grid_l=64.0, grid_m=4096, cache_dir=str(tmp_path / "cache"))
    assert main(["solve", "--s-list", "1.1", "--n-list", repr(0.99 * named), *dirs]) == EXIT_CONFIG_ERROR
    assert f"smallest mass at s = 1.1 on L = 64, {named:g}:" in capsys.readouterr().err


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
    with pytest.raises(ValueError, match="malformed"):
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
    grid = SpectralGrid(64.0, 512)
    prof = Profile(grid, np.exp(-grid.x**2).astype(complex))
    path = tmp_path / "plot.dat"
    emit_profile_plotdata(prof, path)
    data = np.loadtxt(path)
    assert data.shape == (512, 4)


def test_plotdata_bytes_are_savetxt_bytes(tmp_path):
    # the chunked writer writes what np.savetxt writes row by row, on a README
    # grid and on a row count whose last chunk is partial, for a profile that
    # holds -0.0, subnormal and tiny values
    readme_grid = SpectralGrid(64.0, 4096)
    straddling = SimpleNamespace(x=np.linspace(-40.0, 40.0, 2 * cli._PLOT_CHUNK_ROWS + 37, endpoint=False))
    for grid in (readme_grid, straddling):
        values = np.exp(-(grid.x**2)) * np.exp(1j * grid.x)
        values[::7] = -0.0
        values[1::11] = complex(1e-300, -5e-324)
        values[2] = complex(-0.0, 1e-310)
        emit_profile_plotdata(SimpleNamespace(grid=grid, values=values), tmp_path / "plot.dat")
        data = np.column_stack([grid.x, values.real, values.imag, np.abs(values)])
        np.savetxt(tmp_path / "savetxt.dat", data, header="x re im abs", comments="# ")
        assert (tmp_path / "plot.dat").read_bytes() == (tmp_path / "savetxt.dat").read_bytes()


def _as_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _tie(exponent: int, odd: int) -> float:
    """odd 2^-exponent, whose decimal expansion has exactly 20 significant digits, the last a 5."""
    value = odd * 2.0**-exponent
    digits = str(odd * 5**exponent)
    assert len(digits) == 20 and digits[-1] == "5" and value == odd / 2**exponent
    return value


def _ties():
    # odd 5^e has 20 digits for odd in [10^19/5^e, 10^20/5^e), and odd 2^-e is a double when odd < 2^53
    def odd_in(e):
        low, high = -(-(10**19) // 5**e), min(10**20 // 5**e, 2**53)
        return st.integers(low // 2, (high - 2) // 2).map(lambda j: 2 * j + 1)

    return st.integers(5, 28).flatmap(lambda e: odd_in(e).map(lambda o: _tie(e, o)))


def _one_ulp_from(value: float, step: int) -> float:
    return float(np.nextafter(value, step * np.inf)) if step else value


_SIGN = st.sampled_from([1.0, -1.0])
_CELLS = {
    "finite-bits": st.integers(0, 2**64 - 1).map(_as_float).filter(np.isfinite),
    "zero-and-subnormal": st.builds(lambda sign, m: sign * m * 2.0**-1074, _SIGN, st.integers(0, 2**52 - 1)),
    "power-of-ten": st.builds(
        lambda sign, j, step: sign * _one_ulp_from(float(f"1e{j}"), step),
        _SIGN, st.integers(-323, 308), st.sampled_from([-1, 0, 1]),
    ),
    "tie": st.builds(lambda sign, v: sign * v, _SIGN, _ties()),
    # 19 nines and a digit from 5 up: the nearest double, or one ulp either side
    "next-decade": st.builds(
        lambda sign, j, d, step: sign * _one_ulp_from(float(f"9.99999999999999999{d}e{j}"), step),
        _SIGN, st.integers(-320, 307), st.integers(5, 9), st.sampled_from([-1, 0, 1]),
    ),
    "not-finite": st.sampled_from([np.nan, -np.nan, np.inf, -np.inf]),
}


@pytest.mark.parametrize("kind", list(_CELLS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_plot_formatter_writes_pythons_bytes(kind, data):
    # the vectorized formatter against the oracle it replaces, '%.18e' % v per cell
    values = data.draw(st.lists(_CELLS[kind], min_size=1, max_size=40))
    values += [0.0] * (-len(values) % 4)
    rows = np.array(values).reshape(-1, 4)
    expected = "".join(" ".join("%.18e" % v for v in row) + "\n" for row in rows.tolist())
    assert cli._format_rows(rows) == expected.encode("ascii")


def test_plot_formatter_rounds_exact_ties_to_even():
    # 1000001/2^20 = 0.95367527008056640625 and 1000003/2^20 = 0.95367717742919921875
    # end in an exact 5 at the 20th significant digit: one rounds down to an even digit, one up
    assert "%.18e" % _tie(20, 1000001) == "9.536752700805664062e-01"
    assert "%.18e" % _tie(20, 1000003) == "9.536771774291992188e-01"
    rows = np.array([[_tie(20, 1000001), -_tie(20, 1000003), 5e-324, -0.0]])
    assert cli._format_rows(rows) == ("%.18e %.18e %.18e %.18e\n" % tuple(rows[0])).encode()


def test_plot_file_replaces_the_old_one_only_when_complete(tmp_path, monkeypatch):
    # a writer that fails midway leaves the previous plot file and no temporary file behind
    path = tmp_path / "plot.dat"
    path.write_bytes(b"previous\n")
    grid = SpectralGrid(64.0, 4 * cli._PLOT_CHUNK_ROWS)
    calls = []

    def failing(rows):
        calls.append(rows.shape)
        if len(calls) == 2:
            raise RuntimeError("formatter failed")
        return b""

    monkeypatch.setattr(cli, "_format_rows", failing)
    with pytest.raises(RuntimeError, match="formatter failed"):
        emit_profile_plotdata(Profile(grid, np.ones(grid.points)), path)
    assert path.read_bytes() == b"previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plot.dat"]


def test_record_files_replace_the_old_ones_only_when_complete(tmp_path, monkeypatch):
    # a second run whose CSV rendering fails midway leaves the first run's
    # CSV, JSON and metadata files and no temporary file behind
    argv = ["solve", "--s-list", "1.5", "--n-list", "0.2,0.1", "--grid-l", "32", "--grid-m", "256",
            "--cache-dir", str(tmp_path / "cache"), "--output-dir", str(tmp_path / "out")]
    assert main(argv) == EXIT_OK
    first = {p: p.read_bytes() for p in (tmp_path / "out").glob("*") if p.is_file()}
    assert sorted(p.suffixes[-1] for p in first) == [".csv", ".json", ".json"]
    calls = []
    cell = cli._csv_cell

    def failing(value):
        calls.append(value)
        if len(calls) == 30:  # in the second point's row
            raise RuntimeError("rendering failed")
        return cell(value)

    monkeypatch.setattr(cli, "_csv_cell", failing)
    with pytest.raises(RuntimeError, match="rendering failed"):
        main(argv)
    assert {p: p.read_bytes() for p in first} == first
    assert [p.name for p in (tmp_path / "out").rglob("*") if p.name.endswith(".tmp")] == []


_PLOT_RSS_PROBE = """
import resource, sys
import numpy as np
from fracnls.cli import emit_profile_plotdata
from fracnls.spectral import Profile, SpectralGrid

grid = SpectralGrid(4096.0, 2**18)
profile = Profile(grid, np.exp(-grid.x**2 / 1e4) * np.exp(1j * grid.x))
small = SpectralGrid(64.0, 16)
emit_profile_plotdata(Profile(small, np.ones(16)), sys.argv[1])  # the formatter's tables, built once
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
emit_profile_plotdata(profile, sys.argv[1])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


def test_plot_writer_memory_is_bounded_by_the_chunk(tmp_path):
    # a 2^18-row plot file raises the peak RSS by at most 16 MiB: the profile
    # itself is 4 MiB, the formatted file 27 MiB, and a writer that formats
    # the whole file at once peaks about 87 MiB higher
    path = tmp_path / "plot.dat"
    out = fresh_interpreter(_PLOT_RSS_PROBE, str(path))
    assert int(out) <= 16 * 1024  # ru_maxrss counts KiB on Linux
    assert path.read_bytes().count(b"\n") == 1 + 2**18


_TABLES_PROBE = """
import sys
from fracnls import cli
small = ["--n-list", "0.1", "--grid-l", "32", "--grid-m", "256", "--cache-dir", sys.argv[1], "--output-dir", sys.argv[2]]
built = [cli._format_tables.cache_info().currsize]
assert cli.main(["verify-th2", *small]) in (cli.EXIT_OK, cli.EXIT_CRITERION_FAIL)
built.append(cli._format_tables.cache_info().currsize)
assert cli.main(["solve", *small]) == cli.EXIT_OK
built.append(cli._format_tables.cache_info().currsize)
print(built)
"""


def test_a_command_without_plot_files_builds_no_formatter_tables(tmp_path):
    # a fresh interpreter: the tables are built on the first plot file a
    # process writes, neither at import nor by a command that writes none
    out = fresh_interpreter(_TABLES_PROBE, str(tmp_path / "cache"), str(tmp_path / "out"))
    assert out.splitlines()[-1] == "[0, 0, 1]"


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
# residual by 4.6e-16 relative against one.  s = 1.2 runs on M = 2048, the
# grid that resolves it, so LOBPCG runs there too
_BLAS_COMMANDS = (
    ["linearize", "--s-list", "1.3", "--n-list", "0.1", "--grid-l", "128", "--grid-m", "1024"],
    ["linearize", "--s-list", "1.2", "--n-list", "0.1", "--grid-l", "128", "--grid-m", "2048"],
    ["verify-th2", "--s-list", "1.5", "--n-list", "0.2,0.1", "--grid-l", "256", "--grid-m", "16384"],
)


def test_record_bytes_independent_of_blas_threads(tmp_path):
    """One interpreter per OPENBLAS_NUM_THREADS (unset, 1, 2; and 2 with two workers) writes the same records.

    The variable is read as each OpenBLAS copy loads, before `main` runs, so
    only a fresh interpreter shows what it does.
    """
    script = "import json, sys\nfrom fracnls.cli import main\nsys.exit(max(main(a) for a in json.loads(sys.argv[1])))"

    def records(threads, workers, tag):
        out = tmp_path / f"out-{tag}"
        runs = [cmd + ["--workers", workers, "--cache-dir", str(tmp_path / f"cache-{tag}"), "--output-dir", str(out)]
                for cmd in _BLAS_COMMANDS]
        fresh_interpreter(script, json.dumps(runs), env={"OPENBLAS_NUM_THREADS": threads}, timeout=600)
        return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.suffix in (".csv", ".json")
                and not p.name.endswith(".meta.json")}

    unset = records(None, "1", "unset")
    assert sorted(Path(name).suffix for name in unset) == [".csv"] * 3 + [".json"] * 3
    for threads, workers in (("1", "1"), ("2", "1"), ("2", "2")):
        assert records(threads, workers, f"{threads}-{workers}") == unset, (threads, workers)


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="finds the loaded OpenBLAS in /proc/self/maps")
def test_main_pins_numpys_openblas_to_one_thread():
    """With OPENBLAS_NUM_THREADS=2, the OpenBLAS that numpy loaded reports 1 thread after `main`.

    The copy is found among the loaded libraries, not by the CLI's file
    pattern, so a renamed library or setter fails here instead of leaving
    the pin a silent no-op.
    """
    script = (
        "import ctypes, numpy\n"
        "copies = sorted({line.split()[-1] for line in open('/proc/self/maps') if 'openblas' in line})\n"
        "assert len(copies) == 1, copies\n"
        "get = ctypes.CDLL(copies[0]).scipy_openblas_get_num_threads64_\n"
        "before = get()\n"
        "from fracnls.cli import main\n"
        "main(['kernel', '--n-list', 'bogus'])\n"
        "print(before, get())\n"
    )
    out = fresh_interpreter(script, env={"OPENBLAS_NUM_THREADS": "2"}, timeout=60)
    assert out.split()[-2:] == ["2", "1"]


@pytest.mark.parametrize("n_list,pool_size", [((0.2, 0.1), 2), ((0.2,), None)])
def test_worker_pool_never_exceeds_the_points(tmp_path, monkeypatch, n_list, pool_size):
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

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)  # run imports it from there
    record = run(fast_config("solve", tmp_path, n_list=n_list, workers=5000))
    assert sizes == ([] if pool_size is None else [pool_size])
    assert record.exit_code() == EXIT_OK


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
    # the digest of the entries written by the Newton-MINRES solver (numpy's
    # loop on complex DFT coefficients) with the closed-form lambda(s), the
    # start from the coarse grid of spacing min(1/8, 0.5/sqrt(lambda(s))), the
    # Petviashvili hand-off on DFT coefficients and the finish from the last
    # residual's nonlinearity
    assert cache_key(1.5, 0.2, 64.0, 512, 1e-9) == "cb137c19341646de559c3ae6"


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

@pytest.mark.parametrize(
    "argv,flag",
    [
        # a regular file, and a path under one: refused before the solve or the kernel points run
        (["solve", "--grid-l", "32", "--grid-m", "256", "--output-dir", "{file}", "--cache-dir", "{tmp}/cache"],
         "--output-dir"),
        (["kernel", "--output-dir", "{file}/sub", "--cache-dir", "{tmp}/cache"], "--output-dir"),
        (["solve", "--grid-l", "32", "--grid-m", "256", "--cache-dir", "{file}", "--output-dir", "{tmp}/out"],
         "--cache-dir"),
    ],
    ids=["output-dir-file", "output-dir-under-file", "cache-dir-file"],
)
def test_an_unusable_directory_is_a_config_error_before_any_point(tmp_path, capsys, monkeypatch, argv, flag):
    file = tmp_path / "file"
    file.write_text("")
    calls = []
    monkeypatch.setattr(cli, "run", calls.append)
    code = main([arg.format(file=file, tmp=tmp_path) for arg in argv])
    out, err = capsys.readouterr()
    assert code == EXIT_CONFIG_ERROR and calls == [] and out == ""
    assert err.startswith(f"configuration error: {flag}: cannot create {file}") and err.count("\n") == 1


def test_an_unwritable_cache_entry_is_a_miss(tmp_path, capsys):
    # a directory where the entry goes makes its rename fail: the run writes
    # what a run on a clean cache writes, and exits as it does
    argv = ["solve", "--s-list", "1.5", "--n-list", "0.2,0.1", "--grid-l", "32", "--grid-m", "256"]

    def records(tag):
        out = tmp_path / f"out-{tag}"
        code = main(argv + ["--cache-dir", str(tmp_path / f"cache-{tag}"), "--output-dir", str(out)])
        return code, {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*"))
                      if p.is_file() and not p.name.endswith(".meta.json")}

    clean = records("clean")
    for entry in (tmp_path / "cache-clean").iterdir():
        (tmp_path / "cache-blocked" / entry.name).mkdir(parents=True)
    assert records("blocked") == clean
    assert clean[0] == EXIT_OK and len(clean[1]) == 4
    assert sorted(p.name for p in (tmp_path / "cache-blocked").iterdir()) == sorted(
        p.name for p in (tmp_path / "cache-clean").iterdir())
    assert all(p.is_dir() and not any(p.iterdir()) for p in (tmp_path / "cache-blocked").iterdir())
    assert "Traceback" not in "".join(capsys.readouterr())


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
    # the nine oscillation abscissae round to fewer points: recorded error, exit 3
    code = main(
        [
            "kernel",
            "--s-list", "1.79",
            "--n-list", "0.05",
            "--cache-dir", str(tmp_path / "cache"),
            "--output-dir", str(tmp_path / "out"),
        ]
    )
    assert code == EXIT_SOLVER_FAILURE


@pytest.mark.parametrize(
    "argv,refused",
    [
        # the kernel's exponential window ends before one decay length
        (["kernel", "--s-list", "1.5", "--n-list", "1.8"], {1.8: "windows cannot be separated"}),
        (["kernel", "--s-list", "1.2", "--n-list", "0.2,0.1"], {0.2: "windows cannot be separated"}),
        (["verify-th4", "--s-list", "1.1", "--n-list", "0.2"], {0.2: "fewer than 20 grid samples"}),
        # the README linearize grid does not resolve s = 1.1 and 1.2: refused, never exit 1 or 3
        (["linearize", "--s-list", "1.1,1.2,1.5", "--n-list", "0.1", "--grid-l", "128", "--grid-m", "1024"],
         {0.1: "does not resolve"}),
        # these tori hold only the spatially constant state, whose limit verify-th2 would judge
        (["verify-th2", "--s-list", "1.5", "--n-list", "0.2,0.1", "--grid-l", "16", "--grid-m", "16"],
         dict.fromkeys((0.2, 0.1), "1 - min|R|/max|R| is")),
        (["verify-th2", "--s-list", "1.7", "--n-list", "0.2,0.1", "--grid-l", "128", "--grid-m", "1024"],
         dict.fromkeys((0.2, 0.1), "the solve is the spatially constant state: lengthen the torus")),
        # linearize reads the same detector before its diagnostics (1 - min|R|/max|R| of 3e-16 to 4.5e-12 here)
        (["linearize", "--s-list", "1.7", "--n-list", "0.1", "--grid-l", "128", "--grid-m", "1024"],
         {0.1: "1 - min|R|/max|R| is"}),
        (["linearize", "--s-list", "1.7", "--n-list", "0.1", "--grid-l", "256", "--grid-m", "2048"],
         {0.1: "1 - min|R|/max|R| is"}),
        (["linearize", "--s-list", "1.7", "--n-list", "0.2", "--grid-l", "256", "--grid-m", "16384"],
         {0.2: "1 - min|R|/max|R| is"}),
        *((["linearize", "--s-list", "1.5", "--n-list", "0.1", "--grid-l", length, "--grid-m", "16"],
           {0.1: "the solve is the spatially constant state: lengthen the torus"}) for length in ("2", "4", "8", "16")),
        # solve and verify-th3 (on each random start) read the same detector before their checks; these tori
        # hold only the constant R = sqrt(s0/L), theta = (s0/L)^s (1 - min|R|/max|R| of 5.9e-14 on 16/1024)
        (["solve", "--s-list", "1.5", "--n-list", "0.1", "--grid-l", "16", "--grid-m", "1024"],
         {0.1: "1 - min|R|/max|R| is"}),
        (["solve", "--s-list", "1.3", "--n-list", "0.1", "--grid-l", "3", "--grid-m", "256"],
         {0.1: "the solve is the spatially constant state: lengthen the torus"}),
        *((["verify-th3", "--s-list", s, "--n-list", "0.1", "--grid-l", length, "--grid-m", points],
           {0.1: "the solve is the spatially constant state: lengthen the torus"})
          for s, length, points in (("1.5", "16", "1024"), ("1.5", "8", "1024"), ("1.3", "3", "256"))),
    ],
)
def test_unresolved_points_are_refused_with_exit_2_and_one_line(tmp_path, capsys, argv, refused):
    code = main(argv + ["--cache-dir", str(tmp_path / "cache"), "--output-dir", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert code == EXIT_CONFIG_ERROR
    errors = [line for line in out.splitlines() if "ERROR" in line]
    points = _record(tmp_path / "out", argv[0])["points"]
    failed = [pt for pt in points if pt["error"]]
    assert len(errors) == len(failed) >= 1
    for pt, line in zip(failed, errors):
        assert refused[pt["N"]] in pt["error"] and "\n" not in pt["error"] and pt["error"] in line
    assert "FAIL" not in out and "Traceback" not in out + err
    (meta,) = Path(tmp_path / "out").glob("*.meta.json")
    assert [(m["s"], m["N"]) for m in json.loads(meta.read_text())["points"] if m.get("refused")] == [
        (pt["s"], pt["N"]) for pt in failed]


def test_constant_state_guard_sits_orders_of_magnitude_from_resolved_solves(monkeypatch):
    # resolved solves read 1 - min|R|/max|R| of 0.997 and more, constant ones 5e-11 and less:
    # the guard passes the resolved s = 1.5 solve even at a limit of 0.99
    from fracnls.solvers import petviashvili_mass_constrained

    params = ModelParams(1.5, 0.1)
    profile = petviashvili_mass_constrained(SpectralGrid(64.0, 512), params).profile
    monkeypatch.setattr(cli, "_CONSTANT_STATE_SPREAD", 0.99)
    cli.constant_state_guard(profile, params.s, params.N)


def test_linearize_unresolved_grid_names_one_that_resolves(tmp_path, capsys):
    code = main(["linearize", "--s-list", "1.1,1.2", "--n-list", "0.1", "--grid-l", "128", "--grid-m", "1024",
                 "--cache-dir", str(tmp_path / "cache"), "--output-dir", str(tmp_path / "out")])
    out, _ = capsys.readouterr()
    assert code == EXIT_CONFIG_ERROR
    suggested = [line.rsplit("--grid-m ", 1)[1] for line in out.splitlines() if "ERROR" in line]
    assert suggested == ["4096", "2048"]
    code = main(["linearize", "--s-list", "1.2", "--n-list", "0.1", "--grid-l", "128", "--grid-m", "2048",
                 "--cache-dir", str(tmp_path / "cache"), "--output-dir", str(tmp_path / "out")])
    assert code == EXIT_OK
    # s = 1.1 on M = 2048 still annihilates iR only to 30 x the limit, and is sent on to M = 4096
    code = main(["linearize", "--s-list", "1.1", "--n-list", "0.1", "--grid-l", "128", "--grid-m", "2048",
                 "--cache-dir", str(tmp_path / "cache"), "--output-dir", str(tmp_path / "out")])
    assert code == EXIT_CONFIG_ERROR
    assert capsys.readouterr().out.rstrip().endswith("refine the grid: --grid-l 128 --grid-m 4096")


def test_linearize_solver_statistics_go_to_the_metadata_file_only(tmp_path):
    config = fast_config("linearize", tmp_path, s_list=(1.3, 1.5), n_list=(0.1,))
    paths = emit_outputs(run(config), config)
    meta = json.loads(next(p for p in paths if p.name.endswith(".meta.json")).read_text())
    assert [(m["s"], m["N"]) for m in meta["points"]] == [(1.3, 0.1), (1.5, 0.1)]
    for m in meta["points"]:
        assert 0 <= m["lobpcg_iterations"] <= 50
        assert 0.0 < m["kernel_residual_ratio"] <= 1e-3
        assert "refused" not in m
    # LOBPCG iterations after the start: at s = 1.5 the coarse start already
    # meets the bound on this grid, at s = 1.3 it takes steps
    assert [m["lobpcg_iterations"] > 0 for m in meta["points"]] == [True, False]
    for p in paths:
        if not p.name.endswith(".meta.json"):
            text = p.read_text()
            assert "lobpcg_iterations" not in text and "kernel_residual_ratio" not in text and "refused" not in text


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


def test_exit_code_is_the_gravest_outcome():
    # a refused point outranks a failed one, which outranks a failed check
    passed = {"s": 1.5, "checks": {"x": {"value": 0.5, "threshold": 1.0, "mode": "le", "pass": True}}, "error": None}
    failed_check = {**passed, "checks": {"x": {"value": 2.0, "threshold": 1.0, "mode": "le", "pass": False}}}
    failed = {**passed, "checks": {}, "error": "solver failed"}
    refused = {"s": 1.5, "N": 0.1, "refused": True}
    cases = [([passed], [], EXIT_OK), ([passed, failed_check], [], EXIT_CRITERION_FAIL),
             ([failed_check, failed], [], EXIT_SOLVER_FAILURE), ([failed_check, failed], [refused], EXIT_CONFIG_ERROR)]
    for points, meta, code in cases:
        assert RunRecord(config={}, points=points, timings={}, meta=meta).exit_code() == code


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
    with pytest.raises(ValueError, match="unknown config key"):
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
        refused = [m for p in Path(tmp, "out").glob("*.meta.json") for m in json.loads(p.read_text())["points"]
                   if m.get("refused")]
        if code == EXIT_CONFIG_ERROR and not refused:  # refused before any point ran
            assert records == []
            return
        (record,) = records
        payload = strict_json(record.read_text())
        jsonschema.validate(payload, schema)
        csv_rows(record.with_suffix(".csv").read_text())
    failed = [pt for pt in payload["points"] if pt["error"]]
    error_lines = [line for line in out.getvalue().splitlines() if ": ERROR " in line]
    assert len(error_lines) == len(failed)
    # a refused point is an error that exits 2; any other error exits 3
    assert (code == EXIT_CONFIG_ERROR) == bool(refused)
    assert (code in (EXIT_CONFIG_ERROR, EXIT_SOLVER_FAILURE)) == bool(failed)
