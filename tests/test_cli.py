"""Command-line surface: subcommands, exit codes, determinism."""

import warnings
from pathlib import Path

import numpy as np
import pytest

from deconvsim.cli import main, parse_equalize, parse_rational, parse_support
from deconvsim.errors import ConfigError
from deconvsim.fileio import read_sample
from deconvsim.variations import EqualizeKind

from fractions import Fraction


def _simulate(tmp_path, experiment="normal", seed=7):
    prefix = str(tmp_path / f"{experiment}-")
    code = main(
        ["simulate", "--experiment", experiment, "--seed", str(seed), "--out-prefix", prefix]
    )
    assert code == 0
    return f"{prefix}x1.txt", f"{prefix}z0.txt", f"{prefix}truth.txt"


def test_parse_support():
    s = parse_support("0:1")
    assert (s.lower, s.upper) == (0.0, 1.0)
    assert parse_support("0:inf").upper == np.inf
    assert parse_support(":").lower == -np.inf
    assert parse_support("-inf:2.5").lower == -np.inf
    for bad in ("nope", "a:b", "1:0"):
        with pytest.raises(Exception):
            parse_support(bad)


def test_parse_equalize():
    assert parse_equalize("tile").kind is EqualizeKind.TILE
    assert parse_equalize("subsample").kind is EqualizeKind.SUBSAMPLE
    strategy = parse_equalize("bootstrap:64")
    assert strategy.kind is EqualizeKind.BOOTSTRAP and strategy.target == 64
    for bad in ("bootstrap", "bootstrap:x", "mirror"):
        with pytest.raises(ConfigError):
            parse_equalize(bad)


def test_parse_rational():
    assert parse_rational("10/120") == Fraction(1, 12)
    with pytest.raises(ConfigError):
        parse_rational("1/0")
    with pytest.raises(ConfigError):
        parse_rational("abc")


def test_simulate_experiment_writes_three_files(tmp_path, capsys):
    files = _simulate(tmp_path, "normal", 7)
    capsys.readouterr()
    for path in files:
        assert read_sample(path).size == 100
    x1, z0, truth = (read_sample(p) for p in files)
    assert not np.array_equal(x1, z0)
    assert np.var(z0) > np.var(truth)


def test_simulate_is_byte_deterministic(tmp_path, capsys):
    files = _simulate(tmp_path, "exponential", 3)
    first = [Path(p).read_bytes() for p in files]
    _simulate(tmp_path, "exponential", 3)
    second = [Path(p).read_bytes() for p in files]
    capsys.readouterr()
    assert first == second


def test_simulate_dist_writes_one_sample(tmp_path, capsys):
    prefix = str(tmp_path / "exp-")
    code = main(
        ["simulate", "--dist", "exponential:1", "--n", "50", "--seed", "1", "--out-prefix", prefix]
    )
    capsys.readouterr()
    assert code == 0
    assert read_sample(f"{prefix}sample.txt").size == 50


def test_simulate_rejects_resized_experiments(tmp_path, capsys):
    code = main(
        ["simulate", "--experiment", "normal", "--n", "50",
         "--out-prefix", str(tmp_path / "x-")]
    )
    capsys.readouterr()
    assert code == 2


def test_simulate_requires_a_source(capsys):
    assert main(["simulate"]) == 2
    capsys.readouterr()


def test_run_default_flags(tmp_path, capsys):
    x_path, z_path, _ = _simulate(tmp_path)
    out = tmp_path / "trace.csv"
    code = main(["run", "--x", x_path, "--z", z_path, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    lines = out.read_text().splitlines()
    # comment header + column row + initial row + 100 iterations
    assert len(lines) == 103
    assert lines[0].startswith("# deconvsim")
    assert "mean d" in captured.out
    assert "iterations: 100" in captured.out


def test_run_zero_iterations(tmp_path, capsys):
    x_path, z_path, _ = _simulate(tmp_path)
    out = tmp_path / "trace0.csv"
    code = main(["run", "--x", x_path, "--z", z_path, "--out", str(out), "--iters", "0"])
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert lines[2].split(",")[0] == "0"


def test_run_is_byte_deterministic(tmp_path, capsys):
    x_path, z_path, _ = _simulate(tmp_path)
    out = tmp_path / "trace.csv"
    argv = ["run", "--x", x_path, "--z", z_path, "--out", str(out), "--seed", "5"]
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    capsys.readouterr()
    assert out.read_bytes() == first


def test_run_degenerate_reference_writes_na_and_warns(tmp_path, capsys):
    x_path, z_path, _ = _simulate(tmp_path)
    out = tmp_path / "trace-na.csv"
    code = main(["run", "--x", x_path, "--z", x_path, "--out", str(out), "--iters", "3"])
    captured = capsys.readouterr()
    assert code == 0
    assert "degenerate" in captured.err
    rows = out.read_text().splitlines()[2:]
    assert all(row.split(",")[1] == "NA" for row in rows)


def test_run_pooled_output(tmp_path, capsys):
    x_path, z_path, _ = _simulate(tmp_path)
    pooled = tmp_path / "pooled.txt"
    code = main(
        ["run", "--x", x_path, "--z", z_path, "--out", str(tmp_path / "t.csv"),
         "--pool", "average", "--pooled-out", str(pooled)]
    )
    capsys.readouterr()
    assert code == 0
    assert read_sample(pooled).size == 100


def test_run_pooled_out_without_pooling_fails(tmp_path, capsys):
    x_path, z_path, _ = _simulate(tmp_path)
    code = main(
        ["run", "--x", x_path, "--z", z_path, "--out", str(tmp_path / "t.csv"),
         "--pooled-out", str(tmp_path / "p.txt")]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in captured.err
    assert not (tmp_path / "t.csv").exists()  # rejected before any work


def test_run_with_boundary_policy(tmp_path, capsys):
    x_path, z_path, _ = _simulate(tmp_path, "exponential", 2)
    out = tmp_path / "bounded.csv"
    code = main(
        ["run", "--x", x_path, "--z", z_path, "--out", str(out),
         "--support", "0:inf", "--adjust", "abs", "--seed", "2"]
    )
    capsys.readouterr()
    assert code == 0
    for row in out.read_text().splitlines()[2:]:
        values = [float(v) for v in row.split(",")[3:]]
        assert min(values) >= 0.0


@pytest.mark.parametrize(
    "mutation",
    [
        {"--support": "abc"},
        {"--iters": "-3"},
        {"--equalize": "mirror"},
        {"--x": "/nonexistent/file.txt"},
    ],
)
def test_run_bad_flags_exit_2(tmp_path, capsys, mutation):
    x_path, z_path, _ = _simulate(tmp_path)
    flags = {
        "--x": x_path,
        "--z": z_path,
        "--out": str(tmp_path / "t.csv"),
    }
    flags.update(mutation)
    argv = ["run"]
    for key, value in flags.items():
        argv += [key, value]
    assert main(argv) == 2
    capsys.readouterr()


@pytest.mark.parametrize("iters", [10**15, 10**17])
def test_run_trace_beyond_the_address_space_exits_2(tmp_path, capsys, iters):
    x_path, z_path, _ = _simulate(tmp_path)
    out = tmp_path / "t.csv"
    code = main(
        ["run", "--x", x_path, "--z", z_path, "--out", str(out), "--iters", str(iters)]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "n = 100 " in err and str(iters + 1) in err
    assert not out.exists()


def _write_values(path, values):
    path.write_text("".join(f"{v!r}\n" for v in values))
    return str(path)


@pytest.mark.parametrize("adjust", ["none", "resample"])
def test_run_overflowing_working_vector_exits_2(tmp_path, capsys, adjust):
    x_path = _write_values(tmp_path / "x.txt", [1e308, 1.2e308, 1.5e308])
    z_path = _write_values(tmp_path / "z.txt", [1.7e308, 1.75e308, 1.79e308])
    out = tmp_path / "t.csv"
    support = "-inf:inf" if adjust == "none" else "0:inf"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(
            ["run", "--x", x_path, "--z", z_path, "--out", str(out),
             "--adjust", adjust, f"--support={support}", "--iters", "5"]
        )
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "overflow" in err
    assert not out.exists()


def test_run_overflowing_moments_print_na(tmp_path, capsys):
    x_path = _write_values(tmp_path / "x.txt", [0.0, 1e155, 2e155])
    z_path = _write_values(tmp_path / "z.txt", [0.0, 2e155, 4e155])
    out = tmp_path / "t.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "--x", x_path, "--z", z_path, "--out", str(out), "--iters", "3"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == (
        "warning: normal reference is degenerate "
        "(a mean or variance overflows float64); d written as NA\n"
    )
    assert "final estimate mean: NA sd: NA" in captured.out
    rows = out.read_text().splitlines()[2:]
    assert len(rows) == 4 and all(row.split(",")[1] == "NA" for row in rows)


def test_run_rejects_unknown_adjust_choice(tmp_path, capsys):
    x_path, z_path, _ = _simulate(tmp_path)
    code = main(
        ["run", "--x", x_path, "--z", z_path, "--out", str(tmp_path / "t.csv"),
         "--adjust", "bogus"]
    )
    capsys.readouterr()
    assert code == 2


def test_analyze3_single_x(tmp_path, capsys):
    out = tmp_path / "census.csv"
    code = main(["analyze3", "--out", str(out), "--x-values", "10/120"])
    captured = capsys.readouterr()
    assert code == 0
    assert "regions: 154" in captured.out
    assert len(out.read_text().splitlines()) == 2 + 154
    summary = tmp_path / "census.summary.txt"
    assert "total_regions,154" in summary.read_text()


def test_analyze3_is_byte_deterministic(tmp_path, capsys):
    out = tmp_path / "census.csv"
    argv = ["analyze3", "--out", str(out), "--x-values", "22/120"]
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    capsys.readouterr()
    assert out.read_bytes() == first


def test_analyze3_rejects_bad_x_values(tmp_path, capsys):
    out = str(tmp_path / "c.csv")
    assert main(["analyze3", "--out", out, "--x-values", "zzz"]) == 2
    assert main(["analyze3", "--out", out, "--x-values", "1/5"]) == 2
    capsys.readouterr()


def test_qq_command(tmp_path, capsys):
    x_path, z_path, truth_path = _simulate(tmp_path, "exponential", 4)
    out = tmp_path / "qq.csv"
    code = main(["qq", "--in", truth_path, "--dist", "standard-exponential", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "theoretical,sample"
    assert len(lines) == 102
    pairs = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    # truth is standard exponential, so the points hug a line (the upper
    # tail of an n=100 exponential QQ plot is noisy, hence the slack).
    assert np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1] > 0.95


def test_qq_missing_file_exits_2(tmp_path, capsys):
    code = main(["qq", "--in", str(tmp_path / "nope.txt"), "--dist", "standard-normal",
                 "--out", str(tmp_path / "q.csv")])
    capsys.readouterr()
    assert code == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
