"""Command-line surface: subcommands, exit codes, determinism."""

import contextlib
import io
import os
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deconvsim import (
    AdjustPolicy,
    DeconvConfig,
    PoolingKind,
    PoolingMode,
    __version__,
    cli,
    run,
)
from deconvsim.cli import main, parse_equalize, parse_support
from deconvsim.errors import ConfigError, InfeasibleAdjustmentError, InvalidInputError
from deconvsim.fileio import make_header, read_sample
from deconvsim.config import EqualizeKind

from conftest import reference_trace_csv


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
    # The constructor's own message, not the int() parse error.
    for bad in ("bootstrap:0", "bootstrap:-3"):
        with pytest.raises(InvalidInputError, match="target >= 1"):
            parse_equalize(bad)


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


@pytest.mark.parametrize(
    "dist, message",
    [
        ("normal:0,inf", "normal sd must be finite and > 0, got inf"),
        ("normal:nan,1", "normal mu must be finite, got nan"),
        ("exponential:1e308", "exponential draws overflow float64; use smaller parameters"),
    ],
)
def test_simulate_rejects_non_finite_parameters_and_draws(tmp_path, capsys, dist, message):
    prefix = str(tmp_path / "s-")
    code = main(["simulate", "--dist", dist, "--n", "1000", "--out-prefix", prefix])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


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


def test_run_prints_each_warning_when_it_is_raised(tmp_path):
    x_path, z_path, _ = _simulate(tmp_path)
    text = io.StringIO()
    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("error")
            code = main(
                ["run", "--x", x_path, "--z", x_path, "--out", str(tmp_path / "t.csv"),
                 "--support", "0:inf", "--iters", "3"]
            )
    lines = text.getvalue().splitlines()
    assert code == 0 and caught == []
    assert lines[:3] == [
        "warning: support is bounded but no adjustment policy is set; "
        "iterates may leave the support",
        "warning: normal reference is degenerate (var(z) <= var(x) or n < 2); "
        "d written as NA",
        "n: 100",
    ]


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
        {"--seed": "-1"},
        {"--smooth-xi": "1e200", "--smooth-zeta": "1e200"},
        {"--equalize": "bootstrap:4611686018427387904"},
        {"--equalize": f"bootstrap:{10**19}"},
        {"--equalize": "bootstrap:0"},
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
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "args",
    [
        ["--experiment", "normal", "--seed", "-3"],
        ["--dist", "normal:0,1", "--seed", "-3"],
        ["--dist", "normal:0,1", "--n", "4611686018427387904"],
        ["--dist", "normal:0,1", "--n", str(10**19)],
        ["--dist", "uniform:0,inf"],
        ["--dist", "uniform:-1e308,1e308"],
    ],
)
def test_simulate_bad_flags_exit_2(tmp_path, capsys, args):
    argv = ["simulate", *args, "--out-prefix", str(tmp_path / "s-")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.iterdir())


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


def test_run_overflowing_pooled_average_exits_2(tmp_path, capsys):
    # Every iterate is finite, but 96 of them near 4e307 sum past float max.
    x_path = _write_values(tmp_path / "x.txt", [0.0, 1.0, 2.0])
    z_path = _write_values(tmp_path / "z.txt", [3e307, 4e307, 5e307])
    out, pooled = tmp_path / "t.csv", tmp_path / "p.txt"
    code = main(
        ["run", "--x", x_path, "--z", z_path, "--out", str(out), "--pool", "average",
         "--pooled-out", str(pooled)]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (
        "error: values too large: the pooled average of the iterations beyond "
        "the burn-in overflows float64\n"
    )
    assert captured.out == ""
    assert not out.exists() and not pooled.exists()

    # The trace is written as the chain runs, but a file already at --out
    # keeps its bytes, and no temporary file is left beside it.
    out.write_bytes(b"an earlier trace\n")
    before = sorted(tmp_path.iterdir())
    assert main(["run", "--x", x_path, "--z", z_path, "--out", str(out), "--pool", "average"]) == 2
    assert "pooled average" in capsys.readouterr().err
    assert out.read_bytes() == b"an earlier trace\n"
    assert sorted(tmp_path.iterdir()) == before


def test_run_failing_inside_the_chain_leaves_no_file(tmp_path, capsys):
    # Every z - x is negative, so copy-min finds no in-support value to
    # copy at the first step, after the trace file has been opened.
    x_path = _write_values(tmp_path / "x.txt", [10.0, 11.0, 12.0])
    z_path = _write_values(tmp_path / "z.txt", [0.0, 1.0, 2.0])
    before = sorted(tmp_path.iterdir())
    out = tmp_path / "t.csv"
    code = main(
        ["run", "--x", x_path, "--z", z_path, "--out", str(out),
         "--adjust", "copy-min", "--support", "0:inf"]
    )
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: policy 'copy-min' needs at least one in-support value\n"
    assert sorted(tmp_path.iterdir()) == before


def test_run_failing_inside_a_chain_of_blocks_leaves_no_file(tmp_path, capsys):
    # At n = 2 000 the permutations are drawn in blocks of 32 rows; every
    # z - x is negative, so copy-min raises at the first step, with the
    # trace file open.
    x_path = _write_values(tmp_path / "x.txt", range(10_000, 12_000))
    z_path = _write_values(tmp_path / "z.txt", range(2_000))
    before = sorted(tmp_path.iterdir())
    out = tmp_path / "t.csv"
    code = main(
        ["run", "--x", x_path, "--z", z_path, "--out", str(out),
         "--adjust", "copy-min", "--support", "0:inf"]
    )
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: policy 'copy-min' needs at least one in-support value\n"
    assert sorted(tmp_path.iterdir()) == before


# Every command opens its outputs through one opener, so the file rules
# are checked on each command.
COMMANDS = ["run", "simulate", "qq", "analyze3"]


def _writing(command, out, x_path, z_path):
    """argv of command with out as its first output.  simulate writes the
    x1, z0 and truth files of an experiment, so out's name ends in x1.txt
    and the rest of out is the prefix."""
    out = str(out)
    if command == "run":
        return ["run", "--x", x_path, "--z", z_path, "--out", out, "--iters", "2"]
    if command == "simulate":
        assert out.endswith("x1.txt")
        return ["simulate", "--experiment", "normal", "--out-prefix", out[: -len("x1.txt")]]
    if command == "qq":
        return ["qq", "--in", x_path, "--dist", "standard-normal", "--out", out]
    return ["analyze3", "--out", out, "--x-values", "10/120"]


def _failing(command, out, x_path):
    """Flags to add to _writing's argv, after a fault set up beside out,
    that make command exit 2 as late as it can, and a part of the error
    it then prints: run fails at the first step, simulate and analyze3 at
    opening their last output, which is made a directory, and qq on
    reading its input.  The flags of simulate and analyze3 change what
    they would write to out."""
    if command == "run":
        # No difference reaches 1e6, so copy-min fails at the first step.
        flags = ["--adjust", "copy-min", "--support", "1e6:inf"]
        return flags, "needs at least one in-support value"
    if command == "qq":
        Path(x_path).write_text("inf\n")
        return [], "not a finite value"
    if command == "simulate":
        last, flags = Path(str(out)[: -len("x1.txt")] + "truth.txt"), ["--seed", "8"]
    else:
        last, flags = Path(os.path.splitext(out)[0] + ".summary.txt"), ["--x-values", "22/120"]
    last.unlink()
    last.mkdir()
    return flags, f"Is a directory: '{last}'"


def _body(path):
    """The lines of a written file after its comment line."""
    return Path(path).read_text().splitlines()[1:]


@pytest.mark.parametrize("command", COMMANDS)
def test_run_trace_file_has_the_mode_of_open_for_writing(tmp_path, capsys, command):
    x_path, z_path, _ = _simulate(tmp_path)
    with open(tmp_path / "plain.txt", "w"):
        pass
    out = tmp_path / "t-x1.txt"
    argv = _writing(command, out, x_path, z_path)
    assert main(argv) == 0
    assert out.stat().st_mode == (tmp_path / "plain.txt").stat().st_mode
    # A file already there keeps its own permission bits, as open() leaves them.
    out.chmod(0o600)
    assert main(argv) == 0
    capsys.readouterr()
    assert out.stat().st_mode & 0o777 == 0o600


@pytest.mark.parametrize("command", COMMANDS)
def test_run_writes_through_a_link_and_in_place_to_a_device(tmp_path, capsys, command):
    x_path, z_path, _ = _simulate(tmp_path)
    plain = tmp_path / "plain-x1.txt"
    assert main(_writing(command, plain, x_path, z_path)) == 0
    target = tmp_path / "target.csv"
    target.write_text("old\n")
    link = tmp_path / "link-x1.txt"
    link.symlink_to(target)
    assert main(_writing(command, link, x_path, z_path)) == 0
    assert link.is_symlink() and _body(target) == _body(plain)
    if command == "run":
        assert len(_body(target)) == 4  # the column row and 3 iterates
    device = tmp_path / "null-x1.txt"
    device.symlink_to(os.devnull)
    assert main(_writing(command, device, x_path, z_path)) == 0
    assert device.is_symlink() and Path(os.devnull).is_char_device()
    capsys.readouterr()


@pytest.mark.parametrize("command", COMMANDS)
def test_run_writes_through_every_hard_link(tmp_path, capsys, command):
    # open(path, "w") writes to the inode, so every hard link of the
    # output reads the new bytes; a failed command leaves the old bytes
    # in all of them.
    x_path, z_path, _ = _simulate(tmp_path)
    plain = tmp_path / "plain-x1.txt"
    assert main(_writing(command, plain, x_path, z_path)) == 0
    out, other = tmp_path / "t-x1.txt", tmp_path / "t2.csv"
    out.write_text("old\n")
    os.link(out, other)
    inode = out.stat().st_ino
    argv = _writing(command, out, x_path, z_path)
    assert main(argv) == 0
    assert out.stat().st_ino == inode and out.stat().st_nlink == 2
    assert other.read_text() == out.read_text() and _body(out) == _body(plain)
    written = out.read_bytes()
    flags, message = _failing(command, out, x_path)
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert main(argv + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert out.read_bytes() == other.read_bytes() == written
    assert sorted(tmp_path.iterdir()) == before


def test_a_failed_pooled_write_leaves_out_as_it_was(tmp_path, capsys):
    x_path, z_path, _ = _simulate(tmp_path)
    out = tmp_path / "t.csv"
    out.write_text("old\n")
    before = sorted(tmp_path.iterdir())
    code = main(
        ["run", "--x", x_path, "--z", z_path, "--out", str(out), "--pool", "average",
         "--pooled-out", str(tmp_path / "nodir" / "p.txt")]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "nodir" in err
    assert out.read_text() == "old\n"
    assert sorted(tmp_path.iterdir()) == before  # no temporary file is left


def test_analyze3_with_a_directory_at_the_summary_path_leaves_out_as_it_was(tmp_path, capsys):
    out = tmp_path / "c.csv"
    out.write_text("an earlier census\n")
    (tmp_path / "c.summary.txt").mkdir()
    before = sorted(tmp_path.iterdir())
    assert main(["analyze3", "--out", str(out), "--x-values", "10/120"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "c.summary.txt" in captured.err
    assert captured.out == ""
    assert out.read_bytes() == b"an earlier census\n"
    assert sorted(tmp_path.iterdir()) == before


def test_simulate_with_a_directory_at_one_output_writes_none(tmp_path, capsys):
    prefix = tmp_path / "s-"
    x1 = tmp_path / "s-x1.txt"
    x1.write_text("an earlier sample\n")
    (tmp_path / "s-z0.txt").mkdir()
    before = sorted(tmp_path.iterdir())
    code = main(["simulate", "--experiment", "normal", "--out-prefix", str(prefix)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and "s-z0.txt" in captured.err
    assert captured.out == ""
    assert x1.read_bytes() == b"an earlier sample\n"
    assert sorted(tmp_path.iterdir()) == before  # no truth file, no temporary file


@pytest.mark.parametrize(
    "spelling, existing",
    [(s, e) for s in ("same", "dot-slash", "symlink", "hard-link") for e in (True, False)
     if e or s != "hard-link"],  # a hard link needs an existing file
    ids=lambda v: {True: "existing", False: "new"}.get(v, v),
)
def test_run_rejects_a_pooled_out_that_names_out(
    tmp_path, monkeypatch, capsys, spelling, existing
):
    x_path, z_path, _ = _simulate(tmp_path)
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    if existing:
        Path("t.csv").write_text("an earlier trace\n")
    pooled = {"same": "t.csv", "dot-slash": "./t.csv", "symlink": "p.csv", "hard-link": "p.csv"}
    if spelling == "symlink":
        os.symlink("t.csv", "p.csv")  # dangling when t.csv is new
    elif spelling == "hard-link":
        os.link("t.csv", "p.csv")
    before = {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    listing = sorted(tmp_path.iterdir())
    code = main(
        ["run", "--x", x_path, "--z", z_path, "--out", "t.csv", "--pool", "average",
         "--pooled-out", pooled[spelling]]
    )
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: outputs t.csv and {pooled[spelling]} name one file\n"
    assert {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before
    assert sorted(tmp_path.iterdir()) == listing


def test_run_writes_out_and_pooled_out_in_place_to_one_device(tmp_path, capsys):
    # A device is written in place, so naming it twice is no clash.
    x_path, z_path, _ = _simulate(tmp_path)
    argv = ["run", "--x", x_path, "--z", z_path, "--out", os.devnull, "--pool", "average",
            "--pooled-out", os.devnull, "--iters", "2", "--burn-in", "0"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert printed.endswith(f"trace: {os.devnull}\npooled estimate: {os.devnull}\n")


def test_run_memory_does_not_grow_with_the_iterations(tmp_path):
    # Both traces exceed the command's block (201 and 2001 rows of 16 KB);
    # the larger would hold 32 MB if the command kept it.
    n = 2_000
    rng = np.random.default_rng(11)
    x_path = _write_values(tmp_path / "x.txt", rng.normal(0.0, 1.0, n).tolist())
    z_path = _write_values(tmp_path / "z.txt", rng.normal(2.0, 1.5, n).tolist())
    peaks = {}
    for iters in (200, 2_000):
        argv = ["run", "--x", x_path, "--z", z_path, "--out", str(tmp_path / "t.csv"),
                "--pool", "average", "--pooled-out", str(tmp_path / "p.txt"),
                "--iters", str(iters)]
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                before = tracemalloc.get_traced_memory()[0]
                assert main(argv) == 0
            peaks[iters] = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    assert peaks[2_000] <= 1.1 * peaks[200]
    assert peaks[2_000] < 2_001 * n * 8


@pytest.mark.parametrize("pool", list(PoolingKind), ids=lambda k: k.value)
@pytest.mark.parametrize("policy", list(AdjustPolicy), ids=lambda p: p.value)
@settings(max_examples=12)
@given(
    st.integers(1, 300),
    st.integers(0, 40),
    st.integers(0, 39),
    st.sampled_from(["normal", "all-equal", "narrow-z"]),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
# At n = 1 a running sum of the pooled column differs from NumPy's
# pairwise mean: the command keeps the whole trace there.
@example(n=1, iters=40, burn=3, data="normal", block_rows=2, seed=5)
def test_streamed_run_writes_what_the_library_run_returns(
    policy, pool, n, iters, burn, data, block_rows, seed
):
    # A block of a few rows, so that most cases cross block boundaries.
    rng = np.random.default_rng(seed)
    if data == "all-equal":
        x = z = np.full(n, rng.normal())
    elif data == "narrow-z":  # var(z) <= var(x) in most draws: d is NA
        x, z = rng.normal(0.0, 2.0, n), rng.normal(1.0, 0.5, n)
    else:
        x, z = rng.normal(0.0, 1.0, n), rng.normal(1.0, 2.0, n)
    if pool is not PoolingKind.NONE and iters == 0:
        pool = PoolingKind.NONE
    burn_in = burn % max(iters, 1)
    support = "-inf:inf" if policy is AdjustPolicy.NONE else "0:inf"
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        x_path = _write_values(tmp / "x.txt", x.tolist())
        z_path = _write_values(tmp / "z.txt", z.tolist())
        out, pooled = tmp / "t.csv", tmp / "p.txt"
        argv = ["run", "--x", x_path, "--z", z_path, "--out", str(out),
                "--iters", str(iters), "--burn-in", str(burn_in), "--adjust", policy.value,
                f"--support={support}", "--pool", pool.value, "--seed", str(seed)]
        if pool is not PoolingKind.NONE:
            argv += ["--pooled-out", str(pooled)]
        printed = io.StringIO()
        with mock.patch.object(cli, "_TRACE_BLOCK", block_rows * n), \
                contextlib.redirect_stdout(printed), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        config = DeconvConfig(
            iters=iters, adjust=policy, support=parse_support(support),
            pool=PoolingMode(pool, burn_in=burn_in), seed=seed,
        )
        try:
            trace = run(x, z, config)
        except InfeasibleAdjustmentError:
            # copy-min or resample found no in-support value: no file is left.
            assert code == 2
            assert sorted(p.name for p in tmp.iterdir()) == ["x.txt", "z.txt"]
            return
        assert code == 0
        assert out.read_text() == reference_trace_csv(trace, make_header(seed, argv))
        if pool is not PoolingKind.NONE:
            assert pooled.read_text().splitlines()[1:] == list(map(repr, trace.pooled.tolist()))
        mean_d = trace.mean_distance()
        assert f"mean d (iter > {burn_in}): " + ("NA" if mean_d is None else f"{mean_d:.6g}") in (
            printed.getvalue().splitlines()
        )


# Edge classes of the flag values each fuzzed command may get: valid ones,
# boundary ones and ones the command must reject.
_SAMPLE_LINES = ["0", "1", "2.5", "-3", "7", "7", "0.125", "-0.0", "1e-300", "5e-324",
                 "4e307", "# a comment", "", "1e308", "nan", "x1"]
_RUN_FLAGS = {
    "--iters": ["0", "1", "3", "9", "-1"],
    "--burn-in": ["0", "1", "2", "5"],
    "--adjust": ["none", "clamp", "resample", "copy-min", "abs"],
    "--support": ["-inf:inf", "0:inf", "0:1", "-1:1", "1e6:inf", ":", "1:0", "x:1"],
    "--equalize": ["tile", "subsample", "bootstrap:3", "bootstrap:0", "mirror"],
    "--smooth-xi": ["0", "0.1", "1e200", "-1"],
    "--smooth-eta": ["0", "0.5", "inf"],
    "--smooth-zeta": ["0", "0.1", "1e-300"],
    "--smooth-fresh": ["0", "1", "2"],
    "--pool": ["none", "average", "concat", "concat-draw"],
    "--seed": ["0", "7", str(2**70), "-1"],
    "--tie-rule": ["first-occurrence", "random"],
}
_SIMULATE_SOURCES = [
    ["--experiment", "normal"], ["--experiment", "outlier"], ["--experiment", "cauchy"],
    ["--dist", "normal:0,inf"], ["--dist", "normal:nan,1"], ["--dist", "exponential:1e308"],
    ["--dist", "uniform:0,1e308"], ["--dist", "delay-link:5,0.1,20"], ["--dist", "gamma:1"],
    ["--dist", "contaminated-exponential:3,1,2,100"], [],
]


def _flags(options):
    """Each flag of a dictionary of options, or none of them, at random."""
    return st.fixed_dictionaries({}, optional={k: st.sampled_from(v) for k, v in options.items()})


# run, the command with the most flags, is drawn twice as often as each
# other command.
_run_calls = st.tuples(st.just("run"), _flags(_RUN_FLAGS), st.booleans())
_cli_calls = st.one_of(
    _run_calls,
    _run_calls,
    st.tuples(
        st.just("simulate"),
        st.sampled_from(_SIMULATE_SOURCES),
        _flags({"--n": ["1", "7", "100", "0", "-3"], "--seed": ["0", "3", "-1"]}),
    ),
    st.tuples(st.just("qq"), st.sampled_from(["standard-normal", "standard-exponential", "x"])),
    st.tuples(
        st.just("analyze3"),
        st.sampled_from([None, "", "1/2", "1/3,2/3", "10/120,22/120,0", "a", "1/0", "2,2,2"]),
    ),
)


@settings(max_examples=150)
@given(
    _cli_calls,
    st.lists(st.sampled_from(_SAMPLE_LINES), min_size=1, max_size=7),
    st.lists(st.sampled_from(_SAMPLE_LINES), min_size=1, max_size=7),
    st.booleans(),
)
# A run that succeeds over a hard-linked --out, and a streamed run that
# fails after writing every block: 5 iterates near 4e307 overflow the
# pooled average.
@example(("run", {"--iters": "9"}, False), ["0", "1", "2.5"], ["1", "7", "-3"], True)
@example(
    ("run", {"--iters": "9", "--pool": "average"}, True),
    ["0", "1", "2"],
    ["3e307", "4e307", "5e307"],
    True,
)
def test_fuzzed_commands_exit_0_or_2_with_an_error_line(call, x_lines, z_lines, existing):
    # Every call exits 0 or 2, and every exit 2 prints an error line, the
    # command's own or argparse's usage error.  A run writes its trace in
    # blocks of 8 values, so most traces span several blocks.  The first
    # output of a command may hold an earlier file with a second hard
    # link.  A command that fails leaves each of its outputs as it was (or
    # absent), and one that succeeds writes the first in place, so both
    # links read the new bytes; neither leaves a temporary file.
    command, *args = call
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        x_path = tmp / "x.txt"
        z_path = tmp / "z.txt"
        x_path.write_text("\n".join(x_lines) + "\n")
        z_path.write_text("\n".join(z_lines) + "\n")
        out, linked = tmp / "out.csv", tmp / "linked.csv"
        argv, outputs = [command], [out]
        if command == "run":
            flags, pooled_out = args
            argv += ["--x", str(x_path), "--z", str(z_path), "--out", str(out)]
            argv += [f"{flag}={value}" for flag, value in flags.items()]
            if pooled_out and flags.get("--pool", "none") != "none":
                argv += ["--pooled-out", str(tmp / "p.txt")]
                outputs.append(tmp / "p.txt")
        elif command == "simulate":
            source, flags = args
            argv += source + [f"{flag}={value}" for flag, value in flags.items()]
            argv += ["--out-prefix", str(tmp / "s-")]
            names = ["x1", "z0", "truth"] if "--experiment" in source else ["sample"]
            outputs = [tmp / f"s-{name}.txt" for name in names]
        elif command == "qq":
            argv += ["--in", str(x_path), "--dist", args[0], "--out", str(out)]
        else:
            argv += ["--out", str(out)]
            if args[0] is not None:
                argv += ["--x-values", args[0]]
            outputs.append(tmp / "out.summary.txt")
        if existing:
            outputs[0].write_text("an earlier file\n")
            os.link(outputs[0], linked)
        before = {path: path.read_bytes() for path in outputs if path.exists()}
        inode = outputs[0].stat().st_ino if existing else None
        err = io.StringIO()
        with mock.patch.object(cli, "_TRACE_BLOCK", 8), contextlib.redirect_stdout(
            io.StringIO()
        ), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2), argv
        if code == 2:
            prefixes = ("error: ", f"deconvsim {command}: error: ")
            assert any(line.startswith(prefixes) for line in err.getvalue().splitlines()), argv
            assert {path: path.read_bytes() for path in outputs if path.exists()} == before, argv
        elif existing:
            assert outputs[0].stat().st_ino == inode, argv
            assert linked.read_bytes() == outputs[0].read_bytes() != b"an earlier file\n", argv
        assert not [p.name for p in tmp.iterdir() if p.name.endswith(".tmp")], argv


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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_degenerate_warning_names_the_cause_seen_before_smoothing(tmp_path, capsys, seed):
    # var(z) = 0.5 <= var(x) = 50 on the data the reference is fitted to.
    # One-shot noise of sd 1.3e154 then makes the smoothed samples' moments
    # overflow for some seeds, which must not change the reason given.
    x_path = _write_values(tmp_path / "bx.txt", [0.0, 10.0])
    z_path = _write_values(tmp_path / "bz.txt", [0.0, 1.0])
    code = main(
        ["run", "--x", x_path, "--z", z_path, "--out", str(tmp_path / "t.csv"),
         "--iters", "3", "--smooth-eta", "1.3e154", "--smooth-zeta", "1.3e154",
         "--smooth-fresh", "0", "--seed", str(seed)]
    )
    assert code == 0
    assert capsys.readouterr().err == (
        "warning: normal reference is degenerate (var(z) <= var(x) or n < 2); "
        "d written as NA\n"
    )


def test_run_unwritable_output_exits_2(tmp_path, capsys):
    x_path, z_path, _ = _simulate(tmp_path)
    capsys.readouterr()
    out = tmp_path / "missing-dir" / "t.csv"
    code = main(["run", "--x", x_path, "--z", z_path, "--out", str(out), "--iters", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and "missing-dir" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["run", "run-pooled", "qq", "analyze3"])
@pytest.mark.parametrize(
    "out, error",
    [("", "[Errno 2] No such file or directory: ''"),
     ("new/", "[Errno 21] Is a directory: 'new/'")],
    ids=["empty", "trailing-slash"],
)
def test_an_output_path_naming_no_file_fails_as_open_does(
    tmp_path, monkeypatch, capsys, command, out, error
):
    # The real path of "" is the working directory and that of "new/" is
    # new: no temporary file may be made beside either, nor a file new.
    x_path, z_path, _ = _simulate(tmp_path)
    (tmp_path / "work").mkdir()
    monkeypatch.chdir(tmp_path / "work")
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    if command == "run-pooled":
        argv = _writing("run", "t.csv", x_path, z_path)
        argv += ["--pool", "average", "--burn-in", "0", "--pooled-out", out]
    else:
        argv = _writing(command, out, x_path, z_path)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert sorted(tmp_path.rglob("*")) == before


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


@pytest.mark.parametrize(
    "out, summary", [("out/census.csv", "out/census.summary.txt"), ("plain", "plain.summary.txt")]
)
def test_analyze3_writes_the_summary_beside_out(tmp_path, monkeypatch, capsys, out, summary):
    # The summary's path is --out with its extension replaced.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").mkdir()
    assert main(["analyze3", "--out", out, "--x-values", "10/120"]) == 0
    assert capsys.readouterr().out.endswith(f"census: {out}\nsummary: {summary}\n")
    assert (tmp_path / summary).read_text().splitlines()[1].startswith("total_regions,")


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
    # One x twice, also in another spelling, would count its regions twice.
    for repeated in ("10/120,10/120", "10/120,20/240"):
        assert main(["analyze3", "--out", out, "--x-values", repeated]) == 2
        assert capsys.readouterr().err == "error: x = 1/12 is given more than once\n"
    assert main(["analyze3", "--out", out, "--x-values", ","]) == 2
    assert capsys.readouterr().err == "error: --x-values is empty\n"
    assert main(["analyze3", "--out", out, "--x-values", "10/120, 1/0"]) == 2
    assert capsys.readouterr().err == "error: not a rational: '1/0'\n"
    assert not (tmp_path / "c.csv").exists()


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


@pytest.mark.parametrize("command", ["run", "qq"])
def test_a_sample_file_that_is_not_utf8_exits_2(tmp_path, capsys, command):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"1.0\n\xff2.0\n")
    ok = tmp_path / "ok.txt"
    ok.write_text("1\n2\n3\n")
    if command == "run":
        argv = ["run", "--x", str(bad), "--z", str(ok), "--out", str(tmp_path / "t.csv")]
    else:
        argv = ["qq", "--in", str(bad), "--dist", "standard-normal",
                "--out", str(tmp_path / "q.csv")]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and str(bad) in captured.err


@pytest.mark.parametrize("command", ["run", "qq"])
@pytest.mark.parametrize("text", ["inf", "nan", "1e999", "-Infinity"])
def test_a_non_finite_sample_line_exits_2_naming_the_file(tmp_path, capsys, command, text):
    bad = tmp_path / "bad.txt"
    bad.write_text(f"# comment\n1.0\n\n{text}\n2.0\n")
    ok = tmp_path / "ok.txt"
    ok.write_text("1\n2\n3\n")
    if command == "run":
        argv = ["run", "--x", str(ok), "--z", str(bad), "--out", str(tmp_path / "t.csv")]
    else:
        argv = ["qq", "--in", str(bad), "--dist", "standard-normal",
                "--out", str(tmp_path / "q.csv")]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {bad}:4: not a finite value: {text!r}\n"


@pytest.mark.parametrize("command", ["simulate", "run", "qq", "analyze3"])
def test_an_argument_that_is_not_utf8_is_escaped_in_every_header(tmp_path, capsys, command):
    # Byte 0xff in a file name reaches argv as the lone surrogate U+DCFF;
    # headers show it as the four characters \xff.
    x, z, truth = _simulate(tmp_path, "normal", 7)
    name = os.fsdecode(os.fsencode(tmp_path) + b"/out\xff")
    argv, outputs, seed = {
        "simulate": (
            ["simulate", "--dist", "normal:0,1", "--n", "5", "--seed", "3", "--out-prefix", name],
            [name + "sample.txt"],
            "3",
        ),
        "run": (
            ["run", "--x", x, "--z", z, "--out", name + ".csv", "--iters", "6", "--seed", "5",
             "--pool", "average", "--pooled-out", name + ".txt"],
            [name + ".csv", name + ".txt"],
            "5",
        ),
        "qq": (
            ["qq", "--in", truth, "--dist", "standard-normal", "--out", name + ".csv"],
            [name + ".csv"],
            "-",
        ),
        "analyze3": (
            ["analyze3", "--out", name + ".csv", "--x-values", "10/120"],
            [name + ".csv", name + ".summary.txt"],
            "-",
        ),
    }[command]
    assert main(argv) == 0
    capsys.readouterr()
    shown = " ".join(argv).replace("\udcff", "\\xff")
    for path in outputs:
        header = Path(path).read_bytes().split(b"\n", 1)[0]
        assert header == f"# deconvsim {__version__} seed={seed} args: {shown}".encode("ascii")


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_run_help_names_each_default(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # no help text is wrapped
    assert main(["run", "--help"]) == 0
    # An entry starts at a line indented by two spaces and a dash.
    entries = [" ".join(e.split()) for e in capsys.readouterr().out.split("\n  -")]
    for flag, default in [
        ("--iters", "100"),
        ("--burn-in", "4"),
        ("--adjust", "none"),
        ("--pool", "none"),
        ("--seed", "1729"),
        ("--tie-rule", "first-occurrence"),
        ("--support", "-inf:inf"),
        ("--equalize", "tile"),
        ("--smooth-xi", "0.0"),
        ("--smooth-eta", "0.0"),
        ("--smooth-zeta", "0.0"),
        ("--smooth-fresh", "1"),
    ]:
        [entry] = [e for e in entries if e.startswith(f"{flag[1:]} ")]
        assert entry.endswith(f"(default: {default})"), entry
