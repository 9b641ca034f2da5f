"""Golden SHA-256 digests of CLI outputs.

Each case runs one command through ``cli.main`` in a fresh directory and
hashes its exit code, everything it printed or warned, and every file it
wrote.  A refactor that claims to leave results unchanged must leave every
digest here unchanged; the byte-determinism tests in ``test_cli.py`` only
compare two runs of the same code.

File names are relative, so the ``#`` header line of each output does not
depend on where the suite runs.  The digests were taken with NumPy 2.4.6:
another NumPy version may change the random streams or float formatting,
and with them these bytes.
"""

import contextlib
import hashlib
import io
import warnings
from pathlib import Path

import pytest

from deconvsim.cli import main

EXP = ["--x", "exp-x1.txt", "--z", "exp-z0.txt"]
OUT = ["--out", "trace.csv", "--seed", "7"]
POOLED = ["--pooled-out", "pooled.txt"]
SMOOTH = ["--smooth-xi", "0.1", "--smooth-eta", "0.1", "--smooth-zeta", "0.1414213562373095"]

RUN_CASES = {
    "none": (
        EXP + OUT,
        "e0f51121f97b2e8a8773ed04fb6d4d714fa9cb247ac792f05fa26f1f95a77099",
    ),
    "none-bounded": (
        EXP + OUT + ["--support", "0:inf"],
        "864f76b402593626e33f2f3fabf574dba4a1bf041c48a4267bd14646e93c582b",
    ),
    "abs-half-line": (
        EXP + OUT + ["--adjust", "abs", "--support", "0:inf", "--pool", "average"] + POOLED,
        "950ed8b39d1949525fbbc3748df1a5e86e8d2d7932b1d691d6a1eb68bbd56d57",
    ),
    "abs-two-bounds": (
        EXP + OUT + ["--adjust", "abs", "--support", "0:1.5"],
        "e69fa8a5f9ab03b33064c5b0465d4dcaa156553dc794a1c1096f0b4f310798eb",
    ),
    "copy-min-half-line": (
        EXP + OUT + ["--adjust", "copy-min", "--support", "0:inf"],
        "a1176488044e9abbd80cb70a1f99134aabe66deb745531201046fdb8c1f90ab6",
    ),
    "copy-min-two-bounds": (
        EXP + OUT + ["--adjust", "copy-min", "--support", "0:1.5"],
        "35931264b4a4f6ba3dc056028c2dedba18d38730d0221bb6443ab70329d34d56",
    ),
    # Re-pinned when resample moved to the one-argsort step: it indexes
    # its donors in z order, not x order, so the same draws pick other
    # donors (the law is unchanged; see tests/test_engine.py).
    "resample": (
        EXP + OUT + ["--adjust", "resample", "--support", "0:inf"],
        "be232d8faa153fdcb1b7baf4b5c57f84bf3f62b39980dd7659c97b209a025e26",
    ),
    "clamp": (
        EXP + OUT + ["--adjust", "clamp", "--support", "0:1.5"],
        "9fc65870b2fe881a493463023e1d9432c5065ed66dd3ac330829221f5d99cdce",
    ),
    "pool-concat": (
        EXP + OUT + ["--pool", "concat", "--burn-in", "10"] + POOLED,
        "79fc600f4761b4392f30fb58adf11efaa9d17b5f09129a743e6bda3c74a1a824",
    ),
    "pool-concat-draw-400": (
        EXP + OUT + ["--pool", "concat-draw", "--iters", "400"] + POOLED,
        "dfa0ecf3a5fb511d8341edf85d0eb47e7e36407a2d96f9a6a5b426ad2ce0d372",
    ),
    "smooth-fresh": (
        EXP + OUT + SMOOTH,
        "43de7e12a652a390481553bbd46127e1551134dc8550c110e3a1d4ded7840412",
    ),
    "smooth-once": (
        EXP + OUT + SMOOTH + ["--smooth-fresh", "0"],
        "61c918d660004d11a8a98844263f2a6b1c12d80f4777512789a5b68880fdc8c8",
    ),
    "equalize-tile": (
        ["--x", "short-sample.txt", "--z", "exp-z0.txt"] + OUT,
        "38b9150881638359b190bc5632fe20cc1eb9d9d55a1eb43201da61fb0860715a",
    ),
    "equalize-subsample": (
        ["--x", "short-sample.txt", "--z", "exp-z0.txt", "--equalize", "subsample"] + OUT,
        "b7240ebef076ffb2a9a51a2e710efc5c940b537fa91db45a7cf89c5e5165795f",
    ),
    "equalize-bootstrap": (
        ["--x", "short-sample.txt", "--z", "exp-z0.txt", "--equalize", "bootstrap:80"] + OUT,
        "979fea066d4e831b4a442a9560c464e1ffb035c1addc3917e1e84184d802da3f",
    ),
    "tie-random-lattice": (
        ["--x", "lat-x.txt", "--z", "lat-z.txt", "--tie-rule", "random"] + OUT,
        "1655eabfa96f2cfbef19c6478a37d52f3cf183dbea48d9a32797b872ed1baf03",
    ),
    "degenerate-reference": (
        ["--x", "exp-z0.txt", "--z", "exp-x1.txt"] + OUT,
        "65aa43d88253c5da6f0a24a58c3587cf9c63158185e94e3a29ce97b3ca3be0a4",
    ),
}

OTHER_CASES = {
    "qq": (
        ["qq", "--in", "exp-truth.txt", "--dist", "standard-exponential", "--out", "qq.csv"],
        ["qq.csv"],
        "0f544b089880032bb1288970108d20e932f924e0ca040358cc999dfa1399fd29",
    ),
    "analyze3": (
        ["analyze3", "--out", "census.csv", "--x-values", "10/120,22/120"],
        ["census.csv", "census.summary.txt"],
        "59adc48f8bf61c46e146f8f014a415cb31b613442c1ac26cc604e5f3b2f29329",
    ),
}


def _invoke(argv: list[str]) -> tuple[int, str]:
    """Run the CLI, returning its exit code and its printed and warned text."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
    warned = "".join(f"warning: {w.message}\n" for w in caught)
    return code, text.getvalue() + warned


def make_inputs() -> None:
    """Write the input samples into the current directory."""
    for argv in (
        ["simulate", "--experiment", "exponential", "--seed", "7", "--out-prefix", "exp-"],
        ["simulate", "--dist", "normal:0,1", "--n", "60", "--seed", "3", "--out-prefix", "short-"],
    ):
        code, text = _invoke(argv)
        assert code == 0, text
    # Small-integer samples: the working vector w is full of ties.
    Path("lat-x.txt").write_text("".join(f"{i % 3}\n" for i in range(40)))
    Path("lat-z.txt").write_text("".join(f"{i % 3 + i * 7 % 4}\n" for i in range(40)))


def digest(argv: list[str], outputs: list[str]) -> str:
    """SHA-256 of the exit code, the text and each output file of one command."""
    code, text = _invoke(argv)
    h = hashlib.sha256(f"{code}\n{text}".encode())
    for name in outputs:
        h.update(f"\n{name}\n".encode())
        h.update(Path(name).read_bytes())
    return h.hexdigest()


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    make_inputs()


@pytest.mark.parametrize("case", sorted(RUN_CASES))
def test_run_output_matches_golden_digest(inputs, case):
    flags, expected = RUN_CASES[case]
    outputs = ["trace.csv"] + (["pooled.txt"] if "--pooled-out" in flags else [])
    assert digest(["run"] + flags, outputs) == expected


@pytest.mark.parametrize("case", sorted(OTHER_CASES))
def test_other_output_matches_golden_digest(inputs, case):
    argv, outputs, expected = OTHER_CASES[case]
    assert digest(argv, outputs) == expected
