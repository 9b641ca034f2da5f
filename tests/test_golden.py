"""Golden SHA-256 digests of CLI outputs.

Each case runs one command through ``cli.main`` in a fresh directory and
hashes its exit code, everything it printed (warnings included: ``main``
prints each one as it is raised), and every file it wrote.  A refactor
that claims to leave results unchanged must leave every digest here
unchanged; the byte-determinism tests in ``test_cli.py`` only compare two
runs of the same code.

File names are relative, so the ``#`` header line of each output does not
depend on where the suite runs.  The digests were taken with NumPy 2.4.6
and CPython 3.11: another NumPy version may change the random streams or
float formatting, and the normal reference line (hence every ``d``) comes
from CPython's ``statistics.NormalDist``, so either can change these bytes.
"""

import contextlib
import hashlib
import io
import random
from pathlib import Path

import pytest

from deconvsim.cli import main

EXP = ["--x", "exp-x1.txt", "--z", "exp-z0.txt"]
OUT = ["--out", "trace.csv", "--seed", "7"]
POOLED = ["--pooled-out", "pooled.txt"]
SMOOTH = ["--smooth-xi", "0.1", "--smooth-eta", "0.1", "--smooth-zeta", "0.1414213562373095"]

# Every case with a d column was re-pinned when normal_quantile moved to
# statistics.NormalDist: d moved by at most 1.04e-15 relative, while every
# estimate, violation count, pooled value and printed line kept its bytes
# (none-bounded's support warning is now printed when it is raised, above
# the summary).  degenerate-reference writes d as NA and kept its digest.
RUN_CASES = {
    "none": (
        EXP + OUT,
        "e2c2eb8cfbcb095d27bdec5f5af1641839f7673d234a3517429adb99376e208f",
    ),
    "none-bounded": (
        EXP + OUT + ["--support", "0:inf"],
        "c8ccc2f3cb952cdc5695b5a313b72a84dbfbbc0bb658a67156cfa442499d1e8a",
    ),
    "abs-half-line": (
        EXP + OUT + ["--adjust", "abs", "--support", "0:inf", "--pool", "average"] + POOLED,
        "18709e46fba91794156c17b4898aa290010bd257fccaf6abbb78e4bc8ee72f37",
    ),
    "abs-two-bounds": (
        EXP + OUT + ["--adjust", "abs", "--support", "0:1.5"],
        "1caf1d11b7d0e675ad05b3f64cf3089abcbeb0e17d4e3021c99461c1a57d3fcf",
    ),
    "copy-min-half-line": (
        EXP + OUT + ["--adjust", "copy-min", "--support", "0:inf"],
        "40093b5489f0e9b6ba6dd76c4971a67581c41106680fbaf35fa8ff8a5b26a208",
    ),
    "copy-min-two-bounds": (
        EXP + OUT + ["--adjust", "copy-min", "--support", "0:1.5"],
        "39df191c5f553afc041f374227bfffd5028750638cf606d81bd97005794ce36b",
    ),
    # Re-pinned when the per-step draws moved to a child stream: the
    # donors come from the run generator's first child, indexed in
    # ascending order (the law is unchanged; see tests/test_adjusters.py).
    # Re-pinned again when the donor indices became floor(u * count) of
    # one Generator.random call instead of a Generator.integers call,
    # whose argument handling cost more than the rest of the repair; each
    # index is within 2**-52 of uniform (tests/test_core.py).
    "resample": (
        EXP + OUT + ["--adjust", "resample", "--support", "0:inf"],
        "c3a5e427668763b215f55efc7c08724fbe65a8c379ffa7190f01a918f6dd9aed",
    ),
    "clamp": (
        EXP + OUT + ["--adjust", "clamp", "--support", "0:1.5"],
        "e0996d2a020722811f1e8abe3e0830db4a00bb7e258f3b626e6c32a94965c0a1",
    ),
    "pool-concat": (
        EXP + OUT + ["--pool", "concat", "--burn-in", "10"] + POOLED,
        "b5a92d7087a47bb554e82bf8cfc451cf95f31ee82fc58d8977bb3086aabe4964",
    ),
    # Re-pinned when the per-step draws moved to a child stream: the pool
    # indices come from the run generator's second child.  Re-pinned again
    # when the pool indices became floor(u * t * n) of Generator.random
    # draws, as the resample donors did.
    "pool-concat-draw-400": (
        EXP + OUT + ["--pool", "concat-draw", "--iters", "400"] + POOLED,
        "2813ef91a06f657e7b41780c0be213c6f9115971dd4acab24ef10c61b78b468e",
    ),
    # Re-pinned when the per-step draws moved to a child stream: the fresh
    # noise comes from the run generator's first child.
    "smooth-fresh": (
        EXP + OUT + SMOOTH,
        "472e338fc67d066e2cc70f7d11e436efd1be346d7d10ee07db601ad2e9324096",
    ),
    "smooth-once": (
        EXP + OUT + SMOOTH + ["--smooth-fresh", "0"],
        "35b21c1cc49bdacc4dd9a5054a0384d713241a3652cc1e688b6e2660eed8025a",
    ),
    "equalize-tile": (
        ["--x", "short-sample.txt", "--z", "exp-z0.txt"] + OUT,
        "b5334b8080ec50f34d825fbc204a2eb9cb38e7be972a7115a6949a1bf8b05a24",
    ),
    "equalize-subsample": (
        ["--x", "short-sample.txt", "--z", "exp-z0.txt", "--equalize", "subsample"] + OUT,
        "b54839fef6efab154b620da17773467aef18ad745c9822221f16588823abdb9a",
    ),
    "equalize-bootstrap": (
        ["--x", "short-sample.txt", "--z", "exp-z0.txt", "--equalize", "bootstrap:80"] + OUT,
        "78235cf6ff619e4e092ae6302112125d642bada80b9eb596e0ef8915ca778c54",
    ),
    # Re-pinned when the per-step draws moved to a child stream: the tie
    # keys come from the run generator's first child.
    "tie-random-lattice": (
        ["--x", "lat-x.txt", "--z", "lat-z.txt", "--tie-rule", "random"] + OUT,
        "b75aa0188e5a91289dbdbe5dc1b7a5d7b8d150cd98ac7f305bf5724a334f8da7",
    ),
    "degenerate-reference": (
        ["--x", "exp-z0.txt", "--z", "exp-x1.txt"] + OUT,
        "65aa43d88253c5da6f0a24a58c3587cf9c63158185e94e3a29ce97b3ca3be0a4",
    ),
    # n = 4096: the packed-key sort order (n >= 1024) over a whole run, and
    # trace rows that the float kernel writes several to a block.
    "abs-half-line-4096": (
        ["--x", "big-x-sample.txt", "--z", "big-z-sample.txt", "--iters", "10"] + OUT
        + ["--adjust", "abs", "--support", "0:inf", "--pool", "average"] + POOLED,
        "0a4d141fe46b046ef21b8eb10f6480b3c973bf818105b429fd565ce9351822e2",
    ),
    "first-occurrence-lattice-4096": (
        ["--x", "biglat-x.txt", "--z", "biglat-z.txt", "--iters", "10"] + OUT
        + ["--tie-rule", "first-occurrence"],
        "8afa5b694e309c0e051cadf81e7ed7aa64ecd114fb374c5a3fd4c07bf027e431",
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
    # The full default census: 924 regions over the six canonical x.
    "analyze3-canonical": (
        ["analyze3", "--out", "census.csv"],
        ["census.csv", "census.summary.txt"],
        "2cb45d931ea8549d8220dd57f0d8bacd8bb0d34ab4c97d6fb89b5fb7afab887b",
    ),
    # An x whose scaled values overflow int64, so ranks are compared on
    # Python ints.
    "analyze3-huge-denominator": (
        [
            "analyze3",
            "--out",
            "census.csv",
            "--x-values",
            "1000000000000000000000000000001/12000000000000000000000000000000,22/120",
        ],
        ["census.csv", "census.summary.txt"],
        "13ff2b2a5ef1573a611da21de9220ddaccd47332c761d738f8a734f517f157ea",
    ),
}


def _invoke(argv: list[str]) -> tuple[int, str]:
    """Run the CLI, returning its exit code and the text it printed."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
        code = main(argv)
    return code, text.getvalue()


def make_inputs() -> None:
    """Write the input samples into the current directory."""
    for argv in (
        ["simulate", "--experiment", "exponential", "--seed", "7", "--out-prefix", "exp-"],
        ["simulate", "--dist", "normal:0,1", "--n", "60", "--seed", "3", "--out-prefix", "short-"],
        ["simulate", "--dist", "exponential:1", "--n", "4096", "--seed", "11", "--out-prefix", "big-x-"],
        ["simulate", "--dist", "exponential:2", "--n", "4096", "--seed", "12", "--out-prefix", "big-z-"],
    ):
        code, text = _invoke(argv)
        assert code == 0, text
    # Small-integer samples: the working vector w is full of ties.
    Path("lat-x.txt").write_text("".join(f"{i % 3}\n" for i in range(40)))
    Path("lat-z.txt").write_text("".join(f"{i % 3 + i * 7 % 4}\n" for i in range(40)))
    Path("biglat-x.txt").write_text("".join(f"{i % 3}\n" for i in range(4096)))
    Path("biglat-z.txt").write_text("".join(f"{i % 3 + i * 7 % 4}\n" for i in range(4096)))


def digest(argv: list[str], outputs: list[str]) -> str:
    """SHA-256 of the exit code, the text and each output file of one command."""
    code, text = _invoke(argv)
    h = hashlib.sha256(f"{code}\n{text}".encode())
    for name in outputs:
        h.update(f"\n{name}\n".encode())
        h.update(Path(name).read_bytes())
    return h.hexdigest()


def write_messy_sample(path: str, count: int, mu: float, sigma: float, seed: int) -> None:
    """A sample file of count normal values as a spreadsheet or a hand edit
    might leave it: a UTF-8 byte-order mark, CRLF line endings, blank and
    whitespace-only lines, indented '#' comments, values padded with spaces
    and tabs in several decimal spellings, and no newline after the last."""
    rand = random.Random(seed)
    pads = ["", " ", "\t", "  \t", " \t "]
    lines = ["# messy sample"]
    for i in range(count):
        roll = rand.random()
        if roll < 0.05:
            lines.append(rand.choice(["", "   ", "\t"]))
        elif roll < 0.08:
            lines.append(f"{rand.choice(pads)}# note {i}")
        v = rand.gauss(mu, sigma)
        text = rand.choice([repr(v), f"{v:.6e}", f"{v:.10f}"])
        lines.append(f"{rand.choice(pads)}{text}{rand.choice(pads)}")
    Path(path).write_bytes(("\ufeff" + "\r\n".join(lines)).encode("utf-8"))


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


# More lines than the reader's block, written only for this case.
MESSY_RUN = (
    ["--x", "messy-x.txt", "--z", "messy-z.txt", "--iters", "2", "--burn-in", "0"] + OUT,
    "a32f7c707d5854fe6b624f2cdbd48591afc418ead54a1492efc23299e00800a1",
)


def test_messy_input_run_matches_golden_digest(inputs):
    write_messy_sample("messy-x.txt", 17_000, 0.0, 1.0, seed=1)
    write_messy_sample("messy-z.txt", 18_500, 2.0, 1.5, seed=2)
    flags, expected = MESSY_RUN
    assert digest(["run"] + flags, ["trace.csv"]) == expected
