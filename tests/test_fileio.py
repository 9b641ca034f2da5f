"""Reading and writing: sample files, trace/QQ/census CSVs, headers."""

import builtins
import random
import sys
import tracemalloc
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from deconvsim import (
    AdjustPolicy,
    DeconvConfig,
    SupportConstraint,
    TheoreticalDist,
    make_experiment,
    make_rng,
    qq_data,
    run,
)
from deconvsim import fileio
from deconvsim.core import as_sample
from deconvsim.engine import IterationTrace
from deconvsim.errors import InvalidInputError
from deconvsim.fileio import (
    _BLOCK,
    _ROUND15,
    _ROUND16,
    _repr_join,
    fmt_rational,
    make_header,
    read_sample,
    summary_path_for,
    write_census_csv,
    write_census_summary,
    write_qq_csv,
    write_sample,
    write_trace_block,
)
from deconvsim.smallcase import full_census

from conftest import reference_trace_csv


def _write_trace(path, trace):
    """The trace CSV of a whole trace, written as one block, header "hdr"."""
    with open(path, "w", encoding="utf-8") as fh:
        write_trace_block(fh, 0, trace.ys, trace.d, trace.violations, "hdr")


def test_sample_round_trip(tmp_path):
    path = tmp_path / "sample.txt"
    values = np.array([0.1, -3.5, 1e-17, 12345.678901234567, -0.0, 1e-300, 2.0 / 3.0])
    write_sample(path, values, header="demo seed=1")
    back = read_sample(path)
    assert back.tobytes() == values.tobytes()  # exact, and -0.0 keeps its sign
    text = path.read_text()
    assert text.startswith("# demo seed=1\n")


def test_fmt_float_round_trips_exactly(tmp_path):
    # Writers print each value as repr of a Python float: shortest exact text.
    values = [0.1, -0.0, 1e-300, 2.0 / 3.0, 12345.678901234567]
    path = tmp_path / "floats.txt"
    write_sample(path, np.array(values), header="hdr")
    lines = path.read_text().splitlines()
    assert lines == ["# hdr"] + [repr(v) for v in values]
    assert np.array([float(s) for s in lines[1:]]).tobytes() == np.array(values).tobytes()


def test_read_sample_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "messy.txt"
    path.write_text("# header\n\n1.5\n# middle comment\n\n2.5\n")
    assert np.array_equal(read_sample(path), [1.5, 2.5])


def test_read_sample_reports_the_offending_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1.0\nnot-a-number\n")
    with pytest.raises(InvalidInputError, match="2"):
        read_sample(path)


@pytest.mark.parametrize("text", ["1.5\n2.5\n", "# header\n1.5\n2.5\n"])
def test_read_sample_accepts_a_utf8_byte_order_mark(tmp_path, text):
    # Notepad and Excel start a UTF-8 export with one.
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert np.array_equal(read_sample(path), [1.5, 2.5])


def test_read_sample_names_a_non_finite_line_after_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbf1.5\ninf\n")
    with pytest.raises(InvalidInputError, match=r"bom.txt:2: not a finite value: 'inf'"):
        read_sample(path)


def test_read_sample_still_rejects_text_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"1.0\n\xff2.0\n")
    message = "cannot read .*latin1.txt: 'utf-8' codec can't decode"
    with pytest.raises(InvalidInputError, match=message):
        read_sample(path)


def test_read_sample_errors(tmp_path):
    with pytest.raises(InvalidInputError):
        read_sample(tmp_path / "missing.txt")
    empty = tmp_path / "empty.txt"
    empty.write_text("# only a comment\n")
    with pytest.raises(InvalidInputError):
        read_sample(empty)


# The reader before it parsed in blocks, kept verbatim (names prefixed
# with "line_by_line") as the oracle the block reader must keep matching:
# one float() per line, and the finiteness check after the whole file.


def line_by_line_data_lines(fh):
    """(line number, stripped text) of each line that is neither blank
    nor a '#' comment."""
    for lineno, line in enumerate(fh, start=1):
        text = line.strip()
        if text and not text.startswith("#"):
            yield lineno, text


def line_by_line_read_sample(path) -> np.ndarray:
    """Read newline-delimited decimals; '#' comment lines and blank
    lines are ignored, and so is a UTF-8 byte-order mark."""
    values = []
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, text in line_by_line_data_lines(fh):
                try:
                    values.append(float(text))
                except ValueError:
                    raise InvalidInputError(
                        f"{path}:{lineno}: not a decimal value: {text!r}"
                    ) from None
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from None
    if not values:
        raise InvalidInputError(f"{path}: no data lines")
    try:
        return as_sample(values)
    except InvalidInputError:
        # float() reads inf, nan and 1e999, the one failure left here.
        # Name the first such line; the file is read again only on
        # failure, so success costs no more.
        first = int(np.isfinite(values).argmin())
        with open(path, encoding="utf-8-sig") as fh:
            lineno, text = next(islice(line_by_line_data_lines(fh), first, None))
        raise InvalidInputError(f"{path}:{lineno}: not a finite value: {text!r}") from None


def read_outcome(reader, path):
    """The bytes of what reader reads from path, or the message it raises."""
    try:
        return reader(path).tobytes()
    except InvalidInputError as exc:
        return str(exc)


def messy_lines(count: int, seed: int) -> list[str]:
    """count lines as a hand-edited sample might hold them: values padded
    with spaces and tabs, blank lines and indented '#' comments."""
    rand = random.Random(seed)
    pads = ["", " ", "\t", " \t "]
    lines = []
    for i in range(count):
        roll = rand.random()
        if roll < 0.05:
            lines.append(rand.choice(["", "  ", "\t"]))
        elif roll < 0.08:
            lines.append(f"{rand.choice(pads)}# note {i}")
        else:
            lines.append(f"{rand.choice(pads)}{rand.gauss(0, 1)!r}{rand.choice(pads)}")
    return lines


def write_lines(path, lines, newline="\n", bom=False):
    path.write_bytes((("\ufeff" if bom else "") + newline.join(lines) + newline).encode())


@pytest.mark.parametrize("index", [_BLOCK - 1, _BLOCK, _BLOCK + 57, 2 * _BLOCK + 3])
@pytest.mark.parametrize(
    "text, message", [("1.5.2", "not a decimal value"), ("-inf", "not a finite value"), ("nan", "not a finite value")]
)
def test_read_sample_names_the_true_line_in_any_block(tmp_path, index, text, message):
    # Blank and comment lines before it, so data index and line number differ.
    lines = messy_lines(2 * _BLOCK + 50, seed=index)
    lines[index] = f" {text}\t"
    path = tmp_path / "sample.txt"
    write_lines(path, lines, "\r\n", bom=True)
    expected = f"{path}:{index + 1}: {message}: {text!r}"
    with pytest.raises(InvalidInputError) as caught:
        read_sample(path)
    assert str(caught.value) == expected
    assert read_outcome(line_by_line_read_sample, path) == expected


def test_read_sample_names_a_bad_decimal_before_an_earlier_non_finite_value(tmp_path):
    # As when the whole file was parsed before the finiteness check.
    lines = messy_lines(3 * _BLOCK, seed=5)
    lines[10] = "inf"
    lines[2 * _BLOCK + 5] = "1,5"
    path = tmp_path / "sample.txt"
    write_lines(path, lines)
    expected = f"{path}:{2 * _BLOCK + 6}: not a decimal value: '1,5'"
    assert read_outcome(read_sample, path) == expected
    assert read_outcome(line_by_line_read_sample, path) == expected


@pytest.mark.parametrize(
    "faults",
    [
        {1: b"abc", 5000: b"\xff"},
        {2: b"\xff", 5000: b"abc"},
        {5000: b"abc", 20_000: b"\xff"},
        {3: b"inf", 9000: b"\xfe2.5"},
        {_BLOCK + 7: b"1\xc3"},
    ],
    ids=["bad-line-then-bad-byte", "bad-byte-then-bad-line", "bad-byte-in-a-later-block",
         "inf-then-bad-byte", "bad-byte-past-the-first-block"],
)
def test_read_sample_names_the_fault_a_line_by_line_read_meets_first(tmp_path, faults):
    # A block is decoded before any of its lines is parsed, so a bad line
    # and bytes that are not UTF-8 can sit in one block.
    lines = [b"%d.5" % i for i in range(2 * _BLOCK)]
    for index, text in faults.items():
        lines[index] = text
    path = tmp_path / "sample.txt"
    path.write_bytes(b"\n".join(lines) + b"\n")
    assert read_outcome(read_sample, path) == read_outcome(line_by_line_read_sample, path)


@pytest.mark.parametrize("count", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK])
def test_read_sample_reads_files_at_the_block_edges(tmp_path, count):
    values = np.random.default_rng(count).normal(size=count)
    path = tmp_path / "sample.txt"
    write_lines(path, [repr(v) for v in values.tolist()])
    assert read_sample(path).tobytes() == values.tobytes()
    comments = tmp_path / "comments.txt"
    write_lines(comments, ["# only comments"] * count)
    assert read_outcome(read_sample, comments) == f"{comments}: no data lines"


@pytest.mark.parametrize("bom", [False, True])
def test_read_sample_reads_every_line_ending_alike(tmp_path, bom):
    # Universal newlines: CR-only (classic Mac) and CRLF files read as
    # their LF twin, blank and comment lines included.
    lines = messy_lines(2 * _BLOCK + 3, seed=7)
    outcomes = set()
    for name, newline in (("lf", "\n"), ("cr", "\r"), ("crlf", "\r\n")):
        path = tmp_path / f"{name}.txt"
        write_lines(path, lines, newline, bom)
        got = read_sample(path)
        assert got.tobytes() == line_by_line_read_sample(path).tobytes()
        outcomes.add(got.tobytes())
    assert len(outcomes) == 1


def test_read_sample_holds_one_block_of_lines(tmp_path):
    # The 16 blocks of lines take 18 MB as Python strings, so a reader that
    # held them all would break the bound; this one holds one block of
    # lines and their stripped texts, and the values read so far.
    lines = messy_lines(16 * _BLOCK, seed=9)
    path = tmp_path / "sample.txt"
    write_lines(path, lines)
    block_lines = sum(sys.getsizeof(f"{line}\n") for line in lines[:_BLOCK])
    all_lines = sum(sys.getsizeof(f"{line}\n") for line in lines)
    count = read_sample(path).size
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        read_sample(path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 3 * block_lines + 3 * 8 * count
    assert 3 * block_lines + 3 * 8 * count < all_lines


def test_fmt_rational_always_shows_the_denominator():
    assert fmt_rational(Fraction(3, 4)) == "3/4"
    assert fmt_rational(Fraction(2)) == "2/1"
    assert fmt_rational(Fraction(-1, 3)) == "-1/3"


def test_make_header_mentions_version_and_seed():
    header = make_header(42, ["run", "--x", "a.txt"])
    assert "deconvsim" in header
    assert "seed=42" in header
    assert "--x a.txt" in header


def test_trace_csv_layout(tmp_path):
    x1, z0, _ = make_experiment("normal", 0)
    trace = run(x1, z0, DeconvConfig(iters=3, seed=0))
    path = tmp_path / "trace.csv"
    _write_trace(path, trace)
    lines = path.read_text().splitlines()
    assert lines[0] == "# hdr"
    cols = lines[1].split(",")
    assert cols[:3] == ["iter", "d", "violations"]
    assert cols[3] == "y_1" and cols[-1] == "y_100"
    assert len(lines) == 2 + 1 + 3  # header, columns, initial row, 3 steps
    first = lines[2].split(",")
    assert first[0] == "0"
    assert float(first[3]) == trace.ys[0][0]


def test_trace_csv_writes_na_for_missing_d(tmp_path):
    v = np.sort(make_rng(0).normal(size=20))
    trace = run(v, v, DeconvConfig(iters=2, seed=0))
    path = tmp_path / "degenerate.csv"
    _write_trace(path, trace)
    rows = path.read_text().splitlines()[2:]
    assert len(rows) == 3
    assert all(r.split(",")[1] == "NA" for r in rows)


def test_qq_csv_layout(tmp_path):
    qq = qq_data(np.array([1.0, 2.0]), TheoreticalDist.STANDARD_NORMAL)
    path = tmp_path / "qq.csv"
    write_qq_csv(path, qq, header="hdr")
    lines = path.read_text().splitlines()
    assert lines[0] == "# hdr"
    assert lines[1] == "theoretical,sample"
    assert len(lines) == 4
    theo, sample = lines[2].split(",")
    assert float(sample) == 1.0
    assert float(theo) == pytest.approx(-0.6744897501960817)


def test_census_csv_and_summary(tmp_path):
    census = full_census([Fraction(10, 120)])
    csv_path = tmp_path / "census.csv"
    write_census_csv(csv_path, census, header="hdr")
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "# hdr"
    assert lines[1] == "x_num,x_den,a_num,a_den,b_num,b_den,matrix,stationary"
    assert len(lines) == 2 + 154
    fields = lines[2].split(",")
    assert (int(fields[0]), int(fields[1])) == (1, 12)  # 10/120 reduced
    matrix = fields[6].split(";")
    stationary = fields[7].split(";")
    assert len(matrix) == 36 and len(stationary) == 6
    assert all("/" in cell for cell in matrix + stationary)
    assert sum(Fraction(cell) for cell in stationary) == 1

    summary_path = tmp_path / "census.summary.txt"
    write_census_summary(summary_path, census, header="hdr")
    text = summary_path.read_text()
    assert "total_regions,154" in text
    assert "regions_per_x,1/12:154" in text
    assert "top_is_point_mass," in text
    assert "multiplicity_histogram," in text


def test_summary_path_for():
    assert summary_path_for("out/census.csv") == "out/census.summary.txt"
    assert summary_path_for("plain") == "plain.summary.txt"


# The float kernel: _repr_join must give the bytes of repr, value by value.


def _rounded_per_value(m17, r, step):
    """m17 rounded to a multiple of step, ties to even, by the arithmetic
    the kernel used before its rounding tables, kept verbatim as their
    oracle."""
    sign_r = np.sign(r).astype(np.int64)

    def candidate(step):
        quo = m17 // step
        key = m17 - quo * step
        key *= 2
        key += sign_r
        key += quo & 1
        quo += key > step
        quo *= step
        return quo

    return candidate(step)


@pytest.mark.parametrize("k", [0, 1, 10**13, 10**14 - 1])
def test_rounding_tables_equal_the_per_value_rounding(k):
    # Every residue m17 % 1000 with r below, on and above zero: the table
    # entry at 3 * (m17 % 1000) + sign(r) + 1 is the rounding's delta, at
    # any k = m17 // 1000, up to m17 = 10**17 - 1.
    rem = np.arange(1000).repeat(3)
    r = np.tile([-0.5, 0.0, 0.25], 1000)
    m17 = k * 1000 + rem
    index = 3 * rem + np.sign(r).astype(np.int64) + 1
    assert np.array_equal(index, np.arange(3000))
    for table, step in ((_ROUND16, 10), (_ROUND15, 100)):
        assert table.dtype == np.int64 and table.shape == (3000,)
        assert np.array_equal(m17 + table[index], _rounded_per_value(m17, r, step))


def _joined(values, seps=","):
    """The reference text: repr of each value, joined by the cycled seps."""
    return "".join(repr(v) + seps[i % len(seps)] for i, v in enumerate(values))[:-1]


def _first_difference(got: str, want: str):
    """None, or (line, field, got field, wanted field) of the first
    difference: a short message where a diff of the whole text would be
    megabytes."""
    got_lines, want_lines = got.split("\n"), want.split("\n")
    for i, (g, w) in enumerate(zip(got_lines, want_lines)):
        if g != w:
            pairs = zip(g.split(","), w.split(","))
            j, (gf, wf) = next(((j, p) for j, p in enumerate(pairs) if p[0] != p[1]), (-1, ("", "")))
            return i, j, gf, wf
    if len(got_lines) != len(want_lines):
        return len(got_lines), len(want_lines), "", ""
    return None


def _assert_matches_repr(values):
    assert _first_difference(_repr_join(values), ",".join(map(repr, values.tolist()))) is None


@given(
    st.lists(st.floats() | st.floats(-1e3, 1e3), max_size=40),
    st.sampled_from([",", "\n", ",\n"]),
)
def test_repr_join_equals_repr(values, seps):
    # st.floats() draws nan, +-inf, -0.0 and subnormals too.
    assert _repr_join(np.array(values, dtype=np.float64), seps) == _joined(values, seps)


def test_repr_join_matches_repr_on_a_seeded_sweep():
    rng = np.random.default_rng(20240)
    size = 250_000
    bits = rng.integers(0, 2**64, size, dtype=np.uint64).view(np.float64)
    scaled = rng.random(size) * 10.0 ** rng.uniform(-8, 18, size) * rng.choice([-1.0, 1.0], size)
    # Few significant digits: the 15-digit candidate wins, trailing zeros go.
    rounded = np.concatenate(
        [np.round(rng.normal(size=2_000) * 10.0**e, d) for e in range(-4, 15) for d in (0, 2, 5, 9)]
    )
    # Short binary fractions: exact ties at the 16th digit (600000000000000.25).
    dyadic = rng.integers(1, 2**53, 100_000) / 2.0 ** rng.integers(0, 64, 100_000)
    integers = rng.integers(-(2**62), 2**62, 100_000).astype(np.float64)
    for values in (bits, scaled, rounded, dyadic, integers):
        _assert_matches_repr(values)


def test_repr_join_matches_repr_at_the_edges():
    tens = np.array([float(f"1e{k}") for k in range(-5, 18)])
    values = np.concatenate(
        [
            np.nextafter(tens, 0.0),
            tens,
            np.nextafter(tens, np.inf),
            2.0 ** np.arange(-1074, 1024),
            [5e-324, np.finfo(np.float64).max, 0.1, 0.30000000000000004, 9999999999999998.0],
            [600000000000000.25, 600000000000000.75, 0.0, np.inf, np.nan],
        ]
    )
    _assert_matches_repr(np.concatenate([values, -values]))
    # Both 16-digit neighbours read back: ties go to the even digit.
    assert _repr_join(np.array([600000000000000.25, 600000000000000.75])) == (
        "600000000000000.2,600000000000000.8"
    )
    assert _repr_join(np.array([])) == ""


def _mixed_trace(n, rows, with_d=True):
    """A trace of arbitrary rows: normal values over many scales, plus
    values the kernel leaves to repr (zeros, tiny and huge ones)."""
    rng = np.random.default_rng(n + rows)
    ys = rng.normal(size=(rows, n)) * 10.0 ** rng.integers(-6, 12, size=(rows, n))
    flat = ys.reshape(-1)
    flat[::17] = 0.0
    flat[5::23] = 1e-300
    flat[9::31] = -2.5e20
    d = rng.random(rows) * 100 if with_d else None
    return IterationTrace(
        config=DeconvConfig(iters=rows - 1),
        sortx=ys[0],
        sortz=ys[0],
        ys=ys,
        d=d,
        violations=rng.integers(0, 5, rows),
    )


@pytest.mark.parametrize(
    "n, rows, with_d",
    [
        (1, _BLOCK + 2, True),
        (7, 2 * (_BLOCK // 7) + 1, False),
        (3001, 12, True),
        (_BLOCK, 2, True),
        (_BLOCK + 3, 3, False),
    ],
)
def test_trace_csv_matches_one_repr_per_float(tmp_path, n, rows, with_d):
    # Whole rows per kernel call up to the block size, a row in blocks above.
    trace = _mixed_trace(n, rows, with_d)
    path = tmp_path / "trace.csv"
    _write_trace(path, trace)
    assert _first_difference(path.read_text(), reference_trace_csv(trace, "hdr")) is None


def test_sample_and_qq_writers_match_repr_across_blocks(tmp_path):
    values = _mixed_trace(2 * _BLOCK + 1, 1).ys[0]
    path = tmp_path / "sample.txt"
    write_sample(path, values, header="hdr")
    want = "# hdr\n" + "".join(repr(v) + "\n" for v in values.tolist())
    assert _first_difference(path.read_text(), want) is None

    qq = qq_data(np.sort(values[: _BLOCK + 1]), TheoreticalDist.STANDARD_NORMAL)
    path = tmp_path / "qq.csv"
    write_qq_csv(path, qq, header="hdr")
    pairs = zip(qq.theoretical.tolist(), qq.sample.tolist())
    want = "# hdr\ntheoretical,sample\n" + "".join(f"{t!r},{s!r}\n" for t, s in pairs)
    assert _first_difference(path.read_text(), want) is None


def test_cli_shaped_trace_rarely_falls_back_to_repr(tmp_path, monkeypatch):
    # A kernel that stays correct but sends every value to repr loses the gain.
    rng = np.random.default_rng(960)
    x, z = rng.normal(0.0, 1.0, 10_000), rng.normal(2.0, 1.5, 10_000)
    support = SupportConstraint(0.0, np.inf)
    config = DeconvConfig(iters=10, adjust=AdjustPolicy.COPY_SMALLEST, support=support, seed=1)
    trace = run(x, z, config)
    calls = 0

    def counting_repr(v):
        nonlocal calls
        calls += 1
        return builtins.repr(v)

    monkeypatch.setattr(fileio, "repr", counting_repr, raising=False)
    _write_trace(tmp_path / "trace.csv", trace)
    assert 0 < trace.ys.size and calls < 0.01 * trace.ys.size


def _significant_digits(v: float) -> int:
    """Digits in the shortest text of a positional repr."""
    return len(repr(abs(v)).replace(".", "").strip("0"))


def _kernel_classes(per_class=1000):
    """{(decade, sign, length class): values}: for each decade 1e-4 ..
    1e15, both signs, and shortest texts of at most 15, exactly 16 and
    exactly 17 significant digits.  Mantissas that are a power of two go
    to repr by design and are left out."""
    rng = np.random.default_rng(22)
    classes = {}
    for e in range(-4, 16):
        # At most 15 digits: a decimal of 1..15 digits in the decade.
        ndigits = rng.integers(1, 16, per_class)
        mants = (rng.random(per_class) * 9 + 1) * 10.0 ** (ndigits - 1)
        short = [float(f"{int(m)}e{e - d + 1}") for m, d in zip(mants, ndigits.tolist())]
        # Random doubles in the decade: mostly 16 or 17 digits.
        wide = ((rng.random(8 * per_class) * 9 + 1) * 10.0**e).tolist()
        by_length = {"<=15": short, "16": [], "17": []}
        for v in wide:
            by_length.get(str(_significant_digits(v)), []).append(v)
        for length, values in by_length.items():
            values = np.array(values[:per_class])
            in_decade = (values >= 10.0**e) & (values < 10.0 ** (e + 1))
            values = values[in_decade & (np.frexp(values)[0] != 0.5)]
            assert values.size > 0.9 * per_class, (e, length, values.size)
            for sign in (1.0, -1.0):
                classes[e, sign, length] = sign * values
    return classes


def test_every_decade_sign_and_length_class_takes_the_fast_path(monkeypatch):
    # A kernel that sent a whole class to repr would stay correct and pass
    # the sweeps above; here each class must match repr with fewer than
    # 0.1 % of its values formatted by repr.
    calls = 0

    def counting_repr(v):
        nonlocal calls
        calls += 1
        return builtins.repr(v)

    monkeypatch.setattr(fileio, "repr", counting_repr, raising=False)
    for key, values in _kernel_classes().items():
        calls = 0
        got = _repr_join(values)
        fallbacks = calls
        assert got == ",".join(builtins.repr(v) for v in values.tolist()), key
        assert fallbacks < 0.001 * values.size, (key, fallbacks)


def test_write_trace_csv_memory_is_bounded_by_a_row(tmp_path):
    # The trace is 101 rows (8 MB) and its text 19 MB; the writer holds one
    # row's block and its text at a time.
    n, iters = 10_000, 100
    rng = np.random.default_rng(3)
    ys = np.sort(rng.normal(size=(iters + 1, n)), axis=1)
    trace = IterationTrace(
        config=DeconvConfig(iters=iters),
        sortx=ys[0],
        sortz=ys[0],
        ys=ys,
        d=rng.random(iters + 1),
        violations=np.zeros(iters + 1, dtype=np.int64),
    )
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        _write_trace(tmp_path / "trace.csv", trace)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 40 * ys[0].nbytes
