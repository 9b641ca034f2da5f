"""Reading and writing: sample files, trace/QQ/census CSVs, headers."""

from fractions import Fraction

import numpy as np
import pytest

from deconvsim import DeconvConfig, TheoreticalDist, make_experiment, make_rng, qq_data, run
from deconvsim.errors import InvalidInputError
from deconvsim.fileio import (
    fmt_rational,
    make_header,
    read_sample,
    summary_path_for,
    write_census_csv,
    write_census_summary,
    write_qq_csv,
    write_sample,
    write_trace_csv,
)
from deconvsim.smallcase import full_census


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
    write_sample(path, np.array(values))
    lines = path.read_text().splitlines()
    assert lines == [repr(v) for v in values]
    assert np.array([float(s) for s in lines]).tobytes() == np.array(values).tobytes()


def test_read_sample_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "messy.txt"
    path.write_text("# header\n\n1.5\n# middle comment\n\n2.5\n")
    assert np.array_equal(read_sample(path), [1.5, 2.5])


def test_read_sample_reports_the_offending_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1.0\nnot-a-number\n")
    with pytest.raises(InvalidInputError, match="2"):
        read_sample(path)


def test_read_sample_errors(tmp_path):
    with pytest.raises(InvalidInputError):
        read_sample(tmp_path / "missing.txt")
    empty = tmp_path / "empty.txt"
    empty.write_text("# only a comment\n")
    with pytest.raises(InvalidInputError):
        read_sample(empty)


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
    write_trace_csv(path, trace, header="hdr")
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
    write_trace_csv(path, trace)
    rows = path.read_text().splitlines()[1:]
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
