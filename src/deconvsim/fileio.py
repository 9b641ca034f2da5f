"""File formats: sample text files, trace CSV, census CSV, QQ CSV.

Every writer emits a single '#' comment line first (version, seed, and
the invoking flags) so outputs are self-describing, and formats floats
with repr so values round-trip exactly.  Nothing time-dependent is
written: identical inputs give byte-identical files.
"""

from __future__ import annotations

import os
from fractions import Fraction

import numpy as np

from . import __version__
from .core import as_sample
from .errors import InvalidInputError
from .metrics import QQData
from .smallcase import RegionCensus, is_point_mass


def make_header(seed, argv) -> str:
    """The standard comment line content for output files."""
    args = " ".join(str(a) for a in argv) if argv else ""
    return f"deconvsim {__version__} seed={seed} args: {args}"


def fmt_rational(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def read_sample(path) -> np.ndarray:
    """Read newline-delimited decimals; '#' comment lines and blank
    lines are ignored."""
    values = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                try:
                    values.append(float(text))
                except ValueError:
                    raise InvalidInputError(
                        f"{path}:{lineno}: not a decimal value: {text!r}"
                    ) from None
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from None
    if not values:
        raise InvalidInputError(f"{path}: no data lines")
    return as_sample(values)


def write_sample(path, values, header: str | None = None) -> None:
    values = as_sample(values)
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        for v in values.tolist():
            fh.write(repr(v) + "\n")


def write_trace_csv(path, trace, header: str | None = None) -> None:
    """Rows are the initial estimate (iter 0) then each iteration;
    d is "NA" whenever the normal reference is unavailable."""
    n = trace.sortx.size
    cols = ["iter", "d", "violations"] + [f"y_{i}" for i in range(1, n + 1)]
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        fh.write(",".join(cols) + "\n")
        ds = [None] * len(trace.ys) if trace.d is None else trace.d.tolist()
        for t, (y, d, v) in enumerate(zip(trace.ys, ds, trace.violations.tolist())):
            row = [str(t), "NA" if d is None else repr(d), str(v)]
            row.extend(map(repr, y.tolist()))
            fh.write(",".join(row) + "\n")


def write_qq_csv(path, qq: QQData, header: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        fh.write("theoretical,sample\n")
        for t, s in zip(qq.theoretical.tolist(), qq.sample.tolist()):
            fh.write(f"{t!r},{s!r}\n")


def write_census_csv(path, census: RegionCensus, header: str | None = None) -> None:
    """One row per region: exact x, representative (a, b), the 36 matrix
    entries and the 6 limiting probabilities, all as "p/q"."""
    cols = "x_num,x_den,a_num,a_den,b_num,b_den,matrix,stationary"
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        fh.write(cols + "\n")
        for e in census.entries:
            matrix = ";".join(fmt_rational(v) for row in e.matrix for v in row)
            stationary = ";".join(fmt_rational(v) for v in e.stationary)
            fh.write(
                f"{e.x.numerator},{e.x.denominator},"
                f"{e.a.numerator},{e.a.denominator},"
                f"{e.b.numerator},{e.b.denominator},"
                f"{matrix},{stationary}\n"
            )


def census_summary_lines(census: RegionCensus) -> list[str]:
    xs = sorted({e.x for e in census.entries})
    per_x = ";".join(f"{fmt_rational(x)}:{census.regions_for(x)}" for x in xs)
    top_dist, top_count = census.top_distribution()
    hist = census.histogram()
    hist_text = ";".join(f"{mult}:{count}" for mult, count in sorted(hist.items()))
    return [
        f"total_regions,{census.total_regions}",
        f"regions_per_x,{per_x}",
        f"distinct_stationary,{census.distinct_count}",
        f"distinct_stationary_unlabeled,{census.distinct_unlabeled_count}",
        f"top_multiplicity,{top_count}",
        f"top_is_point_mass,{str(is_point_mass(top_dist)).lower()}",
        f"singletons,{census.singleton_count()}",
        f"multiplicity_histogram,{hist_text}",
    ]


def write_census_summary(path, census: RegionCensus, header: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        for line in census_summary_lines(census):
            fh.write(line + "\n")


def summary_path_for(out_path) -> str:
    root, _ = os.path.splitext(os.fspath(out_path))
    return root + ".summary.txt"
