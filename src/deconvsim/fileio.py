"""File formats: sample text files, trace CSV, census CSV, QQ CSV.

Every writer emits a single '#' comment line first (version, seed, and
the invoking flags) so outputs are self-describing, and formats floats
as ``repr`` does, so values round-trip exactly.  Nothing time-dependent
is written: identical inputs give byte-identical files.

Floats are formatted in blocks by ``_repr_join``, whose text is
``sep.join(map(repr, values))`` byte for byte.  ``repr`` prints the
shortest decimal that reads back as the same double (Steele & White
1990; Gay 1990), positionally when 1e-4 <= |v| < 1e16.  For such a v
whose mantissa is not a power of two, the kernel works like this:

* With 10**E <= |v| < 10**(E+1) and q = 16 - E (1 <= q <= 20), the
  product X = |v| * 10**q is held exactly as hi + lo by Dekker's
  two-product (1971): 10**q is an exact double for q <= 22.  So the
  17-digit rounding m17 of X and the remainder r = X - m17 are exact.
* The 16- and 15-digit roundings come from ``m17 % 10`` and
  ``m17 % 100`` compared with r, ties to even, never by rounding twice.
* A candidate reads back as v when its distance to X is below half an
  ulp of v scaled by 10**q, ``ldexp(10**q, exp2 - 54)``; the mantissa is
  not a power of two, so the two neighbours of v are equally far.
  17 digits always read back.  The kernel takes the 15-digit candidate
  if it reads back, else the 16-digit one, else 17 digits.  Only one
  15-digit decimal can read back (DBL_DIG is 15), so the 15-digit
  candidate without its trailing zeros is the shortest text; among
  several 16-digit ones ``repr`` takes the nearest, ties to even.

``repr`` itself formats the rest: zeros, NaN and infinities, values
outside [1e-4, 1e16) (subnormals among them), mantissas that are a power
of two, values whose 15-digit candidate rounds up to the next power of
ten, and any value where a candidate lies within 1e-6 (in units of X) of
the half-ulp boundary.  That band is far wider than the rounding error
of the computed distances (below 1e-14), so no rounding decides a case.
"""

from __future__ import annotations

import os
from fractions import Fraction
from itertools import islice

import numpy as np

from . import __version__
from .core import as_sample
from .errors import InvalidInputError
from .metrics import QQData
from .smallcase import RegionCensus, is_point_mass

# Values per _repr_join call: bounds the call's temporaries (a few MB).
_BLOCK = 1 << 14

_POW10 = np.array([10.0**k for k in range(23)])  # exact doubles
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for binary64
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_IPOW10 = 10 ** np.arange(18, dtype=np.int64)
# Half-ulp distances closer than this (in units of X) go to repr.
_BAND = 1e-6

# ASCII digit words: _QUAD[k] is the text of k in 4 digits, zero padded,
# and _DOT3[k] that of k in 3 digits followed by the point.
_DIGITS = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_QUAD = np.stack(np.meshgrid(*[_DIGITS] * 4, indexing="ij"), axis=-1).view(np.uint32).reshape(-1)
_DOT3 = np.stack(
    np.meshgrid(*[_DIGITS] * 3, np.uint8([ord(".")]), indexing="ij"), axis=-1
).view(np.uint32).reshape(-1)
# Characters of each 4-digit group up to its last nonzero digit; far
# below zero for 0000, which therefore never ends a fraction.
_k = np.arange(10_000)
_QUAD_LEN = np.select([_k % 10 > 0, _k % 100 > 0, _k % 1000 > 0, _k > 0], [4, 3, 2, 1], -99)
del _k


def _groups4(m: np.ndarray, count: int) -> list[np.ndarray]:
    """The last count base-10000 digits of the int64 array m, most
    significant first."""
    out = []
    for _ in range(count):
        q = m // 10_000
        out.append(m - q * 10_000)
        m = q
    return out[::-1]


def _shortest_digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shortest round-trip digits of each a in [1e-4, 1e16) whose mantissa
    is not a power of two (see the module docstring).

    Returns (digits, dec, exact): the digits as a 17-digit int64, padded
    with zeros on the right; dec with 10**dec <= a < 10**(dec + 1); and
    False where the choice is too close to call.
    """
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    del c

    def scaled(dec):
        # Dekker's two-product: a * 10**q == hi + lo exactly.
        q = 16 - dec
        hi = a * _POW10[q]
        bh, bl = _POW10_HI[q], _POW10_LO[q]
        return q, hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl

    # log10 may put a value next to a power of ten one decade off.
    dec = np.floor(np.log10(a)).astype(np.int64)
    q, hi, lo = scaled(dec)
    shift = ((hi > 1e17) | ((hi == 1e17) & (lo >= 0))).astype(np.int64)
    shift -= (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    if shift.any():
        dec += shift
        q, hi, lo = scaled(dec)
    del ah, al, shift

    rounded = np.rint(lo)
    m17 = hi.astype(np.int64) + rounded.astype(np.int64)
    r = lo - rounded  # X - m17, exact
    del hi, lo, rounded
    half_ulp = np.ldexp(_POW10[q], np.frexp(a)[1] - 54)
    del q

    def candidate(step):
        """m17 rounded to a multiple of step, ties to even, and its
        distance to X."""
        quo = m17 // step
        rem = m17 - quo * step
        up = (rem > step // 2) | ((rem == step // 2) & ((r > 0) | ((r == 0) & (quo & 1 == 1))))
        m = (quo + up) * step
        return m, np.abs((m17 - m) + r)

    m16, d16 = candidate(10)
    exact = np.abs(d16 - half_ulp) > _BAND
    digits = np.where(d16 < half_ulp, m16, m17)
    del m16, d16
    m15, d15 = candidate(100)
    exact &= (np.abs(d15 - half_ulp) > _BAND) & (m15 < 10**17)
    np.copyto(digits, m15, where=d15 < half_ulp)
    return digits, dec, exact


def _digit_groups(digits: np.ndarray, dec: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Split each 17-digit decimal digits * 10**(dec - 16) at its point:
    the integer part, and the first 20 digits after the point as five
    base-10000 digits (int16), most significant first."""
    point = dec + 1  # digits before the point: |v| = 0.d1d2... * 10**point
    shift = _IPOW10[17 - np.maximum(point, 0)]
    ipart = digits // shift
    frac = digits - ipart * shift  # the 17 - point digits after the point
    # The fraction left-aligned in 20 digits, split as 8 + 12 digits.
    s = point + 3
    u = np.minimum(s, 12)
    top = frac // _IPOW10[12 - u]
    bottom = (frac - top * _IPOW10[12 - u]) * _IPOW10[u]
    top *= _IPOW10[s - u]
    return ipart, [g.astype(np.int16) for g in _groups4(top, 2) + _groups4(bottom, 3)]


def _repr_join(values, seps: str = ",") -> str:
    """``seps.join(map(repr, values))`` for a 1-D float array, computed in
    bulk.  With several separators, value i is followed by
    ``seps[i % len(seps)]``: a comma then a newline gives two CSV columns.
    Each separator is a single ASCII character.

    Each value's text is laid out in a row of a byte canvas: the integer
    digits end at column 18, the point is column 19 and the fraction
    digits start at column 20, all written as 4-byte words.  One boolean
    mask then picks every row's text and separator in order.  Values the
    fast path does not take are formatted by repr into their rows.
    """
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    k = v.size
    if k == 0:
        return ""
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e16) & (np.frexp(a)[0] != 0.5)
    np.copyto(a, 1.5, where=~fast)  # any value the fast path takes
    digits, dec, exact = _shortest_digits(a)
    del a
    good = fast & exact
    ipart, fraction = _digit_groups(digits, dec)
    del digits
    nfrac = np.ones(k, dtype=np.int64)
    for g, f in enumerate(fraction):
        np.maximum(nfrac, 4 * g + _QUAD_LEN[f], out=nfrac)

    neg = v < 0
    start = 17 - np.maximum(dec, 0) + ~neg  # first column
    del dec
    end = 20 + nfrac  # the separator's column
    del nfrac
    c0 = 4 * (start[good].min() // 4) if good.any() else 0
    back = np.flatnonzero(~good)
    texts = list(map(repr, v[back].tolist()))
    start[back] = c0
    end[back] = c0 + np.array(list(map(len, texts)), dtype=np.int64)
    start -= c0
    end -= c0
    # Only the words some row uses: columns c0 onwards.
    w0 = c0 // 4
    width = 4 * (end.max() // 4 + 1)

    canvas = np.empty((k, width), dtype=np.uint8)
    words = canvas.view(np.uint32)
    head = ipart // 1000
    head_groups = _groups4(head, 4) if w0 < 4 else []
    for g in range(w0, w0 + width // 4):
        if g < 4:
            words[:, g - w0] = _QUAD[head_groups[g]]
        elif g == 4:
            words[:, g - w0] = _DOT3[ipart - 1000 * head]
        elif g < 10:
            words[:, g - w0] = _QUAD[fraction[g - 5]]
    del ipart, head, head_groups, fraction
    flat = canvas.reshape(-1)
    rows = np.arange(0, k * width, width)
    minus = np.flatnonzero(good & neg)
    flat[rows[minus] + start[minus]] = ord("-")
    if back.size:
        canvas[back] = np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
    rows += end
    sep = np.frombuffer(seps.encode("ascii"), dtype=np.uint8)
    flat[rows] = np.tile(sep, -(-k // sep.size))[:k]
    del rows
    cols = np.arange(width)
    spans = ((cols >= cols[:, None, None]) & (cols <= cols[:, None])).reshape(-1, width)
    start *= width
    start += end
    keep = np.take(spans, start, axis=0)
    return canvas[keep][:-1].tobytes().decode("ascii")


def make_header(seed, argv) -> str:
    """The standard comment line content for output files."""
    args = " ".join(str(a) for a in argv) if argv else ""
    return f"deconvsim {__version__} seed={seed} args: {args}"


def fmt_rational(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _data_lines(fh):
    """(line number, stripped text) of each line that is neither blank
    nor a '#' comment."""
    for lineno, line in enumerate(fh, start=1):
        text = line.strip()
        if text and not text.startswith("#"):
            yield lineno, text


def read_sample(path) -> np.ndarray:
    """Read newline-delimited decimals; '#' comment lines and blank
    lines are ignored."""
    values = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, text in _data_lines(fh):
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
        with open(path, encoding="utf-8") as fh:
            lineno, text = next(islice(_data_lines(fh), first, None))
        raise InvalidInputError(f"{path}:{lineno}: not a finite value: {text!r}") from None


def write_sample(path, values, header: str) -> None:
    values = as_sample(values)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {header}\n")
        for i in range(0, values.size, _BLOCK):
            fh.write(_repr_join(values[i : i + _BLOCK], "\n") + "\n")


def write_trace_csv(path, trace, header: str) -> None:
    """Rows are the initial estimate (iter 0) then each iteration;
    d is "NA" whenever the normal reference is unavailable."""
    ys = trace.ys
    n = ys.shape[1]
    cols = ["iter", "d", "violations"] + [f"y_{i}" for i in range(1, n + 1)]
    ds = ["NA"] * len(ys) if trace.d is None else _repr_join(trace.d).split(",")
    heads = [f"{t},{d},{v}," for t, (d, v) in enumerate(zip(ds, trace.violations.tolist()))]
    # Whole rows per kernel call while they fit in one block, else one
    # row in blocks.
    step = max(1, _BLOCK // n)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {header}\n")
        fh.write(",".join(cols) + "\n")
        for r in range(0, len(ys), step):
            if n <= _BLOCK:
                lines = _repr_join(ys[r : r + step].reshape(-1), "," * (n - 1) + "\n").split("\n")
            else:
                lines = [",".join(_repr_join(ys[r, i : i + _BLOCK]) for i in range(0, n, _BLOCK))]
            fh.write("".join(f"{h}{line}\n" for h, line in zip(heads[r : r + step], lines)))


def write_qq_csv(path, qq: QQData, header: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {header}\n")
        fh.write("theoretical,sample\n")
        pairs = np.column_stack((qq.theoretical, qq.sample)).reshape(-1)
        for i in range(0, pairs.size, _BLOCK):
            fh.write(_repr_join(pairs[i : i + _BLOCK], ",\n") + "\n")


def write_census_csv(path, census: RegionCensus, header: str) -> None:
    """One row per region: exact x, representative (a, b), the 36 matrix
    entries and the 6 limiting probabilities, all as "p/q".  Each matrix
    and distribution that regions share is formatted once."""
    text: dict[int, str] = {}  # a shared matrix's or distribution's text, by identity
    rows = [f"# {header}\n", "x_num,x_den,a_num,a_den,b_num,b_den,matrix,stationary\n"]
    for e in census.entries:
        if id(e.matrix) not in text:
            text[id(e.matrix)] = ";".join(fmt_rational(v) for row in e.matrix for v in row)
        if id(e.stationary) not in text:
            text[id(e.stationary)] = ";".join(map(fmt_rational, e.stationary))
        rows.append(
            f"{e.x.numerator},{e.x.denominator},{e.a.numerator},{e.a.denominator},"
            f"{e.b.numerator},{e.b.denominator},{text[id(e.matrix)]},{text[id(e.stationary)]}\n"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(rows))


def write_census_summary(path, census: RegionCensus, header: str) -> None:
    xs = sorted({e.x for e in census.entries})
    per_x = ";".join(f"{fmt_rational(x)}:{census.regions_for(x)}" for x in xs)
    top_dist, top_count = census.top_distribution()
    hist = census.histogram()
    hist_text = ";".join(f"{mult}:{count}" for mult, count in sorted(hist.items()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"# {header}\n"
            f"total_regions,{census.total_regions}\n"
            f"regions_per_x,{per_x}\n"
            f"distinct_stationary,{census.distinct_count}\n"
            f"distinct_stationary_unlabeled,{census.distinct_unlabeled_count}\n"
            f"top_multiplicity,{top_count}\n"
            f"top_is_point_mass,{str(is_point_mass(top_dist)).lower()}\n"
            f"singletons,{census.singleton_count()}\n"
            f"multiplicity_histogram,{hist_text}\n"
        )


def summary_path_for(out_path) -> str:
    root, _ = os.path.splitext(os.fspath(out_path))
    return root + ".summary.txt"
