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
* The 16- and 15-digit roundings of m17, ties to even and never by
  rounding twice, depend on ``m17 % 1000`` and the sign of r alone.  Two
  tables of 3 000 deltas, one per rounding, hold them, indexed by
  ``3 * (m17 % 1000) + sign(r) + 1``.
* A candidate reads back as v when its distance to X is below half an
  ulp of v scaled by 10**q, ``ldexp(10**q, exp2 - 54)``; the mantissa is
  not a power of two, so the two neighbours of v are equally far.
  17 digits always read back.  The kernel takes the 15-digit candidate
  if it reads back, else the 16-digit one, else 17 digits.  Only one
  15-digit decimal can read back (DBL_DIG is 15), so the 15-digit
  candidate without its trailing zeros is the shortest text; among
  several 16-digit ones ``repr`` takes the nearest, ties to even.
* The text is assembled in a byte canvas with one row per value, from
  4-byte words of 4 digits, or 3 digits and the point, with the point
  of every row in one column.  The words come from one table whose
  sections write the leading zeros of the integer part and the trailing
  zeros of the fraction as NUL bytes.  A row's first column holds the
  separator that follows the value before.  The canvas read in order,
  its NUL bytes deleted by one ``bytes.translate``, is the joined text.

``repr`` itself formats the rest: zeros, NaN and infinities, values
outside [1e-4, 1e16) (subnormals among them), mantissas that are a power
of two, values whose 15-digit candidate rounds up to the next power of
ten, and any value where a candidate lies within 1e-6 (in units of X) of
the half-ulp boundary.  That band is far wider than the rounding error
of the computed distances (below 1e-14), so no rounding decides a case.
"""

from __future__ import annotations

import os
import shutil
import stat
from contextlib import contextmanager, suppress
from fractions import Fraction
from itertools import count, islice

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


def _blanked(words: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """words with each byte where keep is False set to NUL."""
    return (words.view(np.uint8).reshape(-1, 4) * keep).view(np.uint32).reshape(-1)


def _word_table() -> np.ndarray:
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    quad = np.stack(np.meshgrid(*[digits] * 4, indexing="ij"), axis=-1).view(np.uint32).reshape(-1)
    dot3 = np.stack(
        np.meshgrid(*[digits] * 3, np.uint8([ord(".")]), indexing="ij"), axis=-1
    ).view(np.uint32).reshape(-1)
    nonzero = quad.view(np.uint8).reshape(-1, 4) != ord("0")
    trimmed = _blanked(quad, np.logical_or.accumulate(nonzero[:, ::-1], axis=1)[:, ::-1])
    trimmed[0] = _blanked(quad[:1], np.array([True, False, False, False]))[0]
    leading = _blanked(quad, np.logical_or.accumulate(nonzero, axis=1))
    nonzero = dot3.view(np.uint8).reshape(-1, 4) != ord("0")
    nonzero[:, 2:] = True  # the units digit and the point stay
    dot_leading = _blanked(dot3, np.logical_or.accumulate(nonzero, axis=1))
    empty = np.zeros(1, dtype=np.uint32)
    return np.concatenate([quad, trimmed, empty, leading, dot3, dot_leading])


# Text is assembled from 4-byte words, each 4 ASCII bytes read as one
# uint32, and NUL bytes are dropped at the end.  _WORDS holds every word
# the kernel writes, in sections: from 0, k in 4 digits, zero padded;
# from _TRIM, the same without trailing zeros ("0" for 0000); at
# 2 * _TRIM, the empty word; from _LEAD, 4 digits without leading zeros
# (empty for 0000); from _DOT, 3 digits then the point; from _DOT_LEAD,
# the same without the zeros before the units digit.
_WORDS = _word_table()
_TRIM, _LEAD, _DOT, _DOT_LEAD = 10_000, 20_001, 30_001, 31_001


def _groups4(m: np.ndarray, count: int) -> list[np.ndarray]:
    """The base-10000 digits of the int64 array m < 10000**count, as
    int16, most significant first."""
    out = []
    for _ in range(count - 1):
        q = m // 10_000
        out.append((m - q * 10_000).astype(np.int16))
        m = q
    out.append(m.astype(np.int16))
    return out[::-1]


def _round_deltas(step: int) -> np.ndarray:
    """candidate - m17 for m17 rounded to a multiple of step (10 or 100),
    ties to even, at index 3 * (m17 % 1000) + sign(r) + 1, where r = X - m17
    and |r| <= 1/2.

    With rem = m17 - quo * step, X - quo * step = rem + r, and step and
    2 * rem are even, so X lies above the midpoint exactly when
    2 * rem + sign(r) > step, and on it when the two are equal; adding
    quo & 1 then rounds a tie to even.  rem and the parity of quo depend
    on m17 % 1000 alone, as 1000 / step is even."""
    m = np.arange(1000).repeat(3)
    sign_r = np.tile([-1, 0, 1], 1000)
    quo = m // step
    key = 2 * (m - quo * step) + sign_r + (quo & 1)
    return (quo + (key > step)) * step - m


_ROUND16, _ROUND15 = _round_deltas(10), _round_deltas(100)


def _shortest_digits(a: np.ndarray, exp2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shortest round-trip digits of each a in [1e-4, 1e16) whose mantissa
    is not a power of two (see the module docstring); exp2 is the binary
    exponent of a, as ``np.frexp`` gives it.

    Returns (digits, dec, exact): the digits as a 17-digit int64, padded
    with zeros on the right; dec with 10**dec <= a < 10**(dec + 1); and
    False where the choice is too close to call.
    """
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    del c

    def scaled(dec):
        # Dekker's two-product: a * 10**q == hi + lo exactly, with lo
        # summed as ((ah*bh - hi) + ah*bl + al*bh) + al*bl.
        q = 16 - dec
        p = _POW10.take(q)
        hi = a * p
        bh, bl = _POW10_HI.take(q), _POW10_LO.take(q)
        del q
        lo = ah * bh
        lo -= hi
        lo += ah * bl
        bh *= al
        lo += bh
        bl *= al
        lo += bl
        return p, hi, lo

    # log10 may put a value next to a power of ten one decade off.  hi is
    # X rounded, so X can leave [1e16, 1e17) only if hi reaches a bound.
    dec = np.floor(np.log10(a)).astype(np.int64)
    p, hi, lo = scaled(dec)
    if ((hi >= 1e17) | (hi <= 1e16)).any():
        shift = ((hi > 1e17) | ((hi == 1e17) & (lo >= 0))).astype(np.int64)
        shift -= (hi < 1e16) | ((hi == 1e16) & (lo < 0))
        if shift.any():
            dec += shift
            p, hi, lo = scaled(dec)
        del shift
    del ah, al

    rounded = np.rint(lo)
    m17 = hi.astype(np.int64) + rounded.astype(np.int64)
    r = lo - rounded  # X - m17, exact
    del hi, lo, rounded
    half_ulp = np.ldexp(p, exp2 - 54)
    del p

    index = m17 // 1000
    index *= -1000
    index += m17
    index *= 3
    index += 1
    index += r > 0
    index -= r < 0  # 3 * (m17 % 1000) + sign(r) + 1

    def candidate(deltas):
        """candidate - m17 for m17 rounded as deltas gives; where the
        candidate reads back as a; and where its distance to X is clear of
        the half ulp."""
        delta = deltas.take(index)
        dist = np.subtract(r, delta)  # X - candidate
        np.abs(dist, out=dist)
        dist -= half_ulp
        return delta, dist < 0, np.abs(dist) > _BAND

    d16, reads16, clear16 = candidate(_ROUND16)
    d15, reads15, clear15 = candidate(_ROUND15)
    del index, r, half_ulp
    exact = clear16 & clear15
    exact &= m17 < 10**17 - d15
    # 17 digits always read back; reads15 implies reads16, as the 15-digit
    # candidate is a multiple of 10 too and so no nearer to X.
    d16 *= reads16
    digits = m17
    digits += np.where(reads15, d15, d16)
    return digits, dec, exact


def _digit_groups(digits: np.ndarray, dec: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Split each 17-digit decimal digits * 10**(dec - 16) at its point:
    the integer part, and the first 20 digits after the point as five
    base-10000 digits (int16), most significant first."""
    point = dec + 1  # digits before the point: |v| = 0.d1d2... * 10**point
    shift = _IPOW10.take(17 - np.maximum(point, 0))
    ipart = digits // shift
    frac = digits - ipart * shift  # the 17 - point digits after the point
    del shift
    # The fraction left-aligned in 20 digits, split as 8 + 12 digits.
    s = point + 3
    del point
    u = np.minimum(s, 12)
    p = _IPOW10.take(12 - u)
    top = frac // p
    p *= top
    frac -= p  # the rest, as the last 12 of the 20 digits:
    frac *= _IPOW10.take(u)
    top *= _IPOW10.take(s - u)
    del s, u, p
    return ipart, _groups4(top, 2) + _groups4(frac, 3)


def _repr_join(values, seps: str = ",") -> str:
    """``seps.join(map(repr, values))`` for a 1-D float array, computed in
    bulk.  With several separators, value i is followed by
    ``seps[i % len(seps)]``: a comma then a newline gives two CSV columns.
    Each separator is a single ASCII character.

    Each value's text is laid out in a row of a byte canvas, in words
    from _WORDS: the integer digits end at column 18, the point is column
    19 and the fraction digits start at column 20.  A fraction group
    whose later groups are all zero drops its trailing zeros, one whose
    own digits are zero too is empty, and the integer words before the
    first nonzero digit drop their leading zeros: all as NUL bytes.  The
    first column of a row holds the separator that follows the value
    before, and values the fast path does not take are formatted by repr
    into the rest of their rows.  The canvas read row by row without its
    NUL bytes is the text.
    """
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    k = v.size
    if k == 0:
        return ""
    a = np.abs(v)
    mant, exp2 = np.frexp(a)
    fast = (a >= 1e-4) & (a < 1e16) & (mant != 0.5)
    del mant
    slow = ~fast
    np.copyto(a, 1.5, where=slow)  # any value the fast path takes
    np.copyto(exp2, 1, where=slow)  # and its exponent
    del slow
    digits, dec, exact = _shortest_digits(a, exp2)
    del a, exp2
    good = fast & exact
    ipart, fraction = _digit_groups(digits, dec)
    del digits
    back = (~good).nonzero()[0]
    texts = list(map(repr, v[back].tolist()))
    minus = (good & (v < 0)).nonzero()[0]
    del good
    # Words w0 .. w0 + nw - 1: from the one holding the column before any
    # row's text, where the separator goes, to the last fraction digit of
    # any row (16 - dec of them at most), or past the longest repr text.
    w0 = (17 - max(int(dec.max()), 0) - (minus.size > 0)) // 4
    nf = (19 - int(dec.min())) // 4  # fraction words: 5 at most, as dec >= -4
    nw = max(5 + nf - w0, max(map(len, texts), default=0) // 4 + 1)

    text = bytearray(k * 4 * nw)  # all NUL
    canvas = np.frombuffer(text, dtype=np.uint8).reshape(k, 4 * nw)
    words = canvas.view(np.uint32)
    if w0 == 4:  # every integer part is below 100
        words[:, 0] = _WORDS.take(ipart + _DOT_LEAD)
    else:
        lead = np.ones(k, dtype=bool)  # the integer digits so far are all zero
        head = ipart // 1000
        for g, h in enumerate(_groups4(head, 4)):
            if g >= w0:
                words[:, g - w0] = _WORDS.take(h + _LEAD * lead)
            lead &= h == 0
        words[:, 4 - w0] = _WORDS.take(ipart - 1000 * head + (_DOT + 1000 * lead))
        del lead, head
    del ipart
    tail = np.ones(k, dtype=bool)  # the fraction groups after this one are all zero
    for j in range(nf - 1, -1, -1):
        f = fraction[j]
        state = tail.astype(np.int16)  # 1: drop trailing zeros
        if j:
            tail &= f == 0
            state += tail  # 2: all zeros from here on
        words[:, 5 + j - w0] = _WORDS.take(f + _TRIM * state)
    del tail, state, fraction
    if back.size:
        padded = np.array(texts, dtype=f"S{4 * nw - 1}")  # NUL-padded
        canvas[back, 1:] = padded.view(np.uint8).reshape(back.size, -1)
    flat = canvas.reshape(-1)
    flat[minus * (4 * nw) + (17 - 4 * w0 - np.maximum(dec[minus], 0))] = ord("-")
    if len(seps) == 1:
        canvas[1:, 0] = ord(seps)
    else:
        sep = np.frombuffer(seps.encode("ascii"), dtype=np.uint8)
        canvas[1:, 0] = np.tile(sep, -(-k // sep.size))[: k - 1]
    return text.translate(None, b"\0").decode("ascii")


def shown(text: str) -> str:
    """text as it is written out: a byte of a command-line argument that
    is not UTF-8 (such as 0xff in a file name), which Python keeps as a
    lone surrogate, is spelled \\xff, so the text encodes as UTF-8."""
    return os.fsencode(text).decode("utf-8", "backslashreplace")


def make_header(seed, argv) -> str:
    """The standard comment line content for output files."""
    args = " ".join(map(shown, argv))
    return f"deconvsim {__version__} seed={seed} args: {args}"


def fmt_rational(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _data_lines(lines, start: int):
    """(line number, stripped text) of each of lines, the file's lines
    after its first start, that is neither blank nor a '#' comment."""
    for lineno, line in enumerate(lines, start=start + 1):
        text = line.strip()
        if text and text[0] != "#":
            yield lineno, text


def _bad_decimal(lines, start: int = 0):
    """(line number, text) of the first data line of lines, the file's
    lines after its first start, that float() rejects; None if none."""
    for lineno, text in _data_lines(lines, start):
        try:
            float(text)
        except ValueError:
            return lineno, text
    return None


def read_sample(path) -> np.ndarray:
    """Read newline-delimited decimals; '#' comment lines and blank
    lines are ignored, and so is a UTF-8 byte-order mark.

    The file is read _BLOCK lines at a time, and each block's data lines
    go through one ``map(float, ...)``; a block is scanned again line by
    line only to name the line that failed.  Of several faults, the one
    named is the one a line-by-line read meets first: the first line that
    is not a decimal or the first bytes that are not UTF-8, whichever
    comes first in the file, and only then the first value that float()
    reads as inf or nan.
    """
    blocks = []
    bad = None  # (line number, text) of the first line float() rejects
    non_finite = None  # (line number, text) of the first inf or nan
    start = 0  # lines before the current block
    try:
        with open(path, encoding="utf-8-sig") as fh:
            while lines := list(islice(fh, _BLOCK)):
                data = [t for t in map(str.strip, lines) if t and t[0] != "#"]
                try:
                    block = np.fromiter(map(float, data), np.float64, len(data))
                except ValueError:
                    bad = _bad_decimal(lines, start)
                    break
                finite = np.isfinite(block)
                if non_finite is None and not finite.all():
                    first = int(finite.argmin())
                    non_finite = next(islice(_data_lines(lines, start), first, None))
                blocks.append(block)
                start += len(lines)
    except UnicodeDecodeError as exc:
        # The block that failed to decode may hold a bad line before the
        # bad bytes, and a line-by-line read would name that line.
        try:
            with open(path, encoding="utf-8-sig") as fh:
                bad = _bad_decimal(fh)
        except (OSError, UnicodeDecodeError):
            pass
        if bad is None:
            raise InvalidInputError(f"cannot read {path}: {exc}") from None
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from None
    if bad is not None:
        lineno, text = bad
        raise InvalidInputError(f"{path}:{lineno}: not a decimal value: {text!r}")
    if non_finite is not None:
        lineno, text = non_finite
        raise InvalidInputError(f"{path}:{lineno}: not a finite value: {text!r}")
    values = np.concatenate(blocks) if blocks else np.empty(0)
    if not values.size:
        raise InvalidInputError(f"{path}: no data lines")
    return values


def write_sample(path, values, header: str) -> None:
    values = as_sample(values)
    with replacing(path) as fh:
        fh.write(f"# {header}\n")
        for i in range(0, values.size, _BLOCK):
            fh.write(_repr_join(values[i : i + _BLOCK], "\n") + "\n")


def write_trace_block(fh, start: int, ys, d, violations, header: str) -> None:
    """Write the rows of iterates start, start + 1, ... of a trace CSV to
    the text file fh: ys holds their estimates, one per row, and d and
    violations hold the distance index and violation count of every
    iterate of the run, from iterate 0; d is None when the normal
    reference is unavailable, and every d is then written as "NA".  At
    start 0 the comment line (header) and the column row come first.
    Rows are formatted whole per kernel call while they fit in _BLOCK
    values, else one row in blocks of _BLOCK."""
    n = ys.shape[1]
    if start == 0:
        cols = ["iter", "d", "violations"] + [f"y_{i}" for i in range(1, n + 1)]
        fh.write(f"# {header}\n")
        fh.write(",".join(cols) + "\n")
    stop = start + len(ys)
    ds = ["NA"] * len(ys) if d is None else _repr_join(d[start:stop]).split(",")
    counts = violations[start:stop].tolist()
    heads = [f"{t},{dt},{v}," for t, (dt, v) in enumerate(zip(ds, counts), start)]
    step = max(1, _BLOCK // n)
    for r in range(0, len(ys), step):
        if n <= _BLOCK:
            lines = _repr_join(ys[r : r + step].reshape(-1), "," * (n - 1) + "\n").split("\n")
        else:
            lines = [",".join(_repr_join(ys[r, i : i + _BLOCK]) for i in range(0, n, _BLOCK))]
        fh.write("".join(f"{h}{line}\n" for h, line in zip(heads[r : r + step], lines)))


@contextmanager
def replacing(path):
    """A new text file, open for writing, that becomes path only when the
    with block ends without an exception.

    It is written next to path (next to the file a symbolic link names),
    with the permission bits that ``open(path, "w")`` leaves, and then
    renamed over path; on an exception it is removed, and a file already
    at path keeps its bytes.  A regular file with other hard links is
    overwritten in place from the finished file instead, so every link
    sees the new bytes, as with ``open(path, "w")``.  A path that exists
    but is not a regular file (a device or a pipe) is written in place.
    Opening fails as ``open(path, "w")`` would, naming path.
    """
    try:
        with open(path, "r+b") as probe:  # as open(path, "w") checks, keeping the bytes
            st = os.fstat(probe.fileno())
        mode, links = st.st_mode, st.st_nlink
    except FileNotFoundError:
        mode = links = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    target = os.path.realpath(path)
    head, tail = os.path.split(target)
    for i in count():
        temp = os.path.join(head, f".{tail}.{os.getpid()}-{i}.tmp")
        try:
            fh = open(temp, "x", encoding="utf-8")
            break
        except FileExistsError:
            continue
        except OSError as exc:
            raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with fh:
            if mode is not None:
                os.chmod(fh.fileno(), stat.S_IMODE(mode))
            yield fh
        if links is not None and links > 1:
            # A rename would give path a new inode and leave the other links
            # with the old bytes.
            shutil.copyfile(temp, target)
            os.remove(temp)
        else:
            os.replace(temp, target)
    except BaseException:
        with suppress(OSError):
            os.remove(temp)
        raise


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
    # The regions of one x share one Fraction: hash each object once.
    xs = sorted(set({id(e.x): e.x for e in census.entries}.values()))
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
