"""Shared fixtures, frozen oracle data, the rank oracle, the position-order
repair oracle, a stand-in for the index draw that enumerates every
RESAMPLE donor draw, and a report header naming the NumPy and CPython
that run the suite.

The exact three-point census takes about 0.012 s (2-core host; 1.8 s
before it ranked on integers and solved each distinct matrix once, and
0.03 s before it solved them all in one batched elimination), and many
tests read it, so the suite computes it once per session.  The
inverse-normal table was computed once with mpmath at 60 decimal digits
and frozen here.
"""

import contextlib
import itertools
import math
import platform
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings

from deconvsim import AdjustPolicy, SupportConstraint, TieRule, core
from deconvsim.core import _sort_order, _uniform_indices
from deconvsim.errors import InfeasibleAdjustmentError, InvalidInputError
from deconvsim.smallcase import full_census

# Property tests draw the same examples on every run (derandomize), and
# a loaded host cannot fail one on Hypothesis's 200 ms per-example
# deadline.
settings.register_profile("deconvsim", derandomize=True, deadline=None)
settings.load_profile("deconvsim")

# Inverse standard normal CDF at the exact float arguments below.
INVERSE_NORMAL_TABLE = [
    (1e-06, -4.7534243088228989),
    (0.0001, -3.7190164854556806),
    (0.001, -3.0902323061678135),
    (0.02425, -1.9729610513118849),
    (0.025, -1.9599639845400542),
    (0.1, -1.2815515655446005),
    (0.16666666666666666, -0.96742156610170107),
    (0.25, -0.67448975019608174),
    (0.3333333333333333, -0.43072729929545758),
    (0.5, 0.0),
    (0.6666666666666666, 0.43072729929545731),
    (0.75, 0.67448975019608174),
    (0.8333333333333334, 0.96742156610170131),
    (0.9, 1.2815515655446005),
    (0.975, 1.9599639845400542),
    (0.97575, 1.9729610513118849),
    (0.999, 3.0902323061678135),
    (0.9999, 3.7190164854556806),
    (0.999999, 4.7534243088228989),
]


def pytest_report_header(config):
    return (
        f"deconvsim: NumPy {np.__version__}, CPython {platform.python_version()}; "
        "the golden digests were taken on NumPy 2.4.6 and CPython 3.11"
    )


@pytest.fixture(scope="session")
def census():
    return full_census()


@pytest.fixture
def started_threads(monkeypatch):
    """The names of the threads started during the test, in order."""
    started = []
    start = threading.Thread.start

    def recording_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return started


def ranks(v, tie_rule=TieRule.FIRST_OCCURRENCE, rng=None):
    """0-based ranks of the float64 vector v under tie_rule: the inverse of
    the permutation the engine's ``_sort_order`` gives, so that
    ``np.sort(v)[ranks(v)] == v``."""
    order = _sort_order(np.asarray(v, dtype=np.float64), tie_rule, rng)
    r = np.empty(order.size, dtype=np.intp)
    r[order] = np.arange(order.size, dtype=np.intp)
    return r


class EveryDraw:
    """A stand-in for ``core._uniform_indices`` in RESAMPLE's one draw:
    the i-th call ``(rng, g, k)`` ignores rng and returns the i-th of the
    g**k index vectors."""

    def __init__(self):
        self.draws = None
        self.total = 1  # a repair without violators makes no draw

    def __call__(self, rng, high, size):
        if self.draws is None:
            self.draws = itertools.product(range(high), repeat=size)
            self.total = high**size
        return np.array(next(self.draws), dtype=np.intp)


@contextlib.contextmanager
def every_draw():
    """An EveryDraw in place of ``_uniform_indices`` in ``core._repair``
    and in ``parent_repair``, for the with block."""
    draw = EveryDraw()
    with (
        mock.patch.object(core, "_uniform_indices", draw),
        mock.patch.object(sys.modules[__name__], "_uniform_indices", draw),
    ):
        yield draw


# `core._repair` as it was before the one-sided masks and `_fold` as
# it was before it folded in place, copied verbatim (renamed; `_fold`
# without its comment), except that the donors come from
# `_uniform_indices`, as they do in the repair.  It repairs in position
# order: the RESAMPLE branch is the position-order oracle of the
# sorted-vector repair, for the repair tests and for the rank-form step of
# the engine tests.
def _parent_fold(v: np.ndarray, lower: float, upper: float) -> np.ndarray:
    if math.isinf(upper):
        return lower + np.abs(v - lower)
    if math.isinf(lower):
        return upper - np.abs(v - upper)
    period = 2.0 * (upper - lower)
    t = np.mod(v - lower, period)
    return lower + np.minimum(t, period - t)


def parent_repair(
    v: np.ndarray,
    policy: AdjustPolicy,
    support: SupportConstraint,
    rng: np.random.Generator | None,
) -> int:
    """``adjust`` in place on the float64 vector v, which the caller owns;
    returns the violation count.  Unchecked: policy must be an AdjustPolicy.
    """
    if not support.bounded:
        return 0
    bad = support.violations(v)
    count = int(np.count_nonzero(bad))
    if policy is AdjustPolicy.NONE or count == 0:
        return count

    if policy is AdjustPolicy.CLAMP:
        np.clip(v, support.lower, support.upper, out=v)
        return count

    if policy is AdjustPolicy.ABSOLUTE:
        v[bad] = _parent_fold(v[bad], support.lower, support.upper)
        return count

    good = v[~bad]
    if good.size == 0:
        raise InfeasibleAdjustmentError(
            f"policy {policy.value!r} needs at least one in-support value"
        )

    if policy is AdjustPolicy.RESAMPLE:
        if rng is None:
            raise InvalidInputError("resample policy requires an rng")
        v[bad] = good[_uniform_indices(rng, good.size, count)]
        return count

    # COPY_SMALLEST
    good_sorted = np.sort(good)
    low_idx = np.flatnonzero(v < support.lower)
    high_idx = np.flatnonzero(v > support.upper)
    # More violators than in-support values: cycle through the copies.
    v[low_idx] = good_sorted[np.arange(low_idx.size) % good_sorted.size]
    v[high_idx] = good_sorted[::-1][np.arange(high_idx.size) % good_sorted.size]
    return count


def reference_trace_csv(trace, header):
    """The trace CSV as written one repr per float."""
    n = trace.ys.shape[1]
    cols = ["iter", "d", "violations"] + [f"y_{i}" for i in range(1, n + 1)]
    lines = [f"# {header}", ",".join(cols)]
    ds = [None] * len(trace.ys) if trace.d is None else trace.d.tolist()
    for t, (y, d, v) in enumerate(zip(trace.ys, ds, trace.violations.tolist())):
        row = [str(t), "NA" if d is None else repr(d), str(v)] + list(map(repr, y.tolist()))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
