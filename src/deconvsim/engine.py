"""The deconvolution iteration and its run driver.

Given ascending samples sortx and sortz of equal length n and a current
estimate oldy, one step draws a uniform random permutation rperm, forms
``w = sortx + oldy[rperm]`` and, with ``order = argsort(w)`` under the tie
rule, stores ``sort(repair(sortz - sortx[order]))``, where repair applies
the boundary policy.  This pairs sortz[j] with the x at the j-th smallest
w, the pairs of the rank form ``sortz[r] - sortx`` with r the ranks of w
(the inverse of order), so each iterate is one of the n! vectors
``sortz[perm] - sortx`` and the run is a random walk over those
candidates.  An iterate holding both -0.0 and 0.0 may list the two zeros
in either order (they compare equal; the sort is not stable).  RESAMPLE
indexes its in-support donors in z order.

Two deliberately bad estimators are included for comparison: the sorted
difference (far too little spread) and the fully random difference (far
too much).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import variations
from .adjusters import UNBOUNDED, AdjustPolicy, SupportConstraint, _repair
from .config import DeconvConfig
from .core import TieRule, _sort_order, as_sample, make_rng, random_permutation
from .errors import DegenerateReferenceError, InvalidInputError
from .metrics import NormalReferenceLine, distance_index, reference_normal_line
from .variations import PoolingKind, equalize_lengths

# Elements per distance_index call when run computes d, and per block of
# permutations when run draws them in blocks: bounds each temporary
# (512 KB) while keeping the calls per run few.
_D_CHUNK = 1 << 16


@dataclass(frozen=True)
class IterationRecord:
    """One row of a run: the sorted estimate plus its diagnostics."""

    iteration: int
    y: np.ndarray
    d: float | None
    violations: int


@dataclass
class IterationTrace:
    """Everything a run produced.

    Row 0 of ``ys`` (shape ``(T+1, n)``), ``d`` and ``violations`` (shape
    ``(T+1,)``) is the initial estimate and row t is iteration t.  ``d`` is
    None when the normal reference is degenerate.
    """

    config: DeconvConfig
    sortx: np.ndarray
    sortz: np.ndarray
    ys: np.ndarray
    d: np.ndarray | None
    violations: np.ndarray
    reference: NormalReferenceLine | None = None
    pooled: np.ndarray | None = None

    @property
    def all_records(self) -> list[IterationRecord]:
        """Every row as a record; each ``record.y`` is a view of ``ys``.
        Only the benchmark harness in ``perfbench/`` still reads records."""
        return [
            IterationRecord(t, y, None if self.d is None else float(self.d[t]), int(v))
            for t, (y, v) in enumerate(zip(self.ys, self.violations))
        ]

    @property
    def steps(self) -> list[IterationRecord]:
        """The records of iterations 1..T."""
        return self.all_records[1:]

    def mean_distance(self) -> float | None:
        """Mean of d over iterations beyond the pooling burn-in; None if
        d is undefined or no iteration is left."""
        if self.d is None:
            return None
        kept = self.d[self.config.pool.burn_in + 1 :]
        return float(np.mean(kept)) if kept.size else None


def step(
    sortx: np.ndarray,
    sortz: np.ndarray,
    y: np.ndarray,
    rperm: np.ndarray,
    rng: np.random.Generator,
    policy: AdjustPolicy = AdjustPolicy.NONE,
    support: SupportConstraint = UNBOUNDED,
    tie_rule: TieRule = TieRule.FIRST_OCCURRENCE,
    w_noise: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """One chain step; returns the new sorted estimate and the
    pre-adjustment violation count.

    Unchecked: sortx, sortz and y must be ascending finite float64 vectors
    of one length n, rperm a permutation of 0..n-1 and rng a generator
    (``run`` validates its inputs).  w_noise, if given, is added to the
    working vector.  rng is used only by the random tie rule and the
    RESAMPLE policy.

    The estimate is written to out, a float64 vector of length n that
    overlaps no other argument, and out is returned; without out it goes
    to a new array.  Every other argument is left unmodified.
    """
    w = sortx + y[rperm]
    if w_noise is not None:
        w += w_noise
    adjusted = np.subtract(sortz, sortx[_sort_order(w, tie_rule, rng)], out=out)
    violations = _repair(adjusted, policy, support, rng)
    adjusted.sort()
    return adjusted, violations


def naive_sorted_difference(x, z) -> np.ndarray:
    """sort(z) - sort(x), stored sorted.  Understates the spread of Y."""
    x = as_sample(x)
    z = as_sample(z)
    if x.size != z.size:
        raise InvalidInputError("x and z must have equal length")
    return np.sort(np.sort(z) - np.sort(x))


def naive_random_difference(x, z, rng: np.random.Generator) -> np.ndarray:
    """Difference of independently shuffled x and z.  Overstates the spread."""
    x = as_sample(x)
    z = as_sample(z)
    if x.size != z.size:
        raise InvalidInputError("x and z must have equal length")
    xp = x[random_permutation(x.size, rng)]
    zp = z[random_permutation(z.size, rng)]
    return np.sort(zp - xp)


def _check_reach(
    sortx: np.ndarray,
    sortz: np.ndarray,
    eta: np.ndarray | None,
    support: SupportConstraint,
) -> None:
    """Raise InvalidInputError if the working vector
    ``w = sortx + y[rperm] (+ eta)`` of a run could overflow float64.

    An iterate value is a ``sortz[j] - sortx[k]`` or its repair, which
    stays within ``|v| + 2 max|bound|``, so ``|w|`` stays within
    ``2 max|x| + max|z| + 2 max|bound| (+ max|eta|)``.  The fold's period
    ``2 (upper - lower)`` is within ``4 max|bound|``.  Fresh smoothing
    noise, drawn per step, is covered too: every sd is at most
    sqrt(float max) ~ 1.34e154, so each normal draw is orders of magnitude
    below half an ulp of float max (~1e292), and a sum that is finite
    without the noise rounds to a finite value with it.
    """
    xmax = float(max(-sortx[0], sortx[-1]))
    zmax = float(max(-sortz[0], sortz[-1]))
    finite = [abs(b) for b in (support.lower, support.upper) if math.isfinite(b)]
    bmax = max(finite, default=0.0)
    reach = max(xmax + (xmax + zmax + 2.0 * bmax), 4.0 * bmax)
    if eta is not None:
        reach += float(np.abs(eta).max())
    if not math.isfinite(reach):
        raise InvalidInputError(
            "values too large: the working vector x + y can overflow float64 "
            f"(max |x| = {xmax:g}, max |z| = {zmax:g}, max |bound| = {bmax:g})"
        )


def _permutations(n: int, count: int, rng: np.random.Generator, blocked: bool):
    """Yield count uniform permutations of 0..n-1 from rng.

    Unblocked, each is drawn by ``random_permutation`` when it is asked
    for.  Blocked, they come from blocks of at most max(n, _D_CHUNK)
    elements, each drawn by one ``rng.permuted`` call when its first row
    is asked for.  NumPy's ``permuted`` shuffles each row with the same
    draws as ``permutation`` (pinned by a test), so a block gives the
    rows, and leaves rng in the state, of as many successive
    ``random_permutation`` calls; blocking is only exact when nothing else
    draws from rng between two rows.
    """
    if not blocked:
        for _ in range(count):
            yield random_permutation(n, rng)
        return
    rows = max(1, _D_CHUNK // n)
    for start in range(0, count, rows):
        block = np.tile(np.arange(n), (min(rows, count - start), 1))
        yield from rng.permuted(block, axis=1, out=block)


def run(x, z, config: DeconvConfig) -> IterationTrace:
    """Drive a full deconvolution run.

    Equalizes lengths, applies any one-shot smoothing, iterates
    ``config.iters`` times recording each estimate with its distance index
    and pre-adjustment violation count, and attaches the pooled estimate
    when pooling is configured.  Deterministic given ``config.seed``, the
    one seed of the run's generator.

    RNG consumption order is fixed: equalization, one-shot smoothing, then
    per iteration pool draw / rperm / fresh xi / eta / zeta / tie draws /
    adjuster.  When rperm is the only per-iteration draw (tie rule
    FIRST_OCCURRENCE, no fresh smoothing, pooling not CONCAT_AND_DRAW and
    not RESAMPLE on a bounded support), the rperms are drawn in blocks of
    at most max(n, 2**16) elements, each when its first row is needed;
    this gives the same rperms and the same stream as one draw per
    iteration.  Each step writes its estimate straight into its row of
    the trace.
    """
    rng = make_rng(config.seed)
    # equalize_lengths validates and copies x, then z.
    x_eq, z_eq = equalize_lengths(x, z, config.equalize, rng)
    n = x_eq.size

    # The reference line is fitted to the equalized data before smoothing,
    # so d keeps one meaning across smoothing configurations.
    reference = None
    if n >= 2:
        try:
            reference = reference_normal_line(x_eq, z_eq, n)
        except (DegenerateReferenceError, InvalidInputError):
            # var(z) <= var(x), or a mean or variance overflows float64
            # (the only InvalidInputError on validated samples of n >= 2).
            reference = None

    sm = config.smoothing
    fresh = sm.active and sm.fresh_each_step
    eta_once = None
    if sm.active and not fresh:
        # One-shot noise is added at the unsorted equalized positions.
        x_eq, eta_once, z_eq = variations.smooth(x_eq, z_eq, sm, rng)

    sortx = np.sort(x_eq)
    sortz = np.sort(z_eq)
    _check_reach(sortx, sortz, eta_once, config.support)

    try:
        ys = np.empty((config.iters + 1, n))
    except (MemoryError, ValueError):  # ValueError: beyond the largest array size
        raise InvalidInputError(
            f"a trace of T + 1 = {config.iters + 1} iterates of n = {n} values "
            "does not fit in memory"
        ) from None
    violations = np.empty(config.iters + 1, dtype=np.int64)
    ys[0] = np.sort(sortz - sortx)
    violations[0] = config.support.violations(ys[0]).sum()

    pool_mode = config.pool.kind
    blocked = (
        config.tie_rule is TieRule.FIRST_OCCURRENCE
        and not fresh
        and pool_mode is not PoolingKind.CONCAT_AND_DRAW
        and not (config.adjust is AdjustPolicy.RESAMPLE and config.support.bounded)
    )
    rperms = _permutations(n, config.iters, rng, blocked)
    for t in range(1, config.iters + 1):
        if pool_mode is PoolingKind.CONCAT_AND_DRAW:
            pool = ys[:t].reshape(-1)
            oldy = np.sort(pool[rng.integers(0, pool.size, n)])
        else:
            oldy = ys[t - 1]

        rperm = next(rperms)

        if fresh:
            x_eff, w_noise, z_eff = variations.smooth(sortx, sortz, sm, rng)
        else:
            x_eff, w_noise, z_eff = sortx, eta_once, sortz

        _, violations[t] = step(
            x_eff,
            z_eff,
            oldy,
            rperm,
            rng,
            config.adjust,
            config.support,
            config.tie_rule,
            w_noise,
            ys[t],
        )

    d = None
    if reference is not None:
        d = np.empty(config.iters + 1)
        rows = max(1, _D_CHUNK // n)
        for i in range(0, d.size, rows):
            d[i : i + rows] = distance_index(ys[i : i + rows], reference)
    trace = IterationTrace(
        config=config,
        sortx=sortx,
        sortz=sortz,
        ys=ys,
        d=d,
        violations=violations,
        reference=reference,
    )
    if pool_mode is PoolingKind.AVERAGE:
        trace.pooled = variations.pool_average(ys[1:], config.pool.burn_in)
    elif pool_mode in (PoolingKind.CONCAT, PoolingKind.CONCAT_AND_DRAW):
        trace.pooled = variations.pool_concat(ys[1:], config.pool.burn_in)
    return trace
