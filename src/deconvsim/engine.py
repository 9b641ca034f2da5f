"""The deconvolution iteration and its run driver.

Given ascending samples sortx and sortz of equal length n and a current
estimate oldy, one step draws a uniform random permutation rperm, forms
``w = sortx + oldy[rperm]`` and, with ``order = argsort(w)`` under the tie
rule, stores ``repair(sort(sortz - sortx[order]))``, where repair applies
the boundary policy to the sorted vector and keeps it sorted.  This pairs
sortz[j] with the x at the j-th smallest w, the pairs of the rank form
``sortz[r] - sortx`` with r the ranks of w (the inverse of order), so
each iterate is one of the n! vectors ``sortz[perm] - sortx`` and the
run is a random walk over those candidates.  An iterate holding both
-0.0 and 0.0 may list the two zeros in either order, or in other numbers
(they compare equal, and NumPy's sort may keep either of two equal
values).

A run has three phases, the parts of ``Chain``: prepare
(``equalize_lengths``, reference fit, one-shot ``smooth``, reach check),
chain (the step loop, writing iterates into a caller-owned buffer block
by block, with fresh ``smooth`` noise if asked) and summary (pooling).
The step's kernels are ``core._sort_order`` and ``core._repair``, and
every setting is a ``config`` type.  ``run`` gives the chain the whole
trace as one block; ``deconvsim run`` under ``--pool none`` or
``average`` gives it a 2 MB block and writes each out, holding O(n)
values instead of the trace.  The permutations are drawn in blocks on
the calling thread, with the values and final generator state of one
draw per step; a run starts no thread.

Two deliberately bad estimators are included for comparison: the sorted
difference (far too little spread) and the fully random difference (far
too much).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import (
    UNBOUNDED,
    AdjustPolicy,
    DeconvConfig,
    EqualizeKind,
    EqualizeStrategy,
    PoolingKind,
    SmoothingSpec,
    SupportConstraint,
    TieRule,
)
from .core import _repair, _sort_order, _uniform_indices, as_sample, make_rng
from .errors import DegenerateReferenceError, InvalidInputError
from .metrics import distance_index, reference_normal_line

# Elements per distance_index call when run computes d, and per block of
# permutations or pool picks: bounds each temporary (512 KB) while keeping
# the calls per run few.
_D_CHUNK = 1 << 16

# Pooling kinds whose chain can run on a buffer smaller than the trace.
_STREAMED = (PoolingKind.NONE, PoolingKind.AVERAGE)


@dataclass(frozen=True)
class IterationRecord:
    """One row of a run: the sorted estimate plus its diagnostics."""

    iteration: int
    y: np.ndarray
    d: float | None
    violations: int


@dataclass(frozen=True, eq=False)
class IterationTrace:
    """Everything a run produced.

    Row 0 of ``ys`` (shape ``(T+1, n)``), ``d`` and ``violations`` (shape
    ``(T+1,)``) is the initial estimate and row t is iteration t.
    ``reference`` is the fitted normal reference line, one value per
    position of a row.  It and ``d`` are None when the reference is
    degenerate; ``reference_error`` then holds what fitting it raised
    (DegenerateReferenceError when var(z) <= var(x), InvalidInputError
    when a mean or variance overflows float64), or None when n < 2 and no
    fit was tried.

    Rows ``burn_in + 1 ..`` of ``ys`` (``burn_in`` is
    ``config.pool.burn_in``), the iterations beyond the burn-in, feed both
    ``pooled`` and ``mean_distance``.  ``pooled`` is their elementwise
    mean under AVERAGE, a flat copy of them under CONCAT and
    CONCAT_AND_DRAW, and None without pooling.  The trace is frozen (its
    arrays stay writable) and compares by identity.

    A ``Chain`` fills its ``trace`` as it runs.  That trace holds the
    chain's buffer in ``ys`` (under a streamed ``deconvsim run``, the last
    block of iterates, not the whole trace) and ``pooled`` None.  ``run``
    always returns the whole trace, with ``pooled`` attached.
    """

    config: DeconvConfig
    sortx: np.ndarray
    sortz: np.ndarray
    ys: np.ndarray
    d: np.ndarray | None
    violations: np.ndarray
    reference: np.ndarray | None = None
    reference_error: DegenerateReferenceError | InvalidInputError | None = None
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
        """Mean of d over the iterations beyond the burn-in; None if d is
        undefined or no iteration is left."""
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
    return adjusted, _repair(adjusted, policy, support, rng)


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
    xp = x[rng.permutation(x.size)]
    zp = z[rng.permutation(z.size)]
    return np.sort(zp - xp)


def equalize_lengths(
    x, z, strategy: EqualizeStrategy, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Return equal-length copies of x and z per the chosen strategy."""
    x = as_sample(x)
    z = as_sample(z)
    kind = strategy.kind

    if kind is EqualizeKind.BOOTSTRAP:
        n = strategy.target
        try:
            return x[rng.integers(0, x.size, n)], z[rng.integers(0, z.size, n)]
        except (MemoryError, ValueError):  # ValueError: beyond the largest array size
            raise InvalidInputError(
                f"a bootstrap sample of n = {n} values does not fit in memory"
            ) from None

    if x.size == z.size:
        return x, z

    if kind is EqualizeKind.SUBSAMPLE:
        n = min(x.size, z.size)
        if x.size > n:
            return rng.choice(x, size=n, replace=False), z
        return x, rng.choice(z, size=n, replace=False)

    # TILE
    if x.size < z.size:
        return _tile_to(x, z.size, rng), z
    return x, _tile_to(z, x.size, rng)


def _tile_to(v: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    # n = k*m + r: repeat v k times, then adjoin r draws without replacement.
    m = v.size
    k, r = divmod(n, m)
    parts = [v] * k
    if r:
        parts.append(rng.choice(v, size=r, replace=False))
    return np.concatenate(parts)


def smooth(
    x: np.ndarray, z: np.ndarray, spec: SmoothingSpec, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """One draw of the smoothing noise: ``(sort(x + xi), eta, sort(z + zeta))``.

    Draws xi, eta, zeta in that order and skips any whose sd is 0; x or z
    is then returned as given and eta is None.
    """
    if spec.xi_sd > 0:
        x = np.sort(x + rng.normal(0.0, spec.xi_sd, x.size))
    eta = rng.normal(0.0, spec.eta_sd, x.size) if spec.eta_sd > 0 else None
    if spec.zeta_sd > 0:
        z = np.sort(z + rng.normal(0.0, spec.zeta_sd, z.size))
    return x, eta, z


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
    finite = [abs(b) for b in support.float_bounds if math.isfinite(b)]
    bmax = max(finite, default=0.0)
    reach = max(xmax + (xmax + zmax + 2.0 * bmax), 4.0 * bmax)
    if eta is not None:
        reach += float(np.abs(eta).max())
    if not math.isfinite(reach):
        raise InvalidInputError(
            "values too large: the working vector x + y can overflow float64 "
            f"(max |x| = {xmax:g}, max |z| = {zmax:g}, max |bound| = {bmax:g})"
        )


def _blocks(n: int, count: int):
    """Yield (start, rows) for blocks of at most max(n, _D_CHUNK) elements
    that together hold count rows of n."""
    rows = max(1, _D_CHUNK // n)
    for start in range(0, count, rows):
        yield start, min(rows, count - start)


def _identity_rows(n: int, rows: int) -> np.ndarray:
    """rows copies of arange(n) as a (rows, n) block; one row is the
    arange itself, which ``np.tile`` would copy."""
    row = np.arange(n)
    return row[None] if rows == 1 else np.tile(row, (rows, 1))


def _permutations(n: int, count: int, rng: np.random.Generator):
    """Yield count uniform permutations of 0..n-1 from rng, the values of,
    and leaving rng in the state of, count successive
    ``rng.permutation(n)`` calls, as long as nothing else draws from rng
    until the last row is taken or the generator is closed.

    Each block of rows of ``arange(n)`` is drawn by one ``rng.permuted``
    call when its first row is asked for; ``permuted`` shuffles each row
    with the same draws as ``permutation`` (pinned by a test).  Above
    2**15 values a block is one row.  Closed early, rng has drawn the
    rows of every block handed over.
    """
    for _, rows in _blocks(n, count):
        block = _identity_rows(n, rows)
        yield from rng.permuted(block, axis=1, out=block)


def _pool_picks(n: int, count: int, rng: np.random.Generator):
    """Yield, for t = 1..count, the n indices
    ``_uniform_indices(rng, t * n, n)`` from blocks drawn by one
    ``_uniform_indices`` call with a column of bounds, whose one
    ``rng.random`` call fills in row order (pinned by a test): the same
    rows, and the same final state of rng, as successive calls."""
    for start, rows in _blocks(n, count):
        highs = np.arange(start + 1, start + rows + 1) * n
        yield from _uniform_indices(rng, highs[:, None], (rows, n))


class Chain:
    """One run in three phases: prepare (the constructor), chain
    (``blocks``, run once) and summary (``pooled``).

    The constructor builds ``trace``, the IterationTrace without
    ``pooled`` that the chain records into.  Its ``ys``, the buffer the
    chain runs on, holds the whole trace, or about values floats (at least
    2 rows) when values is given, n >= 2 and the pooling is NONE or
    AVERAGE: CONCAT and CONCAT_AND_DRAW pool every row, and at n = 1 NumPy
    sums a column pairwise, which a running sum does not reproduce.
    """

    def __init__(self, x, z, config: DeconvConfig, values: int | None = None):
        self._rng = make_rng(config.seed)
        self._draws = self._rng.spawn(1)[0]
        # equalize_lengths validates and copies x, then z.
        x_eq, z_eq = equalize_lengths(x, z, config.equalize, self._rng)
        self.n = n = x_eq.size

        # The reference line is fitted to the equalized data before
        # smoothing, so d keeps one meaning across smoothing configurations.
        reference = reference_error = None
        if n >= 2:
            try:
                reference = reference_normal_line(x_eq, z_eq)
            except (DegenerateReferenceError, InvalidInputError) as exc:
                # var(z) <= var(x), or a mean or variance overflows float64
                # (the only InvalidInputError on validated samples of n >= 2).
                # Without its traceback the error keeps no frame of this run alive.
                reference_error = exc.with_traceback(None)

        sm = config.smoothing
        self._eta_once = None
        if sm.active and not sm.fresh_each_step:
            # One-shot noise is added at the unsorted equalized positions.
            x_eq, self._eta_once, z_eq = smooth(x_eq, z_eq, sm, self._rng)
        sortx = np.sort(x_eq)
        sortz = np.sort(z_eq)
        _check_reach(sortx, sortz, self._eta_once, config.support)

        rows = iterates = config.iters + 1
        if values is not None and n >= 2 and config.pool.kind in _STREAMED:
            rows = min(rows, max(2, values // n))
        try:
            violations = np.empty(iterates, np.int64)
            d = None if reference is None else np.empty(iterates)
            ys = np.empty((rows, n))
        except (MemoryError, ValueError):  # ValueError: beyond the largest array size
            raise InvalidInputError(
                f"a trace of T + 1 = {iterates} iterates of n = {n} "
                "values does not fit in memory"
            ) from None
        self.trace = IterationTrace(
            config, sortx, sortz, ys, d, violations, reference, reference_error
        )
        self._total = None  # the running sum of a streamed AVERAGE

    def blocks(self):
        """Run the chain on ``trace.ys`` and yield (start, block) each time
        it is full and when the chain ends: block, its first rows, holds
        iterates start, start + 1, ..., whose ``d`` and ``violations`` are
        recorded by then.  A buffer shorter than the trace is written over
        by the next block; under AVERAGE the chain then keeps a running sum
        of the iterates beyond the burn-in."""
        trace = self.trace
        config, buf, violations = trace.config, trace.ys, trace.violations
        n, iters, rows = self.n, config.iters, len(buf)
        sortx, sortz, eta_once, draws = trace.sortx, trace.sortz, self._eta_once, self._draws
        sm = config.smoothing
        fresh = sm.active and sm.fresh_each_step
        if rows <= iters and config.pool.kind is PoolingKind.AVERAGE:
            self._total = np.zeros(n)

        buf[0] = np.sort(sortz - sortx)
        violations[0] = config.support.violations(buf[0]).sum()
        picks = None
        if config.pool.kind is PoolingKind.CONCAT_AND_DRAW:
            # Step t picks from the t * n values of rows 0..t-1 of the flat trace.
            flat = buf.reshape(-1)
            picks = _pool_picks(n, iters, self._rng.spawn(1)[0])
        rperms = _permutations(n, iters, self._rng)
        start = 0
        for t in range(1, iters + 1):
            i = t - start
            if i == rows:
                yield self._record(start, buf)
                start, i = t, 0
            if picks is not None:
                oldy = flat[next(picks)]
                oldy.sort()
            else:
                oldy = buf[i - 1]  # at i = 0, the last row of the block before

            if fresh:
                x_eff, w_noise, z_eff = smooth(sortx, sortz, sm, draws)
            else:
                x_eff, w_noise, z_eff = sortx, eta_once, sortz

            _, violations[t] = step(
                x_eff,
                z_eff,
                oldy,
                next(rperms),
                draws,
                config.adjust,
                config.support,
                config.tie_rule,
                w_noise,
                buf[i],
            )
        yield self._record(start, buf[: iters + 1 - start])

    def _record(self, start: int, block: np.ndarray) -> tuple[int, np.ndarray]:
        """Record d of a block, and add its iterates beyond the burn-in
        to the running sum, if one is kept."""
        d = self.trace.d
        if d is not None:
            for i, rows in _blocks(self.n, len(block)):
                d[start + i : start + i + rows] = distance_index(
                    block[i : i + rows], self.trace.reference
                )
        if self._total is not None:
            # The iterates are finite, but their sum can still overflow.
            with np.errstate(over="ignore", invalid="ignore"):
                for row in block[max(0, self.trace.config.pool.burn_in + 1 - start) :]:
                    self._total += row
        return start, block

    def pooled(self) -> np.ndarray | None:
        """The pooled estimate, as in IterationTrace, once the chain has
        run; under AVERAGE, from the running sum if the chain kept one.
        Raises InvalidInputError when the average overflows."""
        config = self.trace.config
        pool = config.pool
        kept = self.trace.ys[pool.burn_in + 1 :]  # the whole trace unless streamed
        if pool.kind is PoolingKind.NONE:
            return None
        if pool.kind is not PoolingKind.AVERAGE:
            return kept.flatten()
        if self._total is not None:
            pooled = self._total / (config.iters - pool.burn_in)
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                pooled = kept.mean(axis=0)
        if not np.isfinite(pooled).all():
            raise InvalidInputError(
                "values too large: the pooled average of the iterations beyond "
                "the burn-in overflows float64"
            )
        return pooled


def run(x, z, config: DeconvConfig) -> IterationTrace:
    """Drive a full deconvolution run.

    Equalizes lengths, applies any one-shot smoothing, iterates
    ``config.iters`` times recording each estimate with its distance index
    and pre-adjustment violation count, and attaches the pooled estimate
    when pooling is configured.  Deterministic given ``config.seed``, the
    one seed of the run's generator.

    The run's generator draws, in this order, the equalization, the
    one-shot smoothing and then the permutations, one per iteration.  Its
    first child (``spawn``, which leaves the generator's state unchanged)
    makes the other per-iteration draws, in this order: fresh xi / eta /
    zeta, the tie keys and the adjuster's donors.  Under CONCAT_AND_DRAW
    its second child draws each iteration's pool indices.  Donors and
    pool indices are ``floor(u * high)`` of ``Generator.random`` draws
    u, each index within 2**-52 of uniform.  The
    permutations and the pool indices are drawn on the calling thread in
    blocks of at most max(n, 2**16) elements, each when its first row is
    needed.  This gives the values of, and leaves each generator in the
    state of, one draw per iteration.  The chain runs on the whole trace
    as its one buffer, so each step writes its estimate straight into its
    row of the trace.  A run starts no thread.

    Besides rejecting bad samples, raises InvalidInputError when the
    working vector could overflow float64, when the trace does not fit in
    memory, or when the pooled average overflows.
    """
    chain = Chain(x, z, config)
    for _ in chain.blocks():
        pass
    return replace(chain.trace, pooled=chain.pooled())
