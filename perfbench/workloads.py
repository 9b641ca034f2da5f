"""The three benchmark workloads and the checks on their outputs.

Each workload's ``setup`` generates every input from the workload seed
and returns the list of operations one pass runs.  An operation is one
closed-loop call into the program (a ``run()`` call or one CLI command)
plus an ``inspect`` function that checks its output and extracts the
exact work counts and an output digest.  Only ``call`` is timed.

Why these workloads:

- ``experiments``: many n = 100 runs over every adjust policy and pooling
  mode.  Per-call Python overhead dominates; no file I/O, no census.
- ``large-n``: one n = 200 000 run.  Bound by NumPy array work (ranks,
  the ``abs`` fold, the reference-line quantiles); the in-memory trace
  sets peak memory.
- ``cli``: a CLI session (``run`` with trace CSV, ``qq``, ``analyze3``).
  The only workload that exercises ``fileio`` and ``smallcase``; the
  engine is a small share of it.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

POOL_BURN_IN = 4
# Rows of a trace are checked and hashed in chunks of about this many
# bytes, so that checking a large-n trace does not double its memory.
CHECK_CHUNK_BYTES = 4 << 20


@dataclass
class Outcome:
    """What inspecting one operation's output found."""

    problems: list[str] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    digest: str = ""


@dataclass
class Op:
    """One closed-loop call into the program."""

    kind: str  # "run" (a chain run), "qq" or "census"
    label: str
    steps: int  # chain iterations the call performs
    call: Callable[[], object]
    inspect: Callable[[object], Outcome]


def derive_seeds(seed: int, tag: int, count: int) -> list[int]:
    """``count`` 32-bit seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence([seed, tag]).generate_state(count)]


# --- library runs -----------------------------------------------------------


def inspect_run(dc, trace, config, n: int) -> Outcome:
    """Check one ``run()`` result against the engine's invariants."""
    out = Outcome()
    problems = out.problems
    records = trace.all_records  # the initial estimate, then one per step
    rows = [r.y for r in records]
    if len(rows) != config.iters + 1:
        problems.append(f"{len(rows)} stored iterates, expected {config.iters + 1}")
    if any(r.shape != (n,) for r in rows):
        problems.append(f"an iterate does not have length {n}")
        return out

    policy, support = config.adjust, config.support
    target = float(trace.sortz.mean() - trace.sortx.mean())
    digest = hashlib.sha256()
    chunk = max(1, CHECK_CHUNK_BYTES // (8 * n))
    for start in range(0, len(rows), chunk):
        ys = np.stack(rows[start : start + chunk])
        digest.update(ys.tobytes())
        if np.any(np.diff(ys, axis=1) < 0):
            problems.append(f"an iterate in rows {start}.. is not ascending")
        if policy is dc.AdjustPolicy.NONE:
            tol = 1e-9 * max(1.0, float(np.abs(ys).max()))
            if not np.allclose(ys.mean(axis=1), target, rtol=0.0, atol=tol):
                problems.append(f"iterate mean left mean(z) - mean(x) in rows {start}..")
        else:
            # The initial estimate is the unadjusted sorted difference.
            stepped = ys[1:] if start == 0 else ys
            if np.any(stepped < support.lower) or np.any(stepped > support.upper):
                problems.append(f"an iterate in rows {start}.. leaves the support")

    ds = np.array([np.nan if r.d is None else r.d for r in records])
    violations = np.array([r.violations for r in records], dtype=np.int64)
    digest.update(ds.tobytes())
    digest.update(violations.tobytes())

    kind = config.pool.kind
    pooled = trace.pooled
    if kind is dc.PoolingKind.NONE:
        expected = None
    elif kind is dc.PoolingKind.AVERAGE:
        expected = n
    else:
        expected = (config.iters - config.pool.burn_in) * n
    if expected is None:
        if pooled is not None:
            problems.append("pooled estimate present without pooling")
    elif pooled is None or pooled.shape != (expected,):
        got = None if pooled is None else pooled.shape
        problems.append(f"pooled estimate has shape {got}, expected ({expected},)")
    else:
        digest.update(pooled.tobytes())

    out.counters = {
        "engine.steps": len(rows) - 1,
        "adjusters.violations": int(violations[1:].sum()),
        "engine.trace_bytes": 8 * n * len(rows),
    }
    out.digest = digest.hexdigest()
    return out


def library_op(dc, x, z, config, label: str) -> Op:
    n = max(len(x), len(z))
    return Op(
        kind="run",
        label=label,
        steps=config.iters,
        # dc.run is looked up at call time so the traced pass sees the wrapper.
        call=lambda: dc.run(x, z, config),
        inspect=lambda trace: inspect_run(dc, trace, config, n),
    )


class Experiments:
    name = "experiments"
    # The named experiments whose Y is non-negative, so [0, inf) is its support.
    EXPERIMENTS = ("exponential", "uniform", "outlier")

    def __init__(self, seeds: int = 8, iters: int = 100):
        self.seeds = seeds
        self.iters = iters

    def setup(self, dc, seed: int, work_dir: Path) -> list[Op]:
        nonneg = dc.SupportConstraint(0.0, math.inf)
        ops = []
        exp_seeds = derive_seeds(seed, 1, self.seeds)
        for name in self.EXPERIMENTS:
            for exp_seed in exp_seeds:
                x, z, _truth = dc.make_experiment(name, exp_seed)
                run_seeds = iter(derive_seeds(exp_seed, 2, 32))
                for policy in dc.AdjustPolicy:
                    # NONE runs unbounded, so no bounded-support warning fires.
                    support = dc.UNBOUNDED if policy is dc.AdjustPolicy.NONE else nonneg
                    for pool in dc.PoolingKind:
                        config = dc.DeconvConfig(
                            iters=self.iters,
                            adjust=policy,
                            support=support,
                            pool=dc.PoolingMode(pool, burn_in=POOL_BURN_IN),
                            seed=next(run_seeds),
                        )
                        label = f"{name}/{exp_seed}/{policy.value}/{pool.value}"
                        ops.append(library_op(dc, x, z, config, label))
        return ops


class LargeN:
    name = "large-n"

    def __init__(self, n: int = 200_000, n_z: int = 150_000, iters: int = 30):
        self.n = n
        self.n_z = n_z
        self.iters = iters

    def setup(self, dc, seed: int, work_dir: Path) -> list[Op]:
        data_seed, run_seed = derive_seeds(seed, 3, 2)
        rng = dc.make_rng(data_seed)
        normal = dc.DistSpec.normal(0.0, 1.0)
        x = dc.generate(normal, self.n, rng)
        z = dc.generate(normal, self.n_z, rng) + dc.generate(
            dc.DistSpec.delay_link(0.0, 0.3, 3.0), self.n_z, rng
        )
        config = dc.DeconvConfig(
            iters=self.iters,
            adjust=dc.AdjustPolicy.ABSOLUTE,
            support=dc.SupportConstraint(0.0, math.inf),
            equalize=dc.EqualizeStrategy.tile(),
            pool=dc.PoolingMode(dc.PoolingKind.AVERAGE, burn_in=POOL_BURN_IN),
            seed=run_seed,
        )
        return [library_op(dc, x, z, config, f"abs/average/n={self.n}")]


# --- CLI session ------------------------------------------------------------


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def call_cli(cli, argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def data_lines(path: Path):
    """Lines of an output file after its '#' header comment, streamed."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                yield line.rstrip("\n")


def file_digest(digest, path: Path) -> None:
    # The header line holds the argv, which names this run's work dir.
    for line in data_lines(path):
        digest.update(line.encode() + b"\n")


def consume(*paths: Path) -> None:
    """Delete checked outputs, so the next pass must write them again."""
    for path in paths:
        path.unlink()


def check_ascending_nonneg(values: np.ndarray, what: str, problems: list[str]) -> None:
    if np.any(np.diff(values) < 0):
        problems.append(f"{what} is not ascending")
    if np.any(values < 0):
        problems.append(f"{what} leaves the support [0, inf)")


class Cli:
    name = "cli"

    def __init__(self, n: int = 10_000, iters: int = 100):
        self.n = n
        self.iters = iters

    def setup(self, dc, seed: int, work_dir: Path) -> list[Op]:
        cli = importlib.import_module("deconvsim.cli")
        x_seed, z_seed, run_seed = derive_seeds(seed, 4, 3)
        for prefix, dist, s in (("x-", "normal:0,1", x_seed), ("z-", "normal:2,1.5", z_seed)):
            argv = ["simulate", "--dist", dist, "--n", str(self.n), "--seed", str(s)]
            res = call_cli(cli, argv + ["--out-prefix", str(work_dir / prefix)])
            if res.code != 0:
                raise RuntimeError(f"simulate exited {res.code}: {res.stderr.strip()}")

        paths = {
            name: work_dir / name
            for name in ("trace.csv", "pooled.txt", "qq.csv", "census.csv", "census.summary.txt")
        }
        run_argv = [
            "run", "--x", str(work_dir / "x-sample.txt"), "--z", str(work_dir / "z-sample.txt"),
            "--out", str(paths["trace.csv"]), "--pooled-out", str(paths["pooled.txt"]),
            "--iters", str(self.iters), "--burn-in", str(POOL_BURN_IN),
            "--adjust", "copy-min", "--support", "0:inf", "--pool", "average",
            "--seed", str(run_seed),
        ]
        qq_argv = [
            "qq", "--in", str(paths["pooled.txt"]), "--dist", "standard-normal",
            "--out", str(paths["qq.csv"]),
        ]
        census_argv = ["analyze3", "--out", str(paths["census.csv"])]

        def command(argv):
            return lambda: call_cli(cli, argv)

        return [
            Op("run", "cli run", self.iters, command(run_argv),
               lambda res: self.inspect_run(res, paths)),
            Op("qq", "cli qq", 0, command(qq_argv),
               lambda res: self.inspect_qq(res, paths)),
            Op("census", "cli analyze3", 0, command(census_argv),
               lambda res: self.inspect_census(res, paths)),
        ]

    @staticmethod
    def _start(res: CliResult) -> Outcome:
        out = Outcome()
        if res.code != 0:
            out.problems.append(f"exit code {res.code}: {res.stderr.strip()[:200]}")
        return out

    def inspect_run(self, res: CliResult, paths) -> Outcome:
        out = self._start(res)
        if out.problems:
            return out
        n, digest = self.n, hashlib.sha256()
        lines = data_lines(paths["trace.csv"])
        header = next(lines, "")
        if header.count(",") + 1 != n + 3:
            out.problems.append(f"trace header has {header.count(',') + 1} columns, expected {n + 3}")
        digest.update(header.encode() + b"\n")
        violations = rows = 0
        for row in lines:
            digest.update(row.encode() + b"\n")
            rows += 1
            it, _d, viol, ys = row.split(",", 3)
            y = np.array(ys.split(","), dtype=np.float64)
            if y.size != n:
                out.problems.append(f"trace row {it} has {y.size + 3} columns, expected {n + 3}")
                continue
            if int(it) > 0:
                violations += int(viol)
                check_ascending_nonneg(y, f"trace iterate {it}", out.problems)
        if rows != self.iters + 1:
            out.problems.append(f"trace has {rows} data rows, expected {self.iters + 1}")
        pooled = np.array(list(data_lines(paths["pooled.txt"])), dtype=np.float64)
        if pooled.size != n:
            out.problems.append(f"pooled estimate has {pooled.size} values, expected {n}")
        check_ascending_nonneg(pooled, "pooled estimate", out.problems)
        file_digest(digest, paths["pooled.txt"])
        out.counters = {
            "engine.steps": rows - 1,
            "adjusters.violations": violations,
            "engine.trace_bytes": 8 * n * rows,
            "fileio.bytes_written": paths["trace.csv"].stat().st_size
            + paths["pooled.txt"].stat().st_size,
        }
        out.digest = digest.hexdigest()
        consume(paths["trace.csv"])  # pooled.txt is the input of qq
        return out

    def inspect_qq(self, res: CliResult, paths) -> Outcome:
        out = self._start(res)
        if out.problems:
            return out
        lines = list(data_lines(paths["qq.csv"]))
        if lines[0] != "theoretical,sample" or len(lines) - 1 != self.n:
            out.problems.append(f"qq csv has {len(lines) - 1} rows, expected {self.n}")
        else:
            pairs = np.array([line.split(",") for line in lines[1:]], dtype=np.float64)
            if np.any(np.diff(pairs, axis=0) < 0):
                out.problems.append("qq columns are not ascending")
        digest = hashlib.sha256()
        file_digest(digest, paths["qq.csv"])
        out.counters = {"fileio.bytes_written": paths["qq.csv"].stat().st_size}
        out.digest = digest.hexdigest()
        consume(paths["qq.csv"], paths["pooled.txt"])
        return out

    # The paper's census figures that the code reproduces.  ``singletons``
    # is not checked: it is a known gap against the paper (8 here, 10 there).
    CENSUS = {
        "total_regions": "924",
        "distinct_stationary": "208",
        "top_multiplicity": "84",
        "top_is_point_mass": "true",
    }
    REGIONS_PER_X = 154

    def inspect_census(self, res: CliResult, paths) -> Outcome:
        out = self._start(res)
        if out.problems:
            return out
        summary = dict(
            line.split(",", 1) for line in data_lines(paths["census.summary.txt"])
        )
        for key, want in self.CENSUS.items():
            if summary.get(key) != want:
                out.problems.append(f"census {key} is {summary.get(key)}, expected {want}")
        per_x = [int(item.rsplit(":", 1)[1]) for item in summary.get("regions_per_x", "").split(";")]
        if per_x != [self.REGIONS_PER_X] * 6:
            out.problems.append(f"census regions per x are {per_x}, expected 6 x {self.REGIONS_PER_X}")
        rows = sum(1 for _ in data_lines(paths["census.csv"])) - 1
        if str(rows) != self.CENSUS["total_regions"]:
            out.problems.append(f"census csv has {rows} rows")
        digest = hashlib.sha256()
        file_digest(digest, paths["census.csv"])
        file_digest(digest, paths["census.summary.txt"])
        out.counters = {
            "smallcase.regions": rows,
            "fileio.bytes_written": paths["census.csv"].stat().st_size
            + paths["census.summary.txt"].stat().st_size,
        }
        out.digest = digest.hexdigest()
        consume(paths["census.csv"], paths["census.summary.txt"])
        return out


WORKLOADS = {w.name: w for w in (Experiments, LargeN, Cli)}
