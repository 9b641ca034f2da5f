"""deconvsim benchmark: one closed-loop workload per process.

    python3 perfbench/run.py --workload experiments --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout this file sits in.
Set-up (a fresh import of ``deconvsim`` plus generating, and for ``cli``
writing, the inputs) is repeated SETUP_REPEATS times and its median
reported.  Then one warm-up pass runs untimed, and timed passes repeat
the workload's operations, one caller and one call at a time, until
``--seconds`` have passed.  Every output is checked; an operation that
raises or fails a check counts as failed.  Times are scaled to a
reference machine speed by the probe in speed.py; raw times are printed
too.

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` half of the time runs untraced passes and half runs passes
with every layer wrapped (see tracer.py); the last line reports the
per-layer metrics, and the tracing overhead is the ratio of the traced
to the untraced median pass time.  Lines before the last one report the
machine, sample counts, per-command times, per-layer shares and the
output digest for a human reader.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy

from speed import SpeedProbe
from tracer import COMMON_LAYERS, LAYERS, Tracer
from workloads import WORKLOADS, LargeN

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
PACKAGE = "deconvsim"


@dataclass
class OpTime:
    kind: str
    start: float
    end: float
    raw: float  # seconds in the call, less the time the speed probe took in it
    scaled: float = 0.0  # raw at reference speed, filled in by rescale()


@dataclass
class PassResult:
    times: list[OpTime] = field(default_factory=list)
    steps: int = 0
    attempted: int = 0
    failed: int = 0
    counters: dict[str, int] = field(default_factory=dict)
    digests: list[str] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(t.scaled for t in self.times)

    @property
    def run_time(self) -> float:
        return sum(t.scaled for t in self.times if t.kind == "run")

    @property
    def scale(self) -> float:
        """The pass's time-weighted factor from raw to reference speed."""
        return self.wall / sum(t.raw for t in self.times)


def import_fresh():
    """Import ``deconvsim`` from this checkout's src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    dc = importlib.import_module(PACKAGE)
    if Path(dc.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        raise ImportError(f"{PACKAGE} was imported from {dc.__file__}, not from {SRC}")
    return dc


def timed(probe, kind: str, fn):
    """Call fn once; returns (its result, its OpTime)."""
    spent = probe.spent
    start = time.perf_counter()
    result = fn()
    end = time.perf_counter()
    return result, OpTime(kind, start, end, end - start - (probe.spent - spent))


def run_pass(ops, reference: list[str] | None, probe) -> PassResult:
    """Run every operation once, closed loop; time only the calls."""
    res = PassResult()
    for i, op in enumerate(ops):
        res.attempted += 1
        try:
            output, op_time = timed(probe, op.kind, op.call)
        except Exception:
            res.failed += 1
            res.digests.append("")
            print(f"FAILED {op.label}: {traceback.format_exc(limit=3)}", file=sys.stderr)
            continue
        res.times.append(op_time)
        if op.kind == "run":
            res.steps += op.steps
        try:
            outcome = op.inspect(output)
            problems = outcome.problems
            for key, value in outcome.counters.items():
                res.counters[key] = res.counters.get(key, 0) + value
            res.digests.append(outcome.digest)
            if reference is not None and outcome.digest != reference[i]:
                problems = problems + ["output differs from the first pass at the same inputs"]
        except Exception:
            problems = [f"inspect raised: {traceback.format_exc(limit=3)}"]
            res.digests.append("")
        output = None  # release the output before the next call
        if problems:
            res.failed += 1
            print(f"FAILED {op.label}: {'; '.join(problems)}", file=sys.stderr)
    return res


def rescale(probe, op_times) -> None:
    for t in op_times:
        t.scaled = t.raw * probe.scale(t.start, t.end)


def percentile(values, q: float) -> float:
    """Linear-interpolated q-th percentile (0 < q < 100) of a non-empty list."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_info() -> dict:
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": "unknown",
        "caches": {},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            info["caches"][f"L{level}"] = size
    return info


def cache_bytes(text: str) -> int:
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if text[-1:] in units and text[:-1].isdigit():
        return int(text[:-1]) * units[text[-1]]
    return int(text) if text.isdigit() else 0


def large_n_cache_note(info: dict) -> str:
    n = LargeN().n
    vec = 8 * n
    fits = [name for name, size in info["caches"].items() if cache_bytes(size) >= vec]
    where = f"fits within the reported {' and '.join(fits)}" if fits else "exceeds every reported cache"
    return (
        f"each large-n vector is {vec / 1e6:.1f} MB (n = {n} float64) and {where}; "
        "the benchmark therefore makes no memory-bandwidth claim"
    )


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setup_times, passes, by_kind) -> dict:
    runs_ms = [t * 1e3 for t in by_kind["run"]]
    # The tail is taken within each pass and its median over passes is
    # reported: a pass of experiments has 480 run() calls, 24 beyond its
    # 95th percentile; a pass of large-n or cli has one run operation, so
    # there the value equals run_ms_p50.
    tails_ms = [
        percentile([t.scaled * 1e3 for t in p.times if t.kind == "run"], 95) for p in passes
    ]
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "steps_per_s": metric(
            statistics.median(p.steps / p.run_time for p in passes), "steps/s"
        ),
        "run_ms_p50": metric(statistics.median(runs_ms), "ms"),
        "run_ms_p95": metric(statistics.median(tails_ms), "ms"),
        "pass_s": metric(statistics.median(p.wall for p in passes), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }


COUNTERS = (
    ("engine.steps", "count"),
    ("engine.trace_bytes", "B-computed"),
    ("adjusters.violations", "count"),
    ("fileio.bytes_written", "B"),
    ("smallcase.regions", "count"),
)


def per_layer(traced, untraced, layers) -> dict:
    """layers: one (calls, scaled self seconds) pair of dicts per traced pass."""
    calls = layers[0][0]
    out = {f"{layer}.calls": metric(calls[layer], "count") for layer in LAYERS}
    for layer in COMMON_LAYERS:
        out[f"{layer}.self_s"] = metric(statistics.median(s[layer] for _, s in layers), "s")
    for key, unit in COUNTERS:
        out[key] = metric(traced[0].counters.get(key, 0), unit)
    out["tracer.overhead_ratio"] = metric(
        statistics.median(p.wall for p in traced) / statistics.median(p.wall for p in untraced),
        "ratio",
    )
    return out


def layer_report(traced, layers) -> list[str]:
    wall = statistics.median(p.wall for p in traced)
    lines = [f"traced passes {len(traced)}; median traced pass {wall:.4f} s"]
    for layer in LAYERS:
        calls = layers[0][0][layer]
        if calls:
            self_s = statistics.median(s[layer] for _, s in layers)
            lines.append(
                f"layer {layer}: calls {calls} self {self_s:.6f} s share {100 * self_s / wall:.1f}%"
            )
    rest = wall - statistics.median(sum(s.values()) for _, s in layers)
    lines.append(f"layer (outside wrapped layers): self {rest:.6f} s share {100 * rest / wall:.1f}%")
    return lines


def measure(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Set up and run one workload; returns the result object and report lines."""
    work_dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    untraced, traced, raw_layers = [], [], []
    try:
        with SpeedProbe() as probe:
            setups = []
            for _ in range(SETUP_REPEATS):
                ops, setup = timed(
                    probe, "setup", lambda: workload.setup(import_fresh(), seed, work_dir)
                )
                setups.append(setup)

            warm = run_pass(ops, None, probe)
            reference = warm.digests
            budget = seconds / 2 if trace else seconds
            start = time.perf_counter()
            while not untraced or time.perf_counter() - start < budget:
                untraced.append(run_pass(ops, reference, probe))
            if trace:
                tracer = Tracer(probe.clock)
                tracer.install()
                try:
                    start = time.perf_counter()
                    while not traced or time.perf_counter() - start < budget:
                        tracer.reset()
                        traced.append(run_pass(ops, reference, probe))
                        raw_layers.append((dict(tracer.calls), dict(tracer.self_s)))
                finally:
                    tracer.uninstall()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    rescale(probe, setups)
    for p in (warm, *untraced, *traced):
        rescale(probe, p.times)
    setup_times = [t.scaled for t in setups]
    layers = [
        (calls, {k: v * p.scale for k, v in self_s.items()})
        for p, (calls, self_s) in zip(traced, raw_layers)
    ]

    everything = [warm, *untraced, *traced]
    attempted = sum(p.attempted for p in everything)
    failed = sum(p.failed for p in everything)
    by_kind: dict[str, list[float]] = {}
    raw_by_kind: dict[str, list[float]] = {}
    for p in untraced:
        for t in p.times:
            by_kind.setdefault(t.kind, []).append(t.scaled)
            raw_by_kind.setdefault(t.kind, []).append(t.raw)

    info = machine_info()
    lines = [
        f"workload {workload.name} seed {seed} seconds {seconds:g} trace {int(trace)}",
        "machine " + json.dumps(info, sort_keys=True),
        "note: " + large_n_cache_note(info),
        f"set-ups {len(setup_times)}; untimed warm-up pass 1; untraced passes {len(untraced)}",
        f"speed scale: median {statistics.median(p.scale for p in untraced):.4f} "
        "(reference speed / measured speed)",
    ]
    for kind in sorted(by_kind):
        lines.append(
            f"command {kind}: samples {len(by_kind[kind])} median {statistics.median(by_kind[kind]):.6f} s "
            f"(raw {statistics.median(raw_by_kind[kind]):.6f} s)"
        )
    lines.append(f"failed_frac: {failed / attempted:.6g} ({failed} of {attempted} operations)")
    digest = hashlib.sha256("".join(reference).encode()).hexdigest()
    lines.append(f"output digest (sha256 over the outputs of one pass): {digest}")

    if trace:
        lines += layer_report(traced, layers)
        metrics = per_layer(traced, untraced, layers)
    else:
        metrics = end_to_end(setup_times, untraced, by_kind)
    lines += [f"metric {name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    result, lines = measure(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
