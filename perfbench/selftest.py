"""Self-test of the benchmark at tiny sizes (about 20 s).

    python3 perfbench/selftest.py

1. Every workload, traced and untraced, emits exactly the metrics that
   BENCHMARK.json declares, each with its declared unit, and passes its
   output checks.
2. Deliberately corrupted outputs (an iterate below the support [0, inf),
   an iterate whose mean left mean(z) - mean(x)) are counted as failed
   operations instead of passing.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import Cli, Experiments, LargeN

TINY = {
    "experiments": lambda: Experiments(seeds=1, iters=8),
    "large-n": lambda: LargeN(n=3000, n_z=2000, iters=6),
    "cli": lambda: Cli(n=40, iters=8),
}


class CorruptedExperiments(Experiments):
    """Tiny experiments where the first run whose label ends with ``label``
    has its output corrupted after the call."""

    def __init__(self, label: str, corrupt):
        super().__init__(seeds=1, iters=8)
        self.label = label
        self.corrupt = corrupt

    def setup(self, dc, seed, work_dir):
        ops = super().setup(dc, seed, work_dir)
        op = next(op for op in ops if op.label.endswith(self.label))
        op.call = self._corrupted(op.call)
        return ops

    def _corrupted(self, call):
        def corrupted():
            trace = call()
            self.corrupt(trace.steps[-1].y)
            return trace

        return corrupted


def below_support(y):
    y[0] = -1.0  # y is ascending, so it stays ascending


def shift_mean(y):
    y += 1.0


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(run.SRC))
    errors = []

    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        for wl in spec["workloads"]:
            result, _ = run.measure(TINY[wl["name"]](), 1, 0.01, trace)
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            where = f"{wl['name']} trace={int(trace)}"
            if emitted != declared:
                errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                              f"missing {sorted(set(declared) - set(emitted))}, "
                              f"extra {sorted(set(emitted) - set(declared))}, "
                              f"units {[(n, u) for n, u in emitted.items() if declared.get(n, u) != u]}")
            if not result["correct"] or result["failed"]:
                errors.append(f"{where}: {result['failed']} failed operations")

    for label, corrupt in (("/clamp/none", below_support), ("/none/average", shift_mean)):
        workload = CorruptedExperiments(label, corrupt)
        result, _ = run.measure(workload, 1, 0.01, False)
        passes = result["attempted"] // (3 * 5 * 4)  # ops per pass: 3 datasets x 5 policies x 4 pools
        if result["correct"] or result["failed"] != passes:
            errors.append(f"corrupted {label}: {result['failed']} failed of {result['attempted']}, "
                          f"expected one per pass ({passes})")

    print("(FAILED lines on stderr above come from the deliberately corrupted runs)")
    for line in errors:
        print("SELFTEST FAILED: " + line)
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
