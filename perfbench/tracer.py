"""In-process tracer for the benchmark's traced pass.

Every public function named in LAYERS is wrapped under each name a caller
looks it up by: the tracer scans all loaded ``deconvsim`` modules and
replaces every module attribute that is the original function object.  A
wrapped call is a span; because the frequent layers (``core.ranks``,
``adjusters.adjust`` ...) run hundreds of thousands of times per pass,
spans are aggregated in memory into a per-layer call count and self time
(the span's duration minus the time covered by wrapped child spans) and
written out when the pass ends.
"""

from __future__ import annotations

import functools
import sys

# Wrapped layers, named <module>.<function> after the module that defines
# the function.  The first group runs on every workload; the second group
# (file I/O, census, QQ, CLI front end, concat pooling) only on some.
COMMON_LAYERS = (
    "engine.run",
    "core.as_sample",
    "core.ranks",
    "core.random_permutation",
    "adjusters.adjust",
    "metrics.reference_normal_line",
    "metrics.distance_index",
    "variations.equalize_lengths",
    "variations.pool_average",
)
PARTIAL_LAYERS = (
    "variations.pool_concat",
    "fileio.read_sample",
    "fileio.write_sample",
    "fileio.write_trace_csv",
    "fileio.write_qq_csv",
    "fileio.write_census_csv",
    "fileio.write_census_summary",
    "smallcase.enumerate_regions",
    "smallcase.transition_matrix",
    "smallcase.stationary_distribution",
    "metrics.qq_data",
    "cli.main",
)
LAYERS = COMMON_LAYERS + PARTIAL_LAYERS

PACKAGE = "deconvsim"


class Tracer:
    """Wraps the layers of the loaded package and aggregates their spans."""

    def __init__(self, clock):
        self._clock = clock  # must exclude time the speed probe spends in a span
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self._stack.clear()

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        originals = {}
        for layer in LAYERS:
            mod_name, func_name = layer.rsplit(".", 1)
            fn = getattr(modules.get(f"{PACKAGE}.{mod_name}"), func_name, None)
            if fn is None:  # module not imported by this workload, or function gone
                continue
            originals[id(fn)] = (layer, fn)
        self.reset()
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[1] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, self._wrap(hit[0], value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def _wrap(self, layer: str, fn):
        clock = self._clock
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                tracer.self_s[layer] += elapsed - child
                tracer.calls[layer] += 1
                if stack:
                    stack[-1] += elapsed

        return span
