"""Command-line surface.

Subcommands: run (deconvolve two sample files), simulate (write
synthetic samples), analyze3 (exact 3-point census), qq (quantile
pairs for external plotting).  Exit codes: 0 on success, 2 on any
usage or input error.  Every command is deterministic given its flags.
Each warning a command raises is printed to stderr at once as
``warning: <message>``, whatever warning filters the caller set.
"""

from __future__ import annotations

import argparse
import sys
import warnings

import numpy as np

from .config import (
    DEFAULT_SEED,
    AdjustPolicy,
    DeconvConfig,
    EqualizeStrategy,
    PoolingKind,
    PoolingMode,
    SmoothingSpec,
    SupportConstraint,
    TieRule,
)
from .core import make_rng
from .datagen import EXPERIMENT_SIZE, make_experiment, generate, parse_dist_spec
from .engine import Chain
from .errors import ConfigError, DeconvError, InvalidInputError
from .fileio import (
    make_header,
    read_sample,
    replacing,
    shown,
    summary_path_for,
    write_census_csv,
    write_census_summary,
    write_qq_csv,
    write_sample,
    write_trace_block,
)
from .metrics import TheoreticalDist, qq_data, sample_moments
from .smallcase import CANONICAL_X, full_census


def parse_support(text: str) -> SupportConstraint:
    """Parse "LO:HI"; either side may be inf/-inf or empty for unbounded."""
    lo_text, sep, hi_text = text.partition(":")
    if not sep:
        raise ConfigError(f"support must look like LO:HI, got {text!r}")

    def bound(t: str, default: float) -> float:
        t = t.strip()
        if not t:
            return default
        try:
            return float(t)
        except ValueError:
            raise ConfigError(f"bad support bound {t!r}") from None

    return SupportConstraint(bound(lo_text, float("-inf")), bound(hi_text, float("inf")))


def parse_equalize(text: str) -> EqualizeStrategy:
    name, _, arg = text.strip().partition(":")
    name = name.strip().lower()
    arg = arg.strip()
    if name == "tile" and not arg:
        return EqualizeStrategy.tile()
    if name == "subsample" and not arg:
        return EqualizeStrategy.subsample()
    if name == "bootstrap":
        if not arg:
            raise ConfigError("bootstrap needs a target length, e.g. bootstrap:100")
        try:
            target = int(arg)
        except ValueError:
            raise ConfigError(f"bad bootstrap target {arg!r}") from None
        return EqualizeStrategy.bootstrap(target)
    raise ConfigError(f"unknown equalize strategy {text!r}")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    d = DeconvConfig()  # each flag's default is the field it sets

    def flag(name: str, default, text: str, **kwargs) -> None:
        p.add_argument(name, default=default, help=f"{text} (default: %(default)s)", **kwargs)

    p.add_argument("--x", required=True, help="file with the x sample")
    p.add_argument("--z", required=True, help="file with the z sample")
    p.add_argument("--out", required=True, help="trace CSV output path")
    p.add_argument("--pooled-out", help="optional file for the pooled estimate")
    flag("--iters", d.iters, "chain steps T", type=int)
    flag("--burn-in", d.pool.burn_in, "steps left out of pooling", type=int)
    flag(
        "--adjust",
        d.adjust.value,
        "repair of values outside the support",
        choices=[p.value for p in AdjustPolicy],
    )
    flag("--support", f"{d.support.lower}:{d.support.upper}", "support bounds LO:HI")
    flag("--equalize", d.equalize.kind.value, "tile | subsample | bootstrap:N")
    for name, of in (("xi", "x"), ("eta", "y"), ("zeta", "z")):
        sd = getattr(d.smoothing, f"{name}_sd")
        flag(f"--smooth-{name}", sd, f"sd of noise on {of}", type=float)
    flag(
        "--smooth-fresh",
        int(d.smoothing.fresh_each_step),
        "1: fresh noise each step; 0: one draw reused",
        type=int,
        choices=(0, 1),
    )
    flag(
        "--pool",
        d.pool.kind.value,
        "pooling of the steps after the burn-in",
        choices=[k.value for k in PoolingKind],
    )
    flag("--seed", d.seed, "seed of the run", type=int)
    flag(
        "--tie-rule",
        d.tie_rule.value,
        "order of tied values when ranking",
        choices=[t.value for t in TieRule],
    )


def _config_from(ns: argparse.Namespace) -> DeconvConfig:
    return DeconvConfig(
        iters=ns.iters,
        adjust=AdjustPolicy(ns.adjust),
        support=parse_support(ns.support),
        equalize=parse_equalize(ns.equalize),
        smoothing=SmoothingSpec(
            xi_sd=ns.smooth_xi,
            eta_sd=ns.smooth_eta,
            zeta_sd=ns.smooth_zeta,
            fresh_each_step=bool(ns.smooth_fresh),
        ),
        pool=PoolingMode(PoolingKind(ns.pool), burn_in=ns.burn_in),
        seed=ns.seed,
        tie_rule=TieRule(ns.tie_rule),
    )


# Float64 values per block of the trace that ``run`` writes as the chain
# goes (2 MB): the command holds this much of the trace, not all of it,
# unless concat pooling needs every row.
_TRACE_BLOCK = 1 << 18


def cmd_run(ns: argparse.Namespace, argv: list[str]) -> int:
    config = _config_from(ns)
    if ns.pooled_out and config.pool.kind is PoolingKind.NONE:
        raise ConfigError("--pooled-out requires --pool other than none")
    x = read_sample(ns.x)
    z = read_sample(ns.z)
    chain = Chain(x, z, config, _TRACE_BLOCK)
    trace = chain.trace
    header = make_header(ns.seed, argv)
    # Each block is written as the chain hands it over; the file takes
    # the place of --out only once the run, and the pooled file, succeeded.
    with replacing(ns.out) as fh:
        for start, block in chain.blocks():
            write_trace_block(fh, start, block, trace.d, trace.violations, header)
        pooled = chain.pooled()
        if ns.pooled_out:
            write_sample(ns.pooled_out, pooled, header)
    if trace.reference is None:
        if isinstance(trace.reference_error, InvalidInputError):
            reason = "a mean or variance overflows float64"
        else:
            reason = "var(z) <= var(x) or n < 2"
        warnings.warn(f"normal reference is degenerate ({reason}); d written as NA")

    mean_d = trace.mean_distance()
    final = block[-1]
    try:
        mean, var = sample_moments(final) if final.size >= 2 else (float(final[0]), 0.0)
        moments = f"mean: {mean:.6g} sd: {np.sqrt(var):.6g}"
    except InvalidInputError:  # the moments overflow float64
        moments = "mean: NA sd: NA"
    total_viol = trace.violations[1:].sum()
    burn_in = config.pool.burn_in
    print(f"n: {chain.n}")
    print(f"iterations: {config.iters}")
    print(f"mean d (iter > {burn_in}): " + ("NA" if mean_d is None else f"{mean_d:.6g}"))
    print(f"final estimate {moments}")
    print(f"pre-adjustment violations, total: {total_viol}")
    print(f"trace: {shown(ns.out)}")
    if ns.pooled_out:
        print(f"pooled estimate: {shown(ns.pooled_out)}")
    return 0


def cmd_simulate(ns: argparse.Namespace, argv: list[str]) -> int:
    prefix = ns.out_prefix
    header = make_header(ns.seed, argv)
    if ns.experiment is not None:
        if ns.n is not None and ns.n != EXPERIMENT_SIZE:
            raise ConfigError(f"named experiments are fixed at n = {EXPERIMENT_SIZE}")
        x1, z0, truth = make_experiment(ns.experiment, ns.seed)
        write_sample(f"{prefix}x1.txt", x1, header)
        write_sample(f"{prefix}z0.txt", z0, header)
        write_sample(f"{prefix}truth.txt", truth, header)
        print(shown(f"wrote {prefix}x1.txt {prefix}z0.txt {prefix}truth.txt"))
        return 0
    spec = parse_dist_spec(ns.dist)
    n = EXPERIMENT_SIZE if ns.n is None else ns.n
    sample = generate(spec, n, make_rng(ns.seed))
    write_sample(f"{prefix}sample.txt", sample, header)
    print(shown(f"wrote {prefix}sample.txt"))
    return 0


def cmd_analyze3(ns: argparse.Namespace, argv: list[str]) -> int:
    xs = CANONICAL_X
    if ns.x_values:
        # full_census parses each token as an exact rational.
        xs = [tok for tok in map(str.strip, ns.x_values.split(",")) if tok]
        if not xs:
            raise ConfigError("--x-values is empty")
    census = full_census(xs)
    header = make_header("-", argv)
    write_census_csv(ns.out, census, header)
    summary_path = summary_path_for(ns.out)
    write_census_summary(summary_path, census, header)
    print(f"regions: {census.total_regions}")
    print(f"distinct stationary distributions: {census.distinct_count}")
    print(f"distinct under relabeling: {census.distinct_unlabeled_count}")
    top_dist, top_count = census.top_distribution()
    print(f"most frequent occurs {top_count} times")
    print(f"singletons: {census.singleton_count()}")
    hist = census.histogram()
    hist_text = " ".join(f"{m}x{c}" for m, c in sorted(hist.items()))
    print(f"multiplicity histogram (multiplicity x how-many): {hist_text}")
    print(f"census: {shown(ns.out)}")
    print(f"summary: {shown(summary_path)}")
    return 0


def cmd_qq(ns: argparse.Namespace, argv: list[str]) -> int:
    qq = qq_data(read_sample(ns.infile), TheoreticalDist(ns.dist))
    write_qq_csv(ns.out, qq, make_header("-", argv))
    print(f"qq data: {shown(ns.out)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deconvsim",
        description="Estimate the distribution of Y from samples of X and Z = X + Y.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="deconvolve two sample files")
    _add_run_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sim = sub.add_parser("simulate", help="write synthetic sample files")
    group = p_sim.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--experiment", choices=("normal", "exponential", "uniform", "outlier")
    )
    group.add_argument("--dist", help='distribution spec, e.g. "exponential:1"')
    p_sim.add_argument("--n", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_sim.add_argument("--out-prefix", default="", help="path prefix for output files")
    p_sim.set_defaults(func=cmd_simulate)

    p_an = sub.add_parser("analyze3", help="exact 3-point region census")
    p_an.add_argument("--out", required=True, help="census CSV output path")
    p_an.add_argument(
        "--x-values",
        help='comma-separated rationals, e.g. "10/120,22/120" (default: the six canonical values)',
    )
    p_an.set_defaults(func=cmd_analyze3)

    p_qq = sub.add_parser("qq", help="quantile pairs against a reference distribution")
    p_qq.add_argument("--in", dest="infile", required=True, help="sample file")
    p_qq.add_argument(
        "--dist",
        required=True,
        choices=[d.value for d in TheoreticalDist],
    )
    p_qq.add_argument("--out", required=True, help="QQ CSV output path")
    p_qq.set_defaults(func=cmd_qq)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            return ns.func(ns, list(argv))
        except (DeconvError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    raise SystemExit(main())
