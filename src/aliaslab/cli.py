"""Command line harness.

Subcommands:
    psi-table   tabulate Psi(a*h'; a, r) over h' in [0, 1]
    crt-demo    full-angle line-family experiment (global + ROI + profile)
    grt-demo    limited-angle circle-family experiment
    verify      run acceptance criteria; exit 0 iff all selected pass
    sweep       joint (epsilon, n_views) refinement at fixed kappa

Output directory precedence: --out, then outputs.directory from the
config, then $ALIASLAB_OUT, then ./aliaslab-out.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from .experiment_config import (
    MAX_PROFILE_SAMPLES, ConfigError, ExperimentConfig, crt_preset, grt_preset, load_config_file,
)
from .outputs import format_floats, write_psi_table_csv
from .pipeline import MAX_THREADS, plan_run, run_experiment, write_artifacts
from .special_functions import big_psi

__all__ = ["main"]

_ENV_OUT = "ALIASLAB_OUT"
_FALLBACK_OUT = "aliaslab-out"


def _resolve_out(cli_out, config: ExperimentConfig | None) -> str:
    if cli_out:
        return cli_out
    if config is not None and config.out_dir:
        return config.out_dir
    return os.environ.get(_ENV_OUT) or _FALLBACK_OUT


def _cmd_demo(args) -> int:
    config = load_config_file(args.config) if args.config else args.preset()
    if config.family != args.family:
        raise ConfigError(f"family: this subcommand needs family = {args.family}, got {config.family}")
    if args.eta is not None:
        config = config.with_overrides(eta=args.eta)
    result = run_experiment(config, threads=args.threads)
    out_dir = _resolve_out(args.out, config)
    written = write_artifacts(result, out_dir)
    m = result.metrics
    print(f"descriptors: {len(result.descriptors)}")
    print(f"sup mismatch: {m.sup_mismatch:.6g}")
    print(f"prediction peak-to-peak: {m.peak_to_peak:.6g}")
    print(f"relative mismatch: {m.relative_mismatch:.6g}")
    for name in config.artifacts:
        print(f"wrote {written[name]}")
    return 0


def _cmd_psi_table(args) -> int:
    if not 1 <= args.samples <= MAX_PROFILE_SAMPLES:
        raise ConfigError(f"--samples: {args.samples}; at least 1, at most MAX_PROFILE_SAMPLES = {MAX_PROFILE_SAMPLES}")
    a_values = args.a if args.a else [1.0, 2.0, 4.0]
    for flag, values in (("--a", a_values), ("--r", [args.r])):
        if not np.all(np.isfinite(values)):
            raise ConfigError(f"{flag}: must be finite, got {values}")
    h_prime = np.linspace(0.0, 1.0, args.samples)
    rows = [(h, a, big_psi(a * h, a, args.r)) for a in a_values for h in h_prime]
    out_dir = _resolve_out(args.out, None)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "psi_table.csv")
    write_psi_table_csv(path, rows)
    print(f"wrote {path}")
    return 0


def _cmd_verify(args) -> int:
    from . import acceptance

    numbers = acceptance.select(args.suite)
    results = acceptance.run_criteria(numbers, threads=args.threads)
    text = acceptance.format_report(results)
    print(text, end="")
    out_dir = _resolve_out(args.out, None)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "verify_report.txt")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)
    print(f"wrote {path}")
    return 0 if all(r.passed for r in results) else 1


def _cmd_sweep(args) -> int:
    """Halve epsilon and double n_views per level, at fixed kappa = delta_alpha
    / epsilon: the profile's mismatch should shrink about linearly in epsilon."""
    if args.levels < 1:
        raise ConfigError(f"--levels: {args.levels}; at least 1")
    base = crt_preset() if args.family == "line" else grt_preset()
    eps0 = args.base_epsilon if args.base_epsilon is not None else 3.0 * base.epsilon
    views0 = args.base_views if args.base_views is not None else max(2, base.n_views // 3)
    # every level's config is built and planned, and so checked, before the first run
    configs = [base.with_overrides(epsilon=eps0 / 2**level, n_views=views0 * 2**level, eta=args.eta,
                                   artifacts=("profile", "report")) for level in range(args.levels)]
    for config in configs:
        plan_run(config)

    lines, rels = ["level,epsilon,n_views,sup_mismatch,peak_to_peak,relative_mismatch,seconds"], []
    print(f"{'level':>5} {'epsilon':>10} {'n_views':>8} {'sup':>12} {'ptp':>12} {'rel':>10} {'sec':>7}")
    for level, config in enumerate(configs):
        t0 = time.perf_counter()
        m = run_experiment(config, threads=args.threads).metrics
        dt = time.perf_counter() - t0
        rels.append(m.relative_mismatch)
        lines.append(f"{level},{format_floats(config.epsilon)},{config.n_views},"
                     f"{format_floats(m.sup_mismatch, m.peak_to_peak, m.relative_mismatch, dt)}")
        print(f"{level:>5} {config.epsilon:>10.5f} {config.n_views:>8d} {m.sup_mismatch:>12.5e} "
              f"{m.peak_to_peak:>12.5e} {m.relative_mismatch:>10.4f} {dt:>7.1f}")
    for a, b in zip(rels, rels[1:]):
        print(f"  contraction {a:.4f} -> {b:.4f} (factor {b / a:.3f})")

    out_dir = _resolve_out(args.out, None)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "sweep.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")
    print(f"wrote {path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aliaslab",
        description="Tomographic view-aliasing laboratory: reconstruct disk "
        "phantoms from angularly discretized data and compare the artifact "
        "against its closed-form prediction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_psi = sub.add_parser("psi-table", help="tabulate the aliasing profile function")
    p_psi.add_argument("--a", action="append", type=float, help="rate parameter; repeatable (default 1 2 4)")
    p_psi.add_argument("--r", type=float, default=1.0 / 3.0, help="grid offset (default 1/3)")
    p_psi.add_argument("--samples", type=int, default=201, help="h' samples on [0, 1]")
    p_psi.add_argument("--out", help="output directory")
    p_psi.set_defaults(func=_cmd_psi_table)

    for name, preset, family, blurb in (
        ("crt-demo", crt_preset, "line", "full-angle line-family experiment"),
        ("grt-demo", grt_preset, "circle", "limited-angle circle-family experiment"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", help="experiment config file (default: built-in preset)")
        p.add_argument("--out", help="output directory")
        p.add_argument("--threads", type=int, default=1, help="worker threads")
        p.add_argument("--eta", type=int, help="override filtering oversampling factor")
        p.set_defaults(func=_cmd_demo, preset=preset, family=family)

    p_ver = sub.add_parser("verify", help="run acceptance criteria")
    p_ver.add_argument("suite", nargs="?", default="all", help="criterion slug or suite name (default all)")
    p_ver.add_argument("--out", help="output directory")
    p_ver.add_argument("--threads", type=int, default=1, help="worker threads")
    p_ver.set_defaults(func=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="refinement sweep at fixed kappa, one level per halving of epsilon")
    p_sweep.add_argument("--family", choices=("line", "circle"), default="line")
    p_sweep.add_argument("--levels", type=int, default=3)
    p_sweep.add_argument("--base-epsilon", type=float, default=None)
    p_sweep.add_argument("--base-views", type=int, default=None)
    p_sweep.add_argument("--eta", type=int, default=16)
    p_sweep.add_argument("--threads", type=int, default=min(os.cpu_count() or 1, MAX_THREADS))
    p_sweep.add_argument("--out", help="directory for sweep.csv")
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        threads = getattr(args, "threads", 1)
        if not 1 <= threads <= MAX_THREADS:
            raise ConfigError(f"--threads: {threads} worker threads; at least 1, at most MAX_THREADS = {MAX_THREADS}")
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
