#!/usr/bin/env python3
"""Joint (epsilon, n_views) refinement sweep.

Halves the mollifier width and doubles the view count together so the
aliasing ratio kappa = delta_alpha / epsilon stays fixed, then records
how far the reconstructed oscillation profile sits from the predicted
one at each level.  The mismatch should shrink roughly linearly in
epsilon; that is the whole point of the closed-form prediction.

Usage:
  python3 scripts/sweep_refinement.py --family line --levels 3
  python3 scripts/sweep_refinement.py --family circle --base-epsilon 0.04 \
      --base-views 125 --levels 3 --out sweep-out
"""

import argparse
import csv
import os
import sys
import time

from aliaslab.experiment_config import ConfigError, crt_preset, grt_preset
from aliaslab.pipeline import MAX_THREADS, plan_run, run_experiment


def parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--family", choices=("line", "circle"), default="line")
    ap.add_argument("--levels", type=int, default=3)
    ap.add_argument("--base-epsilon", type=float, default=None)
    ap.add_argument("--base-views", type=int, default=None)
    ap.add_argument("--eta", type=int, default=16)
    ap.add_argument("--threads", type=int, default=min(os.cpu_count() or 1, MAX_THREADS))
    ap.add_argument("--out", default=None, help="directory for sweep.csv")
    return ap


def main(argv=None) -> int:
    args = parser().parse_args(argv)
    try:
        return sweep(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def sweep(args) -> int:
    if not 1 <= args.threads <= MAX_THREADS:
        raise ConfigError(f"--threads: {args.threads} worker threads; at least 1, at most MAX_THREADS = {MAX_THREADS}")
    base = crt_preset() if args.family == "line" else grt_preset()
    eps0 = args.base_epsilon if args.base_epsilon is not None else 3.0 * base.epsilon
    views0 = args.base_views if args.base_views is not None else max(2, base.n_views // 3)
    # every level's config is built and planned, and so checked, before the first run
    configs = [
        base.with_overrides(
            epsilon=eps0 / 2**level, n_views=views0 * 2**level, eta=args.eta, artifacts=("profile", "report")
        )
        for level in range(args.levels)
    ]
    for config in configs:
        plan_run(config)

    rows = []
    print(f"{'level':>5} {'epsilon':>10} {'n_views':>8} {'sup':>12} {'ptp':>12} {'rel':>10} {'sec':>7}")
    for level, config in enumerate(configs):
        t0 = time.perf_counter()
        result = run_experiment(config, threads=args.threads)
        dt = time.perf_counter() - t0
        m = result.metrics
        rows.append((level, config.epsilon, config.n_views,
                     m.sup_mismatch, m.peak_to_peak, m.relative_mismatch, dt))
        print(f"{level:>5} {config.epsilon:>10.5f} {config.n_views:>8d} "
              f"{m.sup_mismatch:>12.5e} {m.peak_to_peak:>12.5e} "
              f"{m.relative_mismatch:>10.4f} {dt:>7.1f}")

    rels = [r[5] for r in rows]
    for a, b in zip(rels, rels[1:]):
        print(f"  contraction {a:.4f} -> {b:.4f} (factor {b / a:.3f})")

    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "sweep.csv")
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(["level", "epsilon", "n_views", "sup_mismatch",
                             "peak_to_peak", "relative_mismatch", "seconds"])
            writer.writerows(rows)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
