"""aliaslab benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout; it imports aliaslab from ``src/``.
Workloads, metric names and units are those of ``BENCHMARK.json``; the
workload inputs are made in ``workloads.py`` from the seed.

Every iteration runs in a fresh interpreter (``worker.py``), one at a time,
so peak RSS is that of the process that ran the workload and set-up time
runs from interpreter start until aliaslab is imported and the inputs are
made.  With ``--trace 0`` iterations of the same seed repeat while the next
one is predicted to end within ``--seconds`` (at least one), set-up is
sampled at least three times, and the medians are reported.  With
``--trace 1`` one untraced and one traced iteration run, whatever
``--seconds`` says: the per-layer metrics come from the traced one, the
``pipeline.*`` and ``acceptance.*`` stage times from the untraced one, and
``trace.overhead_s`` is the difference of their wall times.  Span wall and
CPU times are summed over threads.

Each iteration is gated for correctness (``workloads.py``), and the sha256
of its ``profile.csv`` (``psi_table.csv`` on ``psi-sweep``) must match every
earlier run of the same seed in this checkout.  The full record, with the
environment and the per-iteration samples, goes to
``.perfbench-out/result-<workload>-<seed>-trace<t>.json``.  The last line of
standard output is the result JSON.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0
PIPELINE_STAGES = ("filter_s", "profile_s", "prediction_s", "global_image_s", "roi_image_s")
PSI_CRITERIA = ("psi-identities", "psi-oracle", "psi-asymptotics", "psi-decay", "hurwitz-tail")
# rel_mismatch of an iteration that produced none
FAILED_MISMATCH = 1.0


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run worker.py once and return its report, with set-up time added and
    parent-side measurements in place of any the worker could not send."""
    out_dir = OUT / f"{workload}-{seed}-{mode}"
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), workload, str(seed), mode, str(out_dir)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, deadline - start))
        lines = proc.stdout.strip().splitlines()
        report = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
        if not report:
            report["failures"] = [f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}"]
    except subprocess.TimeoutExpired:
        report = {"failures": ["worker timed out"]}
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    report["setup_s"] = report["ready"] - start if "ready" in report else None
    if mode != "setup":
        report.setdefault("wall_s", time.monotonic() - start)
        report.setdefault("cpu_s", after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
        report.setdefault("peak_rss_mb", after.ru_maxrss / 1024.0)
        report.setdefault("rel_mismatch", FAILED_MISMATCH)
    return report


def check_digests(workload: str, seed: int, samples: list) -> None:
    """Every iteration must write the same primary output as every earlier
    run of this seed; a mismatch is a failure of that iteration."""
    ledger_path = OUT / "digests.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
    key = f"{workload}/{seed}"
    for sample in samples:
        digest = sample.get("digest")
        if digest is None:
            continue
        expected = ledger.setdefault(key, digest)
        if digest != expected:
            sample["failures"].append(f"output digest {digest} differs from {expected} of an earlier run")
    ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True))


def end_to_end(samples: list, setups: list) -> dict:
    failed = sum(1 for s in samples if s["failures"])
    return {
        "wall_s": statistics.median(s["wall_s"] for s in samples),
        "cpu_s": statistics.median(s["cpu_s"] for s in samples),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        "setup_s": statistics.median(setups),
        "pass_rate": (len(samples) - failed) / len(samples),
        "rel_mismatch": statistics.median(s["rel_mismatch"] for s in samples),
    }


def per_layer(base: dict, traced: dict) -> dict:
    metrics = dict(traced.get("layers", {}))
    timings = base.get("timings", {})
    for stage in PIPELINE_STAGES:
        metrics[f"pipeline.{stage}"] = float(timings.get(stage, 0.0))
    criteria = base.get("criteria", {})
    for slug in PSI_CRITERIA:
        metrics[f"acceptance.{slug}.wall_s"] = float(criteria.get(slug, 0.0))
    metrics["outputs.bytes"] = float(base.get("output_bytes", 0))
    metrics["trace.overhead_s"] = traced["wall_s"] - base["wall_s"]
    return metrics


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "aliaslab" / "__init__.py").is_file():
        print(f"no aliaslab sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    if args.trace:
        base = spawn(args.workload, args.seed, "run", deadline)
        traced = spawn(args.workload, args.seed, "trace", deadline)
        samples = [base, traced]
    else:
        samples = []
        while True:
            samples.append(spawn(args.workload, args.seed, "run", deadline))
            elapsed = time.monotonic() - start
            if elapsed * (len(samples) + 1) / len(samples) > min(args.seconds, RUN_LIMIT_S / 2):
                break
        setups = [s["setup_s"] for s in samples if s["setup_s"] is not None]
        while len(setups) < SETUP_SAMPLES and time.monotonic() < deadline:
            setup = spawn(args.workload, args.seed, "setup", deadline)
            if setup["setup_s"] is None:
                break
            setups.append(setup["setup_s"])

    for sample in samples:
        sample.setdefault("failures", [])
    check_digests(args.workload, args.seed, samples)
    failed = sum(1 for s in samples if s["failures"])
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = per_layer(base, traced) if args.trace else end_to_end(samples, setups or [time.monotonic() - start])
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if failed and args.trace:  # a failed traced run may leave layers unmeasured
        metrics = {name: metrics.get(name, 0.0) for name in units}
    if set(metrics) != set(units):
        print(f"metrics differ from BENCHMARK.json {kind}: {sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(),
        "environment": next((s["environment"] for s in samples if "environment" in s), None),
        "inputs": next((s["inputs"] for s in samples if "inputs" in s), None),
        "digest": next((s["digest"] for s in samples if "digest" in s), None),
        "absent_layers": traced.get("absent", []) if args.trace else [],
        "computed": traced.get("computed", []) if args.trace else [],
        "samples": [{k: v for k, v in s.items() if k not in ("environment", "inputs", "layers")} for s in samples],
        "metrics": metrics,
    }
    record_path = OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))

    for sample in samples:
        for failure in sample["failures"]:
            print(f"FAILED: {failure}")
    for name in sorted(metrics):
        label = " (computed)" if name in record["computed"] else ""
        print(f"{name} = {metrics[name]!r} {units[name]}{label}")
    if record["absent_layers"]:
        print(f"absent layers (their metrics read 0): {', '.join(record['absent_layers'])}")
    print(f"environment = {json.dumps(record['environment'])}  git_sha = {record['git_sha']}")
    print(f"digest = {record['digest']}  record = {record_path}")
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
