"""One run of one workload in a fresh interpreter, reported as one JSON line.

    python3 perfbench/worker.py <workload> <seed> <setup|run|trace> <out_dir>

``setup`` stops once aliaslab is imported and the inputs are generated;
``run`` also runs the workload untraced; ``trace`` runs it with the span
tracer installed and writes the spans to ``<out_dir>/spans.json``.  The
``ready`` time is read on the system-wide monotonic clock, so the parent can
subtract its spawn time and get the set-up time from interpreter start.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402
from spans import COMPUTED_COUNTERS, Span, Tracer  # noqa: E402


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def main(argv) -> int:
    name, seed, mode, out_dir = argv[0], int(argv[1]), argv[2], argv[3]
    inputs = workloads.make_inputs(name, seed)
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install()
    report = {"ready": time.monotonic(), "inputs": inputs}
    if mode != "setup":
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        try:
            report.update(workloads.run_workload(inputs, out_dir))
        except Exception:  # the run failed: report it rather than crash
            report["failures"] = [traceback.format_exc(limit=-3)]
        if tracer is not None:
            tracer.remove()
            report["layers"] = tracer.layer_metrics(report.get("wall_s", 0.0))
            report["absent"] = tracer.absent
            report["computed"] = list(COMPUTED_COUNTERS)
            with open(os.path.join(out_dir, "spans.json"), "w", encoding="utf-8") as f:
                json.dump({"fields": Span.FIELDS, "spans": [span.as_list() for span in tracer.spans]}, f)
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report["environment"] = environment()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
