"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from aliaslab import forward_model, pipeline, reconstruction  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_are_deterministic_in_the_seed(name):
    assert workloads.make_inputs(name, 7) == workloads.make_inputs(name, 7)
    assert workloads.make_inputs(name, 7) != workloads.make_inputs(name, 8)


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def _traced_counts(inputs, monkeypatch) -> dict:
    """Work counters of one traced run with the numerics stubbed out: the
    counters read only call arguments, so zeros in place of data keep them."""
    monkeypatch.setattr(forward_model.SemiDiscreteData, "_eval", lambda self, k, p, derivative: np.zeros(np.shape(p)))
    monkeypatch.setattr(reconstruction, "pv_filter_uniform", lambda g, step, start: np.zeros(np.size(g)))
    monkeypatch.setattr(
        reconstruction, "backproject", lambda views, x, family, scheme: np.zeros(np.atleast_2d(x).shape[0])
    )
    tracer = spans.Tracer()
    tracer.install()
    try:
        pipeline.run_experiment(workloads.build_config(inputs), threads=1)
    finally:
        tracer.remove()
    assert tracer.absent == []
    return {name: tracer.counters[name] for name in spans.COMPUTED_COUNTERS if "big_psi" not in name}


@pytest.mark.parametrize("name", ["crt-demo", "crt-fine-profile"])
def test_line_family_counts_do_not_depend_on_the_seed(name, monkeypatch):
    first, second = workloads.make_inputs(name, 1), workloads.make_inputs(name, 2)
    assert first["config"]["shift"] != second["config"]["shift"]
    assert first["config"]["probe_x0"] != second["config"]["probe_x0"]
    counts = _traced_counts(first, monkeypatch)
    assert counts == _traced_counts(second, monkeypatch)
    n_views = first["config"]["n_views"]
    assert counts["forward_model.views"] == n_views
    windows = sum(counts[f"forward_model.windows_{kind}"] for kind in ("clean", "kinked", "dead"))
    assert windows == counts["forward_model.data_smooth_deriv.points"] > 0
    assert counts["forward_model.windows_kinked"] > 0


def test_printed_metric_names_match_benchmark_json(monkeypatch, capsys, tmp_path):
    layers = spans.Tracer().layer_metrics(1.0)

    def fake_spawn(workload, seed, mode, deadline):
        report = {"ready": 0.0, "setup_s": 1.0, "failures": [], "wall_s": 2.0, "cpu_s": 3.0}
        report.update(peak_rss_mb=100.0, rel_mismatch=0.2, digest="d", layers=layers)
        return report

    monkeypatch.setattr(run, "spawn", fake_spawn)
    monkeypatch.setattr(run, "OUT", tmp_path)
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        assert run.main(["--workload", "crt-demo", "--seed", "1", "--seconds", "0", "--trace", str(trace)]) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        expected = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


def test_digest_mismatch_fails_the_run(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    run.check_digests("crt-demo", 1, [{"digest": "a", "failures": []}])
    later = [{"digest": "a", "failures": []}, {"digest": "b", "failures": []}]
    run.check_digests("crt-demo", 1, later)
    assert [bool(s["failures"]) for s in later] == [False, True]


def test_unresolved_hook_is_an_absent_layer():
    tracer = spans.Tracer()
    tracer._hook("gone.layer", "aliaslab.pipeline", "no_such_function", tracer._wrap, None)
    tracer._hook("gone.module", "aliaslab.no_such_module", "f", tracer._wrap, None)
    assert tracer.absent == ["gone.layer", "gone.module"]


def test_self_time_excludes_the_union_of_child_spans():
    parent = spans.Span()
    parent.start, parent.end = 0.0, 10.0
    kids = []
    for start, end in ((1.0, 4.0), (3.0, 5.0), (8.0, 12.0)):
        kid = spans.Span()
        kid.start, kid.end = start, end
        kids.append(kid)
    assert spans._covered(parent, kids) == pytest.approx(6.0)


def test_psi_terms_follow_the_argument_reduction():
    assert spans.psi_terms(0.5, 2.0, 0.25, 10_000, 1.0) == 10_000 + 1
    assert spans.psi_terms(0.5, -2.0, -0.25, 10_000, 1.0) == 10_000 + 1
    assert spans.psi_terms(2.0, 2.0, 0.25, 10_000, 1.0) == 0
    assert spans.psi_terms(0.5, 0.0, 0.25, 10_000, 1.0) == 0
