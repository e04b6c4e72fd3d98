"""Config parsing, pipeline wiring, file outputs, and the CLI."""

import contextlib
import gc
import importlib
import io
import math
import os
import pkgutil
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import aliaslab
from aliaslab.cli import _build_parser, main
from aliaslab.experiment_config import (
    MAX_PROFILE_SAMPLES,
    ConfigError,
    ExperimentConfig,
    crt_preset,
    grt_preset,
    load_config_file,
    parse_config_text,
)
from aliaslab.outputs import (
    PROFILE_HEADER,
    write_pgm16,
    write_profile_csv,
)
from aliaslab import cli, pipeline, reconstruction
from aliaslab.pipeline import (
    _resolve_theta,
    plan_run,
    report_text,
    run_experiment,
    write_artifacts,
)
from aliaslab.forward_model import SemiDiscreteData, SinogramSampler
from aliaslab.geometry import MAX_VIEWS, phi_eval, tangency_enumerate
from aliaslab.reconstruction import (
    MAX_IMAGE_PIXELS,
    AliasProfile,
    FilteredView,
    ImageGrid,
    backproject,
    difference_profile,
    filter_view,
    probe_points,
    pv_filter_uniform,
)

TINY_CRT = crt_preset().with_overrides(
    epsilon=0.06,
    n_views=64,
    h_max=3.0,
    h_step=0.5,
    eta=8,
    image_half_extent=1.2,
    image_pixel_size=0.1,
)

# text key -> field of every number and number-pair config key
NUMBER_FIELDS = {
    "phantom.center": "phantom_center",
    "phantom.radius": "phantom_radius",
    "phantom.jump": "phantom_jump",
    "acquisition.radius": "acquisition_radius",
    "scheme.epsilon": "epsilon",
    "scheme.n_views": "n_views",
    "scheme.shift": "shift",
    "scheme.window": "window",
    "probe.x0": "probe_x0",
    "probe.theta": "probe_theta",
    "probe.h_max": "h_max",
    "probe.h_step": "h_step",
    "recon.eta": "eta",
    "image.half_extent": "image_half_extent",
    "image.pixel_size": "image_pixel_size",
}
PAIR_KEYS = ("phantom.center", "scheme.window", "probe.x0", "probe.theta")


def with_line(text: str, key: str, value: str) -> str:
    """Config text with the ``key = ...`` line set to ``value``."""
    return re.sub(rf"^{re.escape(key)} = .*$", f"{key} = {value}", text, flags=re.MULTILINE)


TINY_GRT = grt_preset().with_overrides(
    epsilon=0.08,
    n_views=100,
    h_max=2.0,
    h_step=0.5,
    eta=8,
    image_half_extent=1.0,
    image_pixel_size=0.1,
)


class TestConfigRoundTrip:
    @pytest.mark.parametrize("config", [crt_preset(), grt_preset(), TINY_CRT, TINY_GRT])
    def test_text_round_trip(self, config):
        assert parse_config_text(config.to_text()) == config

    def test_explicit_theta_round_trip(self):
        config = crt_preset().with_overrides(
            theta_mode="explicit", probe_theta=(0.6, 0.8), out_dir="somewhere"
        )
        assert parse_config_text(config.to_text()) == config

    def test_echoed_lines_win(self):
        # a report file contains both the echo and other key = value
        # lines; only the config.* lines describe the run
        text = crt_preset().to_text()
        echoed = "\n".join(f"config.{line}" for line in text.strip().splitlines())
        noise = "metrics.sup_mismatch = 0.25\ntiming.total_s = 3.5\n"
        assert parse_config_text(echoed + "\n" + noise) == crt_preset()

    def test_comments_and_blanks_ignored(self):
        text = "# preset\n\n" + crt_preset().to_text() + "\n# trailing\n"
        assert parse_config_text(text) == crt_preset()

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(TINY_GRT.to_text(), encoding="utf-8")
        assert load_config_file(path) == TINY_GRT

    def test_int_for_a_number_key_prints_as_float(self):
        text = crt_preset().with_overrides(phantom_radius=5).to_text()
        assert "phantom.radius = 5.0" in text.splitlines()

    def test_h_samples_symmetric_through_zero(self):
        h = TINY_CRT.h_samples()
        assert h[0] == -3.0 and h[-1] == 3.0
        assert np.array_equal(h, -h[::-1])
        assert 0.0 in h


class TestConfigValidation:
    def _expect(self, match, **overrides):
        with pytest.raises(ConfigError, match=match):
            crt_preset().with_overrides(**overrides)

    def test_field_errors(self):
        self._expect("family", family="fan")
        self._expect("n_views", n_views=1)
        self._expect("epsilon", epsilon=0.0)
        self._expect("radius", phantom_radius=-1.0)
        self._expect("acquisition.radius", acquisition_radius=5.0)
        self._expect("theta_mode", theta_mode="sideways")
        self._expect("probe.theta", theta_mode="explicit")
        self._expect("probe.theta", probe_theta=(1.0, 0.0))
        self._expect("unit", theta_mode="explicit", probe_theta=(0.6, 0.9))
        self._expect("h_step", h_step=0.7)
        self._expect("window", window=(2.0, 1.0))
        self._expect("eta", eta=1)
        self._expect("artifacts", artifacts=("profile", "movie"))
        self._expect("half_extent", image_half_extent=0.0)

    def test_circle_needs_acquisition_radius(self):
        with pytest.raises(ConfigError, match="acquisition.radius"):
            grt_preset().with_overrides(acquisition_radius=None)

    @pytest.mark.parametrize(
        "overrides",
        [
            # phantom covers the whole acquisition circle
            dict(acquisition_radius=1.0, phantom_center=(0.0, 0.0), phantom_radius=2.0),
            # phantom crosses the acquisition circle
            dict(acquisition_radius=5.0, phantom_center=(4.5, 0.0), phantom_radius=1.0),
        ],
    )
    def test_acquisition_circle_must_clear_the_phantom(self, overrides):
        with pytest.raises(ConfigError, match="acquisition.radius"):
            grt_preset().with_overrides(**overrides)

    def test_parse_errors_name_the_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("this is not a key value pair")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("family = line\nfamily = line\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_text(crt_preset().to_text() + "phantom.color = blue\n")
        with pytest.raises(ConfigError, match="missing"):
            parse_config_text("family = line\n")
        with pytest.raises(ConfigError, match="empty"):
            parse_config_text("# nothing here\n")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("scheme.n_views", "200.7"),
            ("recon.eta", "16.9"),
            ("scheme.n_views", "inf"),
            ("scheme.n_views", "nan"),
            ("scheme.window", "a,b"),
            ("probe.x0", "nan,7"),
            ("phantom.jump", "nan"),
            ("phantom.radius", "inf"),
        ],
    )
    def test_text_numbers_fail_by_key(self, key, value):
        text = with_line(crt_preset().to_text(), key, value)
        assert f"{key} = {value}\n" in text
        with pytest.raises(ConfigError, match=re.escape(key)):
            parse_config_text(text)

    def test_missing_required_key_is_named(self):
        lines = crt_preset().to_text().splitlines()
        text = "\n".join(line for line in lines if not line.startswith("scheme.n_views"))
        with pytest.raises(ConfigError, match=r"scheme\.n_views: missing"):
            parse_config_text(text)

    def test_keys_left_out_take_the_field_defaults(self):
        text = (
            "family = line\nphantom.center = 0,0\nphantom.radius = 5\nscheme.epsilon = 0.02\n"
            "scheme.n_views = 200\nprobe.x0 = 5,7\nprobe.h_max = 11\n"
        )
        expected = ExperimentConfig(
            family="line", phantom_center=(0.0, 0.0), phantom_radius=5.0, epsilon=0.02,
            n_views=200, probe_x0=(5.0, 7.0), h_max=11.0,
        )
        assert parse_config_text(text) == expected

    def test_number_table_covers_every_number_key(self):
        keys = {f.metadata["key"] for f in fields(ExperimentConfig) if f.metadata["kind"] not in ("str", "list")}
        assert keys == set(NUMBER_FIELDS)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("key", sorted(NUMBER_FIELDS))
    def test_non_finite_number_names_the_key(self, key, bad):
        preset = grt_preset() if key in ("acquisition.radius", "scheme.window") else crt_preset()
        value = (0.6, bad) if key in PAIR_KEYS else bad
        extra = {"theta_mode": "explicit"} if key == "probe.theta" else {}
        with pytest.raises(ConfigError, match=re.escape(key) + ": must be finite"):
            preset.with_overrides(**{NUMBER_FIELDS[key]: value}, **extra)

    @pytest.mark.parametrize(
        "overrides, key",
        [
            # 2*11e9 + 1 profile offsets (164 GiB of h samples)
            (dict(h_step=1e-9), "probe.h_step"),
            # 10**12 views (7.28 TiB of view angles)
            (dict(n_views=10**12), "scheme.n_views"),
        ],
    )
    def test_huge_counts_refused_before_allocating(self, overrides, key):
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(ConfigError, match=re.escape(key)):
                crt_preset().with_overrides(**overrides)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1
        assert peak < 1_000_000

    def test_count_caps_are_inclusive(self):
        m = (MAX_PROFILE_SAMPLES - 1) // 2
        at_cap = crt_preset().with_overrides(h_max=0.25 * m, h_step=0.25)
        assert at_cap.h_samples().size == 2 * m + 1 <= MAX_PROFILE_SAMPLES
        with pytest.raises(ConfigError, match=r"probe\.h_step.*MAX_PROFILE_SAMPLES"):
            crt_preset().with_overrides(h_max=0.25 * (m + 1), h_step=0.25)
        with pytest.raises(ConfigError, match=r"probe\.h_step"):
            crt_preset().with_overrides(h_max=1e300, h_step=1e-300)
        assert crt_preset().with_overrides(n_views=MAX_VIEWS).n_views == MAX_VIEWS
        with pytest.raises(ConfigError, match=r"scheme\.n_views.*MAX_VIEWS"):
            crt_preset().with_overrides(n_views=MAX_VIEWS + 1)

    def test_removed_quad_order_key_is_refused_by_name(self):
        # the quadrature rule is fixed and scheme.shift sets the grid phase;
        # a config or an old report naming either removed key is refused
        # rather than silently ignored
        for line in ("recon.quad_order = 32", "scheme.alpha_origin = -1.5707963267948966"):
            key = line.partition(" ")[0]
            text = crt_preset().to_text() + line + "\n"
            with pytest.raises(ConfigError, match=r"unknown config key.*" + re.escape(key)):
                parse_config_text(text)
            echoed = "".join(f"config.{row}\n" for row in text.splitlines())
            with pytest.raises(ConfigError, match=r"unknown config key.*" + re.escape(key)):
                parse_config_text(echoed)

    def test_window_longer_than_a_full_turn_names_the_key(self):
        # SamplingScheme's bound, a full turn plus 1e-12, checked when the
        # config is built rather than when the run builds its scheme
        full = grt_preset().with_overrides(window=(0.0, 2.0 * math.pi), n_views=40)
        assert full.build_scheme().window == (0.0, 2.0 * math.pi)
        with pytest.raises(ConfigError, match=r"^scheme\.window: .*full turn"):
            grt_preset().with_overrides(
                window=(0.0, 2.0 * math.pi + 1e-6), n_views=40, epsilon=0.05, artifacts=("profile",)
            )

    def test_artifact_order_is_canonical(self):
        config = crt_preset().with_overrides(artifacts=("report", "profile"))
        assert config.artifacts == ("profile", "report")


class TestPipelineWiring:
    def test_query_range_by_family(self):
        # every grid is a stretch of the one lattice step * Z, the hull in
        # lattice units of two spans with two steps to spare a side: the
        # padded support, floor/ceil of (kinks -+ eps) / step, and the
        # rows, floor/ceil of the levels Phi_k(c) -+ rho over the disks
        # read: the probe line ((0, 2), eps * h_max = 1) and the extra
        # point, of radius 0.  Circle levels are never below 0, and the
        # extra point (0, -4) widens the hull past the probe's rows
        config = crt_preset().with_overrides(
            phantom_radius=0.5, phantom_center=(0.0, 0.25), probe_x0=(0.0, 2.0), epsilon=0.125, h_max=8.0,
            h_step=2.0, eta=2, n_views=4, artifacts=("profile",),
        )
        circle = config.with_overrides(family="circle", acquisition_radius=5.0)
        for base in (config, circle):
            family, scheme = base.build_family(), base.build_scheme()
            alphas = scheme.view_angles()[scheme.window_view_indices()]
            lo, hi = SinogramSampler(family, base.build_phantom()).support(alphas)
            support = np.floor((lo - 0.125) / 0.0625) - 2, np.ceil((hi + 0.125) / 0.0625) + 2
            for points in (None, [[3.0, 0.0]], [[0.0, -4.0]]):
                plan = plan_run(base, points)
                assert plan.step == 0.0625 and plan.offsets.dtype == plan.counts.dtype == plan.rows.dtype == np.intp
                disks = [((0.0, 2.0), 1.0)] + [(point, 0.0) for point in points or ()]
                levels = [phi_eval(family, alphas, c) + s * r for c, r in disks for s in (-1.0, 1.0)]
                low = np.min(levels, axis=0) if family.kind == "line" else np.maximum(np.min(levels, axis=0), 0.0)
                rows = np.floor(low / 0.0625) - 2, np.ceil(np.max(levels, axis=0) / 0.0625) + 2
                first = plan.offsets + plan.rows[:, 0]
                assert np.array_equal(first, rows[0]) and np.array_equal(first + plan.rows[:, 1] - 1, rows[1])
                assert np.array_equal(plan.offsets, np.minimum(support[0], rows[0]))
                assert np.array_equal(plan.offsets + plan.counts - 1, np.maximum(support[1], rows[1]))
                assert (points is None) == np.all(plan.rows[:, 1] <= 38), (base.family, points)

    def test_resolve_theta_radial_normalizes(self):
        theta = _resolve_theta(TINY_CRT, descriptors=())
        assert np.allclose(theta, np.array([5.0, 7.0]) / math.hypot(5.0, 7.0))

    def test_resolve_theta_radial_rejects_origin(self):
        config = crt_preset().with_overrides(probe_x0=(0.0, 0.0))
        with pytest.raises(ValueError, match="origin"):
            _resolve_theta(config, descriptors=())

    def test_resolve_theta_explicit(self):
        config = crt_preset().with_overrides(theta_mode="explicit", probe_theta=(0.0, 1.0))
        assert np.array_equal(_resolve_theta(config, ()), np.array([0.0, 1.0]))

    def test_resolve_theta_minus_u0(self):
        cfg = TINY_GRT
        descs = tangency_enumerate(
            cfg.build_family(), cfg.build_phantom(), np.asarray(cfg.probe_x0), cfg.build_scheme()
        )
        theta = _resolve_theta(cfg.with_overrides(theta_mode="minus-u0"), descs)
        assert np.allclose(theta, -np.asarray(descs[0].u0))

    def test_empty_window_sees_no_tangency(self):
        config = TINY_GRT.with_overrides(window=(0.01, 0.05))
        with pytest.raises(ValueError, match="tangency"):
            run_experiment(config)

    def test_probe_inside_phantom_is_config_error(self):
        # no line through a point inside the disk is tangent to its boundary
        with pytest.raises(ConfigError, match="probe.x0"):
            run_experiment(crt_preset().with_overrides(probe_x0=(1.0, 1.0)))

    @pytest.mark.parametrize(
        "config",
        [crt_preset().with_overrides(probe_x0=(1.0, 1.0)), grt_preset().with_overrides(probe_x0=(0.0, 0.0))],
        ids=["line", "circle"],
    )
    def test_probe_inside_phantom_names_the_disk_not_the_window(self, config):
        with pytest.raises(ConfigError, match=r"^probe\.x0: .*inside the phantom") as info:
            run_experiment(config.with_overrides(artifacts=("profile",)))
        assert "window" not in str(info.value)

    def test_too_fine_grid_refused_before_allocating(self):
        # eps = 1e-7 asks for about 5*10**9 fine-grid points per view
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(ConfigError, match=r"^scheme\.epsilon: .*recon\.eta"):
                run_experiment(crt_preset().with_overrides(epsilon=1e-7))
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1
        assert peak < 1_000_000

    def test_too_fine_raster_refused_before_allocating(self):
        # pixel_size = 1e-6 asks for a 2*10**7 x 2*10**7 global image
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(ConfigError, match=r"image\.pixel_size.*MAX_IMAGE_PIXELS"):
                run_experiment(TINY_CRT.with_overrides(image_pixel_size=1e-6))
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1
        assert peak < 1_000_000

    def test_raster_cap_counts_global_image_pixels(self):
        side = math.isqrt(MAX_IMAGE_PIXELS)
        at_cap = crt_preset().with_overrides(image_half_extent=side / 2.0, image_pixel_size=1.0)
        assert ImageGrid.side(at_cap.image_half_extent, at_cap.image_pixel_size) ** 2 == MAX_IMAGE_PIXELS
        with pytest.raises(ConfigError, match=r"image\.pixel_size"):
            at_cap.with_overrides(image_half_extent=(side + 1) / 2.0)
        # a pixel wider than the field of view leaves no pixel to raster
        crt_preset().with_overrides(image_half_extent=1.0, image_pixel_size=2.0)
        with pytest.raises(ConfigError, match=r"image\.pixel_size"):
            crt_preset().with_overrides(image_half_extent=1.0, image_pixel_size=4.5)
        # a side too large for a float is refused, not raised as OverflowError
        with pytest.raises(ConfigError, match=r"image\.pixel_size"):
            crt_preset().with_overrides(image_half_extent=1e308, image_pixel_size=1e-10)
        # no global image, no raster to bound
        TINY_CRT.with_overrides(artifacts=("profile", "roi-image"), image_pixel_size=1e-6)

    def test_radial_probe_at_origin_is_config_error(self):
        config = crt_preset().with_overrides(
            phantom_center=(3.0, 3.0), phantom_radius=1.0, probe_x0=(0.0, 0.0)
        )
        with pytest.raises(ConfigError, match="probe.x0"):
            run_experiment(config)

    def test_report_echo_reproduces_run_config(self, tiny_crt_result):
        assert parse_config_text(report_text(tiny_crt_result)) == TINY_CRT

    def test_report_carries_descriptors_and_metrics(self, tiny_crt_result):
        text = report_text(tiny_crt_result)
        assert "descriptor.count = 2" in text
        assert "descriptor.1.mu0 = " in text
        assert "metrics.relative_mismatch = " in text
        assert "probe.theta_resolved = " in text


    @pytest.mark.parametrize("preset", [crt_preset, grt_preset])
    def test_report_descriptor_block_is_pinned(self, preset, tiny_crt_result):
        cfg = preset()
        family, phantom, scheme = cfg.build_family(), cfg.build_phantom(), cfg.build_scheme()
        descs = tuple(tangency_enumerate(family, phantom, np.asarray(cfg.probe_x0), scheme))
        text = report_text(replace(tiny_crt_result, descriptors=descs))

        def num(x):
            return repr(float(x))

        expected = [f"descriptor.count = {len(descs)}"]
        for i, t in enumerate(descs):
            expected += [
                f"descriptor.{i}.alpha_star = {num(t.alpha_star)}",
                f"descriptor.{i}.p_star = {num(t.p_star)}",
                f"descriptor.{i}.y0 = {num(t.y0[0])},{num(t.y0[1])}",
                f"descriptor.{i}.theta0 = {num(t.theta0[0])},{num(t.theta0[1])}",
                f"descriptor.{i}.u0 = {num(t.u0[0])},{num(t.u0[1])}",
                f"descriptor.{i}.curvature_gap = {num(t.curvature_gap)}",
                f"descriptor.{i}.mu0 = {num(t.mu0)}",
                f"descriptor.{i}.k_star = {num(t.k_star)}",
                f"descriptor.{i}.amplitude = {num(t.amplitude)}",
                f"descriptor.{i}.branch = -1",
                f"descriptor.{i}.flipped = False",
            ]
        assert [line for line in text.splitlines() if line.startswith("descriptor.")] == expected


@pytest.fixture(scope="module")
def tiny_crt_result():
    return run_experiment(TINY_CRT, threads=2)


@pytest.fixture(scope="module")
def tiny_grt_result():
    return run_experiment(TINY_GRT, threads=2)


# a probe on a curve vertex: the circle of view 0 through it has radius 0
VERTEX_GRT = grt_preset().with_overrides(
    probe_x0=(5.0, 0.0), window=None, n_views=40, epsilon=0.05, artifacts=("profile",), theta_mode="radial"
)


class TestRunPlan:
    """plan_run decides a run's views, fine grids and rasters before any
    view is filtered."""

    @pytest.mark.parametrize(
        "config, points",
        [
            (crt_preset(), None),
            (grt_preset(), None),
            (TINY_GRT.with_overrides(window=(5.5, 7.0), theta_mode="radial"), None),
            (VERTEX_GRT, None),
            (TINY_CRT, [[12.0, -3.0], [0.0, 0.0]]),
        ],
        ids=["crt", "grt", "window-past-2pi", "vertex", "points"],
    )
    def test_every_grid_covers_what_the_run_reads(self, config, points):
        plan = plan_run(config, points)
        family, scheme = config.build_family(), config.build_scheme()
        assert np.array_equal(plan.views, scheme.window_view_indices())
        alphas = scheme.view_angles()[plan.views]
        first, last = plan.step * plan.offsets, plan.step * (plan.offsets + plan.counts - 1)
        lo, hi = SinogramSampler(family, config.build_phantom()).support(alphas)
        pad = scheme.epsilon * 1.0
        assert np.all(first <= lo - pad - 2.0 * plan.step) and np.all(hi + pad + 2.0 * plan.step <= last)
        # the probe line in two directions, the corners of each raster's
        # field of view and the extra points, with two steps to spare
        x0, h = np.asarray(config.probe_x0), config.h_samples()
        reads = [probe_points(x0, theta, h, scheme.epsilon) for theta in ((1.0, 0.0), (0.0, 1.0))]
        for center, half_extent, _ in plan.rasters.values():
            reads.append(np.asarray(center) + half_extent * np.array([[-1, -1], [-1, 1], [1, -1], [1, 1]]))
        assert len(plan.rasters) == sum("image" in artifact for artifact in config.artifacts)
        reads.append(np.zeros((0, 2)) if points is None else np.array(points))
        q = phi_eval(family, alphas[:, None], np.vstack(reads))
        assert np.all(first[:, None] + 2.0 * plan.step <= q) and np.all(q <= last[:, None] - 2.0 * plan.step)

    @pytest.mark.parametrize(
        "config, points",
        [
            *(
                (base.with_overrides(artifacts=("profile", *images)), None)
                for base in (crt_preset().with_overrides(n_views=12), grt_preset().with_overrides(n_views=48))
                for images in ((), ("roi-image",), ("global-image",), ("roi-image", "global-image"))
            ),
            (TINY_CRT.with_overrides(artifacts=("profile",)), [[12.0, -3.0], [0.0, 0.0]]),
            (TINY_GRT.with_overrides(artifacts=("profile", "roi-image")), [[0.5, -1.5], [2.0, 2.0], [-1.0, 0.3]]),
            (VERTEX_GRT, None),
        ],
        ids=[
            *(f"{b}-{a}" for b in ("crt", "grt") for a in ("profile", "roi", "global", "all")),
            "crt-points", "grt-points", "vertex",
        ],
    )
    def test_rows_cover_every_read(self, config, points, monkeypatch):
        # every Phi(alpha_k, x) a run reads lies at least two steps inside
        # view k's rows, so the Catmull-Rom cell is never clipped, and the
        # rows are rows of the view's grid
        plan = plan_run(config, points)
        first, size = plan.rows.T
        assert np.all(first >= 0) and np.all(size >= 5) and np.all(first + size <= plan.counts)
        scheme = config.build_scheme()
        index = {scheme.alpha_origin + scheme.delta_alpha * (k + scheme.shift): i for i, k in enumerate(plan.views)}
        reads, interpolate = {}, reconstruction._interpolate

        def spy(view, q):
            i = index[view.alpha]
            assert view.start == plan.step * (plan.offsets[i] + first[i]) and view.n == size[i]
            pos = (q - view.start) / view.step
            low, high = reads.get(i, (math.inf, -math.inf))
            reads[i] = (min(low, pos.min()), max(high, pos.max()))
            return interpolate(view, q)

        monkeypatch.setattr(reconstruction, "_interpolate", spy)
        run_experiment(config, threads=2, points=points)
        assert sorted(reads) == list(range(plan.views.size))
        low, high = np.array([reads[i] for i in range(plan.views.size)]).T
        assert np.all(low >= 2.0 - 1e-9) and np.all(high <= size - 3.0 + 1e-9)

    def test_grid_pads_the_support(self):
        # a phantom wider than the probe's rows (|q| <= 0.22 in view 0,
        # alpha = -pi/2): view 0's grid is its support padded by
        # eps * half_width = eps, in lattice units rounded outward, and
        # two steps a side
        config = crt_preset().with_overrides(
            phantom_center=(3.0, 0.0), phantom_radius=3.0, probe_x0=(-0.5, 0.0), artifacts=("profile",)
        )
        plan = plan_run(config)
        alpha = config.build_scheme().view_angles()[0]
        slo, shi = SinogramSampler(config.build_family(), config.build_phantom()).support(alpha)
        assert plan.views[0] == 0 and plan.step * (plan.offsets[0] + plan.rows[0, 0]) > slo
        assert plan.offsets[0] == math.floor((slo - 0.02) / plan.step) - 2
        assert plan.offsets[0] + plan.counts[0] - 1 == math.ceil((shi + 0.02) / plan.step) + 2

    @pytest.mark.parametrize(
        "config",
        [
            crt_preset().with_overrides(
                phantom_center=(3.0, 0.0), phantom_radius=3.0, probe_x0=(-0.5, 0.0), artifacts=("profile",)
            ),
            grt_preset().with_overrides(probe_x0=(-0.8, 0.0), window=None, theta_mode="radial", artifacts=("profile",)),
        ],
        ids=["line", "circle"],
    )
    def test_support_bounded_grids_end_in_zeros(self, config):
        # grids that some views' supports bound, padded by eps * half_width
        # and two steps: every view's g is 0 at both grid ends, or its
        # filter would refuse it, and the run ends with a finite profile
        plan = plan_run(config)
        alphas = config.build_scheme().view_angles()[plan.views]
        lo, _ = SinogramSampler(config.build_family(), config.build_phantom()).support(alphas)
        assert np.any(plan.offsets == np.floor((lo - config.epsilon) / plan.step) - 2)
        result = run_experiment(config, threads=2)
        assert np.all(np.isfinite(result.profile.recon_scaled))

    @pytest.mark.parametrize(
        "config",
        [crt_preset(), grt_preset(), crt_preset().with_overrides(epsilon=0.01, n_views=400, eta=32)],
        ids=["crt", "grt", "fine-crt"],
    )
    def test_support_of_all_views_is_each_views_support(self, config):
        # the plan forms every view's support in one array; the forward
        # model forms it view by view, and the grids need the same bits
        scheme = config.build_scheme()
        data = SemiDiscreteData(scheme, SinogramSampler(config.build_family(), config.build_phantom()))
        views = scheme.window_view_indices()
        together = np.column_stack(data.sampler.support(scheme.view_angles()[views]))
        apart = np.array([data.sampler.support(data.view_angle(k)) for k in views])
        assert together.tobytes() == apart.tobytes()

    def test_a_grid_only_the_points_make_too_long_names_points(self):
        with pytest.raises(ConfigError, match=r"^points: a view needs .* fine-grid points") as info:
            plan_run(crt_preset(), [[1e300, 0.0]])
        assert not re.search(r"\d{10}", str(info.value))
        # with a config whose own grids are too long, the config is at fault
        with pytest.raises(ConfigError, match=r"^scheme\.epsilon: "):
            plan_run(crt_preset().with_overrides(epsilon=1e-6), [[1e300, 0.0]])

    @pytest.mark.parametrize(
        "config, key",
        [
            (crt_preset().with_overrides(probe_x0=(1e4, 1.0), artifacts=("profile",)), "probe.x0"),
            (
                crt_preset().with_overrides(
                    image_half_extent=1e4, image_pixel_size=100.0, artifacts=("profile", "global-image")
                ),
                "image.half_extent",
            ),
            (grt_preset().with_overrides(probe_x0=(3e4, 1.0), artifacts=("profile",)), "probe.x0"),
        ],
        ids=["line-probe", "line-global-image", "circle-probe"],
    )
    def test_a_grid_only_a_far_read_makes_too_long_names_its_key(self, config, key):
        # the preset's epsilon plans its supports well; the reach of the
        # probe or of the global raster made the grid long
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: a view needs .* fine-grid points") as info:
            plan_run(config)
        assert not re.search(r"\d{10}", str(info.value))

    def test_a_scene_far_from_the_origin_plans_its_own_lattice_stretch(self):
        # no grid has to reach the origin: a scene 3000 out plans grids of
        # its support alone and runs; one whose lattice indices would pass
        # 2**53, where step * n is no longer exact, is refused by key
        # without a warning
        near = crt_preset().with_overrides(
            phantom_center=(3000.0, 0.0), probe_x0=(3000.0, 7.0), n_views=20, artifacts=("profile",)
        )
        assert plan_run(near).counts.max() < 10_000
        assert np.all(np.isfinite(run_experiment(near).profile.recon_scaled))
        far = near.with_overrides(phantom_center=(3e16, 0.0), probe_x0=(3e16, 7.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=r"^probe\.x0: a grid lies over 2\*\*53 steps"):
                plan_run(far)

    @pytest.mark.parametrize("point", [[1e308, 1e308], [-1e308, 1e308], [1.7e308, 1.7e308]])
    def test_points_near_the_float_limit_are_refused_without_a_warning(self, point):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=r"^points: a view needs inf fine-grid points"):
                plan_run(crt_preset(), [point])

    @pytest.mark.parametrize("base", [crt_preset(), grt_preset().with_overrides(window=None)], ids=["line", "circle"])
    def test_plan_of_the_most_views_is_small(self, base):
        config = base.with_overrides(n_views=MAX_VIEWS, artifacts=("profile",))
        tracemalloc.start()
        try:
            start = time.perf_counter()
            plan = plan_run(config)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert plan.views.size == plan.counts.size == MAX_VIEWS
        assert elapsed < 1.0
        assert peak < 100_000_000


class TestArtifacts:
    def test_writes_all_four(self, tiny_crt_result, tmp_path):
        written = write_artifacts(tiny_crt_result, tmp_path)
        assert set(written) == {"profile", "report", "roi-image", "global-image"}
        for path in written.values():
            assert os.path.getsize(path) > 0

    def test_profile_csv_round_trip(self, tiny_crt_result, tmp_path):
        path = tmp_path / "profile.csv"
        write_profile_csv(path, tiny_crt_result.profile)
        with open(path, encoding="utf-8") as f:
            assert f.readline().rstrip("\n") == PROFILE_HEADER
        h, recon_scaled, predicted = np.loadtxt(path, delimiter=",", skiprows=1).T
        assert np.array_equal(h, tiny_crt_result.profile.h)
        assert np.array_equal(recon_scaled, tiny_crt_result.profile.recon_scaled)
        assert np.array_equal(predicted, tiny_crt_result.profile.predicted)

    def test_profile_csv_needs_prediction(self, tmp_path):
        profile = AliasProfile((1.0, 0.0), np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError, match="prediction"):
            write_profile_csv(tmp_path / "p.csv", profile)

    def test_pgm16_layout(self, tmp_path):
        values = np.array([[0.0, 1.0], [2.0, 4.0]])
        image = ImageGrid((0.0, 0.0), 0.5, 2, 2, values)
        path = tmp_path / "img.pgm"
        write_pgm16(path, image)
        blob = path.read_bytes()
        header = b"P5\n2 2\n65535\n"
        assert blob.startswith(header)
        pixels = np.frombuffer(blob[len(header):], dtype=">u2").reshape(2, 2)
        expected = np.round((values - 0.0) / 4.0 * 65535.0).astype(np.uint16)
        assert np.array_equal(pixels.astype(np.uint16), expected)
        sidecar = (tmp_path / "img.pgm.txt").read_text(encoding="utf-8")
        assert "pixel_size = 0.5" in sidecar
        assert "value_max = 4.0" in sidecar

    @pytest.mark.parametrize("kind", ["random", "flat"])
    def test_pgm16_pixels_match_the_one_line_scaling(self, kind, tmp_path):
        rng = np.random.default_rng(5)
        # 150 rows: written in blocks of 64, the last one partial
        values = rng.normal(size=(150, 37)) * 1e-3 if kind == "random" else np.full((150, 37), -0.75)
        path = tmp_path / "img.pgm"
        write_pgm16(path, ImageGrid((0.0, 0.0), 0.5, 37, 150, values))
        vmin, vmax = float(values.min()), float(values.max())
        if vmax > vmin:
            scaled = np.round((values - vmin) / (vmax - vmin) * 65535.0)
        else:
            scaled = np.zeros_like(values)
        assert path.read_bytes() == b"P5\n37 150\n65535\n" + scaled.astype(">u2").tobytes()

    def test_pgm16_flat_image_is_black(self, tmp_path):
        image = ImageGrid((0.0, 0.0), 1.0, 2, 2, np.full((2, 2), 3.25))
        path = tmp_path / "flat.pgm"
        write_pgm16(path, image)
        blob = path.read_bytes()
        pixels = np.frombuffer(blob[len(b"P5\n2 2\n65535\n"):], dtype=">u2")
        assert np.all(pixels == 0)

    def test_roi_is_forty_epsilon_square(self, tiny_grt_result):
        roi = tiny_grt_result.roi_image
        # 40 eps square sampled at eps/4 is 160 x 160 for every eps
        assert roi.width == roi.height == 160
        assert roi.pixel_size == pytest.approx(TINY_GRT.epsilon / 4.0)


class TestCli:
    def test_psi_table_defaults(self, tmp_path, capsys):
        rc = main(["psi-table", "--out", str(tmp_path), "--samples", "5"])
        assert rc == 0
        lines = (tmp_path / "psi_table.csv").read_text().splitlines()
        assert lines[0] == "h_prime,a,psi_value"
        body = [line.split(",") for line in lines[1:]]
        assert len(body) == 15  # three a values, five h' samples
        assert sorted({row[1] for row in body}) == ["1.0", "2.0", "4.0"]
        # h' = 0 rows are identically zero
        assert all(float(row[2]) == 0.0 for row in body if float(row[0]) == 0.0)

    def test_psi_table_zero_rate_column(self, tmp_path):
        rc = main(["psi-table", "--a", "0", "--out", str(tmp_path), "--samples", "7"])
        assert rc == 0
        lines = (tmp_path / "psi_table.csv").read_text().splitlines()[1:]
        assert all(float(line.split(",")[2]) == 0.0 for line in lines)

    def test_psi_table_huge_rate(self, tmp_path):
        with np.errstate(over="raise"):
            rc = main(["psi-table", "--a", "1e300", "--out", str(tmp_path), "--samples", "5"])
        assert rc == 0
        lines = (tmp_path / "psi_table.csv").read_text().splitlines()[1:]
        values = [float(line.split(",")[2]) for line in lines]
        assert len(values) == 5 and all(math.isfinite(v) for v in values) and any(v != 0.0 for v in values)

    def test_psi_table_refuses_a_rate_too_large_to_sum(self, tmp_path, capsys):
        rc = main(["psi-table", "--a", "1e308", "--out", str(tmp_path), "--samples", "3"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: big_psi: |a| = 1e+308 is too large")
        assert not (tmp_path / "psi_table.csv").exists()

    def test_psi_table_refuses_a_rate_too_small_to_sum(self, tmp_path, capsys):
        rc = main(["psi-table", "--a", "1e-320", "--out", str(tmp_path), "--samples", "3"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "|a| = " in err

    def test_psi_table_refuses_too_many_samples_before_allocating(self, tmp_path, capsys):
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            rc = main(["psi-table", "--samples", str(10**12), "--out", str(tmp_path)])
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2 and elapsed < 0.1 and peak < 2**20
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--samples" in err
        assert not (tmp_path / "psi_table.csv").exists()

    @pytest.mark.parametrize(
        "flag, value", [("--samples", "-1"), ("--samples", "0"), ("--a", "nan"), ("--a", "-inf"), ("--r", "inf")]
    )
    def test_psi_table_names_a_bad_flag(self, tmp_path, capsys, flag, value):
        rc = main(["psi-table", f"{flag}={value}", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {flag}:")
        assert not (tmp_path / "psi_table.csv").exists()

    def test_crt_demo_runs_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(TINY_CRT.to_text(), encoding="utf-8")
        out_dir = tmp_path / "out"
        rc = main(["crt-demo", "--config", str(cfg_path), "--out", str(out_dir), "--threads", "2"])
        assert rc == 0
        for name in ("profile.csv", "report.txt", "roi.pgm", "global.pgm"):
            assert (out_dir / name).exists()
        report = (out_dir / "report.txt").read_text(encoding="utf-8")
        assert parse_config_text(report) == TINY_CRT
        assert "wrote" in capsys.readouterr().out

    def test_eta_override_lands_in_report(self, tmp_path):
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(
            TINY_CRT.with_overrides(artifacts=("profile", "report")).to_text(), encoding="utf-8"
        )
        out_dir = tmp_path / "out"
        rc = main(["crt-demo", "--config", str(cfg_path), "--out", str(out_dir), "--eta", "10"])
        assert rc == 0
        echoed = parse_config_text((out_dir / "report.txt").read_text(encoding="utf-8"))
        assert echoed.eta == 10

    def test_demo_rejects_other_family(self, tmp_path, capsys):
        cfg_path = tmp_path / "grt.cfg"
        cfg_path.write_text(TINY_GRT.to_text(), encoding="utf-8")
        rc = main(["crt-demo", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "family" in capsys.readouterr().err

    def test_malformed_window_is_config_error(self, tmp_path, capsys):
        broken = TINY_GRT.to_text().replace("scheme.window = ", "scheme.window = 2.0,")
        cfg_path = tmp_path / "broken.cfg"
        cfg_path.write_text(broken, encoding="utf-8")
        rc = main(["grt-demo", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "window" in capsys.readouterr().err

    def test_window_longer_than_a_full_turn_exits_with_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "turn.cfg"
        cfg_path.write_text(with_line(TINY_GRT.to_text(), "scheme.window", "0.0,6.2831863"), encoding="utf-8")
        rc = main(["grt-demo", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: scheme.window")
        assert not (tmp_path / "o").exists()

    def test_non_finite_config_number_is_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "inf.cfg"
        cfg_path.write_text(with_line(TINY_CRT.to_text(), "phantom.center", "inf,0.0"), encoding="utf-8")
        rc = main(["crt-demo", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "phantom.center" in capsys.readouterr().err

    def test_probe_without_tangency_is_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "inside.cfg"
        cfg_path.write_text(with_line(TINY_CRT.to_text(), "probe.x0", "1.0,1.0"), encoding="utf-8")
        rc = main(["crt-demo", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "probe.x0" in capsys.readouterr().err

    def test_probe_on_the_boundary_is_config_error(self, tmp_path, capsys, monkeypatch):
        # (3, 4) lies at exactly the phantom radius 5 from its centre; the
        # run is refused by key before any view is filtered
        def no_filter(*args, **kwargs):
            raise AssertionError("a view was filtered for a refused probe")

        monkeypatch.setattr(pipeline, "filter_view", no_filter)
        config = TINY_CRT.with_overrides(probe_x0=(3.0, 4.0))
        with pytest.raises(ConfigError, match=r"^probe\.x0: .*boundary"):
            run_experiment(config)
        cfg_path = tmp_path / "boundary.cfg"
        cfg_path.write_text(config.to_text(), encoding="utf-8")
        assert main(["crt-demo", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: probe.x0")

    def test_probe_a_hair_outside_the_disk_is_config_error(self, tmp_path, capsys, monkeypatch):
        # one ulp outside the phantom's boundary the tangency's sweep rate
        # puts kappa * mu0 below big_psi's floor: the prediction, which
        # reads no view, refuses the probe by key before any view is filtered
        def no_filter(*args, **kwargs):
            raise AssertionError("a view was filtered for a refused probe")

        monkeypatch.setattr(pipeline, "filter_view", no_filter)
        config = crt_preset().with_overrides(probe_x0=(5.000000000000001, 0.0), artifacts=("profile",))
        with pytest.raises(ConfigError, match=r"^probe\.x0: big_psi: \|a\| = .* too small"):
            run_experiment(config)
        cfg_path = tmp_path / "hair.cfg"
        cfg_path.write_text(config.to_text(), encoding="utf-8")
        assert main(["crt-demo", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: probe.x0: big_psi")
        assert not (tmp_path / "o").exists()

    def test_too_fine_grid_exits_with_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "fine.cfg"
        cfg_path.write_text(crt_preset().with_overrides(epsilon=1e-7).to_text(), encoding="utf-8")
        rc = main(["crt-demo", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: scheme.epsilon") and "recon.eta" in err
        assert not (tmp_path / "o").exists()

    def test_too_fine_raster_exits_with_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "fine.cfg"
        cfg_path.write_text(with_line(TINY_CRT.to_text(), "image.pixel_size", "1e-6"), encoding="utf-8")
        rc = main(["crt-demo", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "image.pixel_size" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value", [("probe.h_step", "1e-9"), ("scheme.n_views", "1e12")])
    def test_huge_count_exits_with_error(self, tmp_path, capsys, key, value):
        cfg_path = tmp_path / "huge.cfg"
        cfg_path.write_text(with_line(TINY_CRT.to_text(), key, value), encoding="utf-8")
        rc = main(["crt-demo", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert not (tmp_path / "o").exists()

    def test_out_dir_precedence(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "env"
        cli_dir = tmp_path / "cli"
        monkeypatch.setenv("ALIASLAB_OUT", str(env_dir))
        rc = main(["psi-table", "--samples", "3"])
        assert rc == 0 and (env_dir / "psi_table.csv").exists()
        rc = main(["psi-table", "--samples", "3", "--out", str(cli_dir)])
        assert rc == 0 and (cli_dir / "psi_table.csv").exists()

    def test_verify_single_cheap_suite(self, tmp_path, capsys):
        rc = main(["verify", "psi-asymptotics", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "criterion  3 psi-asymptotics    PASS" in out
        report = (tmp_path / "verify_report.txt").read_text(encoding="utf-8")
        assert "overall: PASS" in report

    def test_verify_unknown_suite_is_config_error(self, tmp_path, capsys):
        rc = main(["verify", "everything", "--out", str(tmp_path)])
        assert rc == 2
        assert "unknown suite" in capsys.readouterr().err

    @pytest.mark.parametrize("epsilon", [0.9, 3.0])
    def test_mollifier_wider_than_the_near_tangent_level_runs(self, tmp_path, epsilon):
        # a kinked window reaching below rho = 0 is sampled only between
        # the kinks, where the circle sinogram is defined
        config = grt_preset().with_overrides(epsilon=epsilon, n_views=40, artifacts=("profile",))
        assert np.all(np.isfinite(run_experiment(config).profile.recon_scaled))
        cfg_path = tmp_path / "wide.cfg"
        cfg_path.write_text(config.to_text(), encoding="utf-8")
        assert main(["grt-demo", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("threads", [0, -2, pipeline.MAX_THREADS + 1])
    def test_threads_out_of_range_are_refused_before_a_pool(self, tmp_path, capsys, monkeypatch, threads):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was built for a refused thread count")

        monkeypatch.setattr(pipeline, "ThreadPoolExecutor", no_pool)
        with pytest.raises(ValueError, match="MAX_THREADS"):
            run_experiment(TINY_CRT, threads=threads)
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(TINY_CRT.to_text(), encoding="utf-8")
        for argv in (["crt-demo", "--config", str(cfg_path)], ["verify", "psi-asymptotics"]):
            assert main([*argv, "--threads", str(threads), "--out", str(tmp_path / "o")]) == 2
            assert capsys.readouterr().err.startswith("error: --threads")
        assert not (tmp_path / "o").exists()


CONFIG_KEYS = {f.metadata["key"] for f in fields(ExperimentConfig)}


@st.composite
def small_configs(draw):
    """Keyword arguments over all config keys for profile-only runs of at
    most 40 views and epsilon >= 0.005.  Most draws are in range; the
    geometry (probe, phantom, acquisition circle, window) is drawn freely."""
    family = draw(st.sampled_from(["line", "circle"]))
    center = draw(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)))
    radius = draw(st.floats(0.1, 3.0))
    # the acquisition circle clears the phantom for a positive gap
    gap = draw(st.floats(-0.2, 5.0))
    theta_mode = draw(st.sampled_from(["radial", "minus-u0", "explicit"]))
    turn, theta_norm = draw(st.floats(0.0, 2.0 * math.pi)), draw(st.sampled_from([1.0] * 5 + [0.5]))
    lo, span = draw(st.floats(-4.0, 4.0)), draw(st.floats(0.01, 2.0 * math.pi))
    h_step = draw(st.floats(0.05, 1.0))
    return dict(
        family=family,
        phantom_center=center,
        phantom_radius=radius,
        phantom_jump=draw(st.floats(-2.0, 2.0)),
        acquisition_radius=(
            math.hypot(*center) + radius + gap if family == "circle" else draw(st.sampled_from([None] * 5 + [5.0]))
        ),
        epsilon=draw(st.floats(0.005, 0.5)),
        n_views=draw(st.integers(2, 40)),
        shift=draw(st.floats(-2.0, 2.0)),
        window=(lo, lo + span) if draw(st.integers(0, 2)) == 0 else None,
        probe_x0=draw(st.tuples(st.floats(-8.0, 8.0), st.floats(-8.0, 8.0))),
        theta_mode=theta_mode,
        probe_theta=(theta_norm * math.cos(turn), theta_norm * math.sin(turn)) if theta_mode == "explicit" else None,
        h_max=h_step * draw(st.integers(1, 12)),
        h_step=h_step,
        eta=draw(st.integers(2, 8)),
        artifacts=("profile",),
        image_half_extent=draw(st.none() | st.floats(0.1, 12.0)),
        image_pixel_size=draw(st.none() | st.floats(0.001, 0.05)),
        out_dir=draw(st.none() | st.just("out")),
    )


CRT_ON_THE_BOUNDARY = dict(
    family="line", phantom_center=(0.0, 0.0), phantom_radius=5.0, epsilon=0.05, n_views=40,
    probe_x0=(3.0, 4.0), h_max=2.0, h_step=0.5, eta=4, artifacts=("profile",),
)


ON_A_VERTEX = {f.name: getattr(VERTEX_GRT, f.name) for f in fields(ExperimentConfig)}


def assert_names_a_key(message: str) -> None:
    assert message.partition(":")[0] in CONFIG_KEYS, message


class TestConfigSpace:
    """Every config either runs or is refused by a ConfigError that starts
    with the key at fault."""

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @example(CRT_ON_THE_BOUNDARY)
    @example(ON_A_VERTEX)
    @given(small_configs())
    def test_a_config_runs_or_names_its_key(self, kwargs):
        try:
            run_experiment(ExperimentConfig(**kwargs))
        except ConfigError as exc:
            assert_names_a_key(str(exc))

    @settings(max_examples=20, derandomize=True, deadline=None, database=None)
    @example(CRT_ON_THE_BOUNDARY)
    @given(small_configs())
    def test_a_config_file_runs_or_names_its_key(self, kwargs):
        text = "".join(
            f"{f.metadata['key']} = {','.join(map(str, value)) if isinstance(value, tuple) else value}\n"
            for f in fields(ExperimentConfig)
            if (value := kwargs.get(f.name)) is not None
        )
        command = "crt-demo" if kwargs["family"] == "line" else "grt-demo"
        stdout, stderr = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "drawn.cfg")
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = main([command, "--config", path, "--out", os.path.join(tmp, "o")])
        # an exception main does not turn into an error line propagates here
        assert rc in (0, 2)
        if rc == 2:
            assert stderr.getvalue().startswith("error: ")
            assert_names_a_key(stderr.getvalue().removeprefix("error: "))


class TestLayering:
    @staticmethod
    def _imports(code: str) -> str:
        src = os.path.dirname(os.path.dirname(aliaslab.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        return out.stdout.strip()

    def test_acceptance_does_not_import_the_cli(self):
        # the registry is library code; the CLI sits on top of it
        assert self._imports("import sys, aliaslab.acceptance; print('aliaslab.cli' in sys.modules)") == "False"

    def test_run_path_does_not_import_scipy(self):
        # numpy alone imports in a fraction of scipy's time; a run loads no
        # mpmath either, which only the two verification oracles import, and
        # the psi-properties registry loads no scipy
        code = (
            "import sys, aliaslab.pipeline, aliaslab.cli, aliaslab.acceptance\n"
            "from aliaslab.experiment_config import crt_preset\n"
            "from aliaslab.special_functions import big_psi\n"
            "config = crt_preset().with_overrides(epsilon=0.06, n_views=64, h_max=3.0, h_step=0.5, eta=8, "
            "artifacts=('profile',))\n"
            "aliaslab.pipeline.run_experiment(config)\n"
            "big_psi(0.1, 0.5, 1.0 / 3.0)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')))\n"
            "results = aliaslab.acceptance.run_criteria(aliaslab.acceptance.select('psi-properties'))\n"
            "assert all(r.passed for r in results)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        run_path, registry = self._imports(code).splitlines()
        assert run_path == "[]"
        assert registry == "[]"

    def test_only_geometry_keeps_thread_local_state(self):
        # the view path keeps its per-thread arrays in one place,
        # geometry.work_array
        src = os.path.dirname(aliaslab.__file__)
        holders = []
        for name in sorted(os.listdir(src)):
            if name.endswith(".py"):
                with open(os.path.join(src, name), encoding="utf-8") as f:
                    if "threading.local(" in f.read():
                        holders.append(name)
        assert holders == ["geometry.py"]

    def test_library_does_not_import_scipy_signal(self):
        # scipy.signal costs about a second of import time
        code = "import sys, aliaslab.pipeline, aliaslab.acceptance, aliaslab.cli; print('scipy.signal' in sys.modules)"
        assert self._imports(code) == "False"


class TestPublicSurface:
    # names that only tests called; each has a public replacement
    REMOVED = (
        "view_values_at", "scaled_difference_profile", "pixel_centers", "predict_at", "read_profile_csv",
        "resolve_theta", "query_range", "filtered_views", "tangent_p",
        "CatmullRomTable", "catmull_rom_table", "view_term",
    )

    def test_every_listed_name_resolves_once(self):
        modules = [importlib.import_module(f"aliaslab.{info.name}") for info in pkgutil.iter_modules(aliaslab.__path__)]
        assert len(modules) == 10
        for module in modules:
            names = module.__all__
            assert len(set(names)) == len(names), module.__name__
            assert all(hasattr(module, name) for name in names), module.__name__
            for name in self.REMOVED:
                assert not hasattr(module, name), (module.__name__, name)
        # and each public name is listed by one module alone
        listed = [name for module in modules for name in module.__all__]
        assert len(set(listed)) == len(listed), sorted(name for name in set(listed) if listed.count(name) > 1)
        assert not hasattr(ImageGrid, "pixel_centers")


class TestScripts:
    """``aliaslab sweep``, the joint (epsilon, n_views) refinement sweep."""

    def test_sweep_refinement_smoke(self, tmp_path, capsys):
        args = ["--levels", "2", "--base-epsilon", "0.2", "--base-views", "20", "--threads", "1"]
        rc = main(["sweep", *args, "--out", str(tmp_path)])
        out = capsys.readouterr()
        assert rc == 0, out.err
        assert len([line for line in out.out.splitlines() if "contraction" in line]) == 1
        text = (tmp_path / "sweep.csv").read_bytes().decode("utf-8")
        rows = text.splitlines()
        assert rows[0] == "level,epsilon,n_views,sup_mismatch,peak_to_peak,relative_mismatch,seconds"
        assert len(rows) == 3
        assert text.endswith("\n") and "\r" not in text

    def test_sweep_refinement_default_threads_are_capped(self, monkeypatch):
        # only the parsed default is checked: no pool is started
        monkeypatch.setattr(os, "cpu_count", lambda: 256)
        assert _build_parser().parse_args(["sweep"]).threads == pipeline.MAX_THREADS
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _build_parser().parse_args(["sweep"]).threads == 1

    def test_sweep_refinement_refuses_a_level_over_a_cap_before_any_run(self, tmp_path, capsys):
        # level 14 of 40 asks for 66 * 2**14 views, more than MAX_VIEWS
        start = time.perf_counter()
        rc = main(["sweep", "--levels", "40", "--out", str(tmp_path)])
        assert time.perf_counter() - start < 5.0
        out = capsys.readouterr()
        assert rc == 2
        assert out.err.startswith("error: scheme.n_views") and "Traceback" not in out.err
        assert out.out == "" and not (tmp_path / "sweep.csv").exists()

    def test_sweep_refinement_plans_every_level_before_any_run(self, tmp_path, capsys, monkeypatch):
        # level 11 of 12 needs 7,428,880 fine-grid points per view, more
        # than pipeline._MAX_GRID; a level admitted by mistake fails at
        # once instead of running
        def no_run(*args, **kwargs):
            raise AssertionError("a level ran before every level was planned")

        monkeypatch.setattr(cli, "run_experiment", no_run)
        start = time.perf_counter()
        rc = main(["sweep", "--levels", "12", "--out", str(tmp_path)])
        assert time.perf_counter() - start < 5.0
        out = capsys.readouterr()
        assert rc == 2
        assert out.err.startswith("error: scheme.epsilon") and "Traceback" not in out.err
        assert out.out == "" and not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("levels", ["0", "-1"])
    def test_sweep_refuses_no_levels_by_name(self, tmp_path, capsys, levels):
        rc = main(["sweep", "--levels", levels, "--out", str(tmp_path)])
        out = capsys.readouterr()
        assert rc == 2 and out.err.startswith("error: --levels")
        assert out.out == "" and not (tmp_path / "sweep.csv").exists()

    def test_sweep_writes_to_the_environment_out_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ALIASLAB_OUT", str(tmp_path))
        rc = main(["sweep", "--levels", "1", "--base-epsilon", "0.2", "--base-views", "20", "--threads", "1"])
        assert rc == 0 and capsys.readouterr().out.endswith(f"wrote {tmp_path / 'sweep.csv'}\n")
        assert len((tmp_path / "sweep.csv").read_text(encoding="utf-8").splitlines()) == 2


class TestDeterminism:
    def test_profile_csv_bitwise_stable_across_threads(self, tmp_path):
        config = TINY_CRT.with_overrides(artifacts=("profile", "report"))
        payloads = []
        for threads in (1, 3):
            out = tmp_path / f"t{threads}"
            write_artifacts(run_experiment(config, threads=threads), out)
            payloads.append((out / "profile.csv").read_bytes())
        assert payloads[0] == payloads[1]


def filtered_views(config, points=None) -> tuple[tuple[FilteredView, ...], tuple[np.ndarray, ...]]:
    """Every view of a run of ``config``, filtered on the rows of its grid
    that the plan reads, and each view's filtered values on those rows,
    from g sampled on the whole grid."""
    plan, family, phantom = plan_run(config, points), config.build_family(), config.build_phantom()
    data = SemiDiscreteData(config.build_scheme(), SinogramSampler(family, phantom))
    views, values = [], []
    for k, offset, count, rows in zip(plan.views, plan.offsets, plan.counts, plan.rows):
        views.append(filter_view(data, k, offset, plan.step, count, rows))
        grid = plan.step * np.arange(offset, offset + count, dtype=float)
        values.append(pv_filter_uniform(data.data_smooth_deriv(k, grid), *rows))
    return tuple(views), tuple(values)


def _live_views() -> set[int]:
    gc.collect()
    return {id(obj) for obj in gc.get_objects() if isinstance(obj, FilteredView)}


class TestStreamedProfile:
    """Runs build the profile from each view's term at the probe points,
    summed in view order, and keep views only for their rasters."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("base", [TINY_CRT, TINY_GRT], ids=["line", "circle"])
    def test_streamed_profile_matches_held_views_bitwise(self, base, threads):
        config = base.with_overrides(artifacts=("profile", "report"))
        result = run_experiment(config, threads=threads)
        views, _ = filtered_views(config)
        family, scheme = config.build_family(), config.build_scheme()
        x0, h = np.asarray(config.probe_x0), config.h_samples()
        sums = backproject(views, probe_points(x0, result.theta, h, scheme.epsilon), family, scheme)
        held = difference_profile(sums, scheme.epsilon, result.theta, h)
        assert result.profile.recon_scaled.tobytes() == held.recon_scaled.tobytes()
        # the arithmetic of two backproject calls, x0 alone and the offsets
        theta = np.asarray(result.theta)
        points = x0[None, :] + scheme.epsilon * h[:, None] * theta[None, :]
        base_value = backproject(views, x0, family, scheme)
        expected = (backproject(views, points, family, scheme) - base_value) / math.sqrt(scheme.epsilon)
        assert result.profile.recon_scaled.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("base", [TINY_CRT, TINY_GRT], ids=["line", "circle"])
    def test_point_values_match_held_views_bitwise(self, base):
        # points whose bounding disk lies well inside the probe's disk
        # (x0, eps * h_max) leave the grids and every view's rows, and so
        # the profile, as they are
        config = base.with_overrides(artifacts=("profile",))
        points = np.asarray(config.probe_x0) + np.array([[0.05, -0.04], [-0.06, 0.02], [0.0, 0.07]])
        assert 0.1 < config.epsilon * config.h_max
        plan, alone = plan_run(config, points), plan_run(config)
        assert plan.rows.tobytes() == alone.rows.tobytes() and plan.counts.tobytes() == alone.counts.tobytes()
        result = run_experiment(config, threads=2, points=points)
        views, _ = filtered_views(config, points)
        expected = backproject(views, points, config.build_family(), config.build_scheme())
        assert result.point_values.tobytes() == expected.tobytes()
        assert result.profile.recon_scaled.tobytes() == run_experiment(config).profile.recon_scaled.tobytes()
        assert run_experiment(config).point_values.shape == (0,)
        with pytest.raises(ValueError, match="points"):
            run_experiment(config, points=[[0.0, np.nan]])

    def test_profile_only_and_raster_runs_write_the_same_profile(self, tmp_path):
        # every view's grid lies on the one lattice step * Z, so the images
        # change only the rows a view is filtered on, and with them the
        # filter's FFT length: on both presets and the fine CRT level (with
        # fewer views, and coarse global images, whose pixel size moves no
        # row), runs that read the same rows write the same profile.csv,
        # and any two runs' profiles agree to round-off
        bases = (
            crt_preset().with_overrides(n_views=12, image_pixel_size=0.5),
            grt_preset().with_overrides(n_views=48, image_pixel_size=0.2),
            crt_preset().with_overrides(epsilon=0.01, n_views=16, eta=32, image_pixel_size=0.5),
        )
        sets = [("profile",), ("roi-image",), ("profile", "roi-image"), ("profile", "global-image")]
        sets.append(("profile", "report", "roi-image", "global-image"))
        for i, base in enumerate(bases):
            runs = []
            for artifacts in sets:
                config = base.with_overrides(artifacts=artifacts)
                result = run_experiment(config, threads=2)
                out = tmp_path / f"{i}-{'-'.join(artifacts)}"
                write_artifacts(result, out)
                csv = (out / "profile.csv").read_bytes() if "profile" in artifacts else None
                runs.append((plan_run(config).rows.tobytes(), csv, result.profile.recon_scaled))
            rows, csv, want = runs[0]
            assert runs[1][0] == runs[2][0] and runs[1][2].tobytes() == runs[2][2].tobytes(), base.family
            assert runs[3][0] != rows, base.family
            for artifacts, (other_rows, other_csv, got) in zip(sets, runs):
                if other_rows == rows:
                    assert got.tobytes() == want.tobytes() and other_csv in (None, csv), (i, artifacts)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.ptp(want), (i, artifacts)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_profile_only_run_leaves_no_view_alive(self, threads):
        before = _live_views()
        result = run_experiment(TINY_GRT.with_overrides(artifacts=("profile",)), threads=threads)
        assert result.profile.recon_scaled.size
        assert _live_views() <= before

    def test_profile_only_run_holds_no_views(self, monkeypatch):
        # a small phantom far from a long probe: the views' rows are the
        # probe's q-range alone, so holding the views would dominate the peak
        config = crt_preset().with_overrides(
            phantom_radius=1.0, epsilon=0.05, n_views=256, h_max=60.0, h_step=10.0, eta=8, artifacts=("profile",)
        )
        run_experiment(config)  # the filter plan and work arrays outlive a run
        filtered = []
        filter_view = pipeline.filter_view

        def counted(*args):
            view = filter_view(*args)
            filtered.append(8 * view.n)
            return view

        monkeypatch.setattr(pipeline, "filter_view", counted)
        tracemalloc.start()
        try:
            run_experiment(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(filtered) == config.n_views
        assert peak < sum(filtered) / 4

    def test_every_view_sum_goes_through_view_sum(self, monkeypatch):
        calls = []
        view_sum = reconstruction.view_sum

        def spy(total, scheme):
            calls.append(total.size)
            return view_sum(total, scheme)

        monkeypatch.setattr(reconstruction, "view_sum", spy)
        monkeypatch.setattr(pipeline, "view_sum", spy)
        config = TINY_CRT.with_overrides(artifacts=("profile",))
        result = run_experiment(config)
        views, _ = filtered_views(config)
        family, scheme = config.build_family(), config.build_scheme()
        backproject(views, np.tile(config.probe_x0, (3, 1)), family, scheme)
        m = config.h_samples().size + 1
        assert calls == [m, 3]
        # a run that rasters scales the profile and then each raster once
        calls.clear()
        run_experiment(TINY_CRT, threads=2)
        assert calls == [m, 24 * 24, 160 * 160]


def _raster_peak(config) -> int:
    """tracemalloc peak of one run of ``config`` at threads=1, after a
    16-view run has made the filter plan and the work arrays that a run
    keeps."""
    run_experiment(config.with_overrides(n_views=16))
    tracemalloc.start()
    try:
        run_experiment(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# a small phantom far from the probe, a small profile and a small global
# image: the views' grids are mostly the probe's and the image's q-range,
# so holding every view would dominate the peak
HOLD_BASE = crt_preset().with_overrides(
    phantom_radius=1.0, epsilon=0.05, h_max=3.0, h_step=0.5, eta=8,
    image_half_extent=2.0, image_pixel_size=0.1, artifacts=("profile", "global-image"),
)


@pytest.fixture(scope="module")
def raster_peaks():
    """(grid bytes of one view, {n_views: tracemalloc peak of a run})."""
    view = filtered_views(HOLD_BASE.with_overrides(n_views=2))[0][0]
    return 8 * view.n, {n: _raster_peak(HOLD_BASE.with_overrides(n_views=n)) for n in (128, 512)}


class TestStreamedRaster:
    """Runs raster view-major: each window of pipeline._VIEW_WINDOW views
    adds its terms to the rasters, then is dropped."""

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("base, n_views", [(TINY_CRT, 61), (TINY_GRT, 101)], ids=["line", "circle"])
    def test_rasters_match_backproject_bitwise(self, base, n_views, threads):
        config = base.with_overrides(n_views=n_views)
        family, scheme = config.build_family(), config.build_scheme()
        # the last window is partial
        assert scheme.window_view_indices().size % pipeline._VIEW_WINDOW != 0
        result = run_experiment(config, threads=threads)
        views, _ = filtered_views(config)
        fields_of_view = (
            (result.global_image, (0.0, 0.0), config.image_half_extent, config.image_pixel_size),
            (result.roi_image, config.probe_x0, 20.0 * config.epsilon, config.epsilon / 4.0),
        )
        for image, center, half_extent, pixel_size in fields_of_view:
            # pixel centers row by row, as ImageGrid.from_values lays them out
            xs, ys = ImageGrid.axes(center, half_extent, pixel_size)
            pixels = np.column_stack([np.tile(xs, ys.size), np.repeat(ys, xs.size)])
            expected = backproject(views, pixels, family, scheme)
            assert image.values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("base", [TINY_CRT, TINY_GRT], ids=["line", "circle"])
    def test_images_do_not_depend_on_threads(self, base, tmp_path):
        payloads = []
        for threads in (1, 3):
            out = tmp_path / f"t{threads}"
            write_artifacts(run_experiment(base, threads=threads), out)
            names = ("global.pgm", "global.pgm.txt", "roi.pgm", "roi.pgm.txt")
            payloads.append([(out / name).read_bytes() for name in names])
        assert payloads[0] == payloads[1]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_raster_run_leaves_no_view_or_table_alive(self, threads):
        before = _live_views()
        result = run_experiment(TINY_GRT, threads=threads)
        assert result.global_image is not None and result.roi_image is not None
        assert _live_views() <= before

    def test_raster_run_holds_a_window_of_views(self, raster_peaks):
        grid_bytes, peaks = raster_peaks
        assert peaks[512] < 512 * grid_bytes / 4

    def test_raster_peak_does_not_grow_with_views(self, raster_peaks):
        _, peaks = raster_peaks
        assert peaks[512] <= 1.1 * peaks[128]


def _reference_view_sum(views, values, family, scheme, points) -> np.ndarray:
    """The view sum at the (m, 2) ``points``, written apart from the view
    path: Phi by phi_eval's hypot for circles, and the Catmull-Rom
    polynomial of each view's grid ``values`` in its power form
    0.5 (c0 + c1 s + c2 s**2 + c3 s**3)."""
    total = np.zeros(len(points))
    for view, f in zip(views, values):
        pos = (phi_eval(family, view.alpha, points) - view.start) / view.step
        i = np.clip(np.floor(pos).astype(int), 1, f.size - 3)
        s = pos - i
        p0, p1, p2, p3 = (f[i + j] for j in (-1, 0, 1, 2))
        total += 0.5 * (
            2.0 * p1
            + (p2 - p0) * s
            + (2.0 * p0 - 5.0 * p1 + 4.0 * p2 - p3) * s**2
            + (3.0 * p1 - p0 - 3.0 * p2 + p3) * s**3
        )
    return total * (-scheme.delta_alpha / (2.0 * math.pi**2))


class TestViewPathRoundOff:
    """The view path's law-of-cosines Phi and Horner kernel move a run's
    outputs by round-off only, against the hypot and power-form reference."""

    @pytest.mark.parametrize("base", [TINY_CRT, TINY_GRT], ids=["line", "circle"])
    def test_outputs_match_the_reference_to_round_off(self, base):
        result = run_experiment(base, threads=2)
        views, values = filtered_views(base)
        family, scheme = base.build_family(), base.build_scheme()
        x0, h = np.asarray(base.probe_x0), base.h_samples()
        sums = _reference_view_sum(views, values, family, scheme, probe_points(x0, result.theta, h, scheme.epsilon))
        expected = difference_profile(sums, scheme.epsilon, result.theta, h).recon_scaled
        got = result.profile.recon_scaled
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.ptp(expected)
        fields_of_view = (
            (result.global_image, (0.0, 0.0), base.image_half_extent, base.image_pixel_size),
            (result.roi_image, base.probe_x0, 20.0 * base.epsilon, base.epsilon / 4.0),
        )
        for image, center, half_extent, pixel_size in fields_of_view:
            xs, ys = ImageGrid.axes(center, half_extent, pixel_size)
            pixels = np.column_stack([np.tile(xs, ys.size), np.repeat(ys, xs.size)])
            expected = _reference_view_sum(views, values, family, scheme, pixels)
            assert np.max(np.abs(image.values.ravel() - expected)) <= 1e-12 * np.max(np.abs(expected))
