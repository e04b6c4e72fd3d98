"""Config parsing, pipeline wiring, file outputs, and the CLI."""

import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

import aliaslab
from aliaslab.cli import main
from aliaslab.experiment_config import (
    MAX_IMAGE_PIXELS,
    MAX_PROFILE_SAMPLES,
    MAX_VIEWS,
    ConfigError,
    ExperimentConfig,
    crt_preset,
    grt_preset,
    load_config_file,
    parse_config_text,
)
from aliaslab.outputs import (
    PROFILE_HEADER,
    read_profile_csv,
    write_pgm16,
    write_profile_csv,
)
from aliaslab.pipeline import (
    query_range,
    report_text,
    resolve_theta,
    run_experiment,
    write_artifacts,
)
from aliaslab.geometry import circle_family, line_family, tangency_enumerate
from aliaslab.reconstruction import AliasProfile, ImageGrid

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
    "scheme.alpha_origin": "alpha_origin",
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
        # the quadrature rule is fixed; a config or an old report naming the
        # key is refused rather than silently ignored
        text = crt_preset().to_text()
        with pytest.raises(ConfigError, match=r"unknown config key.*recon\.quad_order"):
            parse_config_text(text + "recon.quad_order = 32\n")
        echoed = "".join(f"config.{line}\n" for line in (text + "recon.quad_order = 32\n").splitlines())
        with pytest.raises(ConfigError, match=r"unknown config key.*recon\.quad_order"):
            parse_config_text(echoed)

    def test_artifact_order_is_canonical(self):
        config = crt_preset().with_overrides(artifacts=("report", "profile"))
        assert config.artifacts == ("profile", "report")


class TestPipelineWiring:
    def test_query_range_by_family(self):
        assert query_range(line_family(), 3.0) == (-3.0, 3.0)
        assert query_range(circle_family(5.0), 3.0) == (2.0, 8.0)
        assert query_range(circle_family(5.0), 7.0) == (0.0, 12.0)

    def test_resolve_theta_radial_normalizes(self):
        theta = resolve_theta(TINY_CRT, descriptors=())
        assert np.allclose(theta, np.array([5.0, 7.0]) / math.hypot(5.0, 7.0))

    def test_resolve_theta_radial_rejects_origin(self):
        config = crt_preset().with_overrides(probe_x0=(0.0, 0.0))
        with pytest.raises(ValueError, match="origin"):
            resolve_theta(config, descriptors=())

    def test_resolve_theta_explicit(self):
        config = crt_preset().with_overrides(theta_mode="explicit", probe_theta=(0.0, 1.0))
        assert np.array_equal(resolve_theta(config, ()), np.array([0.0, 1.0]))

    def test_resolve_theta_minus_u0(self):
        cfg = TINY_GRT
        descs = tangency_enumerate(
            cfg.build_family(), cfg.build_phantom(), np.asarray(cfg.probe_x0), cfg.build_scheme()
        )
        theta = resolve_theta(cfg.with_overrides(theta_mode="minus-u0"), descs)
        assert np.allclose(theta, -np.asarray(descs[0].u0))

    def test_empty_window_sees_no_tangency(self):
        config = TINY_GRT.with_overrides(window=(0.01, 0.05))
        with pytest.raises(ValueError, match="tangency"):
            run_experiment(config)

    def test_probe_inside_phantom_is_config_error(self):
        # no line through a point inside the disk is tangent to its boundary
        with pytest.raises(ConfigError, match="probe.x0"):
            run_experiment(crt_preset().with_overrides(probe_x0=(1.0, 1.0)))

    def test_too_fine_grid_refused_before_allocating(self):
        # eps = 1e-7 asks for about 5*10**9 fine-grid points per view
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(ValueError, match=r"scheme\.epsilon.*recon\.eta"):
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
        h, recon_scaled, predicted = read_profile_csv(path)
        assert np.array_equal(h, tiny_crt_result.profile.h)
        assert np.array_equal(recon_scaled, tiny_crt_result.profile.recon_scaled)
        assert np.array_equal(predicted, tiny_crt_result.profile.predicted)

    def test_profile_csv_needs_prediction(self, tmp_path):
        profile = AliasProfile((1.0, 0.0), np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError, match="prediction"):
            write_profile_csv(tmp_path / "p.csv", profile)

    def test_read_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("h,foo,bar\n0,0,0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            read_profile_csv(path)

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

    def test_psi_table_refuses_a_rate_too_small_to_sum(self, tmp_path, capsys):
        rc = main(["psi-table", "--a", "1e-320", "--out", str(tmp_path), "--samples", "3"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "|a| = " in err

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

    def test_too_fine_grid_exits_with_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "fine.cfg"
        cfg_path.write_text(crt_preset().with_overrides(epsilon=1e-7).to_text(), encoding="utf-8")
        rc = main(["crt-demo", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "scheme.epsilon" in err and "recon.eta" in err

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
        # numpy alone imports in a fraction of scipy's time; scipy is loaded
        # only inside the two verification oracles
        code = (
            "import sys, aliaslab.pipeline, aliaslab.cli, aliaslab.acceptance\n"
            "from aliaslab.experiment_config import crt_preset\n"
            "from aliaslab.special_functions import big_psi\n"
            "config = crt_preset().with_overrides(epsilon=0.06, n_views=64, h_max=3.0, h_step=0.5, eta=8, "
            "artifacts=('profile',))\n"
            "aliaslab.pipeline.run_experiment(config)\n"
            "big_psi(0.1, 0.5, 1.0 / 3.0)\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        assert self._imports(code) == "[]"

    def test_library_does_not_import_scipy_signal(self):
        # scipy.signal costs about a second of import time
        code = "import sys, aliaslab.pipeline, aliaslab.acceptance, aliaslab.cli; print('scipy.signal' in sys.modules)"
        assert self._imports(code) == "False"


class TestScripts:
    def test_sweep_refinement_smoke(self, tmp_path):
        src = os.path.dirname(os.path.dirname(aliaslab.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        script = os.path.join(os.path.dirname(src), "scripts", "sweep_refinement.py")
        args = ["--levels", "2", "--base-epsilon", "0.2", "--base-views", "20", "--threads", "1"]
        out = subprocess.run(
            [sys.executable, script, *args, "--out", str(tmp_path)], env=env, capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        assert len([line for line in out.stdout.splitlines() if "contraction" in line]) == 1
        rows = (tmp_path / "sweep.csv").read_text(encoding="utf-8").splitlines()
        assert rows[0] == "level,epsilon,n_views,sup_mismatch,peak_to_peak,relative_mismatch,seconds"
        assert len(rows) == 3


class TestDeterminism:
    def test_profile_csv_bitwise_stable_across_threads(self, tmp_path):
        config = TINY_CRT.with_overrides(artifacts=("profile", "report"))
        payloads = []
        for threads in (1, 3):
            out = tmp_path / f"t{threads}"
            write_artifacts(run_experiment(config, threads=threads), out)
            payloads.append((out / "profile.csv").read_bytes())
        assert payloads[0] == payloads[1]
