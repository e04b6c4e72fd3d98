"""Prediction-side properties: the lattice-sum symmetries seen through
predict_profile, amplitude bookkeeping, and the comparison metrics."""

import math
from dataclasses import replace

import numpy as np
import pytest

from aliaslab.experiment_config import crt_preset, grt_preset
from aliaslab.geometry import DiskPhantom, SamplingScheme, line_family, tangency_enumerate
from aliaslab.predictor import (
    ComparisonMetrics,
    compare,
    fill_prediction,
    predict_profile,
)
from aliaslab.reconstruction import AliasProfile
from aliaslab.special_functions import big_psi


def _crt_setup(jump=1.0):
    cfg = crt_preset()
    family = cfg.build_family()
    phantom = DiskPhantom(cfg.phantom_center, cfg.phantom_radius, jump)
    scheme = cfg.build_scheme()
    descs = tangency_enumerate(family, phantom, np.asarray(cfg.probe_x0), scheme)
    return descs, scheme


def _grt_setup():
    cfg = grt_preset()
    descs = tangency_enumerate(
        cfg.build_family(), cfg.build_phantom(), np.asarray(cfg.probe_x0), cfg.build_scheme()
    )
    return descs, cfg.build_scheme()


def _predict_at(descs, point, scheme):
    """The prediction at the displacement ``point``: one sample of
    predict_profile along the point's own direction."""
    norm = float(np.hypot(*point))
    return predict_profile(descs, scheme, np.asarray(point) / norm, [norm])[0]


class TestPredictAt:
    def test_zero_displacement_gives_zero(self):
        descs, scheme = _crt_setup()
        assert predict_profile(descs, scheme, (1.0, 0.0), [0.0])[0] == 0.0

    def test_invariant_under_integer_grid_index_shift(self):
        descs, scheme = _crt_setup()
        shifted = [replace(d, k_star=d.k_star + 1.0) for d in descs]
        rng = np.random.default_rng(4)
        for point in rng.uniform(-8.0, 8.0, (50, 2)):
            a = _predict_at(descs, point, scheme)
            b = _predict_at(shifted, point, scheme)
            assert abs(a - b) <= 1e-8

    def test_invariant_under_simultaneous_sign_flip(self):
        descs, scheme = _grt_setup()
        flipped = [replace(d, mu0=-d.mu0, k_star=-d.k_star) for d in descs]
        rng = np.random.default_rng(6)
        for point in rng.uniform(-6.0, 6.0, (50, 2)):
            a = _predict_at(descs, point, scheme)
            b = _predict_at(flipped, point, scheme)
            assert abs(a - b) <= 1e-8

    def test_scales_linearly_in_jump(self):
        base, scheme = _crt_setup(jump=1.0)
        scaled, _ = _crt_setup(jump=2.5)
        for d, s in zip(base, scaled):
            assert s.amplitude == pytest.approx(2.5 * d.amplitude, rel=1e-12)
        point = np.array([3.0, -1.5])
        assert _predict_at(scaled, point, scheme) == pytest.approx(
            2.5 * _predict_at(base, point, scheme), rel=1e-10
        )

    def test_crt_corollary_amplitude(self):
        # c = -(kappa/pi) sqrt(2 r) jump at eps=0.02, N=200, r=5
        descs, scheme = _crt_setup()
        expected = -(scheme.kappa / math.pi) * math.sqrt(10.0)
        for d in descs:
            assert d.amplitude == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(-0.7906, abs=5e-5)

    def test_probe_against_normal_reduces_to_minus_h(self):
        (desc,), scheme = _grt_setup()
        u0 = np.asarray(desc.u0)
        hs = (-4.0, -1.3, 0.6, 5.2)
        for h, got in zip(hs, predict_profile([desc], scheme, -u0, hs)):
            direct = desc.amplitude * big_psi(-h, scheme.kappa * desc.mu0, desc.k_star)
            assert got == pytest.approx(direct, rel=1e-12)


class TestProfileAndMetrics:
    def _profile(self, h, recon, predicted=None):
        return AliasProfile(
            theta=(0.6, 0.8),
            h=np.asarray(h, dtype=float),
            recon_scaled=np.asarray(recon, dtype=float),
            predicted=None if predicted is None else np.asarray(predicted, dtype=float),
        )

    def test_zero_amplitude_descriptors_predict_zero(self):
        descs, scheme = _crt_setup()
        silent = [replace(d, amplitude=0.0) for d in descs]
        assert np.all(predict_profile(silent, scheme, (0.6, 0.8), np.arange(-3.0, 3.1, 0.5)) == 0.0)

    def test_fill_prediction_attaches_values(self):
        descs, scheme = _grt_setup()
        h = np.arange(-2.0, 2.1, 0.5)
        profile = self._profile(h, np.zeros_like(h))
        profile.theta = tuple(-np.asarray(descs[0].u0))
        out = fill_prediction(profile, descs, scheme)
        assert out is profile
        assert profile.predicted is not None and profile.predicted.shape == h.shape
        assert np.ptp(profile.predicted) > 0

    def test_identical_curves_have_zero_mismatch(self):
        h = np.arange(-2.0, 2.1, 0.25)
        wave = np.sin(2.0 * h)
        metrics = compare(self._profile(h, wave, wave))
        assert metrics.sup_mismatch == 0.0
        assert metrics.relative_mismatch == 0.0
        assert metrics.sample_count == h.size
        assert not metrics.degenerate

    def test_constant_offset_shows_up_as_sup(self):
        h = np.arange(-2.0, 2.1, 0.25)
        wave = np.sin(2.0 * h)
        c0 = 0.37
        metrics = compare(self._profile(h, wave + c0, wave))
        assert metrics.sup_mismatch == pytest.approx(c0, rel=1e-12)
        assert metrics.peak_to_peak == pytest.approx(np.ptp(wave), rel=1e-12)

    def test_flat_prediction_is_degenerate(self):
        h = np.arange(-1.0, 1.1, 0.5)
        metrics = compare(self._profile(h, np.ones_like(h), np.zeros_like(h)))
        assert metrics.degenerate
        assert math.isinf(metrics.relative_mismatch)

    def test_compare_requires_prediction(self):
        h = np.arange(-1.0, 1.1, 0.5)
        with pytest.raises(ValueError, match="prediction"):
            compare(self._profile(h, np.zeros_like(h)))

    def test_compare_rejects_shape_mismatch(self):
        profile = self._profile([0.0, 1.0], [0.0, 0.0], [0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="sampled"):
            compare(profile)


class TestValidation:
    def test_probe_requires_unit_theta(self):
        descs, scheme = _crt_setup()
        with pytest.raises(ValueError, match="unit"):
            predict_profile(descs, scheme, (0.5, 0.5), np.array([0.0]))

    def test_config_rejects_nonpositive_curvature_gap(self):
        descs, scheme = _crt_setup()
        bad = [replace(d, curvature_gap=-0.1) for d in descs]
        with pytest.raises(ValueError, match="curvature"):
            predict_profile(bad, scheme, (0.6, 0.8), np.array([0.0]))

    def test_config_rejects_zero_mu0(self):
        descs, scheme = _crt_setup()
        bad = (replace(descs[0], mu0=0.0),) + tuple(descs[1:])
        with pytest.raises(ValueError, match="sweep rate"):
            predict_profile(bad, scheme, (0.6, 0.8), np.array([0.0]))
