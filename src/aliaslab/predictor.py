"""Aliasing prediction: the closed-form profile each tangency imprints
on the reconstruction near the probe point, and comparison metrics
against the reconstructed profile.

A tangency with amplitude c, gradient u0, sweep rate mu0 and grid index
k_star contributes c * Psi(u0 . xcheck; kappa*mu0, k_star) to the scaled
reconstruction difference at displacement x = x0 + eps*xcheck; multiple
tangencies add.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import SamplingScheme, TangencyDescriptor
from .reconstruction import AliasProfile
from .special_functions import big_psi

__all__ = [
    "ComparisonMetrics",
    "predict_profile",
    "fill_prediction",
    "compare",
]


@dataclass(frozen=True)
class ComparisonMetrics:
    """Sup mismatch between profile sides, against the prediction's
    peak-to-peak amplitude."""

    sup_mismatch: float
    peak_to_peak: float
    relative_mismatch: float
    sample_count: int
    degenerate: bool


def predict_profile(
    descriptors: Sequence[TangencyDescriptor],
    scheme: SamplingScheme,
    theta,
    h,
) -> np.ndarray:
    """Predicted profile values along a probe segment x0 + eps*h*theta
    with unit direction ``theta``, one per sample of ``h``; the prediction
    depends on the displacement h*theta only, not on x0."""
    if not math.isclose(math.hypot(*theta), 1.0, abs_tol=1e-9):
        raise ValueError("theta must be a unit vector")
    for t in descriptors:
        if not t.curvature_gap > 0:
            raise ValueError("descriptor with nonpositive curvature gap")
        if t.mu0 == 0.0:
            raise ValueError("descriptor with zero sweep rate")
    theta = np.asarray(theta, dtype=float)
    kappa = scheme.kappa
    # sum_j c_j * Psi(u0_j . xcheck; kappa*mu0_j, k_star_j) at each xcheck =
    # h*theta, added from 0.0 in descriptor order
    return np.array(
        [
            sum((t.amplitude * big_psi(float(np.asarray(t.u0) @ x), kappa * t.mu0, t.k_star) for t in descriptors), 0.0)
            for x in np.asarray(h, dtype=float)[:, None] * theta
        ]
    )


def fill_prediction(
    profile: AliasProfile, descriptors: Sequence[TangencyDescriptor], scheme: SamplingScheme
) -> AliasProfile:
    """Attach the predicted side to a reconstructed profile in place."""
    profile.predicted = predict_profile(descriptors, scheme, profile.theta, profile.h)
    return profile


def compare(profile: AliasProfile) -> ComparisonMetrics:
    """Metrics of reconstructed-vs-predicted agreement."""
    if profile.predicted is None:
        raise ValueError("profile has no prediction attached")
    recon = np.asarray(profile.recon_scaled, dtype=float)
    pred = np.asarray(profile.predicted, dtype=float)
    if recon.shape != pred.shape:
        raise ValueError("profile sides sampled differently")
    sup = float(np.max(np.abs(recon - pred))) if recon.size else 0.0
    ptp = float(np.max(pred) - np.min(pred)) if pred.size else 0.0
    degenerate = not ptp > 0.0
    relative = math.inf if degenerate else sup / ptp
    return ComparisonMetrics(
        sup_mismatch=sup,
        peak_to_peak=ptp,
        relative_mismatch=relative,
        sample_count=int(recon.size),
        degenerate=degenerate,
    )
