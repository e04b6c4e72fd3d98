"""End-to-end experiment driver.

Wires one ExperimentConfig through the full chain: analytic sinogram ->
semi-discrete smoothed data -> per-view PV filtering -> FBP probes and
optional rasters -> tangency prediction -> comparison metrics.  Work is
split per view and per pixel block and mapped over a thread pool by
``parallel_map``, in input order with order-preserving reductions, so
results are identical for any worker count.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from . import reconstruction
from .experiment_config import ConfigError, ExperimentConfig
from .forward_model import SemiDiscreteData, SinogramSampler
from .geometry import RadonFamily, SamplingScheme, TangencyDescriptor, tangency_enumerate
from .outputs import format_floats, write_pgm16, write_profile_csv
from .predictor import ComparisonMetrics, compare, fill_prediction
from .reconstruction import AliasProfile, FilteredView, ImageGrid, filter_view, scaled_difference_profile

__all__ = [
    "ExperimentResult",
    "parallel_map",
    "resolve_theta",
    "query_range",
    "run_experiment",
    "report_text",
    "write_artifacts",
]

# pixel rows per parallel task; fixed so the work split never depends on
# the worker count
_ROWS_PER_BLOCK = 50


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    descriptors: tuple[TangencyDescriptor, ...]
    theta: tuple[float, float]
    views: tuple[FilteredView, ...]
    profile: AliasProfile
    metrics: ComparisonMetrics
    global_image: ImageGrid | None
    roi_image: ImageGrid | None
    timings: dict


def parallel_map(fn, items, threads: int = 1) -> list:
    """[fn(item) for item in items] on up to ``threads`` worker threads,
    in input order; each item is computed by a pure function, so the
    result is identical for any worker count."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def resolve_theta(config: ExperimentConfig, descriptors) -> np.ndarray:
    """Probe direction per config.theta_mode."""
    if config.theta_mode == "explicit":
        return np.asarray(config.probe_theta, dtype=float)
    if config.theta_mode == "radial":
        x0 = np.asarray(config.probe_x0, dtype=float)
        norm = float(np.hypot(x0[0], x0[1]))
        if norm == 0.0:
            raise ConfigError("probe.x0: radial probe direction undefined at the origin")
        return x0 / norm
    # minus-u0: against the first (lowest alpha_star) descriptor's normal
    if not descriptors:
        raise ValueError("theta_mode minus-u0 needs at least one tangency")
    return -np.asarray(descriptors[0].u0, dtype=float)


def query_range(family: RadonFamily, max_norm: float) -> tuple[float, float]:
    """Interval of Phi values reachable from points with |x| <= max_norm."""
    if family.kind == "line":
        return -max_norm, max_norm
    R = family.acquisition_radius
    return max(0.0, R - max_norm), R + max_norm


def _max_query_norm(config: ExperimentConfig, want_global: bool, want_roi: bool) -> float:
    x0 = np.asarray(config.probe_x0, dtype=float)
    norm = float(np.hypot(x0[0], x0[1]))
    targets = [norm + config.epsilon * config.h_max]
    if want_global:
        targets.append(config.image_half_extent * np.sqrt(2.0))
    if want_roi:
        targets.append(norm + 20.0 * config.epsilon * np.sqrt(2.0))
    return max(targets) + 1.0


def _raster(
    views, family: RadonFamily, scheme: SamplingScheme, center, half_extent: float, pixel_size: float, threads: int
) -> ImageGrid:
    points = ImageGrid.pixel_centers(center, half_extent, pixel_size)
    m = ImageGrid.side(half_extent, pixel_size)
    row_blocks = []
    for start in range(0, m, _ROWS_PER_BLOCK):
        stop = min(start + _ROWS_PER_BLOCK, m)
        row_blocks.append(points[start * m : stop * m])
    # looked up at call time: perfbench's tracer and stubs replace it
    values = parallel_map(lambda block: reconstruction.backproject(views, block, family, scheme), row_blocks, threads)
    flat = np.concatenate([np.atleast_1d(v) for v in values])
    return ImageGrid.from_values(center, half_extent, pixel_size, flat)


def run_experiment(config: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    t_start = time.perf_counter()
    timings: dict = {}

    family = config.build_family()
    phantom = config.build_phantom()
    scheme = config.build_scheme()
    x0 = np.asarray(config.probe_x0, dtype=float)

    descriptors = tangency_enumerate(family, phantom, x0, scheme)
    if not descriptors:
        raise ConfigError("probe.x0: probe point sees no tangency inside the angular window (scheme.window)")
    theta = resolve_theta(config, descriptors)

    want_global = "global-image" in config.artifacts
    want_roi = "roi-image" in config.artifacts
    q_range = query_range(family, _max_query_norm(config, want_global, want_roi))

    sampler = SinogramSampler(family, phantom)
    data = SemiDiscreteData(scheme, sampler)

    t0 = time.perf_counter()
    view_indices = scheme.window_view_indices()
    views = tuple(
        parallel_map(lambda k: filter_view(data, k, config.eta, q_range), view_indices, threads)
    )
    timings["filter_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    profile = scaled_difference_profile(views, family, scheme, x0, theta, config.h_samples())
    timings["profile_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    fill_prediction(profile, descriptors, scheme)
    metrics = compare(profile)
    timings["prediction_s"] = time.perf_counter() - t0

    global_image = None
    if want_global:
        t0 = time.perf_counter()
        global_image = _raster(
            views, family, scheme, (0.0, 0.0), config.image_half_extent, config.image_pixel_size, threads
        )
        timings["global_image_s"] = time.perf_counter() - t0
    roi_image = None
    if want_roi:
        t0 = time.perf_counter()
        roi_image = _raster(
            views, family, scheme, tuple(x0), 20.0 * config.epsilon, config.epsilon / 4.0, threads
        )
        timings["roi_image_s"] = time.perf_counter() - t0

    timings["total_s"] = time.perf_counter() - t_start
    return ExperimentResult(
        config=config,
        descriptors=tuple(descriptors),
        theta=(float(theta[0]), float(theta[1])),
        views=views,
        profile=profile,
        metrics=metrics,
        global_image=global_image,
        roi_image=roi_image,
        timings=timings,
    )


def report_text(result: ExperimentResult) -> str:
    """Structured key = value report; the config echo re-parses as a config."""
    lines = ["# aliaslab run report"]
    for key, value in result.config.to_mapping().items():
        lines.append(f"config.{key} = {value}")
    lines.append(f"probe.theta_resolved = {format_floats(*result.theta)}")
    lines.append(f"descriptor.count = {len(result.descriptors)}")
    for i, t in enumerate(result.descriptors):
        for f in fields(t):
            value = getattr(t, f.name)
            text = str(value) if f.type in ("int", "bool") else format_floats(*np.ravel(value))
            lines.append(f"descriptor.{i}.{f.name} = {text}")
    m = result.metrics
    lines.append(f"metrics.sup_mismatch = {format_floats(m.sup_mismatch)}")
    lines.append(f"metrics.peak_to_peak = {format_floats(m.peak_to_peak)}")
    lines.append(f"metrics.relative_mismatch = {format_floats(m.relative_mismatch)}")
    lines.append(f"metrics.sample_count = {m.sample_count}")
    lines.append(f"metrics.degenerate = {m.degenerate}")
    for key in sorted(result.timings):
        lines.append(f"timing.{key} = {format_floats(result.timings[key])}")
    return "\n".join(lines) + "\n"


def write_artifacts(result: ExperimentResult, out_dir) -> dict:
    """Write the artifacts requested by the config; returns name -> path."""
    os.makedirs(out_dir, exist_ok=True)
    written = {}
    for artifact in result.config.artifacts:
        if artifact == "profile":
            path = os.path.join(out_dir, "profile.csv")
            write_profile_csv(path, result.profile)
        elif artifact == "report":
            path = os.path.join(out_dir, "report.txt")
            with open(path, "w", encoding="utf-8", newline="\n") as f:
                f.write(report_text(result))
        elif artifact == "global-image":
            path = os.path.join(out_dir, "global.pgm")
            write_pgm16(path, result.global_image)
        elif artifact == "roi-image":
            path = os.path.join(out_dir, "roi.pgm")
            write_pgm16(path, result.roi_image)
        written[artifact] = path
    return written
