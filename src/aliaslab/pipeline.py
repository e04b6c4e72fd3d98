"""End-to-end experiment driver.

Wires one ExperimentConfig through the full chain: analytic sinogram ->
semi-discrete smoothed data -> per-view PV filtering -> FBP probes and
optional rasters -> tangency prediction -> comparison metrics.  Work is
split per view and per pixel block and mapped over a thread pool by
``parallel_map``, in input order with order-preserving reductions, so
results are identical for any worker count.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .experiment_config import ConfigError, ExperimentConfig
from .forward_model import SemiDiscreteData, SinogramSampler
from .geometry import TangencyDescriptor, phi_eval, tangency_enumerate, work_array
from .outputs import format_floats, write_pgm16, write_profile_csv
from .predictor import ComparisonMetrics, compare, fill_prediction
from .reconstruction import (
    AliasProfile,
    ImageGrid,
    add_view_terms,
    difference_profile,
    filter_view,
    probe_points,
    view_sum,
)

__all__ = [
    "MAX_THREADS",
    "ExperimentResult",
    "RunPlan",
    "parallel_map",
    "plan_run",
    "run_experiment",
    "report_text",
    "write_artifacts",
]

# Most worker threads a run may use, refused before a pool exists; each
# keeps its own work arrays, about 1.4 MB at the fine CRT level.
MAX_THREADS = 64

# Most fine-grid points a view's grid may have; a plan with a longer grid
# is refused.  Filtering one view on all its rows takes about 95 bytes per
# grid point (an FFT of length n_s + rows - 1 <= 2n; tracemalloc's peak of
# one filter_view with its plan at 2**20 and 2**21 points, the support on
# 3/4 of them), so 2**22 take about 0.4 GB; the fine CRT level uses 6.2*10**4.
_MAX_GRID = 2**22

# pixel rows per parallel task; fixed so the work split never depends on
# the worker count
_ROWS_PER_BLOCK = 50

# views per window of a run that rasters.  A run holds the views (their
# Catmull-Rom tables, 32 bytes per fine-grid point) of two windows, the one
# it rasters and the one it filters: on crt-demo (24,233 points per view)
# windows of 8 peaked at about 81 MB and windows of 16 at about 96 MB
_VIEW_WINDOW = 8


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    descriptors: tuple[TangencyDescriptor, ...]
    theta: tuple[float, float]
    profile: AliasProfile
    metrics: ComparisonMetrics
    global_image: ImageGrid | None
    roi_image: ImageGrid | None
    timings: dict
    point_values: np.ndarray


def parallel_map(fn, items, threads: int, pool: ThreadPoolExecutor) -> list:
    """[fn(item) for item in items] on the ``pool`` of ``threads`` workers,
    in input order; each item is computed by a pure function, so the
    result is identical for any worker count.  The pool's threads keep
    their work arrays from one map to the next."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    return list(pool.map(fn, items))


def _check_threads(threads: int) -> None:
    if not 1 <= threads <= MAX_THREADS:
        raise ValueError(f"threads: {threads} worker threads; at least 1, at most MAX_THREADS = {MAX_THREADS}")


def _resolve_theta(config: ExperimentConfig, descriptors) -> np.ndarray:
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


@dataclass(frozen=True)
class RunPlan:
    """What a run of one config does, decided before any view is filtered:
    the window's ``views``; view views[i]'s fine grid starts[i] + step *
    arange(counts[i]), step = eps/eta, and its rows (first, size) = rows[i]
    read; the rasters, stage -> (center, half_extent, pixel_size); and the
    extra (m, 2) ``points`` it reads."""

    views: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    rows: np.ndarray
    step: float
    rasters: dict
    points: np.ndarray


def plan_run(config: ExperimentConfig, points=None) -> RunPlan:
    """The plan of a run of ``config`` that also reads the (m, 2) ``points``.
    A view's grid is its data support between the kinks Phi(alpha_k,
    center) -+ r, padded by eps*half_width, united with the Phi values of
    all points within 1 of the farthest one the run reads (probe line,
    rasters, ``points``), widened by two steps on each side.  A grid over
    ``_MAX_GRID`` points is a ConfigError naming the key of the farthest
    read, probe.x0 (probe line, ROI), image.half_extent or points, when
    the reads set the grid, and else scheme.epsilon.  Every read is a disk
    (probe line, ROI, global image, the points' bounding disk), so view k's
    rows span Phi_k(center) -+ radius over them (Phi is 1-Lipschitz), two
    steps wider a side for Catmull-Rom, clipped at q_lo (0 for circles)."""
    family, scheme = config.build_family(), config.build_scheme()
    eps = scheme.epsilon
    x0 = np.asarray(config.probe_x0, dtype=float)
    norm = float(np.hypot(*x0))
    reaches = {"probe.x0": norm + eps * config.h_max}
    rasters, disks = {}, [(x0, eps * config.h_max)]
    if "global-image" in config.artifacts:
        rasters["global_image_s"] = ((0.0, 0.0), config.image_half_extent, config.image_pixel_size)
        reaches["image.half_extent"] = config.image_half_extent * np.sqrt(2.0)
        disks.append((np.zeros(2), reaches["image.half_extent"]))
    if "roi-image" in config.artifacts:
        rasters["roi_image_s"] = (tuple(x0), 20.0 * eps, eps / 4.0)
        reaches["probe.x0"] = max(reaches["probe.x0"], norm + 20.0 * eps * np.sqrt(2.0))
        disks.append((x0, 20.0 * eps * np.sqrt(2.0)))
    points = np.zeros((0, 2)) if points is None else np.asarray(points, dtype=float).reshape(-1, 2)
    if not np.all(np.isfinite(points)):
        raise ValueError("points must be finite")
    with np.errstate(over="ignore"):  # an inf reach is refused by its grid's count
        reaches["points"] = float(np.hypot(points[:, 0], points[:, 1]).max(initial=0.0))
    reach, R = max(reaches.values()) + 1.0, family.acquisition_radius
    q_lo, q_hi = (-reach, reach) if family.kind == "line" else (max(0.0, R - reach), R + reach)

    step = eps / config.eta
    views = scheme.window_view_indices()
    sampler = SinogramSampler(family, config.build_phantom())
    starts, ends = sampler.support(scheme.view_angles()[views])
    pad = eps * SemiDiscreteData.mollifier.half_width
    starts = np.minimum(np.subtract(starts, pad, out=starts), q_lo, out=starts)
    starts -= 2.0 * step
    ends = np.maximum(np.add(ends, pad, out=ends), q_hi, out=ends)
    ends += 2.0 * step
    # count = ceil((hi - lo) / step) + 1, formed in ``ends``; inf on overflow
    with np.errstate(over="ignore"):
        counts = np.ceil(np.divide(np.subtract(ends, starts, out=ends), step, out=ends), out=ends)
    counts += 1.0
    if counts.size and counts.max() > _MAX_GRID:
        needs = f"a view needs {counts.max():.6g} fine-grid points of step scheme.epsilon / recon.eta = {step:.3g}"
        # the reads are at fault when the padded supports alone would fit
        # and take less than a quarter of the grid; at the sweep's finer
        # levels a probe a few phantom radii out takes about half of it
        lo, hi = sampler.support(scheme.view_angles()[views])
        support = (np.max(hi - lo) + 2.0 * pad) / step + 5.0
        if support > _MAX_GRID or 4.0 * support >= counts.max():
            raise ConfigError(f"scheme.epsilon: {needs}, more than {_MAX_GRID}: raise scheme.epsilon or lower recon.eta")
        key = max(reaches, key=reaches.get)
        raise ConfigError(
            f"{key}: {needs} to reach its farthest point, more than {_MAX_GRID}: read nearer the origin"
        )
    if len(points):
        center = 0.5 * (points.min(axis=0) + points.max(axis=0))
        disks.append((center, float(np.hypot(*(points - center).T).max())))
    # bounds over the disks, one value per view, in place; no read is below q_lo
    counts = counts.astype(np.intp)
    lo, hi = np.full(views.size, np.inf), np.full(views.size, -np.inf)
    for center, radius in disks:
        phi = phi_eval(family, scheme.view_angles()[views], center, ends)
        np.minimum(lo, phi - radius, out=lo)
        np.maximum(hi, np.add(phi, radius, out=phi), out=hi)
    np.floor(np.divide(np.subtract(np.maximum(lo, q_lo, out=lo), starts, out=lo), step, out=lo), out=lo)
    np.ceil(np.divide(np.subtract(hi, starts, out=hi), step, out=hi), out=hi)
    rows = np.empty((views.size, 2), np.intp)
    rows[:, 0] = np.maximum(np.subtract(lo, 2.0, out=lo), 0.0, out=lo)
    rows[:, 1] = np.minimum(np.add(hi, 2.0, out=hi), counts - 1, out=hi) - lo + 1.0
    return RunPlan(views, starts, counts, rows, step, rasters, points)


def run_experiment(config: ExperimentConfig, threads: int = 1, points=None) -> ExperimentResult:
    """Run ``config`` as ``plan_run`` plans it; the view sum at the extra
    (m, 2) ``points`` comes back as ``point_values``."""
    _check_threads(threads)
    t_start = time.perf_counter()
    timings: dict = {}
    plan = plan_run(config, points)

    family = config.build_family()
    phantom = config.build_phantom()
    scheme = config.build_scheme()
    x0 = np.asarray(config.probe_x0, dtype=float)

    try:
        descriptors = tangency_enumerate(family, phantom, x0, scheme)
    except ValueError as exc:  # a probe on the boundary or at a degenerate tangency
        raise ConfigError(f"probe.x0: {exc}") from None
    if not descriptors and math.hypot(*(x0 - phantom.center_array)) < phantom.radius:
        raise ConfigError("probe.x0: probe point lies inside the phantom disk, where no curve is tangent to its boundary")
    if not descriptors:
        raise ConfigError("probe.x0: probe point sees no tangency inside the angular window (scheme.window)")
    theta, h = _resolve_theta(config, descriptors), config.h_samples()

    # the prediction reads no view, so it goes first, on zero sums: a probe
    # it cannot serve (zero sweep rate, kappa * mu0 below big_psi's floor)
    # is refused by key before any view is filtered
    t0 = time.perf_counter()
    prediction = difference_profile(np.zeros(h.size + 1), scheme.epsilon, theta, h)
    try:
        fill_prediction(prediction, descriptors, scheme)
    except ValueError as exc:
        raise ConfigError(f"probe.x0: {exc}") from None
    timings["prediction_s"] = time.perf_counter() - t0

    data = SemiDiscreteData(scheme, SinogramSampler(family, phantom))
    probes = probe_points(x0, theta, h, scheme.epsilon)
    reads = np.vstack([probes, plan.points])
    # one flat accumulator per raster, added to in blocks of rows; each
    # block task is (stage, accumulator rows, x axis, y values)
    rasters, totals, blocks = plan.rasters, {}, []
    for stage, (center, half_extent, pixel_size) in rasters.items():
        xs, ys = ImageGrid.axes(center, half_extent, pixel_size)
        totals[stage] = total = np.zeros(ys.size * xs.size)
        for row in range(0, ys.size, _ROWS_PER_BLOCK):
            rows = slice(row * xs.size, (row + _ROWS_PER_BLOCK) * xs.size)
            blocks.append((stage, total[rows], xs, ys[row : row + _ROWS_PER_BLOCK]))

    # A view task filters the plan's view i, reads it at the probe and
    # extra points and, when the run rasters, returns it; a block task lays
    # out its pixel centers row by row in this thread's work array and adds
    # the terms of one window of views to its rows.  Each map runs one
    # window's view tasks with the previous window's block tasks, so a run
    # holds at most two windows of views, and every pixel adds its views in
    # view order; a run without a raster takes one map.
    def task(item):
        t0 = time.perf_counter()
        block, arg = item
        if block is None:
            view = filter_view(data, plan.views[arg], plan.starts[arg], plan.step, plan.counts[arg], plan.rows[arg])
            term = np.zeros(len(reads))
            add_view_terms(term, [view], family, reads)
            out = ("filter_s", (term, view if rasters else None))
        else:
            stage, total, xs, ys = block
            coords = work_array("pixel_coords", 2 * total.size).reshape(2, total.size)
            coords[0].reshape(ys.size, xs.size)[...] = xs
            coords[1].reshape(ys.size, xs.size)[...] = ys[:, None]
            add_view_terms(total, arg, family, coords.T)
            out = (stage, None)
        return out, time.perf_counter() - t0

    n_views = plan.views.size
    window = _VIEW_WINDOW if rasters else max(1, n_views)
    # a run that rasters takes one more map, for its last window's blocks
    stop = n_views + (window if rasters else 0)
    # the sums take each view's term as its map returns, in view order
    sums, tables = np.zeros(len(reads)), []
    busy = dict.fromkeys(["filter_s", *rasters], 0.0)
    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for start in range(0, stop, window):
            items = [(None, i) for i in range(n_views)[start : start + window]]
            items += [(block, tables) for block in blocks] if tables else []
            tables = []
            for (stage, out), seconds in parallel_map(task, items, threads, pool):
                busy[stage] += seconds
                if out is not None:
                    sums += out[0]
                    if out[1] is not None:
                        tables.append(out[1])
    # the loop's wall time, split in proportion to each stage's task time
    spent = time.perf_counter() - t0
    total_busy = sum(busy.values())
    for stage, seconds in busy.items():
        timings[stage] = spent * seconds / total_busy if total_busy else 0.0

    t0 = time.perf_counter()
    view_sum(sums, scheme)
    profile = difference_profile(sums[: len(probes)], scheme.epsilon, theta, h)
    profile.predicted = prediction.predicted
    metrics = compare(profile)
    timings["profile_s"] = time.perf_counter() - t0

    images = {}
    for stage, (center, half_extent, pixel_size) in rasters.items():
        images[stage] = ImageGrid.from_values(center, half_extent, pixel_size, view_sum(totals[stage], scheme))

    timings["total_s"] = time.perf_counter() - t_start
    return ExperimentResult(
        config=config,
        descriptors=tuple(descriptors),
        theta=(float(theta[0]), float(theta[1])),
        profile=profile,
        metrics=metrics,
        global_image=images.get("global_image_s"),
        roi_image=images.get("roi_image_s"),
        timings=timings,
        point_values=sums[len(probes) :],
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
