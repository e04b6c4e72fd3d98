"""Acceptance criteria for the laboratory, runnable as a registry.

Each criterion is a function of a shared context (which memoizes the
expensive reconstruction runs) returning its verdict, a detail line and
the measured quantities; ``run_criteria`` wraps them in a CriterionResult
with the number and slug from the registry table, so both `aliaslab
verify` and the test suite print the same per-criterion lines.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from .experiment_config import ExperimentConfig, crt_preset, grt_preset
from .forward_model import sinogram_circle_disk, sinogram_line_disk
from .geometry import (
    DiskPhantom,
    SamplingScheme,
    circle_family,
    line_family,
    mu0_numeric,
    tangency_enumerate,
)
from .pipeline import run_experiment, write_artifacts
from .special_functions import big_psi, hurwitz_zeta, psi_eval, psi_eval_quadrature_oracle

__all__ = [
    "CriterionResult",
    "AcceptanceContext",
    "select",
    "run_criteria",
    "format_line",
    "format_report",
]


@dataclass(frozen=True)
class CriterionResult:
    number: int
    slug: str
    passed: bool
    detail: str
    measured: dict = field(default_factory=dict)


def _fidelity_points() -> np.ndarray:
    """Criterion 8's points, read by every line-family run: the center and 16
    on each of six circles inside the radius-5 phantom (the first 97), then 16
    on the ring 10 eps = 0.2 outside it.  They widen each view's rows, and so
    the filter's FFT length, but move no lattice point: the run's other values
    move by round-off at most."""
    angles = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    points = [(0.0, 0.0)]
    for rad in (0.5, 1.25, 2.0, 2.75, 3.5, 4.25, 5.0 + 10.0 * 0.02):
        points.extend((rad * math.cos(t), rad * math.sin(t)) for t in angles)
    return np.array(points)


class AcceptanceContext:
    """Shared memo of reconstruction runs keyed by their config; a
    line-family run also reads criterion 8's points."""

    def __init__(self, threads: int = 1):
        self.threads = threads
        self._runs: dict[ExperimentConfig, object] = {}

    def run(self, config: ExperimentConfig):
        if config not in self._runs:
            points = _fidelity_points() if config.family == "line" else None
            self._runs[config] = run_experiment(config, threads=self.threads, points=points)
        return self._runs[config]


def _crt_profile(epsilon: float, n_views: int, shift: float, eta: int = 16) -> ExperimentConfig:
    return crt_preset().with_overrides(
        epsilon=epsilon, n_views=n_views, shift=shift, eta=eta, artifacts=("profile", "report")
    )


def _grt_profile(epsilon: float, n_views: int, eta: int = 16) -> ExperimentConfig:
    return grt_preset().with_overrides(
        epsilon=epsilon, n_views=n_views, eta=eta, artifacts=("profile", "report")
    )


# -- criteria ------------------------------------------------------------


def _c01_psi_identities(ctx) -> tuple[bool, str, dict]:
    rng = np.random.default_rng(101)
    n = 1000
    hs = rng.uniform(-8.0, 8.0, n)
    avs = rng.uniform(0.25, 8.0, n)
    rs = rng.uniform(-2.0, 2.0, n)
    worst = {"periodicity": 0.0, "shift": 0.0, "reflection": 0.0, "zero": 0.0}
    for h, a, r in zip(hs, avs, rs):
        base = big_psi(h, a, r)
        worst["periodicity"] = max(worst["periodicity"], abs(big_psi(h, a, r + 1.0) - base))
        worst["shift"] = max(worst["shift"], abs(big_psi(h + a, a, r) - base))
        worst["reflection"] = max(worst["reflection"], abs(big_psi(h, -a, -r) - base))
        worst["zero"] = max(worst["zero"], abs(big_psi(0.0, a, r)))
    passed = (
        worst["periodicity"] <= 1e-8
        and worst["shift"] <= 1e-8
        and worst["reflection"] <= 1e-8
        and worst["zero"] == 0.0
    )
    detail = (
        f"n={n} periodicity={worst['periodicity']:.2e} shift={worst['shift']:.2e} "
        f"reflection={worst['reflection']:.2e} zero={worst['zero']:.1e}"
    )
    return passed, detail, worst


def _c02_psi_oracle(ctx) -> tuple[bool, str, dict]:
    qs = np.linspace(-50.0, 2.0, 1000)
    closed = psi_eval(qs)
    oracle = np.array([psi_eval_quadrature_oracle(float(q)) for q in qs])
    max_diff = float(np.max(np.abs(closed - oracle)))
    at_zero = abs(psi_eval(0.0) - 2.0 / 3.0)
    beyond = max(abs(psi_eval(q)) for q in (1.0, 1.5, 4.0, 100.0))
    passed = max_diff <= 1e-10 and at_zero <= 1e-12 and beyond == 0.0
    detail = f"max|closed-oracle|={max_diff:.2e} |psi(0)-2/3|={at_zero:.1e} beyond_support={beyond:.1e}"
    measured = {"max_diff": max_diff, "at_zero": at_zero, "beyond_support": beyond}
    return passed, detail, measured


def _c03_psi_asymptotics(ctx) -> tuple[bool, str, dict]:
    measured = {}
    passed = True
    parts = []
    for T in (1e2, 1e3, 1e4):
        dev = abs(psi_eval(-T) * math.sqrt(T) - 0.5)
        measured[f"T={T:g}"] = dev
        passed = passed and dev <= 2.0 / T
        parts.append(f"dev(T={T:g})={dev:.2e}")
    return passed, " ".join(parts), measured


def _c04_psi_decay(ctx) -> tuple[bool, str, dict]:
    hp = np.linspace(0.0, 1.0, 201)

    def sup_amp(a: float) -> float:
        return max(abs(big_psi(a * h, a, 1.0 / 3.0)) for h in hp)

    sups = {a: sup_amp(a) for a in (1.0, 0.5, 0.25, 0.125, 2.0, 4.0)}
    small = [sups[a] for a in (1.0, 0.5, 0.25, 0.125)]
    ratios = [small[i + 1] / small[i] for i in range(3)]
    large = [sups[a] for a in (1.0, 2.0, 4.0)]
    passed = (
        all(r <= 0.5 for r in ratios)
        and all(small[i + 1] < small[i] for i in range(3))
        and large[0] < large[1] < large[2]
    )
    detail = (
        "sup(1,1/2,1/4,1/8)=" + ",".join(f"{s:.3e}" for s in small)
        + " ratios=" + ",".join(f"{r:.3f}" for r in ratios)
        + " sup(1,2,4)=" + ",".join(f"{s:.3e}" for s in large)
    )
    measured = {"sups_small": small, "ratios": ratios, "sups_large": large}
    return passed, detail, measured


def _c05_hurwitz_tail(ctx) -> tuple[bool, str, dict]:
    # the reference is mpmath's 30-digit zeta, imported here so that a run
    # loads numpy alone
    import mpmath

    measured = {}
    passed = True
    parts = []
    for K, tol in ((100, 1e-6), (10_000, 1e-9)):
        with mpmath.workdps(30):
            ref = float(mpmath.zeta(1.5, K))
        dev = abs(hurwitz_zeta(1.5, K) - ref)
        measured[f"K={K}"] = dev
        passed = passed and dev <= tol
        parts.append(f"dev(K={K})={dev:.2e}")
    return passed, " ".join(parts), measured


def _fit_sqrt_slope(t: np.ndarray, g: np.ndarray) -> float:
    # g(t) ~ phi1 * sqrt(t) + O(t^(3/2)); affine fit in sqrt(t) absorbs
    # nothing constant (g(0) = 0) but stabilizes the slope
    return float(np.polyfit(np.sqrt(t), g, 1)[0])


def _c06_sqrt_coefficient(ctx) -> tuple[bool, str, dict]:
    t = np.linspace(1e-4, 1e-2, 50)
    crt_phantom = DiskPhantom((0.0, 0.0), 5.0)
    g_line = sinogram_line_disk(crt_phantom, 0.0, 5.0 - t)
    crt_fit = _fit_sqrt_slope(t, g_line)
    crt_expected = 2.0 * math.sqrt(10.0)
    crt_rel = abs(crt_fit - crt_expected) / crt_expected

    cfg = grt_preset()
    family, phantom, scheme = cfg.build_family(), cfg.build_phantom(), cfg.build_scheme()
    (desc,) = tangency_enumerate(family, phantom, np.asarray(cfg.probe_x0), scheme)
    R = family.acquisition_radius
    g_plus = sinogram_circle_disk(phantom, R, desc.alpha_star, desc.p_star + t)
    g_minus = sinogram_circle_disk(phantom, R, desc.alpha_star, desc.p_star - t)
    g_circ = g_plus if np.max(g_plus) > np.max(g_minus) else g_minus
    grt_fit = _fit_sqrt_slope(t, g_circ)
    grt_expected = 2.0 * math.sqrt(2.0 / desc.curvature_gap)
    grt_rel = abs(grt_fit - grt_expected) / grt_expected

    passed = crt_rel <= 0.01 and grt_rel <= 0.01
    detail = (
        f"crt_fit={crt_fit:.5f} (expect {crt_expected:.5f}, rel {crt_rel:.2e}) "
        f"grt_fit={grt_fit:.5f} (expect {grt_expected:.5f}, rel {grt_rel:.2e})"
    )
    measured = {"crt_fit": crt_fit, "crt_rel": crt_rel, "grt_fit": grt_fit, "grt_rel": grt_rel}
    return passed, detail, measured


def _c07_tangency_geometry(ctx) -> tuple[bool, str, dict]:
    cfg = grt_preset()
    family, phantom, scheme = cfg.build_family(), cfg.build_phantom(), cfg.build_scheme()
    x0 = np.asarray(cfg.probe_x0)
    (desc,) = tangency_enumerate(family, phantom, x0, scheme)
    R = family.acquisition_radius
    vertex = R * np.array([math.cos(desc.alpha_star), math.sin(desc.alpha_star)])
    gap_center = float(np.hypot(*(phantom.center_array - vertex))) - phantom.radius
    gap_probe = float(np.hypot(*(x0 - vertex)))
    grt_ok = abs(gap_center - 2.24) <= 0.01 and abs(gap_probe - 2.24) <= 0.01

    crt = crt_preset()
    line_descs = tangency_enumerate(
        crt.build_family(), crt.build_phantom(), np.asarray(crt.probe_x0), crt.build_scheme()
    )
    mus = sorted(d.mu0 for d in line_descs)
    crt_ok = len(mus) == 2 and abs(mus[0] + 7.0) <= 1e-6 and abs(mus[1] - 7.0) <= 1e-6

    worst = 0.0
    rng = np.random.default_rng(23)
    for trial in range(100):
        if trial % 2 == 0:
            fam = line_family()
            a = tuple(rng.uniform(-5, 5, 2))
            r = rng.uniform(0.5, 4.0)
            phant = DiskPhantom(a, r, float(rng.choice([-1, 1]) * rng.uniform(0.5, 2.0)))
            while True:
                probe = rng.uniform(-10, 10, 2)
                if np.hypot(*(probe - phant.center_array)) > 1.05 * r:
                    break
            sch = SamplingScheme.half_circle(0.01, 200, shift=float(rng.uniform(0, 1)))
        else:
            Racq = rng.uniform(4.0, 8.0)
            fam = circle_family(Racq)
            while True:
                a = rng.uniform(-0.5 * Racq, 0.5 * Racq, 2)
                r = rng.uniform(0.5, 0.35 * Racq)
                if np.hypot(*a) + r < Racq - 0.2:
                    break
            phant = DiskPhantom(tuple(a), r, float(rng.choice([-1, 1]) * rng.uniform(0.5, 2.0)))
            while True:
                probe = rng.uniform(-0.9 * Racq, 0.9 * Racq, 2)
                if np.hypot(*probe) < 0.9 * Racq and np.hypot(*(probe - phant.center_array)) > 1.05 * r:
                    break
            sch = SamplingScheme.full_circle(0.01, 200, shift=float(rng.uniform(0, 1)))
        for d in tangency_enumerate(fam, phant, probe, sch):
            numeric = mu0_numeric(fam, phant, probe, d.alpha_star, d.branch)
            oriented = -numeric if d.flipped else numeric
            worst = max(worst, abs(d.mu0 - oriented) / max(1.0, abs(d.mu0)))

    passed = grt_ok and crt_ok and worst <= 1e-6
    detail = (
        f"circle gaps=({gap_center:.4f},{gap_probe:.4f}) line mu0=({mus[0]:.8f},{mus[1]:.8f}) "
        f"max|closed-numeric|={worst:.2e}"
    )
    measured = {
        "gap_center": gap_center,
        "gap_probe": gap_probe,
        "mu0_low": mus[0],
        "mu0_high": mus[1],
        "mu0_consistency": worst,
    }
    return passed, detail, measured


def _c08_crt_fidelity(ctx) -> tuple[bool, str, dict]:
    # criterion 9's coarse run, read at the 97 interior and 16 exterior points
    values = ctx.run(_crt_profile(0.02, 200, 0.03)).point_values
    mean_inside = float(np.mean(values[:97]))
    max_outside = float(np.max(np.abs(values[97:])))

    passed = abs(mean_inside - 1.0) <= 0.05 and max_outside <= 0.05
    detail = f"mean_interior={mean_inside:.6f} max_exterior={max_outside:.4f}"
    measured = {"mean_interior": mean_inside, "max_exterior": max_outside}
    return passed, detail, measured


def _c09_crt_convergence(ctx) -> tuple[bool, str, dict]:
    parts = []
    measured = {}
    passed = True
    for shift in (0.03, 0.2):
        coarse = ctx.run(_crt_profile(0.02, 200, shift)).metrics.relative_mismatch
        fine = ctx.run(_crt_profile(0.01, 400, shift)).metrics.relative_mismatch
        measured[f"delta={shift}"] = (coarse, fine)
        passed = passed and fine < coarse and fine <= 0.35
        parts.append(f"delta={shift}: rel {coarse:.3f} -> {fine:.3f}")
    return passed, " ".join(parts), measured


def _c10_grt_convergence(ctx) -> tuple[bool, str, dict]:
    coarse = ctx.run(_grt_profile(0.01, 500)).metrics.relative_mismatch
    fine = ctx.run(_grt_profile(0.005, 1000)).metrics.relative_mismatch
    passed = fine < coarse and fine <= 0.35
    detail = f"rel {coarse:.3f} -> {fine:.3f}"
    return passed, detail, {"coarse": coarse, "fine": fine}


def _all_profile_configs() -> list[ExperimentConfig]:
    configs = [_crt_profile(0.02, 200, s) for s in (0.03, 0.2)]
    configs += [_crt_profile(0.01, 400, s) for s in (0.03, 0.2)]
    configs += [_grt_profile(0.01, 500), _grt_profile(0.005, 1000)]
    return configs


def _c11_eta_robustness(ctx) -> tuple[bool, str, dict]:
    worst = 0.0
    for cfg in _all_profile_configs():
        base = ctx.run(cfg)
        doubled = ctx.run(cfg.with_overrides(eta=32))
        dev = float(np.max(np.abs(base.profile.recon_scaled - doubled.profile.recon_scaled)))
        worst = max(worst, dev / base.metrics.peak_to_peak)
    passed = worst <= 0.01
    detail = f"max profile change eta 16->32 = {worst:.2e} of peak-to-peak"
    return passed, detail, {"worst": worst}


def _c12_determinism(ctx) -> tuple[bool, str, dict]:
    identical = True
    parts = []
    for label, preset in (("crt", crt_preset), ("grt", grt_preset)):
        cfg = preset().with_overrides(artifacts=("profile", "report"))
        payloads = []
        for threads in (1, 3):
            with tempfile.TemporaryDirectory() as tmp:
                result = run_experiment(cfg, threads=threads)
                write_artifacts(result, tmp)
                with open(os.path.join(tmp, "profile.csv"), "rb") as f:
                    payloads.append(f.read())
        same = payloads[0] == payloads[1]
        identical = identical and same
        parts.append(f"{label}: {'identical' if same else 'DIFFER'}")
    return identical, " ".join(parts), {"identical": identical}


# (number, slug, check); each check returns (passed, detail, measured)
_CRITERIA = (
    (1, "psi-identities", _c01_psi_identities),
    (2, "psi-oracle", _c02_psi_oracle),
    (3, "psi-asymptotics", _c03_psi_asymptotics),
    (4, "psi-decay", _c04_psi_decay),
    (5, "hurwitz-tail", _c05_hurwitz_tail),
    (6, "sqrt-coefficient", _c06_sqrt_coefficient),
    (7, "tangency-geometry", _c07_tangency_geometry),
    (8, "crt-fidelity", _c08_crt_fidelity),
    (9, "crt-convergence", _c09_crt_convergence),
    (10, "grt-convergence", _c10_grt_convergence),
    (11, "eta-robustness", _c11_eta_robustness),
    (12, "determinism", _c12_determinism),
)

_SUITES = {
    "all": tuple(number for number, _, _ in _CRITERIA),
    "psi-properties": (1, 2, 3, 4, 5),
    "geometry": (6, 7),
    "hygiene": (11, 12),
}


def select(selector: str) -> tuple[int, ...]:
    if selector in _SUITES:
        return _SUITES[selector]
    for number, slug, _ in _CRITERIA:
        if selector == slug:
            return (number,)
    options = sorted(set(_SUITES) | {slug for _, slug, _ in _CRITERIA})
    raise ValueError(f"unknown suite {selector!r}; choose from {', '.join(options)}")


def run_criteria(numbers, threads: int = 1, context: AcceptanceContext | None = None):
    ctx = context if context is not None else AcceptanceContext(threads=threads)
    checks = {number: (slug, check) for number, slug, check in _CRITERIA}
    results = []
    for n in sorted(numbers):
        slug, check = checks[n]
        t0 = time.perf_counter()
        passed, detail, measured = check(ctx)
        measured["elapsed_s"] = time.perf_counter() - t0
        results.append(CriterionResult(n, slug, passed, detail, measured))
    return results


def format_line(result: CriterionResult) -> str:
    flag = "PASS" if result.passed else "FAIL"
    return f"criterion {result.number:2d} {result.slug:<18} {flag}  {result.detail}"


def format_report(results) -> str:
    lines = [format_line(r) for r in results]
    n_pass = sum(r.passed for r in results)
    lines.append(f"overall: {'PASS' if n_pass == len(results) else 'FAIL'} ({n_pass}/{len(results)} criteria)")
    return "\n".join(lines) + "\n"
