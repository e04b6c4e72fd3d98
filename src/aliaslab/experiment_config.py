"""Experiment configuration: flat ``key = value`` text files with dotted
sections, a normalized dataclass form, and builders for the domain
objects.

Run reports echo the resolved configuration as ``config.<key>`` lines;
the loader recognizes those, so a report file can be fed back as a
config and reproduces the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import DiskPhantom, RadonFamily, SamplingScheme, circle_family, line_family

__all__ = [
    "ConfigError", "ExperimentConfig", "parse_config_text", "load_config_file", "crt_preset", "grt_preset"
]

_ARTIFACTS = ("profile", "report", "roi-image", "global-image")
_THETA_MODES = ("radial", "minus-u0", "explicit")

# family-dependent defaults: angular origin of the view grid and the
# global-image field of view
_FAMILY_DEFAULTS = {
    "line": {"alpha_origin": -math.pi / 2, "image_half_extent": 10.0, "image_pixel_size": 0.02},
    "circle": {"alpha_origin": 0.0, "image_half_extent": 4.0, "image_pixel_size": 0.008},
}


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the field."""


@dataclass(frozen=True)
class ExperimentConfig:
    family: str
    phantom_center: tuple[float, float]
    phantom_radius: float
    epsilon: float
    n_views: int
    probe_x0: tuple[float, float]
    h_max: float
    phantom_jump: float = 1.0
    acquisition_radius: float | None = None
    shift: float = 0.0
    alpha_origin: float | None = None
    window: tuple[float, float] | None = None
    theta_mode: str = "radial"
    probe_theta: tuple[float, float] | None = None
    h_step: float = 0.25
    eta: int = 16
    quad_order: int = 32
    out_dir: str | None = None
    artifacts: tuple[str, ...] = ("profile", "report")
    image_half_extent: float | None = None
    image_pixel_size: float | None = None

    def __post_init__(self) -> None:
        if self.family not in ("line", "circle"):
            raise ConfigError(f"family: unknown value {self.family!r}")
        defaults = _FAMILY_DEFAULTS[self.family]
        for name, key in (
            ("alpha_origin", "alpha_origin"),
            ("image_half_extent", "image_half_extent"),
            ("image_pixel_size", "image_pixel_size"),
        ):
            if getattr(self, name) is None:
                object.__setattr__(self, name, defaults[key])
        object.__setattr__(self, "phantom_center", _pair(self.phantom_center, "phantom.center"))
        object.__setattr__(self, "probe_x0", _pair(self.probe_x0, "probe.x0"))
        if self.probe_theta is not None:
            object.__setattr__(self, "probe_theta", _pair(self.probe_theta, "probe.theta"))
        if self.window is not None:
            lo, hi = float(self.window[0]), float(self.window[1])
            if not hi > lo:
                raise ConfigError("scheme.window: empty angular window")
            object.__setattr__(self, "window", (lo, hi))

        if not self.phantom_radius > 0:
            raise ConfigError("phantom.radius: must be positive")
        if not self.epsilon > 0:
            raise ConfigError("scheme.epsilon: must be positive")
        if int(self.n_views) != self.n_views or self.n_views < 2:
            raise ConfigError("scheme.n_views: must be an integer >= 2")
        object.__setattr__(self, "n_views", int(self.n_views))
        if self.family == "circle":
            if self.acquisition_radius is None or not self.acquisition_radius > 0:
                raise ConfigError("acquisition.radius: required and positive for the circle family")
            if self.build_family().vertex_meets(self.build_phantom()):
                raise ConfigError(
                    "acquisition.radius: the acquisition circle meets the phantom; "
                    "need |radius - |phantom.center|| > phantom.radius"
                )
        elif self.acquisition_radius is not None:
            raise ConfigError("acquisition.radius: meaningless for the line family")
        if self.theta_mode not in _THETA_MODES:
            raise ConfigError(f"probe.theta_mode: unknown mode {self.theta_mode!r}")
        if self.theta_mode == "explicit":
            if self.probe_theta is None:
                raise ConfigError("probe.theta: required when probe.theta_mode = explicit")
            if not math.isclose(math.hypot(*self.probe_theta), 1.0, abs_tol=1e-9):
                raise ConfigError("probe.theta: must be a unit vector")
        elif self.probe_theta is not None:
            raise ConfigError("probe.theta: only allowed with probe.theta_mode = explicit")
        if not self.h_max > 0:
            raise ConfigError("probe.h_max: must be positive")
        if not self.h_step > 0:
            raise ConfigError("probe.h_step: must be positive")
        if abs(round(self.h_max / self.h_step) * self.h_step - self.h_max) > 1e-9:
            raise ConfigError("probe.h_step: must divide probe.h_max (symmetric grid through 0)")
        if int(self.eta) != self.eta or self.eta < 2:
            raise ConfigError("recon.eta: must be an integer >= 2")
        object.__setattr__(self, "eta", int(self.eta))
        if int(self.quad_order) != self.quad_order or self.quad_order < 8:
            raise ConfigError("recon.quad_order: must be an integer >= 8")
        object.__setattr__(self, "quad_order", int(self.quad_order))
        bad = [a for a in self.artifacts if a not in _ARTIFACTS]
        if bad:
            raise ConfigError(f"outputs.artifacts: unknown artifact(s) {bad}")
        ordered = tuple(a for a in _ARTIFACTS if a in self.artifacts)
        object.__setattr__(self, "artifacts", ordered)
        if not self.image_half_extent > 0:
            raise ConfigError("image.half_extent: must be positive")
        if not self.image_pixel_size > 0:
            raise ConfigError("image.pixel_size: must be positive")

    # -- builders -------------------------------------------------------
    def build_family(self) -> RadonFamily:
        if self.family == "line":
            return line_family()
        return circle_family(self.acquisition_radius)

    def build_phantom(self) -> DiskPhantom:
        return DiskPhantom(self.phantom_center, self.phantom_radius, self.phantom_jump)

    def build_scheme(self) -> SamplingScheme:
        return SamplingScheme(
            epsilon=self.epsilon,
            n_views=self.n_views,
            grid_span=self.build_family().angular_period,
            alpha_origin=self.alpha_origin,
            shift=self.shift,
            window=self.window,
        )

    def h_samples(self) -> np.ndarray:
        m = int(round(self.h_max / self.h_step))
        return self.h_step * np.arange(-m, m + 1)

    # -- text form ------------------------------------------------------
    def to_mapping(self) -> dict[str, str]:
        def num(x: float) -> str:
            return repr(float(x))

        def pair(p: tuple[float, float]) -> str:
            return f"{num(p[0])},{num(p[1])}"

        out = {
            "family": self.family,
            "phantom.center": pair(self.phantom_center),
            "phantom.radius": num(self.phantom_radius),
            "phantom.jump": num(self.phantom_jump),
        }
        if self.family == "circle":
            out["acquisition.radius"] = num(self.acquisition_radius)
        out.update(
            {
                "scheme.epsilon": num(self.epsilon),
                "scheme.n_views": str(self.n_views),
                "scheme.shift": num(self.shift),
                "scheme.alpha_origin": num(self.alpha_origin),
                "scheme.window": pair(self.window) if self.window is not None else "full",
                "probe.x0": pair(self.probe_x0),
                "probe.theta_mode": self.theta_mode,
            }
        )
        if self.probe_theta is not None:
            out["probe.theta"] = pair(self.probe_theta)
        out.update(
            {
                "probe.h_max": num(self.h_max),
                "probe.h_step": num(self.h_step),
                "recon.eta": str(self.eta),
                "recon.quad_order": str(self.quad_order),
                "outputs.artifacts": ",".join(self.artifacts),
                "image.half_extent": num(self.image_half_extent),
                "image.pixel_size": num(self.image_pixel_size),
            }
        )
        if self.out_dir is not None:
            out["outputs.directory"] = self.out_dir
        return out

    def to_text(self) -> str:
        return "\n".join(f"{k} = {v}" for k, v in self.to_mapping().items()) + "\n"

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "ExperimentConfig":
        data = dict(mapping)

        def take(key: str, default=None):
            return data.pop(key, default)

        def fnum(key: str, default=None):
            raw = take(key)
            if raw is None:
                return default
            try:
                return float(raw)
            except ValueError as exc:
                raise ConfigError(f"{key}: not a number: {raw!r}") from exc

        def fpair(key: str, default=None):
            raw = take(key)
            if raw is None:
                return default
            parts = raw.split(",")
            if len(parts) != 2:
                raise ConfigError(f"{key}: expected two comma-separated numbers")
            try:
                return (float(parts[0]), float(parts[1]))
            except ValueError as exc:
                raise ConfigError(f"{key}: not numeric: {raw!r}") from exc

        family = take("family")
        if family is None:
            raise ConfigError("family: missing")
        window_raw = take("scheme.window", "full")
        if window_raw == "full":
            window = None
        else:
            parts = window_raw.split(",")
            if len(parts) != 2:
                raise ConfigError("scheme.window: expected 'full' or 'lo,hi'")
            window = (float(parts[0]), float(parts[1]))
        artifacts_raw = take("outputs.artifacts", "profile,report")
        artifacts = tuple(a.strip() for a in artifacts_raw.split(",") if a.strip())

        kwargs = dict(
            family=family,
            phantom_center=fpair("phantom.center"),
            phantom_radius=fnum("phantom.radius"),
            phantom_jump=fnum("phantom.jump", 1.0),
            acquisition_radius=fnum("acquisition.radius"),
            epsilon=fnum("scheme.epsilon"),
            n_views=int(fnum("scheme.n_views", 0)),
            shift=fnum("scheme.shift", 0.0),
            alpha_origin=fnum("scheme.alpha_origin"),
            window=window,
            probe_x0=fpair("probe.x0"),
            theta_mode=take("probe.theta_mode", "radial"),
            probe_theta=fpair("probe.theta"),
            h_max=fnum("probe.h_max"),
            h_step=fnum("probe.h_step", 0.25),
            eta=int(fnum("recon.eta", 16)),
            quad_order=int(fnum("recon.quad_order", 32)),
            out_dir=take("outputs.directory"),
            artifacts=artifacts,
        )
        half = fnum("image.half_extent")
        px = fnum("image.pixel_size")
        if half is not None:
            kwargs["image_half_extent"] = half
        if px is not None:
            kwargs["image_pixel_size"] = px
        if data:
            raise ConfigError(f"unknown config key(s): {sorted(data)}")
        for key in ("phantom.center", "phantom.radius", "scheme.epsilon", "probe.x0", "probe.h_max"):
            attr = {
                "phantom.center": "phantom_center",
                "phantom.radius": "phantom_radius",
                "scheme.epsilon": "epsilon",
                "probe.x0": "probe_x0",
                "probe.h_max": "h_max",
            }[key]
            if kwargs[attr] is None:
                raise ConfigError(f"{key}: missing")
        return cls(**kwargs)

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        return replace(self, **kwargs)


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse config text; ``config.``-prefixed lines (run-report echo)
    take precedence and other lines are ignored when any are present."""
    plain: dict[str, str] = {}
    echoed: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        target = echoed if key.startswith("config.") else plain
        key = key.removeprefix("config.")
        if key in target:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        target[key] = value
    if echoed:
        return ExperimentConfig.from_mapping(echoed)
    if not plain:
        raise ConfigError("empty configuration")
    return ExperimentConfig.from_mapping(plain)


def load_config_file(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as f:
        return parse_config_text(f.read())


def crt_preset() -> ExperimentConfig:
    """Full-angle line-family run: unit disk jump of radius 5 at the
    origin, probe through x0 = (5, 7)."""
    return ExperimentConfig(
        family="line",
        phantom_center=(0.0, 0.0),
        phantom_radius=5.0,
        epsilon=0.02,
        n_views=200,
        shift=0.03,
        probe_x0=(5.0, 7.0),
        theta_mode="radial",
        h_max=11.0,
        h_step=0.25,
        artifacts=("profile", "report", "roi-image", "global-image"),
    )


def grt_preset() -> ExperimentConfig:
    """Limited-angle circle-family run: vertices on |x| = 5, disk of
    radius 2 at (1, 1), quarter-circle window around the tangent view."""
    alpha_star = 0.53 * math.pi
    return ExperimentConfig(
        family="circle",
        acquisition_radius=5.0,
        phantom_center=(1.0, 1.0),
        phantom_radius=2.0,
        epsilon=0.01,
        n_views=500,
        shift=0.0,
        window=(alpha_star - math.pi / 4.0, alpha_star + math.pi / 4.0),
        probe_x0=(-1.42, 2.95),
        theta_mode="minus-u0",
        h_max=6.0,
        h_step=0.25,
        artifacts=("profile", "report", "roi-image", "global-image"),
    )


def _pair(value, key: str) -> tuple[float, float]:
    try:
        a, b = value
        return (float(a), float(b))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: expected a pair of numbers") from exc
