"""Experiment configuration: flat ``key = value`` text files with dotted
sections, a normalized dataclass form, and builders for the domain
objects.

The dataclass fields are the schema: each carries its text key and the
kind of its value, and the text form reads and writes through them.
Run reports echo the resolved configuration as ``config.<key>`` lines;
the loader recognizes those, so a report file can be fed back as a
config and reproduces the run.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from .geometry import MAX_VIEWS, DiskPhantom, RadonFamily, SamplingScheme, circle_family, line_family
from .outputs import format_floats
from .reconstruction import ImageGrid

__all__ = [
    "ConfigError", "ExperimentConfig", "MAX_PROFILE_SAMPLES", "parse_config_text", "load_config_file", "crt_preset",
    "grt_preset",
]

_ARTIFACTS = ("profile", "report", "roi-image", "global-image")
_THETA_MODES = ("radial", "minus-u0", "explicit")

# the global-image field of view by family; each family's view grid is
# SamplingScheme.half_circle (line) or SamplingScheme.full_circle (circle)
_FAMILY_DEFAULTS = {
    "line": {"image_half_extent": 10.0, "image_pixel_size": 0.02},
    "circle": {"image_half_extent": 4.0, "image_pixel_size": 0.008},
}

# Most probe offsets a profile may have, 2*round(probe.h_max/probe.h_step) + 1;
# more is refused when the config is built, before anything is allocated.
# The presets use 89 and 49 offsets.  Views are capped by geometry.MAX_VIEWS,
# which the config checks first so that its error names scheme.n_views, and
# a global image by reconstruction.MAX_IMAGE_PIXELS (ImageGrid.side), whose
# error the config reports as image.pixel_size's.
MAX_PROFILE_SAMPLES = 2**16


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the field."""


def _key(key: str, kind: str, default=MISSING):
    """A config field with its text key and value kind (see ``_PARSE``)."""
    return field(default=default, metadata={"key": key, "kind": kind})


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    # in the order of the text form
    family: str = _key("family", "str")
    phantom_center: tuple[float, float] = _key("phantom.center", "pair")
    phantom_radius: float = _key("phantom.radius", "num")
    phantom_jump: float = _key("phantom.jump", "num", default=1.0)
    acquisition_radius: float | None = _key("acquisition.radius", "num", default=None)
    epsilon: float = _key("scheme.epsilon", "num")
    n_views: int = _key("scheme.n_views", "int")
    shift: float = _key("scheme.shift", "num", default=0.0)
    window: tuple[float, float] | None = _key("scheme.window", "window", default=None)
    probe_x0: tuple[float, float] = _key("probe.x0", "pair")
    theta_mode: str = _key("probe.theta_mode", "str", default="radial")
    probe_theta: tuple[float, float] | None = _key("probe.theta", "pair", default=None)
    h_max: float = _key("probe.h_max", "num")
    h_step: float = _key("probe.h_step", "num", default=0.25)
    eta: int = _key("recon.eta", "int", default=16)
    artifacts: tuple[str, ...] = _key("outputs.artifacts", "list", default=("profile", "report"))
    image_half_extent: float | None = _key("image.half_extent", "num", default=None)
    image_pixel_size: float | None = _key("image.pixel_size", "num", default=None)
    out_dir: str | None = _key("outputs.directory", "str", default=None)

    def __post_init__(self) -> None:
        for f in fields(self):
            key, kind, value = f.metadata["key"], f.metadata["kind"], getattr(self, f.name)
            if value is None or kind in ("list", "str"):
                continue
            if kind in ("pair", "window"):
                value = _pair(value, key)
                object.__setattr__(self, f.name, value)
            if not all(math.isfinite(x) for x in np.ravel(value)):
                raise ConfigError(f"{key}: must be finite, got {value!r}")
        if self.family not in ("line", "circle"):
            raise ConfigError(f"family: unknown value {self.family!r}")
        for name, default in _FAMILY_DEFAULTS[self.family].items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, default)
        if self.window is not None and not 0.0 < self.window[1] - self.window[0] <= 2.0 * math.pi + 1e-12:
            raise ConfigError("scheme.window: must be a nonempty angular window no longer than a full turn")

        if not self.phantom_radius > 0:
            raise ConfigError("phantom.radius: must be positive")
        if not self.epsilon > 0:
            raise ConfigError("scheme.epsilon: must be positive")
        if int(self.n_views) != self.n_views or self.n_views < 2:
            raise ConfigError("scheme.n_views: must be an integer >= 2")
        object.__setattr__(self, "n_views", int(self.n_views))
        if self.n_views > MAX_VIEWS:
            raise ConfigError(f"scheme.n_views: {self.n_views} views; at most MAX_VIEWS = {MAX_VIEWS}")
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
        ratio = self.h_max / self.h_step
        if not 2 * round(min(ratio, MAX_PROFILE_SAMPLES)) + 1 <= MAX_PROFILE_SAMPLES:
            raise ConfigError(
                f"probe.h_step: probe.h_max / probe.h_step = {ratio:.6g} asks for more than "
                f"MAX_PROFILE_SAMPLES = {MAX_PROFILE_SAMPLES} profile samples"
            )
        if abs(round(ratio) * self.h_step - self.h_max) > 1e-9:
            raise ConfigError("probe.h_step: must divide probe.h_max (symmetric grid through 0)")
        if int(self.eta) != self.eta or self.eta < 2:
            raise ConfigError("recon.eta: must be an integer >= 2")
        object.__setattr__(self, "eta", int(self.eta))
        bad = [a for a in self.artifacts if a not in _ARTIFACTS]
        if bad:
            raise ConfigError(f"outputs.artifacts: unknown artifact(s) {bad}")
        ordered = tuple(a for a in _ARTIFACTS if a in self.artifacts)
        object.__setattr__(self, "artifacts", ordered)
        if not self.image_half_extent > 0:
            raise ConfigError("image.half_extent: must be positive")
        if not self.image_pixel_size > 0:
            raise ConfigError("image.pixel_size: must be positive")
        if "global-image" in self.artifacts:
            try:
                side = ImageGrid.side(self.image_half_extent, self.image_pixel_size)
            except ValueError as exc:
                raise ConfigError(f"image.pixel_size: {exc}") from None
            if side < 1:
                raise ConfigError("image.pixel_size: a global image of 0 x 0 pixels; it needs at least one pixel")

    # -- builders -------------------------------------------------------
    def build_family(self) -> RadonFamily:
        if self.family == "line":
            return line_family()
        return circle_family(self.acquisition_radius)

    def build_phantom(self) -> DiskPhantom:
        return DiskPhantom(self.phantom_center, self.phantom_radius, self.phantom_jump)

    def build_scheme(self) -> SamplingScheme:
        grid = SamplingScheme.half_circle if self.family == "line" else SamplingScheme.full_circle
        return grid(self.epsilon, self.n_views, shift=self.shift, window=self.window)

    def h_samples(self) -> np.ndarray:
        m = int(round(self.h_max / self.h_step))
        return self.h_step * np.arange(-m, m + 1)

    # -- text form ------------------------------------------------------
    def to_mapping(self) -> dict[str, str]:
        out = {}
        for f in fields(self):
            value, kind = getattr(self, f.name), f.metadata["kind"]
            if value is not None or kind == "window":
                out[f.metadata["key"]] = _FORMAT[kind](value)
        return out

    def to_text(self) -> str:
        return "\n".join(f"{k} = {v}" for k, v in self.to_mapping().items()) + "\n"

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "ExperimentConfig":
        """Config from text values; a key left out takes the field default."""
        data = dict(mapping)
        kwargs = {}
        for f in fields(cls):
            key = f.metadata["key"]
            if key in data:
                kwargs[f.name] = _PARSE[f.metadata["kind"]](key, data.pop(key))
            elif f.default is MISSING:
                raise ConfigError(f"{key}: missing")
        if data:
            raise ConfigError(f"unknown config key(s): {sorted(data)}")
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


def _parse_num(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: not a number: {raw!r}") from exc


def _parse_pair(key: str, raw: str) -> tuple[float, float]:
    parts = raw.split(",")
    if len(parts) != 2:
        raise ConfigError(f"{key}: expected two comma-separated numbers")
    return (_parse_num(key, parts[0]), _parse_num(key, parts[1]))


# per value kind: text -> value (raising a ConfigError that names the key)
# and value -> text.  An int is parsed as a float, so that __post_init__
# rejects a fraction instead of truncating it.
_PARSE = {
    "num": _parse_num,
    "int": _parse_num,
    "pair": _parse_pair,
    "window": lambda key, raw: None if raw == "full" else _parse_pair(key, raw),
    "list": lambda key, raw: tuple(a.strip() for a in raw.split(",") if a.strip()),
    "str": lambda key, raw: raw,
}
_FORMAT = {
    "num": format_floats,
    "int": str,
    "pair": lambda p: format_floats(*p),
    "window": lambda w: "full" if w is None else format_floats(*w),
    "list": ",".join,
    "str": str,
}
