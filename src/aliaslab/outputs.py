"""Artifact writers: profile CSV, 16-bit PGM images with text sidecars,
and psi tables.

All text outputs are UTF-8 with LF line endings; floats are written by
``format_floats``, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import numpy as np

from .reconstruction import AliasProfile, ImageGrid

__all__ = [
    "PROFILE_HEADER",
    "format_floats",
    "write_profile_csv",
    "write_psi_table_csv",
    "write_pgm16",
]

PROFILE_HEADER = "h,recon_scaled_diff,prediction"


def format_floats(*values) -> str:
    """The values as floats, comma-separated, each written via repr (the
    shortest decimal that round-trips); the one number-to-text rule of
    every text output and of the config text."""
    return ",".join(repr(float(x)) for x in values)


def write_profile_csv(path, profile: AliasProfile) -> None:
    if profile.predicted is None:
        raise ValueError("profile prediction not filled in")
    lines = [PROFILE_HEADER]
    for h, rec, pred in zip(profile.h, profile.recon_scaled, profile.predicted):
        lines.append(format_floats(h, rec, pred))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def write_psi_table_csv(path, rows) -> None:
    """rows: iterable of (h_prime, a, psi_value)."""
    lines = ["h_prime,a,psi_value"]
    for h_prime, a, value in rows:
        lines.append(format_floats(h_prime, a, value))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def write_pgm16(path, image: ImageGrid) -> None:
    """Binary PGM (P5, maxval 65535, big-endian) plus a text sidecar
    recording the geometry and the linear value window used."""
    values = image.values
    vmin = float(values.min())
    vmax = float(values.max())
    with open(path, "wb") as f:
        f.write(f"P5\n{image.width} {image.height}\n65535\n".encode("ascii"))
        # round((values - vmin) / (vmax - vmin) * 65535) in one work array per
        # 64 rows; a whole-image one (8 B a pixel) set a raster run's peak RSS
        for start in range(0, image.height, 64):
            scaled = np.subtract(values[start : start + 64], vmin)
            if vmax > vmin:
                np.divide(scaled, vmax - vmin, out=scaled)
                np.multiply(scaled, 65535.0, out=scaled)
                np.round(scaled, out=scaled)
            else:
                scaled.fill(0.0)
            f.write(scaled.astype(">u2").data)
    sidecar = [
        "# image sidecar",
        f"origin = {format_floats(*image.origin)}",
        f"pixel_size = {format_floats(image.pixel_size)}",
        f"width = {image.width}",
        f"height = {image.height}",
        f"value_min = {format_floats(vmin)}",
        f"value_max = {format_floats(vmax)}",
        "row_order = first row at lowest y",
    ]
    with open(str(path) + ".txt", "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(sidecar) + "\n")
