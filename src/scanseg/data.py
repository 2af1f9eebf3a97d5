"""Dataset directory layout and loading.

A dataset root holds three subdirectories with aligned stems:

    <root>/rgb/<stem>.ppm     8-bit color image
    <root>/x/<stem>.pgm       X-modality graymap (8- or 16-bit)
    <root>/mask/<stem>.pgm    binary ground truth (0 / max)

Loading returns the aligned triples in stem order plus a report of stems
with missing counterparts; nothing is dropped silently.  Every image of a
stem, and every stem, must share one resolution; a dataset that breaks this
is rejected with a ``DimensionError`` naming the offending stems.

A loaded triple keeps its RGB and X images as the files store their
samples, 1 or 2 bytes each, and decodes them to float64 on each access: a
256x256 pair holds 0.31 MiB instead of the 2.06 MiB of its decoded arrays.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError
# perfbench times image reads at scanseg.data.read_ppm and read_pgm, so
# read_ppm stays importable here though loading reads samples instead.
from .netpbm import (decode, read_pgm, read_ppm,  # noqa: F401
                     read_samples, write_pgm, write_ppm)
from .synth import ModalityPair

__all__ = ["LoadReport", "LoadedPair", "load_dataset", "save_pair"]


@dataclass
class LoadReport:
    errors: list = field(default_factory=list)

    def ok(self) -> bool:
        return not self.errors


class LoadedPair:
    """One stem of a dataset, read as ``ModalityPair`` is.  ``rgb`` (3, H,
    W) and ``xmod`` (1, H, W) are decoded from the files' samples on each
    access, into new float64 arrays bitwise equal to what ``read_ppm`` and
    ``read_pgm`` return; ``mask`` is the (H, W) bool ground truth."""

    __slots__ = ("id", "mask", "_rgb", "_xmod")
    objects = None
    occluders = None

    def __init__(self, id: str, rgb: tuple, xmod: tuple, mask: np.ndarray):
        self.id = id
        self.mask = mask
        self._rgb = rgb      # (samples, maxval), as read_samples returns
        self._xmod = xmod

    @property
    def rgb(self) -> np.ndarray:
        return decode(*self._rgb)

    @property
    def xmod(self) -> np.ndarray:
        return decode(*self._xmod)


def _stems(directory: str, suffix: str) -> set:
    if not os.path.isdir(directory):
        return set()
    return {name[:-len(suffix)] for name in os.listdir(directory)
            if name.endswith(suffix)}


def load_dataset(root: str) -> tuple[list[LoadedPair], LoadReport]:
    report = LoadReport()
    rgb_dir = os.path.join(root, "rgb")
    x_dir = os.path.join(root, "x")
    mask_dir = os.path.join(root, "mask")
    rgb_stems = _stems(rgb_dir, ".ppm")
    x_stems = _stems(x_dir, ".pgm")
    mask_stems = _stems(mask_dir, ".pgm")

    for stem in sorted(rgb_stems | x_stems | mask_stems):
        missing = [name for name, got in
                   (("rgb", stem in rgb_stems), ("x", stem in x_stems),
                    ("mask", stem in mask_stems)) if not got]
        if missing:
            report.errors.append(f"{stem}: missing {', '.join(missing)}")

    pairs = []
    for stem in sorted(rgb_stems & x_stems & mask_stems):
        rgb = read_samples(os.path.join(rgb_dir, f"{stem}.ppm"), b"P6")
        xmod = read_samples(os.path.join(x_dir, f"{stem}.pgm"), b"P5")
        mask = read_pgm(os.path.join(mask_dir, f"{stem}.pgm")) > 0.5
        pairs.append(LoadedPair(stem, rgb, xmod, mask))
    _check_resolutions(pairs)
    return pairs, report


def _hw(a: np.ndarray) -> str:
    return f"{a.shape[-2]}x{a.shape[-1]}"


def _check_resolutions(pairs: list[LoadedPair]) -> None:
    """Compares the shapes of the stored samples; nothing is decoded."""
    torn = [f"{p.id} (rgb {_hw(p._rgb[0])}, x {_hw(p._xmod[0])}, "
            f"mask {_hw(p.mask)})" for p in pairs
            if not p._rgb[0].shape[-2:] == p._xmod[0].shape[-2:] == p.mask.shape]
    if torn:
        raise DimensionError(
            f"images of a stem differ in size: {'; '.join(torn)}")
    sizes = Counter(_hw(p.mask) for p in pairs)
    if len(sizes) > 1:
        common, count = sizes.most_common(1)[0]
        odd = [f"{p.id} ({_hw(p.mask)})" for p in pairs if _hw(p.mask) != common]
        raise DimensionError(
            f"mixed resolutions: {count} stems at {common}, but "
            f"{', '.join(odd)}")


def save_pair(root: str, pair: ModalityPair, depth_16bit: bool = False) -> None:
    for sub in ("rgb", "x", "mask"):
        os.makedirs(os.path.join(root, sub), exist_ok=True)
    write_ppm(os.path.join(root, "rgb", f"{pair.id}.ppm"), pair.rgb)
    write_pgm(os.path.join(root, "x", f"{pair.id}.pgm"), pair.xmod[0],
              maxval=65535 if depth_16bit else 255)
    write_pgm(os.path.join(root, "mask", f"{pair.id}.pgm"),
              pair.mask.astype(np.float64))
