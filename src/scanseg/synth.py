"""Synthetic paired-modality hidden-object scenes.

Each scene is a textured background with two to four random ellipses or
convex polygons on it.  In RGB the object color is blended toward the local
background with weight kappa — at kappa = 1 the objects are invisible in
RGB before noise.  In the X modality every object carries a fixed positive
intensity offset, so it stays visible regardless of kappa.  Occluders are
painted over everything in both modalities and removed from the mask, so
the ground truth marks visible object pixels only.

All randomness comes from a SplitMix64 stream seeded by (seed, index), so
a given configuration reproduces bit-for-bit on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .rng import SplitMix64, combine

__all__ = ["SceneConfig", "ModalityPair", "generate_scene"]

_TEXTURE_AMP = 0.03
_TEXTURE_CELL = 8


@dataclass(frozen=True)
class ModalityPair:
    """Aligned RGB image, X-modality image, and ground-truth mask.

    ``objects`` and ``occluders`` are generator-side extras (the
    pre-occlusion object union and the occluder coverage); they are None
    for pairs loaded from disk.
    """
    rgb: np.ndarray     # (3, H, W) in [0, 1]
    xmod: np.ndarray    # (1, H, W) in [0, 1]
    mask: np.ndarray    # (H, W) bool
    id: str
    objects: np.ndarray | None = None
    occluders: np.ndarray | None = None


@dataclass(frozen=True)
class SceneConfig:
    resolution: tuple = (64, 64)
    kappa: float = 0.5
    xmod_strength: float = 0.4
    occluder_density: float = 0.3
    noise_sigma: float = 0.02
    seed: int = 0

    def __post_init__(self):
        h, w = self.resolution
        if h < 8 or w < 8:
            raise ConfigError(f"resolution {h}x{w} too small")
        if not 0.0 <= self.kappa <= 1.0:
            raise ConfigError(f"kappa {self.kappa} outside [0, 1]")
        for name in ("xmod_strength", "occluder_density", "noise_sigma"):
            value = getattr(self, name)
            if not 0 <= value < np.inf:  # false for NaN too
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")


def _texture(rng: SplitMix64, h: int, w: int) -> np.ndarray:
    """Low-frequency field in [-amp, amp] from a coarse bilinear grid."""
    gh = h // _TEXTURE_CELL + 2
    gw = w // _TEXTURE_CELL + 2
    coarse = _TEXTURE_AMP * (2.0 * rng.uniform_array((gh, gw)) - 1.0)
    ys = np.linspace(0, gh - 1.001, h)
    xs = np.linspace(0, gw - 1.001, w)
    y0 = ys.astype(int)
    x0 = xs.astype(int)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    c00 = coarse[y0][:, x0]
    c01 = coarse[y0][:, x0 + 1]
    c10 = coarse[y0 + 1][:, x0]
    c11 = coarse[y0 + 1][:, x0 + 1]
    return (c00 * (1 - fy) * (1 - fx) + c01 * (1 - fy) * fx
            + c10 * fy * (1 - fx) + c11 * fy * fx)


def _ellipse_mask(rng: SplitMix64, h: int, w: int) -> np.ndarray:
    cy = rng.uniform(0.15, 0.85) * h
    cx = rng.uniform(0.15, 0.85) * w
    ry = rng.uniform(0.10, 0.20) * min(h, w)
    rx = rng.uniform(0.10, 0.20) * min(h, w)
    theta = rng.uniform(0.0, np.pi)
    ys, xs = np.mgrid[0:h, 0:w]
    dy, dx = ys - cy, xs - cx
    u = dx * np.cos(theta) + dy * np.sin(theta)
    v = -dx * np.sin(theta) + dy * np.cos(theta)
    return (u / rx) ** 2 + (v / ry) ** 2 <= 1.0


def _polygon_mask(rng: SplitMix64, h: int, w: int) -> np.ndarray:
    cy = rng.uniform(0.2, 0.8) * h
    cx = rng.uniform(0.2, 0.8) * w
    n = rng.randint(3, 6)
    base = rng.uniform(0.0, 2 * np.pi)
    angles = np.sort([base + rng.uniform(0, 2 * np.pi) for _ in range(n)])
    radius = rng.uniform(0.10, 0.22) * min(h, w)
    pts = [(cy + radius * rng.uniform(0.6, 1.0) * np.sin(a),
            cx + radius * rng.uniform(0.6, 1.0) * np.cos(a)) for a in angles]
    ys, xs = np.mgrid[0:h, 0:w]
    inside = np.ones((h, w), dtype=bool)
    # Convex by construction (angle-sorted rays from the center).
    for (y0, x0), (y1, x1) in zip(pts, pts[1:] + pts[:1]):
        cross = (x1 - x0) * (ys - y0) - (y1 - y0) * (xs - x0)
        inside &= cross >= 0
    return inside if inside.any() else _ellipse_mask(rng, h, w)


def _occluder_mask(rng: SplitMix64, h: int, w: int) -> np.ndarray:
    """A thin bar at a random angle and offset."""
    theta = rng.uniform(0.0, np.pi)
    offset = rng.uniform(-0.4, 0.4) * min(h, w)
    thickness = rng.uniform(0.02, 0.06) * min(h, w) + 1.0
    ys, xs = np.mgrid[0:h, 0:w]
    dist = ((xs - w / 2) * np.cos(theta) + (ys - h / 2) * np.sin(theta)
            - offset)
    return np.abs(dist) <= thickness


def generate_scene(cfg: SceneConfig, index: int) -> ModalityPair:
    rng = SplitMix64(combine(cfg.seed, index))
    h, w = cfg.resolution

    base_rgb = np.array([rng.uniform(0.25, 0.65) for _ in range(3)])
    rgb = base_rgb[:, None, None] + _texture(rng, h, w)[None]
    base_x = rng.uniform(0.2, 0.5)
    xmod = base_x + _texture(rng, h, w)
    bg_rgb = rgb.copy()
    bg_xmod = xmod.copy()

    def object_color() -> np.ndarray:
        color = np.empty(3)
        for c in range(3):
            offset = rng.uniform(0.3, 0.45)
            color[c] = base_rgb[c] + (offset if base_rgb[c] < 0.5 else -offset)
        return color

    def paint(shape: np.ndarray) -> None:
        color = object_color()
        blended = ((1.0 - cfg.kappa) * color[:, None]
                   + cfg.kappa * bg_rgb[:, shape])
        rgb[:, shape] = blended
        xmod[shape] = bg_xmod[shape] + cfg.xmod_strength

    object_union = np.zeros((h, w), dtype=bool)
    count = rng.randint(2, 4)
    shapes = []
    for _ in range(count):
        shape = (_ellipse_mask(rng, h, w) if rng.uniform() < 0.6
                 else _polygon_mask(rng, h, w))
        shapes.append(shape)
        paint(shape)
        object_union |= shape

    occluders = np.zeros((h, w), dtype=bool)
    n_occ = rng.randint(0, max(0, round(cfg.occluder_density * 8)))
    occ_color = np.array([rng.uniform(0.05, 0.2) for _ in range(3)])
    occ_x = rng.uniform(0.6, 0.95)
    for _ in range(n_occ):
        occluders |= _occluder_mask(rng, h, w)
    rgb[:, occluders] = occ_color[:, None]
    xmod[occluders] = occ_x

    mask = object_union & ~occluders
    if not mask.any():
        # Re-expose the first object so the scene keeps visible foreground;
        # drawn from the same stream state, so still deterministic.
        shape = shapes[0]
        occluders &= ~shape
        paint(shape)
        mask = shape.copy()

    rgb = rgb + cfg.noise_sigma * rng.normal_array((3, h, w))
    xmod = xmod + cfg.noise_sigma * rng.normal_array((h, w))
    return ModalityPair(rgb=np.clip(rgb, 0.0, 1.0),
                        xmod=np.clip(xmod, 0.0, 1.0)[None],
                        mask=mask, id=f"{index:05d}",
                        objects=object_union | mask, occluders=occluders)
