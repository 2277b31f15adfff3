"""Forward noising of grayscale images.

One noise family, blended into the image by a pixelwise convex
combination ``out = (1 - alpha) * img + alpha * noise``: power-law fields,
each pixel drawn from the density a * x^(a-1) on [0, 1) (inverse-CDF:
u^(1/a)), where small shape values pile mass near zero. Shape 1 is uniform
noise: the uniform schedule blends it with the fraction alpha as the
noising level, and the power schedule varies the shape at one alpha, 0.75
by default.

A schedule applies one fresh noise field per step to the ORIGINAL image
(independent noisings, not a chained walk), with per-step generators split
off a single master seed; a cumulative flag chains them instead. It makes
each step's image only when asked for the next one, so a caller that writes
each image out and drops it holds one step at a time. Only the forward
direction exists here; nothing denoises.

Images are immutable [0, 1] rasters. They are written as binary (P5) PGM
at 8-bit quantization; binary and ASCII (P2) PGM are read.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rng import SplitMix64

# A PGM header token after whitespace and whole '#' comments (no token starts with '#').
_PGM_TOKEN = re.compile(rb"(?:\s|#[^\n]*(?=\n|\Z))*(?!#)(\S+)")


@dataclass(frozen=True)
class GrayImage:
    """Row-major grayscale raster with every pixel in [0, 1].

    The image keeps a read-only float64 array of its pixels that no caller
    can write to. It copies the pixels it is given unless the array that
    owns their memory is already read-only (the given array itself, or the
    array it views): then no writable array shares that memory, and the
    pixels are kept as given. Every array this module makes is frozen
    before it is wrapped, so no image of it is a copy."""

    width: int
    height: int
    pixels: np.ndarray  # shape (height, width), float64, read-only

    def __post_init__(self) -> None:
        px = np.asarray(self.pixels, dtype=float)
        if px.shape != (self.height, self.width):
            raise ValueError(
                f"pixel block {px.shape} does not match {self.height}x{self.width}"
            )
        if px.size and (px.min() < 0.0 or px.max() > 1.0):
            raise ValueError("pixels must lie in [0, 1]")
        owner = px if px.base is None else px.base
        if not (isinstance(owner, np.ndarray) and owner.flags.owndata
                and not owner.flags.writeable):
            px = px.copy()
            px.flags.writeable = False
        object.__setattr__(self, "pixels", px)


@dataclass(frozen=True)
class PowerMask:
    """Power-law noise with density shape * x^(shape-1), blended at
    fraction ``alpha``."""

    shape: float
    alpha: float = 0.75

    def __post_init__(self) -> None:
        if not (0 < self.shape < math.inf):  # also rejects nan
            raise ValueError(f"shape must be positive and finite, got {self.shape}")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")


@dataclass(frozen=True)
class NoiseSchedule:
    steps: tuple[PowerMask, ...]

    def __post_init__(self) -> None:
        if len(self.steps) == 0:
            raise ValueError("a schedule needs at least one step")


# Default level ladders: uniform blends span 0.2 -> 0.9 evenly; power
# shapes sharpen toward 0.
DEFAULT_UNIFORM_ALPHAS = (0.2, 0.375, 0.55, 0.725, 0.9)
DEFAULT_POWER_SHAPES = (0.8, 0.6, 0.4, 0.2, 0.01)


def uniform_schedule(alphas=DEFAULT_UNIFORM_ALPHAS) -> NoiseSchedule:
    return NoiseSchedule(tuple(PowerMask(1.0, a) for a in alphas))


def power_schedule(shapes=DEFAULT_POWER_SHAPES, alpha: float = 0.75) -> NoiseSchedule:
    return NoiseSchedule(tuple(PowerMask(s, alpha) for s in shapes))


def gen_noise_field(w: int, h: int, shape: float, seed: int) -> GrayImage:
    """I.i.d. power-law noise raster of the given shape, generated row-major
    from the seeded project RNG."""
    if w < 1 or h < 1:
        raise ValueError(f"field must be at least 1x1, got {w}x{h}")
    flat = SplitMix64(seed).floats(w * h)
    if shape != 1.0:  # u ** 1.0 is u
        # float_power's float64 loop calls libm pow on each element, as float **
        # does; numpy's power differs in the last ulp on AVX-512. The values
        # still depend on which pow variant (FMA or not) libm picks.
        np.float_power(flat, 1.0 / shape, out=flat)
    flat.flags.writeable = False
    return GrayImage(width=w, height=h, pixels=flat.reshape(h, w))


def blend(img: GrayImage, noise: GrayImage, alpha: float) -> GrayImage:
    """Pixelwise convex combination; alpha 0 returns the image bit-identical,
    alpha 1 the noise."""
    if (img.width, img.height) != (noise.width, noise.height):
        raise ValueError(
            f"dimension mismatch: {img.width}x{img.height} vs {noise.width}x{noise.height}"
        )
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if alpha == 0.0:
        return img
    if alpha == 1.0:
        return noise
    # a + alpha*(b - a) stays inside [min(a,b), max(a,b)] under IEEE rounding.
    # In place in one array: IEEE * and + commute, so the bits are the same.
    out = noise.pixels - img.pixels
    out *= alpha
    out += img.pixels
    out.flags.writeable = False
    return GrayImage(width=img.width, height=img.height, pixels=out)


def run_schedule(
    img: GrayImage, sched: NoiseSchedule, seed: int, cumulative: bool = False
) -> Iterator[GrayImage]:
    """One noised image per schedule step, each made when it is asked for.
    Each step blends the original image with a fresh field from a split
    sub-generator; with ``cumulative`` set, each step blends the previous
    step's result."""
    master = SplitMix64(seed)
    base = img
    for mask in sched.steps:
        sub_seed = master.split().next_u64()
        noised = blend(base, gen_noise_field(base.width, base.height, mask.shape, sub_seed),
                       mask.alpha)
        if cumulative:
            base = noised
        yield noised
        del noised  # so a caller that drops each image holds one at a time


def image_stats(img: GrayImage) -> tuple[float, float]:
    """Exact sample mean and population variance of the pixels."""
    px = img.pixels.ravel()
    mean = float(px.mean())
    d = px - mean
    d *= d
    return mean, float(d.mean())


def pgm_bytes(img: GrayImage) -> bytes:
    """Binary P5 encoding, maxval 255, pixel = round(value * 255)."""
    scaled = img.pixels * 255.0
    quant = np.rint(scaled, out=scaled).astype(np.uint8)
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + quant.tobytes()


def read_pgm(path: str | Path) -> GrayImage:
    """Read binary P5 or ASCII P2, mapping raw values to value/maxval."""
    data = Path(path).read_bytes()
    magic = data[:2]
    if magic not in (b"P5", b"P2"):
        raise ValueError(f"not a PGM file (magic {magic!r})")

    tokens: list[bytes] = []
    pos = 2
    for _ in range(3):
        token = _PGM_TOKEN.match(data, pos)
        if token is None:
            raise ValueError("truncated PGM header")
        tokens.append(token[1])
        pos = token.end()
    w, h, maxval = (int(t) for t in tokens)
    if w < 1 or h < 1:
        raise ValueError(f"PGM size must be at least 1x1, got {w}x{h}")
    if maxval < 1 or maxval > 255:
        raise ValueError(f"unsupported maxval {maxval}")

    if magic == b"P5":
        pos += 1  # single whitespace byte after maxval
        found = len(data) - pos
        if found < w * h:
            raise ValueError(f"expected {w * h} pixels, found {max(found, 0)}")
        raster = np.frombuffer(data, dtype=np.uint8, count=w * h, offset=pos)
    else:
        values = data[pos:].split()
        if len(values) < w * h:
            raise ValueError(f"expected {w * h} pixels, found {len(values)}")
        raster = np.array([int(v) for v in values[: w * h]])
    lo, hi = raster.min(), raster.max()
    if lo < 0 or hi > maxval:
        raise ValueError(f"PGM pixel value {lo if lo < 0 else hi} is outside 0..{maxval}")
    pixels = raster.reshape(h, w).astype(float)
    pixels /= float(maxval)
    pixels.flags.writeable = False
    return GrayImage(width=w, height=h, pixels=pixels)


def synthetic_portrait(w: int = 96, h: int = 96) -> GrayImage:
    """Deterministic stand-in subject for the noising demos: radial vignette
    with a bright diagonal band."""
    ys, xs = np.mgrid[0:h, 0:w]
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    r = np.sqrt(((xs - cx) / w) ** 2 + ((ys - cy) / h) ** 2)
    band = np.exp(-(((xs - ys) / (0.18 * (w + h))) ** 2))
    img = np.clip(0.85 - 1.1 * r + 0.35 * band, 0.0, 1.0)
    img.flags.writeable = False
    return GrayImage(width=w, height=h, pixels=img)
