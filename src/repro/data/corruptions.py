"""Common-corruption suite (the CIFAR10-C / ImageNet-C / VOC-C analog).

Sixteen corruptions in the paper's four categories, each with 5 severity
levels.  All functions take a float32 batch ``(N, C, H, W)`` in [0, 1] and
return a corrupted batch in [0, 1]; randomness is deterministic given the
seed.  Implementations follow Hendrycks & Dietterich (2019) scaled to small
images, built on numpy + scipy.ndimage only.  scipy is imported by the
functions that use it, so importing this module (which every ``repro``
process does) does not load it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.utils.rng import as_rng

CORRUPTION_CATEGORIES: dict[str, tuple[str, ...]] = {
    "noise": ("gaussian_noise", "shot_noise", "impulse_noise", "speckle_noise"),
    "blur": ("defocus_blur", "glass_blur", "motion_blur", "zoom_blur"),
    "weather": ("snow", "frost", "fog", "brightness"),
    "digital": ("contrast", "elastic", "pixelate", "jpeg"),
}

_REGISTRY: dict[str, Callable] = {}


def _register(name: str):
    def deco(fn):
        _REGISTRY[name] = fn
        return fn

    return deco


def available_corruptions() -> list[str]:
    """All corruption names, grouped order: noise, blur, weather, digital."""
    return [name for names in CORRUPTION_CATEGORIES.values() for name in names]


def category_of(name: str) -> str:
    for category, names in CORRUPTION_CATEGORIES.items():
        if name in names:
            return category
    raise KeyError(f"unknown corruption {name!r}")


def corrupt(
    images: np.ndarray,
    name: str,
    severity: int = 3,
    seed: int | np.random.Generator | None = 0,
) -> np.ndarray:
    """Apply corruption ``name`` at ``severity`` (1..5) to a batch."""
    if not 1 <= severity <= 5:
        raise ValueError(f"severity must be in 1..5, got {severity}")
    if images.ndim != 4:
        raise ValueError(f"expected (N, C, H, W) batch, got shape {images.shape}")
    try:
        fn = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown corruption {name!r}; available: {available_corruptions()}"
        ) from None
    out = fn(images.astype(np.float32), severity, as_rng(seed))
    return np.clip(out, 0.0, 1.0).astype(np.float32)


def _sev(values, severity: int):
    return values[severity - 1]


# -------------------------------------------------------------------- noise


@_register("gaussian_noise")
def gaussian_noise(x, severity, rng):
    sigma = _sev([0.04, 0.08, 0.12, 0.17, 0.22], severity)
    return x + rng.normal(0, sigma, x.shape).astype(np.float32)


@_register("shot_noise")
def shot_noise(x, severity, rng):
    lam = _sev([60.0, 25.0, 12.0, 7.0, 4.0], severity)
    return rng.poisson(x * lam).astype(np.float32) / lam


@_register("impulse_noise")
def impulse_noise(x, severity, rng):
    p = _sev([0.02, 0.04, 0.07, 0.11, 0.17], severity)
    out = x.copy()
    flip = rng.random(x.shape) < p
    salt = rng.random(x.shape) < 0.5
    out[flip & salt] = 1.0
    out[flip & ~salt] = 0.0
    return out


@_register("speckle_noise")
def speckle_noise(x, severity, rng):
    sigma = _sev([0.10, 0.18, 0.28, 0.40, 0.55], severity)
    return x + x * rng.normal(0, sigma, x.shape).astype(np.float32)


# --------------------------------------------------------------------- blur


def _disk_kernel(radius: float) -> np.ndarray:
    r = int(np.ceil(radius))
    yy, xx = np.mgrid[-r : r + 1, -r : r + 1]
    kernel = (yy**2 + xx**2 <= radius**2).astype(np.float32)
    return kernel / kernel.sum()


def _spatial_convolve(x: np.ndarray, kernel2d: np.ndarray) -> np.ndarray:
    """Convolve the two spatial axes of an NCHW batch with one 2-D kernel."""
    from scipy import ndimage

    kernel = kernel2d[None, None]
    return ndimage.convolve(x, kernel, mode="nearest")


@_register("defocus_blur")
def defocus_blur(x, severity, rng):
    radius = _sev([0.8, 1.2, 1.7, 2.3, 3.0], severity)
    return _spatial_convolve(x, _disk_kernel(radius))


@_register("glass_blur")
def glass_blur(x, severity, rng):
    from scipy import ndimage

    delta, iterations = _sev(
        [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3)], severity
    )
    n, c, h, w = x.shape
    out = x.copy()
    rows = np.arange(h)[:, None]
    cols = np.arange(w)[None, :]
    for _ in range(iterations):
        dy = rng.integers(-delta, delta + 1, size=(n, h, w))
        dx = rng.integers(-delta, delta + 1, size=(n, h, w))
        src_r = np.clip(rows[None] + dy, 0, h - 1)
        src_c = np.clip(cols[None] + dx, 0, w - 1)
        out = out[np.arange(n)[:, None, None, None], np.arange(c)[None, :, None, None],
                  src_r[:, None], src_c[:, None]]
    return ndimage.uniform_filter(out, size=(1, 1, 2, 2), mode="nearest")


def _motion_kernel(length: int, angle: float) -> np.ndarray:
    size = length if length % 2 else length + 1
    kernel = np.zeros((size, size), dtype=np.float32)
    center = size // 2
    ts = np.linspace(-center, center, 4 * size)
    rr = np.clip(np.round(center + ts * np.sin(angle)).astype(int), 0, size - 1)
    cc = np.clip(np.round(center + ts * np.cos(angle)).astype(int), 0, size - 1)
    kernel[rr, cc] = 1.0
    return kernel / kernel.sum()


@_register("motion_blur")
def motion_blur(x, severity, rng):
    length = _sev([3, 3, 5, 5, 7], severity)
    angle = rng.uniform(0, np.pi)
    return _spatial_convolve(x, _motion_kernel(length, angle))


@_register("zoom_blur")
def zoom_blur(x, severity, rng):
    from scipy import ndimage

    factors = _sev(
        [
            (1.0, 1.04),
            (1.0, 1.04, 1.08),
            (1.0, 1.06, 1.12),
            (1.0, 1.06, 1.12, 1.18),
            (1.0, 1.08, 1.16, 1.24),
        ],
        severity,
    )
    n, c, h, w = x.shape
    acc = np.zeros_like(x)
    for factor in factors:
        if factor == 1.0:
            acc += x
            continue
        zoomed = ndimage.zoom(x, (1, 1, factor, factor), order=1)
        zh, zw = zoomed.shape[2:]
        top, left = (zh - h) // 2, (zw - w) // 2
        acc += zoomed[:, :, top : top + h, left : left + w]
    return acc / len(factors)


# ------------------------------------------------------------------ weather


@_register("snow")
def snow(x, severity, rng):
    density, brightness = _sev(
        [(0.03, 0.5), (0.05, 0.6), (0.08, 0.7), (0.12, 0.75), (0.16, 0.8)], severity
    )
    n, c, h, w = x.shape
    flakes = (rng.random((n, 1, h, w)) < density).astype(np.float32)
    # Streak the flakes along a random direction to look like falling snow.
    streaked = _spatial_convolve(flakes, _motion_kernel(3, rng.uniform(np.pi / 3, 2 * np.pi / 3)))
    streaked = np.clip(streaked * 3.0, 0, 1)
    return x * (1 - brightness * streaked) + brightness * streaked


def _smooth_noise(rng, shape, sigma) -> np.ndarray:
    from scipy import ndimage

    noise = rng.random(shape).astype(np.float32)
    noise = ndimage.gaussian_filter(noise, sigma=(0, 0, sigma, sigma), mode="wrap")
    lo = noise.min(axis=(2, 3), keepdims=True)
    hi = noise.max(axis=(2, 3), keepdims=True)
    return (noise - lo) / (hi - lo + 1e-8)


@_register("frost")
def frost(x, severity, rng):
    from scipy import ndimage

    amount = _sev([0.20, 0.30, 0.40, 0.50, 0.60], severity)
    n, c, h, w = x.shape
    crystal = _smooth_noise(rng, (n, 1, h, w), sigma=1.0)
    crystal = (crystal > 0.6).astype(np.float32)
    crystal = ndimage.gaussian_filter(crystal, sigma=(0, 0, 0.6, 0.6))
    frost_color = np.array([0.85, 0.9, 1.0], dtype=np.float32).reshape(1, 3, 1, 1)
    return x * (1 - amount * crystal) + amount * crystal * frost_color


@_register("fog")
def fog(x, severity, rng):
    amount = _sev([0.25, 0.35, 0.45, 0.55, 0.65], severity)
    n, c, h, w = x.shape
    plasma = sum(
        _smooth_noise(rng, (n, 1, h, w), sigma=s) * wgt
        for s, wgt in [(1.0, 0.5), (2.0, 0.3), (4.0, 0.2)]
    )
    return x * (1 - amount) + amount * (0.6 + 0.4 * plasma)


@_register("brightness")
def brightness(x, severity, rng):
    shift = _sev([0.08, 0.14, 0.20, 0.27, 0.35], severity)
    return x + shift


# ------------------------------------------------------------------ digital


@_register("contrast")
def contrast(x, severity, rng):
    factor = _sev([0.75, 0.6, 0.45, 0.3, 0.2], severity)
    mean = x.mean(axis=(2, 3), keepdims=True)
    return (x - mean) * factor + mean


@_register("elastic")
def elastic(x, severity, rng):
    from scipy import ndimage

    alpha, sigma = _sev(
        [(1.0, 1.6), (1.5, 1.6), (2.0, 1.4), (2.5, 1.2), (3.0, 1.0)], severity
    )
    n, c, h, w = x.shape
    out = np.empty_like(x)
    rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    for i in range(n):
        dy = ndimage.gaussian_filter(rng.normal(0, 1, (h, w)), sigma) * alpha
        dx = ndimage.gaussian_filter(rng.normal(0, 1, (h, w)), sigma) * alpha
        coords = np.stack([rows + dy, cols + dx])
        for ch in range(c):
            out[i, ch] = ndimage.map_coordinates(
                x[i, ch], coords, order=1, mode="reflect"
            )
    return out


@_register("pixelate")
def pixelate(x, severity, rng):
    from scipy import ndimage

    factor = _sev([1.2, 1.5, 2.0, 2.7, 3.5], severity)
    n, c, h, w = x.shape
    small_h, small_w = max(int(h / factor), 2), max(int(w / factor), 2)
    small = ndimage.zoom(x, (1, 1, small_h / h, small_w / w), order=1)
    return ndimage.zoom(small, (1, 1, h / small.shape[2], w / small.shape[3]), order=0)[
        :, :, :h, :w
    ]


@_register("jpeg")
def jpeg(x, severity, rng):
    """JPEG-style block-DCT quantization (4x4 blocks for small images)."""
    from scipy.fft import dctn, idctn

    q = _sev([0.06, 0.10, 0.15, 0.22, 0.30], severity)
    block = 4
    n, c, h, w = x.shape
    ph, pw = (-h) % block, (-w) % block
    padded = np.pad(x, ((0, 0), (0, 0), (0, ph), (0, pw)), mode="edge")
    hh, ww = padded.shape[2:]
    blocks = padded.reshape(n, c, hh // block, block, ww // block, block)
    blocks = blocks.transpose(0, 1, 2, 4, 3, 5)  # (..., block, block)
    coeffs = dctn(blocks, axes=(-2, -1), norm="ortho")
    # Quantization step grows with frequency, as in JPEG tables.
    fy, fx = np.meshgrid(np.arange(block), np.arange(block), indexing="ij")
    steps = q * (1.0 + fy + fx)
    coeffs = np.round(coeffs / steps) * steps
    blocks = idctn(coeffs, axes=(-2, -1), norm="ortho")
    blocks = blocks.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, hh, ww)
    return blocks[:, :, :h, :w]
