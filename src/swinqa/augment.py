"""Training-time input pipeline: geometric/photometric augmentation,
sample mixing with soft labels, erasing, resize, and normalization.

All ops work on float images in [0, 1] (normalization is the final step)
and are deterministic functions of (input, config, rng state). The
evaluation path applies only resize + normalize.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .data import convolve_nearest, histogram_equalize, pixels01
from .tensor import default_dtype

IMAGENET_MEAN = (0.485, 0.456, 0.406)
IMAGENET_STD = (0.229, 0.224, 0.225)

# magnitude-10 extremes for the geometric/photometric op scales
_MAX_ROTATE_DEG = 30.0
_MAX_TRANSLATE_FRAC = 0.3
_MAX_SHEAR = 0.3
_MAX_ENHANCE = 0.9      # brightness/contrast/sharpness factor 1 +- this
_MIN_POSTERIZE_BITS = 4

_FILL = 0.5  # what a geometric op reads outside the image
_LUMA = np.array([0.299, 0.587, 0.114])
_SMOOTH_KERNEL = np.array([[1.0, 1, 1], [1, 5, 1], [1, 1, 1]]) / 13.0


@dataclass(frozen=True)
class AugConfig:
    randaug_n: int = 2
    randaug_magnitude: float = 9.0
    mixup_alpha: float = 0.8
    cutmix_alpha: float = 1.0
    mix_switch_prob: float = 0.5
    erase_prob: float = 0.25
    erase_scale: tuple[float, float] = (0.02, 0.33)
    erase_aspect: tuple[float, float] = (0.3, 3.3)
    jitter_strength: float = 0.4
    normalize_mean: tuple[float, float, float] = IMAGENET_MEAN
    normalize_std: tuple[float, float, float] = IMAGENET_STD

    def __post_init__(self):
        for name in ("mix_switch_prob", "erase_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.mixup_alpha <= 0 or self.cutmix_alpha <= 0:
            raise ValueError("mixing alphas must be positive")
        for name in ("erase_scale", "erase_aspect"):
            lo, hi = getattr(self, name)
            if not 0 < lo <= hi:
                raise ValueError(f"{name} must be ordered and positive")
        if self.erase_scale[1] > 1:  # no rectangle of a draw above 1 fits the image
            raise ValueError(f"erase_scale is a fraction of the image area, at most 1, "
                             f"got {self.erase_scale}")
        if self.jitter_strength < 0 or self.randaug_n < 0:
            raise ValueError("jitter_strength and randaug_n must be non-negative")
        if not 0 <= self.randaug_magnitude <= 10:
            raise ValueError("randaug_magnitude is on a 0-10 scale")
        if not all(s > 0 for s in self.normalize_std):
            raise ValueError(f"normalize_std must be positive, got {self.normalize_std}")


@dataclass
class LabeledBatch:
    """Images [B, H, W, C] in [0, 1] (pre-normalization), C 1 (grayscale) or
    3, with soft labels [B, K]; label rows sum to 1."""

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.images.ndim != 4 or self.images.shape[0] != self.labels.shape[0]:
            raise ValueError(
                f"images {self.images.shape} / labels {self.labels.shape} disagree")
        sums = self.labels.sum(axis=-1)
        if not np.all(np.abs(sums - 1.0) <= 1e-6):
            raise ValueError("label rows must sum to 1")


# ------------------------------------------------------- resize / normalize


def _channels01(image: np.ndarray) -> np.ndarray:
    """Float [h, w, 1] (grayscale) or [h, w, 3] (color) view of an image;
    uint8 pixels are read through pixels01."""
    img = np.asarray(pixels01(image), dtype=np.float64)
    if img.ndim == 2:
        img = img[:, :, None]
    if img.ndim != 3 or img.shape[-1] not in (1, 3):
        raise ValueError(f"expected [h, w], [h, w, 1] or [h, w, 3], got {image.shape}")
    return img


def to_rgb01(image: np.ndarray) -> np.ndarray:
    """Float [h, w, 3] view of a grayscale or color image."""
    img = _channels01(image)
    return img if img.shape[-1] == 3 else np.repeat(img, 3, axis=-1)


def bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resample with half-pixel centers (src = (dst+0.5)*scale - 0.5)."""
    h, w = img.shape[:2]
    if h == 0 or w == 0 or out_h <= 0 or out_w <= 0:
        raise ValueError(f"cannot resize {img.shape} to {out_h}x{out_w}")
    if (h, w) == (out_h, out_w):
        return img.copy()
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    fy = (ys - y0)[:, None, None]
    fx = (xs - x0)[None, :, None]
    y0c, y1c = np.clip(y0, 0, h - 1), np.clip(y0 + 1, 0, h - 1)
    x0c, x1c = np.clip(x0, 0, w - 1), np.clip(x0 + 1, 0, w - 1)
    top = img[y0c][:, x0c] * (1 - fx) + img[y0c][:, x1c] * fx
    bot = img[y1c][:, x0c] * (1 - fx) + img[y1c][:, x1c] * fx
    return top * (1 - fy) + bot * fy


def normalize(img: np.ndarray, cfg: AugConfig, out: np.ndarray | None = None) -> np.ndarray:
    """(img - mean) / std for each of the three channels, written into
    `out` (new when None) channel by channel: over a 3-wide last axis
    that is several times faster than broadcasting, with the same
    float64 ops. A 1-channel img feeds all three channels."""
    if out is None:
        out = np.empty(img.shape[:-1] + (3,))
    for c, (mean, std) in enumerate(zip(cfg.normalize_mean, cfg.normalize_std)):
        oc = out[..., c]
        np.subtract(img[..., c if img.shape[-1] == 3 else 0], mean, out=oc)
        oc /= std
    return out


def resize_normalize(image: np.ndarray, out_h: int, out_w: int, cfg: AugConfig,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Grayscale-tolerant bilinear resize to [out_h, out_w, 3], then
    per-channel standardization into `out` (new when None). A grayscale
    image is resized as one plane, and an image already at the size is
    read in place."""
    img = _channels01(image)
    if img.shape[:2] != (out_h, out_w):
        img = bilinear_resize(img, out_h, out_w)
    return normalize(img, cfg, out)


# ------------------------------------------------------------------ mixing


def _one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.ndim == 2:
        return labels.astype(np.float64)
    return np.eye(num_classes)[labels.astype(int)]


def mixup(batch: LabeledBatch, alpha: float, rng) -> LabeledBatch:
    """Blend every sample with a permuted partner at a single Beta(a, a) weight."""
    b = batch.images.shape[0]
    if b < 2:
        raise ValueError("mixup needs a batch of at least 2")
    lam = float(rng.beta(alpha, alpha))
    perm = rng.permutation(b)
    images = lam * batch.images + (1.0 - lam) * batch.images[perm]
    labels = lam * batch.labels + (1.0 - lam) * batch.labels[perm]
    return LabeledBatch(images, labels)


def cutmix(batch: LabeledBatch, alpha: float, rng) -> LabeledBatch:
    """Paste a partner rectangle of target area (1 - lambda) * H * W; label
    weights use the realized (clipped) pasted area."""
    b, h, w = batch.images.shape[:3]
    if b < 2:
        raise ValueError("cutmix needs a batch of at least 2")
    lam = float(rng.beta(alpha, alpha))
    perm = rng.permutation(b)
    cut = math.sqrt(max(0.0, 1.0 - lam))
    ch, cw = int(round(h * cut)), int(round(w * cut))
    cy = int(rng.integers(0, h))
    cx = int(rng.integers(0, w))
    y1, y2 = max(0, cy - ch // 2), min(h, cy + (ch + 1) // 2)
    x1, x2 = max(0, cx - cw // 2), min(w, cx + (cw + 1) // 2)
    images = batch.images.copy()
    images[:, y1:y2, x1:x2] = batch.images[perm, y1:y2, x1:x2]
    lam_real = 1.0 - (y2 - y1) * (x2 - x1) / (h * w)
    labels = lam_real * batch.labels + (1.0 - lam_real) * batch.labels[perm]
    return LabeledBatch(images, labels)


def mix_batch(batch: LabeledBatch, cfg: AugConfig, rng) -> LabeledBatch:
    """Apply exactly one of CutMix (with mix_switch_prob) or MixUp."""
    if rng.random() < cfg.mix_switch_prob:
        return cutmix(batch, cfg.cutmix_alpha, rng)
    return mixup(batch, cfg.mixup_alpha, rng)


# ----------------------------------------------------------------- erasing


def random_erasing(image: np.ndarray, cfg: AugConfig, rng) -> np.ndarray:
    """With probability erase_prob, replace one rectangle of a three-plane
    copy of the image with uniform noise; else return the image as it is.
    Rectangle area/aspect are drawn from the configured ranges (aspect
    log-uniform), rejection-sampled at most 10 times."""
    if rng.random() >= cfg.erase_prob:
        return image
    h, w = image.shape[:2]
    for _ in range(10):
        target = rng.uniform(*cfg.erase_scale) * h * w
        log_lo, log_hi = math.log(cfg.erase_aspect[0]), math.log(cfg.erase_aspect[1])
        aspect = math.exp(rng.uniform(log_lo, log_hi))
        eh = int(round(math.sqrt(target * aspect)))
        ew = int(round(math.sqrt(target / aspect)))
        if 0 < eh <= h and 0 < ew <= w:
            top = int(rng.integers(0, h - eh + 1))
            left = int(rng.integers(0, w - ew + 1))
            out = to_rgb01(image).copy()
            out[top:top + eh, left:left + ew] = rng.random((eh, ew, 3))
            return out
    return image


# ------------------------------------------------------------- randaugment


@functools.lru_cache(maxsize=None)
def _centered_grid(h: int, w: int) -> tuple:
    """Row and column offsets of every pixel from the image center, [h, w] each."""
    rows, cols = np.meshgrid(np.arange(h, dtype=np.float64),
                             np.arange(w, dtype=np.float64), indexing="ij")
    dr, dc = rows - (h - 1) / 2.0, cols - (w - 1) / 2.0
    dr.flags.writeable = dc.flags.writeable = False
    return dr, dc


def _affine_sample(img: np.ndarray, inv: np.ndarray, offset) -> np.ndarray:
    """Inverse-mapped bilinear warp about the image center of img [h, w, C].

    For output pixel p (row, col), samples the input at
    inv @ (p - center) + center + offset; out-of-range taps read _FILL.
    """
    h, w, c = img.shape
    dr, dc = _centered_grid(h, w)
    sr = inv[0, 0] * dr + inv[0, 1] * dc + (h - 1) / 2.0 + offset[0]
    sc = inv[1, 0] * dr + inv[1, 1] * dc + (w - 1) / 2.0 + offset[1]
    r0 = np.floor(sr).astype(int)
    c0 = np.floor(sc).astype(int)
    fr = (sr - r0)[:, :, None]
    fc = (sc - c0)[:, :, None]
    # gather the four taps with one index into a copy of the image inside a
    # 2-pixel border of _FILL: clamping the top-left tap to [-2, h] x [-2, w]
    # sends every out-of-range tap into the border and moves no in-range one
    hp, wp = h + 4, w + 4
    src = np.full((hp, wp, c), _FILL, dtype=img.dtype)
    src[2:-2, 2:-2] = img
    base = (np.minimum(np.maximum(r0, -2), h) + 2) * wp + np.minimum(np.maximum(c0, -2), w) + 2
    t00, t01, t10, t11 = src.reshape(hp * wp, c)[np.stack([base, base + 1, base + wp,
                                                           base + (wp + 1)])]
    gr, gc = 1 - fr, 1 - fc
    return gr * gc * t00 + gr * fc * t01 + fr * gc * t10 + fr * fc * t11


def rotate(img: np.ndarray, degrees: float) -> np.ndarray:
    """Rotate content by `degrees`: the pixel at center offset (dr, dc) moves
    to (dr cos t - dc sin t, dr sin t + dc cos t)."""
    t = math.radians(degrees)
    inv = np.array([[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]])
    return _affine_sample(img, inv, (0.0, 0.0))


def translate(img: np.ndarray, d_rows: float, d_cols: float) -> np.ndarray:
    return _affine_sample(img, np.eye(2), (-d_rows, -d_cols))


def shear(img: np.ndarray, axis: int, factor: float) -> np.ndarray:
    """Shear columns by rows (axis=1) or rows by columns (axis=0)."""
    inv = np.eye(2)
    if axis == 1:
        inv[1, 0] = -factor
    else:
        inv[0, 1] = -factor
    return _affine_sample(img, inv, (0.0, 0.0))


# _luminance_mean and adjust_saturation, the only ops that mix channels,
# read a grayscale plane as three equal channels: one plane gives the bits
# its RGB copy would
def _luminance_mean(img: np.ndarray) -> float:
    return float((to_rgb01(img) @ _LUMA).mean())


def adjust_brightness(img: np.ndarray, factor: float) -> np.ndarray:
    return np.clip(img * factor, 0.0, 1.0)


def adjust_contrast(img: np.ndarray, factor: float) -> np.ndarray:
    mean = _luminance_mean(img)
    return np.clip(mean + (img - mean) * factor, 0.0, 1.0)


def adjust_saturation(img: np.ndarray, factor: float) -> np.ndarray:
    gray = (to_rgb01(img) @ _LUMA)[:, :, None]
    return np.clip(gray + (img - gray) * factor, 0.0, 1.0)


def adjust_sharpness(img: np.ndarray, factor: float) -> np.ndarray:
    smooth = convolve_nearest(img, _SMOOTH_KERNEL)
    return np.clip(smooth + (img - smooth) * factor, 0.0, 1.0)


def posterize(img: np.ndarray, bits: int) -> np.ndarray:
    keep = max(1, min(8, bits))
    q = (np.clip(img, 0.0, 1.0) * 255).astype(np.uint8) & ((0xFF << (8 - keep)) & 0xFF)
    return q / 255.0


def autocontrast(img: np.ndarray) -> np.ndarray:
    out = img.copy()
    for c in range(img.shape[2]):
        lo, hi = img[:, :, c].min(), img[:, :, c].max()
        if hi > lo:
            out[:, :, c] = (img[:, :, c] - lo) / (hi - lo)
    return out


def equalize(img: np.ndarray) -> np.ndarray:
    return np.stack([histogram_equalize(img[:, :, c]) for c in range(img.shape[2])],
                    axis=-1)


# each RandAugment op, applied to an h x w image at sign s (+1 or -1) and
# 0-1 magnitude m
_RANDAUG = {
    "identity": lambda img, s, m, h, w: img,
    "rotate": lambda img, s, m, h, w: rotate(img, s * _MAX_ROTATE_DEG * m),
    "translate_x": lambda img, s, m, h, w: translate(
        img, 0.0, round(s * _MAX_TRANSLATE_FRAC * m * w)),
    "translate_y": lambda img, s, m, h, w: translate(
        img, round(s * _MAX_TRANSLATE_FRAC * m * h), 0.0),
    "shear_x": lambda img, s, m, h, w: shear(img, 1, s * _MAX_SHEAR * m),
    "shear_y": lambda img, s, m, h, w: shear(img, 0, s * _MAX_SHEAR * m),
    "brightness": lambda img, s, m, h, w: adjust_brightness(img, 1.0 + s * _MAX_ENHANCE * m),
    "contrast": lambda img, s, m, h, w: adjust_contrast(img, 1.0 + s * _MAX_ENHANCE * m),
    "sharpness": lambda img, s, m, h, w: adjust_sharpness(img, 1.0 + s * _MAX_ENHANCE * m),
    "posterize": lambda img, s, m, h, w: posterize(
        img, 8 - int(round((8 - _MIN_POSTERIZE_BITS) * m))),
    "autocontrast": lambda img, s, m, h, w: autocontrast(img),
    "equalize": lambda img, s, m, h, w: equalize(img),
}
RANDAUGMENT_OPS = tuple(_RANDAUG)


def rand_augment(image: np.ndarray, n: int, magnitude: float, rng) -> np.ndarray:
    """Apply n ops drawn uniformly with replacement from RANDAUGMENT_OPS at
    the given 0-10 magnitude, each at a random sign; output stays in
    [0, 1]. An [h, w] image is read as [h, w, 1]."""
    img = _channels01(image)
    h, w = img.shape[:2]
    for _ in range(n):
        op = _RANDAUG[RANDAUGMENT_OPS[int(rng.integers(0, len(RANDAUGMENT_OPS)))]]
        sign = 1.0 if rng.random() < 0.5 else -1.0
        img = op(img, sign, magnitude / 10.0, h, w)
    return np.clip(img, 0.0, 1.0)


def color_jitter(image: np.ndarray, strength: float, rng) -> np.ndarray:
    """Scale brightness/contrast/saturation by factors uniform in
    [1-s, 1+s], in random order. An [h, w] image is read as [h, w, 1]."""
    if strength < 0:
        raise ValueError("strength must be >= 0")
    img = _channels01(image)
    if strength == 0:
        return img
    ops = [adjust_brightness, adjust_contrast, adjust_saturation]
    factors = rng.uniform(1.0 - strength, 1.0 + strength, size=3)
    order = rng.permutation(3)
    for i in order:
        img = ops[i](img, factors[i])
    return np.clip(img, 0.0, 1.0)


# ---------------------------------------------------------------- pipeline


def prepare_batch(images, labels, cfg: AugConfig, mode: str, size: int,
                  rng=None, num_classes: int = 2):
    """Full input pipeline.

    mode "train": resize -> RandAugment -> color jitter -> MixUp-or-CutMix
    -> random erasing -> normalize (requires rng). A batch of grayscale
    images stays one plane unless erasing draws on one of them; a batch
    with any color image is color throughout. mode "eval": resize and
    normalize only; rng must be None (no stochastic ops on that path).
    Images are floats in [0, 1] or uint8 pixels (read as value / 255).
    Returns (images [B, size, size, 3] normalized, soft labels [B, K]):
    float64 in train mode; in eval mode the engine dtype, each image
    normalized in float64 and cast on store, the bits the model's stem
    would cast it to. An eval batch of gray uint8 images at the size is
    gathered from a table of those values for the 256 levels, with the
    same bits.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    soft = _one_hot(labels, num_classes)
    if mode == "eval":
        if rng is not None:
            raise ValueError("eval pipeline is deterministic; rng must be None")
        out = np.empty((len(images), size, size, 3), dtype=default_dtype())
        if all(isinstance(im, np.ndarray) and im.dtype == np.uint8
               and im.shape == (size, size) for im in images):
            # gray 8-bit pixels at the size: a pixel's three values depend
            # on its level alone, so the per-image path's float64 ops on
            # the 256 levels, cast on store, give every bit by a gather
            levels = normalize(pixels01(np.arange(256, dtype=np.uint8))[:, None], cfg)
            levels = levels.astype(out.dtype)
            for im, o in zip(images, out):
                np.take(levels, im, axis=0, out=o, mode="clip")
            return out, soft
        wide = np.empty((size, size, 3))  # one image, normalized in float64
        for im, o in zip(images, out):
            o[...] = resize_normalize(im, size, size, cfg, out=wide)
        return out, soft
    if rng is None:
        raise ValueError("train pipeline needs an rng")
    planes = [_channels01(im) for im in images]
    if any(im.shape[-1] == 3 for im in planes):
        planes = [to_rgb01(im) for im in planes]
    augd = np.stack([
        color_jitter(rand_augment(bilinear_resize(im, size, size), cfg.randaug_n,
                                  cfg.randaug_magnitude, rng),
                     cfg.jitter_strength, rng)
        for im in planes])
    batch = LabeledBatch(augd, soft)
    if batch.images.shape[0] >= 2:
        batch = mix_batch(batch, cfg, rng)
    erased = [random_erasing(im, cfg, rng) for im in batch.images]
    if any(im.shape[-1] == 3 for im in erased):
        erased = [to_rgb01(im) for im in erased]
    return normalize(np.stack(erased), cfg), batch.labels
