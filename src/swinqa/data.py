"""Synthetic desk-scale datasets, binary image IO, and manifest handling.

Two generator families stand in for the real tasks: cluttered grayscale
"radiograph" backgrounds that may contain compact high-contrast foreign
objects, and a four-chamber cardiac layout that may grow a fifth central
ellipse. Both are pure functions of (spec, rng) and record ground-truth
geometry in the sample metadata so tests can check pixels against it.
"""

from __future__ import annotations

import collections
import concurrent.futures
import contextlib
import csv
import errno
import functools
import math
import os
import re
import shutil
from dataclasses import dataclass, field

import numpy as np

SPLITS = ("train", "val", "test")


@dataclass
class SampleRecord:
    source: str
    label: int
    split: str = "train"
    image: np.ndarray | None = None  # floats in [0, 1], or a file's uint8 pixels
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label!r}")
        if self.split not in SPLITS:
            raise ValueError(f"split must be one of {SPLITS}, got {self.split!r}")


@dataclass(frozen=True)
class SynthSpec:
    task: str = "foreign_object"
    size: int = 64
    object_count: tuple[int, int] = (1, 4)
    object_radius: tuple[int, int] = (4, 9)
    background_blobs: int = 6
    noise_sigma: float = 0.04
    blur: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.task not in ("foreign_object", "lvot"):
            raise ValueError(f"unknown task {self.task!r}")
        if self.size < 32:
            raise ValueError("size must be >= 32")
        for name in ("object_count", "object_radius"):
            lo, hi = getattr(self, name)
            if not 0 < lo <= hi:
                raise ValueError(f"{name} must be ordered and positive")
        if self.noise_sigma < 0 or self.background_blobs < 0:
            raise ValueError("noise_sigma and background_blobs must be non-negative")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


# -------------------------------------------------------------- generators


def _soft_limit(img: np.ndarray) -> np.ndarray:
    """Squash float64 `img` in place into (0.02, 0.98) with a smooth knee
    instead of a hard clip, and return it: strictly monotone, so
    out-of-range texture compresses rather than saturating into constant
    plateaus. Values inside the knees pass through unchanged, so the tanh
    runs only where a knee applies."""
    lo, hi, knee = 0.02, 0.98, 0.04
    top = img > hi - knee
    if top.any():
        img[top] = hi - knee + knee * np.tanh((img[top] - (hi - knee)) / knee)
    low = img < lo + knee
    if low.any():
        img[low] = lo + knee + knee * np.tanh((img[low] - (lo + knee)) / knee)
    return img


@functools.lru_cache(maxsize=None)
def _axes(size: int) -> tuple:
    """Read-only row and column coordinates as float64, [size, 1] and
    [1, size]: they broadcast to the full grid, and each pixel's arithmetic
    on them is the same as on a full integer `np.mgrid`."""
    yy = np.arange(size, dtype=np.float64).reshape(size, 1)
    xx = np.arange(size, dtype=np.float64).reshape(1, size)
    yy.flags.writeable = xx.flags.writeable = False
    return yy, xx


def _blob_background(size: int, blobs: int, sigma: float, rng) -> np.ndarray:
    """Smooth low-frequency texture plus pixel noise inside (0.02, 0.98).

    Base level and noise amplitude are jittered per image so that global
    statistics (mean/std/extrema) vary more across backgrounds than any
    single pasted object shifts them."""
    yy, xx = _axes(size)
    img = np.full((size, size), rng.uniform(0.35, 0.55))
    for _ in range(blobs):
        cy, cx = rng.uniform(0, size, size=2)
        s = rng.uniform(size / 8, size / 3)
        amp = rng.uniform(-0.30, 0.30)
        # amp * exp(-d2 / (2 s^2)) in place; dividing by the negated
        # denominator gives the same bits as negating d2 first
        g = (yy - cy) ** 2 + (xx - cx) ** 2
        g /= -(2 * s * s)
        np.exp(g, out=g)
        g *= amp
        img += g
    img += rng.normal(0.0, sigma * rng.uniform(0.7, 1.6), size=(size, size))
    return _soft_limit(img)


def _window(size: int, cy: float, cx: float, hy: float, hx: float) -> tuple:
    """The part of a size x size grid that a shape centred at (cy, cx),
    reaching hy rows and hx columns from it, can cover, with a pixel to
    spare on each side for rounding: (box, yy, xx), `box` its pair of
    slices into the grid and yy/xx its slices of `_axes`. A mask test on
    the window marks the pixels the same test marks on the full grid."""
    yy, xx = _axes(size)
    top, bottom = max(math.floor(cy - hy) - 1, 0), min(math.ceil(cy + hy) + 2, size)
    left, right = max(math.floor(cx - hx) - 1, 0), min(math.ceil(cx + hx) + 2, size)
    return (slice(top, bottom), slice(left, right)), yy[top:bottom], xx[:, left:right]


def _disk_mask(yy: np.ndarray, xx: np.ndarray, cy: float, cx: float, r: float) -> np.ndarray:
    return (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r


def _square_mask(yy: np.ndarray, xx: np.ndarray, cy: float, cx: float,
                 half: float) -> np.ndarray:
    return (np.abs(yy - cy) <= half) & (np.abs(xx - cx) <= half)


def _bar_mask(yy: np.ndarray, xx: np.ndarray, cy: float, cx: float, half_len: float,
              half_width: float, horizontal: bool) -> np.ndarray:
    dy, dx = np.abs(yy - cy), np.abs(xx - cx)
    if horizontal:
        return (dx <= half_len) & (dy <= half_width)
    return (dy <= half_len) & (dx <= half_width)


def _textured_paste(win: np.ndarray, mask: np.ndarray, parity: int, contrast: float,
                    bg_lo: float, bg_hi: float) -> tuple:
    """Recolor `mask` of the window `win` to a constant offset from its
    local mean, overlaid with a +-amp single-pixel checkerboard (an
    engraved-surface texture) whose phase is the parity of the window's
    top-left grid coordinates' sum, `parity`. The base value keeps `amp`
    of headroom inside the background range, so pixel extrema stay
    uninformative while the checker gives the object a crisp signature at
    the highest spatial frequency — one no smooth blob, noise field, or
    thin clutter line produces coherently. Returns (base value, amp)."""
    local = float(win[mask].mean()) if mask.any() else 0.5
    side = 1.0 if bg_hi - local > local - bg_lo else -1.0
    amp = 0.18
    lo_b, hi_b = bg_lo + amp + 0.01, bg_hi - amp - 0.01
    if lo_b <= hi_b:
        value = min(max(local + side * contrast, lo_b), hi_b)
    else:
        value = 0.5 * (bg_lo + bg_hi)
        amp = max(0.0, 0.5 * (bg_hi - bg_lo) - 0.01)
    yy, xx = np.nonzero(mask)
    win[yy, xx] = value + amp * (((yy + xx + parity) % 2) * 2.0 - 1.0)
    return float(value), float(amp)


def _paste_value(pixels: np.ndarray, contrast: float,
                 bg_lo: float, bg_hi: float) -> float:
    """The constant at `contrast` away from the mean of `pixels`, toward
    whichever side of the background range has room, never outside the
    range itself. Range-limited values back off the rail by an amount tied
    to the contrast draw so no two pastes land on the same constant."""
    # the bits of pixels.mean(), without its Python-level overhead
    local = float(pixels.sum()) / pixels.size if pixels.size else 0.5
    side = 1.0 if bg_hi - local > local - bg_lo else -1.0
    value = local + side * contrast
    lo, hi = min(bg_lo, local), max(bg_hi, local)
    if value > hi:
        value = hi - 0.003 * contrast
    elif value < lo:
        value = lo + 0.003 * contrast
    return float(value)


def _stroke_mask(ys: np.ndarray, xs: np.ndarray, rad: float, size: int) -> tuple:
    """The pixels of a size x size grid within `rad` of any point
    (ys[i], xs[i]), as (box, mask): `mask` covers the bounding box, and
    `box` is its pair of slices into the grid. Each point's disk test runs
    only on the pixels that can pass it, floor - ceil(rad) to floor +
    ceil(rad) + 1 on each axis, with the float64 expression of a full-grid
    test, so it marks the same pixels."""
    c = math.ceil(rad)
    off = np.arange(-c, c + 2)
    py = np.floor(ys)[:, None] + off  # [points, candidates], whole numbers
    px = np.floor(xs)[:, None] + off
    hit = (((py - ys[:, None]) ** 2)[:, :, None]
           + ((px - xs[:, None]) ** 2)[:, None, :] <= rad * rad)
    y0, x0 = int(py.min()), int(px.min())
    h, w = int(py.max()) + 1 - y0, int(px.max()) + 1 - x0
    flat = (py - y0)[:, :, None] * w + (px - x0)[:, None, :]
    mask = np.zeros(h * w, dtype=bool)
    mask[flat[hit].astype(np.intp)] = True
    # crop to the grid: candidates off its edge are never drawn
    top, left = max(y0, 0), max(x0, 0)
    bottom, right = min(y0 + h, size), min(x0 + w, size)
    mask = mask.reshape(h, w)[top - y0:bottom - y0, left - x0:right - x0]
    return (slice(top, bottom), slice(left, right)), mask


def _add_clutter(img: np.ndarray, size: int, rng) -> None:
    """Thin anatomy-like structures present in every image regardless of
    class: wavy 1-2 px polylines (rib/vessel analogs) and pixel speckles.
    Clutter carries faint per-pixel texture so no clutter region is ever
    exactly flat; locally constant regions stay specific to pasted
    objects. Every paste works on the window it changes."""
    bg_lo = float(img.min()) + 0.02
    bg_hi = float(img.max()) - 0.02

    def rough_paste(win: np.ndarray, sel, contrast: float) -> None:
        """Recolor `win[sel]` (all of `win` when `sel` is None) to a pasted
        value plus faint noise, one draw per pixel in row-major order."""
        pixels = win.ravel() if sel is None else win[sel]
        value = _paste_value(pixels, contrast, bg_lo, bg_hi)
        noisy = _soft_limit(value + rng.normal(0.0, 0.012, pixels.size))
        if sel is None:
            win[...] = noisy.reshape(win.shape)
        else:
            win[sel] = noisy

    for _ in range(int(rng.integers(2, 5))):
        steps = int(rng.integers(30, 70))
        y = rng.uniform(4, size - 4)
        x = rng.uniform(4, size - 4)
        ang = rng.uniform(0, 2 * math.pi)
        wobble = rng.uniform(0.08, 0.25)
        rad = rng.uniform(0.6, 1.1)
        ys, xs = [], []
        for turn in rng.normal(0.0, wobble, size=steps).tolist():
            ang += turn
            y = min(max(y + math.sin(ang), 1.0), size - 2.0)
            x = min(max(x + math.cos(ang), 1.0), size - 2.0)
            ys.append(y)
            xs.append(x)
        box, mask = _stroke_mask(np.array(ys), np.array(xs), rad, size)
        rough_paste(img[box], mask, float(rng.uniform(0.42, 0.55)))
    n_speckles = int(rng.integers(10, 26))
    sy = rng.integers(1, size - 1, size=n_speckles).tolist()
    sx = rng.integers(1, size - 1, size=n_speckles).tolist()
    for y, x in zip(sy, sx):
        h, w = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        rough_paste(img[y:y + h, x:x + w], None, float(rng.uniform(0.42, 0.55)))


def _add_objects(img: np.ndarray, spec: SynthSpec, rng) -> tuple:
    """Paste 1..spec.object_count[1] solid compact shapes (disks, squares,
    bars) with an engraved checker finish into `img`, each tested and
    pasted on the window it can cover. Returns (the objects' metadata, the
    pixel count of their union)."""
    size = spec.size
    lo, hi = spec.object_count
    count = int(rng.integers(lo, hi + 1))
    r_lo, r_hi = spec.object_radius
    # solid cores need a few pixels of girth; cap total support when
    # several objects land so the class signal stays local
    r_lo = max(5, r_lo)
    r_hi = max(r_lo, r_hi - (count - 1))
    # objects stay inside the image's own dynamic range so extrema
    # carry no label information
    bg_lo = float(img.min()) + 0.02
    bg_hi = float(img.max()) - 0.02
    support = np.zeros((size, size), dtype=bool)
    objects = []
    for _ in range(count):
        r = float(rng.integers(r_lo, r_hi + 1))
        kind = ("disk", "square", "bar")[int(rng.integers(0, 3))]
        horizontal = bool(rng.integers(0, 2))
        if kind == "disk":
            extent = r
        elif kind == "square":
            extent = 0.7 * r * math.sqrt(2.0)
        else:
            extent = math.hypot(1.6 * r, max(3.5, 0.45 * r))
        # a shape too large for a margin on both sides is centred; no
        # smaller shape's draw changes
        margin = min(extent + 2, size / 2)
        cy = float(rng.uniform(margin, size - margin))
        cx = float(rng.uniform(margin, size - margin))
        if kind == "bar":
            length, width = 1.6 * r, max(3.5, 0.45 * r)
            hy, hx = (width, length) if horizontal else (length, width)
        else:
            hy = hx = r if kind == "disk" else 0.7 * r
        box, yy, xx = _window(size, cy, cx, hy, hx)
        if kind == "disk":
            mask = _disk_mask(yy, xx, cy, cx, r)
        elif kind == "square":
            mask = _square_mask(yy, xx, cy, cx, 0.7 * r)
        else:
            mask = _bar_mask(yy, xx, cy, cx, length, width, horizontal)
        value, amp = _textured_paste(img[box], mask, box[0].start + box[1].start,
                                     float(rng.uniform(0.42, 0.55)), bg_lo, bg_hi)
        support[box] |= mask
        objects.append({"kind": kind, "cy": cy, "cx": cx, "r": r,
                        "extent": float(extent), "value": value,
                        "amp": amp, "pixels": int(mask.sum())})
    return objects, int(support.sum())


def synth_foreign_object(spec: SynthSpec, positive: bool, rng) -> SampleRecord:
    """Blob-textured grayscale field with thin anatomy-like clutter in every
    image; positives additionally get 1..spec.object_count[1] solid compact
    shapes (disks, squares, bars) with an engraved checker finish. The class
    is carried by local structure — solid textured cores versus smooth
    fields and thin clutter — not by first-order intensity statistics.
    Background and clutter draw from one child stream and objects from
    another, so a positive and a negative generated from identically seeded
    rngs differ exactly on the object support."""
    if spec.task != "foreign_object":
        raise ValueError(f"spec task is {spec.task!r}")
    rng_bg, rng_obj = rng.spawn(2)
    img = _blob_background(spec.size, spec.background_blobs, spec.noise_sigma, rng_bg)
    _add_clutter(img, spec.size, rng_bg)
    objects, support_pixels = _add_objects(img, spec, rng_obj) if positive else ([], 0)
    return SampleRecord(
        source="synth:foreign_object", label=int(positive), image=img,
        meta={"objects": objects,
              "object_pixels": sum(o["pixels"] for o in objects),
              "support_pixels": support_pixels})


def _ellipse_mask(size: int, cy: float, cx: float, ry: float, rx: float,
                  angle: float) -> np.ndarray:
    yy, xx = _axes(size)
    dy, dx = yy - cy, xx - cx
    u = dy * math.cos(angle) + dx * math.sin(angle)
    v = -dy * math.sin(angle) + dx * math.cos(angle)
    return (u / ry) ** 2 + (v / rx) ** 2 <= 1.0


def convolve_nearest(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Convolution of a float image over its first two axes with a 2-D
    kernel of odd sides, the edge pixels repeated past the border.

    The bits of scipy.ndimage.convolve(mode="nearest") on each plane: the
    output starts at 0.0, and the flipped kernel's taps with |w| above
    float64 eps are multiplied in and added one at a time, in row-major
    order. The result has the image's dtype; the sums are float64.
    """
    kh, kw = kernel.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"kernel sides must be odd, got {kernel.shape}")
    h, w = img.shape[:2]
    pad = ((kh // 2, kh // 2), (kw // 2, kw // 2)) + ((0, 0),) * (img.ndim - 2)
    padded = np.pad(img.astype(np.float64, copy=False), pad, mode="edge")
    out = np.zeros(padded[:h, :w].shape)
    eps = np.finfo(np.float64).eps
    for (i, j), weight in np.ndenumerate(np.asarray(kernel, dtype=np.float64)[::-1, ::-1]):
        if abs(weight) > eps:
            out += weight * padded[i:i + h, j:j + w]
    return out.astype(img.dtype, copy=False)


def synth_lvot(spec: SynthSpec, positive: bool, rng) -> SampleRecord:
    """Dark field with four bright elliptical chambers; positives add a
    fifth smaller ellipse near the center. A mild random contrast reduction
    always applies; with spec.blur a small motion-blur kernel is convolved
    last, so blur-on and blur-off images at the same seed differ exactly by
    that convolution (kernel recorded in meta)."""
    if spec.task != "lvot":
        raise ValueError(f"spec task is {spec.task!r}")
    rng_bg, rng_obj = rng.spawn(2)
    size = spec.size
    img = np.clip(0.10 + rng_bg.normal(0.0, spec.noise_sigma, size=(size, size)), 0.0, 1.0)

    def paint(ny, nx, jitter, radius, values) -> dict:
        """Draw an ellipse about (ny, nx), as fractions of the size, and fill it."""
        cy = size * (ny + float(rng_obj.uniform(-jitter, jitter)))
        cx = size * (nx + float(rng_obj.uniform(-jitter, jitter)))
        ry = size * float(rng_obj.uniform(*radius))
        rx = size * float(rng_obj.uniform(*radius))
        angle = float(rng_obj.uniform(0, math.pi))
        value = float(rng_obj.uniform(*values))
        img[_ellipse_mask(size, cy, cx, ry, rx, angle)] = value
        return {"cy": cy, "cx": cx, "ry": ry, "rx": rx, "angle": angle, "value": value}

    chambers = [paint(ny, nx, 0.03, (0.09, 0.14), (0.55, 0.80))
                for ny, nx in ((0.34, 0.35), (0.36, 0.66), (0.68, 0.38), (0.66, 0.67))]
    lvot = paint(0.5, 0.5, 0.04, (0.05, 0.08), (0.85, 0.95)) if positive else None
    # supplementary-style degradations: always a mild contrast squeeze ...
    squeeze = float(rng_obj.uniform(0.80, 1.00))
    img = img.mean() + (img - img.mean()) * squeeze
    img = np.clip(img, 0.0, 1.0)
    kernel = None
    if spec.blur:
        # ... and, behind the flag, a short motion streak applied last
        k = np.zeros((3, 3))
        direction = int(rng_obj.integers(0, 2))
        if direction == 0:
            k[1, :] = 1.0
        else:
            np.fill_diagonal(k, 1.0)
        kernel = k / k.sum()
        img = convolve_nearest(img, kernel)
    return SampleRecord(
        source="synth:lvot", label=int(positive), image=img,
        meta={"chambers": chambers, "lvot": lvot,
              "blur_kernel": None if kernel is None else kernel.tolist()})


def generate_record(spec: SynthSpec, positive: bool, rng) -> SampleRecord:
    if spec.task == "foreign_object":
        return synth_foreign_object(spec, positive, rng)
    return synth_lvot(spec, positive, rng)


# ------------------------------------------------------------------- IO


def pixels01(image: np.ndarray) -> np.ndarray:
    """Floats in [0, 1] of an image: uint8 pixels map to value / 255 in
    float64, the bits read_image returns; any other image passes through
    as it is."""
    img = np.asarray(image)
    return img.astype(np.float64) / 255.0 if img.dtype == np.uint8 else img


def quantize(image: np.ndarray) -> np.ndarray:
    """The 8-bit pixels an image file holds for an image: uint8 pixels as
    they are, floats in [0, 1] as clip(round(x * 255))."""
    img = np.asarray(image)
    if img.dtype == np.uint8:
        return img
    q = img * 255
    np.round(q, out=q)
    return np.clip(q, 0, 255, out=q).astype(np.uint8)


def write_pgm(path: str, image: np.ndarray) -> None:
    """Binary 8-bit PGM (P5), maxval 255, from a [h, w] image in [0, 1] or
    of uint8 pixels."""
    data = quantize(image)
    if data.ndim != 2:
        raise ValueError(f"PGM wants [h, w] grayscale, got {data.shape}")
    with open(path, "wb") as f:
        f.write(f"P5\n{data.shape[1]} {data.shape[0]}\n255\n".encode())
        f.write(data.tobytes())


def _read_header_tokens(f, count: int) -> list:
    """Whitespace-separated header ints, '#' comments skipped."""
    tokens = []
    while len(tokens) < count:
        ch = f.read(1)
        if not ch:
            raise ValueError("truncated image header")
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = f.read(1)
            continue
        if ch.isspace():
            continue
        tok = b""
        while ch and not ch.isspace():
            tok += ch
            ch = f.read(1)
        if not tok.isdigit():
            raise ValueError(f"header field {tok!r} is not a non-negative integer")
        tokens.append(int(tok))
    return tokens


def _read_pixels(path: str) -> np.ndarray:
    """The 8-bit pixels of a binary PGM/PPM file, [h, w] or [h, w, 3]
    uint8. A malformed header, or one declaring more pixels than the file
    holds, raises ValueError naming `path` before any pixel is read."""
    with open(path, "rb") as f:
        try:
            magic = f.read(2)
            if magic not in (b"P5", b"P6"):
                raise ValueError(f"unsupported magic {magic!r}")
            w, h, maxval = _read_header_tokens(f, 3)
            if w < 1 or h < 1:
                raise ValueError(f"image size {w}x{h} is empty")
            if maxval != 255:
                raise ValueError(f"only maxval 255 supported, got {maxval}")
            channels = 1 if magic == b"P5" else 3
            size = w * h * channels
            if size > os.fstat(f.fileno()).st_size - f.tell():
                raise ValueError(f"truncated pixel data: header declares {w}x{h}x"
                                 f"{channels} bytes")
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None
        raw = f.read(size)
    arr = np.frombuffer(raw, dtype=np.uint8)
    return arr.reshape(h, w) if channels == 1 else arr.reshape(h, w, 3)


def read_image(path: str) -> np.ndarray:
    """Read binary PGM/PPM into floats in [0, 1] ([h, w] or [h, w, 3])."""
    return pixels01(_read_pixels(path))


def load_manifest(path: str, splits=SPLITS) -> list:
    """The records of a CSV manifest (header: path,label,split) whose split
    is in `splits`, in file order, each holding the uint8 pixels of its file
    (pixels01 gives the floats). Every row is checked, and its file must
    exist, but only those records' files are read. Paths are relative to
    the manifest's directory. Errors name the offending data row (header
    is row 1)."""
    base = os.path.dirname(os.path.abspath(path))
    records = []
    with open(path, newline="") as f:
        rows = enumerate(csv.reader(f), start=1)
        i = 0  # the last row read
        try:
            i, header = next(rows, (1, None))
            if header != ["path", "label", "split"]:
                raise ValueError(f"manifest header must be path,label,split, got {header}")
            for i, row in rows:
                if not row:
                    continue
                if len(row) != 3:
                    raise ValueError(f"manifest row {i}: expected 3 fields, got {len(row)}")
                rel, label_s, split = row
                if label_s not in ("0", "1"):
                    raise ValueError(f"manifest row {i}: label must be 0 or 1, got {label_s!r}")
                if split not in SPLITS:
                    raise ValueError(f"manifest row {i}: bad split {split!r}")
                img_path = os.path.join(base, rel)
                if not os.path.exists(img_path):
                    raise ValueError(f"manifest row {i}: missing file {rel}")
                if split in splits:
                    records.append(SampleRecord(source=rel, label=int(label_s), split=split,
                                                image=_read_pixels(img_path)))
        except csv.Error as e:  # a field over csv's size limit, say
            raise ValueError(f"manifest row {i + 1}: {e}") from None
    return records


# ------------------------------------------------------------ processing


def histogram_equalize(image: np.ndarray) -> np.ndarray:
    """CDF remap over 256 bins of an image in [0, 1] or of uint8 pixels;
    preserves pixel ordering. A constant image maps to 1.0 (top of its own
    degenerate CDF)."""
    levels = quantize(np.asarray(pixels01(image), dtype=np.float64))
    hist = np.bincount(levels.reshape(-1), minlength=256)
    cdf = np.cumsum(hist) / levels.size
    return cdf[levels]


# ------------------------------------------------------------- benchmark


# The 8-bit pixels make_benchmark holds before it writes them as a run of
# files. Creating one file between every two records cost 0.1-0.4 s more
# at criterion 8's spec (1.0-1.4 s) than creating the files in runs
_WRITE_BATCH_BYTES = 1 << 18


def make_benchmark(spec: SynthSpec, n_train: int, n_val: int, n_test: int,
                   out_dir: str, workers: int = 1) -> str:
    """Balanced synthetic dataset on disk; returns the manifest path.

    Each record's rng derives from (spec.seed, split, index), so output
    bytes depend only on the spec, not on worker count or schedule. Each
    record is quantized to its file's 8-bit pixels as soon as it is built
    and written with the records before it once they hold
    `_WRITE_BATCH_BYTES` (worker threads build ahead of the writer by at
    most two records each), so synthesis holds a few records whatever the
    dataset size. The files go to a staging directory beside `out_dir`
    named with the writer's pid, the manifest last; only the complete
    dataset then replaces `out_dir`, as a whole. On an error the staging
    directory is removed and `out_dir` is left as it was; one a killed
    writer left is removed by the next run. An existing `out_dir` must be
    an empty directory or hold a manifest.csv, so no other is replaced.
    """
    for n in (n_train, n_val, n_test):
        if n < 2 or n % 2:
            raise ValueError("split sizes must be even and >= 2 (balanced classes)")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if os.path.lexists(out_dir) and not (os.path.isdir(out_dir) and (
            os.path.isfile(os.path.join(out_dir, "manifest.csv")) or not os.listdir(out_dir))):
        raise ValueError(f"{out_dir} exists and is not a dataset directory; "
                         f"it is not replaced")
    jobs = [(split_idx, split, i, i % 2 == 0)
            for split_idx, (split, n) in enumerate(zip(SPLITS, (n_train, n_val, n_test)))
            for i in range(n)]

    def build(job):
        split_idx, _, i, positive = job
        rec = generate_record(spec, positive, np.random.default_rng([spec.seed, split_idx, i]))
        return rec.label, quantize(rec.image)

    def built():
        if workers <= 1:
            yield from map(build, jobs)
            return
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as ex:
            ahead = collections.deque()
            for job in jobs:
                ahead.append(ex.submit(build, job))
                if len(ahead) > 2 * workers:
                    yield ahead.popleft().result()
            while ahead:
                yield ahead.popleft().result()

    os.makedirs(os.path.dirname(os.path.abspath(out_dir)), exist_ok=True)
    staging = staging_path(out_dir)
    os.mkdir(staging)
    try:
        os.mkdir(os.path.join(staging, "images"))
        rows, batch = [["path", "label", "split"]], []

        def write_batch():
            for rel, pixels in batch:
                write_pgm(os.path.join(staging, rel), pixels)
            batch.clear()

        for (_, split, i, positive), (label, pixels) in zip(jobs, built()):
            rel = os.path.join("images", f"{split}_{i:04d}_{'p' if positive else 'n'}.pgm")
            rows.append([rel, label, split])
            batch.append((rel, pixels))
            if len(batch) * pixels.nbytes >= _WRITE_BATCH_BYTES:
                write_batch()
        write_batch()
        with open(os.path.join(staging, "manifest.csv"), "w", newline="") as f:
            csv.writer(f, lineterminator="\n").writerows(rows)
        _replace_dir(staging, os.path.abspath(out_dir))
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    return os.path.join(out_dir, "manifest.csv")


def staging_path(target: str) -> str:
    """A fresh name beside `target` to stage its next version under, with
    the writer's pid in it. First it removes the files and directories
    staged for `target` by a pid that no longer runs (a killed write); a
    pid that cannot be probed, such as another user's, counts as live."""
    parent, name = os.path.split(os.path.abspath(target))
    staged = re.compile(re.escape(f".{name}.") + r"(\d{1,9})\.[0-9a-f]{12}\.staging")
    for match in filter(None, map(staged.fullmatch, os.listdir(parent))):
        try:
            os.kill(int(match[1]), 0)
        except ProcessLookupError:
            path = os.path.join(parent, match[0])
            if os.path.isdir(path):
                shutil.rmtree(path, ignore_errors=True)
            else:
                with contextlib.suppress(FileNotFoundError):  # another sweep got there first
                    os.remove(path)
        except PermissionError:
            pass
    return os.path.join(parent, f".{name}.{os.getpid()}.{os.urandom(6).hex()}.staging")


def _replace_dir(src: str, dst: str) -> None:
    """Move directory `src` to `dst`, replacing whatever directory is
    there as a whole. A non-empty `dst` is first renamed aside, so an
    interruption leaves either it or nothing at `dst`, never a mix."""
    try:
        os.rename(src, dst)  # dst absent or an empty directory
        return
    except OSError as e:
        if e.errno not in (errno.EEXIST, errno.ENOTEMPTY):
            raise
    old = src[:-len(".staging")] + ".replaced"
    os.rename(dst, old)
    try:
        os.rename(src, dst)
    except BaseException:
        os.rename(old, dst)
        raise
    shutil.rmtree(old, ignore_errors=True)


# -------------------------------------------------------------- baseline


def threshold_baseline(train_records, eval_records) -> float:
    """Accuracy (percent) of the best single global-statistic threshold.

    Fits over features {mean, std, max, min} x all candidate thresholds x
    both polarities on the training split; reports eval accuracy. This is
    the sanity bar a spatial model must clearly beat.
    """
    feats = {
        "mean": lambda im: float(im.mean()),
        "std": lambda im: float(im.std()),
        "max": lambda im: float(im.max()),
        "min": lambda im: float(im.min()),
    }

    def table(records, fn):
        vals = np.array([fn(pixels01(r.image)) for r in records])
        labels = np.array([r.label for r in records])
        return vals, labels

    best = (0.0, None)
    for name, fn in feats.items():
        vals, labels = table(train_records, fn)
        order = np.sort(np.unique(vals))
        cuts = np.concatenate([[order[0] - 1], (order[:-1] + order[1:]) / 2,
                               [order[-1] + 1]])
        for cut in cuts:
            for polarity in (1, 0):
                pred = (vals > cut).astype(int) if polarity else (vals <= cut).astype(int)
                acc = float((pred == labels).mean())
                if acc > best[0]:
                    best = (acc, (name, float(cut), polarity))
    name, cut, polarity = best[1]
    vals, labels = table(eval_records, feats[name])
    pred = (vals > cut).astype(int) if polarity else (vals <= cut).astype(int)
    return float((pred == labels).mean()) * 100.0
