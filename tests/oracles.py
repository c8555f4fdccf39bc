"""Independent brute-force references shared by test files.

Everything here is plain numpy with explicit loops; nothing imports the
production attention path. The exceptions to plain numpy are
prepare_batch_three_planes, which composes the production augmentation ops
and differs from the pipeline only in where grayscale becomes three planes,
and init_params, which reads the production param_layout and returns
production Tensors.
"""

import math

import numpy as np


def band_index(coord: int, extent: int, m: int, s: int) -> int:
    """Band of a rolled-canvas coordinate: interior, edge-adjacent, wrapped."""
    if coord < extent - m:
        return 0
    if coord < extent - s:
        return 1
    return 2


def region_ids(h: int, w: int, m: int, s: int) -> np.ndarray:
    ids = np.empty((h, w), dtype=int)
    for i in range(h):
        for j in range(w):
            ids[i, j] = 3 * band_index(i, h, m, s) + band_index(j, w, m, s)
    return ids


def window_of(i: int, j: int, m: int, w: int) -> int:
    return (i // m) * (w // m) + (j // m)


def mask_zero_counts(h: int, w: int, m: int, s: int) -> np.ndarray:
    """Allowed (unmasked) token-pair count per window, by enumerating all
    same-window pairs and comparing region labels."""
    ids = region_ids(h, w, m, s)
    counts = np.zeros((h // m) * (w // m), dtype=int)
    cells = [(i, j) for i in range(h) for j in range(w)]
    for i1, j1 in cells:
        for i2, j2 in cells:
            wdx = window_of(i1, j1, m, w)
            if wdx == window_of(i2, j2, m, w) and ids[i1, j1] == ids[i2, j2]:
                counts[wdx] += 1
    return counts


def dense_window_attention(xw: np.ndarray, qkv_w, qkv_b, proj_w, proj_b,
                           table, index, mask, heads: int) -> np.ndarray:
    """Per-window multi-head attention, one window and one head at a time.

    xw: [nW, n, D]; table: [(2M-1)^2, heads]; index: [n, n];
    mask: [nW, n, n] additive or None.
    """
    n_windows, n, dim = xw.shape
    d = dim // heads
    out = np.zeros_like(xw)
    for wdx in range(n_windows):
        x = xw[wdx]
        qkv = x @ qkv_w + qkv_b
        q, k, v = qkv[:, :dim], qkv[:, dim:2 * dim], qkv[:, 2 * dim:]
        pieces = []
        for hh in range(heads):
            sl = slice(hh * d, (hh + 1) * d)
            logits = (q[:, sl] / np.sqrt(d)) @ k[:, sl].T + table[index, hh]
            if mask is not None:
                logits = logits + mask[wdx]
            a = np.exp(logits - logits.max(-1, keepdims=True))
            a /= a.sum(-1, keepdims=True)
            pieces.append(a @ v[:, sl])
        out[wdx] = np.concatenate(pieces, axis=-1) @ proj_w + proj_b
    return out


def region_attention_oracle(x: np.ndarray, qkv_w, qkv_b, proj_w, proj_b,
                            table, m: int, heads: int) -> np.ndarray:
    """Shifted-window attention by explicit region enumeration.

    Rolls x by -m//2, groups tokens into the contiguous (window, region)
    rectangles of the rolled map, runs unmasked dense attention inside each
    group (bias from rolled-map relative offsets), rolls back. x: [H, W, D].
    """
    hh_, ww_, dim = x.shape
    s = m // 2
    xs = np.roll(x, (-s, -s), axis=(0, 1))
    ids = region_ids(hh_, ww_, m, s)
    d = dim // heads
    qkv = xs.reshape(-1, dim) @ qkv_w + qkv_b
    q, k, v = qkv[:, :dim], qkv[:, dim:2 * dim], qkv[:, 2 * dim:]
    coords = np.array([(i, j) for i in range(hh_) for j in range(ww_)])
    groups: dict = {}
    for t, (i, j) in enumerate(coords):
        groups.setdefault((window_of(i, j, m, ww_), ids[i, j]), []).append(t)
    out = np.zeros((hh_ * ww_, dim))
    for members in groups.values():
        mem = np.array(members)
        dr = coords[mem][:, None, 0] - coords[mem][None, :, 0]
        dc = coords[mem][:, None, 1] - coords[mem][None, :, 1]
        rows = (dr + m - 1) * (2 * m - 1) + (dc + m - 1)
        for head in range(heads):
            sl = slice(head * d, (head + 1) * d)
            logits = (q[mem][:, sl] / np.sqrt(d)) @ k[mem][:, sl].T + table[rows, head]
            a = np.exp(logits - logits.max(-1, keepdims=True))
            a /= a.sum(-1, keepdims=True)
            out[np.ix_(mem, np.arange(head * d, (head + 1) * d))] = a @ v[mem][:, sl]
    out = out @ proj_w + proj_b
    return np.roll(out.reshape(hh_, ww_, dim), (s, s), axis=(0, 1))


def pair_count_auc(scores, labels):
    """O(n^2) AUC: P(random positive outscores random negative), ties at 1/2."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    if not pos or not neg:
        return None
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def adamw_per_name(params, grads, m, v, t, lr, wd, beta1=0.9, beta2=0.999, eps=1e-8):
    """Reference AdamW with decoupled weight decay over name -> array dicts,
    one parameter at a time, updating params, m and v in place; `t` is the
    step count after this update."""
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, p in params.items():
        g = grads[name]
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * g * g
        step = (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps) + wd * p
        p -= lr * step


def init_params(cfg, rng) -> dict:
    """Fresh parameters one tensor at a time, each weight a float64 draw
    of its whole shape that Tensor() casts to the engine dtype."""
    from swinqa.swin import param_layout
    from swinqa.tensor import Tensor

    params = {}
    for name, shape in param_layout(cfg):
        if name.endswith(".gamma"):
            arr = np.ones(shape)
        elif name.endswith((".bias", ".beta")):
            arr = np.zeros(shape)
        else:
            arr = rng.normal(0.0, 0.02, size=shape)
        params[name] = Tensor(arr, requires_grad=True)
    return params


def affine_sample_taps(img, inv, offset, fill=0.5):
    """Inverse-mapped bilinear warp of img [h, w, C] about its center, one
    tap at a time: each tap clips its index into the image and then swaps
    in `fill` where the unclipped index falls outside."""
    h, w = img.shape[:2]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    rows, cols = np.meshgrid(np.arange(h, dtype=np.float64),
                             np.arange(w, dtype=np.float64), indexing="ij")
    sr = inv[0, 0] * (rows - cy) + inv[0, 1] * (cols - cx) + cy + offset[0]
    sc = inv[1, 0] * (rows - cy) + inv[1, 1] * (cols - cx) + cx + offset[1]
    r0 = np.floor(sr).astype(int)
    c0 = np.floor(sc).astype(int)
    fr = (sr - r0)[:, :, None]
    fc = (sc - c0)[:, :, None]

    def tap(rr, cc):
        valid = (rr >= 0) & (rr < h) & (cc >= 0) & (cc < w)
        vals = img[np.clip(rr, 0, h - 1), np.clip(cc, 0, w - 1)]
        return np.where(valid[:, :, None], vals, fill)

    return ((1 - fr) * (1 - fc) * tap(r0, c0) + (1 - fr) * fc * tap(r0, c0 + 1)
            + fr * (1 - fc) * tap(r0 + 1, c0) + fr * fc * tap(r0 + 1, c0 + 1))


def prepare_batch_three_planes(images, labels, cfg, size, rng, num_classes=2):
    """The train-mode input pipeline with every image expanded to three
    planes before the first op, composed from the swinqa.augment ops in the
    pipeline's order: resize, RandAugment, color jitter, MixUp-or-CutMix,
    random erasing, normalize."""
    from swinqa import augment

    soft = augment._one_hot(labels, num_classes)
    resized = np.stack([augment.bilinear_resize(augment.to_rgb01(im), size, size)
                        for im in images])
    augd = np.stack([
        augment.color_jitter(
            augment.rand_augment(im, cfg.randaug_n, cfg.randaug_magnitude, rng),
            cfg.jitter_strength, rng)
        for im in resized])
    batch = augment.LabeledBatch(augd, soft)
    if batch.images.shape[0] >= 2:
        batch = augment.mix_batch(batch, cfg, rng)
    erased = np.stack([augment.random_erasing(im, cfg, rng) for im in batch.images])
    return augment.normalize(erased, cfg), batch.labels


# ------------------------------------------------------- foreign_object generator
#
# The full-grid foreign_object background, clutter and objects: every stroke
# step and every shape tests its pixels on the whole grid, and every paste
# works on a full-size mask.
# swinqa.data computes the same bits on the windows it changes.


def soft_limit(img):
    """Smooth-knee squash into (0.02, 0.98), both knees on every pixel."""
    lo, hi, knee = 0.02, 0.98, 0.04
    out = np.where(img > hi - knee,
                   hi - knee + knee * np.tanh((img - (hi - knee)) / knee), img)
    return np.where(out < lo + knee,
                    lo + knee + knee * np.tanh((out - (lo + knee)) / knee), out)


def blob_background(size, blobs, sigma, rng):
    """Gaussian blobs and pixel noise on a full index grid."""
    yy, xx = np.mgrid[0:size, 0:size]
    img = np.full((size, size), rng.uniform(0.35, 0.55))
    for _ in range(blobs):
        cy, cx = rng.uniform(0, size, size=2)
        s = rng.uniform(size / 8, size / 3)
        amp = rng.uniform(-0.30, 0.30)
        img += amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * s * s))
    img += rng.normal(0.0, sigma * rng.uniform(0.7, 1.6), size=(size, size))
    return soft_limit(img)


def paste(img, mask, contrast, bg_lo, bg_hi):
    """Set `mask` to a constant at `contrast` from its mean, inside the
    background range; returns the constant."""
    local = float(img[mask].mean()) if mask.any() else 0.5
    side = 1.0 if bg_hi - local > local - bg_lo else -1.0
    value = local + side * contrast
    lo, hi = min(bg_lo, local), max(bg_hi, local)
    if value > hi:
        value = hi - 0.003 * contrast
    elif value < lo:
        value = lo + 0.003 * contrast
    img[mask] = value
    return float(value)


def add_clutter(img, size, rng):
    """Wavy strokes and speckles, one scalar turn draw per stroke step and
    one full-size mask per paste."""
    bg_lo = float(img.min()) + 0.02
    bg_hi = float(img.max()) - 0.02
    yy, xx = np.mgrid[0:size, 0:size]

    def rough_paste(mask, contrast):
        paste(img, mask, contrast, bg_lo, bg_hi)
        img[mask] = soft_limit(img[mask] + rng.normal(0.0, 0.012, int(mask.sum())))

    for _ in range(int(rng.integers(2, 5))):
        steps = int(rng.integers(30, 70))
        y = rng.uniform(4, size - 4)
        x = rng.uniform(4, size - 4)
        ang = rng.uniform(0, 2 * math.pi)
        wobble = rng.uniform(0.08, 0.25)
        rad = rng.uniform(0.6, 1.1)
        mask = np.zeros_like(img, dtype=bool)
        for _step in range(steps):
            ang += rng.normal(0.0, wobble)
            y = min(max(y + math.sin(ang), 1.0), size - 2.0)
            x = min(max(x + math.cos(ang), 1.0), size - 2.0)
            mask |= (yy - y) ** 2 + (xx - x) ** 2 <= rad * rad
        rough_paste(mask, float(rng.uniform(0.42, 0.55)))
    n_speckles = int(rng.integers(10, 26))
    sy = rng.integers(1, size - 1, size=n_speckles)
    sx = rng.integers(1, size - 1, size=n_speckles)
    for y, x in zip(sy, sx):
        mask = np.zeros_like(img, dtype=bool)
        mask[y:y + int(rng.integers(1, 3)), x:x + int(rng.integers(1, 3))] = True
        rough_paste(mask, float(rng.uniform(0.42, 0.55)))


def textured_paste(img, mask, contrast, bg_lo, bg_hi):
    """Set `mask` to a constant at `contrast` from its mean, inside the
    background range with `amp` of headroom, plus a +-amp checkerboard in
    grid parity; returns (constant, amp)."""
    local = float(img[mask].mean()) if mask.any() else 0.5
    side = 1.0 if bg_hi - local > local - bg_lo else -1.0
    amp = 0.18
    lo_b, hi_b = bg_lo + amp + 0.01, bg_hi - amp - 0.01
    if lo_b <= hi_b:
        value = min(max(local + side * contrast, lo_b), hi_b)
    else:
        value = 0.5 * (bg_lo + bg_hi)
        amp = max(0.0, 0.5 * (bg_hi - bg_lo) - 0.01)
    yy, xx = np.nonzero(mask)
    img[yy, xx] = value + amp * (((yy + xx) % 2) * 2.0 - 1.0)
    return float(value), float(amp)


def add_objects(img, spec, rng):
    """The positives' shapes, each tested on the full index grid and
    pasted through a full-size mask; returns (objects, union pixel count)."""
    size = spec.size
    yy, xx = np.mgrid[0:size, 0:size]
    count = int(rng.integers(spec.object_count[0], spec.object_count[1] + 1))
    r_lo = max(5, spec.object_radius[0])
    r_hi = max(r_lo, spec.object_radius[1] - (count - 1))
    bg_lo = float(img.min()) + 0.02
    bg_hi = float(img.max()) - 0.02
    support = np.zeros((size, size), dtype=bool)
    objects = []
    for _ in range(count):
        r = float(rng.integers(r_lo, r_hi + 1))
        kind = ("disk", "square", "bar")[int(rng.integers(0, 3))]
        horizontal = bool(rng.integers(0, 2))
        length, width = 1.6 * r, max(3.5, 0.45 * r)
        extent = {"disk": r, "square": 0.7 * r * math.sqrt(2.0),
                  "bar": math.hypot(length, width)}[kind]
        margin = min(extent + 2, size / 2)
        cy = float(rng.uniform(margin, size - margin))
        cx = float(rng.uniform(margin, size - margin))
        dy, dx = np.abs(yy - cy), np.abs(xx - cx)
        if kind == "disk":
            mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
        elif kind == "square":
            mask = (dy <= 0.7 * r) & (dx <= 0.7 * r)
        elif horizontal:
            mask = (dx <= length) & (dy <= width)
        else:
            mask = (dy <= length) & (dx <= width)
        value, amp = textured_paste(img, mask, float(rng.uniform(0.42, 0.55)), bg_lo, bg_hi)
        support |= mask
        objects.append({"kind": kind, "cy": cy, "cx": cx, "r": r, "extent": float(extent),
                        "value": value, "amp": amp, "pixels": int(mask.sum())})
    return objects, int(support.sum())


def write_ppm(path, image):
    """Binary 8-bit PPM (P6), maxval 255, from a [h, w, 3] image of uint8
    pixels or of floats in [0, 1], each rounded to the nearest level."""
    image = np.asarray(image)
    if image.dtype != np.uint8:
        image = np.clip(np.round(image * 255), 0, 255).astype(np.uint8)
    h, w, _ = image.shape
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (w, h) + image.tobytes())
