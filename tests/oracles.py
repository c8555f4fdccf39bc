"""Independent brute-force references shared by test files.

Everything here is plain numpy with explicit loops; nothing imports the
production attention path.
"""

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
