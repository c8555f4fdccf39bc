"""Hierarchical shifted-window transformer for image classification.

Pixels enter as patches (4x4x3 = 48-dim tokens by default), pass through
four stages of window-attention blocks with patch merging in between, and
leave as class logits after a final layer norm, mean pool, and linear head.
Window attention alternates between unshifted and cyclically shifted
placements; shifted windows get an additive mask that blocks attention
between tokens wrapped from opposite map edges, plus a learned per-head
relative position bias shared across windows.

The module also carries the two analytic accounting oracles
(`count_params`, `count_flops`) used to pin the architecture against
published totals.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .tensor import (
    LN_EPS,
    ShapeError,
    Tensor,
    concat,  # not called here; tools that trace the model wrap swin.concat
    default_dtype,
    gelu,  # not called here; tools that trace the model wrap swin.gelu
    gelu_bwd,
    gelu_fwd,
    layer_norm,
    layer_norm_bwd,
    layer_norm_fwd,
    matmul,
    records_graph,
    softmax,  # not called here; tools that trace the model wrap swin.softmax
    softmax_grad_inplace,
    softmax_inplace,
)

NEG = -1e9  # additive mask value; large but finite so softmax gradients stay defined
# Both branch ops work on blocks whose widest intermediate, about _MLP_BLOCK
# elements (512 KB in float32), stays in cache from the first GEMM to the
# last: mlp_branch's hidden activations, over at least _MLP_MIN_ROWS rows
# per pass over the weights, and attention_branch's qkv, over whole images
_MLP_BLOCK = 1 << 17
_MLP_MIN_ROWS = 512
_INIT_CHUNK = 1 << 16  # elements per float64 weight draw in init_weights (512 KB)
_STEM_BYTES = 1 << 18  # tiles and embedding of one no-grad stem chunk (256 KB)

_PRESETS = {
    # name: (embed_dim, depths, heads, drop_path_max, default img, default window)
    "tiny": (96, (2, 2, 6, 2), (3, 6, 12, 24), 0.2, 224, 7),
    "small": (96, (2, 2, 18, 2), (3, 6, 12, 24), 0.3, 224, 7),
    "base": (128, (2, 2, 18, 2), (4, 8, 16, 32), 0.2, 224, 7),
    "micro": (24, (1, 1, 2, 1), (2, 4, 4, 8), 0.1, 64, 4),
}


def _block_layout(d: int, window: int, heads: int, hidden: int) -> list:
    """(key, shape) of each parameter of a block of width d, in layout
    order: attention_branch's seven, then mlp_branch's six."""
    return [
        ("norm1.gamma", (d,)), ("norm1.beta", (d,)),
        ("attn.qkv.weight", (d, 3 * d)), ("attn.qkv.bias", (3 * d,)),
        ("attn.proj.weight", (d, d)), ("attn.proj.bias", (d,)),
        ("attn.bias_table", ((2 * window - 1) ** 2, heads)),
        ("norm2.gamma", (d,)), ("norm2.beta", (d,)),
        ("mlp.fc1.weight", (d, hidden)), ("mlp.fc1.bias", (hidden,)),
        ("mlp.fc2.weight", (hidden, d)), ("mlp.fc2.bias", (d,)),
    ]


BLOCK_KEYS = tuple(key for key, _ in _block_layout(1, 1, 1, 1))


@dataclass(frozen=True)
class SwinConfig:
    """Architecture hyperparameters. Stage s runs at dim embed_dim*2^s on a
    token grid of extent img_size/patch_size/2^s, which each patch merging
    halves, so every grid but the last must be even."""

    img_size: int
    embed_dim: int
    depths: tuple[int, ...]
    heads: tuple[int, ...]
    window: int
    drop_path_max: float = 0.0
    mlp_ratio: float = 4.0
    num_classes: int = 2
    patch_size: int = 4
    in_channels: int = 3

    def __post_init__(self):
        object.__setattr__(self, "depths", tuple(self.depths))
        object.__setattr__(self, "heads", tuple(self.heads))
        if self.patch_size < 1 or self.in_channels < 1:
            raise ValueError("patch_size and in_channels must be >= 1")
        if self.img_size <= 0 or self.img_size % self.patch_size:
            raise ValueError(f"img_size {self.img_size} not divisible by patch {self.patch_size}")
        if not 1 <= len(self.depths) <= 4 or len(self.depths) != len(self.heads):
            raise ValueError(f"depths {self.depths} / heads {self.heads} must match, 1..4 stages")
        if any(d < 1 for d in self.depths) or any(h < 1 for h in self.heads):
            raise ValueError("depths and heads must be positive")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if not 0.0 <= self.drop_path_max < 1.0:
            raise ValueError("drop_path_max must be in [0, 1)")
        if self.mlp_ratio <= 0 or self.num_classes < 2:
            raise ValueError("mlp_ratio must be positive and num_classes >= 2")
        for s in range(self.num_stages):
            if self.stage_dim(s) % self.heads[s]:
                raise ValueError(
                    f"stage {s} dim {self.stage_dim(s)} not divisible by {self.heads[s]} heads")
            g, m = self.grid(s), self.eff_window(s)
            if g % m:
                raise ValueError(f"stage {s} token grid {g} not divisible by window {m}")
            if g % 2 and s < self.num_stages - 1:
                raise ValueError(f"img_size {self.img_size} gives stage {s} an odd token "
                                 f"grid {g}, which patch merging cannot halve")

    @property
    def num_stages(self) -> int:
        return len(self.depths)

    @property
    def total_blocks(self) -> int:
        return sum(self.depths)

    def stage_dim(self, s: int) -> int:
        return self.embed_dim * (2 ** s)

    @property
    def final_dim(self) -> int:
        return self.stage_dim(self.num_stages - 1)

    def grid(self, s: int) -> int:
        return self.img_size // self.patch_size // (2 ** s)

    def eff_window(self, s: int) -> int:
        """Window actually used at stage s: clamped to the grid when the grid
        is smaller than the nominal window (then the stage is one window)."""
        return min(self.window, self.grid(s))

    def shift(self, s: int) -> int:
        """Cyclic shift for the shifted blocks of stage s; 0 when a single
        window already covers the grid (nothing to connect across windows)."""
        m = self.eff_window(s)
        return m // 2 if self.grid(s) > m else 0

    def mlp_hidden(self, s: int) -> int:
        return int(self.stage_dim(s) * self.mlp_ratio)


def preset(name: str, img_size: int | None = None, window: int | None = None) -> SwinConfig:
    """Named configurations; tiny/small/base follow the published table."""
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(_PRESETS)}")
    dim, depths, heads, dp, d_img, d_win = _PRESETS[name]
    return SwinConfig(
        img_size=d_img if img_size is None else img_size,
        embed_dim=dim, depths=depths, heads=heads,
        window=d_win if window is None else window,
        drop_path_max=dp)


@dataclass
class FeatureMap:
    """Token grid of extent height x width with dim channels.

    `values` is [batch, height*width, dim], tokens in row-major grid order.
    """

    height: int
    width: int
    dim: int
    values: Tensor

    def __post_init__(self):
        want = (self.height * self.width, self.dim)
        if self.values.ndim != 3 or self.values.shape[1:] != want:
            raise ShapeError(f"values {self.values.shape} do not match grid [B, {want[0]}, {want[1]}]")

    @property
    def batch(self) -> int:
        return self.values.shape[0]


@dataclass
class WindowSet:
    """Feature map cut into non-overlapping window x window tiles.

    `values` is [batch, n_windows, window^2, dim]; windows in row-major tile
    order, tokens within a window in row-major order.
    """

    window: int
    dim: int
    grid: tuple
    values: Tensor

    def __post_init__(self):
        h, w = self.grid
        if h % self.window or w % self.window:
            raise ShapeError(f"grid {self.grid} not divisible by window {self.window}")
        want = (self.n_windows, self.window * self.window, self.dim)
        if self.values.ndim != 4 or self.values.shape[1:] != want:
            raise ShapeError(f"values {self.values.shape} do not match [B, {want}]")

    @property
    def n_windows(self) -> int:
        h, w = self.grid
        return (h // self.window) * (w // self.window)


@dataclass(frozen=True)
class AttentionMask:
    """Additive per-window matrices with entries in {0, NEG}."""

    window: int
    n_windows: int
    values: np.ndarray  # [n_windows, window^2, window^2], constant (no grad)


@functools.lru_cache(maxsize=None)
def relative_position_index(window: int) -> np.ndarray:
    """Table-row index per (query, key) token pair inside one window."""
    coords = np.stack(np.meshgrid(np.arange(window), np.arange(window), indexing="ij"))
    flat = coords.reshape(2, -1)
    rel = flat[:, :, None] - flat[:, None, :]  # [2, M^2, M^2], entries in (-M, M)
    idx = (rel[0] + window - 1) * (2 * window - 1) + (rel[1] + window - 1)
    idx.flags.writeable = False
    return idx


def rel_pos_bias(table: Tensor, window: int) -> Tensor:
    """`table`, checked to have a row per relative offset in window M."""
    rows = (2 * window - 1) ** 2
    if table.shape[0] != rows:
        raise ShapeError(f"bias table {table.shape} does not match window {window} ({rows} rows)")
    return table


# ------------------------------------------------------------------ ops


def concat_tiles(x, h: int, w: int, k: int, col_major: bool = False) -> Tensor:
    """Each k x k tile of an h x w token grid as one token: [B, h*w, c] or
    [B, h, w, c] in, [B, (h/k)(w/k), k*k*c] out, tiles in row-major order
    and values row-major inside a tile, or column-major if col_major (for
    k = 2: top-left, bottom-left, top-right, bottom-right). `x` is a Tensor
    or a constant array of any float dtype. The output is one transposed
    copy straight into the engine dtype, and one graph node whose parent is
    x if x is a Tensor; its backward copies the gradient back through the
    inverse transpose."""
    data, parents = (x.data, (x,)) if isinstance(x, Tensor) else (np.asarray(x), ())
    if data.shape[1:-1] not in ((h * w,), (h, w)) or h % k or w % k:
        raise ShapeError(f"tokens {data.shape} are not an {h}x{w} grid of {k}x{k} tiles")
    b, c = data.shape[0], data.shape[-1]
    axes = (0, 1, 3, 4, 2, 5) if col_major else (0, 1, 3, 2, 4, 5)
    out = np.empty((b, h // k, w // k, k, k, c), dtype=default_dtype())
    out[...] = data.reshape(b, h // k, k, w // k, k, c).transpose(axes)

    def bwd(g):
        x._accumulate(g.reshape(out.shape).transpose(np.argsort(axes)).reshape(x.shape))

    return Tensor._from_op(out.reshape(b, -1, k * k * c), parents, bwd)


def patch_partition(image, patch: int) -> FeatureMap:
    """Flattened patch x patch x C tokens of [H, W, C] (or batched) pixels,
    a Tensor or an array: one concat_tiles copy into the engine dtype."""
    if image.ndim == 3:
        image = image.reshape(1, *image.shape)
    if image.ndim != 4:
        raise ShapeError(f"expected [B, H, W, C] pixels, got {image.shape}")
    h, w = image.shape[1:3]
    t = concat_tiles(image, h, w, patch)
    return FeatureMap(h // patch, w // patch, t.shape[-1], t)


def linear_embed(fm: FeatureMap, weight: Tensor, bias: Tensor) -> FeatureMap:
    """Shared affine map of every token to the embedding dim."""
    if fm.dim != weight.shape[0]:
        raise ShapeError(f"token dim {fm.dim} does not match weight {weight.shape}")
    return FeatureMap(fm.height, fm.width, weight.shape[1], matmul(fm.values, weight) + bias)


def window_partition(fm: FeatureMap, window: int) -> WindowSet:
    if fm.height % window or fm.width % window:
        raise ShapeError(f"grid {fm.height}x{fm.width} not divisible by window {window}")
    t = gather_tokens(fm.values, *_perm_cached(fm.height, fm.width, window, 0))
    return WindowSet(window, fm.dim, (fm.height, fm.width),
                     t.reshape(fm.batch, -1, window * window, fm.dim))


def window_reverse(ws: WindowSet) -> FeatureMap:
    h, w = ws.grid
    perm, inv = _perm_cached(h, w, ws.window, 0)
    t = gather_tokens(ws.values.reshape(ws.values.shape[0], h * w, ws.dim), inv, perm)
    return FeatureMap(h, w, ws.dim, t)


def cyclic_shift(fm: FeatureMap, d: int) -> FeatureMap:
    """Torus roll by d tokens on both grid axes (negative rolls up/left):
    the token order of one-token windows rolled by d."""
    t = gather_tokens(fm.values, *_perm_cached(fm.height, fm.width, 1, -d))
    return FeatureMap(fm.height, fm.width, fm.dim, t)


@functools.lru_cache(maxsize=None)
def _mask_cached(h: int, w: int, window: int, shift: int, dtype_name: str) -> AttentionMask:
    m = window
    n_windows = (h // m) * (w // m)
    # Region ids on the rolled canvas: the last `shift` rows/cols hold tokens
    # wrapped from the opposite edge; the M-band above them shares windows
    # with the wrapped tokens and must be kept separate. At shift 0 the last
    # band is the whole grid, so every id is equal and the mask is all 0.
    ids = np.zeros((h, w), dtype=np.int64)
    bands = (slice(0, -m), slice(-m, -shift), slice(-shift, None))
    c = 0
    for hs in bands:
        for ws_ in bands:
            ids[hs, ws_] = c
            c += 1
    tiles = ids.reshape(-1)[_perm_cached(h, w, m, 0)[0]].reshape(n_windows, m * m)
    vals = np.where(tiles[:, :, None] != tiles[:, None, :], NEG, 0.0).astype(dtype_name)
    vals.flags.writeable = False
    return AttentionMask(m, n_windows, vals)


@functools.lru_cache(maxsize=None)
def _perm_cached(h: int, w: int, window: int, shift: int) -> tuple:
    """(perm, inv) for an h x w token grid rolled by -shift on both axes and
    cut into window x window tiles: position j of the window-ordered
    sequence (windows in row-major tile order, tokens row-major inside a
    window) holds token perm[j]; inv is its inverse. Every window op takes
    its token order from here: window 1 is the roll alone."""
    m = window
    grid = np.roll(np.arange(h * w).reshape(h, w), (-shift, -shift), (0, 1))
    perm = grid.reshape(h // m, m, w // m, m).transpose(0, 2, 1, 3).reshape(-1)
    inv = np.argsort(perm)
    perm.flags.writeable = inv.flags.writeable = False
    return perm, inv


def gather_tokens(x: Tensor, perm: np.ndarray, inv: np.ndarray) -> Tensor:
    """x[:, perm] for x [B, T, ...] and a permutation `perm` of its T tokens
    with inverse `inv`, as one contiguous copy. Each token is written once,
    so the backward is exact as the gradient gathered through inv."""
    if x.ndim < 2 or perm.shape != (x.shape[1],):
        raise ShapeError(f"token permutation {perm.shape} does not match {x.shape}")

    def bwd(g):
        x._accumulate(np.take(g, inv, axis=1))

    return Tensor._from_op(np.take(x.data, perm, axis=1), (x,), bwd)


def build_sw_attention_mask(h: int, w: int, window: int, shift: int | None = None) -> AttentionMask:
    """Mask for shifted-window attention on an h x w grid; zero iff both
    tokens of a pair come from the same contiguous pre-shift region."""
    if h % window or w % window:
        raise ShapeError(f"grid {h}x{w} not divisible by window {window}")
    if shift is None:
        shift = window // 2
    if not 0 <= shift < window:
        raise ValueError(f"shift {shift} must be in [0, window)")
    return _mask_cached(h, w, window, shift, np.dtype(default_dtype()).name)


def _head_views(buf: np.ndarray, n: int, heads: int) -> tuple:
    """q, k, v as [windows, heads, n, d_head] views of a [rows, 3d] buffer,
    whose columns run over (q/k/v, head, d_head)."""
    t = buf.reshape(-1, n, 3, heads, buf.shape[-1] // (3 * heads)).transpose(2, 0, 3, 1, 4)
    return t[0], t[1], t[2]


def attention_fwd(x: np.ndarray, qkv_weight: np.ndarray, qkv_bias: np.ndarray,
                  proj_weight: np.ndarray, proj_bias: np.ndarray, table: np.ndarray,
                  mask: AttentionMask | None, heads: int, qkv: np.ndarray, p: np.ndarray,
                  o: np.ndarray, y: np.ndarray) -> None:
    """Multi-head self-attention inside each window, shared weights across
    windows: softmax(QK^T/sqrt(d_head) + B + mask) V, then the output
    projection, over x [rows, d], the window-ordered rows of whole images.

    B comes from the relative-position bias `table` [(2M-1)^2, heads]; `mask`
    may be None. The results land in the caller's contiguous buffers, which
    attention_bwd reads: qkv [rows, 3d], the attention weights p [images,
    n_windows, heads, n, n], softmaxed in place, o [rows, d] (A.V, columns
    over (head, d_head)) and the output y [rows, d]."""
    n, d_head = p.shape[-1], x.shape[-1] // heads
    np.matmul(x, qkv_weight, out=qkv)
    qkv += qkv_bias
    q, k, v = _head_views(qkv, n, heads)
    scores = p.reshape(-1, heads, n, n)
    np.matmul(q, k.swapaxes(-1, -2), out=scores)
    scores *= d_head ** -0.5
    scores += table[relative_position_index(math.isqrt(n))].transpose(2, 0, 1)
    if mask is not None:
        p += mask.values[:, None]
    softmax_inplace(scores)
    # A.V lands straight in token-major order
    np.matmul(scores, v, out=o.reshape(-1, n, heads, d_head).transpose(0, 2, 1, 3))
    np.matmul(o, proj_weight, out=y)
    y += proj_bias


def attention_bwd(g: np.ndarray, x: np.ndarray, qkv: np.ndarray, p: np.ndarray,
                  o: np.ndarray, qkv_weight: np.ndarray, proj_weight: np.ndarray,
                  table: np.ndarray, heads: int) -> tuple:
    """Gradients (dx, d_qkv_w, d_qkv_b, d_proj_w, d_proj_b, d_table) of
    attention_fwd from the output gradient g [rows, d], its input x and the
    buffers it wrote; g is not written."""
    n, d_head = p.shape[-1], g.shape[-1] // heads
    do = (g @ proj_weight.T).reshape(-1, n, heads, d_head).transpose(0, 2, 1, 3)
    q, k, v = _head_views(qkv, n, heads)
    weights = p.reshape(-1, heads, n, n)
    dqkv = np.empty_like(qkv)
    dq, dk, dv = _head_views(dqkv, n, heads)
    np.matmul(weights.swapaxes(-1, -2), do, out=dv)
    ds = softmax_grad_inplace(do @ v.swapaxes(-1, -2), weights)
    d_table = np.zeros_like(table)
    np.add.at(d_table, relative_position_index(math.isqrt(n)),
              ds.sum(axis=0).transpose(1, 2, 0))
    ds *= d_head ** -0.5
    np.matmul(ds, k, out=dq)
    np.matmul(ds.swapaxes(-1, -2), q, out=dk)
    return (dqkv @ qkv_weight.T, x.T @ dqkv, dqkv.sum(axis=0), o.T @ g, g.sum(axis=0),
            d_table)


def _check_attention(what: str, d: int, n_windows: int, window: int, heads: int,
                     mask: AttentionMask | None, params: tuple) -> None:
    """ShapeError unless d splits over `heads`, `params` (the norm's gamma
    and beta if given, then the weights and biases of qkv and the projection
    and the bias table) fit them, and `mask` is None or fits n_windows."""
    if d % heads:
        raise ShapeError(f"{what}: dim {d} not divisible by {heads} heads")
    shapes = [t.shape for t in params]
    want = [(d,)] * (len(params) - 5) + [(d, 3 * d), (3 * d,), (d, d), (d,),
                                         ((2 * window - 1) ** 2, heads)]
    if shapes != want:
        raise ShapeError(f"{what} on dim {d}, window {window}, {heads} heads: "
                         f"the (norm,) qkv, projection and bias-table shapes are "
                         f"{shapes}, not {want}")
    if mask is not None and (mask.window, mask.n_windows) != (window, n_windows):
        raise ShapeError(f"{what}: mask for {mask.n_windows} windows of {mask.window} "
                         f"does not match {n_windows} windows of {window}")


def window_attention(ws: WindowSet, qkv_weight: Tensor, qkv_bias: Tensor,
                     proj_weight: Tensor, proj_bias: Tensor, table: Tensor,
                     mask: AttentionMask | None, heads: int) -> WindowSet:
    """Multi-head self-attention inside each window (see attention_fwd) as
    one graph node around the kernels that attention_branch runs. Its
    parents are the window values, the four projection parameters and the
    bias table."""
    b, n_windows, n, d = ws.values.shape
    params = (qkv_weight, qkv_bias, proj_weight, proj_bias, table)
    _check_attention("window attention", d, n_windows, ws.window, heads, mask, params)
    x = ws.values
    x2 = x.data.reshape(-1, d)
    qkv = np.empty((len(x2), 3 * d), dtype=x2.dtype)
    o = np.empty((len(x2), d), dtype=x2.dtype)
    y = np.empty_like(o)
    p = np.empty((b, n_windows, heads, n, n), dtype=x2.dtype)
    attention_fwd(x2, *(t.data for t in params), mask, heads, qkv, p, o, y)

    def bwd(g):
        dx, *grads = attention_bwd(g.reshape(-1, d), x2, qkv, p, o, qkv_weight.data,
                                   proj_weight.data, table.data, heads)
        for param, grad in zip(params, grads):
            param._accumulate(grad)
        x._accumulate(dx.reshape(x.shape))

    out = Tensor._from_op(y.reshape(x.shape), (x,) + params, bwd)
    return WindowSet(ws.window, d, ws.grid, out)


def attention_branch(x: Tensor, h: int, w: int, gamma: Tensor, beta: Tensor,
                     qkv_weight: Tensor, qkv_bias: Tensor, proj_weight: Tensor,
                     proj_bias: Tensor, table: Tensor, window: int, heads: int,
                     shift: int, gate: np.ndarray | None = None,
                     out: np.ndarray | None = None) -> Tensor:
    """Pre-norm attention residual branch on an h x w token grid:
    x + gate * A(LN(x)), written into `out` (new when None; x.data itself
    works when no graph is recorded), where A rolls the map by -shift, runs
    window_attention with relative-position bias `table` and the mask
    build_sw_attention_mask gives for `shift` (none at 0), and rolls back.

    One graph node with a hand-written backward. Its parents are x
    [B, h*w, d] and the seven parameters; `gate` is a constant per-sample
    factor (the stochastic-depth draw), or None for 1. The roll and the
    partition are one fixed permutation of the tokens (_perm_cached): the
    layer-normed rows are gathered into window order, and the projection
    is gathered back into block-sized scratch for the residual add.
    attention_fwd runs over blocks of whole images whose qkv fits in
    cache, into one set of block-sized scratch buffers without a graph, and
    into full-size buffers that attention_bwd reads with one."""
    m = window
    if x.ndim != 3 or x.shape[1] != h * w or h % m or w % m or not 0 <= shift < m:
        raise ShapeError(f"attention branch on {x.shape}, shift {shift}: not [B, {h}*{w}, d] "
                         f"on a grid divisible by window {m}, with 0 <= shift < {m}")
    b, t, d = x.shape
    n, n_windows = m * m, t // (m * m)
    attn = (qkv_weight, qkv_bias, proj_weight, proj_bias, table)
    _check_attention("attention branch", d, n_windows, m, heads, None, (gamma, beta) + attn)
    if gate is not None and gate.shape != (b,):
        raise ShapeError(f"gate {gate.shape} is not one factor per sample of {x.shape}")
    perm, inv = _perm_cached(h, w, m, shift)
    mask = _mask_cached(h, w, m, shift, x.data.dtype.name) if shift else None
    parents = (x, gamma, beta) + attn
    records = records_graph(parents)

    step = max(1, _MLP_BLOCK // (t * 3 * d))  # images per block
    kept_images = b if records else min(step, b)
    dtype = x.data.dtype
    nw, o = np.empty((2, kept_images, t, d), dtype=dtype)  # nw: LN(x) in window order
    qkv = np.empty((kept_images, t, 3 * d), dtype=dtype)
    p = np.empty((kept_images, n_windows, heads, n, n), dtype=dtype)
    y, z = np.empty((2, min(step, b), t, d), dtype=dtype)  # z: y in token order
    out = np.empty_like(x.data) if out is None else out
    if records:
        n_tok, xhat, inv_std = layer_norm_fwd(x.data, gamma.data, beta.data, LN_EPS,
                                              keep_xhat=True)
    for start in range(0, b, step):
        imgs = slice(start, min(start + step, b))
        bb = imgs.stop - start
        kept = imgs if records else slice(0, bb)
        src = n_tok[imgs] if records else layer_norm_fwd(
            x.data[imgs], gamma.data, beta.data, LN_EPS, keep_xhat=False)[0]
        # mode="clip" gathers straight into the destination; the default
        # "raise" gathers into a temporary and copies it over
        nb = np.take(src, perm, axis=1, out=nw[kept], mode="clip")
        yb = y[:bb]
        attention_fwd(nb.reshape(-1, d), *(a.data for a in attn), mask, heads,
                      qkv[kept].reshape(-1, 3 * d), p[kept], o[kept].reshape(-1, d),
                      yb.reshape(-1, d))
        if gate is not None:
            yb *= gate[imgs, None, None]
        zb = np.take(yb, inv, axis=1, out=z[:bb], mode="clip")
        np.add(zb, x.data[imgs], out=out[imgs])

    def bwd(g):
        gw = np.take(g, perm, axis=1)
        if gate is not None:
            gw *= gate[:, None, None]
        dn, *grads = attention_bwd(gw.reshape(-1, d), nw.reshape(-1, d),
                                   qkv.reshape(-1, 3 * d), p, o.reshape(-1, d),
                                   qkv_weight.data, proj_weight.data, table.data, heads)
        for param, grad in zip(attn, grads):
            param._accumulate(grad)
        dn = np.take(dn.reshape(b, t, d), inv, axis=1)
        dx, d_gamma, d_beta = layer_norm_bwd(dn, xhat, inv_std, gamma.data)
        gamma._accumulate(d_gamma)
        beta._accumulate(d_beta)
        dx += g
        x._accumulate(dx)

    return Tensor._from_op(out, parents, bwd)


def mlp_branch(x: Tensor, gamma: Tensor, beta: Tensor, fc1_weight: Tensor,
               fc1_bias: Tensor, fc2_weight: Tensor, fc2_bias: Tensor,
               gate: np.ndarray | None = None, out: np.ndarray | None = None) -> Tensor:
    """Pre-norm MLP residual branch x + gate * (GELU(LN(x) W1 + b1) W2 + b2)
    into `out` (new when None; x.data itself works when no graph is recorded).

    One graph node with a hand-written backward. Its parents are x and the
    six parameters; `gate` is a constant per-sample factor along axis 0 of
    x (the stochastic-depth draw), or None for 1. Both GEMMs are 2-D, over
    blocks of rows whose hidden activations fit in cache, and the biases,
    the GELU, the gate and the residual are applied in place. Without a
    graph, one block of hidden activations is all the op allocates beyond
    its output, so eval-mode forwards touch few fresh pages."""
    d, hid = fc1_weight.shape
    shapes = [t.shape for t in (gamma, beta, fc1_bias, fc2_weight, fc2_bias)]
    if x.shape[-1] != d or shapes != [(d,), (d,), (hid,), (hid, d), (d,)]:
        raise ShapeError(f"mlp branch on {x.shape} with fc1 weight {fc1_weight.shape}: "
                         f"gamma, beta, fc1 bias, fc2 weight, fc2 bias are {shapes}")
    if gate is not None:
        if gate.shape != x.shape[:1]:
            raise ShapeError(f"gate {gate.shape} is not one factor per sample of {x.shape}")
        gate = gate.reshape((-1,) + (1,) * (x.ndim - 1))
    parents = (x, gamma, beta, fc1_weight, fc1_bias, fc2_weight, fc2_bias)
    records = records_graph(parents)

    # one row per token: rows = B*T
    n, xhat, inv_std = layer_norm_fwd(x.data.reshape(-1, d), gamma.data, beta.data,
                                      LN_EPS, keep_xhat=records)
    rows = len(n)
    step = max(_MLP_MIN_ROWS, _MLP_BLOCK // hid)
    if records:  # the backward reads the pre-activation, Phi and the activation
        a, phi, h = np.empty((3, rows, hid), dtype=n.dtype)
        y = np.empty_like(n)
    else:  # one block of scratch, activated in place; the output overwrites n
        a = h = np.empty((min(step, rows), hid), dtype=n.dtype)
        phi, y = None, n
    for start in range(0, rows, step):
        blk = slice(start, min(start + step, rows))
        kept = blk if records else slice(0, blk.stop - start)
        np.matmul(n[blk], fc1_weight.data, out=a[kept])
        a[kept] += fc1_bias.data
        gelu_fwd(a[kept], out=h[kept], phi=None if phi is None else phi[kept])
        np.matmul(h[kept], fc2_weight.data, out=y[blk])
    y += fc2_bias.data
    y = y.reshape(x.shape)
    if gate is not None:
        y *= gate
    out = np.add(y, x.data, out=y if out is None else out)

    def bwd(g):
        gy = (g if gate is None else g * gate).reshape(-1, d)
        fc2_bias._accumulate(gy.sum(axis=0))
        fc2_weight._accumulate(h.T @ gy)
        da = gelu_bwd(gy @ fc2_weight.data.T, a, phi)
        fc1_bias._accumulate(da.sum(axis=0))
        fc1_weight._accumulate(n.T @ da)
        dx, d_gamma, d_beta = layer_norm_bwd(da @ fc1_weight.data.T, xhat, inv_std,
                                             gamma.data)
        gamma._accumulate(d_gamma)
        beta._accumulate(d_beta)
        dx = dx.reshape(x.shape)
        dx += g
        x._accumulate(dx)

    return Tensor._from_op(out, parents, bwd)


def _drop_path_gate(batch: int, drop_prob: float, rng, dtype) -> np.ndarray:
    """Per-sample stochastic-depth factors: 0 with probability drop_prob,
    else 1/keep so the branch's expectation is unchanged."""
    keep = 1.0 - drop_prob
    return (rng.random(batch) < keep).astype(dtype) / keep


def swin_block(x: FeatureMap, bp: dict, window: int, heads: int, shifted: bool,
               drop_prob: float = 0.0, training: bool = False, rng=None,
               out: np.ndarray | None = None) -> FeatureMap:
    """One transformer block: windowed attention then MLP, both as
    pre-norm residual branches under stochastic depth, and one graph node
    each (attention_branch, mlp_branch), both written into `out` if given.

    `bp` maps the names in BLOCK_KEYS to parameter tensors. When `shifted`,
    attention runs on the map rolled by -window//2, masked, and the roll is
    undone afterwards.
    """
    if training and drop_prob >= 1.0:
        return x  # both branches dropped with certainty
    shift = window // 2 if shifted else 0
    drop = training and drop_prob > 0.0
    dtype = x.values.data.dtype
    gate = _drop_path_gate(x.batch, drop_prob, rng, dtype) if drop else None
    ps = [bp[key] for key in BLOCK_KEYS]
    x1 = attention_branch(x.values, x.height, x.width, *ps[:7], window, heads, shift, gate,
                          out)
    gate = _drop_path_gate(x.batch, drop_prob, rng, dtype) if drop else None
    return FeatureMap(x.height, x.width, x.dim, mlp_branch(x1, *ps[7:], gate, out))


def patch_merging(fm: FeatureMap, norm_gamma: Tensor, norm_beta: Tensor,
                  reduction_weight: Tensor) -> FeatureMap:
    """Downsample 2x: concat 2x2 neighborhoods (4D) column-major, the order
    the rows of the reduction weight mean, then layer norm (over the fresh
    tiles in place when no graph is recorded) and a biasless linear
    4D -> 2D. A map the caller holds no reference to is freed once tiled."""
    cat = concat_tiles(fm.values, fm.height, fm.width, 2, col_major=True)
    h, w = fm.height // 2, fm.width // 2
    del fm
    out = matmul(layer_norm(cat, norm_gamma, norm_beta, overwrite=True), reduction_weight)
    return FeatureMap(h, w, reduction_weight.shape[1], out)


# ------------------------------------------------------- parameters


def param_layout(cfg: SwinConfig) -> list:
    """Canonical (name, shape) list; checkpoint directory order."""
    c = cfg.embed_dim
    patch_dim = cfg.patch_size * cfg.patch_size * cfg.in_channels
    out = [
        ("patch_embed.weight", (patch_dim, c)),
        ("patch_embed.bias", (c,)),
        ("patch_embed.norm.gamma", (c,)),
        ("patch_embed.norm.beta", (c,)),
    ]
    for s in range(cfg.num_stages):
        d = cfg.stage_dim(s)
        if s > 0:
            prev = cfg.stage_dim(s - 1)
            out += [
                (f"stages.{s}.merge.norm.gamma", (4 * prev,)),
                (f"stages.{s}.merge.norm.beta", (4 * prev,)),
                (f"stages.{s}.merge.reduction.weight", (4 * prev, 2 * prev)),
            ]
        block = _block_layout(d, cfg.eff_window(s), cfg.heads[s], cfg.mlp_hidden(s))
        for b in range(cfg.depths[s]):
            out += [(f"stages.{s}.blocks.{b}.{key}", shape) for key, shape in block]
    dl = cfg.final_dim
    out += [
        ("norm.gamma", (dl,)), ("norm.beta", (dl,)),
        ("head.weight", (dl, cfg.num_classes)), ("head.bias", (cfg.num_classes,)),
    ]
    return out


def param_views(cfg: SwinConfig, flat: np.ndarray) -> dict:
    """Name -> view of `flat`, a 1-d buffer holding every parameter back to
    back in param_layout order. This is the one place where the layout
    becomes offsets: weights, gradients, optimizer moments and checkpoint
    payload groups all use it."""
    n = count_params(cfg)
    if flat.ndim != 1 or flat.size != n:
        raise ShapeError(f"flat buffer of shape {flat.shape}; the config has {n} parameters")
    views, offset = {}, 0
    for name, shape in param_layout(cfg):
        size = math.prod(shape)
        views[name] = flat[offset:offset + size].reshape(shape)
        offset += size
    return views


def init_weights(cfg: SwinConfig, rng) -> np.ndarray:
    """Fresh weights, one flat buffer of the engine dtype in param_layout
    order: N(0, 0.02) weights and bias tables, zero biases, unit norm
    scales. Weights are drawn _INIT_CHUNK elements at a time and cast as
    each chunk is stored; consecutive draws give the values of one draw."""
    flat = np.empty(count_params(cfg), dtype=default_dtype())
    for name, view in param_views(cfg, flat).items():
        if name.endswith(".gamma"):
            view[...] = 1.0
        elif name.endswith((".bias", ".beta")):
            view[...] = 0.0
        else:
            run = view.reshape(-1)
            for i in range(0, run.size, _INIT_CHUNK):
                run[i:i + _INIT_CHUNK] = rng.normal(0.0, 0.02, size=min(_INIT_CHUNK, run.size - i))
    return flat


def param_tensors(cfg: SwinConfig, flat: np.ndarray) -> dict:
    """Name -> trainable Tensor over each param_views view of `flat`, in
    layout order; a buffer in the engine dtype is shared, not copied."""
    return {name: Tensor(view, requires_grad=True)
            for name, view in param_views(cfg, flat).items()}


def init_params(cfg: SwinConfig, rng) -> dict:
    """Fresh parameters (init_weights) as named Tensors (param_tensors)."""
    return param_tensors(cfg, init_weights(cfg, rng))


def count_params(cfg: SwinConfig) -> int:
    """Closed-form learnable-scalar count (independent of allocation)."""
    c = cfg.embed_dim
    patch_dim = cfg.patch_size * cfg.patch_size * cfg.in_channels
    total = patch_dim * c + c + 2 * c  # embed affine + patch norm
    for s in range(cfg.num_stages):
        d = cfg.stage_dim(s)
        if s > 0:
            prev = cfg.stage_dim(s - 1)
            total += 8 * prev + 8 * prev * prev  # merge LN(4d) + 4d->2d reduction
        m, h, hid = cfg.eff_window(s), cfg.heads[s], cfg.mlp_hidden(s)
        per_block = (4 * d                      # two layer norms
                     + 3 * d * d + 3 * d        # qkv
                     + d * d + d                # output projection
                     + (2 * m - 1) ** 2 * h     # relative position bias
                     + 2 * d * hid + hid + d)   # MLP
        total += cfg.depths[s] * per_block
    dl = cfg.final_dim
    total += 2 * dl + dl * cfg.num_classes + cfg.num_classes
    return total


def count_flops(cfg: SwinConfig) -> float:
    """Multiply-accumulates for one forward pass at img_size x img_size
    (one MAC counted as one FLOP). Covers linear layers, QK^T and AV
    products, layer norms, and the patch/pool arithmetic."""
    c = cfg.embed_dim
    patch_dim = cfg.patch_size * cfg.patch_size * cfg.in_channels
    total = float(cfg.grid(0) ** 2 * (patch_dim * c + c))
    for s in range(cfg.num_stages):
        d, t, m, hid = cfg.stage_dim(s), cfg.grid(s) ** 2, cfg.eff_window(s), cfg.mlp_hidden(s)
        if s > 0:
            prev = cfg.stage_dim(s - 1)
            # LN over T/4 tokens of 4*prev dims, then (4*prev -> 2*prev) linear
            total += cfg.grid(s - 1) ** 2 * prev + t * 8 * prev * prev
        per_block = (2 * t * d                 # two layer norms
                     + 4 * t * d * d           # qkv + projection
                     + 2 * t * m * m * d       # QK^T and AV over all heads
                     + 2 * t * d * hid)        # MLP
        total += cfg.depths[s] * per_block
    dl = cfg.final_dim
    total += 2 * cfg.grid(cfg.num_stages - 1) ** 2 * dl + dl * cfg.num_classes
    return total


def stochastic_depth_rates(p_max: float, total_blocks: int) -> list:
    """Linear ramp of per-block drop probabilities, 0 at the first block up
    to p_max at the last."""
    if total_blocks < 1:
        raise ValueError("total_blocks must be >= 1")
    if total_blocks == 1:
        return [0.0]
    return [p_max * i / (total_blocks - 1) for i in range(total_blocks)]


def forward(image, cfg: SwinConfig, params: dict, training: bool = False, rng=None) -> Tensor:
    """Full model: [H, W, C] pixels (a Tensor, or an array of any float
    dtype, which the stem's one copy casts) -> [num_classes] logits; a
    leading batch axis maps through. Blocks within a stage alternate
    unshifted/shifted starting unshifted; shift is skipped where one window
    covers the grid. `image` is dropped once the stem has read it: on
    CPython >= 3.11 a batch the caller kept no reference to is freed then.

    Without a graph, forward keeps one residual stream: the stem embeds
    _STEM_BYTES of tiles and embedding at a time into one buffer, each
    layer norm and block writes over it, and each merge frees it once
    tiled. `image` is never written, and every output bit is kept."""
    single = image.ndim == 3
    pixels = (cfg.img_size, cfg.img_size, cfg.in_channels)
    if image.ndim not in (3, 4) or image.shape[-3:] != pixels:
        raise ShapeError(f"input {image.shape} is not [B,] img_size^2 x in_channels {pixels}")
    if training and cfg.drop_path_max > 0 and rng is None:
        raise ValueError("training forward with stochastic depth needs an rng")

    records = records_graph(list(params.values()) + ([image] if isinstance(image, Tensor) else []))
    embed = params["patch_embed.weight"], params["patch_embed.bias"]
    if records:
        fm = patch_partition(image, cfg.patch_size)
        del image
        fm = linear_embed(fm, *embed)
    else:
        batch = (image.data if isinstance(image, Tensor) else image).reshape((-1,) + pixels)
        del image
        stream = np.empty((len(batch), cfg.grid(0) ** 2, cfg.embed_dim), dtype=default_dtype())
        step = max(1, _STEM_BYTES // ((batch[0].size + stream[0].size) * stream.itemsize))
        for i in range(0, len(batch), step):
            stream[i:i + step] = linear_embed(
                patch_partition(batch[i:i + step], cfg.patch_size), *embed).values.data
        fm = FeatureMap(cfg.grid(0), cfg.grid(0), cfg.embed_dim, Tensor(stream))
        del batch, stream
    fm = FeatureMap(fm.height, fm.width, fm.dim,
                    layer_norm(fm.values, params["patch_embed.norm.gamma"],
                               params["patch_embed.norm.beta"], overwrite=True))
    rates = stochastic_depth_rates(cfg.drop_path_max, cfg.total_blocks)
    gi = 0
    for s in range(cfg.num_stages):
        if s > 0:  # the merge is handed the map's only reference
            held, fm = [fm], None
            fm = patch_merging(held.pop(), params[f"stages.{s}.merge.norm.gamma"],
                               params[f"stages.{s}.merge.norm.beta"],
                               params[f"stages.{s}.merge.reduction.weight"])
        for b in range(cfg.depths[s]):
            bp = {k: params[f"stages.{s}.blocks.{b}.{k}"] for k in BLOCK_KEYS}
            shifted = b % 2 == 1 and cfg.shift(s) > 0
            fm = swin_block(fm, bp, cfg.eff_window(s), cfg.heads[s], shifted,
                            drop_prob=rates[gi], training=training, rng=rng,
                            out=None if records else fm.values.data)
            gi += 1
    hfin = layer_norm(fm.values, params["norm.gamma"], params["norm.beta"], overwrite=True)
    logits = matmul(hfin.mean(axis=1), params["head.weight"]) + params["head.bias"]
    return logits[0] if single else logits
