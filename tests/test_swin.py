"""Architecture: published parameter/FLOP totals, exact structural
identities, and attention against brute-force oracles."""

import gc
import hashlib
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import (
    dense_window_attention,
    mask_zero_counts,
    region_attention_oracle,
    region_ids,
)
from oracles import init_params as init_params_oracle

from swinqa import swin
from swinqa.cli import INSPECT_ROWS
from swinqa.swin import (
    NEG,
    FeatureMap,
    SwinConfig,
    attention_branch,
    build_sw_attention_mask,
    concat_tiles,
    count_flops,
    count_params,
    cyclic_shift,
    forward,
    gather_tokens,
    init_params,
    linear_embed,
    mlp_branch,
    param_layout,
    patch_merging,
    patch_partition,
    preset,
    rel_pos_bias,
    relative_position_index,
    stochastic_depth_rates,
    swin_block,
    window_attention,
    window_partition,
    window_reverse,
)
from swinqa.tensor import (
    ShapeError,
    Tensor,
    backward,
    concat,
    gelu,
    grad_check,
    layer_norm,
    matmul,
    no_grad,
    using_dtype,
)


@pytest.fixture(autouse=True)
def float64_engine():
    with using_dtype("float64"):
        yield


def fmap(arr) -> FeatureMap:
    """[H, W, D] array -> batched FeatureMap."""
    h, w, d = arr.shape
    return FeatureMap(h, w, d, Tensor(arr.reshape(1, h * w, d)))


def micro_cfg(**over):
    base = dict(img_size=16, embed_dim=8, depths=(2,), heads=(2,), window=4)
    base.update(over)
    return SwinConfig(**base)


# --------------------------------------------------------- accounting


def test_param_counts_match_published_totals():
    assert count_params(preset("tiny")) == 27_520_892
    assert count_params(preset("small")) == 48_838_796
    assert count_params(preset("base")) == 86_745_274
    assert count_params(preset("base", img_size=1024, window=8)) == 86_766_330


def test_param_count_window_delta_is_bias_tables_only():
    w7 = count_params(preset("base", img_size=224, window=7))
    w8 = count_params(preset("base", img_size=1024, window=8))
    assert w8 - w7 == 21_056  # 376 heads x (15^2 - 13^2)


def test_param_count_equals_allocated_scalars():
    rng = np.random.default_rng(0)
    for cfg in (preset("tiny"), preset("micro"), micro_cfg(),
                preset("base", img_size=1024, window=8)):
        layout = param_layout(cfg)
        assert sum(int(np.prod(s)) for _, s in layout) == count_params(cfg)
    params = init_params(micro_cfg(), rng)
    assert sum(p.size for p in params.values()) == count_params(micro_cfg())
    assert list(params) == [n for n, _ in param_layout(micro_cfg())]


INIT_CONFIGS = {
    "micro": preset("micro"),
    "tiny": preset("tiny"),
    "p2-c1-w8": micro_cfg(img_size=32, patch_size=2, in_channels=1, window=8),
}


def params_digest(params) -> tuple:
    """(names, sha256 over each value's dtype, shape and bytes in order)."""
    h = hashlib.sha256()
    for p in params.values():
        h.update(f"{p.data.dtype.str}{p.shape}{p.requires_grad}".encode())
        h.update(p.data.tobytes())
    return list(params), h.hexdigest()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("name", list(INIT_CONFIGS))
def test_init_params_matches_per_tensor_oracle(name, dtype):
    """Chunked draws cast on store give the bytes of whole-tensor float64
    draws cast by Tensor(), in the same key order. One dict is alive at a
    time: two float64 `tiny` sets would hold 440 MB."""
    cfg = INIT_CONFIGS[name]
    with using_dtype(dtype):
        got = params_digest(init_params(cfg, np.random.default_rng(11)))
        want = params_digest(init_params_oracle(cfg, np.random.default_rng(11)))
    assert got == want
    assert got[0] == [n for n, _ in param_layout(cfg)]


def test_init_params_views_one_flat_buffer():
    cfg = INIT_CONFIGS["p2-c1-w8"]
    params = init_params(cfg, np.random.default_rng(0))
    flat = params["patch_embed.weight"].data.base
    assert flat.ndim == 1 and flat.flags.c_contiguous and flat.size == count_params(cfg)
    assert flat.dtype == np.float64  # the engine dtype of this file's fixture
    start, offset = flat.__array_interface__["data"][0], 0
    for name, shape in param_layout(cfg):
        view = params[name].data
        assert view.base is flat and view.shape == shape, name
        assert view.__array_interface__["data"][0] == start + offset * flat.itemsize, name
        offset += int(np.prod(shape))


def test_init_params_peak_is_one_flat_buffer():
    """No float64 copy of a whole weight is made: the traced peak of a
    float32 `tiny` init is its parameter bytes plus at most 1 MiB."""
    cfg = preset("tiny")
    with using_dtype("float32"):
        tracemalloc.start()
        try:
            params = init_params(cfg, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(params) == len(param_layout(cfg))
    assert peak <= count_params(cfg) * 4 + 2**20, peak


def test_flops_within_ten_percent_of_published():
    for cfg, want in [
        (preset("tiny"), 4.5e9),
        (preset("small"), 8.7e9),
        (preset("base"), 15.4e9),
        (preset("base", img_size=1024, window=8), 324.6e9),
    ]:
        got = count_flops(cfg)
        assert abs(got - want) / want < 0.10, (cfg, got, want)


def test_count_flops_pinned():
    # the exact sums of the four `swinqa inspect` rows, and of micro at 64
    got = {label: count_flops(preset(name, img_size=img_size, window=window))
           for label, name, img_size, window in INSPECT_ROWS}
    assert got == {"tiny-224/7": 4493563392.0, "small-224/7": 8745678336.0,
                   "base-224/7": 15437350912.0, "base-1024/8": 324559439872.0}
    assert count_flops(preset("micro", img_size=64)) == 10471296.0


def test_config_validation():
    with pytest.raises(ValueError):
        SwinConfig(img_size=225, embed_dim=96, depths=(2,), heads=(3,), window=7)
    with pytest.raises(ValueError):
        SwinConfig(img_size=224, embed_dim=96, depths=(2, 2), heads=(3,), window=7)
    with pytest.raises(ValueError):  # 56-grid not divisible by window 5
        SwinConfig(img_size=224, embed_dim=96, depths=(2,), heads=(3,), window=5)
    with pytest.raises(ValueError):  # dim 96 not divisible by 5 heads
        SwinConfig(img_size=224, embed_dim=96, depths=(2,), heads=(5,), window=7)
    for over in (dict(patch_size=0), dict(patch_size=-4), dict(in_channels=0)):
        with pytest.raises(ValueError, match="patch_size and in_channels"):
            micro_cfg(**over)


def test_config_refuses_a_grid_a_merge_cannot_halve():
    # micro at 80 has grids 20, 10, 5, 2: stage 2's 5x5 tokens hold no 2x2 tiling
    with pytest.raises(ValueError, match=r"^img_size 80 gives stage 2 an odd token grid 5, "
                                         r"which patch merging cannot halve$"):
        preset("micro", img_size=80, window=5)
    with pytest.raises(ValueError, match=r"^img_size 12 gives stage 0 an odd token grid 3,"):
        SwinConfig(img_size=12, embed_dim=8, depths=(1, 1), heads=(1, 1), window=3)
    # no merge follows the last stage, so its grid may be odd
    assert [preset("tiny", img_size=96, window=6).grid(s) for s in range(4)] == [24, 12, 6, 3]


def test_effective_window_clamps_to_grid():
    cfg = preset("micro")  # 64 px -> grids 16, 8, 4, 2 with window 4
    assert [cfg.grid(s) for s in range(4)] == [16, 8, 4, 2]
    assert [cfg.eff_window(s) for s in range(4)] == [4, 4, 4, 2]
    # shift only where several windows tile the grid
    assert [cfg.shift(s) for s in range(4)] == [2, 2, 0, 0]


# ------------------------------------------------------ token plumbing


def test_patch_partition_shapes():
    fm = patch_partition(np.zeros((224, 224, 3)), 4)
    assert (fm.height, fm.width, fm.dim) == (56, 56, 48)
    fm = patch_partition(np.zeros((1024, 1024, 3)), 4)
    assert (fm.height, fm.width) == (256, 256)
    with pytest.raises(ShapeError):
        patch_partition(np.zeros((30, 32, 3)), 4)


def test_patch_partition_single_patch_order():
    img = np.arange(48.0).reshape(4, 4, 3)  # value = 3*(4*row + col) + chan
    fm = patch_partition(img, 4)
    assert fm.values.shape == (1, 1, 48)
    assert np.array_equal(fm.values.data[0, 0], np.arange(48.0))


def test_patch_partition_is_lossless_rearrangement():
    rng = np.random.default_rng(3)
    img = rng.random((8, 12, 3))
    fm = patch_partition(img, 4)
    # token (r, c) holds the 4x4x3 block at rows 4r:4r+4, cols 4c:4c+4
    tok = fm.values.data[0].reshape(2, 3, 4, 4, 3)
    for r in range(2):
        for c in range(3):
            assert np.array_equal(tok[r, c], img[4 * r:4 * r + 4, 4 * c:4 * c + 4])


def test_linear_embed_degenerate_weights():
    rng = np.random.default_rng(4)
    fm = patch_partition(rng.random((8, 8, 3)), 4)
    eye = Tensor(np.eye(48))
    zero = Tensor(np.zeros(48))
    out = linear_embed(fm, eye, zero)
    assert np.array_equal(out.values.data, fm.values.data)
    b = rng.random(16)
    out = linear_embed(fm, Tensor(np.zeros((48, 16))), Tensor(b))
    assert np.allclose(out.values.data, b)
    w = rng.random((48, 16))
    out = linear_embed(fm, Tensor(w), Tensor(np.zeros(16)))
    assert np.allclose(out.values.data[0], fm.values.data[0] @ w)
    with pytest.raises(ShapeError):
        linear_embed(fm, Tensor(np.zeros((47, 16))), Tensor(np.zeros(16)))


def test_window_partition_counts_and_roundtrip():
    rng = np.random.default_rng(5)
    fm = fmap(rng.random((56, 56, 8)))
    ws = window_partition(fm, 7)
    assert ws.n_windows == 64 and ws.values.shape == (1, 64, 49, 8)
    assert np.array_equal(window_reverse(ws).values.data, fm.values.data)
    # M == extent: the single window is the whole map, row-major
    fm = fmap(rng.random((4, 4, 5)))
    ws = window_partition(fm, 4)
    assert ws.n_windows == 1
    assert np.array_equal(ws.values.data[0, 0], fm.values.data[0])
    for m in (1, 2, 4):
        fm = fmap(rng.random((8, 8, 3)))
        assert np.array_equal(window_reverse(window_partition(fm, m)).values.data,
                              fm.values.data)
    with pytest.raises(ShapeError):
        window_partition(fmap(rng.random((6, 6, 2))), 4)


def test_window_content_is_row_major_tiles():
    h, w, m = 4, 8, 2
    grid = np.arange(h * w, dtype=float).reshape(h, w)
    fm = fmap(grid[:, :, None])
    ws = window_partition(fm, m)
    # window index runs over tile rows then tile cols; tokens row-major inside
    assert np.array_equal(ws.values.data[0, 0, :, 0], [0, 1, 8, 9])
    assert np.array_equal(ws.values.data[0, 1, :, 0], [2, 3, 10, 11])
    assert np.array_equal(ws.values.data[0, 4, :, 0], [16, 17, 24, 25])


def test_cyclic_shift():
    rng = np.random.default_rng(6)
    fm = fmap(rng.random((5, 7, 3)))
    assert np.array_equal(cyclic_shift(fm, 0).values.data, fm.values.data)
    assert np.array_equal(cyclic_shift(cyclic_shift(fm, -2), 2).values.data,
                          fm.values.data)
    quad = fmap(np.array([[[1.0], [2.0]], [[3.0], [4.0]]]))  # [[a,b],[c,d]]
    rolled = cyclic_shift(quad, -1).values.data.reshape(2, 2)
    assert np.array_equal(rolled, [[4.0, 3.0], [2.0, 1.0]])  # [[d,c],[b,a]]


def test_shifted_partition_reverses_to_shifted_map():
    rng = np.random.default_rng(7)
    fm = fmap(rng.random((8, 8, 4)))
    shifted = cyclic_shift(fm, -2)
    back = window_reverse(window_partition(shifted, 4))
    assert np.array_equal(back.values.data, shifted.values.data)


# ------------------------------------------------------------- masks


def test_mask_unshifted_is_zero():
    m = build_sw_attention_mask(8, 8, 4, shift=0)
    assert m.values.shape == (4, 16, 16)
    assert not m.values.any()


def test_mask_single_window_group_structure():
    # H' = W' = M: the interior band is empty, leaving a 2x2 of the 9
    # possible (row band, col band) labels; zeros still count as sum |g|^2
    h = w = m = 4
    s = 2
    mask = build_sw_attention_mask(h, w, m, s)
    assert mask.values.shape == (1, 16, 16)
    ids = region_ids(h, w, m, s)
    labels = np.unique(ids)
    assert set(labels) <= set(range(9)) and len(labels) == 4
    sizes = np.bincount(ids.reshape(-1), minlength=9)
    assert (mask.values[0] == 0).sum() == (sizes ** 2).sum()


@pytest.mark.parametrize("h,w,m", [(8, 8, 4), (12, 8, 4), (6, 6, 2)])
def test_mask_zero_structure_matches_bruteforce(h, w, m):
    s = m // 2
    mask = build_sw_attention_mask(h, w, m, s)
    want = mask_zero_counts(h, w, m, s)
    got = (mask.values == 0).sum(axis=(1, 2))
    assert np.array_equal(got, want)
    # entries are only {0, NEG} and symmetric as a relation
    assert set(np.unique(mask.values)) <= {0.0, NEG}
    assert np.array_equal(mask.values, mask.values.transpose(0, 2, 1))


def test_mask_pairwise_against_region_labels():
    h = w = 8
    m, s = 4, 2
    mask = build_sw_attention_mask(h, w, m, s)
    ids = region_ids(h, w, m, s)
    # reproduce window token order independently and compare every entry
    for wr in range(2):
        for wc in range(2):
            cells = [(wr * m + i, wc * m + j) for i in range(m) for j in range(m)]
            wdx = wr * 2 + wc
            for a, (i1, j1) in enumerate(cells):
                for b, (i2, j2) in enumerate(cells):
                    want = 0.0 if ids[i1, j1] == ids[i2, j2] else NEG
                    assert mask.values[wdx, a, b] == want


# --------------------------------------------------------- attention


def rand_attn_params(rng, dim, heads, m):
    return dict(
        qkv_w=rng.standard_normal((dim, 3 * dim)) * 0.5,
        qkv_b=rng.standard_normal(3 * dim) * 0.5,
        proj_w=rng.standard_normal((dim, dim)) * 0.5,
        proj_b=rng.standard_normal(dim) * 0.5,
        table=rng.standard_normal(((2 * m - 1) ** 2, heads)) * 0.5,
    )


def run_window_attention(ws, p, m, heads, mask=None):
    return window_attention(
        ws, Tensor(p["qkv_w"]), Tensor(p["qkv_b"]), Tensor(p["proj_w"]),
        Tensor(p["proj_b"]), rel_pos_bias(Tensor(p["table"]), m), mask, heads)


def test_window_attention_dense_oracle():
    rng = np.random.default_rng(11)
    with using_dtype("float64"):
        for heads, m, gh, gw, dim in [(1, 2, 2, 4, 6), (2, 2, 4, 4, 8), (3, 4, 4, 8, 12)]:
            p = rand_attn_params(rng, dim, heads, m)
            fm = fmap(rng.standard_normal((gh, gw, dim)))
            ws = window_partition(fm, m)
            got = run_window_attention(ws, p, m, heads).values.data[0]
            want = dense_window_attention(
                ws.values.data[0], p["qkv_w"], p["qkv_b"], p["proj_w"], p["proj_b"],
                p["table"], relative_position_index(m), None, heads)
            assert np.abs(got - want).max() < 1e-10


def test_window_attention_dense_oracle_with_mask():
    rng = np.random.default_rng(12)
    with using_dtype("float64"):
        m, heads, dim = 4, 2, 8
        p = rand_attn_params(rng, dim, heads, m)
        mask = build_sw_attention_mask(8, 8, m, 2)
        fm = fmap(rng.standard_normal((8, 8, dim)))
        ws = window_partition(fm, m)
        got = run_window_attention(ws, p, m, heads, mask).values.data[0]
        want = dense_window_attention(
            ws.values.data[0], p["qkv_w"], p["qkv_b"], p["proj_w"], p["proj_b"],
            p["table"], relative_position_index(m), np.asarray(mask.values), heads)
        assert np.abs(got - want).max() < 1e-10


def test_window_attention_zero_weights_gives_mean_of_v_bias():
    rng = np.random.default_rng(13)
    with using_dtype("float64"):
        dim, heads, m = 6, 2, 2
        qkv_b = rng.standard_normal(3 * dim)
        proj_w = rng.standard_normal((dim, dim))
        proj_b = rng.standard_normal(dim)
        fm = fmap(rng.standard_normal((4, 4, dim)))
        ws = window_partition(fm, m)
        out = window_attention(
            ws, Tensor(np.zeros((dim, 3 * dim))), Tensor(qkv_b), Tensor(proj_w),
            Tensor(proj_b), rel_pos_bias(Tensor(np.zeros((9, heads))), m), None,
            heads).values.data
        want = qkv_b[2 * dim:] @ proj_w + proj_b  # uniform attention over equal V rows
        assert np.abs(out - want).max() < 1e-12


def test_window_attention_single_token_window():
    rng = np.random.default_rng(14)
    with using_dtype("float64"):
        dim, heads = 4, 2
        p = rand_attn_params(rng, dim, heads, 1)
        fm = fmap(rng.standard_normal((2, 2, dim)))
        ws = window_partition(fm, 1)
        got = run_window_attention(ws, p, 1, heads).values.data[0, :, 0]
        x = fm.values.data[0]
        v = x @ p["qkv_w"][:, 2 * dim:] + p["qkv_b"][2 * dim:]
        want = v @ p["proj_w"] + p["proj_b"]  # softmax over one key is 1
        assert np.abs(got - want).max() < 1e-12


def test_window_attention_permutation_equivariance():
    rng = np.random.default_rng(15)
    dim, heads, m = 8, 2, 2
    p = rand_attn_params(rng, dim, heads, m)
    fm = fmap(rng.standard_normal((4, 8, dim)))
    ws = window_partition(fm, m)
    out = run_window_attention(ws, p, m, heads).values.data
    perm = rng.permutation(ws.n_windows)
    ws_p = swin.WindowSet(m, dim, ws.grid, Tensor(ws.values.data[:, perm]))
    out_p = run_window_attention(ws_p, p, m, heads).values.data
    assert np.array_equal(out_p[:, np.argsort(perm)], out)


def test_sw_msa_matches_region_oracle():
    rng = np.random.default_rng(16)
    with using_dtype("float64"):
        m, heads, dim = 4, 2, 8
        for trial in range(10):
            p = rand_attn_params(rng, dim, heads, m)
            x = rng.standard_normal((8, 8, dim))
            fm = fmap(x)
            shifted = cyclic_shift(fm, -(m // 2))
            mask = build_sw_attention_mask(8, 8, m, m // 2)
            ws = window_partition(shifted, m)
            ws = run_window_attention(ws, p, m, heads, mask)
            got = cyclic_shift(window_reverse(ws), m // 2).values.data.reshape(8, 8, dim)
            want = region_attention_oracle(
                x, p["qkv_w"], p["qkv_b"], p["proj_w"], p["proj_b"],
                p["table"], m, heads)
            assert np.abs(got - want).max() < 1e-5


# ------------------------------------------------- fused attention op

ATTN_ARGS = ("x", "qkv_w", "qkv_b", "proj_w", "proj_b", "table")


def attn_inputs(rng, batch=2, grid=(8, 8), m=4, dim=8, heads=2):
    """Window values and the five attention parameters as float64 arrays."""
    arrays = rand_attn_params(rng, dim, heads, m)
    arrays["x"] = rng.standard_normal((batch, (grid[0] // m) * (grid[1] // m), m * m, dim))
    return arrays


def fused_attention(t, mask, grid=(8, 8), m=4, heads=2) -> Tensor:
    """window_attention on a dict of ATTN_ARGS tensors; returns the values."""
    ws = swin.WindowSet(m, t["x"].shape[-1], grid, t["x"])
    return window_attention(ws, t["qkv_w"], t["qkv_b"], t["proj_w"], t["proj_b"],
                            rel_pos_bias(t["table"], m), mask, heads).values


@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("wrt", ATTN_ARGS)
def test_window_attention_grad_check(wrt, shifted):
    rng = np.random.default_rng([ATTN_ARGS.index(wrt), shifted])
    tensors = {k: Tensor(a) for k, a in attn_inputs(rng).items()}
    mask = build_sw_attention_mask(8, 8, 4, 2) if shifted else None
    mix = Tensor(rng.standard_normal(tensors["x"].shape))

    def f(t):
        return (fused_attention({**tensors, wrt: t}, mask) * mix).sum()

    probe, f_probe = tensors[wrt], f
    if wrt == "qkv_b":
        # a key bias adds the same q.b_k to every score of a row, which the
        # softmax cancels: its true gradient is 0, where finite differences
        # leave only rounding noise. Check it is 0 and probe q and v biases.
        d = probe.size // 3
        q_b, k_b, v_b = np.split(probe.data, 3)
        leaf = Tensor(probe.data, requires_grad=True)
        backward(f(leaf))
        assert np.abs(leaf.grad[d:2 * d]).max() < 1e-12 * np.abs(leaf.grad).max()
        probe = Tensor(np.concatenate([q_b, v_b]))

        def f_probe(t):
            return f(concat([t[:d], Tensor(k_b), t[d:]], axis=0))

    assert grad_check(f_probe, probe) < 1e-4


def run_fused_attention(arrays, weight, dtype, shifted, grads=None):
    """Forward and backward of (attention * weight).sum() at `dtype`; returns
    the output and every input gradient. `grads` optionally presets each
    leaf's .grad (e.g. views of one flat buffer, as training does)."""
    with using_dtype(dtype):
        mask = build_sw_attention_mask(8, 8, 4, 2) if shifted else None
        t = {k: Tensor(a, requires_grad=True) for k, a in arrays.items()}
        for k, g in (grads or {}).items():
            t[k].grad = g
        y = fused_attention(t, mask)
        backward((y * Tensor(weight)).sum())
        return [y.data] + [t[k].grad for k in ATTN_ARGS]


@pytest.mark.parametrize("shifted", [False, True])
def test_window_attention_float32_matches_float64(shifted):
    rng = np.random.default_rng(31 + shifted)
    arrays = attn_inputs(rng)
    weight = rng.standard_normal(arrays["x"].shape)
    got32 = run_fused_attention(arrays, weight, "float32", shifted)
    got64 = run_fused_attention(arrays, weight, "float64", shifted)
    for got, want in zip(got32, got64):
        assert got.dtype == np.float32
        assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_window_attention_leaves_shared_buffer_unchanged(dtype):
    """Inputs as views of one flat buffer and gradients as views of another,
    as training keeps them: the op writes into neither input, and every
    gradient lands in its view."""
    rng = np.random.default_rng(33)
    arrays = attn_inputs(rng)
    weight = rng.standard_normal(arrays["x"].shape)
    flat = np.concatenate([arrays[k].ravel() for k in ATTN_ARGS]).astype(dtype)
    before = flat.copy()
    flat_grad = np.zeros_like(flat)
    views, grads, start = {}, {}, 0
    for k in ATTN_ARGS:
        size = arrays[k].size
        views[k] = flat[start:start + size].reshape(arrays[k].shape)
        grads[k] = flat_grad[start:start + size].reshape(arrays[k].shape)
        start += size
    with using_dtype(dtype):  # the leaves wrap the views, no copies
        assert all(np.shares_memory(Tensor(v).data, flat) for v in views.values())
    got = run_fused_attention(views, weight, dtype, True, grads)
    assert np.array_equal(flat, before)
    want = run_fused_attention(arrays, weight, dtype, True)
    for k, g_flat, g, g_fresh in zip(ATTN_ARGS, grads.values(), got[1:], want[1:]):
        assert g is g_flat, k
        assert np.array_equal(g, g_fresh), k


@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_window_attention_no_grad_output_matches_recording(dtype, shifted):
    arrays = attn_inputs(np.random.default_rng(34))
    with using_dtype(dtype):
        mask = build_sw_attention_mask(8, 8, 4, 2) if shifted else None
        recorded = fused_attention({k: Tensor(a, requires_grad=True)
                                    for k, a in arrays.items()}, mask)
        with no_grad():
            plain = fused_attention({k: Tensor(a, requires_grad=True)
                                     for k, a in arrays.items()}, mask)
    assert recorded._parents and not plain._parents and plain._backward is None
    assert np.array_equal(plain.data, recorded.data)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(heads=st.integers(1, 3), m=st.integers(1, 3), d_head=st.integers(1, 3),
       batch=st.integers(1, 2), tiles=st.tuples(st.integers(1, 2), st.integers(1, 2)),
       shifted=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_window_attention_random_shapes_match_dense_oracle(
        heads, m, d_head, batch, tiles, shifted, seed):
    dim, grid = heads * d_head, (tiles[0] * m, tiles[1] * m)
    rng = np.random.default_rng(seed)
    with using_dtype("float64"):
        arrays = attn_inputs(rng, batch, grid, m, dim, heads)
        mask = build_sw_attention_mask(*grid, m, m // 2) if shifted else None
        got = fused_attention({k: Tensor(a) for k, a in arrays.items()},
                              mask, grid, m, heads).data
    for bi in range(batch):
        want = dense_window_attention(
            arrays["x"][bi], arrays["qkv_w"], arrays["qkv_b"], arrays["proj_w"],
            arrays["proj_b"], arrays["table"], relative_position_index(m),
            None if mask is None else np.asarray(mask.values), heads)
        assert np.abs(got[bi] - want).max() < 1e-10


def test_window_attention_rejects_mismatched_shapes():
    """Parameter and mask shapes are checked as attention_branch checks
    them: a length-1 bias would otherwise broadcast, and a wrong weight
    would fail inside numpy."""
    t = {k: Tensor(a) for k, a in attn_inputs(np.random.default_rng(35)).items()}
    for k, shape in (("qkv_b", (1,)), ("proj_b", (1,)), ("qkv_w", (8, 16)),
                     ("proj_w", (4, 8)), ("table", (49, 3))):
        with pytest.raises(ShapeError, match="bias-table"):
            fused_attention({**t, k: Tensor(np.zeros(shape))}, None)
    with pytest.raises(ShapeError, match="mask"):
        fused_attention(t, build_sw_attention_mask(8, 8, 2, 1))
    with pytest.raises(ShapeError, match="heads"):
        fused_attention(t, None, heads=3)


# ------------------------------------------------------ fused MLP op

MLP_ARGS = ("x", "gamma", "beta", "fc1_w", "fc1_b", "fc2_w", "fc2_b")
GATE = np.array([0.0, 1.25])  # one sample dropped, one kept at 1/keep


def mlp_inputs(rng, shape=(2, 6, 8), hid=12):
    """Branch input and the six MLP-branch parameters as float64 arrays."""
    d = shape[-1]
    return {"x": rng.standard_normal(shape) * 2 + 0.5,
            "gamma": 1.0 + 0.3 * rng.standard_normal(d), "beta": 0.3 * rng.standard_normal(d),
            "fc1_w": 0.5 * rng.standard_normal((d, hid)), "fc1_b": 0.3 * rng.standard_normal(hid),
            "fc2_w": 0.5 * rng.standard_normal((hid, d)), "fc2_b": 0.3 * rng.standard_normal(d)}


def fused_mlp(t, gate=None) -> Tensor:
    return mlp_branch(*(t[k] for k in MLP_ARGS), gate=gate)


def composed_mlp(t, gate=None) -> Tensor:
    """The same branch from the separate layer_norm/matmul/gelu ops."""
    h = layer_norm(t["x"], t["gamma"], t["beta"])
    h = matmul(gelu(matmul(h, t["fc1_w"]) + t["fc1_b"]), t["fc2_w"]) + t["fc2_b"]
    if gate is not None:
        h = h * Tensor(gate.reshape(-1, 1, 1))
    return t["x"] + h


@pytest.mark.parametrize("gated", [False, True])
@pytest.mark.parametrize("wrt", MLP_ARGS)
def test_mlp_branch_grad_check(wrt, gated):
    rng = np.random.default_rng([MLP_ARGS.index(wrt), gated])
    tensors = {k: Tensor(a) for k, a in mlp_inputs(rng).items()}
    mix = Tensor(rng.standard_normal(tensors["x"].shape))
    gate = GATE if gated else None

    def f(t):
        return (fused_mlp({**tensors, wrt: t}, gate) * mix).sum()

    assert grad_check(f, tensors[wrt]) < 1e-4


def run_fused_mlp(arrays, weight, dtype, gate=None, grads=None):
    """Forward and backward of (mlp_branch * weight).sum() at `dtype`;
    returns the output and every input gradient. `grads` optionally
    presets each leaf's .grad, as training does with its flat buffer."""
    with using_dtype(dtype):
        t = {k: Tensor(a, requires_grad=True) for k, a in arrays.items()}
        for k, g in (grads or {}).items():
            t[k].grad = g
        y = fused_mlp(t, gate)
        backward((y * Tensor(weight)).sum())
        return [y.data] + [t[k].grad for k in MLP_ARGS]


@pytest.mark.parametrize("gated", [False, True])
def test_mlp_branch_float32_matches_float64(gated):
    rng = np.random.default_rng(41 + gated)
    arrays = mlp_inputs(rng, (2, 700, 24), 96)  # two row blocks, the last partial
    arrays["fc1_b"][:2] = (7.0, -7.0)  # pre-activations beyond the float32 erf clamp
    weight = rng.standard_normal(arrays["x"].shape)
    gate = GATE if gated else None
    got32 = run_fused_mlp(arrays, weight, "float32", gate)
    got64 = run_fused_mlp(arrays, weight, "float64", gate)
    for name, got, want in zip(("out",) + MLP_ARGS, got32, got64):
        assert got.dtype == np.float32, name
        assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max(), name


@pytest.mark.parametrize("gated", [False, True])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_mlp_branch_no_grad_output_matches_recording(dtype, gated):
    arrays = mlp_inputs(np.random.default_rng(43), (2, 700, 24), 96)
    assert 2 * 700 > max(swin._MLP_MIN_ROWS, swin._MLP_BLOCK // 96)  # two row blocks
    gate = GATE if gated else None
    with using_dtype(dtype):
        recorded = fused_mlp({k: Tensor(a, requires_grad=True) for k, a in arrays.items()}, gate)
        with no_grad():
            plain = fused_mlp({k: Tensor(a, requires_grad=True)
                               for k, a in arrays.items()}, gate)
    assert recorded._parents and not plain._parents and plain._backward is None
    assert np.array_equal(plain.data, recorded.data)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_mlp_branch_leaves_shared_buffer_unchanged(dtype):
    """Inputs as views of one flat buffer and gradients as views of another,
    as training keeps them: the op writes into neither input, and every
    gradient lands in its view."""
    rng = np.random.default_rng(44)
    arrays = mlp_inputs(rng)
    weight = rng.standard_normal(arrays["x"].shape)
    flat = np.concatenate([arrays[k].ravel() for k in MLP_ARGS]).astype(dtype)
    before = flat.copy()
    flat_grad = np.zeros_like(flat)
    views, grads, start = {}, {}, 0
    for k in MLP_ARGS:
        size = arrays[k].size
        views[k] = flat[start:start + size].reshape(arrays[k].shape)
        grads[k] = flat_grad[start:start + size].reshape(arrays[k].shape)
        start += size
    for gate in (None, GATE):
        flat_grad[...] = 0.0
        got = run_fused_mlp(views, weight, dtype, gate, grads)
        assert np.array_equal(flat, before)
        want = run_fused_mlp(arrays, weight, dtype, gate)
        for k, g_flat, g, g_fresh in zip(MLP_ARGS, grads.values(), got[1:], want[1:]):
            assert g is g_flat, k
            assert np.array_equal(g, g_fresh), k


def test_mlp_branch_rejects_mismatched_shapes():
    t = {k: Tensor(a) for k, a in mlp_inputs(np.random.default_rng(45)).items()}
    with pytest.raises(ShapeError, match="fc2 weight"):
        fused_mlp({**t, "fc2_w": Tensor(np.zeros((8, 12)))})
    with pytest.raises(ShapeError, match="fc1 weight"):
        fused_mlp({**t, "x": Tensor(np.zeros((2, 6, 9)))})
    with pytest.raises(ShapeError, match="gate"):
        fused_mlp(t, np.ones(3))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(batch=st.integers(1, 3), tokens=st.integers(1, 5), d=st.integers(1, 6),
       hid=st.integers(1, 8), gated=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_mlp_branch_random_shapes_match_composed_ops(batch, tokens, d, hid, gated, seed):
    rng = np.random.default_rng(seed)
    arrays = mlp_inputs(rng, (batch, tokens, d), hid)
    gate = (rng.random(batch) < 0.5) * 2.0 if gated else None
    weight = Tensor(rng.standard_normal((batch, tokens, d)))
    results = []
    for op in (fused_mlp, composed_mlp):
        t = {k: Tensor(a, requires_grad=True) for k, a in arrays.items()}
        y = op(t, gate)
        backward((y * weight).sum())
        results.append([y.data] + [t[k].grad for k in MLP_ARGS])
    for name, got, want in zip(("out",) + MLP_ARGS, *results):
        assert np.abs(got - want).max() < 1e-10, name


# ------------------------------------------------ fused attention branch

BRANCH_ARGS = ("x", "gamma", "beta", "qkv_w", "qkv_b", "proj_w", "proj_b", "table")


def branch_inputs(rng, batch=2, grid=(8, 8), m=4, dim=8, heads=2):
    """Branch input [B, h*w, dim] and its seven parameters as float64 arrays.
    The qkv weights are halved: on unit-variance normed rows, full-size ones
    saturate the softmax, and some bias-table gradients then fall to ~1e-9,
    below the rounding noise of the grad check's central differences."""
    arrays = rand_attn_params(rng, dim, heads, m)
    arrays["qkv_w"] *= 0.5
    arrays["x"] = rng.standard_normal((batch, grid[0] * grid[1], dim)) * 2 + 0.5
    arrays["gamma"] = 1.0 + 0.3 * rng.standard_normal(dim)
    arrays["beta"] = 0.3 * rng.standard_normal(dim)
    return arrays


def branch_mask(grid, m, shift):
    return build_sw_attention_mask(*grid, m, shift) if shift else None


def fused_branch(t, grid=(8, 8), m=4, heads=2, shift=0, gate=None) -> Tensor:
    return attention_branch(t["x"], *grid, *(t[k] for k in BRANCH_ARGS[1:]), m, heads,
                            shift, gate)


def composed_branch(t, grid=(8, 8), m=4, heads=2, shift=0, gate=None) -> Tensor:
    """The same branch from layer_norm, cyclic_shift, window_partition,
    window_attention and window_reverse."""
    fm = FeatureMap(*grid, t["x"].shape[-1], layer_norm(t["x"], t["gamma"], t["beta"]))
    if shift:
        fm = cyclic_shift(fm, -shift)
    ws = window_attention(window_partition(fm, m), t["qkv_w"], t["qkv_b"], t["proj_w"],
                          t["proj_b"], rel_pos_bias(t["table"], m),
                          branch_mask(grid, m, shift), heads)
    fm = window_reverse(ws)
    if shift:
        fm = cyclic_shift(fm, shift)
    h = fm.values
    if gate is not None:
        h = h * Tensor(gate.reshape(-1, 1, 1))
    return t["x"] + h


def dense_branch(a, grid, m, heads, shift, gate) -> np.ndarray:
    """The branch in plain numpy around oracles.dense_window_attention."""
    x = a["x"]
    xc = x - x.mean(axis=-1, keepdims=True)
    xn = xc / np.sqrt((xc ** 2).mean(axis=-1, keepdims=True) + 1e-5) * a["gamma"] + a["beta"]
    (h, w), d = grid, x.shape[-1]
    mask = branch_mask(grid, m, shift)
    out = np.empty_like(x)
    for bi in range(len(x)):
        rolled = np.roll(xn[bi].reshape(h, w, d), (-shift, -shift), (0, 1))
        xw = rolled.reshape(h // m, m, w // m, m, d).transpose(0, 2, 1, 3, 4).reshape(-1, m * m, d)
        yw = dense_window_attention(xw, a["qkv_w"], a["qkv_b"], a["proj_w"], a["proj_b"],
                                    a["table"], relative_position_index(m),
                                    None if mask is None else np.asarray(mask.values), heads)
        y = yw.reshape(h // m, w // m, m, m, d).transpose(0, 2, 1, 3, 4).reshape(h, w, d)
        out[bi] = np.roll(y, (shift, shift), (0, 1)).reshape(h * w, d)
    if gate is not None:
        out *= gate[:, None, None]
    return x + out


@pytest.mark.parametrize("gated", [False, True])
@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("wrt", BRANCH_ARGS)
def test_attention_branch_grad_check(wrt, shifted, gated):
    rng = np.random.default_rng([BRANCH_ARGS.index(wrt), shifted, gated])
    tensors = {k: Tensor(a) for k, a in branch_inputs(rng).items()}
    mix = Tensor(rng.standard_normal(tensors["x"].shape))
    shift, gate = (2 if shifted else 0), (GATE if gated else None)

    def f(t):
        return (fused_branch({**tensors, wrt: t}, shift=shift, gate=gate) * mix).sum()

    probe, f_probe = tensors[wrt], f
    if wrt == "qkv_b":
        # the softmax cancels a key bias (see test_window_attention_grad_check):
        # check its gradient is 0 and probe the q and v biases
        d = probe.size // 3
        q_b, k_b, v_b = np.split(probe.data, 3)
        leaf = Tensor(probe.data, requires_grad=True)
        backward(f(leaf))
        assert np.abs(leaf.grad[d:2 * d]).max() < 1e-12 * np.abs(leaf.grad).max()
        probe = Tensor(np.concatenate([q_b, v_b]))

        def f_probe(t):
            return f(concat([t[:d], Tensor(k_b), t[d:]], axis=0))

    assert grad_check(f_probe, probe) < 1e-4


def run_fused_branch(arrays, weight, dtype, shift, gate=None, grads=None):
    """Forward and backward of (attention_branch * weight).sum() at `dtype`;
    returns the output and every input gradient. `grads` optionally
    presets each leaf's .grad, as training does with its flat buffer."""
    with using_dtype(dtype):
        t = {k: Tensor(a, requires_grad=True) for k, a in arrays.items()}
        for k, g in (grads or {}).items():
            t[k].grad = g
        y = fused_branch(t, shift=shift, gate=gate)
        backward((y * Tensor(weight)).sum())
        return [y.data] + [t[k].grad for k in BRANCH_ARGS]


@pytest.mark.parametrize("gated", [False, True])
@pytest.mark.parametrize("shifted", [False, True])
def test_attention_branch_float32_matches_float64(shifted, gated):
    rng = np.random.default_rng([51, shifted, gated])
    arrays = branch_inputs(rng)
    weight = rng.standard_normal(arrays["x"].shape)
    shift, gate = (2 if shifted else 0), (GATE if gated else None)
    got32 = run_fused_branch(arrays, weight, "float32", shift, gate)
    got64 = run_fused_branch(arrays, weight, "float64", shift, gate)
    for name, got, want in zip(("out",) + BRANCH_ARGS, got32, got64):
        assert got.dtype == np.float32, name
        assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max(), name


@pytest.mark.parametrize("gated", [False, True])
@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_attention_branch_no_grad_output_matches_recording(dtype, shifted, gated):
    """Over two image blocks, the last partial, without and with a graph:
    the same bits, and those of the composed ops."""
    grid, m, dim, heads, batch = (16, 16), 4, 24, 2, 9
    images = swin._MLP_BLOCK // (grid[0] * grid[1] * 3 * dim)  # per block
    assert 1 < images < batch and batch % images  # two blocks, the last partial
    arrays = branch_inputs(np.random.default_rng(52), batch, grid, m, dim, heads)
    shift, gate = (2 if shifted else 0), (np.resize(GATE, batch) if gated else None)
    with using_dtype(dtype):
        recorded = fused_branch({k: Tensor(a, requires_grad=True) for k, a in arrays.items()},
                                grid, m, heads, shift, gate)
        with no_grad():
            plain = fused_branch({k: Tensor(a, requires_grad=True)
                                  for k, a in arrays.items()}, grid, m, heads, shift, gate)
            composed = composed_branch({k: Tensor(a) for k, a in arrays.items()},
                                       grid, m, heads, shift, gate)
    assert recorded._parents and not plain._parents and plain._backward is None
    assert np.array_equal(plain.data, recorded.data)
    assert np.array_equal(recorded.data, composed.data)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_attention_branch_leaves_shared_buffer_unchanged(dtype):
    """Inputs as views of one flat buffer and gradients as views of another,
    as training keeps them: the op writes into neither input, and every
    gradient lands in its view."""
    rng = np.random.default_rng(53)
    arrays = branch_inputs(rng)
    weight = rng.standard_normal(arrays["x"].shape)
    flat = np.concatenate([arrays[k].ravel() for k in BRANCH_ARGS]).astype(dtype)
    before = flat.copy()
    flat_grad = np.zeros_like(flat)
    views, grads, start = {}, {}, 0
    for k in BRANCH_ARGS:
        size = arrays[k].size
        views[k] = flat[start:start + size].reshape(arrays[k].shape)
        grads[k] = flat_grad[start:start + size].reshape(arrays[k].shape)
        start += size
    with using_dtype(dtype):  # the leaves wrap the views, no copies
        assert all(np.shares_memory(Tensor(v).data, flat) for v in views.values())
    for gate in (None, GATE):
        flat_grad[...] = 0.0
        got = run_fused_branch(views, weight, dtype, 2, gate, grads)
        assert np.array_equal(flat, before)
        want = run_fused_branch(arrays, weight, dtype, 2, gate)
        for k, g_flat, g, g_fresh in zip(BRANCH_ARGS, grads.values(), got[1:], want[1:]):
            assert g is g_flat, k
            assert np.array_equal(g, g_fresh), k


def test_attention_branch_rejects_mismatched_shapes():
    t = {k: Tensor(a) for k, a in branch_inputs(np.random.default_rng(54)).items()}
    with pytest.raises(ShapeError, match="bias-table"):
        fused_branch({**t, "table": Tensor(np.zeros((9, 2)))})
    with pytest.raises(ShapeError, match="divisible by window"):
        fused_branch(t, grid=(2, 32))
    with pytest.raises(ShapeError, match="shift"):
        fused_branch(t, shift=4)
    with pytest.raises(ShapeError, match="gate"):
        fused_branch(t, gate=np.ones(3))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(heads=st.integers(1, 3), m=st.integers(1, 3), d_head=st.integers(1, 3),
       batch=st.integers(1, 3), tiles=st.tuples(st.integers(1, 2), st.integers(1, 2)),
       shift=st.integers(0, 2), gated=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_attention_branch_random_shapes_match_composed_ops(
        heads, m, d_head, batch, tiles, shift, gated, seed):
    dim, grid, shift = heads * d_head, (tiles[0] * m, tiles[1] * m), shift % m
    rng = np.random.default_rng(seed)
    arrays = branch_inputs(rng, batch, grid, m, dim, heads)
    gate = (rng.random(batch) < 0.5) * 2.0 if gated else None
    weight = Tensor(rng.standard_normal(arrays["x"].shape))
    results = []
    for op in (fused_branch, composed_branch):
        t = {k: Tensor(a, requires_grad=True) for k, a in arrays.items()}
        y = op(t, grid, m, heads, shift, gate)
        backward((y * weight).sum())
        results.append([y.data] + [t[k].grad for k in BRANCH_ARGS])
    (got, *got_grads), (want, *want_grads) = results
    assert np.array_equal(got, want)
    assert np.abs(got - dense_branch(arrays, grid, m, heads, shift, gate)).max() < 1e-10
    for name, g, g_want in zip(BRANCH_ARGS, got_grads, want_grads):
        assert np.abs(g - g_want).max() < 1e-10, name


# ------------------------------------------------------------ blocks


def rand_block_params(rng, dim, heads, m, zero_table=False, hid_ratio=4):
    hid = dim * hid_ratio
    return {
        "norm1.gamma": Tensor(np.ones(dim), requires_grad=True),
        "norm1.beta": Tensor(np.zeros(dim), requires_grad=True),
        "attn.qkv.weight": Tensor(rng.standard_normal((dim, 3 * dim)) * 0.2, requires_grad=True),
        "attn.qkv.bias": Tensor(rng.standard_normal(3 * dim) * 0.1, requires_grad=True),
        "attn.proj.weight": Tensor(rng.standard_normal((dim, dim)) * 0.2, requires_grad=True),
        "attn.proj.bias": Tensor(rng.standard_normal(dim) * 0.1, requires_grad=True),
        "attn.bias_table": Tensor(
            np.zeros(((2 * m - 1) ** 2, heads)) if zero_table
            else rng.standard_normal(((2 * m - 1) ** 2, heads)) * 0.2,
            requires_grad=True),
        "norm2.gamma": Tensor(np.ones(dim), requires_grad=True),
        "norm2.beta": Tensor(np.zeros(dim), requires_grad=True),
        "mlp.fc1.weight": Tensor(rng.standard_normal((dim, hid)) * 0.2, requires_grad=True),
        "mlp.fc1.bias": Tensor(np.zeros(hid), requires_grad=True),
        "mlp.fc2.weight": Tensor(rng.standard_normal((hid, dim)) * 0.2, requires_grad=True),
        "mlp.fc2.bias": Tensor(np.zeros(dim), requires_grad=True),
    }


def test_swin_block_drop_prob_one_is_identity():
    rng = np.random.default_rng(17)
    bp = rand_block_params(rng, 8, 2, 4)
    fm = fmap(rng.standard_normal((8, 8, 8)))
    out = swin_block(fm, bp, window=4, heads=2, shifted=True, drop_prob=1.0, training=True,
                     rng=np.random.default_rng(0))
    assert np.array_equal(out.values.data, fm.values.data)


def test_swin_block_eval_ignores_drop_prob():
    rng = np.random.default_rng(18)
    bp = rand_block_params(rng, 8, 2, 4)
    fm = fmap(rng.standard_normal((8, 8, 8)))
    a = swin_block(fm, bp, window=4, heads=2, shifted=False, drop_prob=0.7, training=False)
    b = swin_block(fm, bp, window=4, heads=2, shifted=False, drop_prob=0.0, training=False)
    assert np.array_equal(a.values.data, b.values.data)


def test_swin_block_drop_path_scales_surviving_branch():
    rng = np.random.default_rng(19)
    bp = rand_block_params(rng, 8, 2, 4)
    fm = fmap(np.random.default_rng(1).standard_normal((8, 8, 8)))
    # all samples survive (p=0 draw impossible to fail) -> equals eval output / (1-p) mixing;
    # with batch of 1 and a surviving draw, branch is scaled by 1/(1-p)
    p = 0.5
    seed_survive = None
    for seed in range(50):
        if np.random.default_rng(seed).random(1)[0] < 1 - p:
            seed_survive = seed
            break
    out = swin_block(fm, bp, window=4, heads=2, shifted=False, drop_prob=p, training=True,
                     rng=np.random.default_rng(seed_survive))
    base = swin_block(fm, bp, window=4, heads=2, shifted=False, drop_prob=0.0, training=False)
    attn_delta = base.values.data - fm.values.data  # both branches, unscaled
    scaled_delta = out.values.data - fm.values.data
    # the two branches interact (second LN sees scaled x1), so only check
    # the first-order property on the attention branch via a pure-attention block
    assert not np.array_equal(scaled_delta, attn_delta)


def test_swin_block_torus_constant_shift_symmetry():
    """A map that equals its own shift by s makes SW-MSA and W-MSA agree
    when the relative position bias is zero."""
    rng = np.random.default_rng(20)
    with using_dtype("float64"):
        bp = rand_block_params(rng, 8, 2, 4, zero_table=True)
        tile = rng.standard_normal((2, 2, 8))
        grid = np.tile(tile, (4, 4, 1))  # 8x8, period 2 == shift
        fm = fmap(grid)
        shifted = swin_block(fm, bp, window=4, heads=2, shifted=True)
        plain = swin_block(fm, bp, window=4, heads=2, shifted=False)
        assert np.abs(shifted.values.data - plain.values.data).max() < 1e-10


def graph_nodes(t: Tensor) -> int:
    """Op nodes (tensors with a backward rule) reachable from t."""
    seen, stack, count = set(), [t], 0
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            count += node._backward is not None
            stack.extend(node._parents)
    return count


@pytest.mark.parametrize("shifted,limit", [(False, 2), (True, 2)])
def test_swin_block_graph_node_count(shifted, limit):
    """The attention branch and the MLP branch are one node each, shifted
    or not."""
    rng = np.random.default_rng(35)
    bp = rand_block_params(rng, 8, 2, 4)
    x = Tensor(rng.standard_normal((1, 64, 8)), requires_grad=True)
    out = swin_block(FeatureMap(8, 8, 8, x), bp, window=4, heads=2, shifted=shifted)
    assert graph_nodes(out.values) <= limit


def test_micro_forward_graph_node_count(monkeypatch):
    """A micro training forward at batch 4 records at most 27 nodes: two
    per block, and per patch merging at most three (the tile concatenation,
    the layer norm and the GEMM)."""
    merges, merging = [], swin.patch_merging

    def counted(fm, *args):
        out = merging(fm, *args)
        merges.append(graph_nodes(out.values) - graph_nodes(fm.values))
        return out

    monkeypatch.setattr(swin, "patch_merging", counted)
    cfg = preset("micro")
    rng = np.random.default_rng(38)
    with using_dtype("float32"):
        params = init_params(cfg, rng)
        logits = forward(rng.random((4, 64, 64, 3)), cfg, params, training=True,
                         rng=np.random.default_rng(1))
    assert graph_nodes(logits) <= 27
    assert len(merges) == 3 and max(merges) <= 3


@pytest.mark.parametrize("shifted", [False, True])
def test_swin_block_eval_allocates_block_sized_scratch(shifted):
    """A no-grad block at the micro stage-0 shape, batch 64: beyond its
    output, both branches allocate block-sized scratch only, so the traced
    peak (numpy reports its buffers to tracemalloc) stays within three
    times the output's bytes."""
    with using_dtype("float32"), no_grad():
        rng = np.random.default_rng(36)
        bp = rand_block_params(rng, 24, 2, 4)
        fm = FeatureMap(16, 16, 24, Tensor(rng.standard_normal((64, 256, 24))))
        swin_block(fm, bp, window=4, heads=2, shifted=shifted)  # fills the mask cache
        tracemalloc.start()
        try:
            out = swin_block(fm, bp, window=4, heads=2, shifted=shifted)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 3 * out.values.data.nbytes


def test_no_grad_evaluate_holds_one_residual_stream():
    """A second no-grad evaluate of 64 gray 8-bit images, micro at batch 64
    (the first fills the caches), holds the float32 batch (3 MiB) until
    the stem has embedded it, one residual stream (1.5 MiB at stage 0) and
    chunk-sized scratch: a traced peak of at most 5.5 MiB. Holding the
    batch beside its tile copy, and each block's input beside its branch
    outputs, peaked at 6.0 MiB."""
    from swinqa.data import SampleRecord
    from swinqa.train import evaluate
    cfg = preset("micro")
    rng = np.random.default_rng(47)
    records = [SampleRecord(source=str(i), label=i % 2,
                            image=rng.integers(0, 256, (64, 64), dtype=np.uint8))
               for i in range(64)]
    with using_dtype("float32"):
        params = init_params(cfg, rng)
        evaluate(cfg, params, records, batch_size=64)
        tracemalloc.start()
        try:
            evaluate(cfg, params, records, batch_size=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 5.5 * 2**20, peak


def test_swin_block_gradcheck_shifted():
    rng = np.random.default_rng(21)
    with using_dtype("float64"):
        bp = rand_block_params(rng, 16, 2, 4, hid_ratio=2)
        mix = rng.standard_normal((1, 64, 16))

        def f(t):
            out = swin_block(FeatureMap(8, 8, 16, t), bp, window=4, heads=2, shifted=True)
            return (out.values * Tensor(mix)).sum()

        x = Tensor(rng.standard_normal((1, 64, 16)))
        assert grad_check(f, x) < 1e-4


# ------------------------------------------------------------ merging


def test_merge_concat_order():
    # 2x2 grid of 1-dim tokens a..d -> single token (TL, BL, TR, BR)
    grid = np.array([[[1.0], [3.0]], [[2.0], [4.0]]])  # TL=1, TR=3, BL=2, BR=4
    out = concat_tiles(fmap(grid).values, 2, 2, 2, col_major=True)
    assert out.shape == (1, 1, 4)
    assert np.array_equal(out.data[0, 0], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ShapeError):
        concat_tiles(fmap(np.zeros((3, 4, 2))).values, 3, 4, 2, col_major=True)


def stem_by_reshapes(x: Tensor, k: int) -> Tensor:
    """The k x k tiles of [B, H, W, C] through the reshape, transpose and
    reshape chain the stem once ran: the reference for the row-major order
    of concat_tiles."""
    b, h, w, c = x.shape
    t = x.reshape(b, h // k, k, w // k, k, c).transpose(0, 1, 3, 2, 4, 5)
    return t.reshape(b, (h // k) * (w // k), k * k * c)


def merge_by_slices(x: Tensor) -> Tensor:
    """The 2x2 tiles of [B, H, W, C] as four strided slices and a concat:
    the reference for the column-major order of concat_tiles."""
    b, h, w, c = x.shape
    parts = [x[:, 0::2, 0::2], x[:, 1::2, 0::2], x[:, 0::2, 1::2], x[:, 1::2, 1::2]]
    return concat(parts, axis=-1).reshape(b, (h // 2) * (w // 2), 4 * c)


def check_tiles(reference, k, col_major, shape, dtype, src, seed):
    """concat_tiles on a [B, h, w, c] grid equals `reference` byte for byte:
    on an array of dtype `src`, which records no node, and on Tensors of
    the grid as [B, h*w, c] and as [B, h, w, c], forward and gradient."""
    b, h, w, c = shape
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(shape).astype(src)
    mix = Tensor(rng.standard_normal((b, h * w // (k * k), k * k * c)))
    with using_dtype(dtype):
        ref_x = Tensor(x0, requires_grad=True)
        want = reference(ref_x)
        backward((want * mix).sum())
        const = concat_tiles(x0, h, w, k, col_major)
        assert not const._parents
        assert (const.shape, const.data.tobytes()) == (want.shape, want.data.tobytes())
        for x_shape in ((b, h * w, c), shape):
            x = Tensor(x0.reshape(x_shape), requires_grad=True)
            out = concat_tiles(x, h, w, k, col_major)
            backward((out * mix).sum())
            assert (out.shape, out.data.tobytes()) == (want.shape, want.data.tobytes())
            assert x.grad.shape == x_shape and x.grad.tobytes() == ref_x.grad.tobytes()


FLOATS = st.sampled_from(["float32", "float64"])


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tiles=st.tuples(st.integers(1, 3), st.integers(1, 3)), k=st.integers(1, 4),
       batch=st.integers(1, 3), dim=st.integers(1, 4), dtype=FLOATS, src=FLOATS,
       seed=st.integers(0, 2**32 - 1))
def test_concat_tiles_matches_stem_chain(tiles, k, batch, dim, dtype, src, seed):
    """Row-major tiles of any size k, on square and non-square grids."""
    check_tiles(lambda x: stem_by_reshapes(x, k), k, False,
                (batch, k * tiles[0], k * tiles[1], dim), dtype, src, seed)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(grid=st.tuples(st.integers(1, 5), st.integers(1, 5)).filter(lambda g: g[0] != g[1]),
       batch=st.integers(1, 3), dim=st.integers(1, 5), dtype=FLOATS, src=FLOATS,
       seed=st.integers(0, 2**32 - 1))
def test_merge_matches_four_slice_reference(grid, batch, dim, dtype, src, seed):
    """Column-major 2x2 tiles, the merge's order, on non-square grids."""
    check_tiles(merge_by_slices, 2, True, (batch, 2 * grid[0], 2 * grid[1], dim),
                dtype, src, seed)


@pytest.mark.parametrize("col_major", [False, True])
def test_concat_tiles_grad_check_and_shapes(col_major):
    rng = np.random.default_rng(40)
    mix = Tensor(rng.standard_normal((2, 2, 27)))
    x = Tensor(rng.standard_normal((2, 18, 3)))
    # x enters twice, so the backward both starts and adds to x's gradient
    assert grad_check(lambda t: (concat_tiles(t, 6, 3, 3, col_major) * mix).sum()
                      + (t * t).sum(), x) < 1e-4
    with pytest.raises(ShapeError):
        concat_tiles(x, 6, 3, 2, col_major)  # 3 columns do not split into 2s
    with pytest.raises(ShapeError):
        concat_tiles(x, 3, 3, 3, col_major)  # 18 tokens are not a 3x3 grid


def test_gather_tokens_grad_check_and_shapes():
    rng = np.random.default_rng(39)
    perm = rng.permutation(12)
    inv = np.argsort(perm)
    mix = Tensor(rng.standard_normal((2, 12, 3)))
    x = Tensor(rng.standard_normal((2, 12, 3)))
    # x enters twice, so the backward both starts and adds to x's gradient
    assert grad_check(lambda t: (gather_tokens(t, perm, inv) * t * mix).sum(), x) < 1e-4
    out = gather_tokens(x, perm, inv).data
    assert np.array_equal(out, x.data[:, perm]) and out.flags.c_contiguous
    assert not np.shares_memory(out, x.data)
    with pytest.raises(ShapeError):
        gather_tokens(x, perm[:6], inv[:6])


def test_patch_merging_shapes_and_constant():
    rng = np.random.default_rng(22)
    fm = fmap(rng.random((56, 56, 96)))
    out = patch_merging(fm, Tensor(np.ones(384)), Tensor(np.zeros(384)),
                        Tensor(rng.random((384, 192))))
    assert (out.height, out.width, out.dim) == (28, 28, 192)
    # constant input: LN zeros every token, so any reduction gives zeros
    const = fmap(np.full((4, 4, 8), 3.7))
    out = patch_merging(const, Tensor(np.ones(32)), Tensor(np.zeros(32)),
                        Tensor(rng.random((32, 16))))
    assert np.abs(out.values.data).max() < 1e-12
    # beta shifts through: zero-variance input maps to beta, then reduction
    w = rng.random((32, 16))
    beta = rng.random(32)
    out = patch_merging(const, Tensor(np.ones(32)), Tensor(beta), Tensor(w))
    assert np.allclose(out.values.data, beta @ w)


# ------------------------------------------------------------ forward


def test_forward_micro_shapes_and_determinism():
    rng = np.random.default_rng(23)
    cfg = preset("micro")
    params = init_params(cfg, rng)
    img = rng.random((64, 64, 3))
    with no_grad():
        single = forward(img, cfg, params)
        assert single.shape == (2,)
        batch = forward(np.stack([img, img]), cfg, params)
        assert batch.shape == (2, 2)
        assert np.array_equal(batch.data[0], batch.data[1])
        again = forward(np.stack([img, img]), cfg, params)
        assert np.array_equal(batch.data, again.data)


def test_forward_zero_params_gives_head_bias():
    cfg = preset("micro")
    params = {name: Tensor(np.zeros(shape)) for name, shape in param_layout(cfg)}
    params["head.bias"] = Tensor(np.array([0.3, -1.2]))
    with no_grad():
        out = forward(np.random.default_rng(0).random((64, 64, 3)), cfg, params)
    assert np.array_equal(out.data, [0.3, -1.2])


def test_forward_rejects_wrong_size():
    cfg = preset("micro")
    params = init_params(cfg, np.random.default_rng(0))
    with pytest.raises(ShapeError):
        forward(np.zeros((32, 32, 3)), cfg, params)


def test_forward_tiny_stage_dims_and_shape():
    cfg = preset("tiny")
    assert cfg.grid(3) == 7 and cfg.final_dim == 768  # 56 -> 28 -> 14 -> 7
    params = init_params(cfg, np.random.default_rng(24))
    with no_grad():
        out = forward(np.random.default_rng(1).random((224, 224, 3)), cfg, params)
    assert out.shape == (2,) and np.isfinite(out.data).all()


def test_forward_training_with_drop_path_is_seed_deterministic():
    cfg = preset("micro")
    params = init_params(cfg, np.random.default_rng(25))
    img = np.random.default_rng(2).random((4, 64, 64, 3))
    with no_grad():
        a = forward(img, cfg, params, training=True, rng=np.random.default_rng(9))
        b = forward(img, cfg, params, training=True, rng=np.random.default_rng(9))
        c = forward(img, cfg, params, training=True, rng=np.random.default_rng(10))
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)  # some sample drops differ


def test_training_backward_skips_constant_leaves():
    """The pooling mean's scale and the input pixels are constants:
    backward must not compute or store a gradient for them. Drop-path gates
    are plain arrays inside the branch ops and never become graph leaves."""
    from swinqa.tensor import cross_entropy_soft
    cfg = preset("micro")
    params = init_params(cfg, np.random.default_rng(25))
    img = np.random.default_rng(2).random((4, 64, 64, 3))
    logits = forward(img, cfg, params, training=True, rng=np.random.default_rng(9))
    loss = cross_entropy_soft(logits, Tensor(np.eye(2)[[0, 1, 1, 0]]))
    seen, stack, constants = set(), [loss], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if not node.requires_grad and not node._parents:
                constants.append(node)
            stack.extend(node._parents)
    assert not any(c.shape == (4, 1, 1) for c in constants)
    assert any(c.shape == () for c in constants)
    backward(loss)
    assert all(c.grad is None for c in constants)
    assert all(p.grad is not None for p in params.values())


def test_stochastic_depth_rates_schedule():
    assert stochastic_depth_rates(0.2, 1) == [0.0]
    rates = stochastic_depth_rates(0.2, 12)
    assert rates[0] == 0.0 and abs(rates[-1] - 0.2) < 1e-15
    assert all(b >= a for a, b in zip(rates, rates[1:]))
    r24 = stochastic_depth_rates(0.3, 24)
    assert abs(r24[12] - 0.3 * 12 / 23) < 1e-15
    assert stochastic_depth_rates(0.0, 7) == [0.0] * 7


def test_forward_gradcheck_micro_model_input():
    with using_dtype("float64"):
        cfg = micro_cfg()
        rng = np.random.default_rng(26)
        params = init_params(cfg, rng)
        tg = np.array([[0.3, 0.7]])

        def f(img):
            from swinqa.tensor import cross_entropy_soft
            logits = forward(img.reshape(16, 16, 3), cfg, params)
            return cross_entropy_soft(logits.reshape(1, 2) * 3.0, Tensor(tg))

        x = Tensor(rng.random((16, 16, 3)))
        assert grad_check(f, x) < 1e-4


def test_forward_backward_populates_all_param_grads():
    from swinqa.tensor import cross_entropy_soft
    cfg = micro_cfg()
    rng = np.random.default_rng(27)
    params = init_params(cfg, rng)
    logits = forward(rng.random((2, 16, 16, 3)), cfg, params, training=False)
    loss = cross_entropy_soft(logits, Tensor(np.array([[1.0, 0.0], [0.0, 1.0]])))
    backward(loss)
    for name, p in params.items():
        assert p.grad is not None, name
        assert np.isfinite(p.grad).all(), name


@pytest.mark.parametrize("training", [False, True])
def test_forward_array_input_matches_tensor_input(training):
    """The stem casts a float64 array in its one copy: the same bits as the
    array cast by Tensor() first."""
    cfg = preset("micro")
    img = np.random.default_rng(41).random((3, 64, 64, 3))
    with using_dtype("float32"), no_grad():
        params = init_params(cfg, np.random.default_rng(42))
        a, b = (forward(x, cfg, params, training=training, rng=np.random.default_rng(9))
                for x in (img, Tensor(img)))
    assert a.data.dtype == np.float32 and a.data.tobytes() == b.data.tobytes()


@pytest.mark.parametrize("name, batch, dtype", [
    ("micro", 64, "float32"), ("micro", 64, "float64"), ("micro", 5, "float32"),
    ("micro", 5, "float64"), ("tiny", 1, "float32")])
def test_no_grad_forward_matches_recording_forward(monkeypatch, name, batch, dtype):
    """Without a graph, forward keeps one residual stream: the stem embeds
    the batch a chunk of images at a time, the branches add in place and
    the merges normalize their tiles in place. The logits are the bits of
    the graph-recording forward, for an array or a Tensor input, with
    chunks of one image, the default (at micro float32, 3 images: batch 5
    ends on a short chunk) or the whole batch; the caller's pixels are
    left as they were."""
    cfg = preset(name)
    rng = np.random.default_rng(45)
    img = rng.random((batch, cfg.img_size, cfg.img_size, 3))
    before = img.copy()
    with using_dtype(dtype):
        params = init_params(cfg, rng)
        recorded = forward(Tensor(img), cfg, params)
        assert recorded._parents
        want = recorded.data.tobytes()
        del recorded
        for stem_bytes in (1, swin._STEM_BYTES, 1 << 40):
            monkeypatch.setattr(swin, "_STEM_BYTES", stem_bytes)
            with no_grad():
                for x in (img, Tensor(img)):
                    assert forward(x, cfg, params).data.tobytes() == want, stem_bytes
    assert np.array_equal(img, before)


def test_no_grad_merge_frees_the_previous_stage_once_tiled(monkeypatch):
    """A no-grad forward hands each merge the only reference to the
    previous stage's map: when the merge's layer norm runs, reference
    counts alone have freed the last block's output. The stem's norm runs
    before any block, and the final norm on the last block's output."""
    arrays, seen = [], []
    block, norm = swin.swin_block, swin.layer_norm

    def tracked_block(*args, **kwargs):
        out = block(*args, **kwargs)
        arrays.append(weakref.ref(out.values.data))
        return out

    def checked_norm(*args, **kwargs):
        seen.append(arrays[-1]() is None if arrays else None)
        return norm(*args, **kwargs)

    monkeypatch.setattr(swin, "swin_block", tracked_block)
    monkeypatch.setattr(swin, "layer_norm", checked_norm)
    cfg = preset("micro")
    params = init_params(cfg, np.random.default_rng(48))
    gc.disable()
    try:
        with no_grad():
            forward(np.random.default_rng(49).random((2, 64, 64, 3)), cfg, params)
    finally:
        gc.enable()
    assert seen == [None, True, True, True, False]


@pytest.mark.parametrize("gated", [False, True])
def test_branches_add_the_residual_into_out(gated):
    """With out=x.data and no graph, each branch op writes x + branch(x)
    over x with the bits of its default, freshly allocated output."""
    gate = GATE if gated else None
    with no_grad():
        t = {k: Tensor(a) for k, a in branch_inputs(np.random.default_rng(57)).items()}
        want = fused_branch(t, shift=2, gate=gate).data.copy()
        got = attention_branch(t["x"], 8, 8, *(t[k] for k in BRANCH_ARGS[1:]), 4, 2, 2, gate,
                               out=t["x"].data)
        assert got.data is t["x"].data and np.array_equal(got.data, want)
        t = {k: Tensor(a) for k, a in mlp_inputs(np.random.default_rng(58)).items()}
        want = fused_mlp(t, gate).data.copy()
        got = mlp_branch(*(t[k] for k in MLP_ARGS), gate=gate, out=t["x"].data)
        assert got.data is t["x"].data and np.array_equal(got.data, want)


@pytest.mark.parametrize("over", [dict(patch_size=2), dict(img_size=32, patch_size=8),
                                  dict(in_channels=1)])
def test_forward_backward_honour_patch_size_and_in_channels(over):
    from swinqa.tensor import cross_entropy_soft
    cfg = micro_cfg(depths=(1, 1), heads=(2, 2), **over)
    params = init_params(cfg, np.random.default_rng(43))
    img = np.random.default_rng(44).random((2, cfg.img_size, cfg.img_size, cfg.in_channels))
    logits = forward(img, cfg, params, training=True)
    backward(cross_entropy_soft(logits, Tensor(np.eye(2))))
    assert logits.shape == (2, cfg.num_classes)
    for name, shape in param_layout(cfg):
        assert params[name].grad.shape == shape, name
    with pytest.raises(ShapeError, match="in_channels"):
        forward(np.zeros((cfg.img_size, cfg.img_size, cfg.in_channels + 1)), cfg, params)
