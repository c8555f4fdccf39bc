"""Autodiff engine: forward values against independent oracles, gradients
against finite differences."""

import tracemalloc
import warnings
import zlib

import numpy as np
import pytest

from swinqa import tensor as T
from swinqa.tensor import (
    LabelError,
    ShapeError,
    Tensor,
    backward,
    concat,
    cross_entropy_soft,
    gelu,
    grad_check,
    layer_norm,
    matmul,
    no_grad,
    softmax,
    using_dtype,
)


@pytest.fixture(autouse=True)
def float64_engine():
    with using_dtype("float64"):
        yield


def loop_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop reference product, no numpy matmul involved."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m), dtype=np.float64)
    for i in range(n):
        for j in range(m):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


# ---------------------------------------------------------------- forward


def test_matmul_matches_loop_oracle():
    rng = np.random.default_rng(7)
    for n, k, m in [(4, 5, 3), (6, 7, 5), (1, 9, 2)]:
        a = rng.standard_normal((n, k))
        b = rng.standard_normal((k, m))
        got = matmul(Tensor(a), Tensor(b)).data
        assert np.abs(got - loop_matmul(a, b)).max() < 1e-12


def test_matmul_batched_broadcast():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((2, 3, 4, 5))
    b = rng.standard_normal((5, 6))
    got = matmul(Tensor(a), Tensor(b)).data
    for i in range(2):
        for j in range(3):
            assert np.abs(got[i, j] - loop_matmul(a[i, j], b)).max() < 1e-12


def test_matmul_shape_errors_name_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
    with pytest.raises(ShapeError):
        matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))


def test_softmax_known_values():
    # uniform logits -> uniform distribution
    y = softmax(Tensor([[0.0, 0.0, 0.0, 0.0]])).data
    assert np.abs(y - 0.25).max() < 1e-15
    # [0, ln 3] -> [0.25, 0.75]
    y = softmax(Tensor([[0.0, np.log(3.0)]])).data
    assert np.abs(y - [0.25, 0.75]).max() < 1e-12
    # large shifts do not overflow
    y = softmax(Tensor([[1000.0, 1000.0]])).data
    assert np.abs(y - 0.5).max() < 1e-15
    # rows sum to one on random input
    x = np.random.default_rng(0).standard_normal((5, 7))
    assert np.abs(softmax(Tensor(x)).data.sum(-1) - 1.0).max() < 1e-12


def test_softmax_matches_direct_formula():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 6)) * 3
    want = np.exp(x) / np.exp(x).sum(-1, keepdims=True)
    assert np.abs(softmax(Tensor(x)).data - want).max() < 1e-14


def test_layer_norm_standardizes():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 4, 16)) * 5 + 2
    g = Tensor(np.ones(16))
    b = Tensor(np.zeros(16))
    y = layer_norm(Tensor(x), g, b, eps=1e-12).data
    assert np.abs(y.mean(-1)).max() < 1e-10
    assert np.abs(y.var(-1) - 1.0).max() < 1e-6
    # affine acts last: known two-point case, mean 1, var 1 -> +-1 before affine
    y2 = layer_norm(Tensor([[0.0, 2.0]]), Tensor([3.0, 3.0]), Tensor([1.0, 1.0]),
                    eps=1e-12).data
    assert np.abs(y2 - [[-2.0, 4.0]]).max() < 1e-6


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_layer_norm_overwrite_only_without_a_graph(dtype):
    """overwrite=True writes the output's bits over x.data when no graph is
    recorded, and leaves x alone when one is."""
    rng = np.random.default_rng(3)
    with using_dtype(dtype):
        x, g, b = (Tensor(a, requires_grad=True) for a in (
            rng.standard_normal((3, 5, 16)) * 3 + 1, 1 + rng.standard_normal(16),
            rng.standard_normal(16)))
        want = layer_norm(x, g, b)
        before = x.data.copy()
        recorded = layer_norm(x, g, b, overwrite=True)
        assert recorded._parents and np.array_equal(x.data, before)
        assert np.array_equal(recorded.data, want.data)
        with no_grad():
            plain = layer_norm(x, g, b, overwrite=True)
        assert plain.data is x.data and np.array_equal(x.data, want.data)


def test_gelu_reference_points():
    # Phi(1) = 0.8413447460685429, gelu(1) = 1 * Phi(1)
    y = gelu(Tensor([[-1.0, 0.0, 1.0, 10.0]])).data[0]
    assert abs(y[0] - (-1.0 * (1 - 0.8413447460685429))) < 1e-12
    assert y[1] == 0.0
    assert abs(y[2] - 0.8413447460685429) < 1e-12
    assert abs(y[3] - 10.0) < 1e-7  # saturates to identity


def test_cross_entropy_soft_values():
    # uniform logits, hard one-hot target -> ln K
    k = 4
    loss = cross_entropy_soft(Tensor(np.zeros((1, k))),
                              Tensor(np.eye(k)[:1]))
    assert abs(float(loss.data) - np.log(k)) < 1e-12
    # logits [1, 0], target [0.5, 0.5]: 0.5*(lse-1) + 0.5*lse, lse = ln(e+1)
    loss = cross_entropy_soft(Tensor([[1.0, 0.0]]), Tensor([[0.5, 0.5]]))
    want = np.log(np.exp(1.0) + 1.0) - 0.5
    assert abs(float(loss.data) - 0.813261687518223) < 1e-12
    assert abs(float(loss.data) - want) < 1e-15
    # batch mean: duplicating a row leaves the loss unchanged
    l1 = float(cross_entropy_soft(Tensor([[2.0, -1.0]]), Tensor([[1.0, 0.0]])).data)
    l2 = float(cross_entropy_soft(Tensor([[2.0, -1.0]] * 3), Tensor([[1.0, 0.0]] * 3)).data)
    assert abs(l1 - l2) < 1e-12


def test_cross_entropy_soft_rejects_bad_targets():
    with pytest.raises(LabelError, match="row 0"):
        cross_entropy_soft(Tensor([[0.0, 0.0]]), Tensor([[0.7, 0.6]]))
    with pytest.raises(ShapeError):
        cross_entropy_soft(Tensor([[0.0, 0.0]]), Tensor([[1.0, 0.0, 0.0]]))


# ---------------------------------------------------------------- backward


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    backward(x.sum())
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_backward_quadratic():
    x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    backward((x * x).sum())
    assert np.abs(x.grad - 2 * x.data).max() < 1e-15


def test_backward_fanout_accumulates():
    x = Tensor([2.0], requires_grad=True)
    y = x * 3.0
    backward((y + y + x).sum())  # d/dx (6x + x) = 7
    assert abs(x.grad[0] - 7.0) < 1e-15


def test_backward_repeat_accumulates_until_grad_reset():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = (x * x).sum()
    backward(loss)
    backward(loss)
    assert np.abs(x.grad - 4 * x.data).max() < 1e-15
    x.grad = None
    backward((x * x).sum())
    assert np.abs(x.grad - 2 * x.data).max() < 1e-15


def test_backward_rejects_nonscalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        backward(x * 2.0)


def test_broadcast_add_unbroadcasts_grad():
    x = Tensor(np.ones((4, 3)), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    backward((x + b).sum())
    assert np.array_equal(x.grad, np.ones((4, 3)))
    assert np.array_equal(b.grad, np.full(3, 4.0))


def test_no_grad_blocks_recording():
    x = Tensor([1.0], requires_grad=True)
    with no_grad():
        y = (x * x).sum()
    assert y._parents == () and not y.requires_grad


# --------------------------------------------------- finite-difference checks


def _gc(f, shape, seed, h=1e-5):
    x = Tensor(np.random.default_rng(seed).standard_normal(shape))
    return grad_check(f, x, h=h)


def test_grad_check_primitives():
    tol = 1e-4
    w = Tensor(np.random.default_rng(99).standard_normal((6, 4)))
    gam = Tensor(np.random.default_rng(98).standard_normal(6) * 0.1 + 1.0)
    bet = Tensor(np.random.default_rng(97).standard_normal(6) * 0.1)
    tg = np.random.default_rng(96).random((5, 4))
    tg /= tg.sum(-1, keepdims=True)
    perm = np.random.default_rng(95).permutation(6)
    repeat = np.array([0, 3, 0, 4, 0])
    cases = {
        "add": (lambda t: (t + t * 0.5).sum(), (5, 6)),
        "mul": (lambda t: (t * t).mean(), (5, 6)),
        "pow": (lambda t: ((t * t + 1.0) ** 1.5).sum(), (5, 6)),
        "matmul": (lambda t: matmul(t, w).sum(), (5, 6)),
        "softmax": (lambda t: (softmax(t) * softmax(t)).sum(), (5, 6)),
        "layer_norm": (lambda t: (layer_norm(t, gam, bet) ** 2.0).sum(), (5, 6)),
        "gelu": (lambda t: gelu(t).sum(), (5, 6)),
        "cross_entropy": (lambda t: cross_entropy_soft(t, Tensor(tg)), (5, 4)),
        "reshape_transpose": (
            lambda t: (t.reshape(6, 5).transpose(1, 0) * t.reshape(5, 6)).sum(), (5, 6)),
        "getitem": (lambda t: (t[1:4, ::2] * 2.0).sum(), (5, 6)),
        "getitem_perm": (lambda t: (t[:, perm] * t).sum(), (5, 6)),
        "getitem_repeat": (lambda t: (t[repeat, 1:] ** 2.0).sum(), (5, 6)),
        "roll": (lambda t: (t.roll((1, -2), (0, 1)) * t).sum(), (5, 6)),
        "mean_axis": (lambda t: (t.mean(axis=0) ** 2.0).sum(), (5, 6)),
    }
    for name, (f, shape) in cases.items():
        err = _gc(f, shape, seed=zlib.crc32(name.encode()))
        assert err < tol, f"{name}: rel err {err}"


def test_getitem_index_array_is_not_copied_again():
    """numpy builds t.data[:, perm] in a fresh buffer; the op keeps that
    buffer, so the traced peak stays about one output's bytes."""
    rng = np.random.default_rng(94)
    t = Tensor(rng.standard_normal((64, 256, 24)))
    perm = rng.permutation(256)
    tracemalloc.start()
    try:
        out = t[:, perm]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(out.data, t.data[:, perm])
    assert peak < 1.5 * out.data.nbytes


def test_grad_check_matmul_3d_left_2d_right():
    """A 2-D right operand takes the folded-rows backward for both operands."""
    rng = np.random.default_rng(95)
    left = Tensor(rng.standard_normal((3, 5, 6)))
    right = Tensor(rng.standard_normal((6, 4)))
    mix = Tensor(rng.standard_normal((3, 5, 4)))
    assert grad_check(lambda t: (matmul(t, right) * mix).sum(), left) < 1e-4
    assert grad_check(lambda t: (matmul(left, t) * mix).sum(), right) < 1e-4


def test_grad_check_concat_take_rows():
    tol = 1e-4
    idx = np.array([0, 2, 2, 1])

    def f(t):
        parts = concat([t, t * 2.0], axis=1)
        return (parts.take_rows(idx) ** 2.0).sum()

    assert _gc(f, (3, 4), seed=5) < tol


def test_grad_check_mlp_block():
    """Two-layer MLP with layer norm and gelu, checked end to end."""
    rng = np.random.default_rng(123)
    w1 = Tensor(rng.standard_normal((8, 16)) * 0.3)
    b1 = Tensor(rng.standard_normal(16) * 0.1)
    w2 = Tensor(rng.standard_normal((16, 8)) * 0.3)
    b2 = Tensor(rng.standard_normal(8) * 0.1)
    gam = Tensor(np.ones(8))
    bet = Tensor(np.zeros(8))
    tg = rng.random((4, 8))
    tg /= tg.sum(-1, keepdims=True)

    def f(t):
        h = layer_norm(t, gam, bet)
        h = gelu(matmul(h, w1) + b1)
        h = matmul(h, w2) + b2
        return cross_entropy_soft(h + t, Tensor(tg))

    assert _gc(f, (4, 8), seed=11) < 1e-4


def test_grad_check_against_parameters_too():
    """grad_check probes whichever tensor is passed, parameters included."""
    x = Tensor(np.random.default_rng(3).standard_normal((4, 6)))

    def f(w):
        return (matmul(x, w) ** 2.0).sum()

    assert _gc(f, (6, 2), seed=4) < 1e-4


def test_grad_check_self_consistency_on_linear():
    # d(sum x)/dx = 1 exactly; the reported error is tiny, not merely < 1e-4
    err = _gc(lambda t: t.sum(), (3, 3), seed=0)
    assert err < 1e-10


def test_grad_check_guards():
    x = Tensor(np.ones(3))
    with pytest.raises(ValueError):
        grad_check(lambda t: t.sum(), x, h=1e-7)
    with using_dtype("float32"):
        with pytest.raises(ValueError, match="float64"):
            grad_check(lambda t: t.sum(), Tensor(np.ones(3)))


def test_float32_mode_produces_float32():
    with using_dtype("float32"):
        t = Tensor([1.0]) * 2.0
        assert t.data.dtype == np.float32


# ------------------------------------------------------- float32 fast paths


def test_gelu_float32_phi_error_bound():
    x = np.linspace(-12.0, 12.0, 2_000_001, dtype=np.float32)
    phi32 = np.empty_like(x)
    T._gelu_f32(x, phi=phi32)
    phi64 = 0.5 * (1.0 + T.erf(x.astype(np.float64) / np.sqrt(2.0)))
    assert phi32.dtype == np.float32
    assert np.abs(phi32 - phi64).max() <= 2.5e-7
    tails = np.abs(x) >= 4.0 * np.sqrt(2.0)
    assert np.array_equal(phi32[tails], (x[tails] > 0).astype(np.float32))
    with using_dtype("float32"):
        y = gelu(Tensor([-10.0, 10.0])).data
    assert y[0] == 0.0 and y[1] == 10.0


ERF_GRID = np.concatenate([np.linspace(-7.0, 7.0, 140_001),
                           np.logspace(-300.0, 1.0, 3_001)])


def test_erf_is_odd_with_exact_limits():
    y = T.erf(ERF_GRID)
    assert y.dtype == np.float64 and y.shape == ERF_GRID.shape
    assert np.array_equal(T.erf(-ERF_GRID), -y)
    assert np.all(np.abs(y) <= 1.0) and np.all(np.diff(y[:140_001]) >= 0.0)
    special = T.erf(np.array([[np.inf, -np.inf], [np.nan, 0.0]]))
    assert special[0, 0] == 1.0 and special[0, 1] == -1.0
    assert np.isnan(special[1, 0]) and special[1, 1] == 0.0
    out = ERF_GRID.copy()
    assert T.erf(out, out=out) is out and np.array_equal(out, y)


def test_erf_within_3_ulp_of_scipy():
    # scipy's erf is itself up to 3 ulp from the correctly rounded value on
    # this grid, and the C library's within 1 (the next test)
    special = pytest.importorskip("scipy.special")
    want = special.erf(ERF_GRID)
    assert np.all(np.abs(T.erf(ERF_GRID) - want) <= 3 * np.spacing(np.abs(want)))


def test_erf_within_1_ulp_of_correctly_rounded():
    mpmath = pytest.importorskip("mpmath")
    x = ERF_GRID[::71]
    with mpmath.workprec(200):
        want = np.array([float(mpmath.erf(v)) for v in x.tolist()])
    assert np.all(np.abs(T.erf(x) - want) <= np.spacing(np.abs(want)))


@pytest.mark.parametrize("magnitude", [1e3, 1e4, 1e20, float(np.finfo(np.float32).max)])
def test_gelu_float32_huge_inputs_are_exact_without_warnings(magnitude):
    x = np.array([magnitude, -magnitude], dtype=np.float32)
    phi = np.empty_like(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = T._gelu_f32(x, phi=phi)
        with using_dtype("float32"):
            y_op = gelu(Tensor(x)).data
    for out in (y, y_op):
        assert out[0] == x[0]
        assert out[1] == 0.0 and np.signbit(out[1])
    assert phi.tolist() == [1.0, 0.0]


def test_gelu_float32_blocking_is_bit_exact():
    block = T._GELU_BLOCK
    x = np.random.default_rng(5).standard_normal(4 * block + 64).astype(np.float32) * 4
    with using_dtype("float32"):
        whole = gelu(Tensor(x)).data
        assert np.array_equal(gelu(Tensor(x, requires_grad=True)).data, whole)
        for a in (0, 3, block + 9):
            for size in (1, block - 1, block + 1, 3 * block + 7):
                piece = gelu(Tensor(x[a:a + size])).data
                assert np.array_equal(piece, whole[a:a + size]), (a, size)


def _layer_norm_case(rng, shape):
    d = shape[-1]
    gamma = rng.standard_normal(d) * 0.5 + 1.0
    beta = rng.standard_normal(d) * 0.5
    return (lambda x, g, b: layer_norm(x, g, b)), [rng.standard_normal(shape) * 3 + 1,
                                                   gamma, beta]


FLOAT32_CASES = {
    "layer_norm": _layer_norm_case,
    "softmax": lambda rng, shape: (lambda x: softmax(x, axis=-1),
                                   [rng.standard_normal(shape) * 4]),
    "softmax_axis0": lambda rng, shape: (lambda x: softmax(x, axis=0),
                                         [rng.standard_normal(shape) * 4]),
    "gelu": lambda rng, shape: (gelu, [rng.standard_normal(shape) * 3]),
}


def _run_op(f, arrays, weight, dtype):
    with using_dtype(dtype):
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        y = f(*leaves)
        backward((y * Tensor(weight)).sum())
        return y.data, [t.grad for t in leaves]


@pytest.mark.parametrize("name", sorted(FLOAT32_CASES))
@pytest.mark.parametrize("shape", [(7, 16), (2, 3, 5, 24), (1, 96)])
def test_float32_ops_match_float64(name, shape):
    rng = np.random.default_rng([sorted(FLOAT32_CASES).index(name), *shape])
    f, arrays = FLOAT32_CASES[name](rng, shape)
    weight = rng.standard_normal(shape)
    y32, g32 = _run_op(f, arrays, weight, "float32")
    y64, g64 = _run_op(f, arrays, weight, "float64")
    assert y32.dtype == np.float32 and all(g.dtype == np.float32 for g in g32)
    for got, want in zip([y32, *g32], [y64, *g64]):
        assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("name", sorted(FLOAT32_CASES))
def test_ops_leave_inputs_in_shared_buffer_unchanged(name, dtype):
    """Inputs as views of one flat buffer, as training keeps its weights:
    forward and backward must not write into any of them."""
    rng = np.random.default_rng(3)
    f, arrays = FLOAT32_CASES[name](rng, (4, 5, 12))
    with using_dtype(dtype):
        flat = np.concatenate([a.ravel() for a in arrays]).astype(dtype)
        before = flat.copy()
        leaves, start = [], 0
        for a in arrays:
            leaves.append(Tensor(flat[start:start + a.size].reshape(a.shape),
                                 requires_grad=True))
            start += a.size
        assert all(np.shares_memory(t.data, flat) for t in leaves)
        y = f(*leaves)
        backward((y * Tensor(rng.standard_normal(y.shape))).sum())
    assert np.array_equal(flat, before)
