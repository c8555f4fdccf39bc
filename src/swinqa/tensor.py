"""Dense tensors with reverse-mode automatic differentiation.

Small numpy-backed engine: every operation records its parents and a
backward rule, `backward()` walks the graph in reverse topological order
and accumulates gradients into leaves. Two numeric widths are supported
as a global engine setting: float32 (training default) and float64
(gradient checking).
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Sequence

import numpy as np

_DEFAULT_DTYPE = np.float32
_GRAD_ENABLED = True

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT_2PI = 0.3989422804014327
LN_EPS = 1e-5  # layer-norm variance floor


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class LabelError(ValueError):
    """Raised when a target distribution is not a valid soft label."""


def set_default_dtype(dtype) -> None:
    """Set the engine-wide numeric width ("float32" or "float64")."""
    global _DEFAULT_DTYPE
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported dtype {dtype!r}; use float32 or float64")
    _DEFAULT_DTYPE = dt.type


def default_dtype():
    return _DEFAULT_DTYPE


@contextlib.contextmanager
def using_dtype(dtype):
    """Temporarily switch the default dtype (e.g. float64 for grad checks)."""
    prev = _DEFAULT_DTYPE
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(prev)


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation-mode forwards)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` over the axes numpy broadcast when producing it from `shape`."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def records_graph(parents: Sequence["Tensor"]) -> bool:
    """Whether an op on `parents` joins the autodiff graph."""
    return _GRAD_ENABLED and any(p._wants_grad() for p in parents)


class Tensor:
    """N-dimensional real array, optionally a node in an autodiff graph.

    `data` is a numpy array in the engine dtype. Leaves created with
    `requires_grad=True` receive accumulated gradients in `.grad` after
    `backward()`; gradients add across calls until `.grad` is reset.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=_DEFAULT_DTYPE)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @classmethod
    def _from_op(cls, data: np.ndarray, parents: Sequence["Tensor"],
                 backward: Callable[[np.ndarray], None]) -> "Tensor":
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        if records_graph(parents):
            out.requires_grad = any(p.requires_grad for p in parents)
            out._parents = tuple(parents)
            out._backward = backward
        else:
            out.requires_grad = False
            out._parents = ()
            out._backward = None
        return out

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def _wants_grad(self) -> bool:
        """Whether a gradient for this tensor is read: a leaf that requires
        it, or an op node whose backward passes it on (not a constant)."""
        return self.requires_grad or bool(self._parents)

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.empty_like(self.data)
            self.grad[...] = g
        else:
            self.grad += g

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other
        out_data = a.data + b.data

        def bwd(g):
            if a._wants_grad():
                a._accumulate(_unbroadcast(g, a.data.shape))
            if b._wants_grad():
                b._accumulate(_unbroadcast(g, b.data.shape))

        return Tensor._from_op(out_data, (a, b), bwd)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        a = self

        def bwd(g):
            a._accumulate(-g)

        return Tensor._from_op(-a.data, (a,), bwd)

    def __sub__(self, other) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other
        out_data = a.data * b.data

        def bwd(g):
            if a._wants_grad():
                a._accumulate(_unbroadcast(g * b.data, a.data.shape))
            if b._wants_grad():
                b._accumulate(_unbroadcast(g * a.data, b.data.shape))

        return Tensor._from_op(out_data, (a, b), bwd)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        return self * other ** -1.0

    def __pow__(self, p: float) -> "Tensor":
        a = self
        out_data = a.data ** p

        def bwd(g):
            a._accumulate(g * p * a.data ** (p - 1.0))

        return Tensor._from_op(out_data, (a,), bwd)

    def __matmul__(self, other) -> "Tensor":
        return matmul(self, other)

    # -- shape manipulation ---------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        orig = a.data.shape

        def bwd(g):
            a._accumulate(g.reshape(orig))

        return Tensor._from_op(a.data.reshape(shape), (a,), bwd)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        a = self
        inv = np.argsort(axes)

        def bwd(g):
            a._accumulate(g.transpose(inv))

        return Tensor._from_op(a.data.transpose(axes), (a,), bwd)

    def __getitem__(self, idx) -> "Tensor":
        a = self
        out_data = a.data[idx]
        # a view (basic indexing) is copied, so the graph holds no alias; an
        # index array may repeat an element, and np.add.at adds every repeat
        view = np.may_share_memory(out_data, a.data)
        if view:
            out_data = out_data.copy()

        def bwd(g):
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            if view:
                a.grad[idx] += g
            else:
                np.add.at(a.grad, idx, g)

        return Tensor._from_op(out_data, (a,), bwd)

    def take_rows(self, indices: np.ndarray) -> "Tensor":
        """Gather rows along axis 0 by an integer index array (may repeat)."""
        return self[np.asarray(indices)]

    def roll(self, shifts, axes) -> "Tensor":
        a = self
        shifts = tuple(np.atleast_1d(shifts).tolist())
        axes = tuple(np.atleast_1d(axes).tolist())
        inv = tuple(-s for s in shifts)

        def bwd(g):
            a._accumulate(np.roll(g, inv, axis=axes))

        return Tensor._from_op(np.roll(a.data, shifts, axis=axes), (a,), bwd)

    # -- reductions -----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        out_data = a.data.sum(axis=axis, keepdims=keepdims)

        def bwd(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(g, a.data.shape))

        return Tensor._from_op(out_data, (a,), bwd)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        n = self.data.size if axis is None else np.prod(
            [self.data.shape[ax] for ax in np.atleast_1d(axis)])
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(n))


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    parents = tuple(tensors)
    sizes = [t.data.shape[axis] for t in parents]
    out_data = np.concatenate([t.data for t in parents], axis=axis)
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        for t, piece in zip(parents, np.split(g, splits, axis=axis)):
            t._accumulate(piece)

    return Tensor._from_op(out_data, parents, bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast."""
    a = Tensor._coerce(a)
    b = Tensor._coerce(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} x {b.shape}")
    out_data = a.data @ b.data

    def bwd(g):
        if b.ndim == 2:
            # a 2-D weight: fold the leading axes into rows, so each gradient
            # is one 2-D GEMM and the weight's needs no broadcast sum
            g2 = g.reshape(-1, g.shape[-1])
            if a._wants_grad():
                a._accumulate((g2 @ b.data.T).reshape(a.data.shape))
            if b._wants_grad():
                b._accumulate(a.data.reshape(-1, a.shape[-1]).T @ g2)
        else:
            if a._wants_grad():
                a._accumulate(_unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape))
            if b._wants_grad():
                b._accumulate(_unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape))

    return Tensor._from_op(out_data, (a, b), bwd)


def _dot_last(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum of a * b over the last axis, kept as a length-1 axis."""
    return np.einsum("...i,...i->...", a, b)[..., None]


def softmax_inplace(y: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis of `y`, in place.

    The row max is a running np.maximum over the columns and the row sum an
    einsum: over a short last axis (attention windows) both are several
    times faster than max/sum(axis=-1), and the max is the same value.
    """
    mx = y[..., 0].copy()
    for j in range(1, y.shape[-1]):
        np.maximum(mx, y[..., j], out=mx)
    y -= mx[..., None]
    np.exp(y, out=y)
    y /= np.einsum("...i->...", y)[..., None]
    return y


def softmax_grad_inplace(dp: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Input gradient of a last-axis softmax with output `p`, written over
    the output gradient `dp`: p * (dp - rowsum(dp * p))."""
    dp -= _dot_last(dp, p)
    dp *= p
    return dp


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along `axis`; rows sum to 1."""
    y = x.data.copy()
    softmax_inplace(np.moveaxis(y, axis, -1))

    def bwd(g):
        gx = g.copy()
        softmax_grad_inplace(np.moveaxis(gx, axis, -1), np.moveaxis(y, axis, -1))
        x._accumulate(gx)

    return Tensor._from_op(y, (x,), bwd)


def _mean_last(a: np.ndarray) -> np.ndarray:
    """Mean over the last axis, kept as a length-1 axis; an einsum row sum
    is several times faster than mean(axis=-1) over a short last axis."""
    return (np.einsum("...i->...", a) / a.shape[-1])[..., None]


def layer_norm_fwd(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                   eps: float, keep_xhat: bool, out: np.ndarray | None = None) -> tuple:
    """Layer norm over the last axis of x: (out, xhat, inv_std), where
    xhat is the standardized input and inv_std its per-row 1/std, the two
    things the backward needs. xhat is written into `out` (new when None;
    x itself works). Without keep_xhat the output overwrites xhat, and
    xhat and inv_std come back as None."""
    xhat = np.subtract(x, _mean_last(x), out=out)
    inv_std = 1.0 / np.sqrt(_dot_last(xhat, xhat) / x.shape[-1] + eps)
    xhat *= inv_std
    out = np.multiply(xhat, gamma, out=None if keep_xhat else xhat)
    out += beta
    return (out, xhat, inv_std) if keep_xhat else (out, None, None)


def layer_norm_bwd(g: np.ndarray, xhat: np.ndarray, inv_std: np.ndarray,
                   gamma: np.ndarray) -> tuple:
    """Gradients (dx, dgamma, dbeta) of a layer norm from the output
    gradient g and layer_norm_fwd's xhat and inv_std; g is not written."""
    d_beta = _unbroadcast(g, gamma.shape)
    gx = g * xhat
    d_gamma = _unbroadcast(gx, gamma.shape)
    np.multiply(g, gamma, out=gx)
    gx_xhat = _dot_last(gx, xhat) / xhat.shape[-1]
    gx -= _mean_last(gx)
    gx -= xhat * gx_xhat
    gx *= inv_std
    return gx, d_gamma, d_beta


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = LN_EPS,
               overwrite: bool = False) -> Tensor:
    """Standardize over the last axis, then scale/shift by gamma/beta. With
    `overwrite` and no graph recorded, the output is written over x.data."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(
            f"layer_norm affine shapes {gamma.shape}/{beta.shape} do not match last axis {d}")
    if eps <= 0:
        raise ValueError("eps must be positive")
    records = records_graph((x, gamma, beta))
    out_data, xhat, inv_std = layer_norm_fwd(x.data, gamma.data, beta.data, eps, records,
                                             x.data if overwrite and not records else None)

    def bwd(g):
        gx, d_gamma, d_beta = layer_norm_bwd(g, xhat, inv_std, gamma.data)
        beta._accumulate(d_beta)
        gamma._accumulate(d_gamma)
        x._accumulate(gx)

    return Tensor._from_op(out_data, (x, gamma, beta), bwd)


# Phi(x) = (1 + tanh(x h(x^2))) / 2 with h of degree 6, highest power first,
# 1/sqrt(2) folded in. tools/fit_gelu_phi.py fits it: minimax error in Phi
# over x/sqrt(2) in [0, 3.9], subject to x h(x^2) >= 10.05 over x/sqrt(2)
# in [4, 4.6], since float32 tanh is exactly +-1 from 10 on.
_PHI_TANH = (1.9171008103223196e-09, -1.37130813470852e-07, 4.0169825965003074e-06,
             -5.555088650393875e-05, -3.2101146329091025e-05, 0.0363327356343676,
             0.7978849619771538)
# float32 elements per GELU block: each block's ~19 passes stay in L2
_GELU_BLOCK = 65536


def _gelu_f32(x: np.ndarray, out: np.ndarray | None = None,
              phi: np.ndarray | None = None) -> np.ndarray:
    """x * Phi(x) for float32 x, block by block in place; see gelu_fwd.
    Without `phi`, Phi lives in one block of scratch only."""
    xf = np.ascontiguousarray(x).reshape(-1)
    out = np.empty(xf.size, dtype=np.float32) if out is None else out.reshape(-1)
    phi_f = None if phi is None else phi.reshape(-1)
    u, p = np.empty((2, min(_GELU_BLOCK, xf.size)), dtype=np.float32)
    # x h(x^2) overflows to +-inf from |x| ~ 4e3 on, where tanh is exactly +-1
    with np.errstate(over="ignore"):
        for start in range(0, xf.size, _GELU_BLOCK):
            xb = xf[start:start + _GELU_BLOCK]
            n = xb.size
            ub = u[:n]
            pb = p[:n] if phi_f is None else phi_f[start:start + n]
            np.multiply(xb, xb, out=ub)
            np.multiply(ub, _PHI_TANH[0], out=pb)  # Horner in u
            for c in _PHI_TANH[1:-1]:
                pb += c
                pb *= ub
            pb += _PHI_TANH[-1]
            pb *= xb
            np.tanh(pb, out=pb)
            pb *= 0.5
            pb += 0.5
            np.multiply(xb, pb, out=out[start:start + n])
    return out.reshape(x.shape)


def erf(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The error function of each element of a float64 array, from the C
    library's erf (math.erf), written into `out` (new when None; x itself
    works; C-contiguous). It maps _GELU_BLOCK elements at a time, so the
    Python floats in flight stay few. The float64 engine's GELU uses it;
    float32 never does."""
    x = np.asarray(x, dtype=np.float64)
    if out is None:
        out = np.empty(x.shape)
    src, dst = x.reshape(-1), out.reshape(-1)
    for start in range(0, src.size, _GELU_BLOCK):
        block = src[start:start + _GELU_BLOCK].tolist()
        dst[start:start + len(block)] = np.fromiter(map(math.erf, block), np.float64,
                                                    len(block))
    return out


def gelu_fwd(x: np.ndarray, out: np.ndarray | None = None,
             phi: np.ndarray | None = None) -> np.ndarray:
    """x * Phi(x), written into `out` (new when None; x itself works).
    Phi(x), which the backward needs, is written into `phi` when given.
    Both must be C-contiguous and shaped like x.

    float64 takes erf from the C library (see erf). float32 writes the
    exact erf-form Phi as (1 + tanh(x h(x^2))) / 2, with h the
    7-coefficient fit _PHI_TANH, evaluated in place over blocks of
    _GELU_BLOCK elements. This is not
    the tanh approximation of GELU, which is 1e-3 off: Phi is within
    2.5e-7 of the exact value, and exactly 0 or 1 for |x| >= 4 sqrt(2).
    """
    if x.dtype == np.float32:
        return _gelu_f32(x, out, phi)
    p = np.multiply(x, _INV_SQRT2, out=phi)
    erf(p, out=p)
    p += 1.0
    p *= 0.5
    return np.multiply(x, p, out=out)


def gelu_bwd(g: np.ndarray, x: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Input gradient g * (x pdf(x) + Phi(x)) of x * Phi(x), built in one
    fresh buffer; none of the arguments is written."""
    dx = np.multiply(x, x)
    dx *= -0.5
    np.exp(dx, out=dx)
    dx *= _INV_SQRT_2PI
    dx *= x
    dx += phi
    dx *= g
    return dx


def gelu(x: Tensor) -> Tensor:
    """Gaussian-error linear unit x * Phi(x) with the exact erf-form Phi,
    not the 1e-3 tanh approximation; float32 expresses Phi through tanh to
    within 2.5e-7 (see gelu_fwd)."""
    phi_cdf = np.empty_like(x.data) if records_graph((x,)) else None
    out_data = gelu_fwd(x.data, phi=phi_cdf)

    def bwd(g):
        x._accumulate(gelu_bwd(g, x.data, phi_cdf))

    return Tensor._from_op(out_data, (x,), bwd)


def cross_entropy_soft(logits: Tensor, targets) -> Tensor:
    """Mean soft-label cross entropy over the batch.

    `targets` rows must each sum to 1 (within 1e-6); mixing augmentations
    produce such rows. Gradient w.r.t. logits is (softmax - target) / B.
    """
    t = targets.data if isinstance(targets, Tensor) else np.asarray(targets)
    if logits.ndim != 2 or t.shape != logits.shape:
        raise ShapeError(f"logits {logits.shape} and targets {t.shape} must both be [B, K]")
    row_sums = t.sum(axis=-1)
    if not np.all(np.abs(row_sums - 1.0) <= 1e-6):
        bad = int(np.argmax(np.abs(row_sums - 1.0)))
        raise LabelError(f"target row {bad} sums to {row_sums[bad]!r}, expected 1")
    z = logits.data
    m = z.max(axis=-1, keepdims=True)
    lse = m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True))
    batch = z.shape[0]
    out_data = np.asarray((t * (lse - z)).sum() / batch, dtype=z.dtype)

    def bwd(g):
        p = np.exp(z - lse)
        logits._accumulate(g * (p - t) / batch)

    return Tensor._from_op(out_data, (logits,), bwd)


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into `.grad` of every reachable leaf.

    Repeated calls add into the same `.grad` arrays until the caller resets
    them, which is what gradient accumulation over micro-batches relies on.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    loss._accumulate(np.ones_like(loss.data))
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)
            node.grad = None  # intermediate grads are not retained


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5) -> float:
    """Compare backward() against central differences, coordinate by coordinate.

    Returns max over coordinates of |a - n| / max(|a|, |n|, 1e-8). Only
    meaningful in float64; finite differences drown in float32 rounding.
    """
    if not (1e-6 <= h <= 1e-3):
        raise ValueError(f"step h={h} outside [1e-6, 1e-3]")
    if _DEFAULT_DTYPE is not np.float64:
        raise ValueError("grad_check requires the float64 engine mode (set_default_dtype('float64'))")
    probe = Tensor(x.data.copy(), requires_grad=True)
    out = f(probe)
    if out.data.size != 1:
        raise ShapeError(f"grad_check needs a scalar-valued f, got shape {out.shape}")
    backward(out)
    analytic = probe.grad.copy()

    numeric = np.zeros_like(probe.data)
    flat = probe.data.reshape(-1)
    num_flat = numeric.reshape(-1)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = float(f(probe).data)
            flat[i] = orig - h
            fm = float(f(probe).data)
            flat[i] = orig
            num_flat[i] = (fp - fm) / (2.0 * h)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float((np.abs(analytic - numeric) / denom).max())
