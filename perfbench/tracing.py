"""Span recorder and reversible wrappers for the traced benchmark run.

Wrappers sit on the attribute each caller looks up (``swinqa.swin.matmul``
for the model, ``swinqa.train.forward`` for the training loop, methods on
the ``Tensor`` class), so the program itself is never edited. Every wrapped
call becomes a span: name, start, end, parent span and the request segment
it started in. Spans stay in memory until the run ends.

Self time is a span's duration minus the part covered by its child spans.
It is computed by one sweep over the enter/exit/mark events in the order
they happened: the time between two events belongs to the innermost open
span and to the current request segment.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict

import numpy as np

ENTER, EXIT, MARK = 0, 1, 2

# Tensor methods the model calls; all count toward tensor.other_ops
TENSOR_METHODS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__truediv__", "__pow__", "reshape", "transpose",
    "__getitem__", "take_rows", "roll", "sum", "mean",
)

class Recorder:
    """In-memory span store. ``mark()`` starts a new request segment."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.segments: list[int] = []
        self.extra: dict[int, float] = {}  # span -> MACs or image count
        self.events: list[tuple[int, int]] = []
        self.times: list[float] = []
        self.segment = 0
        self._stack: list[int] = []

    def enter(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.segments.append(self.segment)
        self.ends.append(math.nan)
        self._stack.append(i)
        t = time.perf_counter()
        self.starts.append(t)
        self.events.append((ENTER, i))
        self.times.append(t)
        return i

    def exit(self, i: int) -> None:
        t = time.perf_counter()
        if not self._stack or self._stack[-1] != i:
            raise RuntimeError(f"span {self.names[i]} closed out of order")
        self._stack.pop()
        self.ends[i] = t
        self.events.append((EXIT, i))
        self.times.append(t)

    def mark(self) -> int:
        t = time.perf_counter()
        self.segment += 1
        self.events.append((MARK, self.segment))
        self.times.append(t)
        return self.segment

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def self_times(self) -> dict:
        """(span name, segment) -> seconds of self time."""
        out: dict = defaultdict(float)
        stack: list[int] = []
        seg, last = 0, None
        for (kind, x), t in zip(self.events, self.times):
            if stack:
                out[(self.names[stack[-1]], seg)] += t - last
            last = t
            if kind == ENTER:
                stack.append(x)
            elif kind == EXIT:
                stack.pop()
            else:
                seg = x
        return out

    def write_csv(self, path: str) -> None:
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as f:
            f.write("span,name,start_us,end_us,parent,segment,extra\n")
            for i, name in enumerate(self.names):
                f.write(f"{i},{name},{(self.starts[i] - t0) * 1e6:.1f},"
                        f"{(self.ends[i] - t0) * 1e6:.1f},{self.parents[i]},"
                        f"{self.segments[i]},{self.extra.get(i, '')}\n")


class Patcher:
    """Replaces attributes and puts the original objects back. ``history``
    keeps every (owner, attribute, original) it ever replaced."""

    def __init__(self):
        self.live: list[tuple[object, str, object]] = []
        self.history: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make_wrapper) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))
        self.live.append((owner, attr, original))
        self.history.append((owner, attr, original))

    def remove(self) -> None:
        while self.live:
            owner, attr, original = self.live.pop()
            setattr(owner, attr, original)

    def not_restored(self) -> list[str]:
        """Replaced attributes that are not the original object any more."""
        bad = []
        for owner, attr, original in self.history:
            now = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr)
            if now is not original:
                bad.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return bad


def step_clock(patcher: Patcher, train_module, returns: list) -> None:
    """Untraced request boundary: append the time each optimizer step
    returns. The training loop runs inside the program, so this is the only
    way to see where one step ends and the next begins."""

    def make(original):
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            returns.append(time.perf_counter())
            return result
        return wrapper

    patcher.wrap(train_module, "adamw_step", make)


def install_layers(patcher: Patcher, rec: Recorder, swinqa, on_step=None) -> None:
    """Wrap the public functions of every layer where their callers look
    them up. ``swinqa`` is the imported package with its submodules."""
    tensor, swin, augment, data, train, cli = (
        swinqa.tensor, swinqa.swin, swinqa.augment, swinqa.data, swinqa.train, swinqa.cli)
    flops_cache: dict = {}
    state = {"embed_dim": 1}

    def span(name, after=None):
        def make(original):
            def wrapper(*args, **kwargs):
                i = rec.enter(name if isinstance(name, str) else name(args, kwargs))
                try:
                    result = original(*args, **kwargs)
                finally:
                    rec.exit(i)
                if after is not None:
                    after(i, args, result)
                return result
            return wrapper
        return make

    def forward_name(args, kwargs):
        state["embed_dim"] = args[1].embed_dim
        return "swin.forward"

    def forward_macs(i, args, result):
        cfg, shape = args[1], args[0].shape
        if cfg not in flops_cache:
            flops_cache[cfg] = swin.count_flops(cfg)
        rec.extra[i] = flops_cache[cfg] * (shape[0] if len(shape) == 4 else 1)

    def matmul_macs(i, args, result):
        sa, sb = args[0].shape, args[1].shape
        batch = math.prod(np.broadcast_shapes(sa[:-2], sb[:-2]))
        rec.extra[i] = float(batch * sa[-2] * sa[-1] * sb[-1])

    def block_name(args, kwargs):
        stage = (args[0].dim // state["embed_dim"]).bit_length() - 1
        return f"swin.block.s{stage}"

    def batch_name(args, kwargs):
        mode = args[3] if len(args) > 3 else kwargs["mode"]
        return f"augment.prepare_batch.{mode}"

    def count_images(i, args, result):
        rec.extra[i] = float(len(result))

    def step_done(i, args, result):
        if on_step is not None:
            on_step()

    # tensor layer: the model looks its ops up in swinqa.swin, the loop in
    # swinqa.train, and Tensor methods on the class
    for op in ("gelu", "layer_norm", "softmax", "concat"):
        patcher.wrap(swin, op, span(f"tensor.{op}"))
    patcher.wrap(swin, "matmul", span("tensor.matmul", matmul_macs))
    for op in ("softmax", "cross_entropy_soft", "backward"):
        patcher.wrap(train, op, span(f"tensor.{op}"))
    for method in TENSOR_METHODS:
        patcher.wrap(tensor.Tensor, method, span(f"tensor.{method.strip('_')}"))
    # swin layer
    patcher.wrap(train, "forward", span(forward_name, forward_macs))
    patcher.wrap(swin, "patch_partition", span("swin.patch_embed"))
    patcher.wrap(swin, "linear_embed", span("swin.patch_embed"))
    patcher.wrap(swin, "swin_block", span(block_name))
    patcher.wrap(swin, "window_attention", span("swin.window_attention"))
    patcher.wrap(swin, "patch_merging", span("swin.patch_merging"))
    # augment layer
    patcher.wrap(train, "prepare_batch", span(batch_name))
    patcher.wrap(augment, "rand_augment", span("augment.rand_augment"))
    patcher.wrap(augment, "mix_batch", span("augment.mix_batch"))
    # data layer: the CLI and the harness both load manifests
    patcher.wrap(cli, "make_benchmark", span("data.make_benchmark"))
    patcher.wrap(cli, "load_manifest", span("data.load_manifest", count_images))
    patcher.wrap(data, "load_manifest", span("data.load_manifest", count_images))
    # train layer
    patcher.wrap(train, "adamw_step", span("train.adamw_step", step_done))
    patcher.wrap(cli, "train", span("train.loop"))
    patcher.wrap(train, "evaluate", span("train.evaluate"))
    patcher.wrap(train, "auc_roc", span("train.auc_roc"))
    patcher.wrap(train, "save_checkpoint", span("train.save_checkpoint"))
    patcher.wrap(train, "load_checkpoint", span("train.load_checkpoint"))
    # cli layer
    patcher.wrap(cli, "main", span("cli.main"))


OTHER_OPS = frozenset(f"tensor.{m.strip('_')}" for m in TENSOR_METHODS) | {"tensor.concat"}
GRAPH_OPS = OTHER_OPS | {"tensor.gelu", "tensor.layer_norm", "tensor.softmax",
                         "tensor.matmul", "tensor.cross_entropy_soft"}


def layer_metrics(rec: Recorder, selfs: dict, timed: set, n_requests: int) -> dict:
    """Per-layer values from the spans of one traced pass.

    ``timed`` is the set of segments inside the timed region and
    ``n_requests`` the number of requests they hold; ``selfs`` is
    ``rec.self_times()``. Times are per request over the timed segments,
    except the ``data.*``, checkpoint and ``cli.main`` metrics, which are
    totals over the whole traced pass, set-up included. Names ending in
    ``.ms`` on a composite layer are whole-span times, ``.self_ms`` are
    self times; tensor ops have no wrapped children except nested Tensor
    methods, so their ``.ms`` are self times.
    """
    incl: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    extra: dict = defaultdict(float)
    pass_incl: dict = defaultdict(float)
    pass_extra: dict = defaultdict(float)
    for i, name in enumerate(rec.names):
        dur = rec.ends[i] - rec.starts[i]
        pass_incl[name] += dur
        pass_extra[name] += rec.extra.get(i, 0.0)
        if rec.segments[i] in timed:
            incl[name] += dur
            calls[name] += 1
            extra[name] += rec.extra.get(i, 0.0)
    self_timed: dict = defaultdict(float)
    self_pass: dict = defaultdict(float)
    for (name, seg), s in selfs.items():
        self_pass[name] += s
        if seg in timed:
            self_timed[name] += s

    n = max(n_requests, 1)

    def per_req_ms(value):
        return 1e3 * value / n

    def rate(macs, seconds):
        return macs / seconds / 1e9 if seconds > 0 else 0.0

    m = {
        "tensor.gelu.ms": per_req_ms(self_timed["tensor.gelu"]),
        "tensor.layer_norm.ms": per_req_ms(self_timed["tensor.layer_norm"]),
        "tensor.softmax.ms": per_req_ms(self_timed["tensor.softmax"]),
        "tensor.other_ops.ms": per_req_ms(sum(self_timed[k] for k in OTHER_OPS)),
        "tensor.matmul.ms": per_req_ms(self_timed["tensor.matmul"]),
        "tensor.matmul.calls": calls["tensor.matmul"] / n,
        "tensor.matmul.macs": extra["tensor.matmul"] / n,
        "tensor.matmul.gmacs": rate(extra["tensor.matmul"], self_timed["tensor.matmul"]),
        "tensor.ops": sum(calls[k] for k in GRAPH_OPS) / n,
        "tensor.backward.ms": per_req_ms(self_timed["tensor.backward"]),
        "tensor.cross_entropy_soft.ms": per_req_ms(self_timed["tensor.cross_entropy_soft"]),
        "swin.forward.ms": per_req_ms(incl["swin.forward"]),
        "swin.forward.gmacs": rate(extra["swin.forward"], incl["swin.forward"]),
        "swin.patch_embed.ms": per_req_ms(incl["swin.patch_embed"]),
        "swin.window_attention.self_ms": per_req_ms(self_timed["swin.window_attention"]),
    }
    for s in range(4):
        m[f"swin.block.s{s}.ms"] = per_req_ms(incl[f"swin.block.s{s}"])
    m.update({
        "swin.patch_merging.ms": per_req_ms(incl["swin.patch_merging"]),
        "augment.prepare_batch.train_ms": per_req_ms(incl["augment.prepare_batch.train"]),
        "augment.prepare_batch.eval_ms": per_req_ms(incl["augment.prepare_batch.eval"]),
        "augment.rand_augment.ms": per_req_ms(incl["augment.rand_augment"]),
        "augment.mix_batch.ms": per_req_ms(incl["augment.mix_batch"]),
        "data.make_benchmark.s": pass_incl["data.make_benchmark"],
        "data.load_manifest.s": pass_incl["data.load_manifest"],
        "data.images": pass_extra["data.load_manifest"],
        "train.adamw_step.ms": per_req_ms(incl["train.adamw_step"]),
        "train.loop.self_ms": per_req_ms(self_timed["train.loop"]),
        "train.evaluate.self_ms": per_req_ms(self_timed["train.evaluate"]),
        "train.auc_roc.ms": per_req_ms(incl["train.auc_roc"]),
        "train.save_checkpoint.ms": 1e3 * pass_incl["train.save_checkpoint"],
        "train.load_checkpoint.ms": 1e3 * pass_incl["train.load_checkpoint"],
        "cli.main.self_ms": 1e3 * self_pass["cli.main"],
    })
    return m


def segment_sums(selfs: dict, segments) -> dict:
    """Segment -> sum of the self times of every span inside it."""
    sums: dict = defaultdict(float)
    wanted = set(segments)
    for (name, seg), s in selfs.items():
        if seg in wanted:
            sums[seg] += s
    return sums
