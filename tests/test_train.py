"""Optimizer/schedule closed forms, exact AUC against the pair-counting
oracle, checkpoint byte round trips, and training-loop semantics
(determinism, accumulation equivalence, resume, NaN abort)."""

import gc
import hashlib
import json
import math
import os
import re
import struct
import subprocess
import sys
import warnings
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from oracles import adamw_per_name, pair_count_auc
from swinqa import swin as swin_module
from swinqa import train as train_module
from swinqa.augment import prepare_batch
from swinqa.data import SynthSpec, synth_foreign_object
from swinqa.swin import (SwinConfig, count_params, forward, init_params, init_weights,
                         param_tensors, param_views, preset)
from swinqa.tensor import ShapeError, Tensor, backward, cross_entropy_soft, using_dtype
from swinqa.train import (
    BATCH_PRESETS,
    Checkpoint,
    EvalReport,
    OptimState,
    TrainAbort,
    TrainConfig,
    adamw_step,
    auc_roc,
    evaluate,
    init_optim_state,
    load_checkpoint,
    lr_at,
    predictive_entropy,
    save_checkpoint,
    throughput,
    train,
    write_history_csv,
)


def scalar_param(value):
    return Tensor(np.array([value])).data


def records(n, seed=0):
    spec = SynthSpec(size=64, seed=seed)
    return [synth_foreign_object(spec, i % 2 == 0, np.random.default_rng([seed, i]))
            for i in range(n)]


def micro_train_cfg(**over):
    base = dict(mode="scratch", model="micro", epochs=2, warmup_epochs=1,
                batch_size=4, grad_accum_steps=1, drop_path_max=0.0,
                augment=False, seed=5)
    base.update(over)
    return TrainConfig(**base)


# ------------------------------------------------------------------- adamw


def test_adamw_zero_grad_zero_decay_is_identity():
    param = scalar_param(0.7)
    state = init_optim_state(param)
    before = param.copy()
    adamw_step(param, np.zeros(1), state, lr=0.1, wd=0.0)
    assert np.array_equal(param, before)
    assert state.t == 1


def test_adamw_one_step_moves_by_lr():
    with using_dtype("float64"):
        param = scalar_param(0.7)
        state = init_optim_state(param)
        adamw_step(param, np.ones(1), state, lr=0.1, wd=0.0)
        # bias-corrected m_hat / sqrt(v_hat) == 1 after one step
        assert abs((0.7 - param[0]) - 0.1) < 1e-8


def test_adamw_decoupled_decay_factor():
    with using_dtype("float64"):
        rng = np.random.default_rng(0)
        param = Tensor(rng.normal(size=12)).data
        state = init_optim_state(param)
        start = param.copy()
        lr, wd = 0.05, 0.3
        for _ in range(5):
            adamw_step(param, np.zeros(12), state, lr, wd)
        want = start.copy()
        for _ in range(5):
            want = want - lr * wd * want
        assert np.abs(param - want).max() < 1e-15
        ratio = np.linalg.norm(param) / np.linalg.norm(start)
        assert abs(ratio - (1 - lr * wd) ** 5) < 1e-12


def test_adamw_rejects_shape_mismatch():
    param = scalar_param(1.0)
    with pytest.raises(ShapeError):
        adamw_step(param, np.zeros(2), init_optim_state(param), 0.1, 0.0)


def test_adamw_second_moment_nonnegative():
    with using_dtype("float64"):
        rng = np.random.default_rng(1)
        param = Tensor(rng.normal(size=7)).data
        state = init_optim_state(param)
        for k in range(4):
            adamw_step(param, rng.normal(size=7), state, 0.01, 0.0)
        assert state.t == 4
        assert (state.v >= 0).all()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_adamw_flat_matches_per_name_oracle(dtype):
    cfg = preset("micro")
    with using_dtype(dtype):
        params = init_params(cfg, np.random.default_rng(3))
    ref = {n: p.data.copy() for n, p in params.items()}
    ref_m = {n: np.zeros_like(a) for n, a in ref.items()}
    ref_v = {n: np.zeros_like(a) for n, a in ref.items()}
    weights = np.concatenate([p.data.ravel() for p in params.values()])
    state = init_optim_state(weights)
    rng = np.random.default_rng(4)
    for t in range(1, 4):
        grads = {n: rng.normal(size=a.shape).astype(dtype) for n, a in ref.items()}
        adamw_per_name(ref, grads, ref_m, ref_v, t, lr=1e-3, wd=0.05)
        flat_grad = np.concatenate([g.ravel() for g in grads.values()])
        adamw_step(weights, flat_grad, state, lr=1e-3, wd=0.05)
    for flat, want in ((weights, ref), (state.m, ref_m), (state.v, ref_v)):
        assert flat.dtype == np.dtype(dtype)
        for name, view in param_views(cfg, flat).items():
            assert np.array_equal(view, want[name]), name


CHUNK = train_module._ADAMW_CHUNK


@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_adamw_chunks_match_per_name_oracle(dtype, n):
    rng = np.random.default_rng(n)
    weights = rng.normal(size=n).astype(dtype)
    # uneven names, so that chunk edges and name edges fall apart
    cuts = sorted({min(c, n) for c in (0, n // 3, n // 3 + 5, n)})
    names = {f"p{i}": slice(lo, hi) for i, (lo, hi) in enumerate(zip(cuts, cuts[1:]))}
    ref = {k: weights[sl].copy() for k, sl in names.items()}
    ref_m = {k: np.zeros_like(a) for k, a in ref.items()}
    ref_v = {k: np.zeros_like(a) for k, a in ref.items()}
    state = init_optim_state(weights)
    for t in range(1, 4):
        flat_grad = rng.normal(size=n).astype(dtype)
        adamw_per_name(ref, {k: flat_grad[sl] for k, sl in names.items()},
                       ref_m, ref_v, t, lr=1e-3, wd=0.05)
        adamw_step(weights, flat_grad, state, lr=1e-3, wd=0.05)
    assert state.work.shape == (2, min(n, CHUNK)) and state.work.dtype == np.dtype(dtype)
    for flat, want in ((weights, ref), (state.m, ref_m), (state.v, ref_v)):
        assert flat.dtype == np.dtype(dtype)
        for k, sl in names.items():
            assert np.array_equal(flat[sl], want[k]), k


def test_adamw_rejects_non_flat_buffers():
    param = np.zeros((2, 3))
    with pytest.raises(ShapeError, match="flat"):
        adamw_step(param, np.zeros((2, 3)), init_optim_state(param), 0.1, 0.0)


# ---------------------------------------------------------------- schedule


def test_lr_at_closed_forms():
    total, warmup, base = 600, 50, 6e-5
    assert lr_at(0, total, warmup, base) == 0.0
    assert lr_at(warmup, total, warmup, base) == base
    assert lr_at(total - 1, total, warmup, base) == base / (total - warmup)
    # linearity on both segments
    assert lr_at(25, total, warmup, base) == pytest.approx(base / 2, rel=1e-12)
    mid = warmup + (total - warmup) // 2
    assert lr_at(mid, total, warmup, base) == pytest.approx(
        base * (total - mid) / (total - warmup), rel=1e-12)


def test_lr_at_continuity_and_bounds():
    total, warmup, base = 100, 10, 3e-4
    left = lr_at(warmup - 1, total, warmup, base)
    peak = lr_at(warmup, total, warmup, base)
    assert left < peak and peak - left == pytest.approx(base / warmup, rel=1e-9)
    with pytest.raises(ValueError):
        lr_at(-1, total, warmup, base)
    with pytest.raises(ValueError):
        lr_at(total, total, warmup, base)
    with pytest.raises(ValueError):
        lr_at(0, total, total, base)
    # zero warmup starts at the peak
    assert lr_at(0, 10, 0, 1.0) == 1.0


# ----------------------------------------------------------------- metrics


def test_auc_trivial_cases():
    assert auc_roc([0.9, 0.1], [1, 0]) == 1.0
    assert auc_roc([0.1, 0.9], [1, 0]) == 0.0
    assert auc_roc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5
    assert auc_roc([0.3, 0.3], [1, 1]) is None
    assert auc_roc([], []) is None
    with pytest.raises(ValueError):
        auc_roc([0.1], [2])
    with pytest.raises(ValueError):
        auc_roc([0.1, 0.2], [1])


@pytest.mark.parametrize("scores", [[float("nan"), 0.5], [0.5, float("inf")],
                                    [float("nan"), float("nan")]])
def test_auc_rejects_non_finite_scores(scores):
    bad = next(i for i, s in enumerate(scores) if not np.isfinite(s))
    with pytest.raises(ValueError, match=f"score {bad} is"):
        auc_roc(scores, [0, 1])


def test_auc_matches_pair_counting_exactly():
    rng = np.random.default_rng(3)
    for trial in range(300):
        n = int(rng.integers(2, 60))
        labels = rng.integers(0, 2, size=n).tolist()
        # quantized scores force plenty of ties
        scores = (rng.integers(0, 8, size=n) / 7.0).tolist()
        want = pair_count_auc(scores, labels)
        got = auc_roc(scores, labels)
        assert got == want  # exact, including None


def test_predictive_entropy_values():
    assert predictive_entropy([1.0, 0.0]) == 0.0
    assert predictive_entropy([0.5, 0.5]) == pytest.approx(math.log(2), rel=1e-12)
    assert predictive_entropy([0.9, 0.1]) == pytest.approx(0.3251, abs=1e-4)
    with pytest.raises(ValueError):
        predictive_entropy([0.9, 0.3])
    with pytest.raises(ValueError):
        predictive_entropy([[0.5, 0.5]])


# ------------------------------------------------------------- checkpoints


def micro_checkpoint(with_optim=True, with_best=True, history=None):
    cfg = preset("micro")
    params = init_params(cfg, np.random.default_rng(7))
    weights = np.concatenate([p.data.ravel() for p in params.values()])
    optim = None
    if with_optim:
        optim = init_optim_state(weights.astype(np.float32))
        m, v = param_views(cfg, optim.m), param_views(cfg, optim.v)
        rng = np.random.default_rng(8)
        for name in m:
            m[name][...] = rng.normal(size=m[name].shape)
            v[name][...] = rng.random(size=v[name].shape)
        optim.t = 17
    best = None
    best_epoch = None
    if with_best:
        best = weights.astype("<f4") * 0.5
        best_epoch = 1
    if history is None:
        history = [{"epoch": 1, "train_loss": 0.69, "val_acc": 50.0,
                    "val_auc": 0.5, "lr": 1e-4},
                   {"epoch": 2, "train_loss": 0.61, "val_acc": 62.0,
                    "val_auc": None, "lr": 9e-5}]
    return Checkpoint(config=cfg, params=params, optim=optim, epoch=2,
                      rng_state={"scheme": "keyed-streams", "seed": 5,
                                 "next_epoch": 2},
                      history=history, best_params=best, best_epoch=best_epoch)


def test_checkpoint_byte_round_trip(tmp_path):
    for with_optim, with_best in ((True, True), (False, False), (True, False)):
        a = str(tmp_path / f"a_{with_optim}_{with_best}.swq")
        b = str(tmp_path / f"b_{with_optim}_{with_best}.swq")
        ckpt = micro_checkpoint(with_optim, with_best)
        save_checkpoint(a, ckpt)
        save_checkpoint(b, load_checkpoint(a))
        assert open(a, "rb").read() == open(b, "rb").read()


@pytest.mark.parametrize("with_optim, with_best, sha256", [
    (True, True, "e4811c5f92083f9428c41395e64c51d971a3bb98f3984e9123c58a745c67ec7c"),
    (False, False, "b99cff12157a93305131c26cab0f16cad95d92d1fc187638cd6bc9ae545473b4"),
    (True, False, "5b3f8865ee4e4d7c01bd0fdeb68514646959ce2de21458e732eada79660d5591"),
], ids=["optim-best", "weights", "optim"])
def test_checkpoint_bytes_pinned(tmp_path, with_optim, with_best, sha256):
    path = tmp_path / "c.swq"
    save_checkpoint(str(path), micro_checkpoint(with_optim, with_best))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


def test_checkpoint_preserves_values(tmp_path):
    path = str(tmp_path / "c.swq")
    ckpt = micro_checkpoint()
    save_checkpoint(path, ckpt)
    back = load_checkpoint(path)
    assert back.config == ckpt.config
    assert back.epoch == 2 and back.best_epoch == 1
    assert back.history == ckpt.history
    assert back.rng_state == ckpt.rng_state
    for name, p in ckpt.params.items():
        assert np.array_equal(back.params[name].data, p.data.astype(np.float32))
    assert back.optim.t == 17
    assert np.array_equal(back.optim.m, ckpt.optim.m)
    assert np.array_equal(back.best_params, ckpt.best_params)
    total = sum(p.data.size for p in back.params.values())
    assert total == count_params(ckpt.config)


def test_checkpoint_magic_guard(tmp_path):
    path = tmp_path / "bad.swq"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(str(path))


def test_checkpoint_truncation_guard(tmp_path):
    path = str(tmp_path / "t.swq")
    save_checkpoint(path, micro_checkpoint(with_optim=False, with_best=False))
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:-100])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_trailing_bytes_guard(tmp_path):
    path = str(tmp_path / "long.swq")
    save_checkpoint(path, micro_checkpoint())
    with open(path, "ab") as f:
        f.write(b"\x00")
    with pytest.raises(ValueError, match="long.swq: trailing bytes"):
        load_checkpoint(path)


@pytest.mark.parametrize("history", [
    [],
    [{"epoch": 2, "train_loss": 0.6, "val_acc": 62.0, "val_auc": 0.7, "lr": 1e-4}],
    [{"epoch": 1, "train_loss": 0.6, "val_acc": 62.0, "lr": 1e-4}],
], ids=["empty", "other-epoch", "no-val_auc"])
def test_checkpoint_best_epoch_needs_its_history_row(tmp_path, history):
    """save_checkpoint writes such a file; the loader refuses it, so a
    resumed run never looks up a best row that is not there."""
    path = str(tmp_path / "orphan.swq")
    save_checkpoint(path, micro_checkpoint(history=history))
    with pytest.raises(ValueError, match="orphan.swq: best_epoch 1 names no history row"):
        load_checkpoint(path)


ROW_1 = {"epoch": 1, "train_loss": 0.6, "val_acc": 62.0, "val_auc": 0.7, "lr": 1e-4}


@pytest.mark.parametrize("history", [
    [7, ROW_1],
    [ROW_1, {"train_loss": 0.6, "val_acc": 62.0, "val_auc": 0.7, "lr": 1e-4}],
    [ROW_1, {**ROW_1, "epoch": "2"}],
    [ROW_1, {**ROW_1, "epoch": 2.0}],
    [ROW_1, {**ROW_1, "epoch": True}],
    {"1": ROW_1},
], ids=["int-row", "no-epoch", "str-epoch", "float-epoch", "bool-epoch", "not-a-list"])
def test_checkpoint_history_rows_must_be_objects_with_an_integer_epoch(tmp_path, history):
    """A resumed run finds its best row by each row's epoch, so the loader
    refuses a history it could not search."""
    path = str(tmp_path / "rows.swq")
    save_checkpoint(path, micro_checkpoint(history=history))
    with pytest.raises(ValueError, match="rows.swq: history is not a list of objects, "
                                         "each with an integer epoch"):
        load_checkpoint(path)


@pytest.mark.parametrize("edit, want", [
    (lambda h: h.update(epoch=0), "history[0].epoch 1 is out of order or after epoch 0"),
    (lambda h: h.update(epoch=1), "history[1].epoch 2 is out of order or after epoch 1"),
    (lambda h: h["history"].reverse(), "history[1].epoch 1 is out of order or after epoch 2"),
    (lambda h: h["history"][1].update(epoch=1),
     "history[1].epoch 1 is out of order or after epoch 2"),
    (lambda h: h["history"][0].update(epoch=0),
     "history[0].epoch 0 is out of order or after epoch 2"),
], ids=["rows-after-epoch-0", "row-after-epoch", "reversed", "repeated", "epoch-0-row"])
def test_checkpoint_history_epochs_increase_up_to_epoch(tmp_path, edit, want):
    """A resume appends rows after `epoch`, so a history that is out of
    order or runs past it would be recorded with epochs repeated."""
    path = str(tmp_path / "rows.swq")
    save_checkpoint(path, micro_checkpoint(with_best=False))
    rewrite_header(path, edit)
    with pytest.raises(ValueError, match=re.escape(f"{path}: header {want}") + "$"):
        load_checkpoint(path)


def test_checkpoint_short_fixed_header(tmp_path):
    path = str(tmp_path / "short.swq")
    open(path, "wb").write(b"SWQK\x01\x00")
    with pytest.raises(ValueError, match="short.swq: truncated header"):
        load_checkpoint(path)


def rewrite_header(path, edit):
    """Apply `edit` to the JSON header of a checkpoint file, keeping its
    payload. The file is replaced by rename, not rewritten in place, so a
    load_checkpoint mapping of the old file stays whole."""
    blob = open(path, "rb").read()
    size = struct.unpack("<I", blob[8:12])[0]
    header = json.loads(blob[12:12 + size])
    edit(header)
    new = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with train_module.replace_atomically(path, "wb") as f:
        f.write(blob[:8] + struct.pack("<I", len(new)) + new + blob[12 + size:])


def _optim_without_moments(h):
    h["optim"] = {"t": 1, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8}


def _extra_entry(h):
    h["tensors"]["extra.weight"] = {"shape": [1], "offset": 0}


def _overlapping_entry(h):
    h["tensors"]["head.bias"]["offset"] = h["tensors"]["head.weight"]["offset"]


@pytest.mark.parametrize("edit", [_optim_without_moments, _extra_entry, _overlapping_entry])
def test_checkpoint_directory_must_match_layout(tmp_path, edit):
    path = str(tmp_path / "d.swq")
    save_checkpoint(path, micro_checkpoint(with_optim=False, with_best=False))
    load_checkpoint(path)
    rewrite_header(path, edit)
    with pytest.raises(ValueError, match="d.swq: tensor directory"):
        load_checkpoint(path)


# wrong JSON values for each type a header key may have: a string, a bool,
# a float for an int, and null where null is not allowed
_WRONG = {"int": ["1", True, 1.0, None], "int|null": ["1", True, 1.0],
          "number": ["1", True, None], "number|null": ["1", True],
          "ints": ["2", True, None, [2.0]], "list": ["x", True, None, {}],
          "object": ["x", True, None, [1]], "object|null": ["x", True, [1]]}
# every key of a micro_checkpoint header, by its path from the top, and its type;
# the history keys are those of row 1, whose epoch (2) is not the best
_HEADER_KEYS = {
    ("format_version",): "int", ("config",): "object", ("epoch",): "int",
    ("best_epoch",): "int|null", ("rng_state",): "object|null", ("history",): "list",
    ("optim",): "object|null", ("tensors",): "object",
    **{("config", f.name): "ints" if f.name in ("depths", "heads") else
       "number" if f.name in ("drop_path_max", "mlp_ratio") else "int"
       for f in fields(SwinConfig)},
    ("optim", "t"): "int", ("optim", "beta1"): "number", ("optim", "beta2"): "number",
    ("optim", "eps"): "number",
    **{("history", 1, column): "int" if column == "epoch" else
       "number|null" if column == "val_auc" else "number"
       for column in ("epoch", "train_loss", "val_acc", "val_auc", "lr")},
}
_MISSING = object()


def _header_edits():
    for where, kind in _HEADER_KEYS.items():
        name = ".".join(map(str, where))
        yield pytest.param(where, _MISSING, id=f"{name}-missing")
        for value in _WRONG[kind]:
            yield pytest.param(where, value, id=f"{name}={json.dumps(value)}")


@pytest.mark.parametrize("where, value", list(_header_edits()))
def test_checkpoint_header_key_missing_or_of_a_wrong_type(tmp_path, where, value):
    """A header with any one key missing, or of a wrong JSON type, raises a
    ValueError naming the file and the key, never a KeyError or TypeError."""
    path = str(tmp_path / "h.swq")
    save_checkpoint(path, micro_checkpoint())

    def edit(header):
        *parents, key = where
        for parent in parents:
            header = header[parent]
        if value is _MISSING:
            del header[key]
        else:
            header[key] = value

    rewrite_header(path, edit)
    with pytest.raises(ValueError) as caught:
        load_checkpoint(path)
    message = str(caught.value)
    assert message.startswith(f"{path}: ")
    for key in (k for k in where if isinstance(k, str)):  # a row index need not be named
        assert key in message.removeprefix(f"{path}: "), message


@pytest.mark.parametrize("edit, want", [
    (lambda h: h.update(format_version=2), "header format_version 2 is out of range"),
    (lambda h: h.update(epoch=-1), "header epoch -1 is out of range"),
    (lambda h: h.update(best_epoch=0), "header best_epoch 0 is out of range"),
    (lambda h: h.update(extra=1), "header extra is unknown"),
    (lambda h: h["config"].update(extra=1), "header config.extra is unknown"),
    (lambda h: h["optim"].update(m=[]), "header optim.m is unknown"),
    (lambda h: h["history"][1].update(note="x"), "header history[1].note is unknown"),
], ids=["format_version", "epoch", "best_epoch", "top", "config", "optim", "history-row"])
def test_checkpoint_header_value_out_of_range_or_unknown_key(tmp_path, edit, want):
    path = str(tmp_path / "h.swq")
    save_checkpoint(path, micro_checkpoint())
    rewrite_header(path, edit)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {want}") + "$"):
        load_checkpoint(path)


def poison_payload(path, entries):
    """Write float32 `value` at the first element of each (directory name,
    value) entry in a saved checkpoint's payload, replacing the file by
    rename as rewrite_header does."""
    blob = bytearray(open(path, "rb").read())
    size = struct.unpack("<I", blob[8:12])[0]
    tensors = json.loads(blob[12:12 + size])["tensors"]
    for name, value in entries:
        at = 12 + size + tensors[name]["offset"]
        blob[at:at + 4] = struct.pack("<f", value)
    with train_module.replace_atomically(path, "wb") as f:
        f.write(bytes(blob))


@pytest.mark.parametrize("entries,want", [
    ([("head.bias", math.nan)], r"weights group: tensor head\.bias holds a non-finite value \(nan\)"),
    ([("optim.v.head.weight", math.inf), ("best.head.bias", math.nan)],
     r"optim\.v group: tensor head\.weight holds a non-finite value \(inf\)"),
    ([("best.head.bias", -math.inf)], r"best group: tensor head\.bias .*\(-inf\)"),
    ([("patch_embed.weight", math.inf), ("head.bias", math.nan)],
     r"weights group: tensor patch_embed\.weight "),
], ids=["nan-weights", "inf-moment", "inf-best", "first-of-two"])
def test_checkpoint_rejects_non_finite_payload(tmp_path, entries, want):
    path = str(tmp_path / "p.swq")
    save_checkpoint(path, micro_checkpoint())
    load_checkpoint(path)
    poison_payload(path, entries)
    with pytest.raises(ValueError, match=r"p\.swq: " + want):
        load_checkpoint(path)


def test_checkpoint_with_a_huge_finite_value_loads_without_a_warning(tmp_path):
    # 3e38 is a finite float32 whose square overflows the scan's dot product
    path = str(tmp_path / "p.swq")
    save_checkpoint(path, micro_checkpoint())
    poison_payload(path, [("head.bias", 3e38)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ckpt = load_checkpoint(path)
    assert ckpt.params["head.bias"].data[0] == np.float32(3e38)


def test_train_refuses_non_finite_checkpoint_in(tmp_path):
    path = str(tmp_path / "in.swq")
    cfg = micro_train_cfg(epochs=1, warmup_epochs=0)
    save_checkpoint(path, Checkpoint(config=cfg.swin_config(),
                                     params=init_params(cfg.swin_config(),
                                                        np.random.default_rng(0))))
    poison_payload(path, [("head.weight", math.nan)])
    with pytest.raises(ValueError, match="non-finite"):
        train(micro_train_cfg(epochs=1, warmup_epochs=0, checkpoint_in=path),
              records(4), records(4))


def _payload_start(path) -> int:
    return 12 + struct.unpack("<I", open(path, "rb").read(12)[8:])[0]


def _loaded_arrays(ckpt) -> dict:
    arrays = {name: p.data for name, p in ckpt.params.items()}
    if ckpt.optim is not None:
        arrays.update({"optim.m": ckpt.optim.m, "optim.v": ckpt.optim.v})
    if ckpt.best_params is not None:
        arrays["best"] = ckpt.best_params
    return arrays


@pytest.mark.parametrize("with_optim, with_best, n_history", [
    (True, True, 2), (False, False, 0), (True, False, 1), (False, True, 7)])
def test_checkpoint_payload_is_aligned_and_loads_as_plain_arrays(tmp_path, with_optim,
                                                                 with_best, n_history):
    history = [{"epoch": e, "train_loss": 0.5, "val_acc": 50.0, "val_auc": 0.5,
                "lr": 1e-4 * e} for e in range(1, n_history + 1)]
    path = str(tmp_path / "a.swq")
    ckpt = micro_checkpoint(with_optim, with_best, history=history)
    ckpt.epoch = max(ckpt.epoch, n_history)  # no history row after the checkpoint's epoch
    save_checkpoint(path, ckpt)
    assert _payload_start(path) % train_module.PAYLOAD_ALIGN == 0
    ckpt = load_checkpoint(path)
    weights = next(iter(ckpt.params.values())).data
    assert weights.ctypes.data % train_module.PAYLOAD_ALIGN == 0
    for name, a in _loaded_arrays(ckpt).items():
        assert type(a) is np.ndarray and a.dtype == np.float32, name
        assert a.flags.aligned and a.flags.writeable and a.flags.c_contiguous, name


def test_checkpoint_in_place_writes_never_reach_the_file(tmp_path):
    path = str(tmp_path / "c.swq")
    save_checkpoint(path, micro_checkpoint())
    before = hashlib.sha256(open(path, "rb").read()).hexdigest()
    ckpt = load_checkpoint(path)
    want = {name: a.copy() for name, a in _loaded_arrays(ckpt).items()}
    for a in _loaded_arrays(ckpt).values():
        a += 1.0
    for name, a in _loaded_arrays(ckpt).items():
        assert not np.array_equal(a, want[name]), name  # the writes took
    assert hashlib.sha256(open(path, "rb").read()).hexdigest() == before
    again = _loaded_arrays(load_checkpoint(path))
    for name, a in want.items():
        assert np.array_equal(again[name], a), name


@pytest.mark.parametrize("pad", range(4))
def test_checkpoint_with_unpadded_header_loads_equal_values(tmp_path, pad):
    path = str(tmp_path / "u.swq")
    save_checkpoint(path, micro_checkpoint())
    want = {name: a.copy() for name, a in _loaded_arrays(load_checkpoint(path)).items()}
    rewrite_header(path, lambda h: h["rng_state"].update(pad="x" * pad))
    assert _payload_start(path) % train_module.PAYLOAD_ALIGN != 0
    back = load_checkpoint(path)
    assert back.rng_state["pad"] == "x" * pad
    for name, a in _loaded_arrays(back).items():
        assert type(a) is np.ndarray and a.flags.aligned, name
        assert np.array_equal(a, want[name]), name


# loads the checkpoint at argv[1] in a fresh interpreter and prints its
# VmHWM in KiB before and after, and the payload's group count and bytes
_LOAD_PEAK = """
import sys
from swinqa.swin import count_params
from swinqa.train import load_checkpoint

def peak():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))

before = peak()
ckpt = load_checkpoint(sys.argv[1])
print(before, peak(), 2 + 2 * (ckpt.optim is not None), 4 * count_params(ckpt.config))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
def test_checkpoint_load_makes_no_group_resident(tmp_path):
    cfg = replace(preset("micro"), embed_dim=64, heads=(2, 4, 8, 16))
    flat = init_weights(cfg, np.random.default_rng(0))
    moments = OptimState(m=np.full_like(flat, 0.25), v=np.full_like(flat, 0.5))
    path = str(tmp_path / "big.swq")
    save_checkpoint(path, Checkpoint(config=cfg, params=param_tensors(cfg, flat),
                                     optim=moments, best_params=flat, best_epoch=1, epoch=1,
                                     history=[{"epoch": 1, "train_loss": 0.69, "val_acc": 50.0,
                                               "val_auc": 0.5, "lr": 1e-4}]))
    del flat, moments
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(os.path.dirname(__file__)), "src"),
         os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _LOAD_PEAK, path], env=env,
                          capture_output=True, text=True, check=True)
    before, after, groups, group_bytes = map(int, done.stdout.split())
    assert groups == 4 and group_bytes >= 16 << 20
    assert (after - before) * 1024 < group_bytes


def test_history_csv_format(tmp_path):
    path = str(tmp_path / "h.csv")
    write_history_csv(path, micro_checkpoint().history)
    lines = open(path).read().splitlines()
    assert lines[0] == "epoch,train_loss,val_acc,val_auc,lr"
    assert lines[1] == "1,0.69,50.0,0.5,0.0001"
    assert lines[2] == "2,0.61,62.0,,9e-05"


def test_history_csv_failed_write_keeps_previous_file(tmp_path):
    path = str(tmp_path / "h.csv")
    write_history_csv(path, micro_checkpoint().history)
    before = open(path).read()
    rows = [{"epoch": e, "train_loss": 0.5, "val_acc": 50.0, "val_auc": None, "lr": 0.0}
            for e in range(1, 2000)] + [{"epoch": 2000}]  # fails after 1,999 rows
    with pytest.raises(KeyError, match="train_loss"):
        write_history_csv(path, rows)
    assert open(path).read() == before
    assert os.listdir(tmp_path) == ["h.csv"]


@pytest.mark.parametrize("mode, kwargs, data", [("w", {}, "new\n"),
                                                ("w", {"newline": ""}, "a\r\nb\n"),
                                                ("wb", {}, b"\x00new")],
                         ids=["text", "text-newline", "binary"])
def test_replace_atomically_replaces_only_on_success(tmp_path, mode, kwargs, data):
    path = str(tmp_path / "artifact")
    open(path, "wb").write(b"old")
    with pytest.raises(RuntimeError, match="midway"):
        with train_module.replace_atomically(path, mode, **kwargs) as f:
            f.write(data)
            f.flush()
            assert open(path, "rb").read() == b"old"
            raise RuntimeError("midway")
    assert open(path, "rb").read() == b"old"
    assert os.listdir(tmp_path) == ["artifact"]
    with train_module.replace_atomically(path, mode, **kwargs) as f:
        f.write(data)
    assert open(path, "rb").read() == (data if mode == "wb" else data.encode())
    assert os.listdir(tmp_path) == ["artifact"]


def test_next_write_removes_only_dead_writers_staged_files(tmp_path, monkeypatch):
    """A write to a path first removes the files staged for that path by a
    pid that is gone. A live pid's, one that may not be signalled, another
    path's and an entry of another form stay."""
    probed = []

    def kill(pid, sig):
        probed.append((pid, sig))
        if pid == 111:
            raise ProcessLookupError(pid)
        if pid == 222:
            raise PermissionError(pid)

    keep = [".c.swq.222.0123456789ab.staging", ".c.swq.333.0123456789ab.staging",
            ".h.csv.111.0123456789ab.staging", "c.swq.111.tmp", ".c.swq.111.xyz.staging"]
    for entry in keep + [".c.swq.111.0123456789ab.staging"]:
        (tmp_path / entry).write_bytes(b"partial")
    monkeypatch.setattr(os, "kill", kill)
    save_checkpoint(str(tmp_path / "c.swq"), micro_checkpoint())
    assert sorted(os.listdir(tmp_path)) == sorted(keep + ["c.swq"])
    assert sorted(probed) == [(111, 0), (222, 0), (333, 0)]


# stages bytes for argv[1] through replace_atomically, says so, and waits
_STAGING_WRITER = """
import sys, time
from swinqa.train import replace_atomically
with replace_atomically(sys.argv[1], "wb") as f:
    f.write(b"partial")
    f.flush()
    print("staged", flush=True)
    time.sleep(120)
"""


def test_killed_writers_staged_file_goes_with_the_next_write(tmp_path):
    path = str(tmp_path / "c.swq")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(os.path.dirname(__file__)), "src"),
         os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen([sys.executable, "-c", _STAGING_WRITER, path], env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        assert proc.stdout.readline() == "staged\n"
        (staged,) = os.listdir(tmp_path)
        assert staged.startswith(f".c.swq.{proc.pid}.") and staged.endswith(".staging")
        proc.kill()
        proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    assert os.listdir(tmp_path) == [staged]  # the killed writer left it
    save_checkpoint(path, micro_checkpoint())
    assert os.listdir(tmp_path) == ["c.swq"]


# ----------------------------------------------------------------- configs


def test_train_config_mode_defaults():
    fine = TrainConfig(mode="finetune", model="micro")
    assert (fine.base_lr, fine.epochs, fine.warmup_epochs) == (6e-5, 60, 5)
    scratch = TrainConfig(mode="scratch", model="micro")
    assert (scratch.base_lr, scratch.epochs) == (5e-4, 300)
    assert scratch.weight_decay == 1e-8


def test_train_config_batch_presets():
    assert BATCH_PRESETS == {8: (16, 8), 7: (64, 2)}
    w7 = TrainConfig(model="tiny")  # tiny preset: 224 / window 7
    assert (w7.batch_size, w7.grad_accum_steps) == (64, 2)
    w8 = TrainConfig(model="base", img_size=1024, window=8)
    assert (w8.batch_size, w8.grad_accum_steps) == (16, 8)
    other = TrainConfig(model="micro")  # window 4: no preset, fallback
    assert (other.batch_size, other.grad_accum_steps) == (16, 2)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(mode="transfer")
    with pytest.raises(ValueError):
        TrainConfig(model="micro", epochs=5, warmup_epochs=5)
    with pytest.raises(ValueError):
        TrainConfig(model="micro", epochs=5, stop_epoch=6)
    with pytest.raises(ValueError):
        TrainConfig(model="micro", base_lr=-1e-4)


class _PayloadWriteFails:
    """File stand-in whose payload (array) writes raise, as a full disk would."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        if isinstance(data, np.ndarray):
            raise OSError(28, "No space left on device")
        return self.f.write(data)


def test_checkpoint_failed_write_keeps_previous_file(tmp_path, monkeypatch):
    path = str(tmp_path / "c.swq")
    save_checkpoint(path, micro_checkpoint(with_optim=False, with_best=False))
    before = open(path, "rb").read()
    monkeypatch.setattr(train_module, "open",
                        lambda name, mode: _PayloadWriteFails(open(name, mode)),
                        raising=False)
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(path, micro_checkpoint())
    assert open(path, "rb").read() == before
    assert os.listdir(tmp_path) == ["c.swq"]


# ------------------------------------------------------------ training loop


def test_train_lr_zero_leaves_params_at_init():
    recs = records(8)
    cfg = micro_train_cfg(base_lr=0.0, epochs=1, warmup_epochs=0)
    ckpt = train(cfg, recs, recs[:4])
    want = init_params(cfg.swin_config(), np.random.default_rng([cfg.seed, 0]))
    for name, p in want.items():
        assert np.array_equal(ckpt.params[name].data, p.data)
    assert ckpt.epoch == 1 and len(ckpt.history) == 1


def test_train_accumulation_equivalence():
    recs = records(8)
    with using_dtype("float64"):
        split = train(micro_train_cfg(epochs=1, warmup_epochs=0, batch_size=2,
                                      grad_accum_steps=2), recs, recs[:4])
        fused = train(micro_train_cfg(epochs=1, warmup_epochs=0, batch_size=4,
                                      grad_accum_steps=1), recs, recs[:4])
    for name in split.params:
        diff = np.abs(split.params[name].data - fused.params[name].data).max()
        assert diff < 1e-6, f"{name}: {diff}"
    assert split.optim.t == fused.optim.t == 2


def test_train_short_last_step_divides_by_its_own_batch_count(monkeypatch):
    """6 records at batch 2 with grad_accum_steps 4 make one optimizer step
    of 3 batches. The gradient adamw_step receives is then the mean over 3
    batches: the gradient of one batch of all 6 records at the init weights.
    Final weights would not show a wrong divisor, since Adam is nearly
    invariant to the gradient's scale."""
    recs = records(6)
    cfg = micro_train_cfg(epochs=1, warmup_epochs=0, batch_size=2, grad_accum_steps=4)
    scfg = cfg.swin_config()
    grads = []
    step = train_module.adamw_step

    def spy(param, grad, state, lr, wd):
        grads.append(grad.copy())
        step(param, grad, state, lr, wd)

    monkeypatch.setattr(train_module, "adamw_step", spy)
    with using_dtype("float64"):
        train(cfg, recs, recs[:2])
        params = param_tensors(scfg, init_weights(scfg, np.random.default_rng([cfg.seed, 0])))
        x, soft = prepare_batch([r.image for r in recs], [r.label for r in recs], cfg.aug,
                                "eval", scfg.img_size, num_classes=scfg.num_classes)
        backward(cross_entropy_soft(forward(x, scfg, params, training=True), Tensor(soft)))
    (got,) = grads
    want = np.concatenate([p.grad.ravel() for p in params.values()])
    assert got.dtype == want.dtype == np.float64
    assert np.abs(got - want).max() < 1e-9


def test_train_is_deterministic_and_resumable(tmp_path):
    recs = records(12)
    val = records(6, seed=100)
    straight_path = str(tmp_path / "straight.swq")
    resumed_path = str(tmp_path / "resumed.swq")
    leg1_path = str(tmp_path / "leg1.swq")

    train(micro_train_cfg(epochs=2, augment=True, drop_path_max=0.1,
                          checkpoint_out=straight_path), recs, val)
    train(micro_train_cfg(epochs=2, augment=True, drop_path_max=0.1,
                          stop_epoch=1, checkpoint_out=leg1_path), recs, val)
    leg1 = load_checkpoint(leg1_path)
    assert leg1.epoch == 1 and len(leg1.history) == 1
    train(micro_train_cfg(epochs=2, augment=True, drop_path_max=0.1,
                          checkpoint_in=leg1_path, checkpoint_out=resumed_path),
          recs, val)
    straight = open(straight_path, "rb").read()
    resumed = open(resumed_path, "rb").read()
    assert straight == resumed  # bit-identical continue-vs-straight run


def test_train_nan_params_abort(monkeypatch):
    # a checkpoint cannot carry NaN weights in (load_checkpoint refuses
    # them), so the NaN goes in at initialization
    init = train_module.init_weights

    def poisoned(cfg, rng):
        flat = init(cfg, rng)
        param_views(cfg, flat)["head.bias"][:] = np.nan
        return flat

    monkeypatch.setattr(train_module, "init_weights", poisoned)
    with pytest.raises(TrainAbort, match="epoch 1"):
        train(micro_train_cfg(epochs=1, warmup_epochs=0), records(4), records(4))


def test_train_from_scratch_trains_the_init_buffer(monkeypatch):
    buffers = []
    init = train_module.init_weights

    def captured(cfg, rng):
        buffers.append(init(cfg, rng))
        return buffers[-1]

    monkeypatch.setattr(train_module, "init_weights", captured)
    ckpt = train(micro_train_cfg(epochs=1, warmup_epochs=0), records(4), records(4))
    (flat,) = buffers
    assert list(ckpt.params) == [name for name, _ in train_module.param_layout(ckpt.config)]
    for name, p in ckpt.params.items():
        assert np.shares_memory(p.data, flat), name


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_train_resumed_trains_the_loaded_row(tmp_path, monkeypatch, dtype):
    """float32 trains the mapped weights row and moments in place; float64
    trains a copy. Either way the checkpoint file is left as it was."""
    path = str(tmp_path / "leg1.swq")
    with using_dtype(dtype):
        train(micro_train_cfg(stop_epoch=1, checkpoint_out=path), records(4), records(4))
    before = hashlib.sha256(open(path, "rb").read()).hexdigest()
    loaded = []
    load = train_module._load_checkpoint

    def captured(p):
        loaded.append(load(p))
        return loaded[-1]

    monkeypatch.setattr(train_module, "_load_checkpoint", captured)
    with using_dtype(dtype):
        ckpt = train(micro_train_cfg(checkpoint_in=path), records(4), records(4))
    ((start, row),) = loaded
    in_place = dtype == "float32"
    for name, p in ckpt.params.items():
        assert np.shares_memory(p.data, row) == in_place, name
    assert ckpt.optim.m is start.optim.m and ckpt.optim.v is start.optim.v
    assert ckpt.epoch == 2 and ckpt.optim.t == 2
    assert hashlib.sha256(open(path, "rb").read()).hexdigest() == before


@pytest.mark.parametrize("over", [dict(epochs=3, stop_epoch=1), dict(epochs=1)],
                         ids=["stop_epoch", "epochs"])
def test_train_refuses_to_end_before_the_checkpoint_epoch(tmp_path, over):
    path, out = str(tmp_path / "in.swq"), str(tmp_path / "out.swq")
    save_checkpoint(path, micro_checkpoint())  # micro preset, epoch 2
    cfg = micro_train_cfg(warmup_epochs=0, drop_path_max=None, checkpoint_in=path,
                          checkpoint_out=out, **over)
    with pytest.raises(ValueError, match=r"run ends at epoch 1, before the checkpoint's epoch 2"):
        train(cfg, records(4), records(4))
    assert not os.path.exists(out)


@pytest.mark.parametrize("rng_state, drawn", [
    ({"scheme": "keyed-streams", "seed": 6, "next_epoch": 2}, "seed 6 (scheme 'keyed-streams')"),
    ({"scheme": "global-stream", "seed": 5, "next_epoch": 2}, "seed 5 (scheme 'global-stream')"),
], ids=["seed", "scheme"])
def test_train_refuses_a_checkpoint_drawn_another_way(tmp_path, rng_state, drawn):
    path, out = str(tmp_path / "in.swq"), str(tmp_path / "out.swq")
    save_checkpoint(path, replace(micro_checkpoint(), rng_state=rng_state))
    cfg = micro_train_cfg(epochs=3, warmup_epochs=0, drop_path_max=None,
                          checkpoint_in=path, checkpoint_out=out)
    want = f"checkpoint was drawn with {drawn}, not this run's seed 5 (scheme 'keyed-streams')"
    with pytest.raises(ValueError, match=re.escape(want) + "$"):
        train(cfg, records(4), records(4))
    assert not os.path.exists(out)


def test_checkpoint_rng_state_must_be_an_object_or_null(tmp_path):
    path = str(tmp_path / "r.swq")
    save_checkpoint(path, micro_checkpoint())
    rewrite_header(path, lambda h: h.update(rng_state=[5]))
    with pytest.raises(ValueError, match=r"r\.swq: rng_state \[5\] is neither an object nor null"):
        load_checkpoint(path)
    with pytest.raises(ValueError, match="rng_state"):
        train(micro_train_cfg(epochs=3, warmup_epochs=0, drop_path_max=None,
                              checkpoint_in=path), records(4), records(4))


def test_train_resumes_a_checkpoint_without_rng_state(tmp_path):
    path = str(tmp_path / "in.swq")
    save_checkpoint(path, replace(micro_checkpoint(), rng_state=None))
    ckpt = train(micro_train_cfg(epochs=3, warmup_epochs=0, drop_path_max=None,
                                 checkpoint_in=path), records(4), records(4))
    assert ckpt.epoch == 3 and [r["epoch"] for r in ckpt.history] == [1, 2, 3]
    assert ckpt.rng_state == {"scheme": "keyed-streams", "seed": 5, "next_epoch": 3}


def _train_with_gradient_edit(monkeypatch, edit):
    """Train one micro epoch, applying edit(params) after every backward."""
    params = {}
    tensors, backward = train_module.param_tensors, train_module.backward

    def capture(*args):
        params.update(tensors(*args))
        return params

    def edited_backward(loss):
        backward(loss)
        edit(params)

    monkeypatch.setattr(train_module, "param_tensors", capture)
    monkeypatch.setattr(train_module, "backward", edited_backward)
    return train(micro_train_cfg(epochs=1, warmup_epochs=0), records(4), records(4))


def test_train_aborts_naming_first_non_finite_gradient(monkeypatch):
    names = list(param_views(preset("micro"), np.zeros(count_params(preset("micro")))))

    def poison(params):
        params[names[40]].grad.reshape(-1)[-1] = np.inf
        params[names[10]].grad.reshape(-1)[0] = np.nan

    want = rf"non-finite gradient in {names[10]} at epoch 1, step 0, lr 0\.0005$"
    with pytest.raises(TrainAbort, match=want):
        _train_with_gradient_edit(monkeypatch, poison)


def test_train_carries_on_when_only_the_gradient_norm_overflows(monkeypatch):
    premise = []

    def huge(params):
        params["head.weight"].grad[...] = 1e18  # 384 * 1e36 > float32 max
        grad = np.concatenate([p.grad.reshape(-1) for p in params.values()])
        with np.errstate(over="ignore"):
            premise.append((math.isfinite(grad @ grad), bool(np.isfinite(grad).all())))

    ckpt = _train_with_gradient_edit(monkeypatch, huge)
    assert premise == [(False, True)]  # the norm overflows; every entry is finite
    assert ckpt.epoch == 1 and ckpt.optim.t == 1
    assert all(np.isfinite(p.data).all() for p in ckpt.params.values())


def test_train_drops_each_step_graph_before_the_next_forward(monkeypatch):
    # Tensor has __slots__ and no weakref slot, so the weakrefs are to the
    # arrays: the logits' .data (alive while its graph is) and each batch
    # (a training batch also lives as long as its graph). With gc off, only
    # reference counts can free them.
    logits, batches, seen, evaluating = [], [], [], []
    forward, prepare, evaluate = (train_module.forward, train_module.prepare_batch,
                                  train_module.evaluate)

    def alive(refs):
        return sum(r() is not None for r in refs)

    def tracked_forward(*args, **kwargs):
        # only the batch this forward reads
        seen.append(("forward", alive(logits), alive(batches) - 1))
        out = forward(*args, **kwargs)
        logits.append(weakref.ref(out.data))
        return out

    def tracked_prepare(*args, **kwargs):
        if evaluating:
            seen.append(("eval prepare_batch", alive(logits), alive(batches)))
        x, soft = prepare(*args, **kwargs)
        batches.append(weakref.ref(x))
        return x, soft

    def tracked_evaluate(*args, **kwargs):
        seen.append(("evaluate", alive(logits), alive(batches)))
        evaluating.append(True)
        try:
            return evaluate(*args, **kwargs)
        finally:
            evaluating.clear()

    monkeypatch.setattr(train_module, "forward", tracked_forward)
    monkeypatch.setattr(train_module, "prepare_batch", tracked_prepare)
    monkeypatch.setattr(train_module, "evaluate", tracked_evaluate)
    gc.disable()
    try:
        train(micro_train_cfg(epochs=2, augment=True, eval_batch_size=2),
              records(8), records(6))
    finally:
        gc.enable()
    # per epoch: 2 training steps, then evaluate over 3 chunks of 2
    names = [name for name, *_ in seen]
    assert names.count("forward") == 2 * (2 + 3)
    assert names.count("eval prepare_batch") == 2 * 3
    assert names.count("evaluate") == 2
    assert seen == [(name, 0, 0) for name in names]


@pytest.mark.skipif(sys.implementation.name != "cpython" or sys.version_info < (3, 11),
                    reason="before CPython 3.11 a call's arguments stay on the caller's "
                           "stack until it returns, so the batch outlives the stem")
def test_batch_is_unreachable_once_the_stem_has_read_it(monkeypatch):
    # one training step (a train-mode batch), then evaluate over one chunk;
    # with gc off, only reference counts can free the batch. The training
    # forward frees it before its one embedding GEMM; the no-grad forward
    # embeds it a few images at a time and frees it after the last, before
    # the first of micro's five blocks
    seen, batches = [], []
    prepare = train_module.prepare_batch

    def tracked_prepare(images, labels, cfg, mode, *args, **kwargs):
        x, soft = prepare(images, labels, cfg, mode, *args, **kwargs)
        batches.append((mode, weakref.ref(x)))
        return x, soft

    def check(name):
        layer = getattr(swin_module, name)

        def checked(*args, **kwargs):
            mode, batch = batches[-1]
            seen.append((name, mode, batch() is None))
            return layer(*args, **kwargs)

        monkeypatch.setattr(swin_module, name, checked)

    monkeypatch.setattr(train_module, "prepare_batch", tracked_prepare)
    check("linear_embed")
    check("swin_block")
    gc.disable()
    try:
        train(micro_train_cfg(epochs=1, warmup_epochs=0, augment=True, eval_batch_size=4),
              records(4), records(4))
    finally:
        gc.enable()
    assert seen[0] == ("linear_embed", "train", True)
    assert [s for s in seen if s[0] == "swin_block"] == (
        [("swin_block", "train", True)] * 5 + [("swin_block", "eval", True)] * 5)


def test_train_rejects_empty_splits():
    with pytest.raises(ValueError):
        train(micro_train_cfg(), [], records(2))


def test_train_tracks_best_by_auc_then_accuracy(tmp_path):
    recs = records(8)
    path = str(tmp_path / "best.swq")
    ckpt = train(micro_train_cfg(epochs=2, checkpoint_out=path), recs, recs[:4])
    assert ckpt.best_epoch in (1, 2)
    row = next(r for r in ckpt.history if r["epoch"] == ckpt.best_epoch)
    key = (row["val_auc"] if row["val_auc"] is not None else -1.0, row["val_acc"])
    for r in ckpt.history:
        other = (r["val_auc"] if r["val_auc"] is not None else -1.0, r["val_acc"])
        assert key >= other
    assert ckpt.best_params.shape == (count_params(ckpt.config),)


# -------------------------------------------------------------- evaluation


def test_evaluate_zero_model_is_maximally_uncertain():
    cfg = preset("micro")
    params = init_params(cfg, np.random.default_rng(0))
    for p in params.values():
        p.data[:] = 0.0
    recs = records(6)
    report = evaluate(cfg, params, recs, batch_size=4)
    n_neg = sum(1 for r in recs if r.label == 0)
    assert report.accuracy == pytest.approx(100.0 * n_neg / len(recs))
    assert report.auc == 0.5  # all scores tie at 0.5
    assert report.mean_loss == pytest.approx(math.log(2), rel=1e-5)
    assert len(report.samples) == len(recs)
    for s in report.samples:
        assert s["score"] == pytest.approx(0.5, abs=1e-6)
        assert s["entropy"] == pytest.approx(math.log(2), rel=1e-5)
    c = report.confusion
    assert c["tp"] + c["fp"] + c["tn"] + c["fn"] == len(recs)
    assert c["tp"] == 0 and c["fp"] == 0  # 0.5 scores fall on the negative side


def test_evaluate_single_class_auc_is_none():
    cfg = preset("micro")
    params = init_params(cfg, np.random.default_rng(0))
    recs = [r for r in records(6) if r.label == 0]
    report = evaluate(cfg, params, recs, batch_size=8)
    assert report.auc is None
    assert 0.0 <= report.accuracy <= 100.0


def test_evaluate_rejects_empty():
    cfg = preset("micro")
    with pytest.raises(ValueError):
        evaluate(cfg, init_params(cfg, np.random.default_rng(0)), [])


def test_evaluate_report_is_deterministic():
    cfg = preset("micro")
    params = init_params(cfg, np.random.default_rng(2))
    recs = records(5)
    a = evaluate(cfg, params, recs, batch_size=2)
    b = evaluate(cfg, params, recs, batch_size=5)
    assert a.accuracy == b.accuracy and a.auc == b.auc
    assert a.mean_loss == pytest.approx(b.mean_loss, rel=1e-6)
    assert isinstance(a, EvalReport)


# --------------------------------------------------------------- benchmark


def test_throughput_report_fields():
    cfg = preset("micro")
    report = throughput(cfg, batch_size=2, n_warmup=1, n_timed=10)
    assert report.images_per_sec > 0 and report.median_s > 0
    assert report.iqr_s >= 0
    assert report.n_timed == 10 and report.batch_size == 2
    with pytest.raises(ValueError):
        throughput(cfg, batch_size=2, n_warmup=0, n_timed=9)
