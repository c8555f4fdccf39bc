"""Optimization and evaluation: AdamW with decoupled weight decay, linear
warmup/decay scheduling, gradient accumulation, exact tie-aware AUC, the
training loop, and a binary checkpoint format with byte-exact round trips.

Every random stream in the loop is keyed by (seed, purpose, epoch, batch),
so runs are bit-reproducible and a resumed run continues exactly where a
straight-through run would be.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import mmap
import os
import struct
import time
import typing
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction

import numpy as np

from .augment import AugConfig, prepare_batch
from .data import staging_path
from .swin import (SwinConfig, count_params, forward, init_params, init_weights, param_layout,
                   param_tensors, param_views, preset)
from .tensor import (
    ShapeError,
    Tensor,
    backward,
    cross_entropy_soft,
    default_dtype,
    no_grad,
    softmax,
)

MODE_DEFAULTS = {
    "finetune": {"base_lr": 6e-5, "epochs": 60, "warmup_epochs": 5},
    "scratch": {"base_lr": 5e-4, "epochs": 300, "warmup_epochs": 5},
}

# (batch_size, grad_accum_steps) presets keyed by attention window:
# window 8 pairs with the high-resolution task, window 7 with the 224 one
BATCH_PRESETS = {8: (16, 8), 7: (64, 2)}

# history.csv's columns, and the type of each in a checkpoint's history rows
HISTORY_COLUMNS = {"epoch": int, "train_loss": float, "val_acc": float, "val_auc": float | None,
                   "lr": float}

MAGIC = b"SWQK"
FORMAT_VERSION = 1
# save_checkpoint pads the header with spaces so the payload starts at a
# multiple of this many bytes of the file
PAYLOAD_ALIGN = 64
# float32 values per read of the loader's non-finite scan
_SCAN_CHUNK = 1 << 18


class TrainAbort(RuntimeError):
    """Raised when the loop hits a non-finite loss or gradient; the message
    carries the epoch, optimizer step, and learning rate at the failure
    point, and for a gradient the first parameter holding a non-finite
    entry."""


@dataclass
class TrainConfig:
    mode: str = "scratch"
    model: str = "micro"
    img_size: int | None = None
    window: int | None = None
    num_classes: int = 2
    base_lr: float | None = None        # None -> mode default
    weight_decay: float = 1e-8
    epochs: int | None = None           # None -> mode default
    warmup_epochs: int | None = None    # None -> mode default
    batch_size: int | None = None       # None -> window preset
    grad_accum_steps: int | None = None
    stop_epoch: int | None = None       # pause point; lr schedule still spans epochs
    drop_path_max: float | None = None  # None -> model preset value
    augment: bool = True
    seed: int = 0
    aug: AugConfig = field(default_factory=AugConfig)
    eval_batch_size: int = 64
    checkpoint_in: str | None = None
    checkpoint_out: str | None = None

    def __post_init__(self):
        if self.mode not in MODE_DEFAULTS:
            raise ValueError(f"mode must be one of {sorted(MODE_DEFAULTS)}, "
                             f"got {self.mode!r}")
        scfg = self.swin_config()  # validates model/img_size/window combination
        batch, accum = BATCH_PRESETS.get(scfg.window, (16, 2))
        defaults = {**MODE_DEFAULTS[self.mode], "batch_size": batch, "grad_accum_steps": accum}
        for key, value in defaults.items():
            if getattr(self, key) is None:
                setattr(self, key, value)
        if self.base_lr < 0 or self.weight_decay < 0:
            raise ValueError("base_lr and weight_decay must be >= 0")
        if self.epochs < 1 or not 0 <= self.warmup_epochs < self.epochs:
            raise ValueError(
                f"need epochs >= 1 and 0 <= warmup < epochs, got "
                f"{self.warmup_epochs}/{self.epochs}")
        if self.batch_size < 1 or self.grad_accum_steps < 1:
            raise ValueError("batch_size and grad_accum_steps must be >= 1")
        if self.stop_epoch is not None and not 1 <= self.stop_epoch <= self.epochs:
            raise ValueError("stop_epoch must be in [1, epochs]")
        if self.eval_batch_size < 1:
            raise ValueError("eval_batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def swin_config(self) -> SwinConfig:
        cfg = preset(self.model, img_size=self.img_size, window=self.window,
                     num_classes=self.num_classes)
        if self.drop_path_max is not None:
            cfg = replace(cfg, drop_path_max=self.drop_path_max)
        return cfg


# ---------------------------------------------------------------- optimizer


# adamw_step runs its passes over chunks of _ADAMW_CHUNK elements: the six
# chunk-sized arrays it touches (weights, gradient, m, v and two scratch
# rows; 1.5 MB in float32) stay in L2 from the first pass to the last
_ADAMW_CHUNK = 1 << 16


@dataclass
class OptimState:
    m: np.ndarray  # first moments, flat in param_layout order
    v: np.ndarray  # second moments, flat in param_layout order
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    # two chunk-sized scratch rows that every adamw_step reuses; never saved
    work: np.ndarray | None = field(default=None, repr=False, compare=False)


def init_optim_state(param: np.ndarray) -> OptimState:
    return OptimState(m=np.zeros_like(param), v=np.zeros_like(param))


def adamw_step(param: np.ndarray, grad: np.ndarray, state: OptimState, lr: float,
               wd: float) -> None:
    """One Adam update with decoupled weight decay, in place on flat buffers:
    p <- p - lr * (m_hat / (sqrt(v_hat) + eps) + wd * p), as passes into
    reused scratch in that expression's operation order. The passes run
    chunk by chunk; each element sees the same operations either way."""
    if lr < 0:
        raise ValueError("lr must be >= 0")
    g = np.asarray(grad)
    if g.shape != param.shape or param.ndim != 1:
        raise ShapeError(f"gradient has shape {g.shape}, parameter has {param.shape}; "
                         f"both must be flat")
    n = len(param)
    chunk = max(1, min(n, _ADAMW_CHUNK))
    if state.work is None or state.work.shape != (2, chunk):
        state.work = np.empty((2, chunk), dtype=param.dtype)
    state.t += 1
    beta1, beta2, eps = state.beta1, state.beta2, state.eps
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        p, gc, m, v = param[lo:hi], g[lo:hi], state.m[lo:hi], state.v[lo:hi]
        a, b = state.work[:, :hi - lo]
        m *= beta1
        m += np.multiply(gc, 1.0 - beta1, out=a)
        v *= beta2
        np.multiply(gc, 1.0 - beta2, out=a)
        v += np.multiply(a, gc, out=a)
        np.divide(m, bc1, out=a)
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        a /= np.add(b, eps, out=b)
        a += np.multiply(p, wd, out=b)
        p -= np.multiply(a, lr, out=a)


def lr_at(step: int, total_steps: int, warmup_steps: int, base_lr: float) -> float:
    """Piecewise-linear schedule: 0 -> base_lr over warmup_steps, then
    base_lr -> 0 over the remainder; equals base_lr exactly at
    step == warmup_steps."""
    if not 0 <= step < total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps})")
    if not 0 <= warmup_steps < total_steps:
        raise ValueError(f"warmup_steps {warmup_steps} outside [0, {total_steps})")
    if step < warmup_steps:
        return base_lr * step / warmup_steps
    return base_lr * (total_steps - step) / (total_steps - warmup_steps)


# ------------------------------------------------------------------ metrics


def auc_roc(scores, labels):
    """Probability that a random positive outscores a random negative, ties
    at 1/2 — computed in exact rational arithmetic over tie groups. Returns
    None when only one class is present; a NaN or infinite score raises
    ValueError."""
    scores = list(scores)
    labels = [int(y) for y in labels]
    if len(scores) != len(labels):
        raise ValueError(f"{len(scores)} scores vs {len(labels)} labels")
    if any(y not in (0, 1) for y in labels):
        raise ValueError("labels must be 0 or 1")
    for i, s in enumerate(scores):
        # a NaN would also never close its tie group below (NaN != NaN)
        if not math.isfinite(s):
            raise ValueError(f"score {i} is {s!r}; AUC needs finite scores")
    n_pos = sum(labels)
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    order = sorted(range(len(scores)), key=lambda i: scores[i])
    wins = Fraction(0)
    neg_below = 0
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and scores[order[j]] == scores[order[i]]:
            j += 1
        group_pos = sum(labels[k] for k in order[i:j])
        group_neg = (j - i) - group_pos
        wins += group_pos * neg_below + Fraction(group_pos * group_neg, 2)
        neg_below += group_neg
        i = j
    return float(wins / (n_pos * n_neg))


def predictive_entropy(probs) -> float:
    """-sum(p ln p) in nats with 0 ln 0 = 0; input must sum to 1 within 1e-6."""
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"expected a 1-d distribution, got shape {p.shape}")
    if p.min() < -1e-12 or abs(p.sum() - 1.0) > 1e-6:
        raise ValueError(f"not a distribution: sum {p.sum()}, min {p.min()}")
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


@dataclass
class EvalReport:
    accuracy: float      # percent, 0.5 threshold on the positive-class score
    auc: float | None
    mean_loss: float
    samples: list        # per-sample dicts: score, label, entropy
    confusion: dict      # tp / fp / tn / fn counts


def evaluate(cfg: SwinConfig, params: dict, records, aug_cfg: AugConfig | None = None,
             batch_size: int = 64) -> EvalReport:
    """Eval-mode forward over records: positive score = softmax(logits)[1],
    accuracy at a 0.5 threshold, exact AUC, per-sample entropy."""
    records = list(records)
    if not records:
        raise ValueError("cannot evaluate an empty dataset")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    aug_cfg = aug_cfg if aug_cfg is not None else AugConfig()
    scores, labels, entropies = [], [], []
    loss_sum = 0.0
    for start in range(0, len(records), batch_size):
        chunk = records[start:start + batch_size]
        images = [r.image for r in chunk]
        ys = [r.label for r in chunk]
        # x.pop() leaves forward the batch's only reference: the stem frees it
        *x, soft = prepare_batch(images, ys, aug_cfg, "eval", cfg.img_size)
        with no_grad():
            logits = forward(x.pop(), cfg, params)
            loss = cross_entropy_soft(logits, Tensor(soft))
            probs = softmax(logits).data
        del soft, logits  # before the next chunk's batch is built
        loss_sum += float(loss.data) * len(chunk)
        for k in range(len(chunk)):
            scores.append(float(probs[k, 1]))
            labels.append(int(ys[k]))
            entropies.append(predictive_entropy(probs[k]))
    preds = [1 if s > 0.5 else 0 for s in scores]
    tp = sum(1 for p, y in zip(preds, labels) if p == 1 and y == 1)
    fp = sum(1 for p, y in zip(preds, labels) if p == 1 and y == 0)
    tn = sum(1 for p, y in zip(preds, labels) if p == 0 and y == 0)
    fn = sum(1 for p, y in zip(preds, labels) if p == 0 and y == 1)
    samples = [{"score": s, "label": y, "entropy": e}
               for s, y, e in zip(scores, labels, entropies)]
    return EvalReport(accuracy=100.0 * (tp + tn) / len(records),
                      auc=auc_roc(scores, labels),
                      mean_loss=loss_sum / len(records),
                      samples=samples,
                      confusion={"tp": tp, "fp": fp, "tn": tn, "fn": fn})


# -------------------------------------------------------------- checkpoints


@contextlib.contextmanager
def replace_atomically(path: str, mode: str = "w", **kwargs):
    """Open a file staged beside `path` (data.staging_path) for writing, and
    rename it over `path` once the block ends: a failed write leaves the
    previous file whole and no staged file. Every file swinqa writes goes
    through here, so no file is ever rewritten in place while a
    load_checkpoint mapping of it is live."""
    tmp = staging_path(path)
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


@dataclass
class Checkpoint:
    config: SwinConfig
    params: dict                    # name -> Tensor
    optim: OptimState | None = None
    epoch: int = 0                  # epochs completed
    rng_state: dict | None = None
    history: list = field(default_factory=list)
    best_params: np.ndarray | None = None  # flat float32 snapshot, param_layout order
    best_epoch: int | None = None


def _directory(cfg: SwinConfig, prefixes) -> dict:
    """Tensor directory of a payload of equal param_layout-ordered groups,
    one per name prefix. Offsets within a group are read off param_views of
    one flat float32 group, so the layout becomes offsets in one place
    only; that group is never written, so its pages never become
    resident."""
    group = np.empty(count_params(cfg), dtype="<f4")
    start = group.ctypes.data
    return {prefix + name: {"shape": list(view.shape),
                            "offset": g * group.nbytes + view.ctypes.data - start}
            for g, prefix in enumerate(prefixes)
            for name, view in param_views(cfg, group).items()}


def save_checkpoint(path: str, ckpt: Checkpoint) -> None:
    """Layout: b"SWQK", format version (u32 LE), header length (u32 LE),
    UTF-8 JSON header, then the payload: the weights, optimizer m and v, and
    best-snapshot groups, each one block of little-endian float32 in
    param_layout order, at the offsets in the header's tensor directory.
    The header ends in spaces up to a multiple of PAYLOAD_ALIGN bytes.
    Each weight is written from its own tensor, with no staging copy of
    the group. The file is written through replace_atomically."""
    cfg = ckpt.config
    if (ckpt.best_params is None) != (ckpt.best_epoch is None):
        raise ValueError("best_params and best_epoch must be set together")
    groups = {}  # directory-name prefix -> flat array, after the weights
    if ckpt.optim is not None:
        groups.update({"optim.m.": ckpt.optim.m, "optim.v.": ckpt.optim.v})
    if ckpt.best_params is not None:
        groups["best."] = ckpt.best_params
    layout = param_layout(cfg)
    for name, shape in layout:
        if name not in ckpt.params:
            raise ValueError(f"checkpoint is missing parameter {name}")
        if ckpt.params[name].shape != shape:
            raise ValueError(f"{name}: expected shape {shape}, "
                             f"got {ckpt.params[name].shape}")
    group_shape = (count_params(cfg),)
    for prefix, flat in groups.items():
        if np.shape(flat) != group_shape:
            raise ValueError(f"{prefix}* group has shape {np.shape(flat)}, "
                             f"expected {group_shape}")
    header = {"format_version": FORMAT_VERSION,
              "config": asdict(cfg),
              "epoch": ckpt.epoch,
              "best_epoch": ckpt.best_epoch,
              "rng_state": ckpt.rng_state,
              "history": ckpt.history,
              "optim": None if ckpt.optim is None else
                  {k: getattr(ckpt.optim, k) for k in _OPTIM},
              "tensors": _directory(cfg, ["", *groups])}
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    blob += b" " * (-(len(MAGIC) + 8 + len(blob)) % PAYLOAD_ALIGN)  # JSON allows it
    with replace_atomically(path, "wb") as f:
        f.write(MAGIC + struct.pack("<II", FORMAT_VERSION, len(blob)))
        f.write(blob)
        for name, _ in layout:
            f.write(np.ascontiguousarray(ckpt.params[name].data, dtype="<f4"))
        for flat in groups.values():
            f.write(np.ascontiguousarray(flat, dtype="<f4"))


def load_checkpoint(path: str) -> Checkpoint:
    """Read a save_checkpoint file; one whose header _check_header refuses
    (a key missing, unknown or of a wrong JSON type, say), a truncated one,
    one with bytes after its payload or one holding a NaN or infinite value
    raises ValueError naming `path`. The payload arrays are a private
    copy-on-write mapping of the file: a page is read in when first touched,
    and the arrays are writable, but no write reaches the file. So the file
    must not be truncated or rewritten in place while they are in use;
    swinqa's own writers replace a file by renaming a new one over it."""
    return _load_checkpoint(path)[0]


def _load_checkpoint(path: str) -> tuple[Checkpoint, np.ndarray]:
    """load_checkpoint's checkpoint, and the flat weights row its params view."""
    with open(path, "rb") as f:
        try:
            return _read_checkpoint(f)
        except (ValueError, RecursionError) as e:  # json.loads of a deeply nested header
            raise ValueError(f"{path}: {e}") from e


def _read_checkpoint(f) -> tuple[Checkpoint, np.ndarray]:
    fixed = f.read(12)
    if fixed[:4] != MAGIC:
        raise ValueError(f"bad magic {fixed[:4]!r}")
    if len(fixed) < 12:
        raise ValueError(f"truncated header: {len(fixed)} of 12 fixed bytes")
    version, size = struct.unpack("<II", fixed[4:])
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version}")
    blob = f.read(size)
    if len(blob) < size:
        raise ValueError(f"truncated header: {len(blob)} of {size} bytes")
    header = json.loads(blob.decode())
    cfg, prefixes = _check_header(header)
    shape = (len(prefixes), count_params(cfg))
    start, nbytes = 12 + size, 4 * shape[0] * shape[1]
    have = os.fstat(f.fileno()).st_size - start
    if have < nbytes:
        raise ValueError(f"truncated payload: expected {nbytes} bytes")
    if have > nbytes:
        raise ValueError(f"trailing bytes after the {nbytes}-byte payload")
    payload = np.frombuffer(mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_COPY),
                            dtype="<f4", count=nbytes // 4, offset=start).reshape(shape)
    if _holds_non_finite(f, start, payload.size):  # read the mapping only now
        for prefix, row in zip(prefixes, payload):
            for name, view in param_views(cfg, row).items():
                bad = view[~np.isfinite(view)]
                if bad.size:
                    raise ValueError(f"{prefix.rstrip('.') or 'weights'} group: tensor "
                                     f"{name} holds a non-finite value ({bad[0]})")
    if not payload.flags.aligned:  # an unpadded header, from before PAYLOAD_ALIGN
        payload = payload.copy()
    rows = iter(payload)
    weights = next(rows)
    optim = None if header["optim"] is None else OptimState(
        m=next(rows), v=next(rows), **header["optim"])
    ckpt = Checkpoint(config=cfg, params=param_tensors(cfg, weights), optim=optim,
                      epoch=header["epoch"], rng_state=header["rng_state"],
                      history=header["history"], best_params=next(rows, None),
                      best_epoch=header["best_epoch"])
    return ckpt, weights


def fits(value, kind) -> bool:
    """Whether a JSON value is of type `kind`: X | None takes either, a bool
    is not an int, a float must be finite, tuple[X, ...] is a list of X, and
    tuple[X, Y] a list of an X and a Y."""
    args = typing.get_args(kind)
    if typing.get_origin(kind) is tuple:
        if not isinstance(value, list):
            return False
        kinds = args[:1] * len(value) if args[1:] == (...,) else args
        return len(value) == len(kinds) and all(map(fits, value, kinds))
    if args:  # X | None
        return any(fits(value, k) for k in args)
    if isinstance(value, bool) or kind is bool:  # to Python a bool is an int
        return isinstance(value, bool) and kind is bool
    if kind is float:  # JSON's NaN and Infinity parse as floats
        return isinstance(value, (int, float)) and math.isfinite(value)
    return isinstance(value, kind)


_HEADER = {"format_version": int, "config": dict, "epoch": int, "best_epoch": int | None,
           "rng_state": dict | None, "history": list, "optim": dict | None, "tensors": dict}
_OPTIM = {k: typing.get_type_hints(OptimState)[k] for k in ("t", "beta1", "beta2", "eps")}


def _check_fields(where: str, obj: dict, kinds: dict) -> None:
    odd = [k for k in kinds if k not in obj] + sorted(obj.keys() - kinds.keys())
    if odd:
        raise ValueError(f"header {where}{odd[0]} is "
                         f"{'missing' if odd[0] in kinds else 'unknown'}")
    for key, kind in kinds.items():
        if not fits(obj[key], kind):
            name = kind.__name__ if isinstance(kind, type) else kind
            raise ValueError(f"header {where}{key} must be {name}, got {obj[key]!r}")


def _check_header(header) -> tuple[SwinConfig, list]:
    """The one place that decides what a checkpoint header holds: the keys
    and types of _HEADER, of SwinConfig's fields in config, of _OPTIM in
    optim and of HISTORY_COLUMNS in each history row, and the rules between
    them. Returns the config and the name prefixes of the payload's groups."""
    if not isinstance(header, dict):
        raise ValueError("header is not an object")
    history = header.get("history")
    if not isinstance(history, list) or not all(
            isinstance(r, dict) and type(r.get("epoch")) is int for r in history):
        raise ValueError("history is not a list of objects, each with an integer epoch")
    if not isinstance(header.get("rng_state"), (dict, type(None))):
        raise ValueError(f"rng_state {header['rng_state']!r} is neither an object nor null")
    _check_fields("", header, _HEADER)
    best = header["best_epoch"]
    for key, ok in (("format_version", header["format_version"] == FORMAT_VERSION),
                    ("epoch", header["epoch"] >= 0), ("best_epoch", best is None or best >= 1)):
        if not ok:
            raise ValueError(f"header {key} {header[key]} is out of range")
    if best is not None and not any(
            r["epoch"] == best and {"val_acc", "val_auc"} <= r.keys() for r in history):
        raise ValueError(f"best_epoch {best} names no history row with val_acc and val_auc")
    for i, row in enumerate(history):
        _check_fields(f"history[{i}].", row, HISTORY_COLUMNS)
        if not (history[i - 1]["epoch"] if i else 0) < row["epoch"] <= header["epoch"]:
            raise ValueError(f"header history[{i}].epoch {row['epoch']} is out of order "
                             f"or after epoch {header['epoch']}")
    _check_fields("config.", header["config"], typing.get_type_hints(SwinConfig))
    cfg = SwinConfig(**header["config"])
    prefixes = [""]
    if header["optim"] is not None:
        _check_fields("optim.", header["optim"], _OPTIM)
        prefixes += ["optim.m.", "optim.v."]
    if best is not None:
        prefixes.append("best.")
    if header["tensors"] != _directory(cfg, prefixes):
        raise ValueError(f"tensor directory does not match the config and groups {prefixes}")
    return cfg, prefixes


def _holds_non_finite(f, start: int, count: int) -> bool:
    """Whether the `count` float32 values at byte `start` of `f` hold a NaN
    or an infinity: read through one reused buffer, so that no page of a
    mapping of the file becomes resident."""
    buf = np.empty(min(count, _SCAN_CHUNK), dtype="<f4")
    f.seek(start)
    with np.errstate(over="ignore"):
        for lo in range(0, count, len(buf)):
            chunk = buf[:min(len(buf), count - lo)]
            if f.readinto(chunk) < chunk.nbytes:
                raise ValueError(f"truncated payload: expected {4 * count} bytes")
            # the dot product is finite unless a value is not, or it overflows
            if not math.isfinite(chunk @ chunk) and not np.isfinite(chunk).all():
                return True
    return False


def write_history_csv(path: str, history) -> None:
    with replace_atomically(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(HISTORY_COLUMNS)
        for row in history:
            writer.writerow(["" if row[c] is None else row[c]
                             for c in HISTORY_COLUMNS])


# ------------------------------------------------------------ training loop


def _rng_for(seed: int, *key) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


# train()'s rng_state scheme: each stream keyed by (seed, purpose, epoch, batch)
RNG_SCHEME = "keyed-streams"


def _rank(row: dict) -> tuple:
    """Best-snapshot order of history rows: val AUC (None lowest), then val accuracy."""
    return (row["val_auc"] if row["val_auc"] is not None else -1.0, row["val_acc"])


def train(cfg: TrainConfig, train_records, val_records, on_epoch=None) -> Checkpoint:
    """Advance the loaded checkpoint, or an epoch-0 one over init_weights,
    through the recipe and return it; best.* holds the epoch of highest
    _rank. Each epoch, or a run with no epoch left, ends in one commit:
    rng_state set, saved to checkpoint_out if set, on_epoch(ckpt) called."""
    scfg = cfg.swin_config()
    train_records = list(train_records)
    val_records = list(val_records)
    if not train_records or not val_records:
        raise ValueError("train and val splits must be nonempty")

    end_epoch = cfg.epochs if cfg.stop_epoch is None else cfg.stop_epoch
    if cfg.checkpoint_in:
        ckpt, weights = _load_checkpoint(cfg.checkpoint_in)
        if ckpt.config != scfg:
            raise ValueError("checkpoint config does not match the train config")
        drawn = ckpt.rng_state or {"scheme": RNG_SCHEME, "seed": cfg.seed}
        if (drawn.get("scheme"), drawn.get("seed")) != (RNG_SCHEME, cfg.seed):
            raise ValueError(f"checkpoint was drawn with seed {drawn.get('seed')!r} "
                             f"(scheme {drawn.get('scheme')!r}), not this run's seed "
                             f"{cfg.seed} (scheme {RNG_SCHEME!r})")
        if end_epoch < ckpt.epoch:
            raise ValueError(f"run ends at epoch {end_epoch}, before the checkpoint's "
                             f"epoch {ckpt.epoch}")
        # float32 trains the loaded row, and the moments, in place: each page of
        # the private mapping is copied once, when first written
        weights = weights.astype(default_dtype(), copy=False)
    else:
        ckpt = Checkpoint(config=scfg, params={})
        weights = init_weights(scfg, _rng_for(cfg.seed, 0))  # trained in place
    # backward() accumulates into the flat gradient buffer through each .grad view
    ckpt.params = param_tensors(scfg, weights)
    grad = np.zeros_like(weights)
    for name, view in param_views(scfg, grad).items():
        ckpt.params[name].grad = view
    if ckpt.optim is None:
        ckpt.optim = init_optim_state(weights)
    best = None if ckpt.best_epoch is None else next(
        r for r in ckpt.history if r["epoch"] == ckpt.best_epoch)

    n = len(train_records)
    batches_per_epoch = math.ceil(n / cfg.batch_size)
    steps_per_epoch = math.ceil(batches_per_epoch / cfg.grad_accum_steps)
    total_steps = steps_per_epoch * cfg.epochs
    warmup_steps = steps_per_epoch * cfg.warmup_epochs

    def commit():
        ckpt.rng_state = {"scheme": RNG_SCHEME, "seed": cfg.seed, "next_epoch": ckpt.epoch}
        if cfg.checkpoint_out:
            save_checkpoint(cfg.checkpoint_out, ckpt)
        if on_epoch is not None:
            on_epoch(ckpt)

    if ckpt.epoch == end_epoch:  # a resume with no epoch left commits once
        commit()
    for epoch in range(ckpt.epoch, end_epoch):
        order = _rng_for(cfg.seed, 1, epoch).permutation(n)
        loss_sum = 0.0
        for s in range(steps_per_epoch):
            step = epoch * steps_per_epoch + s
            lr = lr_at(step, total_steps, warmup_steps, cfg.base_lr)
            batches = range(s * cfg.grad_accum_steps,
                            min((s + 1) * cfg.grad_accum_steps, batches_per_epoch))
            for b in batches:
                idx = order[b * cfg.batch_size:(b + 1) * cfg.batch_size]
                images = [train_records[i].image for i in idx]
                ys = [train_records[i].label for i in idx]
                *x, soft = prepare_batch(
                    images, ys, cfg.aug, "train" if cfg.augment else "eval", scfg.img_size,
                    rng=_rng_for(cfg.seed, 2, epoch, b) if cfg.augment else None,
                    num_classes=scfg.num_classes)
                # as in evaluate, the stem frees the batch
                logits = forward(x.pop(), scfg, ckpt.params, training=True,
                                 rng=_rng_for(cfg.seed, 3, epoch, b))
                loss = cross_entropy_soft(logits, Tensor(soft))
                loss_val = float(loss.data)
                if not math.isfinite(loss_val):
                    raise TrainAbort(f"non-finite loss {loss_val} at epoch {epoch + 1}, "
                                     f"step {step}, lr {lr:.6g}")
                backward(loss)  # adds into the flat grad buffer
                # one graph at a time: drop this step's as soon as its backward
                # has run. The package's heap policy (swinqa.set_heap_policy)
                # keeps glibc from trimming the freed pages, so the next step
                # reuses them without faulting them back in
                logits = loss = None
                loss_sum += loss_val * len(idx)
            if len(batches) > 1:  # dividing by 1 is exact: skip the pass
                grad /= len(batches)
            if not math.isfinite(grad @ grad):  # NaN/inf, or a finite overflow
                bad = next((name for name, view in param_views(scfg, grad).items()
                            if not np.isfinite(view).all()), None)
                if bad is not None:
                    raise TrainAbort(f"non-finite gradient in {bad} at epoch "
                                     f"{epoch + 1}, step {step}, lr {lr:.6g}")
            adamw_step(weights, grad, ckpt.optim, lr, cfg.weight_decay)
            grad[...] = 0.0
        report = evaluate(scfg, ckpt.params, val_records, cfg.aug,
                          batch_size=cfg.eval_batch_size)
        row = {"epoch": epoch + 1, "train_loss": loss_sum / n,
               "val_acc": report.accuracy, "val_auc": report.auc, "lr": lr}
        ckpt.history.append(row)
        if best is None or _rank(row) > _rank(best):
            best = row
            ckpt.best_epoch = epoch + 1
            ckpt.best_params = weights.astype("<f4")
        ckpt.epoch = epoch + 1
        commit()
    return ckpt


# ---------------------------------------------------------------- benchmark


@dataclass
class ThroughputReport:
    images_per_sec: float
    median_s: float
    iqr_s: float
    batch_size: int
    n_warmup: int
    n_timed: int


def throughput(cfg: SwinConfig, batch_size: int, n_warmup: int = 3,
               n_timed: int = 10) -> ThroughputReport:
    """Median wall-clock time of eval-mode forward passes, warmup excluded.
    Numbers are hardware-local; nothing compares them across machines."""
    if n_timed < 10:
        raise ValueError("n_timed must be >= 10")
    if batch_size < 1 or n_warmup < 0:
        raise ValueError("batch_size must be >= 1 and n_warmup >= 0")
    params = init_params(cfg, np.random.default_rng(0))
    x = np.random.default_rng(1).random((batch_size, cfg.img_size, cfg.img_size, cfg.in_channels))
    times = []
    with no_grad():
        for i in range(n_warmup + n_timed):
            t0 = time.perf_counter()
            forward(x, cfg, params)
            dt = time.perf_counter() - t0
            if i >= n_warmup:
                times.append(dt)
    med = float(np.median(times))
    q1, q3 = np.percentile(times, [25, 75])
    return ThroughputReport(images_per_sec=batch_size / med, median_s=med,
                            iqr_s=float(q3 - q1), batch_size=batch_size,
                            n_warmup=n_warmup, n_timed=n_timed)
