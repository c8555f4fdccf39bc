"""The three closed-loop workloads of the swinqa benchmark.

One client sends the next request only after the previous one returns.
Each workload builds its own inputs from the seed through ``swinqa synth``
and hands the program only a manifest or the loaded records; nothing in
``swinqa`` sees a workload name.

- ``train-desk``: ``swinqa.cli.main(["train", ...])`` on the acceptance
  criterion-8 recipe; one request is one optimizer step of 4 images. Two
  legs run the same recipe at one seed, so their checkpoint and history
  bytes can be compared.
- ``screen-micro-b64``: ``swinqa.train.evaluate`` on 64 images at a time.
- ``screen-tiny-b1``: ``swinqa.train.evaluate`` on one 224x224 image at a time.

This module imports numpy: import it only after BLAS is pinned.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import swinqa.augment
import swinqa.cli
import swinqa.data
import swinqa.swin
import swinqa.tensor
import swinqa.train
import tracing

# acceptance criterion 8: micro from scratch at 64x64, light augmentation
DESK_TRAIN_SEED = 7
DESK_TRAIN = {"mode": "scratch", "model": "micro", "epochs": 20, "warmup_epochs": 2,
              "batch_size": 4, "grad_accum_steps": 1, "drop_path_max": 0.0}
DESK_AUG = {"randaug_n": 1, "randaug_magnitude": 3.0, "mixup_alpha": 0.05,
            "cutmix_alpha": 0.05, "erase_prob": 0.0, "jitter_strength": 0.05}
DESK_SYNTH = {"task": "foreign_object", "size": 64, "n_train": 400, "n_val": 100, "n_test": 100}
DESK_STEPS_PER_EPOCH = math.ceil(DESK_SYNTH["n_train"] / DESK_TRAIN["batch_size"])
# One train-desk epoch (100 steps plus validation) took 4.3-4.5 s on a
# 2-core x86-64 box with one BLAS thread. --seconds sets the epoch count
# through this constant, so the work per run, the op counts and the
# compared checkpoint bytes do not depend on how fast the machine is.
NOMINAL_EPOCH_S = 4.5

# float32 logits against the float64 engine: observed <= 3.2e-6 relative
F64_LOGIT_RTOL = 1e-4
F64_SCORE_ATOL = 1e-4
# traced self times against the request's wall time
SELF_SUM_RTOL, SELF_SUM_ATOL = 0.01, 5e-4
SCREEN_SETUP_REPS = 3
WARMUP_REQUESTS = 2
# p90 is the highest percentile with ten samples beyond it only from 100 on
MIN_TIMED_REQUESTS = 100
CHECKED_BATCHES = (0, 1)


@dataclass(frozen=True)
class Screen:
    model: str
    task: str
    img_size: int
    batch: int
    n_test: int


SCREENS = {
    "screen-micro-b64": Screen("micro", "foreign_object", 64, 64, 256),
    "screen-tiny-b1": Screen("tiny", "lvot", 224, 1, 16),
}

@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    work: Path      # scratch directory of this run, removed afterwards
    traces: Path    # where span files are written


@dataclass
class Outcome:
    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)  # (name, passed, detail)
    notes: dict = field(default_factory=dict)

    def check(self, name: str, passed: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(passed), detail))
        return bool(passed)


def run(ctx: Context) -> Outcome:
    if ctx.workload == "train-desk":
        return run_train_desk(ctx)
    return run_screen(ctx, SCREENS[ctx.workload])


# ------------------------------------------------------------------ helpers


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _latency_metrics(latencies: list) -> dict:
    ms = [1e3 * t for t in latencies]
    return {"latency_ms_p50": statistics.median(ms),
            "latency_ms_p90": statistics.quantiles(ms, n=10)[8]}


def _cli(args: list, log: Path) -> int:
    """swinqa.cli.main in-process, its printed lines kept in a log file."""
    with open(log, "a") as f, contextlib.redirect_stdout(f):
        return swinqa.cli.main(args)


def _write_json(path: Path, obj: dict) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True))
    return str(path)


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else "missing"


def _trace_result(ctx: Context, out: Outcome, rec: tracing.Recorder,
                  patcher: tracing.Patcher, timed: set, n_requests: int,
                  wall: dict, overhead: float) -> None:
    """Check the trace (wrappers gone, no span left open, each request's
    self times add up to its wall time), then turn it into metrics and
    write the spans out."""
    selfs = rec.self_times()
    bad = patcher.not_restored()
    out.check("trace_wrappers_restored", not bad,
              f"{len(patcher.history)} attributes" + (f", changed: {bad}" if bad else ""))
    out.check("trace_spans_closed", rec.open_spans == 0, f"{rec.open_spans} open")
    sums = tracing.segment_sums(selfs, wall)
    gaps = [abs(sums[s] - w) for s, w in wall.items()]
    out.check("trace_self_times_sum_to_wall",
              all(g <= SELF_SUM_RTOL * w + SELF_SUM_ATOL for g, w in zip(gaps, wall.values())),
              f"{len(wall)} requests, largest gap {max(gaps) * 1e3:.3f} ms "
              f"(allowed {SELF_SUM_RTOL:.0%} of the request + {SELF_SUM_ATOL * 1e3:g} ms)")
    out.metrics = tracing.layer_metrics(rec, selfs, timed, n_requests)
    out.metrics["trace.overhead_frac"] = overhead
    ctx.traces.mkdir(parents=True, exist_ok=True)
    path = ctx.traces / f"{ctx.workload}-seed{ctx.seed}.csv"
    rec.write_csv(str(path))
    out.notes.update(spans=len(rec.names), span_file=str(path))


# --------------------------------------------------------------- train-desk


@dataclass
class Leg:
    returns: list = field(default_factory=list)  # optimizer-step return times
    setup_s: float = math.nan
    timed_s: float = math.nan
    images: int = 0
    latencies: list = field(default_factory=list)
    error: str = ""

    @property
    def has_timing(self) -> bool:
        return not self.error and len(self.returns) >= 2


def _desk_leg(ctx: Context, index: int, epochs: int, patcher: tracing.Patcher,
              rec: tracing.Recorder | None) -> Leg:
    """Synthesize the dataset, then train `epochs` epochs of the 20-epoch
    recipe. The first step is the warm-up request; the timed region runs
    from its return to the return of cli.main, so it holds every later
    step, each epoch's validation pass and the final checkpoint save."""
    leg = Leg()
    d = ctx.work / f"leg{index}"
    log = ctx.work / f"leg{index}.log"
    synth_cfg = _write_json(ctx.work / f"leg{index}-synth.json",
                            {"seed": ctx.seed, "out": str(d), "synth": DESK_SYNTH})
    train_cfg = _write_json(ctx.work / f"leg{index}-train.json", {
        "seed": DESK_TRAIN_SEED, "out": str(d),
        "train": {**DESK_TRAIN, "stop_epoch": epochs,
                  "manifest": str(d / "dataset" / "manifest.csv")},
        "aug": DESK_AUG})

    def on_step():
        leg.returns.append(time.perf_counter())
        rec.mark()

    if rec is None:
        tracing.step_clock(patcher, swinqa.train, leg.returns)
    else:
        rec.mark()
        tracing.install_layers(patcher, rec, swinqa, on_step=on_step)
    t0 = time.perf_counter()
    try:
        rc = _cli(["synth", "--config", synth_cfg], log)
        if rc == 0:
            rc = _cli(["train", "--config", train_cfg], log)
        if rc != 0:
            leg.error = f"swinqa exited {rc}"
    except Exception as e:  # the program failed; the leg counts as failed
        leg.error = f"{type(e).__name__}: {e}"
    t_end = time.perf_counter()
    if rec is not None:
        rec.mark()
    patcher.remove()

    if not leg.has_timing:
        return leg
    n = len(leg.returns)
    leg.setup_s = leg.returns[0] - t0
    leg.timed_s = t_end - leg.returns[0]
    leg.images = (n - 1) * DESK_TRAIN["batch_size"]
    # the interval that opens an epoch also holds the previous epoch's
    # validation pass, so it is not a step latency
    leg.latencies = [leg.returns[k] - leg.returns[k - 1] for k in range(1, n)
                     if k % DESK_STEPS_PER_EPOCH]
    return leg


def _desk_outputs(ctx: Context, index: int) -> dict:
    d = ctx.work / f"leg{index}"
    return {"dataset": _tree_digest(d / "dataset"),
            "checkpoint": _file_digest(d / "checkpoint.swq"),
            "history": _file_digest(d / "history.csv")}


def _history_losses(ctx: Context, index: int) -> list:
    path = ctx.work / f"leg{index}" / "history.csv"
    rows = path.read_text().splitlines()[1:] if path.is_file() else []
    return [float(r.split(",")[1]) for r in rows]


def run_train_desk(ctx: Context) -> Outcome:
    """Two legs of the same recipe at one seed. With tracing, the first leg
    runs untraced and the second traced, so the overhead is their ratio."""
    out = Outcome()
    epochs = max(1, round(ctx.seconds / (2 * NOMINAL_EPOCH_S)))
    planned = epochs * DESK_STEPS_PER_EPOCH
    rec = tracing.Recorder() if ctx.trace else None
    patcher = tracing.Patcher()
    legs = (_desk_leg(ctx, 1, epochs, patcher, None),
            _desk_leg(ctx, 2, epochs, patcher, rec))
    peak = _peak_rss_mb()

    out.attempted = 2 * planned
    for i, leg in enumerate(legs, 1):
        losses = _history_losses(ctx, i)
        ok = out.check(f"leg{i}_completed", not leg.error and len(leg.returns) == planned,
                       leg.error or f"{len(leg.returns)}/{planned} steps")
        ok &= out.check(f"leg{i}_losses_finite",
                        len(losses) == epochs and all(math.isfinite(x) for x in losses),
                        f"epoch mean losses {losses}")
        if not ok:
            out.failed += planned
    a, b = _desk_outputs(ctx, 1), _desk_outputs(ctx, 2)
    same = [out.check(f"{key}_bytes_identical_across_legs", a[key] == b[key],
                      f"sha256 {a[key][:16]} vs {b[key][:16]}")
            for key in ("dataset", "checkpoint", "history")]
    if not all(same) and out.failed == 0:
        out.failed += planned
    # a leg the program failed has no timing; the metrics come from the
    # other leg, and those no leg gives are left out (printed as nan)
    timed = [leg for leg in legs if leg.has_timing]
    ips = [leg.images / leg.timed_s for leg in legs]
    out.notes.update(epochs_per_leg=epochs, img_per_s_by_leg=ips,
                     latency_samples=sum(len(leg.latencies) for leg in legs))
    if ctx.trace:
        if legs[1].has_timing:
            n = len(legs[1].returns)
            first = rec.segment - n  # segment opened by the first step's return
            wall = {first + k: legs[1].returns[k + 1] - legs[1].returns[k]
                    for k in range(n - 1)}
            _trace_result(ctx, out, rec, patcher, set(range(first, rec.segment)), n - 1,
                          wall, 1.0 - ips[1] / ips[0])
        return out
    if timed:
        out.metrics = {
            "img_per_s": sum(leg.images for leg in timed) / sum(leg.timed_s for leg in timed),
            **_latency_metrics([t for leg in timed for t in leg.latencies]),
            "setup_s": statistics.median(leg.setup_s for leg in timed),
        }
    out.metrics["peak_rss_mb"] = peak
    return out


# ------------------------------------------------------------------ screens


def _screen_setup(ctx: Context, spec: Screen, rep: int):
    """Synthesize the test split, load it, and round-trip freshly
    initialized weights through a checkpoint file."""
    d = ctx.work / f"setup{rep}"
    cfg_path = _write_json(ctx.work / f"setup{rep}.json", {
        "seed": ctx.seed, "out": str(d),
        "synth": {"task": spec.task, "size": spec.img_size,
                  "n_train": 2, "n_val": 2, "n_test": spec.n_test}})
    rc = _cli(["synth", "--config", cfg_path], ctx.work / f"setup{rep}.log")
    if rc != 0:
        raise RuntimeError(f"swinqa synth exited {rc}")
    records = swinqa.data.load_manifest(str(d / "dataset" / "manifest.csv"))
    test = [r for r in records if r.split == "test"]
    scfg = swinqa.swin.preset(spec.model, img_size=spec.img_size)
    params = swinqa.swin.init_params(scfg, np.random.default_rng(ctx.seed))
    path = str(d / "weights.swq")
    swinqa.train.save_checkpoint(path, swinqa.train.Checkpoint(config=scfg, params=params))
    params = swinqa.train.load_checkpoint(path).params
    return scfg, params, test


def _screen_loop(scfg, params, batches, seconds, rec=None, min_requests=1):
    """Closed loop of evaluate calls over the batches in turn, for `seconds`
    and at least `min_requests`. Returns the wall time, the latencies and,
    per request, (batch index, scores or the error text)."""
    aug = swinqa.augment.AugConfig()
    latencies, outputs = [], []
    t_start = time.perf_counter()
    deadline = t_start + seconds
    while True:
        j = len(outputs) % len(batches)
        if rec is not None:
            rec.mark()
        t0 = time.perf_counter()
        try:
            report = swinqa.train.evaluate(scfg, params, batches[j], aug,
                                           batch_size=len(batches[j]))
            result = [s["score"] for s in report.samples]
        except Exception as e:  # a failed request; the loop goes on
            result = f"{type(e).__name__}: {e}"
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        outputs.append((j, result))
        if t1 >= deadline and len(outputs) >= min_requests:
            break
    if rec is not None:
        rec.mark()
    return t1 - t_start, latencies, outputs


def _float64_check(scfg, params, batch, scores) -> tuple:
    """Max relative logit error and max score error of the float32 engine
    against the float64 engine on the same weights and inputs."""
    T, tensor = swinqa.train, swinqa.tensor
    x, _ = swinqa.augment.prepare_batch([r.image for r in batch], [r.label for r in batch],
                                        swinqa.augment.AugConfig(), "eval", scfg.img_size)
    with tensor.no_grad():
        l32 = T.forward(x, scfg, params).data
    with tensor.using_dtype(np.float64), tensor.no_grad():
        p64 = {n: tensor.Tensor(p.data) for n, p in params.items()}
        l64 = T.forward(x, scfg, p64).data
    rel = float(np.abs(l32 - l64).max() / max(np.abs(l64).max(), 1e-3))
    e = np.exp(l64 - l64.max(axis=-1, keepdims=True))
    score_err = float(np.abs(np.asarray(scores) - e[:, 1] / e.sum(axis=-1)).max())
    return rel, score_err


def run_screen(ctx: Context, spec: Screen) -> Outcome:
    """Set up (three times untraced, once traced), warm up, then screen in
    a closed loop. With tracing, the first half of the time runs untraced
    and the second half traced, so the overhead is their ratio."""
    out = Outcome()
    rec = tracing.Recorder() if ctx.trace else None
    patcher = tracing.Patcher()
    setup_times, kept = [], None
    for rep in range(1 if ctx.trace else SCREEN_SETUP_REPS):
        if rec is not None:
            rec.mark()
            tracing.install_layers(patcher, rec, swinqa)
        t0 = time.perf_counter()
        try:
            scfg, params, test = _screen_setup(ctx, spec, rep)
        except Exception as e:  # the program failed; there is nothing to screen
            patcher.remove()
            out.check(f"setup{rep}_succeeded", False, f"{type(e).__name__}: {e}")
            out.attempted = out.failed = 1
            return out
        setup_times.append(time.perf_counter() - t0)
        patcher.remove()
        if kept is None:
            kept = (params, test)
        else:
            out.check(f"setup{rep}_bit_identical_to_setup0",
                      all(np.array_equal(params[n].data, kept[0][n].data) for n in params)
                      and all(np.array_equal(a.image, b.image) for a, b in zip(test, kept[1])))
        del params, test
    params, test = kept
    batches = [test[i:i + spec.batch] for i in range(0, len(test), spec.batch)]

    # the warm-up scores of each checked batch are its reference
    t0 = time.perf_counter()
    _, _, warm = _screen_loop(scfg, params, batches, 0.0, min_requests=WARMUP_REQUESTS)
    warmup_s = time.perf_counter() - t0
    reference = dict(warm)

    if ctx.trace:
        wall_u, _, outs_u = _screen_loop(scfg, params, batches, ctx.seconds / 2)
        tracing.install_layers(patcher, rec, swinqa)
        first = rec.segment + 1  # the loop marks each request's segment
        wall_t, lat_t, outs_t = _screen_loop(scfg, params, batches, ctx.seconds / 2, rec)
        patcher.remove()
        outputs = outs_u + outs_t
    else:
        wall, latencies, outputs = _screen_loop(scfg, params, batches, ctx.seconds,
                                                min_requests=MIN_TIMED_REQUESTS)
        peak = _peak_rss_mb()

    bad_batches = set()
    for j in CHECKED_BATCHES:
        ref = reference[j]
        if isinstance(ref, str):
            rel = score_err = math.inf
        else:
            rel, score_err = _float64_check(scfg, params, batches[j], ref)
        if not out.check(f"float64_agreement_batch{j}",
                         rel <= F64_LOGIT_RTOL and score_err <= F64_SCORE_ATOL,
                         f"logit rel err {rel:.2e} <= {F64_LOGIT_RTOL:g}, "
                         f"score err {score_err:.2e} <= {F64_SCORE_ATOL:g}"):
            bad_batches.add(j)
    errors = nonfinite = mismatched = 0
    for j, result in outputs:
        if isinstance(result, str):
            errors += 1
        elif not all(math.isfinite(s) for s in result):
            nonfinite += 1
        elif result != reference.setdefault(j, result):
            mismatched += 1
        elif j not in bad_batches:
            continue
        out.failed += 1
    out.attempted = len(outputs)
    out.check("requests_raised_nothing", errors == 0, f"{errors} raised")
    out.check("scores_finite", nonfinite == 0, f"{nonfinite} with non-finite scores")
    out.check("rescoring_bit_identical", mismatched == 0,
              f"{len(outputs) - mismatched}/{len(outputs)} requests equal the first "
              f"scores of their batch")

    images = [len(batches[j]) for j, _ in outputs]
    if ctx.trace:
        n_u = len(outs_u)
        wall = {first + k: lat for k, lat in enumerate(lat_t)}
        overhead = 1.0 - (sum(images[n_u:]) / wall_t) / (sum(images[:n_u]) / wall_u)
        _trace_result(ctx, out, rec, patcher, set(wall), len(outs_t), wall, overhead)
        out.notes["latency_samples"] = len(outs_t)
        return out
    out.metrics = {"img_per_s": sum(images) / wall,
                   **_latency_metrics(latencies),
                   "setup_s": statistics.median(setup_times) + warmup_s,
                   "peak_rss_mb": peak}
    out.notes["latency_samples"] = len(latencies)
    return out
