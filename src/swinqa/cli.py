"""Command-line harness binding the package into reproducible runs.

One JSON document (schema-versioned, unknown keys rejected) configures
every command; flags override file values which override defaults, and the
fully-resolved config is echoed into the output directory so any run can
be replayed exactly.

Commands: synth | train | eval | inspect | bench.
Exit codes: 0 success, 1 validation error or unreadable input, 2 runtime abort.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import os
import sys

from .augment import AugConfig
from .data import SynthSpec, load_manifest, make_benchmark, split_counts
from .swin import count_flops, count_params, param_views, preset
from .tensor import Tensor
from .train import (
    TrainAbort,
    TrainConfig,
    evaluate,
    load_checkpoint,
    throughput,
    train,
    write_history_csv,
)

SCHEMA_VERSION = 1

DEFAULTS = {
    "schema_version": SCHEMA_VERSION,
    "seed": 0,
    "workers": 1,
    "out": "runs/out",
    "synth": {
        "task": "foreign_object",
        "size": 64,
        "object_count": [1, 4],
        "object_radius": [4, 9],
        "background_blobs": 6,
        "noise_sigma": 0.04,
        "blur": False,
        "n_train": 400,
        "n_val": 100,
        "n_test": 100,
    },
    "train": {
        "mode": "scratch",
        "model": "micro",
        "img_size": None,
        "window": None,
        "num_classes": 2,
        "base_lr": None,
        "weight_decay": 1e-8,
        "epochs": None,
        "warmup_epochs": None,
        "batch_size": None,
        "grad_accum_steps": None,
        "stop_epoch": None,
        "drop_path_max": None,
        "augment": True,
        "eval_batch_size": 64,
        "checkpoint_in": None,
        "manifest": None,
    },
    "aug": {
        "randaug_n": 2,
        "randaug_magnitude": 9.0,
        "mixup_alpha": 0.8,
        "cutmix_alpha": 1.0,
        "mix_switch_prob": 0.5,
        "erase_prob": 0.25,
        "erase_scale": [0.02, 0.33],
        "erase_aspect": [0.3, 3.3],
        "jitter_strength": 0.4,
        "normalize_mean": [0.485, 0.456, 0.406],
        "normalize_std": [0.229, 0.224, 0.225],
    },
    "eval": {
        "checkpoint": None,
        "manifest": None,
        "split": "test",
        "batch_size": 64,
        "use_best": True,
    },
    "inspect": {
        "checkpoint": None,
    },
    "bench": {
        "model": "micro",
        "img_size": None,
        "window": None,
        "batch_size": 1,
        "n_warmup": 3,
        "n_timed": 10,
    },
}

# the rows cmd_inspect reports: (label, preset, img_size, window)
INSPECT_ROWS = (
    ("tiny-224/7", "tiny", None, None),
    ("small-224/7", "small", None, None),
    ("base-224/7", "base", None, None),
    ("base-1024/8", "base", 1024, 8),
)


class ConfigError(ValueError):
    """Run-config schema violation (unknown key, bad version, bad value)."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; remap them onto the
    # validation-error path so exit codes keep their documented meaning
    def error(self, message):
        raise ConfigError(message)


# ----------------------------------------------------------- configuration


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = dict(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{where!r} must be an object")
            out[key] = _merge(base[key], value, where)
        else:
            out[key] = value
    return out


def load_run_config(path: str | None, overrides: dict | None = None) -> dict:
    cfg = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            with open(path) as f:
                file_cfg = json.load(f)
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"config {path} is not valid JSON: {e}")
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        version = file_cfg.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {version!r} "
                              f"(this build reads {SCHEMA_VERSION})")
        cfg = _merge(cfg, file_cfg)
    if overrides:
        cfg = _merge(cfg, overrides)
    return cfg


def write_resolved_config(cfg: dict, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "resolved_config.json")
    with open(path, "w") as f:
        json.dump(cfg, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def _aug_config(cfg: dict) -> AugConfig:
    fields = {k: tuple(v) if isinstance(v, list) else v
              for k, v in cfg["aug"].items()}
    return AugConfig(**fields)


def _synth_spec(cfg: dict) -> SynthSpec:
    s = cfg["synth"]
    return SynthSpec(task=s["task"], size=s["size"],
                     object_count=tuple(s["object_count"]),
                     object_radius=tuple(s["object_radius"]),
                     background_blobs=s["background_blobs"],
                     noise_sigma=s["noise_sigma"], blur=s["blur"],
                     seed=cfg["seed"])


def _train_config(cfg: dict) -> TrainConfig:
    t = {k: v for k, v in cfg["train"].items() if k != "manifest"}
    return TrainConfig(seed=cfg["seed"], aug=_aug_config(cfg),
                       checkpoint_out=os.path.join(cfg["out"], "checkpoint.swq"),
                       **t)


def _split_records(manifest_path: str):
    records = load_manifest(manifest_path)
    by_split = {"train": [], "val": [], "test": []}
    for r in records:
        by_split[r.split].append(r)
    return by_split


# ---------------------------------------------------------------- commands


def cmd_synth(cfg: dict) -> int:
    spec = _synth_spec(cfg)
    s = cfg["synth"]
    manifest = make_benchmark(spec, s["n_train"], s["n_val"], s["n_test"],
                              os.path.join(cfg["out"], "dataset"),
                              workers=cfg["workers"])
    counts = split_counts(load_manifest(manifest))
    for split in ("train", "val", "test"):
        print(f"{split}: {counts[split]} images")
    print(f"manifest: {manifest}")
    return 0


def cmd_train(cfg: dict) -> int:
    manifest = cfg["train"]["manifest"]
    if not manifest:
        raise ConfigError("train.manifest is required (run synth first)")
    by_split = _split_records(manifest)
    tcfg = _train_config(cfg)
    ckpt = train(tcfg, by_split["train"], by_split["val"], log=print)
    history_path = os.path.join(cfg["out"], "history.csv")
    write_history_csv(history_path, ckpt.history)
    print(f"checkpoint: {tcfg.checkpoint_out}")
    print(f"history: {history_path}")
    if ckpt.best_epoch is not None:
        row = next(r for r in ckpt.history if r["epoch"] == ckpt.best_epoch)
        auc_s = "n/a" if row["val_auc"] is None else f"{row['val_auc']:.4f}"
        print(f"best epoch {ckpt.best_epoch}: val_acc {row['val_acc']:.2f}% "
              f"val_auc {auc_s}")
    return 0


def cmd_eval(cfg: dict) -> int:
    e = cfg["eval"]
    if not e["checkpoint"] or not e["manifest"]:
        raise ConfigError("eval.checkpoint and eval.manifest are required")
    ckpt = load_checkpoint(e["checkpoint"])
    records = _split_records(e["manifest"])[e["split"]]
    params = ckpt.params
    used = "final"
    if e["use_best"] and ckpt.best_params is not None:
        params = {n: Tensor(v) for n, v in param_views(ckpt.config, ckpt.best_params).items()}
        used = f"best (epoch {ckpt.best_epoch})"
    report = evaluate(ckpt.config, params, records, _aug_config(cfg),
                      batch_size=e["batch_size"])
    report_path = os.path.join(cfg["out"], "eval_report.json")
    with open(report_path, "w") as f:
        json.dump({"accuracy": report.accuracy, "auc": report.auc,
                   "mean_loss": report.mean_loss, "confusion": report.confusion,
                   "n_samples": len(report.samples), "split": e["split"],
                   "weights": used}, f, indent=2, sort_keys=True)
        f.write("\n")
    csv_path = os.path.join(cfg["out"], "per_sample.csv")
    with open(csv_path, "w", newline="") as f:
        f.write("index,score,label,entropy\n")
        for i, s in enumerate(report.samples):
            f.write(f"{i},{s['score']!r},{s['label']},{s['entropy']!r}\n")
    auc_s = "n/a" if report.auc is None else f"{report.auc:.4f}"
    print(f"{e['split']} ({used}): acc {report.accuracy:.2f}%  auc {auc_s}  "
          f"loss {report.mean_loss:.4f}")
    print(f"report: {report_path}")
    print(f"per-sample: {csv_path}")
    return 0


def cmd_inspect(cfg: dict) -> int:
    print(f"{'model':<14} {'params':>14} {'gflops':>8}")
    rows = []
    for label, name, img_size, window in INSPECT_ROWS:
        scfg = preset(name, img_size=img_size, window=window)
        n_params = count_params(scfg)
        gflops = count_flops(scfg) / 1e9
        rows.append({"model": label, "params": n_params, "gflops": gflops})
        print(f"{label:<14} {n_params:>14,d} {gflops:>8.1f}")
    if cfg["inspect"]["checkpoint"]:
        ckpt = load_checkpoint(cfg["inspect"]["checkpoint"])
        total = sum(p.data.size for p in ckpt.params.values())
        print(f"checkpoint: {cfg['inspect']['checkpoint']}  params {total:,d}  "
              f"epochs {ckpt.epoch}  best_epoch {ckpt.best_epoch}")
    with open(os.path.join(cfg["out"], "inspect.json"), "w") as f:
        json.dump(rows, f, indent=2)
        f.write("\n")
    return 0


def cmd_bench(cfg: dict) -> int:
    b = cfg["bench"]
    scfg = preset(b["model"], img_size=b["img_size"], window=b["window"])
    report = throughput(scfg, batch_size=b["batch_size"],
                        n_warmup=b["n_warmup"], n_timed=b["n_timed"])
    print(f"{b['model']} batch {report.batch_size}: "
          f"{report.images_per_sec:.2f} img/s "
          f"(median {report.median_s * 1e3:.1f} ms, "
          f"IQR {report.iqr_s * 1e3:.1f} ms, n={report.n_timed})")
    with open(os.path.join(cfg["out"], "bench.json"), "w") as f:
        json.dump(dataclasses.asdict(report), f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


# -------------------------------------------------------------- entry point


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="swinqa",
                     description="shifted-window transformer for binary "
                                 "image-quality classification")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "synth": (cmd_synth, "generate a synthetic benchmark dataset"),
        "train": (cmd_train, "train a model from a dataset manifest"),
        "eval": (cmd_eval, "evaluate a checkpoint on a manifest split"),
        "inspect": (cmd_inspect, "print parameter/FLOP table for the presets"),
        "bench": (cmd_bench, "time eval-mode forward passes"),
    }
    for name, (func, help_text) in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--config", metavar="PATH", help="JSON run config")
        p.add_argument("--seed", type=int, help="override the run seed")
        p.add_argument("--workers", type=int, help="worker count for synthesis")
        p.add_argument("--out", metavar="DIR", help="output directory")
        if name == "train":
            p.add_argument("--manifest", metavar="PATH",
                           help="dataset manifest CSV")
            p.add_argument("--epochs", type=int, help="override epoch count")
        if name == "eval":
            p.add_argument("--checkpoint", metavar="PATH")
            p.add_argument("--manifest", metavar="PATH")
            p.add_argument("--split", choices=("train", "val", "test"))
        if name == "inspect":
            p.add_argument("--checkpoint", metavar="PATH")
    return parser


def _flag_overrides(args: argparse.Namespace) -> dict:
    overrides = {}
    for key in ("seed", "workers", "out"):
        if getattr(args, key, None) is not None:
            overrides[key] = getattr(args, key)
    section = {
        cmd_train: ("train", ("manifest", "epochs")),
        cmd_eval: ("eval", ("checkpoint", "manifest", "split")),
        cmd_inspect: ("inspect", ("checkpoint",)),
    }.get(args.func)
    if section is not None:
        name, keys = section
        sub = {k: getattr(args, k) for k in keys
               if getattr(args, k, None) is not None}
        if sub:
            overrides[name] = sub
    return overrides


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        cfg = load_run_config(args.config, _flag_overrides(args))
        write_resolved_config(cfg, cfg["out"])
        return args.func(cfg)
    except TrainAbort as e:
        print(f"aborted: {e}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
