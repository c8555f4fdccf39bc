"""Command-line harness binding the package into reproducible runs.

One JSON document (schema-versioned; unknown keys and values of the wrong
type rejected) configures every command; flags override file values which
override defaults, and the fully-resolved config is echoed into the output
directory so any run can be replayed exactly.

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
import typing

from .augment import AugConfig
from .data import SPLITS, SynthSpec, load_manifest, make_benchmark
from .swin import count_flops, count_params, param_tensors, preset
from .train import (
    TrainAbort,
    TrainConfig,
    evaluate,
    fits,
    load_checkpoint,
    replace_atomically,
    throughput,
    train,
    write_history_csv,
)

SCHEMA_VERSION = 1

# the dataclass behind each config section: its fields, less the ones the
# CLI fills in itself, are the section's keys, defaults and value types
_SECTIONS = {"synth": SynthSpec, "train": TrainConfig, "aug": AugConfig}
_CLI_SET = ("seed", "aug", "checkpoint_out")


def _field_defaults(cls) -> dict:
    # field defaults, not a default instance: TrainConfig resolves its None fields
    return {f.name: list(f.default) if isinstance(f.default, tuple) else f.default
            for f in dataclasses.fields(cls) if f.name not in _CLI_SET}


DEFAULTS = {
    "schema_version": SCHEMA_VERSION,
    "seed": 0,
    "out": "runs/out",
    "synth": {**_field_defaults(SynthSpec), "n_train": 400, "n_val": 100, "n_test": 100},
    "train": {**_field_defaults(TrainConfig), "manifest": None},
    "aug": _field_defaults(AugConfig),
    "eval": {"checkpoint": None, "manifest": None, "split": "test", "batch_size": 64,
             "use_best": True},
    "inspect": {"checkpoint": None},
    "bench": {"model": "micro", "img_size": None, "window": None, "batch_size": 1,
              "n_warmup": 3, "n_timed": 10},
}

# the value type of each dataclass-backed key, by dotted path
_ANNOTATIONS = {f"{name}.{key}": kind for name, cls in _SECTIONS.items()
                for key, kind in typing.get_type_hints(cls).items() if key not in _CLI_SET}

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


def _kind(where: str, default):
    """The type a config value must have: its annotation for a synth, train
    or aug key, else its default's. A None default marks an optional path,
    or, for bench.img_size and bench.window, takes the train key's type."""
    if where in _ANNOTATIONS:
        return _ANNOTATIONS[where]
    if default is None:
        return _ANNOTATIONS.get("train." + where.rpartition(".")[2], str | None)
    return type(default)


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
            continue
        kind = _kind(where, base[key])
        if not fits(value, kind):
            want = kind.__name__ if isinstance(kind, type) else kind
            raise ConfigError(f"{where!r} must be {want}, got {value!r}")
        out[key] = value
    return out


def load_run_config(path: str | None, overrides: dict | None = None) -> dict:
    cfg = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            with open(path) as f:
                file_cfg = json.load(f)
        except (OSError, RecursionError) as e:  # json.load of a deeply nested file
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


def _write_json(path: str, obj) -> str:
    """Write `obj` to `path` as indented JSON with sorted keys; returns `path`."""
    with replace_atomically(path) as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def write_resolved_config(cfg: dict, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return _write_json(os.path.join(out_dir, "resolved_config.json"), cfg)


def _build(cfg: dict, name: str, **cli_set):
    """The dataclass of config section `name`: its field keys, lists as tuples."""
    return _SECTIONS[name](**cli_set, **{k: tuple(v) if isinstance(v, list) else v
                                         for k, v in cfg[name].items()
                                         if f"{name}.{k}" in _ANNOTATIONS})


def _synth_spec(cfg: dict) -> SynthSpec:
    return _build(cfg, "synth", seed=cfg["seed"])


def _train_config(cfg: dict) -> TrainConfig:
    return _build(cfg, "train", seed=cfg["seed"], aug=_build(cfg, "aug"),
                  checkpoint_out=os.path.join(cfg["out"], "checkpoint.swq"))


# ---------------------------------------------------------------- commands


def _auc(auc: float | None) -> str:
    return "n/a" if auc is None else f"{auc:.4f}"


def cmd_synth(cfg: dict) -> int:
    spec = _synth_spec(cfg)
    s = cfg["synth"]
    sizes = (s["n_train"], s["n_val"], s["n_test"])
    manifest = make_benchmark(spec, *sizes, os.path.join(cfg["out"], "dataset"))
    for split, n in zip(SPLITS, sizes):
        print(f"{split}: {n} images")
    print(f"manifest: {manifest}")
    return 0


def cmd_train(cfg: dict) -> int:
    manifest = cfg["train"]["manifest"]
    if not manifest:
        raise ConfigError("train.manifest is required (run synth first)")
    tcfg = _train_config(cfg)  # a refused config exits before any pixel is read
    records = load_manifest(manifest, ("train", "val"))
    history_path = os.path.join(cfg["out"], "history.csv")

    def on_epoch(ckpt):  # train() has just saved the checkpoint
        write_history_csv(history_path, ckpt.history)
        for row in ckpt.history[-1:]:  # a resumed header may hold no rows
            print(f"epoch {row['epoch']}/{tcfg.epochs}  loss {row['train_loss']:.4f}  val_acc "
                  f"{row['val_acc']:.2f}%  val_auc {_auc(row['val_auc'])}  lr {row['lr']:.3g}")
    ckpt = train(tcfg, [r for r in records if r.split == "train"],
                 [r for r in records if r.split == "val"], on_epoch=on_epoch)
    print(f"checkpoint: {tcfg.checkpoint_out}")
    print(f"history: {history_path}")
    if ckpt.best_epoch is not None:
        row = next(r for r in ckpt.history if r["epoch"] == ckpt.best_epoch)
        print(f"best epoch {ckpt.best_epoch}: val_acc {row['val_acc']:.2f}% "
              f"val_auc {_auc(row['val_auc'])}")
    return 0


def cmd_eval(cfg: dict) -> int:
    e = cfg["eval"]
    if not e["checkpoint"] or not e["manifest"]:
        raise ConfigError("eval.checkpoint and eval.manifest are required")
    if e["split"] not in SPLITS:
        raise ConfigError(f"eval.split must be one of {SPLITS}, got {e['split']!r}")
    ckpt = load_checkpoint(e["checkpoint"])
    records = load_manifest(e["manifest"], (e["split"],))
    params = ckpt.params
    used = "final"
    if e["use_best"] and ckpt.best_params is not None:
        params = param_tensors(ckpt.config, ckpt.best_params)
        used = f"best (epoch {ckpt.best_epoch})"
    report = evaluate(ckpt.config, params, records, _build(cfg, "aug"),
                      batch_size=e["batch_size"])
    report_path = _write_json(os.path.join(cfg["out"], "eval_report.json"), {
        "accuracy": report.accuracy, "auc": report.auc, "mean_loss": report.mean_loss,
        "confusion": report.confusion, "n_samples": len(report.samples),
        "split": e["split"], "weights": used})
    csv_path = os.path.join(cfg["out"], "per_sample.csv")
    with replace_atomically(csv_path, "w", newline="") as f:
        f.write("index,score,label,entropy\n")
        for i, s in enumerate(report.samples):
            f.write(f"{i},{s['score']!r},{s['label']},{s['entropy']!r}\n")
    print(f"{e['split']} ({used}): acc {report.accuracy:.2f}%  auc {_auc(report.auc)}  "
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
        print(f"checkpoint: {cfg['inspect']['checkpoint']}  "
              f"params {count_params(ckpt.config):,d}  "
              f"epochs {ckpt.epoch}  best_epoch {ckpt.best_epoch}")
    _write_json(os.path.join(cfg["out"], "inspect.json"), rows)
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
    _write_json(os.path.join(cfg["out"], "bench.json"), dataclasses.asdict(report))
    return 0


# -------------------------------------------------------------- entry point


# each command's function, help line and own flags, as (config key, argparse
# keywords); a command's flags override its config section of the same name
COMMANDS = {
    "synth": (cmd_synth, "generate a synthetic benchmark dataset in OUT/dataset; "
                         "an earlier one there is replaced as a whole, once the "
                         "new one is complete", ()),
    "train": (cmd_train, "train a model from a dataset manifest",
              (("manifest", dict(metavar="PATH", help="dataset manifest CSV")),
               ("epochs", dict(type=int, help="override epoch count")))),
    "eval": (cmd_eval, "evaluate a checkpoint on a manifest split",
             (("checkpoint", dict(metavar="PATH")), ("manifest", dict(metavar="PATH")),
              ("split", dict(choices=SPLITS)))),
    "inspect": (cmd_inspect, "print parameter/FLOP table for the presets",
                (("checkpoint", dict(metavar="PATH")),)),
    "bench": (cmd_bench, "time eval-mode forward passes", ()),
}
# the flags every command takes; they override top-level keys
COMMON_FLAGS = (("seed", dict(type=int, help="override the run seed")),
                ("out", dict(metavar="DIR", help="output directory")))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="swinqa",
                     description="shifted-window transformer for binary "
                                 "image-quality classification")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--config", metavar="PATH", help="JSON run config")
        for key, kwargs in COMMON_FLAGS + flags:
            p.add_argument(f"--{key}", **kwargs)
    return parser


def _flag_overrides(args: argparse.Namespace) -> dict:
    def given(flags):
        return {k: getattr(args, k) for k, _ in flags if getattr(args, k) is not None}

    overrides = given(COMMON_FLAGS)
    if own := given(COMMANDS[args.command][2]):
        overrides[args.command] = own
    return overrides


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        cfg = load_run_config(args.config, _flag_overrides(args))
        write_resolved_config(cfg, cfg["out"])
        return COMMANDS[args.command][0](cfg)
    except TrainAbort as e:
        print(f"aborted: {e}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
