"""End-to-end command tests: artifacts on disk, exit-code contract,
config precedence, and determinism of emitted files."""

import ast
import hashlib
import json
import math
import os
import re
import signal
import struct
from pathlib import Path

import numpy as np
import pytest

from swinqa import cli
from swinqa import data as data_module
from swinqa import train as train_module
from swinqa.cli import DEFAULTS, SCHEMA_VERSION, load_run_config, main
from swinqa.data import SynthSpec
from swinqa.swin import count_params, init_params, param_views, preset
from swinqa.train import (Checkpoint, TrainConfig, init_optim_state, load_checkpoint,
                          save_checkpoint)
from test_acceptance import RECIPE
from test_runtime import run_python
from test_train import rewrite_header


def write_config(tmp_path, name="run.json", **sections):
    path = tmp_path / name
    path.write_text(json.dumps(sections))
    return str(path)


def synth_small(tmp_path, sub="data", **flags):
    cfg = write_config(tmp_path, name=f"synth_{sub}.json",
                       synth={"n_train": 8, "n_val": 4, "n_test": 4})
    out = str(tmp_path / sub)
    args = ["synth", "--config", cfg, "--out", out]
    for k, v in flags.items():
        args += [f"--{k}", str(v)]
    assert main(args) == 0
    return os.path.join(out, "dataset", "manifest.csv")


# ------------------------------------------------------------------ config


def test_readme_run_json_is_the_criterion_8_recipe(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```json\n(.*?)```", readme, re.S)
    path = tmp_path / "run.json"
    path.write_text(block)
    # the quickstart's synth command passes --seed 1234, the data seed of criterion 8
    synth = load_run_config(str(path), {"seed": 1234, "out": str(tmp_path)})
    assert cli._synth_spec(synth) == SynthSpec(task="foreign_object", size=64, seed=1234)
    assert [synth["synth"][k] for k in ("n_train", "n_val", "n_test")] == [400, 100, 100]
    run = load_run_config(str(path), {"out": str(tmp_path)})
    want = TrainConfig(checkpoint_out=str(tmp_path / "checkpoint.swq"), **RECIPE)
    assert cli._train_config(run) == want


def module_constants(path: Path, names: set) -> dict:
    """Top-level `NAME = <literal>` assignments of a source file, read with
    ast.literal_eval and not imported."""
    found = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in names:
                found[name] = ast.literal_eval(node.value)
    assert set(found) == names, sorted(names - set(found))
    return found


def test_perfbench_desk_recipe_is_the_criterion_8_recipe(tmp_path):
    """The train-desk workload times the recipe its `why` names: its
    constants give criterion 8's TrainConfig and data spec."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    desk = module_constants(bench / "workloads.py",
                            {"DESK_TRAIN_SEED", "DESK_TRAIN", "DESK_AUG", "DESK_SYNTH"})
    (seeds,) = module_constants(bench / "run.py", {"DEFAULT_SEEDS"}).values()
    # the workload's two config files, as perfbench/workloads.py writes them
    synth = write_config(tmp_path, name="synth.json", seed=seeds["train-desk"],
                         synth=desk["DESK_SYNTH"])
    synth = load_run_config(synth, {"out": str(tmp_path)})
    assert cli._synth_spec(synth) == SynthSpec(task="foreign_object", size=64, seed=1234)
    assert [synth["synth"][k] for k in ("n_train", "n_val", "n_test")] == [400, 100, 100]
    run = write_config(tmp_path, seed=desk["DESK_TRAIN_SEED"], train=desk["DESK_TRAIN"],
                       aug=desk["DESK_AUG"])
    run = load_run_config(run, {"out": str(tmp_path)})
    want = TrainConfig(checkpoint_out=str(tmp_path / "checkpoint.swq"), **RECIPE)
    assert cli._train_config(run) == want


def test_defaults_are_json_round_trippable():
    assert json.loads(json.dumps(DEFAULTS)) == DEFAULTS
    assert DEFAULTS["schema_version"] == SCHEMA_VERSION
    text = json.dumps(DEFAULTS, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "50a052a4b7c14439c88b8e0412e52097bc5f56b14066b0eef56cd1ae21f08c9c"), (
        "the default run config changed: the synth, train and aug sections are the field "
        "defaults of SynthSpec, TrainConfig and AugConfig, so changing a dataclass default "
        "now changes the CLI")


def test_int_config_value_passes_as_float(tmp_path):
    path = write_config(tmp_path, train={"base_lr": 1, "drop_path_max": 0},
                        aug={"erase_scale": [1, 1]})
    tcfg = cli._train_config(load_run_config(path, {"out": str(tmp_path)}))
    assert tcfg.base_lr == 1 and tcfg.aug.erase_scale == (1, 1)


def test_unknown_keys_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, bogus=1)
    assert main(["inspect", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "unknown config key" in capsys.readouterr().err
    cfg = write_config(tmp_path, name="r2.json", train={"learning_rate": 1e-3})
    assert main(["inspect", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "train.learning_rate" in capsys.readouterr().err


def test_schema_version_guard(tmp_path, capsys):
    cfg = write_config(tmp_path, schema_version=99)
    assert main(["inspect", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "schema_version" in capsys.readouterr().err


def test_flag_overrides_file_overrides_default(tmp_path):
    cfg_path = write_config(tmp_path, seed=3, synth={"size": 48})
    cfg = load_run_config(cfg_path, {"seed": 7})
    assert cfg["seed"] == 7                      # flag beats file
    assert cfg["synth"]["size"] == 48            # file beats default
    assert cfg["synth"]["noise_sigma"] == 0.04   # default fills the rest


def test_usage_errors_exit_1(tmp_path, capsys):
    assert main(["train", "--nonsense"]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["eval", "--out", str(tmp_path / "o")]) == 1  # missing paths
    err = capsys.readouterr().err
    assert "eval.checkpoint" in err


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A tiny dataset manifest and a `micro` checkpoint that fits it."""
    tmp = tmp_path_factory.mktemp("small_run")
    manifest = synth_small(tmp)
    scfg = preset("micro")
    ckpt = str(tmp / "w.swq")
    save_checkpoint(ckpt, Checkpoint(config=scfg,
                                     params=init_params(scfg, np.random.default_rng(0))))
    return manifest, ckpt


@pytest.mark.parametrize("command, sections, key", [
    ("synth", {"synth": {"object_count": 3}}, "synth.object_count"),
    ("synth", {"synth": {"size": "64"}}, "synth.size"),
    ("synth", {"synth": {"object_radius": [4, "9"]}}, "synth.object_radius"),
    ("synth", {"synth": {"noise_sigma": math.nan}}, "synth.noise_sigma"),
    ("train", {"train": {"epochs": "ten"}}, "train.epochs"),
    ("train", {"train": {"epochs": True}}, "train.epochs"),  # a bool is not an int
    ("train", {"aug": {"randaug_n": "2"}}, "aug.randaug_n"),
    ("train", {"train": {"batch_size": 2.5, "epochs": 1, "warmup_epochs": 0}},
     "train.batch_size"),
    ("bench", {"bench": {"n_timed": "10"}}, "bench.n_timed"),
    ("bench", {"bench": {"img_size": "64"}}, "bench.img_size"),
    ("inspect", {"inspect": {"checkpoint": ["w.swq"]}}, "inspect.checkpoint"),
    ("eval", {"eval": {"split": "foo"}}, "eval.split"),
    ("eval", {"eval": {"batch_size": 0}}, "batch_size"),
    ("synth", {"synth": {"object_count": [1]}}, "synth.object_count"),  # wrong-length tuples
    ("train", {"aug": {"normalize_mean": [0.5, 0.5]}}, "aug.normalize_mean"),
    ("train", {"aug": {"erase_aspect": [0.3, 3.3, 1.0]}}, "aug.erase_aspect"),
    ("train", {"aug": {"normalize_std": [0, 1, 1]}}, "normalize_std"),
    ("train", {"aug": {"erase_scale": [1.5, 2]}}, "erase_scale"),  # no rectangle would fit
])
def test_bad_config_value_exits_1(tmp_path, capsys, small_run, command, sections, key):
    manifest, ckpt = small_run
    flags = {"train": ["--manifest", manifest],
             "eval": ["--checkpoint", ckpt, "--manifest", manifest]}.get(command, [])
    out = tmp_path / "o"
    cfg = write_config(tmp_path, **sections)
    assert main([command, "--config", cfg, "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and key in err, err
    assert "Traceback" not in err
    assert not out.exists() or os.listdir(out) == ["resolved_config.json"]


@pytest.mark.parametrize("command", ["bench", "train"])
def test_odd_token_grid_exits_1_before_any_forward(tmp_path, capsys, monkeypatch, small_run,
                                                   command):
    # micro at 80 with window 5 has grids 20, 10, 5, 2; no merge halves the 5
    flags = ["--manifest", small_run[0]] if command == "train" else []
    out = tmp_path / "o"
    cfg = write_config(tmp_path, **{command: {"img_size": 80, "window": 5}})
    read = _spy_reads(monkeypatch)
    assert main([command, "--config", cfg, "--out", str(out), *flags]) == 1
    assert capsys.readouterr().err == ("error: img_size 80 gives stage 2 an odd token grid 5, "
                                       "which patch merging cannot halve\n")
    assert os.listdir(out) == ["resolved_config.json"]
    assert read == []  # train refuses its config before it decodes an image


@pytest.mark.parametrize("sections, want", [
    ({"synth": {"object_count": [1]}}, "'synth.object_count' must be tuple[int, int], got [1]"),
    ({"aug": {"normalize_std": [1, 1, "1"]}},
     "'aug.normalize_std' must be tuple[float, float, float], got [1, 1, '1']"),
    ({"train": {"img_size": "64"}}, "'train.img_size' must be int | None, got '64'"),
    ({"bench": {"n_timed": 1.5}}, "'bench.n_timed' must be int, got 1.5"),
], ids=["pair", "triple", "optional", "int"])
def test_bad_config_value_names_its_annotation(tmp_path, sections, want):
    with pytest.raises(cli.ConfigError, match=re.escape(want) + "$"):
        load_run_config(write_config(tmp_path, **sections))


def test_bad_config_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["inspect", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert main(["inspect", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("text, want", [
    ("[1, 2]", "config {path} must hold a JSON object"),
    ('{"train": 5}', "'train' must be an object"),
], ids=["array", "non-object-section"])
def test_config_file_of_the_wrong_shape_exits_1(tmp_path, capsys, text, want):
    path = tmp_path / "shape.json"
    path.write_text(text)
    out = tmp_path / "o"
    assert main(["inspect", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: " + want.format(path=path) + "\n"
    assert not out.exists()


def test_deeply_nested_config_exits_1(tmp_path, capsys):
    """json.load raises RecursionError on a value of 100,000 nested lists;
    it ends in one error line naming the file, not a traceback."""
    path = tmp_path / "deep.json"
    path.write_text('{"seed": ' + "[" * 100_000 + "]" * 100_000 + "}")
    out = tmp_path / "o"
    assert main(["inspect", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config {path}: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert not out.exists()


# ----------------------------------------------------------------- inspect


def test_inspect_prints_published_table(tmp_path, capsys):
    out = str(tmp_path / "o")
    assert main(["inspect", "--out", out]) == 0
    stdout = capsys.readouterr().out
    for token in ("27,520,892", "48,838,796", "86,745,274", "86,766,330"):
        assert token in stdout
    rows = json.load(open(os.path.join(out, "inspect.json")))
    assert [r["model"] for r in rows] == [
        "tiny-224/7", "small-224/7", "base-224/7", "base-1024/8"]
    assert abs(rows[0]["gflops"] - 4.5) / 4.5 < 0.10
    assert abs(rows[3]["gflops"] - 324.6) / 324.6 < 0.10
    assert os.path.exists(os.path.join(out, "resolved_config.json"))


def test_inspect_summarizes_a_checkpoint(tmp_path, capsys, small_run):
    ckpt = small_run[1]
    assert main(["inspect", "--checkpoint", ckpt, "--out", str(tmp_path / "o")]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    params = count_params(preset("micro"))
    assert last == f"checkpoint: {ckpt}  params {params:,d}  epochs 0  best_epoch None"


# ------------------------------------------------------------------- synth


def test_synth_writes_dataset_and_prints_counts(tmp_path, capsys):
    manifest = synth_small(tmp_path)
    stdout = capsys.readouterr().out
    assert "train: 8 images" in stdout
    assert "val: 4 images" in stdout
    assert "test: 4 images" in stdout
    assert os.path.exists(manifest)


def test_synth_prints_counts_without_reading_the_dataset_back(tmp_path, capsys, monkeypatch):
    def unread(path):
        raise AssertionError("synth read its dataset back")

    monkeypatch.setattr(cli, "load_manifest", unread)
    manifest = synth_small(tmp_path)
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["train: 8 images", "val: 4 images", "test: 4 images",
                     f"manifest: {manifest}"]


def test_synth_at_minimum_size_builds(tmp_path, capsys):
    cfg = write_config(tmp_path, synth={"size": 32, "n_train": 400, "n_val": 2,
                                        "n_test": 2})
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert "train: 400 images" in capsys.readouterr().out


def test_synth_deterministic_across_workers(tmp_path):
    m1 = synth_small(tmp_path, sub="a")
    m2 = synth_small(tmp_path, sub="b", workers=3)
    d1, d2 = os.path.dirname(m1), os.path.dirname(m2)
    assert open(m1).read() == open(m2).read()
    images = sorted(os.listdir(os.path.join(d1, "images")))
    for rel in images:
        b1 = open(os.path.join(d1, "images", rel), "rb").read()
        b2 = open(os.path.join(d2, "images", rel), "rb").read()
        assert b1 == b2


def test_synth_invalid_spec_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, synth={"n_train": 5})  # odd split
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "error" in capsys.readouterr().err


# ------------------------------------------------------------ train / eval


def train_config(tmp_path, manifest, **train_over):
    section = {"manifest": manifest, "model": "micro", "mode": "scratch",
               "warmup_epochs": 0, "batch_size": 4, "grad_accum_steps": 1,
               "drop_path_max": 0.1}
    section.update(train_over)
    return write_config(tmp_path, name=f"train_{len(train_over)}.json",
                        train=section)


def test_train_writes_artifacts_and_eval_reads_them(tmp_path, capsys):
    manifest = synth_small(tmp_path)
    out = str(tmp_path / "run")
    cfg = train_config(tmp_path, manifest)
    assert main(["train", "--config", cfg, "--epochs", "1", "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "checkpoint.swq"))
    history = open(os.path.join(out, "history.csv")).read().splitlines()
    assert history[0] == "epoch,train_loss,val_acc,val_auc,lr"
    assert len(history) == 2  # one epoch
    resolved = json.load(open(os.path.join(out, "resolved_config.json")))
    assert resolved["train"]["epochs"] == 1  # flag beat the mode default

    eval_out = str(tmp_path / "eval")
    assert main(["eval", "--checkpoint", os.path.join(out, "checkpoint.swq"),
                 "--manifest", manifest, "--split", "test",
                 "--out", eval_out]) == 0
    report = json.load(open(os.path.join(eval_out, "eval_report.json")))
    assert report["n_samples"] == 4
    assert 0.0 <= report["accuracy"] <= 100.0
    assert report["auc"] is None or 0.0 <= report["auc"] <= 1.0
    assert sum(report["confusion"].values()) == 4
    rows = open(os.path.join(eval_out, "per_sample.csv")).read().splitlines()
    assert rows[0] == "index,score,label,entropy"
    assert len(rows) == 5
    for line in rows[1:]:
        _, score, label, entropy = line.split(",")
        s, e = float(score), float(entropy)
        p = np.array([1.0 - s, s])
        want = float(-(p[p > 0] * np.log(p[p > 0])).sum())
        assert math.isclose(e, want, rel_tol=0, abs_tol=1e-5)
        assert label in ("0", "1")
    capsys.readouterr()


def test_train_twice_is_bit_identical(tmp_path, capsys):
    manifest = synth_small(tmp_path)
    cfg = train_config(tmp_path, manifest, epochs=1)
    outs = []
    for sub in ("r1", "r2"):
        out = str(tmp_path / sub)
        assert main(["train", "--config", cfg, "--out", out]) == 0
        outs.append(out)
    ck1 = open(os.path.join(outs[0], "checkpoint.swq"), "rb").read()
    ck2 = open(os.path.join(outs[1], "checkpoint.swq"), "rb").read()
    assert ck1 == ck2
    h1 = open(os.path.join(outs[0], "history.csv")).read()
    h2 = open(os.path.join(outs[1], "history.csv")).read()
    assert h1 == h2
    capsys.readouterr()


def test_train_without_manifest_exits_1(tmp_path, capsys):
    assert main(["train", "--out", str(tmp_path / "o")]) == 1
    assert "manifest" in capsys.readouterr().err


def error_line(capsys, path):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err, err
    assert "Traceback" not in err


def test_train_missing_manifest_file_exits_1(tmp_path, capsys):
    missing = tmp_path / "absent.csv"
    assert main(["train", "--manifest", str(missing), "--out", str(tmp_path / "o")]) == 1
    error_line(capsys, missing)


def test_eval_missing_checkpoint_file_exits_1(tmp_path, capsys):
    manifest = synth_small(tmp_path)
    missing = tmp_path / "absent.swq"
    assert main(["eval", "--checkpoint", str(missing), "--manifest", manifest,
                 "--out", str(tmp_path / "o")]) == 1
    error_line(capsys, missing)


def test_eval_missing_manifest_file_exits_1(tmp_path, capsys):
    scfg = preset("micro")
    ckpt = str(tmp_path / "w.swq")
    save_checkpoint(ckpt, Checkpoint(config=scfg, params=init_params(scfg, np.random.default_rng(0))))
    missing = tmp_path / "absent.csv"
    assert main(["eval", "--checkpoint", ckpt, "--manifest", str(missing),
                 "--out", str(tmp_path / "o")]) == 1
    error_line(capsys, missing)


def _spy_reads(monkeypatch) -> list:
    """The paths data._read_pixels is called with from now on."""
    read, real = [], data_module._read_pixels
    monkeypatch.setattr(data_module, "_read_pixels", lambda path: read.append(path) or real(path))
    return read


def _split_files(manifest) -> dict:
    """{split: sorted image paths} of a manifest, as load_manifest joins them."""
    base = os.path.dirname(os.path.abspath(manifest))
    rows = [line.split(",") for line in open(manifest).read().splitlines()[1:]]
    return {split: sorted(os.path.join(base, rel) for rel, _, s in rows if s == split)
            for split in ("train", "val", "test")}


@pytest.mark.parametrize("command, splits", [("eval", ("test",)), ("train", ("train", "val"))])
def test_commands_read_only_the_splits_they_use(tmp_path, capsys, monkeypatch, small_run,
                                                command, splits):
    manifest, ckpt = small_run
    args = {"eval": ["--checkpoint", ckpt, "--split", "test"],
            "train": ["--config", train_config(tmp_path, manifest), "--epochs", "1"]}[command]
    read = _spy_reads(monkeypatch)
    assert main([command, "--manifest", manifest, "--out", str(tmp_path / "o"), *args]) == 0
    files = _split_files(manifest)
    assert sorted(read) == sorted(p for s in splits for p in files[s])
    capsys.readouterr()


def test_eval_checks_every_row_but_reads_only_its_split(tmp_path, capsys, small_run):
    """A train image that is corrupt does not fail `eval --split test`, which
    never reads it; one that is gone still does, as every row is checked."""
    manifest = synth_small(tmp_path)
    train_file = _split_files(manifest)["train"][0]
    open(train_file, "wb").write(b"not an image")
    args = ["eval", "--checkpoint", small_run[1], "--manifest", manifest, "--split", "test",
            "--out", str(tmp_path / "o")]
    assert main(args) == 0
    capsys.readouterr()
    os.remove(train_file)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: manifest row ") and "missing file" in err, err
    assert err.count("\n") == 1


def edited_manifest(tmp_path, manifest, edit) -> str:
    """A copy of `manifest` with absolute paths, its lines passed through `edit`."""
    base = os.path.dirname(os.path.abspath(manifest))
    header, *rows = open(manifest).read().splitlines()
    path = tmp_path / "edited.csv"
    path.write_text("\n".join(edit([header] + [os.path.join(base, r) for r in rows])) + "\n")
    return str(path)


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("edit, row", [
    (lambda lines: ["x" * 131_073] + lines[1:], 1),
    (lambda lines: lines[:2] + ["y" * 131_073 + ",0,train"] + lines[2:], 3),
], ids=["header", "row"])
def test_manifest_field_over_the_csv_limit_exits_1(tmp_path, capsys, small_run, command,
                                                   edit, row):
    manifest, ckpt = small_run
    manifest = edited_manifest(tmp_path, manifest, edit)
    args = {"train": ["--config", train_config(tmp_path, manifest, epochs=1)],
            "eval": ["--checkpoint", ckpt, "--manifest", manifest]}[command]
    out = tmp_path / "o"
    assert main([command, *args, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: manifest row {row}: field larger than field limit (131072)\n"
    assert os.listdir(out) == ["resolved_config.json"]


def test_manifest_row_with_wrong_field_count_exits_1(tmp_path, capsys, small_run):
    manifest, ckpt = small_run
    manifest = edited_manifest(tmp_path, manifest, lambda lines: lines[:2] + ["a.pgm,0"])
    assert main(["eval", "--checkpoint", ckpt, "--manifest", manifest,
                 "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: manifest row 3: expected 3 fields, got 2\n"


def test_manifest_blank_row_is_skipped(tmp_path, capsys, small_run):
    manifest, ckpt = small_run
    manifest = edited_manifest(tmp_path, manifest, lambda lines: lines[:3] + [""] + lines[3:])
    out = tmp_path / "o"
    assert main(["eval", "--checkpoint", ckpt, "--manifest", manifest, "--split", "test",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert json.load(open(out / "eval_report.json"))["n_samples"] == 4


def test_inspect_deeply_nested_checkpoint_header_exits_1(tmp_path, capsys):
    """json.loads raises RecursionError on a header of 100,000 nested lists;
    it ends in one error line naming the file, not a traceback."""
    path = tmp_path / "deep.swq"
    blob = b"[" * 100_000 + b"]" * 100_000
    path.write_bytes(b"SWQK" + struct.pack("<II", train_module.FORMAT_VERSION, len(blob)) + blob)
    assert main(["inspect", "--checkpoint", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_inspect_short_checkpoint_exits_1(tmp_path, capsys):
    short = tmp_path / "short.swq"
    short.write_bytes(b"SWQK\x01\x00")
    assert main(["inspect", "--checkpoint", str(short), "--out", str(tmp_path / "o")]) == 1
    error_line(capsys, short)


def test_checkpoint_with_trailing_bytes_exits_1(tmp_path, capsys):
    manifest = synth_small(tmp_path)
    scfg = preset("micro")
    path = tmp_path / "long.swq"
    save_checkpoint(str(path), Checkpoint(config=scfg,
                                          params=init_params(scfg, np.random.default_rng(0))))
    with open(path, "ab") as f:
        f.write(b"\x00")
    assert main(["eval", "--checkpoint", str(path), "--manifest", manifest,
                 "--split", "test", "--out", str(tmp_path / "o")]) == 1
    error_line(capsys, path)
    assert main(["inspect", "--checkpoint", str(path), "--out", str(tmp_path / "i")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: trailing bytes") and "Traceback" not in err


def test_checkpoint_with_zero_patch_size_exits_1(tmp_path, capsys):
    manifest = synth_small(tmp_path)
    scfg = preset("micro")
    path = tmp_path / "zero_patch.swq"
    save_checkpoint(str(path), Checkpoint(config=scfg,
                                          params=init_params(scfg, np.random.default_rng(0))))
    blob = path.read_bytes()
    size = struct.unpack("<I", blob[8:12])[0]
    header = json.loads(blob[12:12 + size])
    header["config"]["patch_size"] = 0
    edited = json.dumps(header).encode()
    path.write_bytes(blob[:8] + struct.pack("<I", len(edited)) + edited + blob[12 + size:])
    for args in (["inspect", "--checkpoint", str(path)],
                 ["eval", "--checkpoint", str(path), "--manifest", manifest]):
        assert main(args + ["--out", str(tmp_path / args[0])]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "patch_size" in err, err
        assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_train_nan_abort_exits_2(tmp_path, capsys, monkeypatch):
    manifest = synth_small(tmp_path)
    # a checkpoint cannot carry NaN weights in (loading refuses them), so
    # the NaN goes in at initialization
    init = train_module.init_weights

    def poisoned(cfg, rng):
        flat = init(cfg, rng)
        param_views(cfg, flat)["head.weight"][:] = np.nan
        return flat

    monkeypatch.setattr(train_module, "init_weights", poisoned)
    cfg = train_config(tmp_path, manifest, epochs=1)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "aborted" in capsys.readouterr().err


def test_eval_nan_checkpoint_exits_1(tmp_path, capsys):
    manifest = synth_small(tmp_path)
    scfg = preset("micro")
    params = init_params(scfg, np.random.default_rng(0))
    params["head.weight"].data[:] = np.nan
    poisoned = str(tmp_path / "nan.swq")
    save_checkpoint(poisoned, Checkpoint(config=scfg, params=params))
    assert main(["eval", "--checkpoint", poisoned, "--manifest", manifest,
                 "--split", "test", "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nan" in err and "Traceback" not in err


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_value_written_into_checkpoint_file_exits_1(tmp_path, capsys, value):
    manifest = synth_small(tmp_path)
    scfg = preset("micro")
    path = str(tmp_path / "edited.swq")
    save_checkpoint(path, Checkpoint(config=scfg,
                                     params=init_params(scfg, np.random.default_rng(0))))
    blob = bytearray(open(path, "rb").read())
    size = struct.unpack("<I", blob[8:12])[0]
    at = 12 + size + json.loads(blob[12:12 + size])["tensors"]["head.bias"]["offset"] + 4
    blob[at:at + 4] = struct.pack("<f", value)
    open(path, "wb").write(bytes(blob))
    assert main(["eval", "--checkpoint", path, "--manifest", manifest,
                 "--split", "test", "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: weights group: tensor head.bias holds a "
                          f"non-finite value ({value})")
    assert "Traceback" not in err
    cfg = train_config(tmp_path, manifest, epochs=1, checkpoint_in=path)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "t")]) == 1
    assert "head.bias" in capsys.readouterr().err


def test_resume_from_checkpoint_without_best_row_exits_1(tmp_path, capsys):
    manifest = synth_small(tmp_path)
    scfg = preset("micro")
    params = init_params(scfg, np.random.default_rng(0))
    path = str(tmp_path / "orphan.swq")
    best = np.concatenate([p.data.ravel() for p in params.values()]).astype("<f4")
    save_checkpoint(path, Checkpoint(config=scfg, params=params, epoch=1, history=[],
                                     best_params=best, best_epoch=1))
    cfg = train_config(tmp_path, manifest, epochs=2, checkpoint_in=path)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "t")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: best_epoch 1 names no history row")
    assert "Traceback" not in err


def _set_row(**values):
    return lambda h: h["history"][0].update(values)


@pytest.mark.parametrize("edit, want", [
    (lambda h: h["history"].insert(0, 7),
     "history is not a list of objects, each with an integer epoch"),
    (lambda h: h["optim"].update(t="1"), "header optim.t must be int, got '1'"),
    (lambda h: h["optim"].update(beta1="0.9"), "header optim.beta1 must be float, got '0.9'"),
    (lambda h: h.update(epoch="1"), "header epoch must be int, got '1'"),
    (lambda h: h.update(epoch=1.0), "header epoch must be int, got 1.0"),
    (_set_row(val_auc="x"), "header history[0].val_auc must be float | None, got 'x'"),
    (lambda h: h.update(history=[{"epoch": 1, "val_acc": 50.0, "val_auc": 0.5}]),
     "header history[0].train_loss is missing"),
    (lambda h: h.update(best_epoch=True), "header best_epoch must be int | None, got True"),
    (_set_row(val_acc="50"), "header history[0].val_acc must be float, got '50'"),
    (lambda h: h.update(epoch=-1), "header epoch -1 is out of range"),
    (lambda h: h.update(epoch=0), "header history[0].epoch 1 is out of order or after epoch 0"),
], ids=["non-object-row", "str-t", "str-beta1", "str-epoch", "float-epoch", "str-val_auc",
        "short-row", "bool-best_epoch", "str-val_acc", "negative-epoch", "row-after-epoch"])
def test_resume_from_checkpoint_with_a_non_object_history_row_exits_1(tmp_path, capsys, edit,
                                                                      want):
    """A resume from a checkpoint whose header breaks the schema exits 1 with
    one error line naming the file, before it trains or writes anything."""
    manifest = synth_small(tmp_path)
    scfg = preset("micro")
    params = init_params(scfg, np.random.default_rng(0))
    path = str(tmp_path / "rows.swq")
    best = np.concatenate([p.data.ravel() for p in params.values()]).astype("<f4")
    row = {"epoch": 1, "train_loss": 0.6, "val_acc": 50.0, "val_auc": 0.5, "lr": 1e-4}
    save_checkpoint(path, Checkpoint(config=scfg, params=params, epoch=1, history=[row],
                                     optim=init_optim_state(best), best_params=best,
                                     best_epoch=1))
    rewrite_header(path, edit)
    out = tmp_path / "t"
    cfg = train_config(tmp_path, manifest, epochs=2, checkpoint_in=path)
    assert main(["train", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: {want}\n"
    assert os.listdir(out) == ["resolved_config.json"]


def test_resume_from_cli_checkpoint(tmp_path, capsys):
    manifest = synth_small(tmp_path)
    leg1_out = str(tmp_path / "leg1")
    cfg = train_config(tmp_path, manifest, epochs=2, stop_epoch=1)
    assert main(["train", "--config", cfg, "--out", leg1_out]) == 0
    leg2_out = str(tmp_path / "leg2")
    cfg2 = train_config(tmp_path, manifest, epochs=2,
                        checkpoint_in=os.path.join(leg1_out, "checkpoint.swq"))
    assert main(["train", "--config", cfg2, "--out", leg2_out]) == 0
    history = open(os.path.join(leg2_out, "history.csv")).read().splitlines()
    assert len(history) == 3  # both epochs present after the resumed leg
    assert history[1].startswith("1,") and history[2].startswith("2,")
    capsys.readouterr()


def test_resume_over_its_own_checkpoint_leaves_loaded_values(tmp_path, capsys):
    """Resuming with checkpoint_out equal to checkpoint_in replaces the file:
    a holder that loaded it before keeps its values, and the new file equals
    a resume written elsewhere."""
    manifest = synth_small(tmp_path)
    run = str(tmp_path / "run")
    path = os.path.join(run, "checkpoint.swq")
    leg1 = train_config(tmp_path, manifest, epochs=2, stop_epoch=1)
    assert main(["train", "--config", leg1, "--out", run]) == 0
    held = load_checkpoint(path)
    want = [p.data.copy() for p in held.params.values()] + [
        held.optim.m.copy(), held.optim.v.copy(), held.best_params.copy()]
    resume = train_config(tmp_path, manifest, epochs=2, checkpoint_in=path)
    elsewhere = str(tmp_path / "elsewhere")
    assert main(["train", "--config", resume, "--out", elsewhere]) == 0
    assert main(["train", "--config", resume, "--out", run]) == 0
    assert load_checkpoint(path).epoch == 2
    assert (open(path, "rb").read()
            == open(os.path.join(elsewhere, "checkpoint.swq"), "rb").read())
    got = [p.data for p in held.params.values()] + [
        held.optim.m, held.optim.v, held.best_params]
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a, b)
    assert sorted(os.listdir(run)) == ["checkpoint.swq", "history.csv",
                                       "resolved_config.json"]
    capsys.readouterr()


def test_train_abort_keeps_the_last_whole_epoch(tmp_path, capsys, monkeypatch, small_run):
    """A gradient poisoned in epoch 2 aborts the run, which leaves epoch 1's
    checkpoint and history: the files a run stopped after epoch 1 writes."""
    manifest = small_run[0]
    stopped = tmp_path / "stopped"
    cfg = train_config(tmp_path, manifest, epochs=2, stop_epoch=1)
    assert main(["train", "--config", cfg, "--out", str(stopped)]) == 0
    assert re.fullmatch(r"epoch 1/2  loss \d\.\d{4}  val_acc \d+\.\d{2}%  "
                        r"val_auc (n/a|\d\.\d{4})  lr \S+", capsys.readouterr().out.split("\n")[0])
    params, calls = {}, []
    tensors, backward = train_module.param_tensors, train_module.backward

    def capture(*args):
        params.update(tensors(*args))
        return params

    def poisoned(loss):
        backward(loss)
        calls.append(None)
        if len(calls) > 2:  # 8 train images at batch 4: epoch 2 opens with call 3
            params["head.bias"].grad[0] = np.nan

    monkeypatch.setattr(train_module, "param_tensors", capture)
    monkeypatch.setattr(train_module, "backward", poisoned)
    out = tmp_path / "o"
    cfg = train_config(tmp_path, manifest, epochs=2)
    assert main(["train", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"aborted: non-finite gradient in head\.bias at epoch 2, step 2, "
                        r"lr \S+\n", err), err
    assert sorted(os.listdir(out)) == ["checkpoint.swq", "history.csv", "resolved_config.json"]
    for name in ("checkpoint.swq", "history.csv"):
        assert (out / name).read_bytes() == (stopped / name).read_bytes(), name


def test_resume_with_no_epoch_left_writes_its_artifacts_once(tmp_path, capsys, monkeypatch,
                                                             small_run):
    """A resume that ends at its checkpoint's epoch trains nothing, but still
    writes the checkpoint, unchanged, and its history, once each."""
    manifest = small_run[0]
    leg1 = tmp_path / "leg1"
    assert main(["train", "--config", train_config(tmp_path, manifest, epochs=2, stop_epoch=1),
                 "--out", str(leg1)]) == 0
    saves, histories = [], []
    save, write = train_module.save_checkpoint, cli.write_history_csv
    monkeypatch.setattr(train_module, "save_checkpoint", lambda *a: saves.append(a) or save(*a))
    monkeypatch.setattr(cli, "write_history_csv", lambda *a: histories.append(a) or write(*a))
    out = tmp_path / "o"
    cfg = train_config(tmp_path, manifest, epochs=2, stop_epoch=1,
                       checkpoint_in=str(leg1 / "checkpoint.swq"))
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    assert len(saves) == 1 and len(histories) == 1
    for name in ("checkpoint.swq", "history.csv"):
        assert (out / name).read_bytes() == (leg1 / name).read_bytes(), name
    assert capsys.readouterr().out.startswith("epoch 1/2  loss ")  # the last epoch's line


def test_resume_with_no_epoch_left_of_a_header_without_rows(tmp_path, capsys, small_run):
    scfg = preset("micro")
    path = str(tmp_path / "bare.swq")
    save_checkpoint(path, Checkpoint(config=scfg, epoch=1,
                                     params=init_params(scfg, np.random.default_rng(0))))
    out = tmp_path / "o"
    cfg = train_config(tmp_path, small_run[0], epochs=2, stop_epoch=1, checkpoint_in=path)
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "history.csv").read_text() == "epoch,train_loss,val_acc,val_auc,lr\n"
    assert capsys.readouterr().out.startswith("checkpoint: ")  # no epoch line to print


KILLED_IN_EPOCH_2 = """
import os, signal
from swinqa import cli, train

evaluate, calls = train.evaluate, []

def killing(*args, **kwargs):
    calls.append(None)
    if len(calls) == 2:  # epoch 2 has trained, and its commit has not begun
        os.kill(os.getpid(), signal.SIGKILL)
    return evaluate(*args, **kwargs)

train.evaluate = killing
cli.main({args!r})
"""


def test_run_killed_in_epoch_2_resumes_to_a_straight_runs_bytes(tmp_path, capsys, small_run):
    manifest = small_run[0]
    straight, killed = tmp_path / "straight", tmp_path / "killed"
    cfg = train_config(tmp_path, manifest, epochs=2)
    assert main(["train", "--config", cfg, "--out", str(straight)]) == 0
    run_python(KILLED_IN_EPOCH_2.format(
        args=["train", "--config", cfg, "--out", str(killed)]), returncode=-signal.SIGKILL)
    assert sorted(os.listdir(killed)) == ["checkpoint.swq", "history.csv",
                                          "resolved_config.json"]  # no staging file
    assert len((killed / "history.csv").read_text().splitlines()) == 2  # header, epoch 1
    assert load_checkpoint(str(killed / "checkpoint.swq")).epoch == 1
    resume = train_config(tmp_path, manifest, epochs=2,
                          checkpoint_in=str(killed / "checkpoint.swq"))
    assert main(["train", "--config", resume, "--out", str(killed)]) == 0
    for name in ("checkpoint.swq", "history.csv"):
        assert (killed / name).read_bytes() == (straight / name).read_bytes(), name
    capsys.readouterr()


@pytest.mark.parametrize("over", [dict(epochs=3, stop_epoch=1), dict(epochs=1)],
                         ids=["stop_epoch", "epochs"])
def test_resume_ending_before_the_checkpoint_epoch_exits_1(tmp_path, capsys, over):
    manifest = synth_small(tmp_path)
    scfg = preset("micro")
    path = str(tmp_path / "epoch2.swq")
    save_checkpoint(path, Checkpoint(config=scfg, epoch=2,
                                     params=init_params(scfg, np.random.default_rng(0))))
    out = str(tmp_path / "t")
    cfg = train_config(tmp_path, manifest, checkpoint_in=path, **over)
    assert main(["train", "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err == "error: run ends at epoch 1, before the checkpoint's epoch 2\n"
    assert not os.path.exists(os.path.join(out, "checkpoint.swq"))


def test_resume_under_another_model_config_exits_1(tmp_path, capsys, small_run):
    manifest, ckpt = small_run
    out = tmp_path / "t"
    cfg = train_config(tmp_path, manifest, epochs=1, drop_path_max=0.2, checkpoint_in=ckpt)
    assert main(["train", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: checkpoint config does not match the train config\n"
    assert os.listdir(out) == ["resolved_config.json"]


def test_resume_with_another_seed_exits_1(tmp_path, capsys):
    manifest = synth_small(tmp_path)
    leg1 = str(tmp_path / "leg1")
    cfg = train_config(tmp_path, manifest, epochs=2, stop_epoch=1)
    assert main(["train", "--config", cfg, "--seed", "5", "--out", leg1]) == 0
    capsys.readouterr()
    out = str(tmp_path / "t")
    resume = train_config(tmp_path, manifest, epochs=2,
                          checkpoint_in=os.path.join(leg1, "checkpoint.swq"))
    assert main(["train", "--config", resume, "--seed", "6", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err == ("error: checkpoint was drawn with seed 5 (scheme 'keyed-streams'), "
                   "not this run's seed 6 (scheme 'keyed-streams')\n")
    assert not os.path.exists(os.path.join(out, "checkpoint.swq"))
    assert os.listdir(out) == ["resolved_config.json"]


@pytest.mark.parametrize("command", ["synth", "train"])
def test_negative_seed_exits_1(tmp_path, capsys, small_run, command):
    manifest, _ = small_run
    flags = {"train": ["--manifest", manifest]}.get(command, [])
    out = tmp_path / "o"
    assert main([command, "--seed", "-1", "--out", str(out), *flags]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert os.listdir(out) == ["resolved_config.json"]


@pytest.mark.parametrize("workers", [0, -3])
def test_synth_with_workers_below_1_exits_1(tmp_path, capsys, workers):
    out = tmp_path / "o"
    assert main(["synth", "--workers", str(workers), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: workers must be >= 1, got {workers}\n"
    assert os.listdir(out) == ["resolved_config.json"]


# ------------------------------------------------------------------- bench


def test_bench_writes_report(tmp_path, capsys):
    out = str(tmp_path / "o")
    cfg = write_config(tmp_path, bench={"batch_size": 1, "n_warmup": 1})
    assert main(["bench", "--config", cfg, "--out", out]) == 0
    report = json.load(open(os.path.join(out, "bench.json")))
    assert report["n_timed"] == 10 and report["n_warmup"] == 1
    assert report["median_s"] > 0 and report["images_per_sec"] > 0
    assert report["iqr_s"] >= 0
    assert "img/s" in capsys.readouterr().out
