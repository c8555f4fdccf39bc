"""Print one sha256 over the model's eval logits and training gradients.

    python3 tools/output_digest.py <tree>

<tree> is the root of a swinqa source tree; the script imports swinqa from
<tree>/src. Two trees whose digests are equal computed bit-identical
outputs on every case below, so a change meant to keep every output bit
is checked by running the script on the tree before and after it.

Cases, all from fixed seeds, with BLAS pinned to one thread:
- no-grad float32 forwards of `micro` at 64x64 batch 64, 128x128 batch 16
  and 96x96 window 6 batch 40, and of `tiny` at batch 1;
- a no-grad float64 forward of `tiny` at batch 1;
- training-mode `micro` at 128x128 batch 4 with drop path 0 and 0.3:
  the logits and the gradient of every parameter, in layout order.
Each case passes `forward` a Tensor of float64 pixels, except the two
named "-array" (no-grad `micro` at 64x64 batch 64, training with drop path
0.3), which pass the float64 array itself, as the eval and training loops
pass `prepare_batch`'s output. Two more cases cover the data path of the
criterion-8 set (foreign_object 64x64, seed 1234, 400/100/100):
"dataset-c8", the manifest and image bytes the generator writes, and
"batches-c8", the set read back through `load_manifest`, then its first
eval batch of 64 validation images as float32 and the first train-mode
batch of the criterion-8 recipe (seed 7) with its soft labels. The case
"convolve" covers both convolution call sites: 16 `lvot` records at 64x64
with the motion blur on, and `adjust_sharpness` at factors 0.1 and 1.9
over the first 64 criterion-8 validation images as RGB. The case "init"
covers the fresh weights: every value of `init_params` for `micro` and
`tiny` in float32, seed 0, in layout order. The case "train" covers the
training loop: the `checkpoint.swq` and `history.csv` bytes of a 2-epoch
`micro` run from scratch at the criterion-8 recipe (seed 7) on the first
64 train and 32 validation images of the criterion-8 set, then of the same
run paused after epoch 1 and resumed from its checkpoint.

The digest goes to stdout; one line per case, with its own digest, goes to
stderr.
"""
from __future__ import annotations

import dataclasses
import hashlib
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # OpenBLAS reads these once, when numpy loads

import numpy as np  # noqa: E402

EVAL_CASES = (  # (name, preset, img_size, window, batch, dtype, as Tensor)
    ("micro-64-b64", "micro", 64, None, 64, "float32", True),
    ("micro-128-b16", "micro", 128, None, 16, "float32", True),
    ("micro-96-w6-b40", "micro", 96, 6, 40, "float32", True),
    ("tiny-b1-f32", "tiny", None, None, 1, "float32", True),
    ("tiny-b1-f64", "tiny", None, None, 1, "float64", True),
    ("micro-64-b64-array", "micro", 64, None, 64, "float32", False),
)
# the augmentation of criterion 8's recipe
C8_AUG = {"randaug_n": 1, "randaug_magnitude": 3.0, "mixup_alpha": 0.05, "cutmix_alpha": 0.05,
          "erase_prob": 0.0, "jitter_strength": 0.05}
TRAIN_CASES = (  # (name, drop path, as Tensor)
    ("micro-128-b4-dp0", 0.0, True),
    ("micro-128-b4-dp0.3", 0.3, True),
    ("micro-128-b4-dp0.3-array", 0.3, False),
)


def _images(cfg, batch: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((batch, cfg.img_size, cfg.img_size, 3))


def eval_arrays(swin, tensor, name, model, img_size, window, batch, dtype,
                as_tensor) -> list:
    cfg = swin.preset(model, img_size=img_size, window=window)
    with tensor.using_dtype(dtype), tensor.no_grad():
        params = swin.init_params(cfg, np.random.default_rng(0))
        x = _images(cfg, batch, 1)
        logits = swin.forward(tensor.Tensor(x) if as_tensor else x, cfg, params)
    return [logits.data]


def train_arrays(swin, tensor, name, drop_path: float, as_tensor) -> list:
    cfg = dataclasses.replace(swin.preset("micro", img_size=128), drop_path_max=drop_path)
    with tensor.using_dtype("float32"):
        params = swin.init_params(cfg, np.random.default_rng(0))
        x = _images(cfg, 4, 2)
        x = tensor.Tensor(x) if as_tensor else x
        logits = swin.forward(x, cfg, params, training=True, rng=np.random.default_rng(3))
        soft = np.eye(cfg.num_classes)[[0, 1, 1, 0]]
        tensor.backward(tensor.cross_entropy_soft(logits, tensor.Tensor(soft)))
    return [logits.data] + [params[k].grad for k, _ in swin.param_layout(cfg)]


def init_arrays(swin, tensor) -> list:
    with tensor.using_dtype("float32"):
        return [p.data for model in ("micro", "tiny")
                for p in swin.init_params(swin.preset(model), np.random.default_rng(0)).values()]


def criterion8_dataset(data, out_dir: str) -> Path:
    """Write the criterion-8 dataset under out_dir; return its manifest."""
    spec = data.SynthSpec(task="foreign_object", size=64, seed=1234)
    return Path(data.make_benchmark(spec, 400, 100, 100, out_dir))


def dataset_arrays(manifest: Path) -> list:
    """A dataset as byte arrays: the manifest, then each image file in
    manifest order."""
    rows = manifest.read_bytes()
    files = [manifest] + [manifest.parent / line.split(",")[0]
                          for line in rows.decode().splitlines()[1:]]
    return [np.frombuffer(f.read_bytes(), dtype=np.uint8) for f in files]


def batch_arrays(augment, records: list) -> list:
    """The first batches a criterion-8 run builds from its records: the
    first eval batch of 64 validation images, as float32, then the first
    train-mode batch and its soft labels, drawn with the keys train() uses
    at seed 7 for epoch 0, batch 0."""
    train = [r for r in records if r.split == "train"]
    val = [r for r in records if r.split == "val"][:64]
    aug = augment.AugConfig(**C8_AUG)
    x_eval, _ = augment.prepare_batch([r.image for r in val], [r.label for r in val],
                                      aug, "eval", 64)
    idx = np.random.default_rng([7, 1, 0]).permutation(len(train))[:4]
    x, soft = augment.prepare_batch([train[i].image for i in idx],
                                    [train[i].label for i in idx], aug, "train", 64,
                                    rng=np.random.default_rng([7, 2, 0, 0]))
    return [x_eval.astype(np.float32), x, soft]


def convolve_arrays(data, augment, records: list) -> list:
    """The images of both convolution call sites: blurred `lvot` records,
    both classes, then the sharpness op on criterion-8 validation images."""
    spec = data.SynthSpec(task="lvot", size=64, seed=5, blur=True)
    lvot = [data.synth_lvot(spec, i % 2 == 1, np.random.default_rng([5, i])).image
            for i in range(16)]
    val = [augment.to_rgb01(r.image) for r in records if r.split == "val"][:64]
    return lvot + [augment.adjust_sharpness(img, f) for f in (0.1, 1.9) for img in val]


def train_run_arrays(augment, train, records: list, out_dir: str) -> list:
    """The checkpoint and history bytes of a short criterion-8-recipe run
    straight through, then of the same run paused after epoch 1 and
    resumed."""
    tr = [r for r in records if r.split == "train"][:64]
    val = [r for r in records if r.split == "val"][:32]
    recipe = dict(mode="scratch", model="micro", epochs=2, warmup_epochs=1, batch_size=4,
                  grad_accum_steps=1, drop_path_max=0.0, seed=7,
                  aug=augment.AugConfig(**C8_AUG))
    legs = (("straight", {}), ("paused", {"stop_epoch": 1}),
            ("resumed", {"checkpoint_in": os.path.join(out_dir, "paused.swq")}))
    arrays = []
    for name, over in legs:
        path = os.path.join(out_dir, f"{name}.swq")
        ckpt = train.train(train.TrainConfig(checkpoint_out=path, **recipe, **over), tr, val)
        train.write_history_csv(os.path.join(out_dir, f"{name}.csv"), ckpt.history)
        if name != "paused":
            arrays += [np.fromfile(path, dtype=np.uint8),
                       np.fromfile(os.path.join(out_dir, f"{name}.csv"), dtype=np.uint8)]
    return arrays


def digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/output_digest.py <tree>", file=sys.stderr)
        return 2
    src = Path(argv[1]).resolve() / "src"
    if not (src / "swinqa" / "__init__.py").is_file():
        print(f"error: no swinqa package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from swinqa import augment, data, swin, tensor, train

    cases = [(c[0], eval_arrays(swin, tensor, *c)) for c in EVAL_CASES]
    cases += [(c[0], train_arrays(swin, tensor, *c)) for c in TRAIN_CASES]
    with tempfile.TemporaryDirectory() as d:
        manifest = criterion8_dataset(data, d)
        cases.append(("dataset-c8", dataset_arrays(manifest)))
        records = data.load_manifest(str(manifest))
    cases.append(("batches-c8", batch_arrays(augment, records)))
    cases.append(("convolve", convolve_arrays(data, augment, records)))
    cases.append(("init", init_arrays(swin, tensor)))
    with tempfile.TemporaryDirectory() as d:
        cases.append(("train", train_run_arrays(augment, train, records, d)))
    total = hashlib.sha256()
    for name, arrays in cases:
        case = digest(arrays).hexdigest()
        print(f"{name} {case}", file=sys.stderr)
        total.update(case.encode())
    print(total.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
