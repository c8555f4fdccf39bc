"""Print the size of the swinqa package and of its training graph.

    python3 tools/src_stats.py <tree>

<tree> is the root of a swinqa source tree; the script imports swinqa from
<tree>/src. It prints the line count of each module in src/swinqa and
their total, then the options: the leaf keys of the run config
(`cli.DEFAULTS`), the CLI flags (each command's own and the common ones,
`--config` aside) and the parameters with a default of the functions in
src/swinqa. Then the autodiff nodes that one training-mode forward of
`micro` at batch 4 records: the nodes reachable from the loss through
`_parents` (the loss itself counted apart), how many of them each Swin
block and each patch merging adds, and the rest, which the stem and the
head add. Then the import footprint: the peak RSS of a fresh interpreter
that runs `import swinqa.cli` with BLAS pinned to one thread, against one
that imports numpy alone, and the third-party top-level packages that the
swinqa import loads. Then the synthesis footprint: the peak RSS of a
fresh interpreter that runs `make_benchmark` at criterion 8's spec, and
one that writes 300 `lvot` images at 224x224. Last, the weights
footprint: the peak RSS of a fresh interpreter that runs `init_params`
for `tiny` at 224x224 in the default float32, next to its parameter
bytes (`count_params` x 4), and the checkpoint footprint: the peak RSS of
a fresh interpreter that loads a `tiny` checkpoint holding all four
groups (weights, AdamW m and v, best weights) and runs one no-grad
forward at batch 1 with the best weights, as `swinqa eval` scores; and
the screening footprints: how far one no-grad `evaluate` of `micro` at
batch 64 on 64 gray uint8 images, as `screen-micro-b64` scores, and one
of `tiny` at batch 32 on 32 images at 224x224, raise the peak RSS of a
fresh interpreter that holds the weights and images, and the tracemalloc
peak of a second such `evaluate` in it (the first fills the caches).
Then the `swinqa eval --split test` footprint: the peak RSS of a fresh
interpreter that scores 100 `micro` test images at 64x64 with fresh
weights, from a manifest with 100 train rows and from one whose 10,000
train rows repeat one file; the train rows are checked but not read.
Two trees are compared by running the script on each.
"""
from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # OpenBLAS reads these once, when numpy loads

import numpy as np  # noqa: E402

# (task, size, split sizes) of each synthesis footprint: criterion 8's set,
# and 300 images at the published input size
SYNTH_CASES = (("foreign_object", 64, (400, 100, 100)), ("lvot", 224, (200, 50, 50)))


def option_counts(cli, package: Path) -> tuple[int, int, int]:
    """(run-config leaf keys, CLI flags, defaulted function parameters)."""
    def leaves(section):
        return sum(leaves(v) if isinstance(v, dict) else 1 for v in section.values())

    flags = len(cli.COMMON_FLAGS) + sum(len(own) for _, _, own in cli.COMMANDS.values())
    trees = [ast.parse(path.read_text()) for path in package.glob("*.py")]
    functions = [node for tree in trees for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
    defaulted = sum(len(f.args.defaults) + sum(d is not None for d in f.args.kw_defaults)
                    for f in functions)
    return leaves(cli.DEFAULTS), flags, defaulted


def op_nodes(out, stop=None) -> int:
    """Nodes with parents reachable from `out`, not walking past `stop`."""
    seen, stack = set(), [out]
    while stack:
        node = stack.pop()
        if id(node) in seen or node is stop or not node._parents:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return len(seen)


def graph_counts(swin, tensor) -> tuple[int, dict]:
    """(nodes of the forward and loss, {layer: nodes added by each call in
    order}) for the layers swin_block and patch_merging."""
    calls = {"swin_block": [], "patch_merging": []}
    layers = {name: getattr(swin, name) for name in calls}

    def counting(name):
        def counted(fm, *args, **kwargs):
            out = layers[name](fm, *args, **kwargs)
            calls[name].append((fm.values, out.values))
            return out
        return counted

    cfg = swin.preset("micro")
    rng = np.random.default_rng(0)
    params = swin.init_params(cfg, rng)
    x = tensor.Tensor(rng.random((4, cfg.img_size, cfg.img_size, 3)))
    for name in calls:
        setattr(swin, name, counting(name))
    try:
        logits = swin.forward(x, cfg, params, training=True, rng=np.random.default_rng(1))
    finally:
        for name, layer in layers.items():
            setattr(swin, name, layer)
    loss = tensor.cross_entropy_soft(logits, tensor.Tensor(np.eye(cfg.num_classes)[[0, 1, 1, 0]]))
    return op_nodes(loss), {name: [op_nodes(out, stop=x_in) for x_in, out in pairs]
                            for name, pairs in calls.items()}


# the peak RSS in MB of the interpreter that ran the code before it, as
# `peak`. VmHWM where /proc has it: ru_maxrss carries over the peak of the
# process that started the interpreter
PEAK = """
import resource
try:
    with open("/proc/self/status") as f:
        peak = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
except (OSError, StopIteration):
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
peak /= 1024
"""

# after `import <module>`: the peak, and the site-packages top-level
# packages that the import added to sys.modules
IMPORT = """
import json, sys, sysconfig
before = set(sys.modules)
import {module}
site = tuple({{sysconfig.get_paths()[k] for k in ("purelib", "platlib")}})
added = {{sys.modules[m] for m in set(sys.modules) - before}}
tops = {{m.__name__.split(".")[0] for m in added
        if (getattr(m, "__file__", None) or "").startswith(site)}}
""" + PEAK + """
print(json.dumps([peak, sorted(tops - {{"swinqa"}})]))
"""

# `make_benchmark` of one spec into a temporary directory: the peak
SYNTH = """
import json, tempfile
from swinqa import data
with tempfile.TemporaryDirectory() as d:
    data.make_benchmark(data.SynthSpec(task={task!r}, size={size}, seed=1234),
                        *{splits}, d + "/dataset")
""" + PEAK + """
print(json.dumps(peak))
"""

# `init_params` of `tiny` at 224x224: the peak and the parameter count
INIT = """
import json
import numpy as np
from swinqa import swin
cfg = swin.preset("tiny", img_size=224)
params = swin.init_params(cfg, np.random.default_rng(0))
""" + PEAK + """
print(json.dumps([peak, swin.count_params(cfg)]))
"""


# a `tiny` checkpoint with all four groups at `path`; one buffer stands in
# for each group, so that writing it needs the memory of one
CKPT_WRITE = """
import numpy as np
from swinqa import swin, train
cfg = swin.preset("tiny", img_size=224)
flat = swin.init_weights(cfg, np.random.default_rng(0))
train.save_checkpoint({path!r}, train.Checkpoint(
    config=cfg, params=swin.param_tensors(cfg, flat), optim=train.OptimState(m=flat, v=flat),
    best_params=flat, best_epoch=1, epoch=1,
    history=[{{"epoch": 1, "train_loss": 0.69, "val_acc": 50.0, "val_auc": 0.5, "lr": 1e-4}}]))
print(0)
"""

# load that checkpoint, then one no-grad forward at batch 1 with its best
# weights: the peak and the file size
CKPT_EVAL = """
import json, os
import numpy as np
from swinqa import swin, tensor, train
ckpt = train.load_checkpoint({path!r})
x = np.random.default_rng(1).random((1, 224, 224, 3))
with tensor.no_grad():
    swin.forward(x, ckpt.config, swin.param_tensors(ckpt.config, ckpt.best_params))
""" + PEAK + """
print(json.dumps([peak, os.path.getsize({path!r})]))
"""


# two no-grad `evaluate`s of preset `name` on `batch` gray uint8 images in
# one batch: the peak before them, the rise the first adds, and the traced
# peak of the second
EVAL = """
import json, tracemalloc
import numpy as np
from swinqa import data, swin, train
cfg = swin.preset({name!r})
params = swin.init_params(cfg, np.random.default_rng(0))
rng = np.random.default_rng(1)
shape = (cfg.img_size, cfg.img_size)
records = [data.SampleRecord(source=str(i), label=i % 2,
                             image=rng.integers(0, 256, shape, dtype=np.uint8))
           for i in range({batch})]
""" + PEAK + """
before = peak
train.evaluate(cfg, params, records, batch_size={batch})
""" + PEAK + """
tracemalloc.start()
train.evaluate(cfg, params, records, batch_size={batch})
print(json.dumps([before, peak - before, tracemalloc.get_traced_memory()[1]]))
"""
EVAL_CASES = (("micro", 64), ("tiny", 32))


# `swinqa eval --split test` of checkpoint `ckpt` on `manifest`: the peak
CLI_EVAL = """
import contextlib, io, json
from swinqa import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["eval", "--checkpoint", {ckpt!r}, "--manifest", {manifest!r},
                     "--split", "test", "--out", {out!r}]) == 0
""" + PEAK + """
print(json.dumps(peak))
"""
EVAL_TRAIN_ROWS = (100, 10_000)


def eval_peaks(src: Path, d: str) -> list:
    """CLI_EVAL's peak for a manifest of 100 test images and each of
    EVAL_TRAIN_ROWS train rows; the rows past the first 100 repeat one file."""
    from swinqa import data, swin, train

    manifest = data.make_benchmark(data.SynthSpec(seed=1234), 100, 2, 100, d + "/dataset")
    ckpt = os.path.join(d, "micro.swq")
    cfg = swin.preset("micro")
    train.save_checkpoint(ckpt, train.Checkpoint(
        config=cfg, params=swin.init_params(cfg, np.random.default_rng(0))))
    header, *rows = Path(manifest).read_text().splitlines()
    train_rows = [r for r in rows if r.endswith(",train")]
    peaks = []
    for n in EVAL_TRAIN_ROWS:
        path = os.path.join(d, "dataset", f"manifest_{n}.csv")
        extra = train_rows[:1] * (n - len(train_rows))
        Path(path).write_text("\n".join([header, *rows, *extra]) + "\n")
        peaks.append(fresh_run(src, CLI_EVAL.format(ckpt=ckpt, manifest=path, out=d + "/out")))
    return peaks


def fresh_run(src: Path, code: str):
    """The JSON that `code` prints, run by a fresh interpreter that
    imports swinqa from `src`."""
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/src_stats.py <tree>", file=sys.stderr)
        return 2
    src = Path(argv[1]).resolve() / "src"
    package = src / "swinqa"
    if not (package / "__init__.py").is_file():
        print(f"error: no swinqa package under {src}", file=sys.stderr)
        return 2
    total = 0
    for path in sorted(package.glob("*.py")):
        lines = len(path.read_text().splitlines())
        total += lines
        print(f"{lines:>6}  src/swinqa/{path.name}")
    print(f"{total:>6}  total")
    sys.path.insert(0, str(src))
    from swinqa import cli, swin, tensor

    keys, flags, defaulted = option_counts(cli, package)
    print(f"options: {keys} run-config keys, {flags} CLI flags, "
          f"{defaulted} defaulted parameters")
    nodes, per_call = graph_counts(swin, tensor)
    per_block, per_merge = per_call["swin_block"], per_call["patch_merging"]
    print(f"micro training forward, batch 4: {nodes - 1} nodes ({nodes} with the loss)")
    print(f"nodes per block: {' '.join(map(str, per_block))}")
    print(f"nodes per merge: {' '.join(map(str, per_merge))}")
    print(f"stem and head: {nodes - 1 - sum(per_block) - sum(per_merge)} nodes")
    base, _ = fresh_run(src, IMPORT.format(module="numpy"))
    peak, tops = fresh_run(src, IMPORT.format(module="swinqa.cli"))
    print(f"import swinqa.cli: peak RSS {peak:.1f} MB (numpy alone {base:.1f} MB), "
          f"third-party packages: {' '.join(tops) or 'none'}")
    for task, size, splits in SYNTH_CASES:
        peak = fresh_run(src, SYNTH.format(task=task, size=size, splits=splits))
        print(f"make_benchmark {task} {size}x{size} {'/'.join(map(str, splits))}: "
              f"peak RSS {peak:.1f} MB")
    peak, n = fresh_run(src, INIT)
    print(f"init_params tiny 224x224: peak RSS {peak:.1f} MB, "
          f"parameters {n:,} x 4 bytes = {n * 4 / 2**20:.1f} MB")
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "tiny.swq")
        fresh_run(src, CKPT_WRITE.format(path=path))
        peak, size = fresh_run(src, CKPT_EVAL.format(path=path))
    print(f"tiny checkpoint, 4 groups ({size / 2**20:.1f} MB), load and a b1 forward "
          f"with the best weights: peak RSS {peak:.1f} MB")
    for name, batch in EVAL_CASES:
        before, rise, traced = fresh_run(src, EVAL.format(name=name, batch=batch))
        print(f"{name} evaluate, {batch} gray uint8 images in one batch: peak RSS "
              f"+{rise:.1f} MB over {before:.1f} MB; traced peak of a second "
              f"{traced / 2**20:.2f} MiB")
    with tempfile.TemporaryDirectory() as d:
        peaks = eval_peaks(src, d)
    print("swinqa eval --split test, 100 micro images, peak RSS: " + ", ".join(
        f"{peak:.1f} MB with {n:,} train rows" for n, peak in zip(EVAL_TRAIN_ROWS, peaks)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
