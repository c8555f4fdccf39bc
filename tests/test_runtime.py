"""The runtime's process-wide footprint: which packages an import loads,
and the heap policy that keeps a screening loop from faulting its
activations back in. Each check runs in a fresh interpreter, since both
are properties of a whole process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import swinqa

SRC = str(Path(swinqa.__file__).resolve().parent.parent)


def run_python(code: str, returncode: int = 0) -> str:
    """stdout of `code` run in a fresh interpreter with one BLAS thread,
    which must exit with `returncode` (-N if signal N ended it)."""
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == returncode, done.stderr
    return done.stdout


def test_runtime_imports_no_scipy():
    out = run_python(
        "import sys\n"
        "import swinqa.cli, swinqa.train, swinqa.augment, swinqa.data, swinqa.swin, "
        "swinqa.tensor\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    assert out.strip() == "[]"


def on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


def test_heap_policy_is_set_on_glibc_and_skipped_elsewhere():
    assert swinqa.set_heap_policy() is on_glibc()


@pytest.mark.skipif(not on_glibc(), reason="the heap policy is glibc's")
def test_screening_requests_fault_no_pages_in_after_warm_up():
    # micro at 64x64, one batch of 64 per request, as perfbench's
    # screen-micro-b64 scores it; requests 0-2 warm the heap up
    out = run_python(
        "import json, resource, sys\n"
        "import numpy as np\n"
        "from swinqa import augment, data, swin, train\n"
        "cfg = swin.preset('micro', img_size=64)\n"
        "params = swin.init_params(cfg, np.random.default_rng(0))\n"
        "rng = np.random.default_rng(1)\n"
        "records = [data.SampleRecord('x', i % 2, 'test',\n"
        "                             image=(rng.random((64, 64)) * 255).astype(np.uint8))\n"
        "           for i in range(64)]\n"
        "faults = []\n"
        "for _ in range(7):\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    train.evaluate(cfg, params, records, augment.AugConfig(), batch_size=64)\n"
        "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        "assert not any(m.startswith('scipy') for m in sys.modules)\n"
        "print(json.dumps(faults))\n")
    faults = json.loads(out)
    assert max(faults[3:7]) <= 64, faults
