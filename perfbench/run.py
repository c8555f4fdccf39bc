"""Run one swinqa benchmark workload and print its metrics.

    python3 perfbench/run.py --workload screen-micro-b64 --seed 1 --seconds 30 --trace 0

Run it from the root of a source tree: it imports ``swinqa`` from ``src/``
and reads the metric names from ``BENCHMARK.json``. The process is the
workload's only process; BLAS is pinned to one thread before numpy loads.

Output: an ``env`` line (machine, load, versions, BLAS), one ``metric``
line per metric with its unit, one ``check`` line per correctness check,
the ``verdict``, and as the last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` gives
the end-to-end metrics, ``--trace 1`` the per-layer ones. Exit status 0
means the result was printed; the program's own failures show up in
``failed`` and ``correct``, not in the exit status.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import sys
from pathlib import Path

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
# workload -> default input seed; train-desk's is the acceptance-test dataset's
DEFAULT_SEEDS = {"train-desk": 1234, "screen-micro-b64": 1, "screen-tiny-b1": 1}


def pin_blas() -> None:
    """Must run before numpy is imported: OpenBLAS reads these once."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before BLAS was pinned")
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)


def import_program() -> None:
    """Put the source tree's swinqa first on the path."""
    src = ROOT / "src"
    if not (src / "swinqa" / "__init__.py").is_file():
        raise FileNotFoundError(f"no swinqa package under {src}")
    sys.path.insert(0, str(src))


def _git_commit() -> str:
    """HEAD of the source tree, read from .git without running git;
    "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads_in_use():
    """Thread count OpenBLAS reports at run time, if its library is found."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def cpu_steal_s():
    """Seconds the hypervisor ran something else on this machine's CPUs,
    from /proc/stat; None where that is not available."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_in_use": _blas_threads_in_use(),
        "commit": _git_commit(),
    }


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def emit(header: str, env: dict, out, declared: dict) -> None:
    """Print the run's lines and, last, its result. A run the program
    failed may lack metrics; they are printed as nan."""
    correct = out.failed == 0 and all(passed for _, passed, _ in out.checks)
    extra, missing = set(out.metrics) - set(declared), set(declared) - set(out.metrics)
    if extra or (missing and correct):
        raise RuntimeError(f"metrics {sorted(extra | missing)} are printed or declared "
                           f"in BENCHMARK.json, not both")
    metrics = {name: out.metrics.get(name, math.nan) for name in declared}
    print(header)
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {declared[name]}")
    for name, value in out.notes.items():
        print(f"note {name} {value}")
    for name, passed, detail in out.checks:
        print(f"check {'PASS' if passed else 'FAIL'} {name} {detail}")
    print(f"verdict {'PASS' if correct else 'FAIL'} failed {out.failed}/{out.attempted} "
          f"(fail_frac {out.failed / max(out.attempted, 1):g})")
    print(json.dumps({
        "correct": correct, "attempted": out.attempted, "failed": out.failed,
        "metrics": {name: {"value": value, "unit": declared[name]}
                    for name, value in metrics.items()}}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=DEFAULT_SEEDS)
    parser.add_argument("--seed", type=int, help="input seed (default: the workload's)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    pin_blas()
    try:
        import_program()
        declared = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    except (OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    import workloads

    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    scratch = ROOT / ".perfbench_work"
    ctx = workloads.Context(workload=args.workload, seed=seed, seconds=args.seconds,
                            trace=bool(args.trace), work=scratch / f"run-{os.getpid()}",
                            traces=scratch / "traces")
    env = environment()
    env["loadavg_before"] = os.getloadavg()
    steal_before = cpu_steal_s()
    shutil.rmtree(ctx.work, ignore_errors=True)
    ctx.work.mkdir(parents=True)
    try:
        out = workloads.run(ctx)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    env["loadavg_after"] = os.getloadavg()
    steal_after = cpu_steal_s()
    env["cpu_steal_s"] = None if steal_before is None else steal_after - steal_before

    emit(f"perfbench {args.workload} seed={seed} seconds={args.seconds:g} trace={args.trace}",
         env, out, declared)
    return 0


if __name__ == "__main__":
    sys.exit(main())
