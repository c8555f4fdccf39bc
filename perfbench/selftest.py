"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Checks, on short runs of every workload:

- a traced run leaves every attribute of the swinqa modules and of the
  Tensor class the very object it was before;
- each traced request's self times add up to its wall time (the run's
  own ``trace_self_times_sum_to_wall`` check passes);
- every metric a run prints is declared in BENCHMARK.json, and every
  declared metric is printed;
- ``tensor.ops``, ``tensor.matmul.calls`` and ``tensor.matmul.macs`` are
  identical across two traced runs with different seeds;
- a train-desk run whose training aborts on a non-finite loss still
  prints every metric, a FAIL verdict and a result with correct false;
- in a directory that holds only BENCHMARK.json and perfbench/, run.py
  exits non-zero without printing a result.

Exit status 0 when every test passes. Takes about three minutes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

ROOT = run.ROOT
EXACT_COUNTS = ("tensor.ops", "tensor.matmul.calls", "tensor.matmul.macs")
SHORT_SECONDS = 2
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def run_cli(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SHORT_SECONDS),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def test_workload(workload: str, declared: dict) -> None:
    counts = []
    for seed, trace in ((1, 0), (1, 1), (2, 1)):
        code, lines, err = run_cli(workload, seed, trace)
        label = f"{workload} seed {seed} trace {trace}"
        expect(code == 0 and bool(lines), f"{label}: exits 0 with output {err[-300:]}")
        if code != 0 or not lines:
            continue
        result = json.loads(lines[-1])
        expect(set(result) == RESULT_KEYS and result["attempted"] >= 1,
               f"{label}: last line has exactly {sorted(RESULT_KEYS)}")
        expect(result["correct"] and result["failed"] == 0,
               f"{label}: correct, no failed requests")
        kind = "per_layer" if trace else "end_to_end"
        printed = {line.split()[1] for line in lines if line.startswith("metric ")}
        expect(printed == set(result["metrics"]) == set(declared[kind]),
               f"{label}: printed metrics are exactly the declared {kind} metrics")
        checks = [line for line in lines if line.startswith("check ")]
        expect(all(c.startswith("check PASS") for c in checks),
               f"{label}: all {len(checks)} checks pass")
        if trace:
            expect(any("trace_self_times_sum_to_wall" in c for c in checks)
                   and any("trace_wrappers_restored" in c for c in checks),
                   f"{label}: trace checks ran")
            counts.append({k: result["metrics"][k]["value"] for k in EXACT_COUNTS})
    if len(counts) == 2:
        expect(counts[0] == counts[1], f"{workload}: counts repeat exactly: {counts}")


def snapshot(swinqa) -> dict:
    mods = (swinqa.tensor, swinqa.swin, swinqa.augment, swinqa.data, swinqa.train, swinqa.cli)
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    snap.update({("Tensor", k): v for k, v in vars(swinqa.tensor.Tensor).items()})
    return snap


@contextlib.contextmanager
def work_dir():
    work = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_attributes_restored() -> None:
    """In-process traced run; every attribute is the same object after."""
    import swinqa
    import swinqa.cli
    import workloads

    before = snapshot(swinqa)
    with work_dir() as work:
        ctx = workloads.Context("screen-micro-b64", 3, 1.0, True, work, work / "traces")
        out = workloads.run(ctx)
    after = snapshot(swinqa)
    changed = sorted(f"{owner}.{name}" for owner, name in before.keys() | after.keys()
                     if before.get((owner, name)) is not after.get((owner, name)))
    expect(not changed, f"traced run restores every attribute; changed: {changed}")
    expect(len(out.metrics) > 0 and out.failed == 0, "in-process traced run succeeds")


def test_failed_leg_reported(declared: dict) -> None:
    """Every training loss is NaN, so swinqa aborts both train-desk legs at
    their first step; the run must still report, and report a failure."""
    import numpy as np
    import swinqa.tensor
    import swinqa.train
    import workloads

    original = swinqa.train.cross_entropy_soft
    swinqa.train.cross_entropy_soft = lambda logits, soft: swinqa.tensor.Tensor(np.nan)
    try:
        with work_dir() as work:
            ctx = workloads.Context("train-desk", 1, SHORT_SECONDS, False, work, work / "traces")
            out = workloads.run(ctx)
    finally:
        swinqa.train.cross_entropy_soft = original
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        run.emit("perfbench train-desk with NaN losses", {}, out, declared["end_to_end"])
    lines = printed.getvalue().splitlines()
    result = json.loads(lines[-1])
    expect(any(line.startswith("verdict FAIL") for line in lines)
           and any(line.startswith("check FAIL leg1_completed") for line in lines)
           and not result["correct"] and 0 < result["failed"] == result["attempted"]
           and set(result["metrics"]) == set(declared["end_to_end"]),
           f"train-desk with NaN losses: FAIL verdict, every step failed: {lines[-1]}")


def test_bare_directory() -> None:
    """Only BENCHMARK.json and perfbench/: no program, so no result."""
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, _ = run_cli("screen-micro-b64", 1, 0, cwd=bare)
    expect(code != 0 and not any(line.startswith("{") for line in lines),
           f"bare directory: exit {code}, no result printed")


def main() -> int:
    run.pin_blas()
    run.import_program()
    declared = run.declared_metrics()
    test_bare_directory()
    test_attributes_restored()
    test_failed_leg_reported(declared)
    for workload in run.DEFAULT_SEEDS:
        test_workload(workload, declared)
    print(f"\n{len(failures)} failed" if failures else "\nall passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
