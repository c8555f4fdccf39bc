"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/report.py --runs 10 [--trace 0]

Runs every workload of BENCHMARK.json at seeds 1..runs, each
(workload, seed) in its own ``perfbench/run.py`` process, one after
another, for BENCHMARK.json's ``run_seconds``. For every workload and
metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the sample count and the spread
(q3 - q1) / median against the metric's bound, then the correctness
verdict of every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    record = {"workload": workload, "seed": seed, "trace": trace, "exit": proc.returncode,
              "wall_s": time.perf_counter() - t0, "checks": [], "notes": {}}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        record["error"] = proc.stderr.strip()[-2000:]
        return record
    record.update(json.loads(lines[-1]))
    for line in lines[:-1]:
        kind, _, rest = line.partition(" ")
        if kind == "env":
            record["env"] = json.loads(rest)
        elif kind == "check":
            record["checks"].append(rest)
        elif kind == "note":
            name, _, value = rest.partition(" ")
            record["notes"][name] = value
    return record


def summarize(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan")}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    runs = []
    for seed in range(1, args.runs + 1):
        for workload in names:  # interleaved, so drift hits every workload alike
            r = run_once(workload, seed, spec["run_seconds"], args.trace)
            runs.append(r)
            status = "error" if "error" in r else ("PASS" if r["correct"] else "FAIL")
            print(f"# {workload} seed {seed}: {status} in {r['wall_s']:.1f} s", flush=True)

    steady = True
    for workload in names:
        done = [r for r in runs if r["workload"] == workload and "metrics" in r]
        print(f"\n{workload}  ({len(done)} runs)")
        print(f"  {'metric':<32} {'unit':>8} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in done]
            if not values:
                continue
            s = summarize(values)
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                flag = "ok" if s["spread"] <= bound / 3 else ("wide" if s["spread"] <= bound else "FAIL")
                steady &= flag == "ok"
            print(f"  {m['name']:<32} {m['unit']:>8} {s['median']:>12.6g} {s['q1']:>12.6g} "
                  f"{s['q3']:>12.6g} {s['spread']:>7.2%} "
                  f"{'' if bound is None else f'{bound:.2f}':>6} {flag}")
        failed = sum(r["failed"] for r in done)
        attempted = sum(r["attempted"] for r in done)
        bad = [r for r in runs if r["workload"] == workload and (not r.get("correct"))]
        print(f"  correctness: {'PASS' if not bad else 'FAIL'}  failed {failed}/{attempted} "
              f"requests, {len(bad)} of {len([r for r in runs if r['workload'] == workload])} "
              f"runs not correct")
        for r in bad:
            print(f"    seed {r['seed']}: {r.get('error') or [c for c in r['checks'] if c.startswith('FAIL')]}")
    if args.trace == 0:
        print(f"\nspreads within a third of every bound: {'yes' if steady else 'no'}")
    return 0 if all(r.get("correct") for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
