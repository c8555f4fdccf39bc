"""Run perfbench on two revisions in alternating pairs; write BENCH_<label>.json.

    python3 tools/bench_ab.py --base <rev> [--head <rev>] --label L --pairs N

Run it from a git checkout of swinqa. It extracts `git archive <rev>` of
--base and of --head (default HEAD) into a temporary directory, and runs
each tree's own, unchanged `perfbench/run.py --trace 0` for every workload
of BENCHMARK.json at its default seed and `run_seconds`: pair i runs every
workload on both trees, the base first in odd pairs and the head first in
even ones, so drift between runs falls on both sides alike. The file goes
to the root of the checkout.

Each run's last line (the result JSON) and its `env`, `check` and
`verdict` lines are parsed as `perfbench/report.py::run_once` parses them.
`run.py` reads its commit from `.git`, which an archive lacks, so the
tool writes the commit it archived into each run's env record.

BENCH_<label>.json holds, per workload, every run (pair, side, exit
status, verdict, checks, env, metrics) and, per end-to-end metric, the
values of each side in pair order, their median and quartiles, the
relative change of the head's median, and the pairs the head won (read
better than the base in the same pair). These are tracked numbers, not
gates: the tool exits 0 whatever they say.
"""
from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900
SIDES = ("base", "head")


def parse_run(stdout: str) -> dict:
    """The result of one `perfbench/run.py` output: the last line's JSON,
    with the `env` record, the `check` lines and the `verdict` line."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("run.py printed nothing")
    record = json.loads(lines[-1])
    record["checks"] = []
    for line in lines[:-1]:
        kind, _, rest = line.partition(" ")
        if kind == "env":
            record["env"] = json.loads(rest)
        elif kind == "check":
            record["checks"].append(rest)
        elif kind == "verdict":
            record["verdict"] = rest
    return record


def quartiles(values: list) -> dict:
    """Median and quartiles, as perfbench/report.py summarizes them."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list, metrics: list) -> dict:
    """Per metric of `metrics` (BENCHMARK.json end_to_end entries): each
    side's values by pair (None where the run gave none), their quartiles,
    the head's relative change and the pairs it won."""
    by = {(r["pair"], r["side"]): r for r in runs}
    pairs = sorted({r["pair"] for r in runs})
    out = {}
    for m in metrics:
        def value(pair, side):
            v = by.get((pair, side), {}).get("metrics", {}).get(m["name"], {}).get("value")
            return v if isinstance(v, (int, float)) and math.isfinite(v) else None

        entry = {"unit": m["unit"], "better": m["better"], "bound": m.get("bound")}
        for side in SIDES:
            values = [value(p, side) for p in pairs]
            entry[side] = {"values": values,
                           **quartiles([v for v in values if v is not None] or [math.nan])}
        both = [(value(p, "base"), value(p, "head")) for p in pairs]
        both = [(b, h) for b, h in both if b is not None and h is not None]
        sign = 1 if m["better"] == "higher" else -1
        entry["pairs"] = len(both)
        entry["pairs_won"] = sum(sign * (h - b) > 0 for b, h in both)
        base, head = entry["base"]["median"], entry["head"]["median"]
        entry["change"] = head / base - 1 if base else None
        out[m["name"]] = entry
    return out


def _clean(obj):
    """`obj` with every non-finite float as None, so the file is strict JSON."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_clean(v) for v in obj]
    return obj


def archive(rev: str, dest: Path) -> str:
    """Extract `git archive <rev>` into `dest`; returns the commit's sha."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    dest.mkdir(parents=True)
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, check=True,
                         capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)
    return commit


def run_once(tree: Path, workload: str, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seconds", f"{seconds:g}", "--trace", "0"]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"exit": None, "wall_s": time.perf_counter() - t0,
                "error": f"no result within {RUN_TIMEOUT_S} s"}
    record = {"exit": proc.returncode, "wall_s": time.perf_counter() - t0}
    try:
        if proc.returncode != 0:
            raise ValueError(f"exit status {proc.returncode}")
        record.update(parse_run(proc.stdout))
    except ValueError as e:
        record["error"] = f"{e}: {proc.stderr.strip()[-2000:]}"
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, metavar="REV")
    parser.add_argument("--head", default="HEAD", metavar="REV")
    parser.add_argument("--label", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    work = Path(tempfile.mkdtemp(prefix="bench_ab-"))
    try:
        trees, commits = {}, {}
        for side, rev in zip(SIDES, (args.base, args.head)):
            trees[side] = work / side
            commits[side] = archive(rev, trees[side])
        runs = {w: [] for w in workloads}
        for pair in range(1, args.pairs + 1):
            order = SIDES if pair % 2 else SIDES[::-1]
            for workload in workloads:
                for side in order:
                    r = run_once(trees[side], workload, seconds)
                    if "env" in r:
                        r["env"]["commit"] = commits[side]
                    runs[workload].append({"pair": pair, "side": side, **r})
                    status = r.get("verdict", r.get("error", "?"))[:60]
                    print(f"# pair {pair} {workload} {side}: {status} in {r['wall_s']:.1f} s",
                          flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {"label": args.label, "pairs": args.pairs, "seconds": seconds,
              "base": {"rev": args.base, "commit": commits["base"]},
              "head": {"rev": args.head, "commit": commits["head"]},
              "workloads": {w: {"metrics": summarize(runs[w], spec["end_to_end"]),
                                "runs": runs[w]} for w in workloads}}
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(_clean(result), indent=1, sort_keys=True) + "\n")
    for w in workloads:
        print(f"\n{w}")
        for name, e in result["workloads"][w]["metrics"].items():
            print(f"  {name:<16} {e['base']['median']:>10.4g} -> {e['head']['median']:>10.4g}"
                  f"  won {e['pairs_won']}/{e['pairs']}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
