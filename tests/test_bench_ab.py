"""tools/bench_ab.py's parser and summary on canned perfbench/run.py output;
the tool's own runs of perfbench are not part of the suite."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_ab.py"
_SPEC = importlib.util.spec_from_file_location("bench_ab", _PATH)
bench_ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_ab)

METRICS = [{"name": "img_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
           {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]


def run_output(img_per_s, rss, correct=True):
    """Text in the form perfbench/run.py prints for one run."""
    metrics = {"img_per_s": {"value": img_per_s, "unit": "1/s"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return "\n".join([
        "perfbench train-desk seed=1234 seconds=30 trace=0",
        "env " + json.dumps({"commit": "unknown", "nproc": 2}, sort_keys=True),
        f"metric img_per_s {img_per_s!r} 1/s",
        f"metric peak_rss_mb {rss!r} MB",
        "note epochs_per_leg 3",
        "check PASS legs-identical checkpoint and history bytes match",
        f"check {'PASS' if correct else 'FAIL'} finite-loss every step",
        f"verdict {'PASS' if correct else 'FAIL'} failed {0 if correct else 1}/120 "
        f"(fail_frac {0 if correct else 1 / 120:g})",
        json.dumps({"correct": correct, "attempted": 120, "failed": 0 if correct else 1,
                    "metrics": metrics}),
    ]) + "\n"


def test_parse_run_reads_result_env_checks_and_verdict():
    r = bench_ab.parse_run(run_output(150.5, 70.1))
    assert r["correct"] is True and r["attempted"] == 120 and r["failed"] == 0
    assert r["metrics"]["img_per_s"] == {"value": 150.5, "unit": "1/s"}
    assert r["env"] == {"commit": "unknown", "nproc": 2}
    assert r["checks"] == ["PASS legs-identical checkpoint and history bytes match",
                           "PASS finite-loss every step"]
    assert r["verdict"] == "PASS failed 0/120 (fail_frac 0)"
    nan = bench_ab.parse_run(run_output(math.nan, 70.1, correct=False))
    assert math.isnan(nan["metrics"]["img_per_s"]["value"])
    assert nan["verdict"].startswith("FAIL failed 1/120")


@pytest.mark.parametrize("text", ["", "\n\n", "env {}\nnot json\n"])
def test_parse_run_rejects_output_without_a_result(text):
    with pytest.raises(ValueError):
        bench_ab.parse_run(text)


def test_summarize_quartiles_change_and_pairs_won():
    base = [(100.0, 70.0), (110.0, 71.0), (120.0, 70.5), (130.0, 70.0)]
    head = [(105.0, 70.0), (100.0, 70.9), (125.0, 70.6), (math.nan, 69.0)]
    runs = []
    for pair, (b, h) in enumerate(zip(base, head), start=1):
        for side, values in (("base", b), ("head", h)):
            runs.append({"pair": pair, "side": side,
                         **bench_ab.parse_run(run_output(*values, correct=pair != 4))})
    # a run without a result counts in no pair
    runs.append({"pair": 5, "side": "base", "exit": 1, "error": "exit status 1: boom"})
    out = bench_ab.summarize(runs, METRICS)
    img = out["img_per_s"]
    assert img["base"]["values"] == [100.0, 110.0, 120.0, 130.0, None]
    assert img["head"]["values"] == [105.0, 100.0, 125.0, None, None]
    assert img["base"]["median"] == 115.0
    assert (img["base"]["q1"], img["base"]["q3"]) == (102.5, 127.5)
    assert img["head"]["median"] == 105.0
    assert img["pairs"] == 3 and img["pairs_won"] == 2  # higher is better
    assert img["change"] == pytest.approx(105.0 / 115.0 - 1)
    assert (img["unit"], img["better"], img["bound"]) == ("1/s", "higher", 0.25)
    rss = out["peak_rss_mb"]
    assert rss["pairs"] == 4 and rss["pairs_won"] == 2  # lower is better; a tie is no win
    assert rss["head"]["median"] == pytest.approx(70.3)


def test_summarize_of_a_side_without_values_is_strict_json():
    runs = [{"pair": 1, "side": "base", **bench_ab.parse_run(run_output(100.0, 70.0))},
            {"pair": 1, "side": "head", "exit": 1, "error": "exit status 1"}]
    out = bench_ab.summarize(runs, METRICS)
    assert out["img_per_s"]["pairs"] == 0 and out["img_per_s"]["pairs_won"] == 0
    text = json.dumps(bench_ab._clean(out), allow_nan=False)
    assert json.loads(text)["img_per_s"]["head"]["median"] is None
