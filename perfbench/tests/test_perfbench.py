"""Self-tests of the benchmark at tiny size.

Run from the repository root::

    python -m pytest perfbench/tests -q

Every workload runs, every metric named in BENCHMARK.json is emitted
with its unit, a planted wrong expectation makes the run fail, and
the command refuses to run without the sources it measures.
"""

import json
import math
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import host  # noqa: E402
from flow_explore import Explore  # noqa: E402
from spans import Span, attribute  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*extra, cwd=ROOT):
    command = [sys.executable, str(cwd / "perfbench" / "run.py"),
               "--seed", "3", "--seconds", "2", "--size", "tiny", *extra]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def last_json(out):
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_metrics(result, spec_metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in spec_metrics]
    for spec in spec_metrics:
        value = metrics[spec["name"]]
        assert value["unit"] == spec["unit"]
        assert math.isfinite(value["value"])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_end_to_end_metric_emitted(workload):
    out = run("--workload", workload, "--trace", "0")
    assert out.returncode == 0, out.stdout + out.stderr
    result = last_json(out)
    check_metrics(result, SPEC["end_to_end"])
    for spec in SPEC["end_to_end"]:
        assert result["metrics"][spec["name"]]["value"] > 0
    assert '"pinned_cpus": [' in out.stdout


def test_every_layer_metric_emitted_and_reconciled():
    out = run("--workload", "wide", "--trace", "1")
    assert out.returncode == 0, out.stdout + out.stderr
    metrics = last_json(out)["metrics"]
    check_metrics(last_json(out), SPEC["per_layer"])
    assert out.stdout.count(") + unattributed") == 4
    assert "live ladder:" in out.stdout
    # Every timed layer was seen: a wrapper that never ran reads NaN
    # (and fails the run), and these are time spent, so never 0.
    for spec in SPEC["per_layer"]:
        if spec["unit"] in ("s", "ms"):
            assert metrics[spec["name"]]["value"] > 0, spec["name"]


@pytest.mark.parametrize("plant", ["folded", "calls", "ticks"])
def test_planted_wrong_answer_fails(plant):
    out = run("--workload", "narrow", "--trace", "0", "--plant", plant)
    assert out.returncode != 0
    result = last_json(out)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "FAILED:" in out.stdout


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    out = run("--workload", "narrow", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_steps_are_scaled_by_their_own_host_factor():
    flow = Explore(ctx=None)
    flow.sweep_runs = [(100, 2.0), (100, 1.0)]  # (verified, seconds)
    assert flow.result()["metrics"]["schedules_per_s"] == \
        pytest.approx(200 / 3.0)
    # the first sweep ran on a host twice as slow as nominal
    assert flow.result([2.0, 1.0])["metrics"]["schedules_per_s"] == \
        pytest.approx(200 / 2.0)
    assert host.factor(host.REFERENCE_MS, 3 * host.REFERENCE_MS) == \
        pytest.approx(2.0)


# ----------------------------------------------------------------------
# self time by even split

def span(name, start, end, parent=None, layer=True):
    s = Span(name, start, parent, None, 0, layer)
    s.end = end
    return s


def test_nested_self_time_is_duration_minus_children():
    root = span("root", 0.0, 10.0, layer=False)
    a = span("a", 1.0, 6.0, root)
    b = span("b", 2.0, 4.0, a)
    got = attribute([root, a, b], 0.0, 10.0)
    assert got[root] == pytest.approx(5.0)
    assert got[a] == pytest.approx(3.0)
    assert got[b] == pytest.approx(2.0)


def test_concurrent_spans_split_time_and_sum_to_covered():
    root = span("root", 0.0, 4.0, layer=False)
    a = span("a", 0.0, 2.0, root)
    b = span("b", 1.0, 3.0, root)
    got = attribute([root, a, b], 0.0, 4.0)
    assert got[a] == pytest.approx(1.5)
    assert got[b] == pytest.approx(1.5)
    assert got[root] == pytest.approx(1.0)
    assert sum(got.values()) == pytest.approx(4.0)  # the time covered
