"""The benchmark's own tests.

    PYTHONPATH=src python3 -m pytest perfbench -q

Small shapes of every workload with every output check on; the metric
and workload names in BENCHMARK.json against what run.py prints; the
refusal to run without the program's source; the span bookkeeping of
the traced run; and rainlint on the benchmark's files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from tracing import LayerTracer  # noqa: E402
from workloads import WORKLOADS, run_once  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [3, 11])
def test_small_workload_passes_every_check(name, seed):
    out = run_once(name, seed, small=True)
    assert out.errors == []
    assert out.attempted > 0 and out.completed > 0
    # the small flood stops sending before the known Network._hop_batch
    # fault first fires (t = 14.9 s at full size)
    assert out.failed == 0


def test_inputs_depend_only_on_the_seed():
    for name, wl in WORKLOADS.items():
        assert wl.inputs(5, True) == wl.inputs(5, True), name
    assert WORKLOADS["churn-1k"].inputs(5, False) != WORKLOADS["churn-1k"].inputs(6, False)
    assert WORKLOADS["rainfs-mix"].inputs(5, True) != WORKLOADS["rainfs-mix"].inputs(6, True)


def test_rounds_of_one_workload_report_identical_statistics():
    a = run_once("rainfs-mix", 4, small=True)
    b = run_once("rainfs-mix", 4, small=True)
    assert a.report == b.report


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_are_the_ones_benchmark_json_names(trace, section):
    proc = _run("--workload", "flood-batch", "--seed", "1", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in BENCH[section]}


def test_workload_names_match():
    assert {w["name"] for w in BENCH["workloads"]} == set(WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "churn-1k", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_charges_each_second_to_one_layer():
    tracer = LayerTracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        inner_w()

    inner_w = tracer.wrap_function(inner, "inner", "inner.calls", None)
    outer_w = tracer.wrap_function(outer, "outer", "outer.calls", None)
    outer_w()
    assert tracer.calls == {"outer.calls": 1, "inner.calls": 1}
    assert 0.01 <= tracer.self_s["outer"] < 0.02
    assert 0.02 <= tracer.self_s["inner"] < 0.03


def test_generator_spans_forward_values_and_exceptions():
    tracer = LayerTracer()

    def gen():
        got = yield "first"
        try:
            yield got * 2
        except KeyError:
            return "caught"

    wrapped = tracer.wrap_generator(gen, "g", "g.calls")
    g = wrapped()
    assert next(g) == "first"
    assert g.send(21) == 42
    with pytest.raises(StopIteration) as stop:
        g.throw(KeyError())
    assert stop.value.value == "caught"
    assert tracer.calls["g.calls"] == 1 and tracer.self_s["g"] > 0


def test_benchmark_files_are_lint_clean():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--strict", "perfbench"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
