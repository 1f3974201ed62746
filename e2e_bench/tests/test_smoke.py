"""Tiny-scale runs of every workload: output contract, metric names and spans."""

import json
import re
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH

ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_names_match_the_runner():
    from run import END_TO_END_UNITS, PER_LAYER_UNITS

    assert [w["name"] for w in SPEC["workloads"]] == ["fine-assoc", "coarse-thread2", "ooc-caveman"]
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert e2e == END_TO_END_UNITS
    assert layer == PER_LAYER_UNITS
    names = list(e2e) + list(layer) + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for unit in list(e2e.values()) + list(layer.values()):
        assert UNIT.match(unit), unit


def run_bench(workload, trace, tmp_path, cwd=ROOT):
    spans = tmp_path / "spans.jsonl"
    proc = subprocess.run(
        [sys.executable, str(cwd / "e2e_bench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0.2", "--trace", str(trace), "--scale", "tiny",
         "--spans-out", str(spans)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc, spans


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, tmp_path):
    proc, spans = run_bench(workload, trace, tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[-2])["info"]
    assert info["num_edges"] > 0 and info["k2"] >= info["k1"] > 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if trace:
        records = [json.loads(line) for line in spans.read_text().splitlines()]
        assert records
        for rec in records:
            assert set(rec) == {"name", "start", "end", "parent", "workload", "rep"}
            assert rec["workload"] == workload and rec["end"] >= rec["start"]
        names = {rec["name"] for rec in records}
        assert {"repetition", "sweep_call", "cluster:best_cut", "phase:sweep"} <= names
        m = {name: v["value"] for name, v in result["metrics"].items()}
        assert m["sweep.busy_s"] > 0 and m["store.build_s"] > 0 and m["cluster.best_cut_s"] > 0
        assert m["sweep.merges"] == info["num_edges"] - 1
        assert m["failed_frac"] == 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "e2e_bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc, _ = run_bench("fine-assoc", 0, tmp_path, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
