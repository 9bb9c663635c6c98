"""Metric names, BENCHMARK.json and layers.json agree with bench.py, and
run.py behaves as the benchmark contract asks."""

import json
import re
import shutil
import subprocess
import sys

from conftest import BENCH, ROOT

import bench

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_metric_names_and_units_are_well_formed_and_unique():
    table = bench.END_TO_END + bench.PER_LAYER
    for name, unit, better in table:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
        assert better in ("lower", "higher")
    names = [name for name, _, _ in table]
    assert len(names) == len(set(names))


def test_benchmark_json_lists_the_tables_of_bench_py():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    assert e2e == list(bench.END_TO_END)
    layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert layers == list(bench.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert all(NAME.fullmatch(w["name"]) for w in spec["workloads"])


def test_layers_json_gives_every_per_layer_metric_one_row():
    rows = json.loads((BENCH / "layers.json").read_text(encoding="utf-8"))["rows"]
    e2e = {name for name, _, _ in bench.END_TO_END} | {
        "label.audio_s_per_s", "train.utt_per_s", "predict.utt_per_s",
        "condition.phones_per_s"}
    for row in rows:
        assert set(row["moves"]) <= e2e
        assert set(row["workloads"]) <= set(bench.WORKLOADS)
    prefixes = [p for row in rows for p in row["layers"]]
    assert len(prefixes) == len(set(prefixes))
    for name, _, _ in bench.PER_LAYER:
        matches = [p for p in prefixes if name == p or name.startswith(p + ".")]
        assert matches, name


def test_run_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "label", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout == ""


def test_traced_run_reports_every_per_layer_metric():
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "text-pipeline",
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _, _ in bench.PER_LAYER]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["model.loss_and_grads.calls"] > 0 and m["dsp.estimate_f0.calls"] == 0
    assert m["embeddings.semantic_rows.distinct_frac"] < 1
    assert 12 <= m["graph.edges_per_utt"] <= 20  # shapes of 12 to 20 edges
    assert 0 < m["cli.condition.unattributed_frac"] < 1
