"""Fast self-test of the benchmark on a tiny instance.

Run from the repository root with `python3 -m pytest perfbench`.
"""

import argparse
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
from mlslsh import query  # noqa: E402

TINY = harness.Workload("tiny", "cross_polytope", n=400, trials=1000, num_queries=4, setup_repeats=1)


def _main(tmp_path, capsys, monkeypatch, trace):
    monkeypatch.setitem(harness.WORKLOADS, TINY.name, TINY)
    args = argparse.Namespace(
        workload=TINY.name, seed=3, seconds=0.0, trace=trace, record_reference=False
    )
    assert harness.main(args, tmp_path) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_benchmark_json_matches_the_harness():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == {
        name: spec[:2] for name, spec in harness.PER_LAYER.items()
    }
    setup_bound = next(m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup_bound for m in doc["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(tmp_path, capsys, monkeypatch, trace):
    lines, result = _main(tmp_path, capsys, monkeypatch, trace)
    registry = harness.PER_LAYER if trace else harness.END_TO_END
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 12
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        name: spec[0] for name, spec in registry.items()
    }
    printed = {line.split()[0]: line.split()[2] for line in lines if len(line.split()) >= 3}
    units = {name: spec[0] for name, spec in harness.END_TO_END.items()}
    for name, unit in (units | harness.REPORTED_ONLY).items():
        assert printed[name] == unit
    assert not (tmp_path / ".perfbench_work").exists()


def test_wrong_ids_and_exceptions_count_as_failures(tmp_path, capsys, monkeypatch):
    adaptive = query.adaptive_multiprobe
    single = query.single_probe_adaptive

    def one_id_too_many(index, q, radius=None):
        report = adaptive(index, q, radius)
        return dataclasses.replace(report, ids=report.ids + (index.size,))

    calls = []

    def raises_once(index, q, radius=None):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("injected")
        return single(index, q, radius)

    monkeypatch.setattr(query, "adaptive_multiprobe", one_id_too_many)
    monkeypatch.setattr(query, "single_probe_adaptive", raises_once)
    lines, result = _main(tmp_path, capsys, monkeypatch, 0)
    assert not result["correct"]
    assert result["failed"] == TINY.num_queries + 1
    error_rate = next(float(line.split()[1]) for line in lines if line.startswith("error_rate"))
    assert error_rate == pytest.approx(result["failed"] / result["attempted"], rel=1e-5)


def test_refuses_to_run_without_the_library_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cp-10k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
