import json

import numpy as np
import pytest
from click.testing import CliRunner

from mlslsh.cli import main


def make_runner():
    # click 8.2 dropped mix_stderr and always captures the streams separately
    try:
        return CliRunner(mix_stderr=False)
    except TypeError:
        return CliRunner()


def run_cli(args):
    return make_runner().invoke(main, args, catch_exceptions=False)


COMMON = ["--trials", "2000", "--max-probes", "8", "--seed", "5"]


def test_probs_reports_probabilities():
    result = run_cli(
        ["probs", "--dim", "8", "--radius", "0.4", "--approx-c", "2.0",
         "--trials", "2000", "--seed", "3"]
    )
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert 0.0 < doc["p2_used"] < doc["p1"] <= 1.0
    assert doc["rho"] > 0.0
    assert abs(doc["theoretical_rho_euclidean"] - 1.0 / 7.0) < 1e-12


def test_build_and_query_round_trip(tmp_path):
    idx_path = str(tmp_path / "demo.idx")
    result = run_cli(
        ["build", "--input", "synth:n=300,d=8", "--radius", "0.4",
         "--cache-dir", str(tmp_path / "cache"), "--output", idx_path] + COMMON
    )
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert set(doc) == {
        "output", "bytes", "n", "d", "levels", "repetitions",
        "p1", "p1_std_error", "p2", "p2_std_error", "rho", "degenerate_ids",
    }
    assert doc["n"] == 300 and doc["d"] == 8
    assert doc["levels"] >= 1 and doc["repetitions"] >= 1
    assert 0.0 < doc["p1_std_error"] < doc["p1"] and 0.0 < doc["p2_std_error"]

    vec = ",".join(str(v) for v in np.arange(1.0, 9.0))
    for mode in ("adaptive", "single", "brute"):
        q = run_cli(["query", "--index", idx_path, "--vector", vec, "--mode", mode])
        assert q.exit_code == 0, q.output
        qdoc = json.loads(q.output)
        assert qdoc["mode"] == mode
        assert isinstance(qdoc["ids"], list)
        assert "wall_time" not in qdoc

    fixed = run_cli(
        ["query", "--index", idx_path, "--vector", vec, "--mode", "fixed",
         "--fixed-k", "1", "--fixed-j", "2", "--timing"]
    )
    assert fixed.exit_code == 0
    assert "wall_time" in json.loads(fixed.output)


def test_fixed_probes_past_the_table_report_json_error(tmp_path, request):
    idx_path = str(tmp_path / "demo.idx")
    built = run_cli(
        ["build", "--input", "synth:n=200,d=8", "--radius", "0.4",
         "--cache-dir", str(tmp_path / "cache"), "--output", idx_path] + COMMON
    )
    assert built.exit_code == 0, built.output
    request.getfixturevalue("no_reestimation")  # the build itself calibrates
    vec = ",".join(str(v) for v in np.arange(1.0, 9.0))
    result = make_runner().invoke(
        main,
        ["query", "--index", idx_path, "--vector", vec, "--mode", "fixed",
         "--fixed-k", "1", "--fixed-j", "9"],
    )
    assert result.exit_code == 1
    err = json.loads(_stderr_of(result))
    assert err["error"]["type"] == "ValueError"
    assert "1..8" in err["error"]["message"]


def test_build_past_the_key_bit_budget_fails_before_the_probe_table(tmp_path, no_reestimation):
    # at n = 20 the cap family measures p2 near 1, so the depth runs to
    # hundreds of levels of 7 key bits each
    result = make_runner().invoke(
        main,
        ["build", "--input", "synth:n=20,d=4,t=2", "--family", "spherical-cap",
         "--radius", "0.4", "--trials", "1000", "--max-probes", "4",
         "--cache-dir", str(tmp_path / "cache"), "--output", str(tmp_path / "x.idx")],
    )
    assert result.exit_code == 1
    err = json.loads(_stderr_of(result))
    assert err["error"]["type"] == "ValueError"
    assert "key bits" in err["error"]["message"]


def test_build_rebuildable_flag(tmp_path):
    full = str(tmp_path / "full.idx")
    slim = str(tmp_path / "slim.idx")
    base = ["build", "--input", "synth:n=200,d=8", "--radius", "0.4",
            "--cache-dir", str(tmp_path / "cache")] + COMMON
    r1 = run_cli(base + ["--output", full])
    r2 = run_cli(base + ["--output", slim, "--rebuildable"])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert json.loads(r2.output)["bytes"] < json.loads(r1.output)["bytes"]


def test_bench_brute_synthetic(tmp_path):
    out = str(tmp_path / "report.json")
    result = run_cli(
        ["bench", "--input", "synth:n=300,d=8,t=4", "--radius", "0.4",
         "--mode", "brute", "--queries", "5", "--output", out] + COMMON
    )
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["aggregates"]["brute"]["mean_recall"] == 1.0
    assert doc["report_path"] == out
    with open(out) as f:
        saved = json.load(f)
    assert saved["aggregates"] == doc["aggregates"]
    with open(doc["records_path"]) as f:
        records = [json.loads(line) for line in f]
    assert len(records) == 5


def test_bench_adaptive_synthetic(tmp_path):
    result = run_cli(
        ["bench", "--input", "synth:n=400,d=8,t=4", "--radius", "0.4",
         "--mode", "adaptive", "--mode", "brute", "--queries", "5",
         "--cache-dir", str(tmp_path / "cache")] + COMMON
    )
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    agg = doc["aggregates"]["adaptive"]
    assert 0.0 <= agg["mean_recall"] <= 1.0
    assert agg["mean_work"] <= 400.0


def test_trend_brute():
    result = run_cli(
        ["trend", "--sizes", "200,400,800", "--dim", "8", "--radius", "0.4",
         "--mode", "brute", "--queries", "5", "--planted", "3",
         "--trials", "2000", "--seed", "5"]
    )
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert 0.9 <= doc["exponent"] <= 1.1


def _stderr_of(result):
    try:
        return result.stderr
    except ValueError:
        return result.output


def test_missing_index_file_reports_json_error(tmp_path):
    result = make_runner().invoke(
        main,
        ["query", "--index", str(tmp_path / "nope.idx"), "--vector", "1,0"],
    )
    assert result.exit_code == 1
    err = json.loads(_stderr_of(result))
    assert err["error"]["type"] == "FileNotFoundError"


def test_bad_synth_spec_reports_json_error():
    result = make_runner().invoke(
        main,
        ["build", "--input", "synth:n=100", "--radius", "0.4",
         "--output", "/tmp/never-written.idx"],
    )
    assert result.exit_code == 1
    err = json.loads(_stderr_of(result))
    assert err["error"]["type"] == "ValueError"
    assert "d" in err["error"]["message"]


def test_semantic_error_reports_json_error(tmp_path):
    # planting more points than the dataset can hold
    result = make_runner().invoke(
        main,
        ["bench", "--input", "synth:n=10,d=4", "--radius", "0.4",
         "--queries", "5", "--planted", "10", "--trials", "2000"],
    )
    assert result.exit_code == 1
    err = json.loads(_stderr_of(result))
    assert err["error"]["type"] == "ValueError"


def test_csv_input_through_cli(tmp_path):
    rng = np.random.default_rng(7)
    data = str(tmp_path / "data.csv")
    np.savetxt(data, rng.normal(size=(60, 6)), delimiter=",")
    result = run_cli(
        ["bench", "--input", data, "--format", "csv", "--radius", "1.2",
         "--mode", "brute", "--queries", "3"] + COMMON
    )
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["aggregates"]["brute"]["num_queries"] == 3
