import dataclasses
import json
from pathlib import Path

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


def test_build_succeeds_where_the_table_strays_from_powers_of_p1(tmp_path):
    # at this seed and 1000 trials the table's level-2 entry lies more than
    # 3 sigma from p1**2; set-up compares no two Monte-Carlo estimates, so
    # the build goes through
    output = str(tmp_path / "x.idx")
    result = run_cli(
        ["build", "--input", "synth:n=10000,d=32", "--radius", "0.4", "--trials", "1000",
         "--budget-L", "2", "--seed", "35", "--cache-dir", str(tmp_path / "cache"),
         "--output", output]
    )
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["output"] == output and doc["n"] == 10000 and doc["repetitions"] == 2


def test_build_rebuildable_flag(tmp_path):
    full = str(tmp_path / "full.idx")
    slim = str(tmp_path / "slim.idx")
    base = ["build", "--input", "synth:n=200,d=8", "--radius", "0.4",
            "--cache-dir", str(tmp_path / "cache")] + COMMON
    r1 = run_cli(base + ["--output", full])
    r2 = run_cli(base + ["--output", slim, "--rebuildable"])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert json.loads(r2.output)["bytes"] < json.loads(r1.output)["bytes"]
    # a negative seed, valid for a calibration, builds from synthetic input too
    r3 = run_cli(base + ["--output", slim, "--rebuildable", "--seed", "-1"])
    assert r3.exit_code == 0, r3.output


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
    # a negative seed plants its instance as its 63-bit mask does
    again = run_cli(
        ["bench", "--input", "synth:n=300,d=8,t=4", "--radius", "0.4",
         "--mode", "brute", "--queries", "5", "--output", out] + COMMON + ["--seed", "-1"]
    )
    assert again.exit_code == 0, again.output
    assert json.loads(again.output)["aggregates"]["brute"]["mean_recall"] == 1.0


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


def test_build_from_a_vector_file(tmp_path):
    # the same float32 rows as .fvecs, the default format, and as .csv build
    # the same index file, and it answers queries
    mat = np.random.default_rng(11).normal(size=(200, 8)).astype(np.float32)
    fvecs, csv = tmp_path / "base.fvecs", tmp_path / "base.csv"
    np.hstack([np.full((200, 1), 8, dtype="<i4"), mat.astype("<f4").view("<i4")]).tofile(fvecs)
    np.savetxt(csv, mat.astype(np.float64), delimiter=",")
    base = ["build", "--radius", "0.4", "--cache-dir", str(tmp_path / "cache")] + COMMON
    outputs = []
    for path, fmt in ((fvecs, []), (csv, ["--format", "csv"])):
        outputs.append(str(tmp_path / f"{path.suffix[1:]}.idx"))
        result = run_cli(base + ["--input", str(path), *fmt, "--output", outputs[-1]])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert (doc["n"], doc["d"], doc["degenerate_ids"]) == (200, 8, [])
    assert Path(outputs[0]).read_bytes() == Path(outputs[1]).read_bytes()
    vec = ",".join(str(v) for v in mat[3])
    q = run_cli(["query", "--index", outputs[0], "--vector", vec, "--mode", "brute"])
    assert q.exit_code == 0, q.output
    assert 3 in json.loads(q.output)["ids"]


def test_trend_brute(tmp_path):
    out = tmp_path / "trend.json"
    result = run_cli(
        ["trend", "--sizes", "200,400,800", "--dim", "8", "--radius", "0.4",
         "--mode", "brute", "--queries", "5", "--planted", "3",
         "--trials", "2000", "--seed", "5", "--output", str(out)]
    )
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert 0.9 <= doc["exponent"] <= 1.1
    # the written report is the printed one without its own path
    assert doc.pop("report_path") == str(out)
    assert json.loads(out.read_text()) == doc


def test_query_at_the_centroid_reports_json_error(tmp_path):
    # a synthetic dataset is centred at the origin, so the zero vector is
    # its centroid and has no direction to search
    idx_path = str(tmp_path / "demo.idx")
    built = run_cli(
        ["build", "--input", "synth:n=200,d=8", "--radius", "0.4",
         "--cache-dir", str(tmp_path / "cache"), "--output", idx_path] + COMMON
    )
    assert built.exit_code == 0, built.output
    result = make_runner().invoke(
        main, ["query", "--index", idx_path, "--vector", ",".join(["0"] * 8)]
    )
    assert result.exit_code == 1
    err = json.loads(_stderr_of(result))
    assert err["error"]["type"] == "ValueError"
    assert "query has norm 0 after centering" in err["error"]["message"]


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
    # a missing field, a field given twice, whose last value would win, a
    # fragment with no value and a field the spec does not know
    for spec, message in (("synth:n=100", "needs at least n and d"),
                          ("synth:n=500,d=8,n=600", "field 'n' given twice"),
                          ("synth:n=100,d", "bad synthetic spec fragment 'd'"),
                          ("synth:n=100,d=4,k=2", "unknown synthetic field 'k', expected n, d, or t")):
        result = make_runner().invoke(
            main,
            ["build", "--input", spec, "--radius", "0.4", "--output", "/tmp/never-written.idx"],
        )
        assert result.exit_code == 1
        err = json.loads(_stderr_of(result))
        assert err["error"]["type"] == "ValueError"
        assert message in err["error"]["message"]


def test_semantic_error_reports_json_error(tmp_path):
    # planting more points than the dataset can hold
    result = make_runner().invoke(
        main,
        ["bench", "--input", "synth:n=10,d=4,t=10", "--radius", "0.4",
         "--queries", "5", "--trials", "2000"],
    )
    assert result.exit_code == 1
    err = json.loads(_stderr_of(result))
    assert err["error"]["type"] == "ValueError"


@pytest.mark.parametrize("verb", [
    ["bench", "--input", "synth:n=300,d=8,t=4", "--radius", "0.4"],
    ["trend", "--sizes", "200,400,800", "--dim", "8", "--radius", "0.4", "--planted", "3"],
], ids=["bench", "trend"])
def test_a_wrong_answer_reports_json_error(monkeypatch, verb):
    # a reported point outside the true range stops the run with the JSON
    # error every other failure gives, not a traceback
    import mlslsh.bench as bench_mod

    original = bench_mod.run_query

    def with_a_far_point(mode, index, dataset, q, radius, fixed):
        report = original(mode, index, dataset, q, radius, fixed)
        far = int(np.argmax(np.linalg.norm(dataset.matrix - q, axis=1)))
        return dataclasses.replace(report, ids=report.ids + (far,))

    monkeypatch.setattr(bench_mod, "run_query", with_a_far_point)
    result = make_runner().invoke(main, verb + ["--mode", "brute", "--queries", "5"] + COMMON)
    assert result.exit_code == 1
    err = json.loads(_stderr_of(result))
    assert err["error"]["type"] == "WrongAnswerError"
    assert "non-members" in err["error"]["message"]


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


def test_query_notes_an_infeasible_pin_and_an_uncalibrated_radius():
    # the committed version 1 index (K = 4, R = 3) affords only (1, 1); a pin
    # past it and a radius other than the calibrated 0.4 are answered, with
    # one line each on stderr and the JSON on stdout as before
    path = str(Path(__file__).parent / "data" / "v1_full.idx")
    vec = "0.2332,0.1534,0.0242,0.1771,-0.7474,0.2699,-0.2536,-0.4409"
    cases = [
        (["--mode", "fixed", "--fixed-k", "1", "--fixed-j", "1"], []),
        (["--mode", "fixed", "--fixed-k", "4", "--fixed-j", "4"],
         ["note: setting (4, 4) needs more repetitions than the 3 built"]),
        (["--mode", "adaptive", "--radius", "0.4"], []),
        (["--mode", "adaptive", "--radius", "1.2"],
         ["warning: radius 1.2 differs from the calibrated radius 0.4"]),
        (["--mode", "fixed", "--fixed-k", "2", "--fixed-j", "3", "--radius", "1.2"],
         ["warning: radius 1.2", "note: setting (2, 3)"]),
    ]
    for args, notes in cases:
        result = make_runner().invoke(main, ["query", "--index", path, "--vector", vec, *args])
        assert result.exit_code == 0, result.output
        lines = _stderr_of(result).splitlines()
        assert len(lines) == len(notes)
        assert all(line.startswith(note) for line, note in zip(lines, notes))
        assert json.loads(result.stdout)["mode"] == args[1]
