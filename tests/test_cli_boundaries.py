"""CLI boundaries: non-finite query vectors, the index options that build,
bench and trend share, and set-up input that must fail before any Monte
Carlo runs."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

import mlslsh.cli as cli


def invoke(args):
    # click 8.2 dropped mix_stderr and always captures the streams separately
    try:
        runner = CliRunner(mix_stderr=False)
    except TypeError:
        runner = CliRunner()
    return runner.invoke(cli.main, args, catch_exceptions=False)


def error_of(result):
    try:
        text = result.stderr
    except ValueError:
        text = result.output
    return json.loads(text)["error"]


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_query_vector_reports_json_error(tmp_path, bad):
    idx_path = str(tmp_path / "demo.idx")
    built = invoke(
        ["build", "--input", "synth:n=200,d=8", "--radius", "0.4", "--trials", "2000",
         "--max-probes", "8", "--seed", "5", "--cache-dir", str(tmp_path / "cache"),
         "--output", idx_path]
    )
    assert built.exit_code == 0, built.output
    vec = ",".join([bad] + [str(v) for v in np.arange(2.0, 9.0)])
    for mode in (["adaptive"], ["single"], ["brute"], ["fixed", "--fixed-k", "1", "--fixed-j", "1"]):
        result = invoke(["query", "--index", idx_path, "--vector", vec, "--mode", *mode])
        assert result.exit_code == 1, (mode, result.output)
        err = error_of(result)
        assert err["type"] == "ValueError"
        assert "non-finite" in err["message"]


SHARED = ["--radius", "0.3", "--approx-c", "2.5", "--budget-L", "7",
          "--family", "spherical-cap", "--cap-count", "20", "--trials", "1500",
          "--max-probes", "5", "--seed", "9", "--cache-dir", "cal-cache"]
SET = dict(radius=0.3, approx_c=2.5, space_budget=7, family_kind="spherical_cap",
           cap_count=20, trials=1500, max_probes=5, seed=9, cache_dir="cal-cache")
DEFAULTS = dict(radius=0.3, approx_c=2.0, space_budget=None, family_kind="cross_polytope",
                cap_count=64, trials=20000, max_probes=16, seed=0, cache_dir=None)
VERBS = {
    "build": ("build_for_config", ["build", "--input", "synth:n=50,d=4", "--output", "x.idx"]),
    "bench": ("run_benchmark", ["bench", "--input", "synth:n=50,d=4"]),
    "trend": ("scaling_trend", ["trend", "--sizes", "100,200,400", "--dim", "4"]),
}


@pytest.mark.parametrize("verb", sorted(VERBS))
@pytest.mark.parametrize("given,expected", [(SHARED, SET), (SHARED[:2], DEFAULTS)],
                         ids=["set", "defaults"])
def test_shared_index_options_reach_the_config(monkeypatch, verb, given, expected):
    target, args = VERBS[verb]
    seen = []

    def capture(*a, **k):
        seen.extend(x for x in a if isinstance(x, cli.BenchConfig))
        raise ValueError("captured")

    monkeypatch.setattr(cli, target, capture)
    result = invoke(args + given)
    assert result.exit_code == 1 and error_of(result)["message"] == "captured"
    (config,) = seen
    assert {name: getattr(config, name) for name in expected} == expected


@pytest.fixture
def no_monte_carlo(monkeypatch, no_reestimation):
    """Make every Monte-Carlo estimate fail the test: each collision estimate
    behind the edge probabilities, and the probe table."""
    import mlslsh.calibration as calibration

    def never(*args, **kwargs):
        raise AssertionError("a collision probability was measured")

    monkeypatch.setattr(calibration, "estimate_collision_prob", never)


def test_bad_space_budget_fails_before_calibrating(tmp_path, no_monte_carlo):
    result = invoke(["build", "--input", "synth:n=50,d=4", "--radius", "0.4", "--budget-L", "0",
                     "--cache-dir", str(tmp_path), "--output", str(tmp_path / "x.idx")])
    assert result.exit_code == 1
    err = error_of(result)
    assert err["type"] == "ValueError"
    assert err["message"] == "space budget must be a positive integer, got 0"


@pytest.mark.parametrize("verb", [
    ["probs", "--dim", "4"],
    ["build", "--input", "synth:n=50,d=4", "--output", "x.idx"],
], ids=["probs", "build"])
def test_far_radius_off_the_sphere_fails_before_measuring(no_monte_carlo, verb):
    result = invoke(verb + ["--radius", "1.5", "--approx-c", "2"])
    assert result.exit_code == 1
    err = error_of(result)
    assert err["type"] == "ValueError"
    assert err["message"].startswith("far distance c*r = 3 exceeds the sphere diameter")


@pytest.mark.parametrize("verb", [
    ["build", "--input", "synth:n=50,d=4", "--output", "x.idx"],
    ["bench", "--input", "synth:n=50,d=4,t=2", "--queries", "5"],
    ["trend", "--sizes", "100,200,400", "--dim", "4"],
], ids=["build", "bench", "trend"])
def test_bad_max_probes_fails_before_calibrating(tmp_path, no_monte_carlo, verb):
    result = invoke(verb + ["--radius", "0.4", "--max-probes", "0", "--cache-dir", str(tmp_path)])
    assert result.exit_code == 1
    err = error_of(result)
    assert err["type"] == "ValueError"
    assert err["message"] == "need at least one probe, got 0"
