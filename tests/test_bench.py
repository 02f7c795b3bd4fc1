import dataclasses
import json
import math
import struct

import numpy as np
import pytest

from mlslsh.bench import (
    BenchConfig,
    WrongAnswerError,
    build_for_config,
    calibrate_cached,
    default_cache_dir,
    load_vectors,
    prepare_instance,
    read_csv,
    read_fvecs,
    recompute_aggregates,
    run_benchmark,
    scaling_trend,
    write_report,
)
from mlslsh.families import FamilyParams
from mlslsh.geometry import range_scan


def test_fvecs_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    mat = rng.normal(size=(20, 7)).astype(np.float32).astype(np.float64)
    path = str(tmp_path / "v.fvecs")
    # each record: the int32 dimension, then the float32 values
    records = np.hstack([np.full((20, 1), 7, dtype="<i4"), mat.astype("<f4").view("<i4")])
    records.tofile(path)
    back = read_fvecs(path)
    assert back.shape == (20, 7)
    assert np.array_equal(back, mat)
    assert np.array_equal(load_vectors(path, "fvecs"), mat)


def test_fvecs_error_offsets(tmp_path):
    path = tmp_path / "bad.fvecs"

    path.write_bytes(b"")
    with pytest.raises(ValueError, match="empty"):
        read_fvecs(str(path))

    path.write_bytes(b"\x02\x00")  # two bytes of a four-byte header
    with pytest.raises(ValueError, match="byte 0"):
        read_fvecs(str(path))

    path.write_bytes(struct.pack("<i", -1))
    with pytest.raises(ValueError, match="invalid dimension -1 at byte 0"):
        read_fvecs(str(path))

    # full record then a truncated second vector
    rec = struct.pack("<i", 2) + struct.pack("<2f", 1.0, 2.0)
    path.write_bytes(rec + struct.pack("<i", 2) + b"\x00\x00")
    with pytest.raises(ValueError, match=f"byte {len(rec) + 4}"):
        read_fvecs(str(path))

    # dimension changes between records
    path.write_bytes(rec + struct.pack("<i", 3) + struct.pack("<3f", 1, 2, 3))
    with pytest.raises(ValueError, match=f"from 2 to 3 at byte {len(rec)}"):
        read_fvecs(str(path))


def test_csv_round_trip_and_errors(tmp_path):
    rng = np.random.default_rng(4)
    mat = rng.normal(size=(10, 3))
    path = str(tmp_path / "v.csv")
    np.savetxt(path, mat, delimiter=",")
    assert np.array_equal(read_csv(path), mat)
    assert np.array_equal(load_vectors(path, "csv"), mat)
    with pytest.raises(ValueError, match="unknown input format 'npy', expected 'fvecs' or 'csv'"):
        load_vectors(path, "npy")

    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\n1.0,oops\n")
    with pytest.raises(ValueError, match="line 2"):
        read_csv(str(bad))
    bad.write_text("1.0,2.0\n1.0\n")
    with pytest.raises(ValueError, match="line 2"):
        read_csv(str(bad))
    bad.write_text("\n\n")
    with pytest.raises(ValueError, match="no data"):
        read_csv(str(bad))


def test_config_validation():
    # the input fields are checked by their one reader, prepare_instance
    with pytest.raises(ValueError, match="input_path or synthetic"):
        prepare_instance(BenchConfig(radius=0.4, approx_c=2.0))
    with pytest.raises(ValueError, match="need at least one query mode"):
        BenchConfig(radius=0.4, approx_c=2.0, synthetic_n=10, synthetic_d=4, modes=())
    with pytest.raises(ValueError, match="unknown mode"):
        BenchConfig(radius=0.4, approx_c=2.0, synthetic_n=10, synthetic_d=4,
                    modes=("warp",))
    with pytest.raises(ValueError, match="fixed mode"):
        BenchConfig(radius=0.4, approx_c=2.0, synthetic_n=10, synthetic_d=4,
                    modes=("fixed",))
    with pytest.raises(ValueError, match="num_queries must be a positive integer, got 0"):
        BenchConfig(radius=0.4, approx_c=2.0, synthetic_n=10, synthetic_d=4,
                    num_queries=0)


def test_config_rejects_a_pin_without_fixed_mode():
    # a pin that no mode reads would be recorded in the report as if it
    # had been run
    for pin in (dict(fixed_level=3), dict(fixed_probes=2), dict(fixed_level=3, fixed_probes=2)):
        with pytest.raises(ValueError, match="pin fixed mode, which modes leaves out"):
            BenchConfig(radius=0.4, approx_c=2.0, synthetic_n=10, synthetic_d=4,
                        modes=("adaptive", "brute"), **pin)
    config = BenchConfig(radius=0.4, approx_c=2.0, synthetic_n=10, synthetic_d=4,
                         modes=("adaptive", "fixed"), fixed_level=3, fixed_probes=2)
    assert config.to_json_dict()["fixed_level"] == 3


def test_prepare_instance_from_file(tmp_path):
    rng = np.random.default_rng(9)
    raw = rng.normal(size=(30, 6))
    path = str(tmp_path / "data.csv")
    np.savetxt(path, raw, delimiter=",")
    config = BenchConfig(
        radius=0.7, approx_c=2.0, input_path=path, input_format="csv", num_queries=4
    )
    dataset, queries, truth = prepare_instance(config)
    assert dataset.size == 26
    assert len(queries) == 4 and len(truth) == 4
    # queries are the held-out tail, mapped with the training centroid
    assert queries.shape == (4, 6) and queries.dtype == np.float64
    for i, q in enumerate(queries):
        manual = raw[26 + i] - dataset.centroid
        manual /= np.linalg.norm(manual)
        assert np.allclose(q, manual, atol=1e-12)
        assert truth[i] == frozenset(
            int(v) for v in range_scan(dataset.matrix, q, 0.7)[0]
        )


def test_prepare_instance_names_a_held_out_query_at_the_centroid(tmp_path):
    # the last row is the mean of the training rows, so it maps to no direction
    raw = np.random.default_rng(9).normal(size=(30, 6))
    raw[-1] = raw[:-4].mean(axis=0)
    path = str(tmp_path / "data.csv")
    np.savetxt(path, raw, delimiter=",", fmt="%.17g")
    config = BenchConfig(
        radius=0.7, approx_c=2.0, input_path=path, input_format="csv", num_queries=4
    )
    with pytest.raises(ValueError, match="held-out query row 29: query has norm"):
        prepare_instance(config)


def test_prepare_instance_needs_enough_rows(tmp_path):
    path = str(tmp_path / "tiny.csv")
    np.savetxt(path, np.eye(3), delimiter=",")
    config = BenchConfig(
        radius=0.4, approx_c=2.0, input_path=path, input_format="csv", num_queries=3
    )
    with pytest.raises(ValueError, match="held-out"):
        prepare_instance(config)


def test_default_cache_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("MLSLSH_CACHE_DIR", str(tmp_path / "cc"))
    assert default_cache_dir() == str(tmp_path / "cc")
    monkeypatch.delenv("MLSLSH_CACHE_DIR")
    assert default_cache_dir().endswith("mlslsh")


def test_calibrate_cached_hits_disk(tmp_path, monkeypatch):
    params = FamilyParams(kind="cross_polytope", dim=6)
    kwargs = dict(r=0.4, c=2.0, levels=2, max_probes=4, trials=1000, seed=1,
                  cache_dir=str(tmp_path))
    first = calibrate_cached(params, **kwargs)
    files = list(tmp_path.glob("cal-*.json"))
    assert len(files) == 1

    # a second call must come from disk: poison the computing path
    import mlslsh.bench as bench_mod

    def boom(*a, **k):
        raise AssertionError("calibration should have come from the cache")

    monkeypatch.setattr(bench_mod, "calibrate", boom)
    second = calibrate_cached(params, **kwargs)
    assert second.p1 == first.p1
    assert np.array_equal(second.probe_success, first.probe_success)
    monkeypatch.undo()

    # corrupt entries are recomputed, not trusted
    files[0].write_text("{not json")
    third = calibrate_cached(params, **kwargs)
    assert third.p1 == first.p1
    assert json.loads(files[0].read_text())["p1"] == first.p1


def _tiny_config(tmp_path, **overrides):
    base = dict(
        radius=0.4,
        approx_c=2.0,
        seed=5,
        synthetic_n=400,
        synthetic_d=8,
        planted=4,
        num_queries=10,
        trials=2000,
        max_probes=8,
        modes=("adaptive", "brute"),
        cache_dir=str(tmp_path / "cache"),
    )
    base.update(overrides)
    return BenchConfig(**base)


def test_run_benchmark_brute_recall_is_perfect(tmp_path):
    config = _tiny_config(tmp_path, modes=("brute",))
    report = run_benchmark(config)
    brutes = [r for r in report.records if r["mode"] == "brute"]
    assert len(brutes) == 10
    assert all(r["recall"] == 1.0 for r in brutes)
    assert report.aggregates["brute"]["mean_recall"] == 1.0
    assert report.aggregates["brute"]["mean_work"] == 400.0


def test_run_benchmark_records_and_aggregates_agree(tmp_path):
    config = _tiny_config(tmp_path)
    report = run_benchmark(config)
    assert set(report.aggregates) == {"adaptive", "brute"}
    redo = recompute_aggregates(report.records)
    assert redo == report.aggregates
    # records carry no wall times; timing lives in its own section
    assert all("wall_time" not in r for r in report.records)
    assert set(report.timing) == {"adaptive", "brute"}
    assert all(t["total_wall_time"] > 0.0 for t in report.timing.values())


def test_run_benchmark_is_deterministic(tmp_path):
    config = _tiny_config(tmp_path)
    a = run_benchmark(config)
    b = run_benchmark(config)
    assert a.records == b.records
    assert a.aggregates == b.aggregates


def test_run_benchmark_rejects_unsound_mode(tmp_path):
    # fixed mode at a level the index does not have surfaces as an error
    config = _tiny_config(
        tmp_path, modes=("fixed",), fixed_level=99, fixed_probes=1
    )
    with pytest.raises(ValueError):
        run_benchmark(config)


def test_write_report_round_trip(tmp_path):
    config = _tiny_config(tmp_path, modes=("brute",))
    report = run_benchmark(config)
    out = str(tmp_path / "report.json")
    records_path = write_report(report, out)
    with open(out) as f:
        doc = json.load(f)
    assert doc["format"] == "mlslsh-bench"
    assert doc["num_records"] == len(report.records)
    with open(records_path) as f:
        lines = [json.loads(line) for line in f]
    assert len(lines) == len(report.records)
    assert recompute_aggregates(lines) == report.aggregates


def test_build_for_config_uses_measured_depth(tmp_path):
    config = _tiny_config(tmp_path)
    from mlslsh.geometry import generate_planted_instance
    from mlslsh.index import compute_k

    inst = generate_planted_instance(n=400, d=8, r=0.4, t=4, seed=5, num_queries=10)
    index = build_for_config(config, inst.dataset)
    cal = index.calibration
    assert index.levels == compute_k(400, cal.p2)
    assert cal.levels == index.levels


def test_build_for_config_measures_edges_once(tmp_path, monkeypatch):
    # the depth pre-pass result goes into the calibration, which must not
    # measure the same edge probabilities again
    import mlslsh.bench as bench_mod
    import mlslsh.calibration as cal_mod
    from mlslsh.geometry import generate_planted_instance

    calls = []
    for mod in (bench_mod, cal_mod):
        original = mod.edge_probabilities

        def counted(*args, _original=original, **kwargs):
            calls.append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(mod, "edge_probabilities", counted)
    config = _tiny_config(tmp_path)
    inst = generate_planted_instance(n=400, d=8, r=0.4, t=4, seed=5, num_queries=10)
    build_for_config(config, inst.dataset)
    assert len(calls) == 1


def test_scaling_trend_validation(tmp_path):
    config = _tiny_config(tmp_path, modes=("brute",))
    with pytest.raises(ValueError, match="three sizes"):
        scaling_trend([100, 200], config)
    with pytest.raises(ValueError, match="increasing"):
        scaling_trend([100, 100, 200], config)
    with pytest.raises(ValueError, match="1.2x"):
        scaling_trend([100, 110, 121], config)
    with pytest.raises(ValueError, match="geometric"):
        scaling_trend([100, 150, 600], config)
    multi = _tiny_config(tmp_path)
    with pytest.raises(ValueError, match="one query mode"):
        scaling_trend([100, 200, 400], multi)


def test_scaling_trend_brute_is_linear(tmp_path):
    config = _tiny_config(
        tmp_path, modes=("brute",), num_queries=5, planted=3
    )
    trend = scaling_trend([200, 400, 800], config)
    assert 0.9 <= trend.exponent <= 1.1
    assert trend.mean_work == (200.0, 400.0, 800.0)
    assert trend.mode == "brute"
    doc = trend.to_json_dict()
    assert doc["sizes"] == [200, 400, 800]


def test_scaling_trend_checks_every_answer(tmp_path, monkeypatch):
    # a reported id outside the true range stops the trend, as it stops a
    # benchmark, instead of going into the fit
    import mlslsh.bench as bench_mod

    original = bench_mod.run_query

    def with_a_far_point(mode, index, dataset, q, radius, fixed):
        report = original(mode, index, dataset, q, radius, fixed)
        far = int(np.argmax(np.linalg.norm(dataset.matrix - q, axis=1)))
        return dataclasses.replace(report, ids=report.ids + (far,))

    monkeypatch.setattr(bench_mod, "run_query", with_a_far_point)
    config = _tiny_config(tmp_path, modes=("brute",), num_queries=5, planted=3)
    with pytest.raises(WrongAnswerError, match="non-members"):
        scaling_trend([200, 400, 800], config)


def test_scaling_trend_rejects_a_file_input(tmp_path):
    path = str(tmp_path / "data.csv")
    np.savetxt(path, np.eye(4), delimiter=",")
    config = _tiny_config(tmp_path, modes=("brute",), input_path=path, input_format="csv")
    with pytest.raises(ValueError, match="no input_path"):
        scaling_trend([200, 400, 800], config)


def test_fvecs_dimension_change_past_the_second_record(tmp_path):
    path = tmp_path / "bad.fvecs"
    rec = struct.pack("<i", 2) + struct.pack("<2f", 1.0, 2.0)
    path.write_bytes(rec * 3 + struct.pack("<i", 3) + struct.pack("<3f", 1, 2, 3) + rec)
    with pytest.raises(ValueError, match=f"from 2 to 3 at byte {3 * len(rec)}"):
        read_fvecs(str(path))
    # a bad header past the second record, then a partial record at the end
    path.write_bytes(rec * 4 + struct.pack("<i", 0))
    with pytest.raises(ValueError, match=f"invalid dimension 0 at byte {4 * len(rec)}"):
        read_fvecs(str(path))
    path.write_bytes(rec * 4 + rec[:-1])
    with pytest.raises(ValueError, match=f"truncated vector data at byte {4 * len(rec) + 4}"):
        read_fvecs(str(path))
    path.write_bytes(rec * 4 + rec[:3])
    with pytest.raises(ValueError, match=f"truncated record header at byte {4 * len(rec)}"):
        read_fvecs(str(path))


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda doc: [doc],  # a JSON list, not an object
        lambda doc: {**doc, "r": None},
        # a table that decreases along j
        lambda doc: {**doc, "probe_success": [row[::-1] for row in doc["probe_success"]]},
        # a NaN in the table, which JSON writes as NaN and reads back
        lambda doc: {**doc, "probe_success": [[math.nan] + row[1:] for row in doc["probe_success"]]},
        # a rho that is not the one p1 and p2 give
        lambda doc: {**doc, "rho": doc["rho"] + 1e-3},
        # a family field that only ever holds null
        lambda doc: {**doc, "family": {**doc["family"], "cap_threshold": 0.3}},
        # a standard error no estimate makes
        lambda doc: {**doc, "p1_std_error": math.nan},
        # numbers of the wrong type, which a cast would have truncated
        lambda doc: {**doc, "trials": 1000.7},
        lambda doc: {**doc, "trials": True},
        lambda doc: {**doc, "seed": "1"},
        lambda doc: {**doc, "r": "0.4"},
        lambda doc: {**doc, "family": {**doc["family"], "dim": 6.5}},
        # a d that is not the family's dimension
        lambda doc: {**doc, "d": 99},
    ],
    ids=[
        "list", "null-radius", "decreasing-table", "nan-table", "rho-not-derived",
        "family-threshold-set", "nan-p1-error", "trials-float", "trials-bool", "seed-string",
        "radius-string", "family-dim-float", "d-not-family-dim",
    ],
)
def test_calibrate_cached_recomputes_malformed_entries(tmp_path, corrupt):
    params = FamilyParams(kind="cross_polytope", dim=6)
    kwargs = dict(r=0.4, c=2.0, levels=2, max_probes=4, trials=1000, seed=1,
                  cache_dir=str(tmp_path))
    first = calibrate_cached(params, **kwargs)
    (entry,) = tmp_path.glob("cal-*.json")
    good = json.loads(entry.read_text())
    entry.write_text(json.dumps(corrupt(good)))
    again = calibrate_cached(params, **kwargs)
    assert again.to_json_dict() == first.to_json_dict()
    assert json.loads(entry.read_text()) == good


@pytest.mark.parametrize(
    "other",
    [dict(levels=1, max_probes=2), dict(seed=2), dict(trials=1200)],
    ids=["levels-and-probes", "seed", "trials"],
)
def test_calibrate_cached_ignores_entries_for_other_inputs(tmp_path, other):
    # a well-formed entry made from other inputs, found under this request's
    # file name, is recomputed rather than returned
    params = FamilyParams(kind="cross_polytope", dim=6)
    kwargs = dict(r=0.4, c=2.0, levels=2, max_probes=4, trials=1000, seed=1)
    first = calibrate_cached(params, **kwargs, cache_dir=str(tmp_path / "a"))
    (entry,) = (tmp_path / "a").glob("cal-*.json")
    calibrate_cached(params, **{**kwargs, **other}, cache_dir=str(tmp_path / "b"))
    (foreign,) = (tmp_path / "b").glob("cal-*.json")
    good = entry.read_text()
    entry.write_text(foreign.read_text())
    again = calibrate_cached(params, **kwargs, cache_dir=str(tmp_path / "a"))
    assert again.to_json_dict() == first.to_json_dict()
    assert entry.read_text() == good


def test_calibrate_cached_removes_its_temporary_file_when_the_write_fails(tmp_path, monkeypatch):
    def full_disk(*args, **kwargs):
        raise OSError("no space left on device")

    monkeypatch.setattr(json, "dump", full_disk)
    params = FamilyParams(kind="cross_polytope", dim=6)
    with pytest.raises(OSError, match="no space left"):
        calibrate_cached(params, 0.4, 2.0, levels=2, max_probes=2, trials=1000, seed=1,
                         cache_dir=str(tmp_path))
    assert list(tmp_path.iterdir()) == []


def test_scaling_trend_refuses_a_degenerate_fit(tmp_path, monkeypatch):
    # work that never exceeds the output has no overhead to take the log of
    import mlslsh.bench as bench_mod

    monkeypatch.setattr(bench_mod, "recompute_aggregates",
                        lambda records: {"brute": {"mean_work": 3.0, "mean_reported": 3.0}})
    config = _tiny_config(tmp_path, modes=("brute",), num_queries=5, planted=3)
    with pytest.raises(ValueError, match="the fit would be degenerate"):
        scaling_trend([200, 400, 800], config)
