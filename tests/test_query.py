import json

import numpy as np
import pytest

import mlslsh.query as querymod
from conftest import slot_functions
from mlslsh.calibration import FamilyCalibration
from mlslsh.families import CodeEnumerator, FamilyParams, hash_batch, probe_sequence
from mlslsh.geometry import Dataset, generate_planted_instance
from mlslsh.index import build_index, compute_k, compute_numreps, reps
from mlslsh.query import (
    _QueryProbes,
    adaptive_multiprobe,
    brute_force_range,
    cost,
    fixed_level_query,
    run_query,
    single_probe_adaptive,
)


def toy_calibration(params, p1=0.8, p2=0.3, levels=6, max_probes=16):
    ks = np.arange(1, levels + 1, dtype=np.float64)[:, None]
    js = np.arange(1, max_probes + 1, dtype=np.float64)[None, :]
    table = np.minimum(1.0, p1**ks * (1.0 + 0.25 * (js - 1.0)))
    return FamilyCalibration(
        params=params,
        r=0.4,
        c=2.0,
        p1=p1,
        p2=p2,
        probe_success=table,
        probe_success_se=np.zeros_like(table),
        trials=1000,
        seed=0,
    )


@pytest.fixture(scope="module")
def small_index():
    params = FamilyParams(kind="cross_polytope", dim=12)
    cal = toy_calibration(params)
    inst = generate_planted_instance(n=400, d=12, r=0.4, t=5, seed=31, num_queries=5)
    return inst, build_index(inst.dataset, cal, seed=3)


def test_cost_known_values():
    params = FamilyParams(kind="cross_polytope", dim=8)
    cal = toy_calibration(params, p1=1.0, p2=0.5, levels=1, max_probes=2)
    # reps(1, 1, 1.0) = ceil(2 ln 2) = 2
    assert cost(1, 1, cal, rep_cap=100) == 2.0
    cal2 = toy_calibration(params, p1=0.25, p2=0.2, levels=2, max_probes=1)
    # reps(2, 1, 0.25^2=0.0625) would be huge; table floor keeps it finite
    assert cost(2, 1, cal2, rep_cap=100) == float(
        min(100, reps(2, 1, cal2.probe_probability(2, 1)))
    )
    # the repetition cap clamps the schedule
    assert cost(2, 1, cal2, rep_cap=5) == 5.0


def test_fixed_level_work_matches_independent_recount(small_index):
    inst, index = small_index
    cal = index.calibration
    R = index.num_repetitions
    q = inst.queries[0].coords
    for k, j in [(1, 1), (1, 3), (2, 2), (3, 1), (2, 5)]:
        got = fixed_level_query(index, q, 0.4, k, j).work_examined
        # recount: enumerate the probe codes independently, then count bucket
        # members by linear prefix scan over the stored codes
        p = cal.probe_probability(k, j)
        r_count = max(1, min(reps(k, j, p), R))
        expected = 0
        for r in range(r_count):
            matrix, fns = index.dataset.matrix, slot_functions(index, r)
            codes = np.stack([hash_batch(fn, matrix) for fn in fns], axis=1)
            seqs = [probe_sequence(fn, q) for fn in fns[:k]]
            probes = CodeEnumerator(seqs).first(j)
            for code in probes:
                members = sum(
                    1
                    for row in range(codes.shape[0])
                    if tuple(int(v) for v in codes[row, :k]) == code
                )
                expected += 1 + members
        assert got == float(expected)


def test_zero_row_on_a_cap_index_keeps_the_spine_bound():
    # a zero row clears no cap: its own bucket is the overflow bucket, whose
    # deficit 0 ties with every cap of smaller id, so the spine lower bound
    # holds only because the all-own tuple still comes first at every level
    params = FamilyParams(kind="spherical_cap", dim=6, cap_count=8)
    inst = generate_planted_instance(n=40, d=6, r=0.4, t=2, seed=0)
    index = build_index(inst.dataset, toy_calibration(params), seed=0)
    q = np.zeros(6)
    probes = _QueryProbes(index, q)
    for k in range(1, index.levels + 1):
        for j in range(1, 17):
            work = fixed_level_query(index, q, 0.4, k, j).work_examined
            assert probes.bounds[k - 1][j - 1] <= work


def test_adaptive_reports_only_true_range_members(small_index):
    inst, index = small_index
    for qi, q in enumerate(inst.queries):
        rep = adaptive_multiprobe(index, q.coords, 0.4)
        gt = inst.ground_truth[qi]
        assert set(rep.ids) <= gt
        assert rep.t_reported == len(rep.ids)
        assert rep.mode == "adaptive"
        # distances align with ids and respect the radius
        for pid, dist in zip(rep.ids, rep.distances):
            true = float(np.linalg.norm(inst.dataset.matrix[pid] - q.coords))
            assert abs(dist - true) < 1e-12
            assert dist <= 0.4


def test_adaptive_trace_invariants(small_index):
    inst, index = small_index
    n = index.size
    for q in inst.queries:
        rep = adaptive_multiprobe(index, q.coords, 0.4)
        ex = rep.examined
        assert len(ex) >= 1
        assert (ex[0].level, ex[0].probes) == (1, 1)
        # cost order: costs never decrease, settings never repeat
        costs = [e.cost for e in ex]
        assert costs == sorted(costs)
        assert len({(e.level, e.probes) for e in ex}) == len(ex)
        # every examined setting was strictly cheaper than the best work
        # known when the walk reached it
        running = float(n)
        for e in ex:
            assert e.cost < running
            assert e.work >= e.cost  # each probe costs at least one unit
            running = min(running, e.work)
        assert rep.w_best == min([float(n)] + [e.work for e in ex])
        if rep.k_best > 0:
            match = [e for e in ex if (e.level, e.probes) == (rep.k_best, rep.j_best)]
            assert len(match) == 1 and match[0].work == rep.w_best


def test_adaptive_examines_full_cheap_level_spine(small_index):
    # every single-probe setting cheaper than the final best work must have
    # been measured: the walk reaches it in cost order before it stops, and
    # never prunes a single-probe setting
    inst, index = small_index
    cal = index.calibration
    R = index.num_repetitions
    for q in inst.queries:
        rep = adaptive_multiprobe(index, q.coords, 0.4)
        seen = {(e.level, e.probes) for e in rep.examined}
        for k in range(1, index.levels + 1):
            if cost(k, 1, cal, R) < rep.w_best:
                assert (k, 1) in seen


def test_adaptive_beats_or_matches_fixed_settings(small_index):
    inst, index = small_index
    for q in inst.queries:
        rep = adaptive_multiprobe(index, q.coords, 0.4)
        sweep = min(
            fixed_level_query(index, q.coords, 0.4, k, j).work_examined
            for k in range(1, index.levels + 1)
            for j in (1, 2, 4, 8, 16)
        )
        assert rep.w_best <= 1.5 * sweep
        assert rep.w_best <= float(index.size)


def test_single_probe_variant_stays_at_one_probe(small_index):
    inst, index = small_index
    for q in inst.queries:
        rep = single_probe_adaptive(index, q.coords, 0.4)
        assert rep.mode == "single"
        assert all(e.probes == 1 for e in rep.examined)
        assert rep.j_best in (0, 1)
        gt_ids = set(brute_force_range(inst.dataset, q.coords, 0.4).ids)
        assert set(rep.ids) <= gt_ids


def test_fixed_level_query_work_matches_estimate(small_index):
    inst, index = small_index
    q = inst.queries[1].coords
    rep = fixed_level_query(index, q, 0.4, k=2, j=3)
    assert rep.mode == "fixed"
    assert (rep.k_best, rep.j_best) == (2, 3)
    assert len(rep.examined) == 1
    assert rep.w_best == rep.work_examined == rep.examined[0].work
    gt_ids = set(brute_force_range(inst.dataset, q, 0.4).ids)
    assert set(rep.ids) <= gt_ids
    with pytest.raises(ValueError):
        fixed_level_query(index, q, 0.4, k=0, j=1)
    with pytest.raises(ValueError):
        fixed_level_query(index, q, 0.4, k=index.levels + 1, j=1)
    with pytest.raises(ValueError):
        fixed_level_query(index, q, 0.4, k=1, j=0)


def test_probe_counts_past_the_table_fail_at_once(small_index, no_reestimation):
    inst, index = small_index
    q = inst.queries[1].coords
    width = index.calibration.max_probes
    assert fixed_level_query(index, q, 0.4, k=1, j=width).work_examined > 0.0
    with pytest.raises(ValueError, match="larger max_probes"):
        fixed_level_query(index, q, 0.4, k=1, j=width + 1)


def test_bad_pins_fail_before_any_index_work(small_index, monkeypatch):
    # the level range and the probe count are checked before the query is
    # projected or the spine searched
    inst, index = small_index
    q = inst.queries[1].coords

    def never(*args, **kwargs):
        raise AssertionError("the query reached the index")

    monkeypatch.setattr(querymod, "_QueryProbes", never)
    width = index.calibration.max_probes
    for k, j, message in [
        (0, 1, "level 0 outside"),
        (index.levels + 1, 1, f"level {index.levels + 1} outside"),
        (1, 0, "probe count 0 outside"),
        (1, width + 1, "larger max_probes"),
    ]:
        with pytest.raises(ValueError, match=message):
            fixed_level_query(index, q, 0.4, k, j)


def test_adaptive_never_probes_past_a_narrow_table(no_reestimation):
    # with only two calibrated probe counts the scheduler would otherwise
    # queue (k, 3) and beyond on this index
    params = FamilyParams(kind="cross_polytope", dim=12)
    cal = toy_calibration(params, max_probes=2)
    inst = generate_planted_instance(n=400, d=12, r=0.4, t=5, seed=31, num_queries=5)
    index = build_index(inst.dataset, cal, seed=3)
    for q in inst.queries:
        rep = adaptive_multiprobe(index, q.coords, 0.4)
        assert max(e.probes for e in rep.examined) <= 2
        assert 0 <= rep.j_best <= 2


def test_default_radius_is_the_calibrated_one(small_index):
    inst, index = small_index
    q = inst.queries[2].coords
    a = adaptive_multiprobe(index, q)
    b = adaptive_multiprobe(index, q, 0.4)
    assert a.to_json_dict() == b.to_json_dict()


def test_empty_region_costs_two_probes():
    # three well-spread points, a query orthogonal to all of them: the probed
    # buckets are empty, so the whole query costs one unit per repetition
    params = FamilyParams(kind="cross_polytope", dim=2)
    cal = toy_calibration(params, p1=0.84, p2=0.3, levels=1, max_probes=4)
    matrix = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]])
    ds = Dataset(matrix=matrix, centroid=np.zeros(2))
    assert compute_k(3, 0.3) == 1 and compute_numreps(0.84, 1) == 2
    index = build_index(ds, cal, seed=0)
    rep = adaptive_multiprobe(index, np.array([0.0, 1.0]), 0.4)
    assert rep.w_best == 2.0
    assert (rep.k_best, rep.j_best) == (1, 1)
    assert rep.ids == ()
    assert rep.buckets_probed == 2
    assert rep.work_examined == 2.0


def test_singleton_dataset_falls_back_to_full_scan():
    # with one point, no bucket schedule can beat looking at that point
    params = FamilyParams(kind="cross_polytope", dim=2)
    cal = toy_calibration(params, p1=0.84, p2=0.3, levels=1, max_probes=4)
    ds = Dataset(matrix=np.array([[1.0, 0.0]]), centroid=np.zeros(2))
    index = build_index(ds, cal, seed=0)
    rep = adaptive_multiprobe(index, np.array([1.0, 0.0]), 0.0)
    assert rep.mode == "adaptive"
    assert (rep.k_best, rep.j_best) == (0, 0)  # full-scan fallback
    assert rep.ids == (0,)
    assert rep.distances == (0.0,)
    assert rep.work_examined == 1.0
    assert rep.buckets_probed == 0


def test_brute_force_matches_direct_computation(small_index):
    inst, _ = small_index
    q = inst.queries[3].coords
    rep = brute_force_range(inst.dataset, q, 0.4)
    dists = np.linalg.norm(inst.dataset.matrix - q, axis=1)
    expected = tuple(int(i) for i in np.nonzero(dists <= 0.4)[0])
    assert rep.ids == expected
    assert rep.work_examined == float(inst.dataset.size)
    assert rep.mode == "brute"
    # the whole sphere fits inside radius two
    assert len(brute_force_range(inst.dataset, q, 2.0).ids) == inst.dataset.size


def test_query_validation(small_index):
    # every mode checks the row and the radius the same way
    inst, index = small_index
    q = inst.queries[0].coords
    nan_row, inf_row = q.copy(), q.copy()
    nan_row[0], inf_row[3] = np.nan, -np.inf
    modes = {
        "adaptive": lambda row, radius: adaptive_multiprobe(index, row, radius),
        "single": lambda row, radius: single_probe_adaptive(index, row, radius),
        "fixed": lambda row, radius: fixed_level_query(index, row, radius, 2, 3),
        "brute": lambda row, radius: brute_force_range(inst.dataset, row, radius),
    }
    bad = [
        (q[:5], 0.4, "shape"),
        (q[None, :], 0.4, "shape"),
        (nan_row, 0.4, "non-finite"),
        (inf_row, 0.4, "non-finite"),
        (q, np.nan, "radius"),
        (q, -0.1, "radius"),
        (q, 2.5, "radius"),
    ]
    for mode, run in modes.items():
        assert run(q, 2.0).mode == mode
        for row, radius, message in bad:
            with pytest.raises(ValueError, match=message):
                run(row, radius)
    # the dispatcher behind the CLI and the benchmark
    assert run_query("fixed", index, inst.dataset, q, 0.4, (2, 3)).to_json_dict() == (
        fixed_level_query(index, q, 0.4, 2, 3).to_json_dict()
    )
    with pytest.raises(ValueError, match="fixed mode needs"):
        run_query("fixed", index, inst.dataset, q, 0.4)
    with pytest.raises(ValueError, match="needs an index"):
        run_query("single", None, inst.dataset, q, 0.4)
    # a fixed setting is a pair of integers, numpy's included
    pinned = fixed_level_query(index, q, 0.4, np.int64(2), np.int32(3)).to_json_dict()
    assert json.dumps(pinned) == json.dumps(fixed_level_query(index, q, 0.4, 2, 3).to_json_dict())
    for k, j, name in [(1.5, 2, "level k"), (2, 2.0, "probe count j"), (True, 2, "level k")]:
        with pytest.raises(ValueError, match=name):
            fixed_level_query(index, q, 0.4, k, j)
        with pytest.raises(ValueError, match=name):
            run_query("fixed", index, inst.dataset, q, 0.4, (k, j))


def test_report_json_excludes_timing_by_default(small_index):
    inst, index = small_index
    rep = adaptive_multiprobe(index, inst.queries[0].coords, 0.4)
    doc = rep.to_json_dict()
    assert "wall_time" not in doc and "settings_pruned" not in doc
    assert rep.wall_time > 0.0
    timed = rep.to_json_dict(include_timing=True)
    assert timed["wall_time"] == rep.wall_time
    assert timed["settings_pruned"] == rep.settings_pruned
    # everything else identical
    timed.pop("wall_time")
    timed.pop("settings_pruned")
    assert timed == doc


def test_reports_are_deterministic(small_index):
    inst, index = small_index
    q = inst.queries[4].coords
    a = adaptive_multiprobe(index, q, 0.4).to_json_dict()
    b = adaptive_multiprobe(index, q, 0.4).to_json_dict()
    assert a == b
