import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mlslsh.index as indexmod
import mlslsh.query as querymod
from conftest import feasible_reps, first_depth, setting_cost, stable_probe_sequence
from conftest import toy_calibration
from mlslsh.bench import BenchConfig, build_for_config
from mlslsh.families import CodeEnumerator, FamilyParams, bucket_codes, first_tuples, hash_batch
from mlslsh.families import slot_rankings
from mlslsh.geometry import Dataset, UnitPoint, generate_planted_instance
from mlslsh.index import bucket_runs, build_index, compute_k, compute_numreps, consulted_reps, reps
from mlslsh.index import schedule_entry
from mlslsh.query import (
    _QueryProbes,
    adaptive_multiprobe,
    brute_force_range,
    fixed_level_query,
    run_query,
    single_probe_adaptive,
)


WALK_EXPECTED = Path(__file__).resolve().parent / "data" / "walk_expected.json"


def build_small_index():
    # p1 = 0.5 builds R = 32 repetitions, enough for levels 1 to 3 to be feasible
    params = FamilyParams(kind="cross_polytope", dim=12)
    cal = toy_calibration(params, p1=0.5)
    inst = generate_planted_instance(n=400, d=12, r=0.4, t=5, seed=31, num_queries=5)
    return inst, build_index(inst.dataset, cal, seed=3)


def build_multi_probe_index():
    # slope 3 makes a second and third probe worth more repetitions than a
    # deeper level, so every query settles on a multi-probe setting
    family = FamilyParams(kind="spherical_cap", dim=12, cap_count=16)
    inst = generate_planted_instance(n=600, d=12, r=0.4, t=5, seed=5, num_queries=12)
    return inst, build_index(inst.dataset, toy_calibration(family, 0.5, 0.2, 4, 6, 3.0), seed=3)


@pytest.fixture(scope="module")
def small_index():
    return build_small_index()


def test_cost_known_values():
    params = FamilyParams(kind="cross_polytope", dim=8)
    cal = toy_calibration(params, p1=1.0, p2=0.5, levels=1, max_probes=2)
    # reps(1, 1, 1.0) = ceil(2 ln 2) = 2
    assert consulted_reps(cal, 1, 1, rep_cap=100) == 2
    cal2 = toy_calibration(params, p1=0.25, p2=0.2, levels=2, max_probes=1)
    # reps(2, 1, 0.25^2=0.0625) would be huge; table floor keeps it finite
    assert consulted_reps(cal2, 2, 1, rep_cap=100) == min(
        100, reps(2, 1, cal2.probe_probability(2, 1))
    )
    # the repetition cap clamps the schedule
    assert consulted_reps(cal2, 2, 1, rep_cap=5) == 5


def recount_work(index, q, k, j, count) -> float:
    """The work of setting (k, j) over the first `count` repetitions:
    enumerate the probe codes independently, then count bucket members by
    linear prefix scan over the stored codes."""
    expected = 0
    for r in range(count):
        family, stack = index.family, index.repetitions[r].directions
        codes = np.stack([hash_batch(family, d, index.dataset.matrix) for d in stack], axis=1)
        seqs = [stable_probe_sequence(family, d, q) for d in stack[:k]]
        for code in CodeEnumerator(seqs).first(j):
            members = sum(
                1
                for row in range(codes.shape[0])
                if tuple(int(v) for v in codes[row, :k]) == code
            )
            expected += 1 + members
    return float(expected)


def test_fixed_level_work_matches_independent_recount(small_index):
    inst, index = small_index
    cal = index.calibration
    R = index.num_repetitions
    q = inst.queries[0].coords
    for k, j in [(1, 1), (1, 3), (2, 2), (3, 1), (2, 5)]:
        got = fixed_level_query(index, q, 0.4, k, j).work_examined
        p = cal.probe_probability(k, j)
        assert got == recount_work(index, q, k, j, max(1, min(reps(k, j, p), R)))


def test_a_pin_at_zero_success_consults_every_repetition():
    # a setting whose calibrated success probability is 0 needs infinitely
    # many repetitions: a pin there reads all R built and is infeasible
    params = FamilyParams(kind="cross_polytope", dim=12)
    inst = generate_planted_instance(n=400, d=12, r=0.4, t=5, seed=31, num_queries=2)
    K = compute_k(inst.dataset.size, 0.3)
    cal = toy_calibration(params, p1=0.5, levels=K)
    table = cal.probe_success.copy()
    table[-1] = 0.0
    index = build_index(inst.dataset, replace(cal, probe_success=table), seed=3)
    assert index.levels == K and index.calibration.probe_probability(K, 2) == 0.0
    for q in inst.queries:
        report = fixed_level_query(index, q.coords, 0.4, K, 2)
        assert report.infeasible and (report.k_best, report.j_best) == (K, 2)
        assert report.work_examined == recount_work(index, q.coords, K, 2, index.num_repetitions)


def test_zero_row_on_a_cap_index_keeps_the_spine_bound():
    # a zero row clears no cap: its own bucket is the overflow bucket, whose
    # deficit 0 ties with every cap of smaller id, so the spine lower bound
    # holds only because the all-own tuple still comes first at every level.
    # Probes over the whole index bound every setting, the pins the schedule
    # leaves out as infeasible included. The query modes refuse a row off the
    # sphere, so each setting's work is measured as `fixed_level_query`
    # measures it for a valid row: probes of a walk of that setting alone.
    params = FamilyParams(kind="spherical_cap", dim=6, cap_count=8)
    inst = generate_planted_instance(n=40, d=6, r=0.4, t=2, seed=0)
    index = build_index(inst.dataset, toy_calibration(params), seed=0)
    q = np.zeros(6)
    K, R = index.levels, index.num_repetitions
    cal, universe, checked = index.calibration, index.family.bucket_universe, set()
    whole = tuple(schedule_entry(k, 1, R, universe) for k in range(1, K + 1))
    probes = _QueryProbes(index, q, index.walk(whole))
    for k in range(1, index.levels + 1):
        for j in range(1, 17):
            count = consulted_reps(cal, k, j, index.num_repetitions)
            entry = schedule_entry(k, j, count, universe)
            work = _QueryProbes(index, q, index.walk((entry,))).work(entry)
            assert probes.bound(entry) <= work
            checked.add(entry)
    assert len(checked) == index.levels * 16 and set(index.schedule) <= checked


def test_nothing_feasible_means_every_query_is_a_full_scan(small_index, monkeypatch):
    # one repetition never reaches reps(1, 1) = ceil(2 ln 2 / P) >= 2, so
    # the schedule is empty: adaptive and single read no index and report
    # the full scan, and a fixed pin is still answered, marked infeasible
    inst, _ = small_index
    params = FamilyParams(kind="cross_polytope", dim=12)
    index = build_index(inst.dataset, toy_calibration(params), space_budget=1, seed=3)
    assert index.schedule == ()
    empty = index.walk(())
    assert dict(index.walks) == {"adaptive": empty, "single": empty}
    pinned = [fixed_level_query(index, q.coords, 0.4, 1, 1) for q in inst.queries]
    assert all(rep.infeasible and (rep.k_best, rep.j_best) == (1, 1) for rep in pinned)

    def never(*args, **kwargs):
        raise AssertionError("the query reached the index")

    monkeypatch.setattr(querymod, "_QueryProbes", never)
    for q in inst.queries:
        brute = brute_force_range(inst.dataset, q.coords, 0.4).to_json_dict()
        for mode, run in (("adaptive", adaptive_multiprobe), ("single", single_probe_adaptive)):
            report = run(index, q.coords, 0.4)
            assert report.to_json_dict() == {**brute, "mode": mode}
            assert (report.k_best, report.examined, report.infeasible) == (0, (), False)


@pytest.fixture(scope="module")
def multi_probe_index():
    return build_multi_probe_index()


def test_candidates_reuse_the_lookup_of_a_measured_setting(multi_probe_index, monkeypatch):
    # the spine is searched at every level at once and a multi-probe entry at
    # one level, once per query: collecting the winner's candidates searches
    # no bucket again, whichever multi-probe entry the walk measured last.
    # A read searches a flat list of (repetition, level) buckets, a lookup a
    # (repetitions, probes) block, each as needle pairs
    inst, index = multi_probe_index
    levels = []

    def counted(parts, needles):
        levels.append(needles.ndim - 2)
        return bucket_runs(parts, needles)

    monkeypatch.setattr(indexmod, "bucket_runs", counted)
    last = earlier = 0
    for q in inst.queries:
        levels.clear()
        report = adaptive_multiprobe(index, q.coords, 0.4)
        multi = [(e.level, e.probes) for e in report.examined if e.probes > 1]
        assert report.j_best > 1
        assert levels.count(1) == len(multi)
        last += multi[-1] == (report.k_best, report.j_best)
        earlier += multi[-1] != (report.k_best, report.j_best)
        levels.clear()
        fixed_level_query(index, q.coords, 0.4, 2, 3)
        assert levels == [0, 1]
    assert last > 0 and earlier > 0


def build_first_depth_index(kind, p1):
    """A 600-point index of 5 levels whose multi-probe settings reach levels
    no single-probe one does: slope 1 doubles P(k, 2) over P(k, 1)."""
    family = FamilyParams(kind=kind, dim=12, cap_count=16)
    inst = generate_planted_instance(n=600, d=12, r=0.4, t=5, seed=5, num_queries=6)
    cal = toy_calibration(family, p1, 0.3, compute_k(600, 0.3), 6, 1.0)
    return inst, build_index(inst.dataset, cal, seed=3)


@pytest.fixture(scope="module")
def shallow_index():
    return build_first_depth_index("cross_polytope", 0.6)


def test_functions_projected_match_an_independent_recount(
    small_index, multi_probe_index, shallow_index, monkeypatch
):
    # every rectangle of a read codes its projection once, so the rows
    # coded count the functions a query was projected on: the first
    # repetitions at the walk's first depth, and the whole extent once an
    # entry needs a repetition or a level outside them
    rows = []

    def coded(family, proj):
        rows.append(len(proj))
        return bucket_codes(family, proj)

    monkeypatch.setattr(indexmod, "bucket_codes", coded)
    totals = []
    for inst, index in (small_index, multi_probe_index, shallow_index):
        walk = index.walks["adaptive"]
        (r, depth), first, top = walk.extent, walk.first, walk.depth
        consulted = {(k, j): count for _, k, j, count, _ in index.schedule}
        runs = {
            "adaptive": lambda q: adaptive_multiprobe(index, q, 0.4),
            "single": lambda q: single_probe_adaptive(index, q, 0.4),
            "fixed": lambda q: fixed_level_query(index, q, 0.4, 2, 3),
            "brute": lambda q: brute_force_range(inst.dataset, q, 0.4),
        }
        for q in inst.queries:
            for mode, run in runs.items():
                rows.clear()
                report = run(q.coords)
                assert report.functions_projected == sum(rows)
                assert report.to_json_dict(include_timing=True)["functions_projected"] == sum(rows)
            rows.clear()
            report = adaptive_multiprobe(index, q.coords, 0.4)
            assert rows[0] == first * top and len(rows) <= 3
            assert sum(rows) in (first * top, r * depth)
            # a measured entry outside the first read has read the whole extent
            past = any(
                consulted[e.level, e.probes] > first or e.level > top for e in report.examined
            )
            if past:
                assert sum(rows) == r * depth
            totals.append(sum(rows))
    # every walk on the small index stays in the first read, as it prunes
    # each entry that consults more repetitions by its bound from the
    # repetitions read so far. Every walk on the multi-probe index measures
    # multi-probe entries; nine of them rank only repetitions read first
    # and read nothing more, and three read on. On the shallow index five
    # walks need a level past the first 3, so they read all 22 repetitions
    # 5 deep, and one stays within the first 17 repetitions 3 deep
    multi_probe = [12 * 4] * 12
    multi_probe[2] = multi_probe[5] = multi_probe[11] = 15 * 4
    shallow = [22 * 5] * 6
    shallow[3] = 17 * 3
    assert totals == [29 * 3] * 5 + multi_probe + shallow


def test_key_searches_match_an_independent_recount(
    small_index, multi_probe_index, shallow_index, monkeypatch
):
    # every bucket a query searches is one needle pair of one `bucket_runs`
    # call, so the pairs searched count its key ranges in every mode. A
    # single-probe query searches the own bucket of each repetition a j = 1
    # entry consults at that entry's level, recounted from the table, and a
    # fixed one its pin's repetitions at its level plus, past one probe,
    # min(j, U**k) probe buckets in each
    searched = []

    def counted(parts, needles):
        searched.append(needles.size // 2)
        return bucket_runs(parts, needles)

    monkeypatch.setattr(indexmod, "bucket_runs", counted)
    for inst, index in (small_index, multi_probe_index, shallow_index):
        universe = index.family.bucket_universe
        spine = sum(feasible_reps(index, k, 1) or 0 for k in range(1, index.levels + 1))
        runs = {
            "adaptive": lambda q: adaptive_multiprobe(index, q, 0.4),
            "single": lambda q: single_probe_adaptive(index, q, 0.4),
            "brute": lambda q: brute_force_range(inst.dataset, q, 0.4),
        }
        pins = {(k, j): consulted_reps(index.calibration, k, j, index.num_repetitions)
                for k, j in ((1, 1), (2, 3), (index.levels, 6))}
        for (k, j), count in pins.items():
            runs[k, j] = lambda q, k=k, j=j: fixed_level_query(index, q, 0.4, k, j)
        for q in inst.queries:
            reports = {}
            for name, run in runs.items():
                searched.clear()
                reports[name] = run(q.coords)
                assert reports[name].key_searches == sum(searched)
            assert reports["single"].key_searches == spine
            assert reports["brute"].key_searches == 0
            for (k, j), count in pins.items():
                probes = count * min(j, universe**k) if j > 1 else 0
                assert reports[k, j].key_searches == count + probes


def test_benchmark_single_queries_search_only_the_buckets_their_walk_reads(tmp_path):
    # the perfbench workloads at workload seed 1, index seed 7, with their
    # 100 queries: a single-probe query searches 83 own buckets on cp-10k
    # (K = 7, R = 70) and 72 on cap-10k (K = 8, R = 74), the j = 1 entries'
    # repetitions summed over their levels, against 47 * 4 = 188 and
    # 40 * 4 = 160 for a search of every repetition and level its first read
    # projects. An adaptive query projects its first read, 47 * 4 on cp-10k
    # and 40 * 5 on cap-10k, or its whole extent, 74 * 5 on cap-10k. No
    # cp-10k query leaves its first read, and the cap-10k first read is as
    # deep as its extent, so no query reads more repetitions only because it
    # needs a deeper level
    inst = generate_planted_instance(n=10_000, d=32, r=0.4, t=10, seed=1, num_queries=100)
    for kind, expected, first_read, adaptive in (
        ("cross_polytope", 83, 188, {188: 100}),
        ("spherical_cap", 72, 160, {200: 60, 370: 40}),
    ):
        config = BenchConfig(
            radius=0.4, approx_c=2.0, seed=7, synthetic_n=10_000, synthetic_d=32,
            family_kind=kind, cap_count=64, trials=4000, max_probes=16,
            cache_dir=str(tmp_path / kind),
        )
        index = build_for_config(config, inst.dataset)
        single = index.walks["single"]
        assert sum(feasible_reps(index, k, 1) or 0 for k in range(1, index.levels + 1)) == expected
        assert single.first * single.depth == first_read
        projected = {}
        for q in inst.queries:
            assert single_probe_adaptive(index, q.coords).key_searches == expected
            count = adaptive_multiprobe(index, q.coords).functions_projected
            projected[count] = projected.get(count, 0) + 1
        assert projected == adaptive


@pytest.mark.parametrize(
    "kind, p1, walks",
    [
        # levels 4 and 5 cost more than the least expected single-probe work
        ("cross_polytope", 0.6, ((17, 3), (22, 5), 3)),
        # a multi-probe setting at every level costs less than it
        ("spherical_cap", 0.7, ((6, 2), (9, 5), 5)),
    ],
)
def test_the_first_depth_changes_no_report(kind, p1, walks, monkeypatch):
    # two indexes pinned to a shallow and to the full first depth, both as
    # `first_depth` recounts them. An adaptive walk read first from any
    # depth between its single-probe one and its extent's gives the same
    # report but for the functions projected and the buckets searched; a
    # single or fixed walk reads its whole extent first
    inst, index = build_first_depth_index(kind, p1)
    single, adaptive = index.walks["single"], index.walks["adaptive"]
    assert (single.extent, adaptive.extent, adaptive.depth) == walks
    assert adaptive.depth == first_depth(index)
    # no walk reads first shallower than a j = 1 entry or deeper than its
    # extent, and a walk of no entries reads nothing
    for entries, depth in (
        (adaptive.entries, single.extent[1] - 1), (adaptive.entries, adaptive.extent[1] + 1),
        ((), 1),
    ):
        with pytest.raises(ValueError, match="levels first"):
            index.walk(entries, depth)
    read = []

    class Recorded(_QueryProbes):
        def __init__(self, index, q, walk):
            read.append(walk)
            super().__init__(index, q, walk)

    def untimed(report):
        doc = report.to_json_dict(include_timing=True)
        del doc["wall_time"], doc["functions_projected"], doc["key_searches"]
        return doc

    monkeypatch.setattr(querymod, "_QueryProbes", Recorded)
    for q in inst.queries:
        report = untimed(adaptive_multiprobe(index, q.coords, 0.4))
        for depth in range(single.extent[1], adaptive.extent[1] + 1):
            walk = index.walk(adaptive.entries, depth)
            other = querymod._query(index, q.coords, 0.4, "adaptive", walk, index.size)
            assert untimed(other) == report
        read.clear()
        single_probe_adaptive(index, q.coords, 0.4)
        for k, j in ((1, 1), (2, 3), (index.levels, 6)):
            fixed_level_query(index, q.coords, 0.4, k, j)
        depths = [single.extent[1], 1, 2, index.levels]
        assert [w.depth for w in read] == [w.extent[1] for w in read] == depths


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
    for q in inst.queries:
        rep = adaptive_multiprobe(index, q.coords, 0.4)
        seen = {(e.level, e.probes) for e in rep.examined}
        for k in range(1, index.levels + 1):
            cost = setting_cost(index, k, 1)
            if cost is not None and cost < rep.w_best:
                assert (k, 1) in seen
    # the fixture keeps settings past level 1 feasible, so the walk has a spine to examine
    assert setting_cost(index, 3, 1) is not None


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
        (3 * q, 0.4, "norm"),
        (0 * q, 0.4, "norm"),
        (q * (1 + 1e-3), 0.4, "norm"),
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
    assert "infeasible" not in doc and timed["infeasible"] is rep.infeasible is False
    assert "functions_projected" not in doc and "key_searches" not in doc
    assert timed["functions_projected"] == rep.functions_projected > 0
    assert timed["key_searches"] == rep.key_searches > 0
    # everything else identical
    timed.pop("wall_time")
    timed.pop("settings_pruned")
    timed.pop("infeasible")
    timed.pop("functions_projected")
    timed.pop("key_searches")
    assert timed == doc


def test_reports_are_deterministic(small_index):
    inst, index = small_index
    q = inst.queries[4].coords
    a = adaptive_multiprobe(index, q, 0.4).to_json_dict()
    b = adaptive_multiprobe(index, q, 0.4).to_json_dict()
    assert a == b


def test_a_first_query_imports_no_masked_arrays():
    # np.unique imports numpy.ma on its first call, which made the first
    # query of a process the slowest; only a fresh interpreter shows whether
    # the query path still reaches it
    script = """
import sys
from mlslsh import FamilyParams, adaptive_multiprobe, build_index, calibrate
from mlslsh import generate_planted_instance
inst = generate_planted_instance(n=200, d=8, r=0.4, t=3, seed=0, num_queries=1)
params = FamilyParams(kind="cross_polytope", dim=8)
cal = calibrate(params, r=0.4, c=2.0, levels=8, max_probes=4, trials=1000, seed=0)
report = adaptive_multiprobe(build_index(inst.dataset, cal, seed=0), inst.queries[0].coords)
assert report.k_best > 0 and report.ids, report
print("numpy.ma" in sys.modules)
"""
    src = str(Path(querymod.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def walk_runs(inst, index) -> dict:
    """The runs of `walk_reports` by name: each mode and the pins (1, 1),
    (2, 3) and (K, max_probes)."""
    K, width = index.levels, index.calibration.max_probes
    runs = {
        "adaptive": lambda q: adaptive_multiprobe(index, q, 0.4),
        "single": lambda q: single_probe_adaptive(index, q, 0.4),
        "brute": lambda q: brute_force_range(inst.dataset, q, 0.4),
    }
    for k, j in ((1, 1), (2, 3), (K, width)):
        runs[f"fixed {k},{j}"] = lambda q, k=k, j=j: fixed_level_query(index, q, 0.4, k, j)
    return runs


def timed_doc(report) -> dict:
    """The timed JSON report less `wall_time`."""
    doc = report.to_json_dict(include_timing=True)
    doc.pop("wall_time")
    return doc


def walk_reports(inst, index) -> list[dict]:
    """Per query of `inst`, the `timed_doc` of each of `walk_runs`."""
    runs = walk_runs(inst, index)
    return [{name: timed_doc(run(q.coords)) for name, run in runs.items()} for q in inst.queries]


def pop_distances(doc: dict) -> list[float]:
    """Remove the distances of every report in `doc`, a document of
    `walk_reports` per fixture, and return them in sorted key order."""
    return [
        d
        for name in sorted(doc)
        for reports in doc[name]
        for mode in sorted(reports)
        for d in reports[mode].pop("distances")
    ]


def test_walks_give_the_recorded_reports(small_index, multi_probe_index):
    # ids, work, traces, pruning counts, functions projected and buckets
    # searched of every mode exactly as tests/data/walk_expected.json
    # records them, and distances to within rounding. The fixtures are
    # built and hashed afresh, so the file holds for a numpy and BLAS that
    # round these products as the one it was written with; another
    # rounding can move a point across a bucket or the radius and fail
    # this test without a fault in the walk
    expected = json.loads(WALK_EXPECTED.read_text())
    got = {"small_index": walk_reports(*small_index)}
    got["multi_probe_index"] = walk_reports(*multi_probe_index)
    got = json.loads(json.dumps(got))
    assert pop_distances(got) == pytest.approx(pop_distances(expected), rel=1e-9, abs=1e-12)
    assert got == expected
    # the second walk settles on a multi-probe setting
    assert any(doc["adaptive"]["j_best"] > 1 for doc in expected["multi_probe_index"])


def settled_twin(index):
    """`index` rebuilt from its arrays with a screening margin of 2, which
    every function lies within, so each function it screens takes its
    float64 product."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(indexmod, "screen_margin", lambda dim, norm: 2.0)
        return indexmod.MultiLevelIndex(
            index.dataset, index.calibration, index.seed, index.space_budget, index.levels,
            index.directions, index.keys, index.order,
        )


def with_more_queries(inst, count, seed):
    """`inst` queried also at `count` random unit rows and `count` data rows."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((count, inst.dataset.dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    rows = [*rows, *inst.dataset.matrix[rng.integers(0, inst.dataset.size, count)]]
    return inst._replace(queries=(*inst.queries, *(UnitPoint(row) for row in rows)))


@pytest.mark.parametrize("kind, dim", [
    ("cross_polytope", 17), ("cross_polytope", 32), ("spherical_cap", 17), ("spherical_cap", 32),
])
def test_screened_first_reads_report_as_float64_ones(kind, dim, small_index, multi_probe_index):
    # with a margin of 2 every function a query codes on the float32 copy
    # takes its float64 product, the path every query took before reads
    # were screened: every mode and pin reports alike, every field but the
    # wall time, on the two fixtures and at dimensions whose products take
    # different kernels. Every rectangle is screened, as the copy is the
    # whole direction block: every read of the adaptive and single walks,
    # the rest of the extent included, and every read of the pins, the one
    # at level K past the adaptive walk's depth too
    family = FamilyParams(kind=kind, dim=dim)
    inst = generate_planted_instance(n=800, d=dim, r=0.4, t=5, seed=dim, num_queries=6)
    cal = toy_calibration(family, 0.6, 0.3, compute_k(800, 0.3), 8, 1.0)
    cases = [small_index, multi_probe_index] if kind == "cross_polytope" and dim == 17 else []
    cases.append((with_more_queries(inst, 6, dim), build_index(inst.dataset, cal, seed=dim)))
    screens, unsettled = [], indexmod.unsettled
    coded, query_codes = [], indexmod.MultiLevelIndex.query_codes
    ranked, ranked_tuples = [], querymod.ranked_tuples

    def screening(family, proj, margin):
        rows = unsettled(family, proj, margin)
        screens.append(len(rows) == len(proj))
        return rows

    def coding(self, q, *rectangle):
        before = len(screens)
        codes = query_codes(self, q, *rectangle)
        coded.append((rectangle, len(screens) > before))
        return codes

    def ranking(family, proj, levels, width, bits):
        ranked.append(len(proj))
        return ranked_tuples(family, proj, levels, width, bits)

    rest = past = 0
    for case, index in cases:
        K, deepest = index.levels, index.walks["adaptive"].extent[1]
        assert index._copy.shape[:2] == (K, index.num_repetitions) and index._margin < 1e-5
        screens.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(indexmod, "unsettled", screening)
            settled = walk_reports(case, settled_twin(index))
            assert screens and all(screens)
            mp.setattr(indexmod.MultiLevelIndex, "query_codes", coding)
            mp.setattr(querymod, "ranked_tuples", ranking)
            runs, got = walk_runs(case, index), []
            for q in case.queries:
                got.append({})
                for name, run in runs.items():
                    coded.clear()
                    got[-1][name] = timed_doc(run(q.coords))
                    if name != "brute":
                        assert coded and all(took for _, took in coded)
                    if name in index.walks:
                        rest += len(coded) > len(index.walks[name].reads[0].rectangles)
                    elif name.startswith(f"fixed {K},") and K > deepest:
                        past += 1
        assert got == settled
    if kind == "spherical_cap":
        # adaptive queries take the rest of the extent and rank
        assert rest and ranked
    # the pin at level K lies past the adaptive extent on the generated index
    assert past >= len(case.queries)


def full_width_ranking(count):
    """`query.ranked_tuples` as a query ranked before rankings had a width:
    every bucket of every row ranked and merged at the table width `count`."""
    def rank(family, proj, levels, width, bits):
        slots = slot_rankings(family, proj, levels, family.bucket_universe)
        return list(first_tuples(slots, count, bits))
    return rank


def ranking_widths(examined, reps_of, count):
    """The width of each ranking a query makes to measure the settings it
    `examined`, given the repetitions each (level, probes) setting consults:
    it ranks when a multi-probe setting needs more repetitions, levels or
    probes than it ranked before, to the smallest power of two >= the
    probes, at most `count`, and never narrower than before."""
    rows = levels = width = 0
    widths = []
    for setting in examined:
        k, j = setting.level, setting.probes
        if j > 1 and (reps_of[k, j] > rows or k > levels or j > width):
            rows, levels = max(rows, reps_of[k, j]), max(levels, k)
            width = max(width, min(2 ** math.ceil(math.log2(j)), count))
            widths.append(width)
    return widths


@pytest.mark.parametrize("kind, dim", [
    ("cross_polytope", 17), ("cross_polytope", 32), ("spherical_cap", 17), ("spherical_cap", 32),
])
def test_rankings_to_the_width_they_need_report_as_full_width_ones(
    kind, dim, small_index, multi_probe_index
):
    # adaptive queries and the pins (2, 3) and (K, max_probes) report alike,
    # every field but the wall time, whether each ranking ranks and merges
    # to the width its setting needs or, as before, every bucket at the
    # table width; and each ranking takes the width the rule gives
    family = FamilyParams(kind=kind, dim=dim)
    inst = generate_planted_instance(n=800, d=dim, r=0.4, t=5, seed=dim, num_queries=6)
    cal = toy_calibration(family, 0.6, 0.3, compute_k(800, 0.3), 8, 1.0)
    cases = [small_index, multi_probe_index] if kind == "cross_polytope" and dim == 17 else []
    cases.append((with_more_queries(inst, 6, dim), build_index(inst.dataset, cal, seed=dim)))
    widths, ranked_tuples = [], querymod.ranked_tuples

    def ranking(family, proj, levels, width, bits):
        widths.append(width)
        return ranked_tuples(family, proj, levels, width, bits)

    narrow = 0
    for case, index in cases:
        K, count = index.levels, index.calibration.max_probes
        runs = {
            name: run for name, run in walk_runs(case, index).items()
            if name in ("adaptive", "fixed 2,3", f"fixed {K},{count}")
        }
        reps_of = {(k, j): reps for _, k, j, reps, _ in index.walks["adaptive"].entries}
        for k, j in ((2, 3), (K, count)):
            reps_of[k, j] = consulted_reps(index.calibration, k, j, index.num_repetitions)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(querymod, "ranked_tuples", full_width_ranking(count))
            twin = [{name: timed_doc(run(q.coords)) for name, run in runs.items()} for q in case.queries]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(querymod, "ranked_tuples", ranking)
            for q, expected in zip(case.queries, twin):
                for name, run in runs.items():
                    widths.clear()
                    report = run(q.coords)
                    assert timed_doc(report) == expected[name]
                    assert widths == ranking_widths(report.examined, reps_of, count)
                    narrow += sum(w < count for w in widths)
    # some rankings merged narrower than the table
    assert narrow


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_query.py > tests/data/walk_expected.json
    doc = {"small_index": walk_reports(*build_small_index())}
    doc["multi_probe_index"] = walk_reports(*build_multi_probe_index())
    print(json.dumps(doc, indent=1, sort_keys=True))
