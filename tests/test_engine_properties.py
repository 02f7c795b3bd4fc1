"""Property tests: the vectorized query engine against a per-probe reference.

The reference ranks each hash function with `probe_sequence`, enumerates
each (repetition, level) on its own through `CodeEnumerator`, the one-query
shell over the same `first_tuples` merge the engine runs on all repetitions
at once, and finds bucket members by a linear scan of the codes `hash_batch`
gives afresh, with no packed keys, no key-range search and no stacked
directions. The probe order itself is checked against an oracle that shares
no code with the merge, the sorted full code grid of
`test_enumerator_matches_the_sorted_grid` in test_families.py. Its scheduler sorts every setting by `cost`
itself and measures each one it reaches, with no spine lower bound. Reports
must agree exactly: ids, distances, work, buckets and best setting. The
engine's adaptive trace is the reference trace less the settings it pruned,
each of which could not have won.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import slot_functions
from mlslsh.calibration import FamilyCalibration
from mlslsh.families import KEY_BITS, CodeEnumerator, FamilyParams, hash_batch, probe_sequence
from mlslsh.families import slot_bits
from mlslsh.geometry import generate_planted_instance, normalize_dataset
from mlslsh.index import build_index, compute_k
from mlslsh.query import (
    _QueryProbes,
    adaptive_multiprobe,
    brute_force_range,
    cost,
    fixed_level_query,
    single_probe_adaptive,
)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def toy_calibration(params, p1, p2, levels, max_probes, slope):
    ks = np.arange(1, levels + 1, dtype=np.float64)[:, None]
    js = np.arange(1, max_probes + 1, dtype=np.float64)[None, :]
    table = np.minimum(1.0, p1**ks * (1.0 + slope * (js - 1.0)))
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


@st.composite
def instances(draw):
    """A small index with duplicate and degenerate rows, and its queries."""
    d = draw(st.integers(2, 8))
    n = draw(st.integers(1, 300))
    if draw(st.booleans()):
        family = FamilyParams(kind="cross_polytope", dim=d)
    else:
        family = FamilyParams(kind="spherical_cap", dim=d, cap_count=draw(st.integers(2, 16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.standard_normal((n, d))
    # lattice rows tie projections, copies duplicate rows, and rows equal
    # to the mean center to zero and are pinned to (1, 0, ..., 0)
    lattice = rng.random(n) < draw(st.floats(0.0, 0.5))
    raw[lattice] = rng.integers(-1, 2, size=(int(lattice.sum()), d))
    copies = rng.integers(0, n, size=draw(st.integers(0, n)))
    raw[rng.integers(0, n, size=copies.size)] = raw[copies]
    if draw(st.booleans()):
        raw[rng.integers(0, n, size=draw(st.integers(1, n)))] = raw.mean(axis=0)
    dataset = normalize_dataset(raw)

    p1 = draw(st.floats(0.5, 0.95))
    p2 = draw(st.floats(0.05, min(0.6, p1 - 0.05)))
    max_probes = draw(st.integers(1, 8))
    cal = toy_calibration(
        family, p1, p2, compute_k(n, p2) + draw(st.integers(0, 2)), max_probes,
        draw(st.floats(0.0, 0.5)),
    )
    index = build_index(
        dataset, cal, space_budget=draw(st.integers(1, 12)), seed=draw(st.integers(0, 1000))
    )
    queries = rng.standard_normal((3, d))
    queries[0] = dataset.matrix[rng.integers(0, n)]
    queries[1] = 0.0
    queries[1, 0] = 1.0
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)
    return index, queries, draw(st.floats(0.0, 2.0))


class Reference:
    """Per-probe query path for one query."""

    def __init__(self, index, q):
        self.index, self.q = index, q
        self.functions = [slot_functions(index, r) for r in range(index.num_repetitions)]
        self.codes = [
            np.stack([hash_batch(fn, index.dataset.matrix) for fn in fns], axis=1)
            for fns in self.functions
        ]
        self.enums = {}

    def reps(self, k, j):
        cal = self.index.calibration
        return int(cost(k, j, cal, self.index.num_repetitions)) // j

    def probes(self, rep, k, j):
        if (rep, k) not in self.enums:
            fns = self.functions[rep][:k]
            self.enums[rep, k] = CodeEnumerator([probe_sequence(fn, self.q) for fn in fns])
        return self.enums[rep, k].first(j)

    def members(self, rep, code):
        codes = self.codes[rep][:, : len(code)]
        return np.flatnonzero(np.all(codes == np.array(code), axis=1))

    def work(self, k, j):
        return float(
            sum(
                1 + self.members(rep, code).size
                for rep in range(self.reps(k, j))
                for code in self.probes(rep, k, j)
            )
        )

    def report(self, radius, k, j, w, examined, mode):
        trace = [{"level": a, "probes": b, "cost": c, "work": e} for a, b, c, e in examined]
        if k == 0:
            doc = brute_force_range(self.index.dataset, self.q, radius).to_json_dict()
            doc.update(mode=mode, examined=trace)
            return doc
        parts = [
            self.members(rep, code)
            for rep in range(self.reps(k, j))
            for code in self.probes(rep, k, j)
        ]
        cand = np.unique(np.concatenate(parts))
        diff = self.index.dataset.matrix[cand] - self.q[None, :]
        dists = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        keep = dists <= radius
        return {
            "mode": mode,
            "ids": [int(i) for i in cand[keep]],
            "distances": [float(v) for v in dists[keep]],
            "t_reported": int(keep.sum()),
            "work_examined": w,
            "buckets_probed": len(parts),
            "k_best": k,
            "j_best": j,
            "w_best": w,
            "examined": trace,
        }


def reference_schedule(index, q, radius, multi_probe, mode):
    ref = Reference(index, q)
    cal = index.calibration
    R = index.num_repetitions
    max_j = cal.max_probes if multi_probe else 1
    settings = sorted(
        (cost(k, j, cal, R), k, j) for k in range(1, index.levels + 1) for j in range(1, max_j + 1)
    )
    w_best, k_best, j_best = float(index.size), 0, 0
    examined = []
    for c, k, j in settings:
        if c >= w_best:
            break
        w = ref.work(k, j)
        examined.append((k, j, c, w))
        if w < w_best:
            w_best, k_best, j_best = w, k, j
    return ref.report(radius, k_best, j_best, w_best, examined, mode)


def check_pruned_trace(trace, full, pruned, n):
    """`trace` is `full` less `pruned` multi-probe entries, each measuring at
    least the best work `full` had seen before it."""
    kept = iter(trace)
    running, dropped = float(n), 0
    expect = next(kept, None)
    for e in full:
        if e == expect:
            expect = next(kept, None)
        else:
            assert e["probes"] > 1 and e["work"] >= running
            dropped += 1
        running = min(running, e["work"])
    assert expect is None, "the trace is not a subsequence of the reference"
    assert dropped == pruned


@SETTINGS
@given(instances())
def test_adaptive_and_single_match_the_reference(case):
    index, queries, radius = case
    for q in queries:
        report = adaptive_multiprobe(index, q, radius)
        got = report.to_json_dict()
        expected = reference_schedule(index, q, radius, True, "adaptive")
        trace, full = got.pop("examined"), expected.pop("examined")
        assert got == expected
        check_pruned_trace(trace, full, report.settings_pruned, index.size)
        report = single_probe_adaptive(index, q, radius)
        assert report.to_json_dict() == reference_schedule(index, q, radius, False, "single")
        assert report.settings_pruned == 0


@SETTINGS
@given(instances())
def test_spine_lower_bound_is_admissible(case):
    # each consulted repetition reads its own bucket, then at least one unit
    # per further probe, of which a level with U^k < j codes has U^k - 1
    index, queries, radius = case
    universe = index.family.bucket_universe
    for q in queries:
        ref, probes = Reference(index, q), _QueryProbes(index, q)
        for k in range(1, index.levels + 1):
            for j in range(1, index.calibration.max_probes + 1):
                r_count = ref.reps(k, j)
                own = sum(
                    1 + ref.members(rep, ref.probes(rep, k, 1)[0]).size for rep in range(r_count)
                )
                bound = probes.bounds[k - 1][j - 1]
                assert bound == own + r_count * (min(j, universe**k) - 1)
                work = fixed_level_query(index, q, radius, k, j).work_examined
                assert bound <= work
                if j == 1:
                    assert bound == work


@pytest.mark.parametrize("kind", ["cross_polytope", "spherical_cap"])
def test_pruning_measures_fewer_settings(kind):
    # a later change that loses the pruning fails here without any timing
    family = FamilyParams(kind=kind, dim=12, cap_count=16)
    inst = generate_planted_instance(n=600, d=12, r=0.4, t=5, seed=5, num_queries=3)
    cal = toy_calibration(family, 0.8, 0.3, compute_k(600, 0.3), 16, 0.25)
    index = build_index(inst.dataset, cal, seed=3)
    pruned = measured = full = 0
    for q in inst.queries:
        report = adaptive_multiprobe(index, q.coords, 0.4)
        pruned += report.settings_pruned
        measured += len(report.examined)
        full += len(reference_schedule(index, q.coords, 0.4, True, "adaptive")["examined"])
    assert pruned > 0
    assert measured < full


def test_adaptive_follows_cost_order_where_a_level_cost_dips():
    # level 2 costs 12, 10, 15 for one, two and three probes, so (2, 2)
    # comes before (2, 1); a walk that reaches (k, j + 1) only through
    # (k, j) examines them out of cost order and can stop too early
    family = FamilyParams(kind="cross_polytope", dim=12)
    inst = generate_planted_instance(n=600, d=12, r=0.4, t=5, seed=5, num_queries=3)
    cal = toy_calibration(family, 0.5, 0.2, 4, 6, 3.0)
    index = build_index(inst.dataset, cal, seed=3)
    R = index.num_repetitions
    costs = {
        (k, j): cost(k, j, cal, R)
        for k in range(1, index.levels + 1)
        for j in range(1, cal.max_probes + 1)
    }
    assert [costs[2, j] for j in (1, 2, 3)] == [12.0, 10.0, 15.0]
    for q in inst.queries:
        report = adaptive_multiprobe(index, q.coords, 0.4)
        trace = [(e.level, e.probes) for e in report.examined]
        assert [e.cost for e in report.examined] == sorted(e.cost for e in report.examined)
        assert (2, 1) in trace and trace.index((2, 2)) < trace.index((2, 1))
        unmeasured = [s for s, c in costs.items() if c < report.w_best and s not in trace]
        assert len(unmeasured) <= report.settings_pruned


@SETTINGS
@given(instances(), st.data())
def test_fixed_matches_the_reference(case, data):
    index, queries, radius = case
    cal = index.calibration
    k = data.draw(st.integers(1, index.levels))
    j = data.draw(st.integers(1, cal.max_probes))
    for q in queries:
        ref = Reference(index, q)
        w = ref.work(k, j)
        c = cost(k, j, cal, index.num_repetitions)
        expected = ref.report(radius, k, j, w, [(k, j, c, w)], "fixed")
        assert fixed_level_query(index, q, radius, k, j).to_json_dict() == expected


@SETTINGS
@given(instances(), st.data())
def test_keys_match_a_linear_scan(case, data):
    index, _, _ = case
    matrix = index.dataset.matrix
    for r, rep in enumerate(index.repetitions):
        codes = np.stack([hash_batch(fn, matrix) for fn in slot_functions(index, r)], axis=1)
        order = np.lexsort(tuple(codes[:, s] for s in reversed(range(index.levels))))
        assert np.array_equal(rep.order, order)
        assert np.array_equal(rep.sorted_codes, codes[order])
        for _ in range(5):
            k = data.draw(st.integers(1, index.levels))
            if data.draw(st.booleans()):
                prefix = tuple(int(v) for v in codes[data.draw(st.integers(0, index.size - 1)), :k])
            else:
                top = 1 << (rep.bits + 1)
                prefix = tuple(data.draw(st.lists(st.integers(-1, top), min_size=k, max_size=k)))
            expected = np.flatnonzero(np.all(codes[:, :k] == np.array(prefix), axis=1))
            lo, hi = rep.prefix_range(prefix)
            assert hi - lo == expected.size
            assert np.array_equal(np.sort(rep.order[lo:hi]), expected)


@settings(deadline=None, derandomize=True)
@given(
    st.sampled_from(["cross_polytope", "spherical_cap"]),
    st.integers(2, 2000),
    st.integers(1, 70),
)
def test_bit_budget_holds_exactly_when_keys_fit(kind, size, depth):
    family = FamilyParams(kind=kind, dim=size, cap_count=size)
    needed = depth * math.ceil(math.log2(family.bucket_universe))
    if needed <= KEY_BITS:
        assert slot_bits(family, depth) * depth == needed
    else:
        try:
            slot_bits(family, depth)
        except ValueError as e:
            assert f"{needed} key bits" in str(e)
        else:
            raise AssertionError(f"{needed} bits were accepted")
