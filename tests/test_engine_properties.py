"""Property tests: the vectorized query engine against a per-probe reference.

The reference ranks each hash function with `stable_probe_sequence`, a
stable argsort of every bucket that shares no ranking code with the library,
enumerates each (repetition, level) on its own through `CodeEnumerator`, the
one-query shell over the same `first_tuples` merge the engine runs on all
repetitions at once, and finds bucket members by a linear scan of the codes
`hash_batch` gives afresh, one function's rows of the direction stack at a
time, with no packed keys, no key-range search and no stacked projection.
The probe order itself is checked against an oracle that shares no code
with the merge, the sorted full code grid of
`test_enumerator_matches_the_sorted_grid` in test_families.py. Its
scheduler sorts every setting by its own cost and measures each one it
reaches that its own recount of the coding and ranking charges leaves,
with no spine lower bound. Reports must agree exactly: ids, distances,
work, buckets, best setting and the charged skips. The engine's adaptive
trace is the reference trace less the settings its spine bound pruned,
each of which could not have won.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlslsh.index as indexmod
from conftest import feasible_reps, first_read, setting_cost, stable_probe_sequence
from conftest import toy_calibration, zero_charges
from mlslsh.families import KEY_BITS, CodeEnumerator, FamilyParams, hash_batch
from mlslsh.families import _pack, _prefixes, bucket_codes, first_tuples
from mlslsh.families import ranked_tuples, sample_directions, slot_bits, slot_rankings
from mlslsh.geometry import generate_planted_instance, normalize_dataset
from mlslsh.index import MultiLevelIndex, build_index, compute_k, key_blocks, reps, schedule_entry
from mlslsh.index import screen_margin
from mlslsh.query import (
    _QueryProbes,
    adaptive_multiprobe,
    brute_force_range,
    fixed_level_query,
    single_probe_adaptive,
)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def instances(
    draw, dims=st.integers(2, 8), max_p2=0.6, budgets=st.integers(1, 12), min_p1=0.5,
    slopes=st.floats(0.0, 0.5),
):
    """A small index with duplicate and degenerate rows, and its queries.
    p2 <= 0.5 keeps the at most 9 levels of 300 points within the key bits
    of 66 buckets. A steeper probe-success slope makes more multi-probe
    settings feasible, some at deeper levels than any single-probe one."""
    d = draw(dims)
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

    p1 = draw(st.floats(min_p1, 0.95))
    p2 = draw(st.floats(0.05, min(max_p2, p1 - 0.05)))
    max_probes = draw(st.integers(1, 8))
    cal = toy_calibration(
        family, p1, p2, compute_k(n, p2) + draw(st.integers(0, 2)), max_probes, draw(slopes),
    )
    index = build_index(
        dataset, cal, space_budget=draw(budgets), seed=draw(st.integers(0, 1000))
    )
    queries = rng.standard_normal((3, d))
    queries[0] = dataset.matrix[rng.integers(0, n)]
    queries[1] = 0.0
    queries[1, 0] = 1.0
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)
    return index, queries, draw(st.floats(0.0, 2.0))


class Reference:
    """Per-probe query path for one query; a setting (k, j) consults the
    first `count` repetitions."""

    def __init__(self, index, q):
        self.index, self.q = index, q
        self.codes = [
            np.stack([hash_batch(index.family, d, index.dataset.matrix) for d in rep.directions], 1)
            for rep in index.repetitions
        ]
        self.enums = {}

    def probes(self, rep, k, j):
        if (rep, k) not in self.enums:
            stack = self.index.repetitions[rep].directions[:k]
            self.enums[rep, k] = CodeEnumerator(
                [stable_probe_sequence(self.index.family, d, self.q) for d in stack]
            )
        return self.enums[rep, k].first(j)

    def members(self, rep, code):
        codes = self.codes[rep][:, : len(code)]
        return np.flatnonzero(np.all(codes == np.array(code), axis=1))

    def work(self, k, j, count):
        return float(
            sum(
                1 + self.members(rep, code).size
                for rep in range(count)
                for code in self.probes(rep, k, j)
            )
        )

    def report(self, radius, k, j, count, w, examined, mode):
        trace = [{"level": a, "probes": b, "cost": c, "work": e} for a, b, c, e in examined]
        if k == 0:
            doc = brute_force_range(self.index.dataset, self.q, radius).to_json_dict()
            doc.update(mode=mode, examined=trace)
            return doc
        parts = [
            self.members(rep, code)
            for rep in range(count)
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
    """The walk over every feasible setting in cost order, measuring each one
    the charges leave, and in its report how many they skipped. What the
    query has read is the first read `first_read` recounts, or the whole
    extent once a setting outside it passed the charge; what it has ranked
    is the rectangle and width of the multi-probe settings measured whose
    spine bound, their own buckets plus one unit per further probe, stayed
    below the best work. A setting is skipped when its cost reaches the best
    work plus what it adds: CODE_CHARGE per function of the extent not read,
    if it lies outside what was read, and, past one probe, RANK_CHARGE per
    function of the rectangle it would rank, if the ranking so far falls
    short of its repetitions, level or width, the smallest power of two >= j
    up to the table's."""
    ref = Reference(index, q)
    width = index.calibration.max_probes
    max_j = width if multi_probe else 1
    settings = sorted(
        (setting_cost(index, k, j), k, j, feasible_reps(index, k, j))
        for k in range(1, index.levels + 1)
        for j in range(1, max_j + 1)
        if feasible_reps(index, k, j) is not None
    )
    rows = max((count for *_, count in settings), default=0)
    levels = max((k for _, k, _, _ in settings), default=0)
    read, ranked, universe = first_read(index), (0, 0, 0), index.family.bucket_universe
    w_best, best = float(index.size), (0, 0, 0)
    examined, charged = [], 0
    for c, k, j, count in settings:
        if c >= w_best:
            break
        outside = count > read[0] or k > read[1]
        charge = indexmod.CODE_CHARGE * (rows * levels - read[0] * read[1]) if outside else 0.0
        needed = min(2 ** math.ceil(math.log2(j)), width)
        grown = max(count, ranked[0]), max(k, ranked[1]), max(needed, ranked[2])
        if j > 1 and grown != ranked:
            charge += indexmod.RANK_CHARGE * grown[0] * grown[1]
        if c + charge >= w_best:
            charged += 1
            continue
        if outside:
            read = rows, levels
        w = ref.work(k, j, count)
        examined.append((k, j, c, w))
        own = sum(1 + ref.members(rep, ref.probes(rep, k, 1)[0]).size for rep in range(count))
        if j > 1 and own + count * (min(j, universe**k) - 1) < w_best:
            ranked = grown
        if w < w_best:
            w_best, best = w, (k, j, count)
    return {**ref.report(radius, *best, w_best, examined, mode), "settings_charged": charged}


def answers_as_the_reference(index, q, radius):
    """Check the adaptive and single reports of q against `reference_schedule`:
    every field, the charged skips among them, and a trace that is the
    reference's less the multi-probe entries the spine bound pruned. Returns
    the skips the charge made in single and in adaptive mode."""
    report = adaptive_multiprobe(index, q, radius)
    got = {**report.to_json_dict(), "settings_charged": report.settings_charged}
    expected = reference_schedule(index, q, radius, True, "adaptive")
    trace, full = got.pop("examined"), expected.pop("examined")
    assert got == expected
    check_pruned_trace(trace, full, report.settings_pruned - report.settings_charged, index.size)
    single = single_probe_adaptive(index, q, radius)
    got = {**single.to_json_dict(), "settings_charged": single.settings_charged}
    assert got == reference_schedule(index, q, radius, False, "single")
    # a single-probe entry's bound is its work, so only the charge skips one
    assert single.settings_pruned == single.settings_charged
    return single.settings_charged, report.settings_charged


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
        answers_as_the_reference(index, q, radius)


@pytest.mark.parametrize("kind", ["cross_polytope", "spherical_cap"])
def test_charged_walks_match_the_reference(kind):
    # the charges at work where the instances above rarely reach them. On
    # the cross-polytope index single mode reads first 8 repetitions 2
    # levels deep of its 17 x 3 extent, so the charge skips single-probe
    # entries outside the first read; on both, multi-probe settings cost
    # less than the best work, so it skips them for their ranking, and on
    # the cap index queries that ranked are charged for the rectangle a
    # later setting grows that ranking to
    family = FamilyParams(kind=kind, dim=12, cap_count=16)
    inst = generate_planted_instance(n=600, d=12, r=0.4, t=5, seed=5, num_queries=6)
    cal = toy_calibration(family, 0.6, 0.3, compute_k(600, 0.3), 6, 1.0)
    index = build_index(inst.dataset, cal, seed=3)
    single = index.walks["single"]
    skips = np.array([answers_as_the_reference(index, q.coords, 0.4) for q in inst.queries])
    if kind == "cross_polytope":
        assert (single.first, single.depth, single.extent) == (8, 2, (17, 3))
        assert skips[:, 0].sum() > 0
    assert skips[:, 1].sum() > 0


@SETTINGS
@given(instances())
def test_spine_lower_bound_is_admissible(case):
    # each consulted repetition reads its own bucket, then at least one unit
    # per further probe, of which a level with U^k < j codes has U^k - 1
    index, queries, radius = case
    universe = index.family.bucket_universe
    for q in queries:
        if not index.schedule:
            continue
        walk = index.walks["adaptive"]
        ref, probes = Reference(index, q), _QueryProbes(index, q, walk)
        for entry in index.schedule:
            _, k, j, r_count, _ = entry
            assert r_count == feasible_reps(index, k, j)
            own = sum(
                1 + ref.members(rep, ref.probes(rep, k, 1)[0]).size for rep in range(r_count)
            )
            bound = probes.bound(entry)
            assert bound == own + r_count * (min(j, universe**k) - 1)
            work = fixed_level_query(index, q, radius, k, j).work_examined
            assert bound <= work
            if j == 1:
                assert bound == work


class FullProjection:
    """The query path over the whole direction block: the query projected on
    all R * K functions in one product, its own bucket searched at every
    level of every repetition, and every slot ranked, as a query read the
    index before read extents. Buckets are found by `searched_runs`, one
    plain search per repetition and level over keys without tags."""

    def __init__(self, index, q):
        K, R = index.levels, index.num_repetitions
        self.index, self.bits = index, slot_bits(index.family, K)
        self.proj = index.directions @ q
        own = bucket_codes(index.family, self.proj).reshape(R, K)
        # the level-k prefix key of the own bucket of every repetition
        self.own = _prefixes(_pack(own, self.bits), self.bits, K)
        self.keys = [_pack(rep.sorted_codes, self.bits) for rep in index.repetitions]
        self.lo, self.hi = np.zeros((R, K), dtype=np.intp), np.zeros((R, K), dtype=np.intp)
        for k in range(1, K + 1):
            lo, hi = self.runs(k, 1, R)
            self.lo[:, k - 1], self.hi[:, k - 1] = lo[:, 0], hi[:, 0]
        slots = slot_rankings(index.family, self.proj, K, index.family.bucket_universe)
        self.levels = list(first_tuples(slots, index.calibration.max_probes, self.bits))

    def runs(self, k, j, count):
        """Runs [lo, hi) of repetition-local positions, two (count, probes) arrays."""
        prefixes = self.own[:count, k - 1 : k] if j == 1 else self.levels[k - 1][:count, :j]
        runs = [
            searched_runs(self.keys[r], prefixes[r], self.bits, self.index.levels, k)
            for r in range(count)
        ]
        return np.array([a for a, _ in runs]), np.array([b for _, b in runs])


@SETTINGS
@given(instances(budgets=st.integers(1, 64), slopes=st.floats(0.0, 3.0)))
def test_first_depth_matches_a_recount(case):
    # both walks read first the repetitions and the depth `first_read`
    # recounts from the keys and the coding charge, within their extents
    index = case[0]
    single, adaptive = index.walks["single"], index.walks["adaptive"]
    assert (single.first, single.depth) == (adaptive.first, adaptive.depth) or not single.entries
    assert (adaptive.first, adaptive.depth) == first_read(index)
    assert single.depth <= single.extent[1] and adaptive.depth <= adaptive.extent[1]
    assert single.first <= single.extent[0]


@SETTINGS
@given(instances(budgets=st.integers(1, 64), slopes=st.floats(0.0, 3.0)))
def test_read_plans_search_each_bucket_of_the_reach_once(case):
    # a walk read first from any depth reads its first repetitions that
    # deep, then the rest of its extent: the two reads project every cell of
    # the extent once, search every own bucket the reach keeps once and no
    # other, each plan only cells of its own rectangles, and each cell's
    # needle ends hold its repetition's tag and its level's shift
    index = case[0]
    K, bits = index.levels, slot_bits(index.family, index.levels)
    for walk in first_depths(index):
        (count, deepest), first, depth = walk.extent, walk.first, walk.depth
        kept = [r * deepest + k for r in range(count) for k in range(deepest) if r < walk.reach[k]]
        projected, cells = np.zeros((count, deepest), dtype=int), []
        assert walk.reads[0].rectangles == (((0, first, 0, depth),) if first * depth else ())
        for plan in walk.reads:
            inside = np.zeros_like(projected, dtype=bool)
            for start, stop, top, bottom in plan.rectangles:
                assert start < stop and top < bottom
                inside[start:stop, top:bottom] = True
            projected += inside
            rows, levels = np.divmod(plan.cells, deepest)
            assert np.all(inside[rows, levels]) and np.all(np.diff(plan.cells) > 0)
            tags = np.array([index.repetitions[r].tag for r in rows], dtype=np.int64)
            masks = (1 << bits * (K - 1 - levels)) - 1
            assert np.array_equal(plan.ends, np.stack([tags - 1, tags + masks], axis=-1))
            cells.extend(plan.cells.tolist())
        assert np.all(projected == 1)
        assert sorted(cells) == kept


def first_depths(index):
    """The walks of `index` with the adaptive walk read first from every
    depth between the level of its cheapest j = 1 entry, 0 without one, and
    its extent's depth."""
    single, adaptive = index.walks["single"], index.walks["adaptive"]
    depths = range(single.entries[0][1] if single.entries else 0, adaptive.extent[1] + 1)
    return [single, *(index.walk(adaptive.entries, depth) for depth in depths)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    instances(
        dims=st.sampled_from([3, 5, 6, 17, 30, 31, 33]), max_p2=0.5, budgets=st.integers(1, 64),
        min_p1=0.35, slopes=st.floats(0.0, 3.0),
    ),
    st.data(),
)
def test_read_extents_match_a_full_projection(case, data):
    # each mode reads only its walk's extent of the direction block, its
    # first repetitions up front as deep as the walk says, and the rest of
    # the extent when an entry first needs a repetition or a level outside
    # them, yet codes, bounds, measures and collects every entry it may
    # walk exactly as the whole block's float64 product does, at dimensions
    # whose products take different kernels, and ranks that product's
    # bytes, also where the first read was screened in float32. An adaptive
    # walk runs from every first depth it could be given. Entries come in
    # any order, so a bound, measurement or candidate set that read past
    # the repetitions or levels read would differ. After every call, each
    # cell of the grid read so far holds the code of its own bucket, and
    # after each entry, the functions projected are the first read or the
    # whole extent, each once, and the buckets searched are the own
    # buckets of that rectangle that the walk's reach keeps plus the probes
    # of each multi-probe entry
    index, queries, _ = case
    K, R = index.levels, index.num_repetitions
    for q in queries:
        full = FullProjection(index, q)
        functions = full.proj.reshape(R, K, -1)
        own = bucket_codes(index.family, full.proj).reshape(R, K)

        def checked(value):
            cells = np.s_[: probes.read, : probes.depth]
            assert np.array_equal(probes._codes[cells], own[cells])
            return value

        for walk in first_depths(index):
            (r, depth), entries = walk.extent, walk.entries
            if not entries:
                assert (r, depth) == (0, 0)
                continue
            coded, ranked = [], []
            rectangles = [*walk.reads[0].rectangles, *walk.reads[1].rectangles]

            def code(family, proj):
                coded.append(bucket_codes(family, proj))
                return coded[-1]

            def rank(family, proj, levels, width, bits):
                ranked.append((proj.copy(), levels))
                return ranked_tuples(family, proj, levels, width, bits)

            def check_rectangle(reps, levels, blocks):
                # each block codes one rectangle of a read, in the order the
                # reads take them, as the full projection codes it; each
                # ranking ranks the float64 bytes of the full projection
                assert (probes.read, probes.depth) == (reps, levels)
                assert len(coded) == blocks
                for got, (start, stop, top, bottom) in zip(coded, rectangles):
                    assert np.array_equal(got, own[start:stop, top:bottom].reshape(-1))
                for proj, deep in ranked:
                    rectangle = functions[: len(proj) // deep, :deep]
                    assert proj.tobytes() == rectangle.reshape(proj.shape).tobytes()
                assert probes.functions_projected == reps * levels

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(indexmod, "bucket_codes", code)
                mp.setattr(indexmod, "ranked_tuples", rank)
                probes = _QueryProbes(index, q, walk)
                checked(probes)
                reps, levels = walk.first, walk.depth
                check_rectangle(reps, levels, int(reps > 0))
                looked_up = 0
                for entry in data.draw(st.permutations(entries)):
                    _, k, j, count, floor = entry
                    assert count <= r and k <= depth
                    spine = int((1 + full.hi - full.lo)[:count, k - 1].sum())
                    blocks = len(coded)
                    lo, hi = full.runs(k, j, count)
                    # measured before or after it is bounded
                    measured_first = data.draw(st.booleans())
                    if measured_first:
                        assert checked(probes.work(entry)) == float((1 + hi - lo).sum())
                    assert checked(probes.bound(entry)) == spine + floor
                    if not measured_first:
                        assert checked(probes.work(entry)) == float((1 + hi - lo).sum())
                    parts = [
                        rep.order[a:b]
                        for rep, starts, ends in zip(index.repetitions, lo, hi)
                        for a, b in zip(starts, ends)
                    ]
                    ids, buckets = checked(probes.candidates(entry))
                    assert np.array_equal(ids, np.unique(np.concatenate(parts)))
                    assert buckets == lo.size
                    # a level or a repetition not read yet reads the rest
                    # of the extent, one block per rectangle of it
                    if k > levels or count > reps:
                        blocks, reps, levels = blocks + len(walk.reads[1].rectangles), r, depth
                    check_rectangle(reps, levels, blocks)
                    looked_up += lo.size if j > 1 else 0
                    spine = sum(min(reps, walk.reach[level]) for level in range(levels))
                    assert probes.key_searches == spine + looked_up


def test_an_empty_single_extent_reads_the_whole_adaptive_extent_on_first_need():
    # no single-probe setting reaches its repetitions in R = 4, but (1, 2)
    # and (1, 3) do: an adaptive query reads nothing up front, then all four
    # repetitions at level 1 when it first bounds (1, 2), charged for those
    # four functions and for ranking the three that (1, 2) consults
    family = FamilyParams(kind="cross_polytope", dim=12)
    inst = generate_planted_instance(n=600, d=12, r=0.4, t=5, seed=5, num_queries=3)
    cal = toy_calibration(family, 0.3, 0.2, compute_k(600, 0.2), 4, 10.0)
    index = build_index(inst.dataset, cal, space_budget=4, seed=3)
    walk = index.walks["adaptive"]
    assert (walk.entries, walk.extent, walk.first) == (index.schedule, (4, 1), 0)
    assert index.walks["single"] == index.walk(())
    for q in inst.queries:
        probes = _QueryProbes(index, q.coords, walk)
        assert probes.read == probes.functions_projected == 0
        entry = index.schedule[0]
        assert probes.charge(entry) == 4 * indexmod.CODE_CHARGE + entry[3] * indexmod.RANK_CHARGE
        probes.bound(entry)
        assert probes.read == 4
        report = adaptive_multiprobe(index, q.coords, 0.4)
        assert report.functions_projected == 4 and report.j_best > 1
        answers_as_the_reference(index, q.coords, 0.4)
        single = single_probe_adaptive(index, q.coords, 0.4)
        assert (single.k_best, single.functions_projected) == (0, 0)


@pytest.mark.parametrize(
    "levels, p1, p2, groups",
    [
        # 9 slots of the 65 cap buckets take all 63 key bits: no room for a
        # tag, so each of the 25 repetitions is a group of its own
        (9, 0.7, 0.5, [(r, r + 1) for r in range(25)]),
        # 8 slots take 56 bits, so 128 repetitions share a group and the
        # 139th is the second group's 11th; a pin deeper than the schedule
        # reads all 139
        (8, 0.54, 0.46, [(0, 128), (128, 139)]),
    ],
)
def test_key_groups_answer_as_the_reference(levels, p1, p2, groups):
    family = FamilyParams(kind="spherical_cap", dim=8, cap_count=64)
    inst = generate_planted_instance(n=300, d=8, r=0.4, t=5, seed=5, num_queries=3)
    index = build_index(inst.dataset, toy_calibration(family, p1, p2, levels, 4, 1.0), seed=3)
    assert index.levels == levels and [g[:2] for g in index._groups] == groups
    for q in inst.queries:
        q = q.coords
        answers_as_the_reference(index, q, 0.4)
        ref = Reference(index, q)
        for k, j in ((1, 1), (2, 3), (6, 1), (levels, 4)):
            count = feasible_reps(index, k, j) or index.num_repetitions
            w = ref.work(k, j, count)
            expected = ref.report(0.4, k, j, count, w, [(k, j, float(j * count), w)], "fixed")
            assert fixed_level_query(index, q, 0.4, k, j).to_json_dict() == expected


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


def test_adaptive_follows_cost_order_where_a_level_cost_dips(monkeypatch):
    # level 2 costs 12, 10, 15 for one, two and three probes, so (2, 2)
    # comes before (2, 1); a walk that reaches (k, j + 1) only through
    # (k, j) examines them out of cost order and can stop too early. The
    # charges are 0 here: ranking the 5 repetitions of (2, 2) 2 levels deep
    # is charged 80 units, which with its cost 10 reaches the best work of
    # two of the three queries, and the order is what is tested
    zero_charges(monkeypatch)
    family = FamilyParams(kind="cross_polytope", dim=12)
    inst = generate_planted_instance(n=600, d=12, r=0.4, t=5, seed=5, num_queries=3)
    cal = toy_calibration(family, 0.5, 0.2, 4, 6, 3.0)
    index = build_index(inst.dataset, cal, seed=3)
    costs = {
        (k, j): setting_cost(index, k, j)
        for k in range(1, index.levels + 1)
        for j in range(1, cal.max_probes + 1)
        if setting_cost(index, k, j) is not None
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
    # a pin the schedule leaves out still reads reps(k, j) repetitions, capped
    # at those built, or all of them when P(k, j) = 0
    p, R = cal.probe_probability(k, j), index.num_repetitions
    count = R if p == 0.0 else min(reps(k, j, p), R)
    infeasible = feasible_reps(index, k, j) is None
    for q in queries:
        ref = Reference(index, q)
        w = ref.work(k, j, count)
        expected = ref.report(radius, k, j, count, w, [(k, j, float(j * count), w)], "fixed")
        report = fixed_level_query(index, q, radius, k, j)
        assert report.to_json_dict() == expected
        assert report.infeasible is infeasible


@SETTINGS
@given(instances(), st.data())
def test_keys_match_a_linear_scan(case, data):
    index, _, _ = case
    matrix = index.dataset.matrix
    for rep in index.repetitions:
        codes = np.stack([hash_batch(index.family, d, matrix) for d in rep.directions], axis=1)
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


def searched_runs(keys, prefixes, bits, K, k):
    """Runs [lo, hi) of the k-slot `prefixes` among sorted K-slot `keys`:
    one plain searchsorted of each end over the keys cut to k slots."""
    cut = _prefixes(keys, bits, K)[:, k - 1]
    return np.searchsorted(cut, prefixes, "left"), np.searchsorted(cut, prefixes, "right")


@SETTINGS
@given(
    st.sampled_from([
        # 9 slots of the 65 cap buckets take all 63 key bits: groups of one
        (FamilyParams(kind="spherical_cap", dim=8, cap_count=64), 9),
        # 31 slots of 4 buckets take 62 bits, 10 of 64 take 60: groups of
        # two and of eight repetitions
        (FamilyParams(kind="cross_polytope", dim=2), 31),
        (FamilyParams(kind="cross_polytope", dim=32), 10),
        (FamilyParams(kind="spherical_cap", dim=3, cap_count=2), 4),
        (FamilyParams(kind="cross_polytope", dim=4), 5),
        (FamilyParams(kind="cross_polytope", dim=2), 1),
    ]),
    st.integers(1, 200),
    st.integers(1, 10),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_first_keys_and_runs_match_a_per_repetition_search(family_depth, n, R, m, seed, settle):
    # a read's first keys, which `own_runs` makes with one cumulative sum
    # of its codes shifted to their slots, and the probe keys `probe_keys`
    # shifts for a multi-probe lookup, both searched by `bucket_runs` in tagged key groups, against keys packed
    # by `_pack` and `_prefixes` and one plain searchsorted per repetition
    # and level on keys without tags, and the bounds and candidates of those
    # runs. A read searches level k only in the repetitions below a random
    # reach[k - 1], and an entry at level k reads all of them. Codes 0 and
    # 2**bits - 1 at every level put needles at the ends of a tag's key
    # range, and the widest codes, which no key holds, leave every run
    # empty; codes from a small pool make the stored buckets large. A walk
    # reaches within the first read of the index's walks, within their
    # adaptive extent or anywhere in the block; the read is screened on the
    # float32 copy wherever it reaches, and with `settle` a margin of 2 sends
    # every function it screens to its float64 product
    family, K = family_depth
    bits, universe = slot_bits(family, K), family.bucket_universe
    top = (1 << bits) - 1
    rng = np.random.default_rng(seed)
    pool = np.unique(np.concatenate(([0, universe - 1], rng.integers(0, universe, 3))))
    block = sample_directions(family, range(R * K))
    keys = _pack(rng.choice(pool, (R, n, K)), bits)
    dataset = normalize_dataset(rng.standard_normal((n, family.dim)))
    cal = toy_calibration(family, levels=K, max_probes=m)
    with pytest.MonkeyPatch.context() as mp:
        if settle:
            mp.setattr(indexmod, "screen_margin", lambda dim, norm: 2.0)
        index = MultiLevelIndex(
            dataset, cal, 0, None, K, block, *key_blocks(family, K, (R, n), keys)
        )
    # one plain search over each repetition's sorted keys, untagged
    stored = np.sort(keys, axis=1, kind="stable")
    adaptive = index.walks["adaptive"]
    regions = [(adaptive.first, adaptive.depth), adaptive.extent, (R, K)]
    rows, levels = regions[rng.integers(0, 3)]
    if not rows * levels:
        rows, levels = R, K
    reach = rng.integers(0, rows + 1, K)
    reach[levels:] = 0
    reach[rng.integers(0, levels)] = max(1, reach.max())
    # one single-probe entry per level that reach keeps, so the walk reads
    # its whole extent first and searches exactly the buckets reach keeps
    entries = tuple(sorted(
        schedule_entry(k, 1, int(count), universe) for k, count in enumerate(reach, 1) if count
    ))
    walk = index.walk(entries)
    count, deepest = walk.extent
    assert walk.reach == tuple(reach[:deepest]) and walk.first == count
    wide = np.concatenate((pool, [top]))
    mixed = np.tile(np.where(np.arange(K) % 2, top, 0), (R, 1))
    for own in (np.zeros((R, K)), np.full((R, K), top), mixed, rng.choice(wide, (R, K))):
        own = own.astype(np.int64)
        probe_codes = rng.choice(wide, (R, m, K))
        probe_codes[:, 0] = own
        probe_codes[0, -1] = top
        probe_keys = _prefixes(_pack(probe_codes, bits), bits, K)
        screens = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                indexmod, "bucket_codes",
                lambda fam, proj: own[:count, :deepest].reshape(-1).astype(np.int32),
            )
            mp.setattr(indexmod, "unsettled", counting_screens(screens))
            mp.setattr(
                indexmod, "ranked_tuples",
                lambda fam, proj, depth, width, b: [probe_keys[..., k] for k in range(K)],
            )
            probes = _QueryProbes(index, dataset.matrix[0], walk)
            assert screens == [count * deepest]
            # the read searched the own buckets its reach keeps, no more
            assert probes.key_searches == reach.sum()
            own_keys = _prefixes(_pack(own, bits), bits, K)
            for k in range(1, K + 1):
                if not reach[k - 1]:
                    continue
                looked_up = {1: own_keys[:, k - 1 : k]}
                if m > 1:
                    looked_up[m] = probe_keys[..., k - 1]
                for j, prefixes in looked_up.items():
                    for reps in {int(reach[k - 1]), int(rng.integers(1, reach[k - 1] + 1))}:
                        entry = (float(j * reps), k, j, reps, 0)
                        runs = [
                            searched_runs(stored[r], prefixes[r], bits, K, k) for r in range(reps)
                        ]
                        lo, hi = probes._runs(entry)
                        # positions in the flattened order block, row r from r * n
                        rows = n * np.arange(reps)[:, None]
                        assert np.array_equal(lo, [a for a, _ in runs] + rows)
                        assert np.array_equal(hi, [b for _, b in runs] + rows)
                        spine = sum(int(b[0] - a[0]) + 1 for a, b in runs)
                        assert probes.bound(entry) == spine
                        # every run counts as a bucket probed, an empty one too
                        ids, buckets = probes.candidates(entry)
                        parts = [
                            rep.order[a:b]
                            for rep, (starts, ends) in zip(index.repetitions, runs)
                            for a, b in zip(starts, ends)
                        ]
                        assert buckets == reps * j
                        assert np.array_equal(ids, np.unique(np.concatenate(parts)))


def counting_screens(screens):
    """`index.unsettled` that appends the rows of each block it screens to
    `screens`, so a test sees which rectangles took the float32 screen."""
    unsettled = indexmod.unsettled

    def screening(family, proj, margin):
        screens.append(len(proj))
        return unsettled(family, proj, margin)

    return screening


def decision_projections(family, margin, rng, case):
    """The float64 projections, one per direction row, of a function whose
    decision sits where `case` says, 1 ulp either side included: a cap
    after caps that clear nothing at the threshold or at threshold +- margin;
    for cross-polytope, equal |top values|, top values 2 * margin apart,
    all zeros of either sign, or a top value at +- margin."""
    up, down = (lambda x: np.nextafter(x, np.inf)), (lambda x: np.nextafter(x, -np.inf))
    if family.kind == "spherical_cap":
        tau = family.threshold
        at = [tau, tau + margin, tau - margin][case % 3]
        at = [at, up(at), down(at), float(np.float32(at))][case // 3 % 4]
        proj = rng.uniform(-1.0, 1.0, family.cap_count)
        cap = rng.integers(0, family.cap_count)
        proj[:cap] = rng.uniform(-1.0, tau - 0.1, cap)
        proj[cap] = at
        return proj
    d = family.dim
    a, b = rng.choice(d, 2, replace=False)
    proj = rng.uniform(-0.1, 0.1, d)
    top = rng.uniform(0.3, 0.9)
    kind, offset = case % 4, [0.0, 1.0, -1.0][case // 4 % 3]
    if kind == 0:  # equal |values|, the second a step or none away
        proj[a], proj[b] = top, rng.choice([-1.0, 1.0]) * top
    elif kind == 1:  # top values 2 * margin apart
        proj[a], proj[b] = top, top - 2.0 * margin
    elif kind == 2:  # zeros of either sign
        proj = rng.choice([-0.0, 0.0], d)
    else:  # a top value at +- margin over zeros
        proj = rng.choice([-0.0, 0.0], d)
        proj[a] = rng.choice([-1.0, 1.0]) * margin
    if offset:
        proj[b if kind < 2 else a] = (up if offset > 0 else down)(proj[b if kind < 2 else a])
    return proj


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    st.sampled_from(["cross_polytope", "spherical_cap"]),
    st.sampled_from([2, 17, 32]),
    st.integers(0, 2**32 - 1),
)
def test_screened_codes_match_float64_codes_on_every_decision(kind, d, seed):
    # the query is a signed axis e_i, so each function's float64 product is
    # exactly its directions' column i, which puts its projections on a
    # decision of `bucket_codes` or 1 ulp either side of it: a cap at the
    # threshold or at threshold +- margin, equal or 2 * margin apart top
    # |values|, zeros of either sign, a top value at +- margin. Coded on the
    # float32 copy, the whole direction block, a random rectangle of it and
    # the first read of the adaptive walk code every function as
    # `bucket_codes` codes its own float64 product
    family = FamilyParams(kind=kind, dim=d, cap_count=16)
    rng = np.random.default_rng(seed)
    K, R, n = 3, 6, 40
    axis, sign = rng.integers(0, d), rng.choice([-1.0, 1.0])
    margin = screen_margin(d, 1.0)
    width = family.direction_count
    block, placed = np.empty((R * K, width, d)), []
    offset = rng.integers(0, 12)
    for f in range(R * K):
        placed.append(proj := decision_projections(family, margin, rng, offset + f))
        # unit rows whose column `axis` is sign * proj
        rest = rng.standard_normal((width, d - 1))
        rest *= np.sqrt(np.maximum(0.0, 1.0 - proj**2) / (rest**2).sum(axis=1))[:, None]
        block[f] = np.insert(rest, axis, sign * proj, axis=1)
    q = np.zeros(d)
    q[axis] = sign
    bits = slot_bits(family, K)
    keys = _pack(rng.integers(0, family.bucket_universe, (R, n, K)), bits)
    dataset = normalize_dataset(rng.standard_normal((n, d)))
    index = MultiLevelIndex(
        dataset, toy_calibration(family, levels=K), 0, None, K, block,
        *key_blocks(family, K, (R, n), keys),
    )
    assert index._margin == pytest.approx(margin, rel=1e-12)
    walk = index.walks["adaptive"]
    reps, depth = walk.first, walk.depth
    assert reps and depth and index._copy.shape[:2] == (K, R)
    functions = block.reshape(R, K, width, d)
    expected = np.empty((R, K), dtype=np.int32)
    for r in range(R):
        for s in range(K):
            product = np.matmul(functions[r, s], q)
            assert np.array_equal(product, placed[r * K + s])
            expected[r, s] = bucket_codes(family, product[None, :])[0]
    start, stop = np.sort(rng.choice(R + 1, 2, replace=False)).tolist()
    top, bottom = np.sort(rng.choice(K + 1, 2, replace=False)).tolist()
    screens = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(indexmod, "unsettled", counting_screens(screens))
        assert np.array_equal(index.query_codes(q, 0, R, 0, K), expected)
        rectangle = index.query_codes(q, start, stop, top, bottom)
        assert np.array_equal(rectangle, expected[start:stop, top:bottom])
        probes = _QueryProbes(index, q, walk)
    sizes = [R * K, (stop - start) * (bottom - top), reps * depth]
    assert screens == sizes
    assert np.array_equal(probes._codes[:reps, :depth], expected[:reps, :depth])


@pytest.mark.parametrize("kind", ["cross_polytope", "spherical_cap"])
@pytest.mark.parametrize("dim", [17, 32])
def test_unflagged_codes_do_not_depend_on_the_summation_order(kind, dim):
    # `screen_margin` bounds the gap to a float64 product summed in any
    # order, so every function the screen leaves unflagged codes as the
    # float64 product with the coordinates reversed codes it, and as the
    # product `np.einsum` sums in its own loop; coded on the whole copy, for
    # planted queries, random unit rows, data rows and rows on a decision of
    # a random function: halfway between two cross-polytope axes, or at the
    # threshold of the first cap
    family = FamilyParams(kind=kind, dim=dim)
    inst = generate_planted_instance(n=800, d=dim, r=0.4, t=5, seed=dim, num_queries=6)
    cal = toy_calibration(family, 0.6, 0.3, compute_k(800, 0.3), 8, 1.0)
    index = build_index(inst.dataset, cal, seed=dim)
    K, R = index.levels, index.num_repetitions
    rng = np.random.default_rng(dim)
    rows = rng.standard_normal((6, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    block, flagged, unsettled = index.directions, [], indexmod.unsettled
    ties = []
    for f in rng.choice(R * K, 6, replace=False):
        w = block[f]
        if kind == "cross_polytope":
            tie = w[0] + w[1]
        else:
            other = rng.standard_normal(dim)
            other -= (other @ w[0]) * w[0]
            tau = family.threshold
            tie = tau * w[0] + math.sqrt(1.0 - tau**2) * other / np.linalg.norm(other)
        ties.append(tie / np.linalg.norm(tie))
    queries = [*(q.coords for q in inst.queries), *rows, *inst.dataset.matrix[:6], *ties]

    def screening(family, proj, margin):
        flagged.append(unsettled(family, proj, margin))
        return flagged[-1]

    checked = 0
    for q in queries:
        flagged.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(indexmod, "unsettled", screening)
            codes = index.query_codes(q, 0, R, 0, K).reshape(-1)
        kept = np.setdiff1d(np.arange(R * K), *flagged)
        for proj in (block[..., ::-1] @ q[::-1], np.einsum("fij,j->fi", block, q)):
            assert np.array_equal(bucket_codes(family, proj)[kept], codes[kept])
        checked += len(kept)
    assert checked > 0.99 * len(queries) * R * K


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
