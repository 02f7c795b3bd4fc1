import hashlib
import json
import math
import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner

from mlslsh.calibration import CalibrationError
from mlslsh.cli import main
from conftest import feasible_reps, first_read, toy_calibration
from mlslsh.families import HASH_BLOCK, FamilyParams, _pack, derived_seed, hash_batch
from mlslsh.families import sample_directions
from mlslsh.geometry import generate_planted_instance
from mlslsh.index import (
    IndexFormatError,
    MultiLevelIndex,
    Repetition,
    bucket_loads,
    build_index,
    compute_k,
    compute_numreps,
    consulted_reps,
    key_blocks,
    load_index,
    repetition_tags,
    reps,
    screen_margin,
)


# depth and repetition formulas, checked against an independent search


def smallest_k_with_expected_far_collisions_below_one(n, p2):
    k = 1
    while n * p2**k > 1.0 + 1e-9:
        k += 1
    return k


def test_compute_k_known_values():
    assert compute_k(10**6, 0.1) == 6
    assert compute_k(1000, 0.5) == 10
    assert compute_k(1, 0.9) == 1
    assert compute_k(2, 0.5) == 1


def test_compute_k_matches_search_oracle():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(2, 10**7))
        p2 = float(rng.uniform(0.05, 0.95))
        assert compute_k(n, p2) == smallest_k_with_expected_far_collisions_below_one(n, p2)


def test_compute_numreps_known_values():
    assert compute_numreps(0.9, 6) == 2
    assert compute_numreps(1.0, 4) == 1
    assert compute_numreps(0.5, 10) == 1024


def test_compute_numreps_matches_search_oracle():
    rng = np.random.default_rng(1)
    for _ in range(300):
        p1 = float(rng.uniform(0.2, 1.0))
        k = int(rng.integers(1, 12))
        m = compute_numreps(p1, k)
        # smallest integer at or above p1^-k, with a hair of float slack
        assert m >= p1**-k - 1e-6
        assert m - 1 < p1**-k + 1e-9


def test_reps_known_values():
    assert reps(1, 1, 1.0) == 2  # ceil(2 ln 2)
    assert reps(2, 1, 0.25) == 12  # ceil(8 ln 4)
    assert reps(1, 1, 0.9) == 2


def test_reps_matches_formula_oracle():
    rng = np.random.default_rng(2)
    for _ in range(300):
        k = int(rng.integers(1, 10))
        j = int(rng.integers(1, 20))
        p = float(rng.uniform(0.01, 1.0))
        m = reps(k, j, p)
        target = 2.0 * math.log(2.0 * j * k) / p
        assert m >= math.floor(target - 1e-6) and m >= 1
        assert m - 1 < target + 1e-9 or m == 1


def test_formula_validation():
    with pytest.raises(ValueError):
        compute_k(0, 0.5)
    with pytest.raises(ValueError):
        compute_k(10, 1.0)
    with pytest.raises(ValueError):
        compute_numreps(0.0, 3)
    with pytest.raises(ValueError):
        compute_numreps(0.5, 0)
    with pytest.raises(ValueError):
        reps(0, 1, 0.5)
    with pytest.raises(ValueError):
        reps(1, 1, 0.0)


# build structure


@pytest.fixture(scope="module")
def built():
    params = FamilyParams(kind="cross_polytope", dim=12)
    cal = toy_calibration(params, max_probes=8)
    inst = generate_planted_instance(n=400, d=12, r=0.4, t=5, seed=20)
    return inst, build_index(inst.dataset, cal, seed=7)


def test_build_sizes_from_formulas(built):
    inst, index = built
    cal = index.calibration
    assert index.levels == compute_k(400, cal.p2)
    assert index.num_repetitions == compute_numreps(cal.p1, index.levels)


def test_space_budget_caps_repetitions(built):
    inst, _ = built
    params = FamilyParams(kind="cross_polytope", dim=12)
    cal = toy_calibration(params, max_probes=8)
    capped = build_index(inst.dataset, cal, space_budget=2, seed=7)
    assert capped.num_repetitions == 2


@pytest.mark.parametrize("budget", [0, 2.5, True, "2"])
def test_space_budget_must_be_a_positive_integer(built, budget):
    inst, index = built
    with pytest.raises(ValueError, match="space budget must be a positive integer"):
        build_index(inst.dataset, index.calibration, space_budget=budget, seed=7)


def test_schedule_entries_are_the_feasible_settings(tmp_path, built):
    # build and load both state every feasible setting once as a schedule
    # entry, in sorted order: P(k, j) > 0 and reps(k, j) <= R, with that
    # repetition count, its cost and its probe floor. A binding budget drops
    # the settings it cannot afford, and one repetition affords none.
    inst, index = built
    cal = index.calibration
    universe = index.family.bucket_universe
    capped = build_index(inst.dataset, cal, space_budget=2, seed=7)
    path = str(tmp_path / "capped.idx")
    capped.save(path)
    for idx in (index, capped, load_index(path)):
        assert isinstance(idx.schedule, tuple)
        assert list(idx.schedule) == sorted(idx.schedule)
        settings = [(k, j) for _, k, j, _, _ in idx.schedule]
        assert sorted(settings) == [
            (k, j)
            for k in range(1, idx.levels + 1)
            for j in range(1, cal.max_probes + 1)
            if feasible_reps(idx, k, j) is not None
        ]
        for c, k, j, count, floor in idx.schedule:
            assert count == feasible_reps(idx, k, j) <= idx.num_repetitions
            assert count == consulted_reps(cal, k, j, idx.num_repetitions)
            assert type(c) is float and c == j * count
            # one unit for each probe past the first that level k has a code for
            further = len([p for p in range(2, j + 1) if p <= universe**k])
            assert floor == count * further
    assert capped.num_repetitions == 2
    assert any(count == 2 for _, _, _, count, _ in capped.schedule)
    # the budget binds: the full index affords settings that need 3 or 4 repetitions
    assert set(capped.schedule) < set(index.schedule)
    assert build_index(inst.dataset, cal, space_budget=1, seed=7).schedule == ()


@pytest.mark.parametrize("p1", [0.8, 0.5])
@pytest.mark.parametrize("budget", [None, 1, 2, 8])
def test_read_extents_match_a_recount_of_the_table(tmp_path, built, p1, budget):
    # per mode, the walk recounted from the probe-success table: the settings
    # it may measure, P > 0 and ceil(2 ln(2jk) / P) <= R, as sorted entries;
    # the most repetitions and the deepest level over them, and per level
    # the most repetitions over the entries there; and the first read, as
    # `first_read` recounts it. Single mode walks j = 1 only
    inst, _ = built
    cal = toy_calibration(FamilyParams(kind="cross_polytope", dim=12), p1=p1, max_probes=8)
    index = build_index(inst.dataset, cal, space_budget=budget, seed=7)
    path = str(tmp_path / "extents.idx")
    index.save(path, include_codes=False)
    universe = index.family.bucket_universe
    feasible = {"adaptive": [], "single": []}
    for k in range(1, index.levels + 1):
        for j in range(1, cal.max_probes + 1):
            p = float(cal.probe_success[k - 1, j - 1])
            needed = math.ceil(2.0 * math.log(2 * j * k) / p - 1e-9) if p > 0.0 else math.inf
            if needed <= index.num_repetitions:
                entry = (float(j * needed), k, j, needed, needed * (min(j, universe**k) - 1))
                feasible["adaptive"].append(entry)
                if j == 1:
                    feasible["single"].append(entry)
    loaded = load_index(path)
    assert set(index.walks) == set(loaded.walks) == set(feasible)
    for mode, entries in feasible.items():
        extent = (max((e[3] for e in entries), default=0), max((e[1] for e in entries), default=0))
        reach = tuple(
            max((e[3] for e in entries if e[1] == k), default=0) for k in range(1, extent[1] + 1)
        )
        # both walks read first the repetitions and the depth `first_read`
        # recounts from the keys and the coding charge
        first, depth = first_read(index) if feasible["single"] else (0, extent[1])
        for walk in (index.walks[mode], loaded.walks[mode]):
            assert walk.entries == tuple(sorted(entries))
            assert (walk.extent, walk.first, walk.depth, walk.reach) == (extent, first, depth, reach)
    # single-probe settings form a prefix of levels whose repetitions grow
    # with k, so the deepest one reads the single-mode extent exactly, and
    # the first read takes the repetitions of the deepest one it keeps
    single = index.walks["single"]
    if feasible["single"]:
        deepest = max(feasible["single"], key=lambda e: e[1])
        assert (deepest[3], deepest[1]) == single.extent
        kept = max((e for e in feasible["single"] if e[1] <= single.depth), key=lambda e: e[1])
        assert (kept[3], kept[1]) == (single.first, single.depth)
    if budget == 1:
        assert index.walks["single"] == index.walks["adaptive"] == index.walk(())
    if p1 == 0.5 and budget is None:
        assert single.extent[1] >= 3


def rehashed(index, r):
    """The (n, K) code matrix of repetition r, hashed afresh from the points."""
    stack = index.repetitions[r].directions
    return np.stack([hash_batch(index.family, d, index.dataset.matrix) for d in stack], axis=1)


def test_codes_match_hash_functions(built):
    # the keys decode to exactly what the slot functions produce on the points
    inst, index = built
    for r, rep in enumerate(index.repetitions[:3]):
        codes = rehashed(index, r)
        assert np.array_equal(rep.sorted_codes, codes[rep.order])


def test_total_stored_codes(built):
    _, index = built
    total = sum(rep.sorted_codes.size for rep in index.repetitions)
    assert total == index.num_repetitions * index.size * index.levels


def members(rep, prefix):
    """Dataset ids of a bucket: its key range read through `order`."""
    return rep.order[slice(*rep.prefix_range(tuple(int(v) for v in prefix)))]


def test_buckets_partition_every_level(built):
    inst, index = built
    n = index.size
    for r, rep in enumerate(index.repetitions[:3]):
        codes = rehashed(index, r)
        for k in range(1, index.levels + 1):
            prefixes = np.unique(codes[:, :k], axis=0)
            seen = []
            for prefix in prefixes:
                seen.append(members(rep, prefix))
            all_ids = np.concatenate(seen)
            assert all_ids.size == n
            assert np.array_equal(np.sort(all_ids), np.arange(n))


def test_deeper_buckets_refine_shallower(built):
    inst, index = built
    rep = index.repetitions[0]
    codes = rehashed(index, 0)
    rng = np.random.default_rng(5)
    for i in rng.integers(0, index.size, size=20):
        for k in range(1, index.levels):
            outer = set(members(rep, codes[i, :k]))
            inner = set(members(rep, codes[i, : k + 1]))
            assert inner <= outer
            assert int(i) in inner


def test_prefix_range_matches_linear_scan(built):
    inst, index = built
    rep = index.repetitions[1]
    codes = rehashed(index, 1)
    rng = np.random.default_rng(6)
    for i in rng.integers(0, index.size, size=15):
        for k in (1, 2, index.levels):
            prefix = tuple(int(v) for v in codes[i, :k])
            expected = set(
                int(j)
                for j in range(index.size)
                if tuple(int(v) for v in codes[j, :k]) == prefix
            )
            lo, hi = rep.prefix_range(prefix)
            assert set(int(v) for v in rep.order[lo:hi]) == expected
            assert hi - lo == len(expected)


def test_unknown_prefix_gives_empty_bucket(built):
    _, index = built
    missing = (10**6,)
    lo, hi = index.repetitions[0].prefix_range(missing)
    assert hi - lo == 0 and index.repetitions[0].order[lo:hi].size == 0


def test_bucket_argument_validation(built):
    _, index = built
    rep = index.repetitions[0]
    with pytest.raises(ValueError):
        rep.prefix_range(())
    with pytest.raises(ValueError):
        rep.prefix_range(tuple(range(index.levels + 1)))


def test_build_is_deterministic(built):
    inst, index = built
    params = FamilyParams(kind="cross_polytope", dim=12)
    again = build_index(inst.dataset, toy_calibration(params, max_probes=8), seed=7)
    other = build_index(inst.dataset, toy_calibration(params, max_probes=8), seed=8)
    for a, b in zip(index.repetitions, again.repetitions):
        assert np.array_equal(a.sorted_codes, b.sorted_codes)
        assert np.array_equal(a.order, b.order)
    assert any(
        not np.array_equal(a.sorted_codes, b.sorted_codes)
        for a, b in zip(index.repetitions, other.repetitions)
    )


def test_build_rejects_more_points_than_int32_ids():
    # checked on the size alone, before anything is sampled or hashed
    params = FamilyParams(kind="cross_polytope", dim=4)
    too_many = SimpleNamespace(size=2**31, dim=4)
    with pytest.raises(ValueError, match="at most 2147483647, int32 ids"):
        build_index(too_many, toy_calibration(params, max_probes=8))


def test_build_rejects_short_calibration():
    params = FamilyParams(kind="cross_polytope", dim=8)
    cal = toy_calibration(params, p2=0.3, levels=2, max_probes=8)
    inst = generate_planted_instance(n=2000, d=8, r=0.4, t=3, seed=1)
    with pytest.raises(CalibrationError, match="levels"):
        build_index(inst.dataset, cal)


# persistence


def test_save_load_round_trip(tmp_path, built):
    _, index = built
    path = str(tmp_path / "full.idx")
    index.save(path)
    loaded = load_index(path)
    assert loaded.levels == index.levels
    assert loaded.num_repetitions == index.num_repetitions
    assert np.array_equal(loaded.dataset.matrix, index.dataset.matrix)
    assert np.array_equal(loaded.dataset.centroid, index.dataset.centroid)
    assert np.array_equal(loaded.directions, index.directions)
    for a, b in zip(index.repetitions, loaded.repetitions):
        assert np.array_equal(a.sorted_codes, b.sorted_codes)
        assert np.array_equal(a.order, b.order)
        assert np.array_equal(a.directions, b.directions)


def test_save_load_rebuildable_matches_full(tmp_path, built):
    # a rebuildable file rehashes its points in blocks; 400 points end in a
    # partial one
    _, index = built
    assert index.size > HASH_BLOCK and index.size % HASH_BLOCK
    full = str(tmp_path / "full.idx")
    slim = str(tmp_path / "slim.idx")
    index.save(full, include_codes=True)
    index.save(slim, include_codes=False)
    import os

    assert os.path.getsize(slim) < os.path.getsize(full)
    a = load_index(full)
    b = load_index(slim)
    for rep, ra, rb in zip(index.repetitions, a.repetitions, b.repetitions):
        for r in (ra, rb):
            assert np.array_equal(r.keys, rep.keys)
            assert np.array_equal(r.order, rep.order) and r.order.dtype == np.int32


def test_slots_follow_the_seed_scheme(tmp_path, built):
    # a rebuildable file stores the index seed and no directions, so slot s
    # of repetition r must be the function of seed derived_seed(seed, r, s),
    # in the built index and in its reload alike
    _, index = built
    slim = str(tmp_path / "slim.idx")
    index.save(slim, include_codes=False)
    for idx in (index, load_index(slim)):
        for r, rep in enumerate(idx.repetitions):
            for s, directions in enumerate(rep.directions):
                seed = derived_seed(idx.seed, r, s)
                assert np.array_equal(directions, sample_directions(idx.family, [seed])[0])


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(b"NOTANIDX" + b"\x00" * 64)
    with pytest.raises(IndexFormatError, match="magic"):
        load_index(str(path))


def test_load_rejects_truncation(tmp_path, built):
    _, index = built
    path = tmp_path / "tr.idx"
    index.save(str(path))
    blob = path.read_bytes()
    for cut in (4, 12, 20, 40, len(blob) // 2, len(blob) - 3):
        short = tmp_path / "short.idx"
        short.write_bytes(blob[:cut])
        with pytest.raises(IndexFormatError):
            load_index(str(short))


def test_load_rejects_trailing_data(tmp_path, built):
    _, index = built
    path = tmp_path / "tail.idx"
    index.save(str(path))
    path.write_bytes(path.read_bytes() + b"x")
    with pytest.raises(IndexFormatError, match="trailing"):
        load_index(str(path))


def test_load_rejects_unknown_version_and_flags(tmp_path, built):
    _, index = built
    path = tmp_path / "v.idx"
    index.save(str(path))
    blob = bytearray(path.read_bytes())
    blob[8] = 99  # version field
    path.write_bytes(bytes(blob))
    with pytest.raises(IndexFormatError, match="version"):
        load_index(str(path))
    index.save(str(path))
    blob = bytearray(path.read_bytes())
    blob[12] |= 0x80  # unused flag bit
    path.write_bytes(bytes(blob))
    with pytest.raises(IndexFormatError, match="flag"):
        load_index(str(path))


def test_key_blocks_sort_each_row():
    # two slots of a 65-bucket cap family take 7 bits each: codes 0..64; the
    # keys of a file are checked when it is read (test_load_rejects_bad_keys)
    params = FamilyParams(kind="spherical_cap", dim=8)
    stack = sample_directions(params, [0, 1])
    keys, order = key_blocks(params, 2, (1, 3), [np.array([64 << 7 | 64, 0, 3 << 7 | 1])])
    rep = Repetition(stack, keys[0], order[0], 7, 0)
    assert rep.order.tolist() == [1, 2, 0] and rep.order.dtype == np.int32
    assert rep.sorted_codes.tolist() == [[0, 0], [3, 1], [64, 64]]


def test_repetitions_view_rows_of_tagged_key_groups(tmp_path, built):
    # the repetitions' keys and ids are rows of the index's two blocks, held
    # once; each row's keys carry its place in its group above the key bits,
    # so a group's rows read as one sorted array, and the saved keys carry
    # no tag
    _, index = built
    K, R, n = index.levels, index.num_repetitions, index.size
    key_bits = index.repetitions[0].bits * K
    assert index.keys.shape == index.order.shape == (R, n)
    for r, rep in enumerate(index.repetitions):
        assert np.shares_memory(rep.keys, index.keys) and np.shares_memory(rep.order, index.order)
        assert rep.tag == r << key_bits and np.all(rep.keys >> key_bits == r)
    assert np.all(np.diff(index.keys.reshape(-1)) >= 0)
    path = tmp_path / "tags.idx"
    index.save(str(path))
    stored = np.frombuffer(path.read_bytes()[-8 * n * R :], dtype="<i8").reshape(R, n)
    assert stored.min() >= 0 and int(stored.max()) >> key_bits == 0
    assert np.array_equal(np.sort(stored, axis=1), index.keys - (np.arange(R)[:, None] << key_bits))


def recounted_loads(keys, bits, depth):
    """m_k of levels 1..depth of the (R, n) key block `keys`: sum_b s_b**2 / n
    over the buckets np.unique counts in each row's keys cut to k slots,
    one repetition at a time, averaged over the rows."""
    loads = []
    for k in range(1, depth + 1):
        squares = 0
        for row in keys:
            _, sizes = np.unique(row >> bits * (depth - k), return_counts=True)
            squares += sum(int(s) ** 2 for s in sizes)
        loads.append(squares / keys.size)
    return loads


@pytest.mark.parametrize("budget", [None, 2])
@pytest.mark.parametrize("family", [
    FamilyParams(kind="cross_polytope", dim=8),
    FamilyParams(kind="spherical_cap", dim=8, cap_count=16),
], ids=["cross-polytope", "spherical-cap"])
def test_bucket_loads_match_a_recount(family, budget):
    # every level of a built index, whose rows carry tags, and of its first
    # levels alone
    inst = generate_planted_instance(n=600, d=8, r=0.4, t=5, seed=3)
    cal = toy_calibration(family, 0.6, 0.3, compute_k(600, 0.3))
    index = build_index(inst.dataset, cal, space_budget=budget, seed=5)
    K, bits = index.levels, index.repetitions[0].bits
    assert index.num_repetitions > 1 and index.repetitions[-1].tag > 0
    shifts = [bits * (K - k) for k in range(1, K + 1)]
    loads = recounted_loads(index.keys, bits, K)
    assert bucket_loads(index.keys, shifts) == loads
    assert bucket_loads(index.keys[:1], shifts[:2]) == recounted_loads(index.keys[:1], bits, K)[:2]


def test_bucket_loads_of_63_bit_keys_match_a_recount():
    # 9 slots of 65 cap buckets take all 63 key bits, so each row is a key
    # group of its own, untagged; codes from a small pool make the deep
    # buckets large too
    family = FamilyParams(kind="spherical_cap", dim=8, cap_count=64)
    rng = np.random.default_rng(0)
    keys = _pack(rng.choice([0, 1, 64], (3, 200, 9)), 7)
    block, _ = key_blocks(family, 9, (3, 200), keys)
    assert not np.any(repetition_tags(3, 63))
    shifts = [7 * (9 - k) for k in range(1, 10)]
    assert bucket_loads(block, shifts) == recounted_loads(block, 7, 9)


def test_tags_never_pass_63_bits():
    # a group holds as many repetitions as the bits above the keys count,
    # one when the keys take all 63 bits, and no key width past 63 is tagged
    assert repetition_tags(5, 63).tolist() == [0] * 5
    assert repetition_tags(5, 62).tolist() == [0, 1 << 62, 0, 1 << 62, 0]
    assert repetition_tags(3, 1).tolist() == [0, 2, 4]
    for bits in (64, 70, 0):
        with pytest.raises(ValueError, match="no room"):
            repetition_tags(3, bits)


# packed keys, the bit budget and header checks


def test_keys_sort_like_the_code_tuples(built):
    inst, index = built
    for r, rep in enumerate(index.repetitions[:3]):
        codes = rehashed(index, r)
        order = np.lexsort(tuple(codes[:, s] for s in reversed(range(index.levels))))
        assert np.array_equal(rep.order, order)
        assert np.array_equal(rep.sorted_codes, codes[order])
        assert rep.keys.dtype == np.int64 and np.all(np.diff(rep.keys) >= 0)


def test_functions_view_one_read_only_direction_block(built):
    _, index = built
    K = index.levels
    assert index.directions.shape == (index.num_repetitions * K, 12, 12)
    assert not index.directions.flags.writeable
    for r, rep in enumerate(index.repetitions):
        assert rep.depth == K and not rep.directions.flags.writeable
        assert np.array_equal(rep.directions, index.directions[r * K : (r + 1) * K])
        assert np.shares_memory(rep.directions, index.directions)


@pytest.mark.parametrize("budget", [None, 2, 1])
def test_float32_copy_holds_the_adaptive_extent_level_major(tmp_path, built, budget):
    # copy cell [s, r] is the float32 of function r * K + s for every cell
    # of the direction block, so it holds the adaptive walk's extent and
    # every pin past it, whatever the budget, even one under which one
    # repetition affords no setting; it is read-only and a loaded index
    # copies alike
    inst, index = built
    if budget:
        index = build_index(inst.dataset, index.calibration, space_budget=budget, seed=7)
    path = str(tmp_path / "copy.idx")
    index.save(path, include_codes=False)
    K, R = index.levels, index.num_repetitions
    assert (index.schedule == ()) == (budget == 1)
    for idx in (index, load_index(path)):
        copy = idx._copy
        assert copy.dtype == np.float32 and copy.shape == (K, R, 12, 12)
        assert not copy.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            copy[...] = 0.0
        for r in range(R):
            for s in range(K):
                assert np.array_equal(copy[s, r], idx.directions[r * K + s].astype(np.float32))


def test_build_past_the_bit_budget_fails_clearly():
    # 1001 buckets take 10 bits per slot, and 7 levels of them need 70
    params = FamilyParams(kind="spherical_cap", dim=8, cap_count=1000)
    cal = toy_calibration(params, p2=0.4, levels=8, max_probes=8)
    inst = generate_planted_instance(n=400, d=8, r=0.4, t=3, seed=1)
    assert compute_k(400, 0.4) == 7
    with pytest.raises(ValueError, match=r"K=7 .*U=1001.* 70 key bits"):
        build_index(inst.dataset, cal)


DATA = Path(__file__).parent / "data"
V1_FILES = [DATA / "v1_full.idx", DATA / "v1_rebuildable.idx"]


def cli_answers(path) -> list[dict]:
    """The CLI's answer on `path` to every query recorded beside the v1 files."""
    answers = []
    for case in json.loads((DATA / "v1_expected.json").read_text()):
        result = CliRunner().invoke(main, ["query", "--index", str(path), *case["args"]])
        assert result.exit_code == 0, result.output
        answers.append(json.loads(result.stdout))
    return answers


def test_v1_files_load_answer_and_resave_as_v2(tmp_path):
    # both version 1 files, full and rebuildable, answer as the code that
    # wrote them did; re-saved, they become version 2 files that do too
    expected = [case["report"] for case in json.loads((DATA / "v1_expected.json").read_text())]
    full = load_index(str(V1_FILES[0]))
    assert full.family.bucket_universe == 65  # not a power of two
    for path, flags in zip(V1_FILES, (1, 0)):
        assert struct.unpack_from("<II", path.read_bytes(), 8) == (1, flags)
        assert cli_answers(path) == expected
        index = load_index(str(path))
        for include_codes in (True, False):
            again = tmp_path / f"v2-{include_codes}.idx"
            index.save(str(again), include_codes=include_codes)
            assert struct.unpack_from("<II", again.read_bytes(), 8) == (2, int(include_codes))
            assert cli_answers(again) == expected
            for a, b in zip(full.repetitions, load_index(str(again)).repetitions):
                assert np.array_equal(a.keys, b.keys) and np.array_equal(a.order, b.order)


@pytest.mark.parametrize(
    "include_codes, size, digest",
    [
        (True, 2940, "1da7d381827fd047af8882e53043514a6530045020d7889528b25fd1a2e1384c"),
        (False, 2460, "86def12d2538c8558879a6b542b72eb945c2a4d433c46811508fc7c161f3a2bb"),
    ],
    ids=["with-keys", "without-keys"],
)
def test_v1_file_resaves_as_pinned_v2_bytes(tmp_path, include_codes, size, digest):
    # every byte the version 2 writer puts out, header included, is pinned;
    # the stored codes are packed, so no floating-point product is involved
    path = tmp_path / "v2.idx"
    load_index(str(V1_FILES[0])).save(str(path), include_codes=include_codes)
    blob = path.read_bytes()
    assert len(blob) == size
    assert hashlib.sha256(blob).hexdigest() == digest


@pytest.fixture(scope="module")
def tiny_file(tmp_path_factory):
    params = FamilyParams(kind="cross_polytope", dim=4)
    inst = generate_planted_instance(n=20, d=4, r=0.4, t=2, seed=3)
    index = build_index(inst.dataset, toy_calibration(params, max_probes=8), seed=1)
    path = tmp_path_factory.mktemp("tiny") / "tiny.idx"
    index.save(str(path))
    return path.read_bytes()


def _meta_end(blob: bytes) -> int:
    (meta_len,) = struct.unpack_from("<Q", blob, 16)
    return 24 + meta_len


def test_load_fuzz_truncated_and_flipped_headers(tmp_path, tiny_file):
    # every cut and every flipped header byte of a version 1 and a version 2
    # file is a format error, never a KeyError, a MemoryError or an
    # allocation the header alone asked for
    path = tmp_path / "fuzz.idx"
    for version, original in [(1, V1_FILES[0].read_bytes()), (2, tiny_file)]:
        assert struct.unpack_from("<I", original, 8) == (version,)
        for cut in range(len(original)):
            path.write_bytes(original[:cut])
            with pytest.raises(IndexFormatError):
                load_index(str(path))
        for at in range(_meta_end(original)):
            blob = bytearray(original)
            blob[at] ^= 0xFF
            path.write_bytes(bytes(blob))
            with pytest.raises(IndexFormatError):
                load_index(str(path))


def _with_meta(blob: bytes, edit) -> bytes:
    meta = json.loads(blob[24 : _meta_end(blob)])
    edit(meta)
    new = json.dumps(meta, sort_keys=True).encode("utf-8")
    return blob[:16] + struct.pack("<Q", len(new)) + new + blob[_meta_end(blob) :]


def _set(key, value):
    return lambda meta: meta.__setitem__(key, value)


def _cap_family(meta):
    for family in (meta["family"], meta["calibration"]["family"]):
        family.update(kind="spherical_cap", cap_count=2**21)


@pytest.mark.parametrize(
    "edit, message",
    [
        # 10**9 points need 18 levels of a 6-level calibration
        (_set("n", 10**9), "calibration covers 6 levels but n=1000000000 needs 18"),
        (_set("n", 2**31), "int32 ids"),
        (_set("n", 0), r"\bn must be a positive integer, got 0"),
        (_set("d", "4"), r"\bd must be a positive integer, got '4'"),
        (_set("d", 5), "dimension"),
        (_set("levels", 7), "levels=7, num_repetitions=2; .* give 3 levels"),
        (_set("levels", 4), "levels=4, num_repetitions=2; .* give 3 levels"),
        (_set("num_repetitions", 10**9), "repetitions"),
        (_set("seed", 1.5), "seed"),
        (_set("space_budget", 0), "space budget"),
        (_set("space_budget", 2.5), "space budget"),
        (lambda meta: meta.pop("family"), "corrupt index metadata"),
        (_set("calibration", []), "corrupt index metadata"),
        (_cap_family, "key bits"),
        (lambda meta: meta["family"].update(kind="spherical_cap"), "differs from the calibration's"),
        (lambda meta: meta["calibration"].update(rho=0.5), "stored rho=0.5 differs"),
        (lambda meta: meta["calibration"]["probe_success"][0].__setitem__(0, math.nan), "lie in"),
        (lambda meta: meta["calibration"]["probe_success_se"][1].__setitem__(0, -1.0), "errors"),
        (lambda meta: meta["calibration"].update(r=-3.0, c=0.1), "radius"),
        (lambda meta: meta["calibration"].update(trials=-5), "trials must be a positive integer, got -5"),
        (_set("n", 19), "trailing"),
        (_set("degenerate_ids", ["x", -5, 1000000000]), "degenerate ids"),
        (_set("degenerate_ids", [3, 3]), "degenerate ids"),
        (_set("degenerate_ids", [19, 20]), "degenerate ids"),
        (lambda meta: meta["family"].update(dim=4.5), "dim must be an integer"),
        (lambda meta: meta["calibration"].update(trials=1000.7), "trials must be a positive integer, got 1000.7"),
        (lambda meta: meta["calibration"].update(trials=True), "trials must be a positive integer, got True"),
        (lambda meta: meta["calibration"].update(seed="0"), "seed must be an integer, got '0'"),
        (lambda meta: meta["calibration"].update(r="0.4"), "r must be int or float"),
        (lambda meta: meta["calibration"].update(d=99), "stored d=99 differs"),
    ],
    ids=[
        "n-huge", "n-past-int32", "n-zero", "d-string", "d-mismatch", "levels-past-calibration",
        "levels-not-compute-k", "repetitions-huge", "seed-float", "budget-zero", "budget-float",
        "family-missing", "calibration-not-object", "bit-budget", "family-differs",
        "rho-not-derived", "nan-table", "negative-error", "radius-off-the-sphere", "trials-negative",
        "n-short", "degenerate-not-ids", "degenerate-repeated", "degenerate-past-n",
        "family-dim-float", "trials-float", "trials-bool", "seed-string", "radius-string",
        "calibration-d-not-family-dim",
    ],
)
def test_load_checks_metadata_before_allocating(tmp_path, tiny_file, edit, message):
    path = tmp_path / "meta.idx"
    path.write_bytes(_with_meta(tiny_file, edit))
    with pytest.raises(IndexFormatError, match=message):
        load_index(str(path))
    # the same checks hold for a file that asks to rebuild its codes
    blob = bytearray(_with_meta(tiny_file, edit))
    blob[12] = 0
    path.write_bytes(bytes(blob))
    with pytest.raises(IndexFormatError):
        load_index(str(path))


@pytest.mark.parametrize("include_codes", [True, False])
@pytest.mark.parametrize("where", ["first point", "centroid"])
def test_load_rejects_non_finite_points(tmp_path, built, include_codes, where):
    _, index = built
    path = tmp_path / "nan.idx"
    index.save(str(path), include_codes=include_codes)
    blob = bytearray(path.read_bytes())
    # the centroid follows the metadata, and the first point follows it
    at = _meta_end(bytes(blob)) + (8 * index.dataset.dim if where == "first point" else 0)
    blob[at : at + 8] = struct.pack("<d", math.nan)
    path.write_bytes(bytes(blob))
    with pytest.raises(IndexFormatError, match="corrupt index points"):
        load_index(str(path))


def test_load_rejects_codes_outside_the_universe(tmp_path):
    # the version 1 file stores int32 codes of a 65-bucket cap family: 0..64
    for code in (65, -1, 1 << 20):
        blob = bytearray(V1_FILES[0].read_bytes())
        blob[-4:] = struct.pack("<i", code)
        path = tmp_path / "codes.idx"
        path.write_bytes(bytes(blob))
        with pytest.raises(IndexFormatError, match="codes"):
            load_index(str(path))


def test_load_rejects_bad_keys(tmp_path):
    # the same cap family saved as version 2: K slots of 7 bits in each key
    index = load_index(str(V1_FILES[0]))
    K, bits = index.levels, index.repetitions[0].bits
    path = tmp_path / "keys.idx"
    index.save(str(path))
    good = path.read_bytes()
    (last,) = struct.unpack("<q", good[-8:])
    slot0, low = bits * (K - 1), (1 << bits) - 1
    assert load_index(str(path)).levels == K
    for key in (
        -1,
        last | 1 << K * bits,  # a bit above the K slots
        last & ((1 << slot0) - 1) | 65 << slot0,  # code 65 in slot 0
        last & ~low | 65,  # code 65 in the last slot
        (1 << K * bits) - 1,  # every slot all ones
    ):
        path.write_bytes(good[:-8] + struct.pack("<q", key))
        message = f"corrupt codes: keys must pack {K} slot codes in 0..64"
        with pytest.raises(IndexFormatError, match=message):
            load_index(str(path))


def test_screen_margin_is_infinite_past_a_third_of_2_to_the_24():
    # past d u = 1/3, u = 2**-24, the bound's gamma terms no longer hold
    last = 2**24 // 3
    # there gamma_d(u) reaches 1/2
    assert 0.5 < screen_margin(last, 1.0) < 0.51
    assert screen_margin(last + 1, 1.0) == math.inf


def test_index_refuses_blocks_that_disagree(built):
    _, index = built
    K = index.levels
    parts = dict(directions=index.directions, keys=index.keys, order=index.order)
    for name, bad in [
        ("keys", index.keys[:-1]),
        ("order", index.order[:, :-1]),
        ("directions", index.directions[:-1]),
    ]:
        with pytest.raises(ValueError, match=rf"do not make \d+ repetitions of {K} levels"):
            MultiLevelIndex(index.dataset, index.calibration, index.seed, index.space_budget,
                            K, **{**parts, name: bad})
