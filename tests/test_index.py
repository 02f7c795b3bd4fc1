import json
import math
import struct

import numpy as np
import pytest

from mlslsh.calibration import CalibrationError, FamilyCalibration
from mlslsh.families import FamilyParams, hash_batch
from mlslsh.geometry import generate_planted_instance
from mlslsh.index import (
    BuildParams,
    IndexFormatError,
    MultiLevelIndex,
    Repetition,
    build_index,
    compute_k,
    compute_numreps,
    load_index,
    reps,
)
from mlslsh.query import cost


def toy_calibration(params, p1=0.8, p2=0.3, levels=6, max_probes=8):
    """Hand-built calibration with a synthetic but valid probe-success table."""
    ks = np.arange(1, levels + 1, dtype=np.float64)[:, None]
    js = np.arange(1, max_probes + 1, dtype=np.float64)[None, :]
    table = np.minimum(1.0, p1**ks * (1.0 + 0.25 * (js - 1.0)))
    return FamilyCalibration(
        params=params,
        r=0.4,
        c=2.0,
        p1=p1,
        p2=p2,
        rho=math.log(1.0 / p1) / math.log(1.0 / p2),
        probe_success=table,
        probe_success_se=np.zeros_like(table),
        trials=1000,
        seed=0,
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
    cal = toy_calibration(params)
    inst = generate_planted_instance(n=400, d=12, r=0.4, t=5, seed=20)
    return inst, build_index(inst.dataset, cal, seed=7)


def test_build_sizes_from_formulas(built):
    inst, index = built
    cal = index.params.calibration
    assert index.levels == compute_k(400, cal.p2)
    assert index.num_repetitions == compute_numreps(cal.p1, index.levels)


def test_space_budget_caps_repetitions(built):
    inst, _ = built
    params = FamilyParams(kind="cross_polytope", dim=12)
    cal = toy_calibration(params)
    capped = build_index(inst.dataset, cal, space_budget=2, seed=7)
    assert capped.num_repetitions == 2


def test_reps_table_matches_the_scheduler_cost(tmp_path, built):
    # build and load both fill the table and the schedule the scheduler
    # reads from the same capped repetition count that `cost` uses, binding
    # cap included; the schedule lists every setting once, in cost order
    inst, index = built
    cal = index.params.calibration
    capped = build_index(inst.dataset, cal, space_budget=2, seed=7)
    path = str(tmp_path / "capped.idx")
    capped.save(path)
    for idx in (index, capped, load_index(path)):
        assert idx.reps_table.shape == (idx.levels, cal.max_probes)
        assert not idx.reps_table.flags.writeable
        for k in range(1, idx.levels + 1):
            for j in range(1, cal.max_probes + 1):
                expected = cost(k, j, cal, idx.num_repetitions)
                assert j * idx.reps_table[k - 1, j - 1] == expected
        assert isinstance(idx.schedule, tuple)
        assert list(idx.schedule) == sorted(idx.schedule)
        settings = [(k, j) for _, k, j in idx.schedule]
        assert len(settings) == len(set(settings)) == idx.levels * cal.max_probes
        for c, k, j in idx.schedule:
            assert type(c) is float and c == cost(k, j, cal, idx.num_repetitions)


def test_codes_match_hash_functions(built):
    # stored codes are exactly what the slot functions produce on the points
    inst, index = built
    for rep in index.repetitions[:3]:
        codes = rep.codes_in_input_order()
        for s, fn in enumerate(rep.functions):
            assert np.array_equal(codes[:, s], hash_batch(fn, inst.dataset.matrix))


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
    for rep in index.repetitions[:3]:
        codes = rep.codes_in_input_order()
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
    codes = rep.codes_in_input_order()
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
    codes = rep.codes_in_input_order()
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
    again = build_index(inst.dataset, toy_calibration(params), seed=7)
    other = build_index(inst.dataset, toy_calibration(params), seed=8)
    for a, b in zip(index.repetitions, again.repetitions):
        assert np.array_equal(a.sorted_codes, b.sorted_codes)
        assert np.array_equal(a.order, b.order)
    assert any(
        not np.array_equal(a.sorted_codes, b.sorted_codes)
        for a, b in zip(index.repetitions, other.repetitions)
    )


def test_build_rejects_short_calibration():
    params = FamilyParams(kind="cross_polytope", dim=8)
    cal = toy_calibration(params, p2=0.3, levels=2)
    inst = generate_planted_instance(n=2000, d=8, r=0.4, t=3, seed=1)
    with pytest.raises(CalibrationError, match="levels"):
        build_index(inst.dataset, cal)


def test_build_params_family_mismatch():
    a = FamilyParams(kind="cross_polytope", dim=8)
    b = FamilyParams(kind="cross_polytope", dim=10)
    with pytest.raises(ValueError):
        BuildParams(family=b, calibration=toy_calibration(a))


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
    for a, b in zip(index.repetitions, loaded.repetitions):
        assert np.array_equal(a.sorted_codes, b.sorted_codes)
        assert np.array_equal(a.order, b.order)
        for fa, fb in zip(a.functions, b.functions):
            assert np.array_equal(fa.directions, fb.directions)


def test_save_load_rebuildable_matches_full(tmp_path, built):
    _, index = built
    full = str(tmp_path / "full.idx")
    slim = str(tmp_path / "slim.idx")
    index.save(full, include_codes=True)
    index.save(slim, include_codes=False)
    import os

    assert os.path.getsize(slim) < os.path.getsize(full)
    a = load_index(full)
    b = load_index(slim)
    for ra, rb in zip(a.repetitions, b.repetitions):
        assert np.array_equal(ra.sorted_codes, rb.sorted_codes)
        assert np.array_equal(ra.order, rb.order)


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


def test_repetition_rejects_mismatched_codes():
    params = FamilyParams(kind="cross_polytope", dim=8)
    from mlslsh.families import sample_hash_function

    fns = tuple(sample_hash_function(params, s) for s in range(2))
    with pytest.raises(ValueError):
        Repetition(fns, np.zeros((10, 3), dtype=np.int32))


# packed keys, the bit budget and header checks


def test_keys_sort_like_the_code_tuples(built):
    _, index = built
    for rep in index.repetitions[:3]:
        codes = rep.codes_in_input_order()
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
        for s, fn in enumerate(rep.functions):
            assert fn.directions.base is index.directions
            assert np.shares_memory(fn.directions, index.directions[r * K + s])


def test_build_past_the_bit_budget_fails_clearly():
    # 1001 buckets take 10 bits per slot, and 7 levels of them need 70
    params = FamilyParams(kind="spherical_cap", dim=8, cap_count=1000)
    cal = toy_calibration(params, p2=0.4, levels=8)
    inst = generate_planted_instance(n=400, d=8, r=0.4, t=3, seed=1)
    assert compute_k(400, 0.4) == 7
    with pytest.raises(ValueError, match=r"K=7 .*U=1001.* 70 key bits"):
        build_index(inst.dataset, cal)


@pytest.fixture(scope="module")
def tiny_file(tmp_path_factory):
    params = FamilyParams(kind="cross_polytope", dim=4)
    inst = generate_planted_instance(n=20, d=4, r=0.4, t=2, seed=3)
    index = build_index(inst.dataset, toy_calibration(params), seed=1)
    path = tmp_path_factory.mktemp("tiny") / "tiny.idx"
    index.save(str(path))
    return path.read_bytes()


def _meta_end(blob: bytes) -> int:
    (meta_len,) = struct.unpack_from("<Q", blob, 16)
    return 24 + meta_len


def test_load_fuzz_truncated_and_flipped_headers(tmp_path, tiny_file):
    # every cut and every flipped header byte is a format error, never a
    # KeyError, a MemoryError or an allocation the header alone asked for
    path = tmp_path / "fuzz.idx"
    for cut in range(len(tiny_file)):
        path.write_bytes(tiny_file[:cut])
        with pytest.raises(IndexFormatError):
            load_index(str(path))
    for at in range(_meta_end(tiny_file)):
        blob = bytearray(tiny_file)
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
        (_set("n", 10**12), "truncated"),
        (_set("n", 0), "positive integers"),
        (_set("d", "4"), "positive integers"),
        (_set("d", 5), "dimension"),
        (_set("levels", 7), "exceed"),
        (_set("num_repetitions", 10**9), "repetitions"),
        (_set("seed", 1.5), "seed"),
        (_set("space_budget", 0), "space budget"),
        (lambda meta: meta.pop("family"), "corrupt index metadata"),
        (_set("calibration", []), "corrupt index metadata"),
        (_cap_family, "key bits"),
        (_set("n", 19), "trailing"),
        (_set("degenerate_ids", ["x", -5, 1000000000]), "degenerate ids"),
        (_set("degenerate_ids", [3, 3]), "degenerate ids"),
        (_set("degenerate_ids", [19, 20]), "degenerate ids"),
    ],
    ids=[
        "n-huge", "n-zero", "d-string", "d-mismatch", "levels-past-calibration",
        "repetitions-huge", "seed-float", "budget-zero", "family-missing",
        "calibration-not-object", "bit-budget",
        "n-short", "degenerate-not-ids", "degenerate-repeated", "degenerate-past-n",
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


def test_load_rejects_codes_outside_the_universe(tmp_path, tiny_file):
    blob = bytearray(tiny_file)
    blob[-4:] = struct.pack("<i", 8)  # cross-polytope in 4 dimensions has buckets 0..7
    path = tmp_path / "codes.idx"
    path.write_bytes(bytes(blob))
    with pytest.raises(IndexFormatError, match="codes"):
        load_index(str(path))
