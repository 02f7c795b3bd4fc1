import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mlslsh.families as fam
from conftest import stable_probe_sequence, stable_slot_rankings
from mlslsh.families import (
    HASH_BLOCK,
    KEY_BITS,
    CodeEnumerator,
    FamilyParams,
    _pack,
    default_cap_threshold,
    derived_rng,
    derived_seed,
    hash_batch,
    hash_keys,
    probe_sequence,
    sample_directions,
    slot_bits,
)


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def one_function(params, seed):
    """The (rows, dim) directions of the function with this seed."""
    return sample_directions(params, [seed])[0]


def own_bucket(params, fn, q):
    return int(hash_batch(params, fn, q[None, :])[0])


def first_codes(params, fns, q, j):
    return CodeEnumerator([stable_probe_sequence(params, fn, q) for fn in fns]).first(j)


def test_derived_seed_is_deterministic_and_distinct():
    assert derived_seed(3, 1, 4) == derived_seed(3, 1, 4)
    assert derived_seed(3, 1, 4) != derived_seed(3, 4, 1)
    a = derived_rng(5, 0).normal(size=4)
    b = derived_rng(5, 0).normal(size=4)
    assert np.array_equal(a, b)


def test_sampling_is_deterministic_per_seed():
    params = FamilyParams(kind="spherical_cap", dim=8, cap_count=16)
    f1 = one_function(params, 42)
    f2 = one_function(params, 42)
    f3 = one_function(params, 43)
    assert np.array_equal(f1, f2)
    assert not np.array_equal(f1, f3)


def test_cap_directions_are_unit_rows():
    params = FamilyParams(kind="spherical_cap", dim=10, cap_count=24)
    fn = one_function(params, 0)
    assert fn.shape == (24, 10)
    assert np.allclose(np.linalg.norm(fn, axis=1), 1.0, atol=1e-12)


def test_cross_polytope_rotation_is_orthogonal():
    params = FamilyParams(kind="cross_polytope", dim=12)
    r = one_function(params, 7)
    assert r.shape == (12, 12)
    assert np.allclose(r.T @ r, np.eye(12), atol=1e-9)


def test_default_cap_threshold_values():
    # inverse normal cdf of (1 - 1/T), scaled down by sqrt(d)
    from statistics import NormalDist

    expected = NormalDist().inv_cdf(1.0 - 1.0 / 64) / math.sqrt(32)
    assert abs(default_cap_threshold(64, 32) - expected) < 1e-12
    # clamped into a usable inner-product range
    assert default_cap_threshold(2, 10**6) >= 1e-3
    assert default_cap_threshold(10**9, 2) <= 0.999


def test_cap_hash_matches_direct_recount():
    # first cap whose inner product clears the threshold, else the overflow id
    params = FamilyParams(kind="spherical_cap", dim=8, cap_count=16)
    fn = one_function(params, 5)
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(200, 8))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    got = hash_batch(params, fn, pts)
    eta = params.threshold
    for i in range(200):
        scores = fn @ pts[i]
        clearing = np.nonzero(scores >= eta)[0]
        expected = int(clearing[0]) if clearing.size else params.cap_count
        assert got[i] == expected


def test_cap_row_exactly_at_the_threshold_clears_it():
    # basis directions make the dot product exactly the row's coordinate
    params = FamilyParams(kind="spherical_cap", dim=4, cap_count=4)
    fn = np.eye(4)
    eta = params.threshold
    rows = np.zeros((3, 4))
    rows[0, 2] = eta
    rows[1, 2] = np.nextafter(eta, 0.0)
    rows[2, 2] = -eta
    assert hash_batch(params, fn, rows).tolist() == [2, 4, 4]


def test_cap_hash_of_own_direction_is_that_cap():
    params = FamilyParams(kind="spherical_cap", dim=8, cap_count=16)
    fn = one_function(params, 5)
    # a direction scores 1.0 against itself, which clears any valid threshold,
    # and no earlier cap is that well aligned for these seeds
    assert own_bucket(params, fn, fn[0]) == 0


def test_cross_polytope_identity_rotation_examples():
    params = FamilyParams(kind="cross_polytope", dim=4)
    fn = np.eye(4)
    cases = [
        ([0.0, 0.0, 0.0, -1.0], 7),  # negative last axis -> bucket 2*3+1
        ([1.0, 1.0, 0.0, 0.0], 0),  # tie between +x0 and +x1 -> smaller id
        ([-1.0, 1.0, 0.0, 0.0], 1),  # tie between -x0 and +x1
        ([0.0, 1.0, 0.0, 0.0], 2),
    ]
    for v, expected in cases:
        assert own_bucket(params, fn, unit(v)) == expected


def test_cross_polytope_hash_matches_direct_recount():
    params = FamilyParams(kind="cross_polytope", dim=8)
    fn = one_function(params, 11)
    rng = np.random.default_rng(12)
    pts = rng.normal(size=(200, 8))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    got = hash_batch(params, fn, pts)
    for i in range(200):
        proj = fn @ pts[i]
        best, best_score = 0, -np.inf
        for axis in range(8):
            for sign_bit, s in ((0, proj[axis]), (1, -proj[axis])):
                if s > best_score:
                    best, best_score = 2 * axis + sign_bit, s
        assert got[i] == best


def test_cross_polytope_codes_match_interleaved_argmax():
    # codes are 2 * argmax|proj| + (proj < 0); the reference is the argmax
    # over the interleaved scores (proj_0, -proj_0, proj_1, -proj_1, ...),
    # including the ties all-zero and signed-zero rows produce
    params = FamilyParams(kind="cross_polytope", dim=6)
    rng = np.random.default_rng(21)
    rows = rng.normal(size=(300, 6))
    rows[:20] = 0.0
    rows[20:40] = -0.0
    rows[40:60] = np.where(rng.random((20, 6)) < 0.5, 0.0, -0.0)
    rows[60:80, :3] = 0.0
    rows[80:100] = rng.integers(-1, 2, size=(20, 6)).astype(np.float64)
    for seed in range(20):
        for directions in (one_function(params, seed), np.eye(6)):
            proj = rows @ directions.T
            interleaved = np.empty((rows.shape[0], 12))
            interleaved[:, 0::2] = proj
            interleaved[:, 1::2] = -proj
            got = hash_batch(params, directions, rows)
            assert np.array_equal(got, interleaved.argmax(axis=1))


def test_bucket_is_scale_invariant():
    # cross-polytope buckets depend only on direction; cap buckets compare
    # against a fixed threshold and are defined for unit rows only
    params = FamilyParams(kind="cross_polytope", dim=6)
    fn = one_function(params, 3)
    rng = np.random.default_rng(14)
    rows = rng.normal(size=(50, 6))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    assert np.array_equal(hash_batch(params, fn, rows), hash_batch(params, fn, 3.7 * rows))


def test_hash_batch_checks_dimension():
    params = FamilyParams(kind="cross_polytope", dim=4)
    fn = one_function(params, 0)
    for bad in (unit([1.0, 2.0, 3.0])[None, :], unit([1.0, 2.0, 3.0, 4.0])):
        for hashed in (
            lambda rows: hash_batch(params, fn, rows),
            lambda rows: hash_keys(params, fn[None], rows),
        ):
            with pytest.raises(ValueError, match=r"rows have shape .*expected \(m, 4\)"):
                hashed(bad)


@st.composite
def hashing_cases(draw):
    """A family, the (K, directions, dim) stack of one repetition, K up to
    the key-bit budget, and rows to hash, n from one row to past a few blocks.

    Each slot's directions are sampled, or hand-set to signed basis vectors,
    under which cross-polytope rows of entries in {-1, 0, 1} tie on |p| and
    cap rows on a basis vector sit exactly at the threshold. Rows mix random
    unit rows, zero rows, which clear no cap, and those hand-set rows.
    """
    kind = draw(st.sampled_from(["spherical_cap", "cross_polytope"]))
    dim = draw(st.integers(2, 40))
    params = FamilyParams(kind=kind, dim=dim, cap_count=draw(st.integers(2, 80)))
    depth = draw(st.integers(1, KEY_BITS // slot_bits(params, 1)))
    n = draw(st.one_of(
        st.integers(1, 3 * HASH_BLOCK + 1),
        st.sampled_from([b * HASH_BLOCK + e for b in (1, 2, 3) for e in (-1, 0, 1)]),
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = np.empty((depth, params.direction_count, dim))
    for s in range(depth):
        if draw(st.booleans()):
            stack[s] = one_function(params, int(rng.integers(2**31)))
        else:
            axes = rng.permutation(np.arange(params.direction_count) % dim)
            stack[s] = np.eye(dim)[axes] * rng.choice([-1.0, 1.0], size=(len(axes), 1))
    rows = rng.normal(size=(n, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    kinds = rng.integers(0, 4, size=n)
    rows[kinds == 1] = 0.0
    rows[kinds == 2] = rng.integers(-1, 2, size=(np.count_nonzero(kinds == 2), dim))
    at = np.flatnonzero(kinds == 3)
    rows[at] = 0.0
    rows[at, rng.integers(dim, size=at.size)] = rng.choice([-1.0, 1.0], at.size) * params.threshold
    return params, stack, rows


@settings(max_examples=200, deadline=None, derandomize=True)
@given(hashing_cases())
def test_hash_keys_match_hash_batch_per_function(case):
    # the oracle hashes one function at a time over every row and packs the
    # K code arrays, slot 0 in the high bits
    params, stack, rows = case
    expected = _pack(
        np.stack([hash_batch(params, d, rows) for d in stack], axis=1),
        slot_bits(params, len(stack)),
    )
    got = hash_keys(params, stack, rows)
    assert got.dtype == np.int64 and got.shape == (rows.shape[0],)
    assert np.array_equal(got, expected)


def _recount_order(params, fn, q):
    """Probe order computed independently: own bucket first, then remaining
    buckets by descending score with smaller id breaking ties."""
    if params.kind == "spherical_cap":
        qq = q / np.linalg.norm(q)
        scores = list(fn @ qq)
        scores.append(min(scores) - 1.0)  # overflow ranks after every cap
    else:
        proj = fn @ q
        scores = []
        for axis in range(params.dim):
            scores.extend((proj[axis], -proj[axis]))
    own = own_bucket(params, fn, q)
    rest = sorted(
        (b for b in range(len(scores)) if b != own),
        key=lambda b: (-scores[b], b),
    )
    return [own] + rest, scores


@pytest.mark.parametrize("kind,dim", [("spherical_cap", 8), ("cross_polytope", 8)])
def test_probe_sequence_matches_recount(kind, dim):
    params = FamilyParams(kind=kind, dim=dim, cap_count=16)
    fn = one_function(params, 21)
    rng = np.random.default_rng(22)
    for _ in range(30):
        q = unit(rng.normal(size=dim))
        buckets, deficits = probe_sequence(params, fn, q)
        expected, scores = _recount_order(params, fn, q)
        assert list(buckets) == expected
        assert len(set(buckets)) == len(buckets) == len(deficits)
        assert len(buckets) == params.bucket_universe
        # deficits: position zero free, then the drop from the best score,
        # taken over the descending score profile
        desc = sorted(scores, reverse=True)
        assert deficits[0] == 0.0
        assert np.all(np.diff(deficits) >= 0.0)
        assert np.allclose(deficits, [desc[0] - s for s in desc], atol=1e-12)
    # a ranking is defined for a row on the unit sphere of the family's dimension
    for bad, message in ((1.001 * q, "norm"), (q[:-1], "shape")):
        with pytest.raises(ValueError, match=message):
            probe_sequence(params, fn, bad)


def test_enumerator_first_code_is_own_buckets():
    params = FamilyParams(kind="cross_polytope", dim=8)
    fns = sample_directions(params, [0, 1, 2])
    q = unit(np.arange(1.0, 9.0))
    codes = first_codes(params, fns, q, 6)
    assert codes[0] == tuple(own_bucket(params, fn, q) for fn in fns)
    assert len(codes) == len(set(codes)) == 6


def test_enumerator_prefix_property():
    params = FamilyParams(kind="spherical_cap", dim=6, cap_count=12)
    fns = sample_directions(params, [0, 1])
    q = unit(np.array([0.3, -1.2, 0.5, 0.9, -0.4, 0.1]))
    long = first_codes(params, fns, q, 20)
    for j in (1, 3, 7, 12):
        assert first_codes(params, fns, q, j) == long[:j]


def grid_order(rankings):
    """Every tuple of the full grid of `rankings`, in the probe order's
    lexicographic form: by (P_l, ..., P_1, r_1, ..., r_l), where P_s is
    the left-to-right sum of the first s deficits and r_s the rank taken
    in slot s. It shares no code with `first_tuples`."""
    def key(ranks):
        sums = itertools.accumulate(float(d[r]) for (_, d), r in zip(rankings, ranks))
        return (*reversed(list(sums)), *ranks)

    grid = sorted(itertools.product(*(range(len(b)) for b, _ in rankings)), key=key)
    return [tuple(int(b[r]) for (b, _), r in zip(rankings, ranks)) for ranks in grid]


def test_enumerator_priorities_are_optimal():
    # the emitted order must match brute force over the full code grid
    params = FamilyParams(kind="cross_polytope", dim=3)
    fns = sample_directions(params, [4, 5])
    q = unit(np.array([0.8, -0.2, 0.55]))
    expected = grid_order([probe_sequence(params, fn, q) for fn in fns])
    assert first_codes(params, fns, q, len(expected)) == expected


def test_enumerator_exhausts_small_universe():
    params = FamilyParams(kind="cross_polytope", dim=2)  # four buckets
    fns = sample_directions(params, [1, 2])
    q = unit(np.array([0.6, 0.8]))
    codes = first_codes(params, fns, q, 50)
    assert len(codes) == 16
    assert len(set(codes)) == 16


DYADIC = [0.0, 0.25, 0.5, 1.0, 2.0]


@st.composite
def slot_rankings(draw):
    """One ranking per slot over a 2-6 bucket universe: deficits from a few
    dyadic values, so every sum is exact and ties are common, non-decreasing
    from 0; tied positions hold their buckets in ascending order, as probe
    rankings do past the own bucket. Rows are lists or arrays."""
    rankings = []
    for _ in range(draw(st.integers(1, 3))):
        universe = draw(st.integers(2, 6))
        deficits = sorted(
            [0.0] + draw(st.lists(st.sampled_from(DYADIC), min_size=universe - 1,
                                  max_size=universe - 1))
        )
        if draw(st.booleans()):  # force a tie at the top
            deficits[1] = 0.0
        buckets = draw(st.permutations(range(universe)))
        pairs = sorted(zip(deficits, buckets))
        ranking = ([b for _, b in pairs], [d for d, _ in pairs])
        if draw(st.booleans()):
            ranking = (np.array(ranking[0]), np.array(ranking[1]))
        rankings.append(ranking)
    return rankings


@settings(max_examples=200, deadline=None, derandomize=True)
@given(slot_rankings(), st.data())
def test_enumerator_matches_the_sorted_grid(rankings, data):
    expected = grid_order(rankings)
    assert CodeEnumerator(rankings).first(len(expected)) == expected
    assert CodeEnumerator(rankings).first(len(expected) + 5) == expected
    # a shorter prefix makes the (i + 1)(r + 1) <= count cut bind
    count = data.draw(st.integers(0, len(expected)))
    assert CodeEnumerator(rankings).first(count) == expected[:count]


def test_enumerator_sums_deficits_left_to_right():
    # a two-cap ranking in d = 3: the overflow bucket scores one unit below
    # the lowest cap, so tuples that swap the two between slots tie exactly
    # under the canonical sum d0 + d1, and the smaller first deficit d0,
    # the earlier prefix, goes first
    rankings = [
        ([2, 1, 0], [0.0, 0.8068813216366558, 1.8068813216366557]),
        ([1, 0, 2], [0.0, 0.7851832007803632, 1.785183200780363]),
    ]
    (_, (_, d1, d2)), (_, (_, e1, e2)) = rankings
    assert d1 + e2 == d2 + e1 and d1 < d2
    codes = CodeEnumerator(rankings).first(9)
    assert codes == grid_order(rankings)
    # (1, 2) and (0, 0) tie: (1, 2) extends the earlier prefix, so it goes
    # first, where a tie broken on the key would put (0, 0) first
    assert codes == [(2, 1), (2, 0), (1, 1), (1, 0), (2, 2), (0, 1), (1, 2), (0, 0), (0, 2)]


def test_enumerator_puts_the_own_tuple_first_under_tied_deficits():
    # the own bucket 5 ties with bucket 2 but has the larger id; the spine
    # lower bound needs the all-own tuple at position 0 anyway. Every tuple
    # ties, so the order is that of the prefixes, then of the ranks, and
    # the first two at count 2 are the first two at count 16
    enumerator = CodeEnumerator([([5, 2], [0.0, 0.0])] * 2)
    assert enumerator.first(16) == [(5, 5), (5, 2), (2, 5), (2, 2)]
    assert enumerator.first(2) == [(5, 5), (5, 2)]


def test_enumerator_rejects_malformed_rankings_naming_the_slot():
    good = ([0, 1], [0.0, 1.0])
    for bad, message in (
        (([0, 1, 2], [0.0, 0.5]), "one non-empty row"),
        (([], []), "one non-empty row"),
        (([[0, 1]], [[0.0, 1.0]]), "one non-empty row"),
        (([-1, 1], [0.0, 1.0]), "distinct non-negative integers"),
        (([1, 1], [0.0, 1.0]), "distinct non-negative integers"),
        (([0.0, 1.0], [0.0, 1.0]), "distinct non-negative integers"),
        (([0, 1], [0.0, math.nan]), "finite and non-decreasing"),
        (([0, 1], [0.0, math.inf]), "finite and non-decreasing"),
        (([0, 1], [0.5, 0.0]), "finite and non-decreasing"),
    ):
        with pytest.raises(ValueError, match=f"slot 1: .*{message}"):
            CodeEnumerator([good, bad])
    enumerator = CodeEnumerator([good])
    for count in (-1, 2.0, True, "2", None):
        with pytest.raises(ValueError, match="count must be a non-negative integer"):
            enumerator.first(count)
    assert enumerator.first(np.int64(2)) == enumerator.first(2) == [(0,), (1,)]


def test_family_params_validation_and_json():
    with pytest.raises(ValueError):
        FamilyParams(kind="unknown", dim=4)
    with pytest.raises(ValueError):
        FamilyParams(kind="cross_polytope", dim=1)
    with pytest.raises(ValueError):
        FamilyParams(kind="spherical_cap", dim=4, cap_count=0)
    # a count that is not an integer fails here, naming its field, and not
    # later in `slot_bits` or `sample_directions`; numpy integers are kept
    for kwargs, name in (
        (dict(kind="spherical_cap", dim=32, cap_count=64.0), "cap_count"),
        (dict(kind="cross_polytope", dim=32.0), "dim"),
        (dict(kind="cross_polytope", dim=True), "dim"),
        (dict(kind="spherical_cap", dim=8, cap_count="16"), "cap_count"),
    ):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            FamilyParams(**kwargs)
    numpy_ints = FamilyParams(kind="spherical_cap", dim=np.int64(6), cap_count=np.int32(10))
    assert numpy_ints == FamilyParams(kind="spherical_cap", dim=6, cap_count=10)
    assert type(numpy_ints.dim) is type(numpy_ints.cap_count) is int
    p = FamilyParams(kind="spherical_cap", dim=6, cap_count=10)
    assert p.bucket_universe == 11 and p.threshold == default_cap_threshold(10, 6)
    doc = p.to_json_dict()
    # the two fixed fields of older documents are still written, in this order
    assert list(doc.items()) == [
        ("kind", "spherical_cap"), ("dim", 6), ("cap_count", 10),
        ("cap_threshold", None), ("rotation_seed_base", 0),
    ]
    assert FamilyParams.from_json_dict(doc) == p
    for key, value in (("cap_threshold", 0.25), ("rotation_seed_base", 3)):
        with pytest.raises(ValueError, match="only"):
            FamilyParams.from_json_dict({**doc, key: value})
    cp = FamilyParams(kind="cross_polytope", dim=6)
    assert cp.bucket_universe == 12
    assert FamilyParams.from_json_dict(cp.to_json_dict()) == cp


def lexsorted_first_tuples(slots, count, bits):
    """`families.first_tuples` with no cut: every (position, rank) pair of
    every row lexsorted on (priority, position, rank), the first `count`
    kept."""
    m = len(slots[0][0])
    keys, prio = np.zeros((m, 1), dtype=np.int64), np.zeros((m, 1))
    for buckets, deficits in slots:
        r, i = (a.ravel() for a in np.indices((buckets.shape[1], keys.shape[1])))
        cand_keys = keys[:, i] << bits | buckets[:, r].astype(np.int64)
        cand_prio = prio[:, i] + deficits[:, r]
        order = np.lexsort((np.broadcast_to(r, cand_keys.shape),
                            np.broadcast_to(i, cand_keys.shape), cand_prio))[:, :count]
        keys = np.take_along_axis(cand_keys, order, axis=1)
        prio = np.take_along_axis(cand_prio, order, axis=1)
        yield keys


@st.composite
def projection_cases(draw):
    """Query rows projected on a stack of `depth` functions, rich in ties:
    zero rows, rows of entries in {-1, 0, 1} under signed basis directions,
    which tie cross-polytope scores and zero coordinates, and caps whose
    direction repeats another's, which tie cap projections. A zero
    coordinate takes either sign. The probe count may pass the bucket
    universe."""
    kind = draw(st.sampled_from(["spherical_cap", "cross_polytope"]))
    dim = draw(st.integers(2, 12))
    params = FamilyParams(kind=kind, dim=dim, cap_count=draw(st.integers(2, 20)))
    depth = draw(st.integers(1, min(4, KEY_BITS // slot_bits(params, 1))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = np.empty((depth, params.direction_count, dim))
    for s in range(depth):
        if draw(st.booleans()):
            stack[s] = one_function(params, int(rng.integers(2**31)))
        else:
            axes = rng.permutation(np.arange(params.direction_count) % dim)
            stack[s] = np.eye(dim)[axes] * rng.choice([-1.0, 1.0], size=(len(axes), 1))
        if kind == "spherical_cap" and draw(st.booleans()):
            stack[s, rng.integers(params.cap_count)] = stack[s, rng.integers(params.cap_count)]
    m = draw(st.integers(1, 20))
    rows = rng.normal(size=(m, dim))
    kinds = rng.integers(0, 3, size=m)
    rows[kinds == 1] = 0.0
    rows[kinds == 2] = rng.integers(-1, 2, size=(np.count_nonzero(kinds == 2), dim))
    proj = (rows @ stack.reshape(-1, dim).T).reshape(m * depth, -1)
    zeros = proj == 0.0
    proj[zeros] = np.copysign(0.0, rng.choice([-1.0, 1.0], size=int(zeros.sum())))
    count = draw(st.integers(1, params.bucket_universe + 3))
    return params, depth, proj, count


@settings(max_examples=300, deadline=None, derandomize=True)
@given(projection_cases(), st.data())
def test_fast_probe_sorts_match_the_stable_references(case, data):
    # a ranking to the whole universe, and the merge's stable sort and its
    # cut, rank and merge exactly as the stable argsort and the lexsort of
    # every pair do. Each row ranks and merges on its own: the first rows and
    # slots of the projection, the rectangle a multi-probe setting ranks,
    # give the rows of the whole
    params, depth, proj, count = case
    got = fam.slot_rankings(params, proj, depth, params.bucket_universe)
    expected = stable_slot_rankings(params, proj, depth)
    for (orders, deficits), (ref_orders, ref_deficits) in zip(got, expected):
        assert np.array_equal(orders, ref_orders)
        assert deficits.tobytes() == ref_deficits.tobytes()
    bits = slot_bits(params, depth)
    levels = list(fam.first_tuples(got, count, bits))
    ref_levels = list(lexsorted_first_tuples(expected, count, bits))
    assert len(levels) == len(ref_levels) == depth
    for keys, ref_keys in zip(levels, ref_levels):
        assert np.array_equal(keys, ref_keys)
    m = len(proj) // depth
    rows, cut = data.draw(st.integers(1, m)), data.draw(st.integers(1, depth))
    rectangle = proj.reshape(m, depth, -1)[:rows, :cut].reshape(rows * cut, -1)
    part = fam.slot_rankings(params, rectangle, cut, params.bucket_universe)
    assert len(part) == cut
    for (orders, deficits), (whole_orders, whole_deficits) in zip(part, got):
        assert np.array_equal(orders, whole_orders[:rows])
        assert deficits.tobytes() == whole_deficits[:rows].tobytes()
    part_levels = list(fam.first_tuples(part, count, bits))
    assert len(part_levels) == cut
    for keys, whole_keys in zip(part_levels, levels):
        assert np.array_equal(keys, whole_keys[:rows])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(slot_rankings(), st.data())
def test_fast_merge_matches_the_lexsort_under_tied_deficits(rankings, data):
    # dyadic deficits tie sums exactly; a tie at the cut or anywhere above
    # it must break as the lexsort of every pair breaks it
    slots = [(np.array([b], dtype=np.int64), np.array([d], dtype=np.float64)) for b, d in rankings]
    count = data.draw(st.integers(1, 40))
    got = list(fam.first_tuples(slots, count, 3))
    expected = list(lexsorted_first_tuples(slots, count, 3))
    assert all(np.array_equal(a, b) for a, b in zip(got, expected)) and len(got) == len(expected)


def rule_widths(count):
    """Every width a ranking can take under a table of `count` probes: the
    smallest power of two >= j for j = 2..count, capped at `count`."""
    return sorted({min(1 << (j - 1).bit_length(), count) for j in range(2, count + 1)})


def cut_to(slots, width):
    """The columns of whole rankings that a ranking to `width` returns: the
    first `width` buckets and deficits."""
    return [(b[:, :width], d[:, :width]) for b, d in slots]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(projection_cases(), st.data())
def test_a_ranking_to_a_width_is_the_whole_ranking_cut(case, data):
    # ties, zero rows and coordinates of either sign, repeated caps and
    # widths up to past the universe: exactly the first w buckets and the
    # bytes of the first w deficits of every row, as far as there are.
    # A zero top score less a zero of the other sign is -0.0, which no
    # ranking returns
    params, depth, proj, _ = case
    universe = params.bucket_universe
    m = len(proj) // depth
    expected = stable_slot_rankings(params, proj, depth)
    for width in range(1, universe + 3):
        got = fam.slot_rankings(params, proj, depth, width)
        assert len(got) == depth
        for (orders, deficits), (ref_orders, ref_deficits) in zip(got, cut_to(expected, width)):
            assert orders.shape == (m, min(width, universe))
            assert deficits.shape == (m, min(width, universe))
            assert np.array_equal(orders, ref_orders)
            assert deficits.tobytes() == ref_deficits.tobytes()
            assert not np.signbit(deficits).any()


@pytest.mark.parametrize("kind", ["spherical_cap", "cross_polytope"])
def test_probe_sequence_of_a_zero_projection_has_no_negative_zero(kind):
    # zero directions project every query to zeros, of either sign once
    # cross-polytope negates them; every cap misses, so the overflow is own
    # (a whole sort of d = 8 axes put a -0.0 first, and so a -0.0 deficit)
    params = FamilyParams(kind=kind, dim=8, cap_count=6)
    zero, q = np.zeros((params.direction_count, 8)), unit(np.ones(8))
    buckets, deficits = probe_sequence(params, zero, q)
    assert not np.signbit(deficits).any()
    ref_buckets, ref_deficits = stable_probe_sequence(params, zero, q)
    assert np.array_equal(buckets, ref_buckets)
    assert deficits.tobytes() == ref_deficits.tobytes()
    if kind == "spherical_cap":
        assert buckets[0] == 6 and deficits.tolist() == [0.0] * 6 + [1.0]
    else:
        assert deficits.tolist() == [0.0] * 16


# a prefix priority and the float 1 ulp above it: both tie once a deficit of
# 1 or more is added, and the sum rounds the difference away
ABSORBED = [2.0**-30, float(np.nextafter(2.0**-30, 1.0))]


@st.composite
def merge_cases(draw):
    """Rankings of 1-6 rows on 1-4 slots of a 2-20 bucket universe, rich in
    ties: deficits non-decreasing from 0, drawn from dyadic values, whose
    sums tie exactly, and from ABSORBED; in about half the rows a second
    bucket ties the own one at deficit 0 with the smaller id. A table width
    of 2-16 probes."""
    universe, depth, m = draw(st.integers(2, 20)), draw(st.integers(1, 4)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    slots = []
    for _ in range(depth):
        deficits = np.sort(rng.choice(DYADIC + ABSORBED + [1.0, 3.0], (m, universe)), axis=1)
        deficits[:, 0] = 0.0
        top_tie = rng.random(m) < 0.5
        deficits[top_tie, 1] = 0.0
        buckets = np.argsort(rng.random((m, universe)), axis=1)
        larger = top_tie & (buckets[:, 0] < buckets[:, 1])
        buckets[larger, :2] = buckets[larger, 1::-1]
        slots.append((buckets, deficits))
    return slots, draw(st.integers(2, 16))


def ranked_whole(case):
    """A `projection_cases` case as whole stable rankings and its count."""
    params, depth, proj, count = case
    return stable_slot_rankings(params, proj, depth), count


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(merge_cases(), projection_cases().map(ranked_whole)))
@example(([(np.array([[5, 2]]), np.array([[0.0, 0.0]]))] * 2, 16))
def test_every_prefix_of_a_merge_is_the_merge_at_its_count(case):
    # ties of every kind: at each count c <= C, every row's merge of the
    # rankings cut as a ranking to width c is, level by level, the first c
    # tuples of the merge at C
    slots, count = case
    wide = list(fam.first_tuples(slots, count, 5))
    for c in range(count + 1):
        narrow = list(fam.first_tuples(cut_to(slots, c), c, 5))
        assert len(narrow) == len(wide) == len(slots)
        for keys, wide_keys in zip(narrow, wide):
            assert keys.shape == (len(wide_keys), min(c, wide_keys.shape[1]))
            assert np.array_equal(keys, wide_keys[:, :c])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(projection_cases())
def test_ranked_tuples_equal_the_table_width_merge_cut(case):
    # at each width the rule picks, every row equals the first tuples of
    # the lexsorted merge of the stable rankings at the table width
    params, depth, proj, count = case
    count = max(count, 2)
    bits = slot_bits(params, depth)
    wide = list(lexsorted_first_tuples(stable_slot_rankings(params, proj, depth), count, bits))
    for width in rule_widths(count):
        got = fam.ranked_tuples(params, proj, depth, width, bits)
        assert len(got) == depth
        for keys, wide_keys in zip(got, wide):
            assert np.array_equal(keys, wide_keys[:, :width])


def screen_edges(params, margin, rng):
    """Values on every edge of the `unsettled` screen, each also 1 ulp
    either side: a cap threshold and threshold +- margin; for
    cross-polytope a top |value| of either sign, zero or random, and the
    values 2 * margin below it in |value|; plus zeros of either sign."""
    if params.kind == "spherical_cap":
        tau = params.threshold
        edges = [tau, tau - margin, tau + margin]
    else:
        top = [rng.uniform(0.1, 1.0), margin, 2.0 * margin, 0.0][rng.integers(4)]
        edges = [top, -top, top - 2.0 * margin, 2.0 * margin - top]
    edges = [x for e in edges for x in (e, np.nextafter(e, np.inf), np.nextafter(e, -np.inf))]
    return np.array([*edges, 0.0, -0.0])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.sampled_from(["spherical_cap", "cross_polytope"]),
    st.integers(1, 30),
    st.integers(0, 2**32 - 1),
)
def test_unsettled_matches_a_per_row_recount(kind, m, seed):
    # rows drawn from the screen's edges, with ties and zeros of either
    # sign, among random values below them; a quarter of the blocks are
    # random values only, which take the early return when no row is near
    params = FamilyParams(kind=kind, dim=6, cap_count=6)
    rng = np.random.default_rng(seed)
    margin = [0.0, 2.0**-20, 1e-3][rng.integers(3)]
    edges = screen_edges(params, margin, rng)
    scale = 1.0 if kind == "spherical_cap" else 0.5 * np.abs(edges).max()
    proj = rng.uniform(-scale, scale, (m, params.direction_count))
    if rng.random() < 0.75:
        placed = rng.random(proj.shape) < 0.4
        proj[placed] = rng.choice(edges, int(placed.sum()))

    def recount(row):
        if kind == "spherical_cap":
            tau = params.threshold
            return any(tau - margin <= v <= tau + margin for v in row)
        top = max(abs(v) for v in row)
        return sum(abs(v) >= top - 2.0 * margin for v in row) > 1

    got = fam.unsettled(params, proj, margin)
    assert got.dtype == np.intp
    assert got.tolist() == [i for i, row in enumerate(proj.tolist()) if recount(row)]
