import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlslsh.families import (
    HASH_BLOCK,
    KEY_BITS,
    CodeEnumerator,
    FamilyParams,
    HashFunction,
    _pack,
    default_cap_threshold,
    derived_rng,
    derived_seed,
    hash_batch,
    hash_keys,
    probe_sequence,
    sample_hash_function,
    slot_bits,
)


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def own_bucket(fn, q):
    return int(hash_batch(fn, q[None, :])[0])


def first_codes(fns, q, j):
    return CodeEnumerator([probe_sequence(fn, q) for fn in fns]).first(j)


def test_derived_seed_is_deterministic_and_distinct():
    assert derived_seed(3, 1, 4) == derived_seed(3, 1, 4)
    assert derived_seed(3, 1, 4) != derived_seed(3, 4, 1)
    a = derived_rng(5, 0).normal(size=4)
    b = derived_rng(5, 0).normal(size=4)
    assert np.array_equal(a, b)


def test_sampling_is_deterministic_per_seed():
    params = FamilyParams(kind="spherical_cap", dim=8, cap_count=16)
    f1 = sample_hash_function(params, 42)
    f2 = sample_hash_function(params, 42)
    f3 = sample_hash_function(params, 43)
    assert np.array_equal(f1.directions, f2.directions)
    assert not np.array_equal(f1.directions, f3.directions)


def test_cap_directions_are_unit_rows():
    params = FamilyParams(kind="spherical_cap", dim=10, cap_count=24)
    fn = sample_hash_function(params, 0)
    assert fn.directions.shape == (24, 10)
    assert np.allclose(np.linalg.norm(fn.directions, axis=1), 1.0, atol=1e-12)


def test_cross_polytope_rotation_is_orthogonal():
    params = FamilyParams(kind="cross_polytope", dim=12)
    fn = sample_hash_function(params, 7)
    r = fn.directions
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
    fn = sample_hash_function(params, 5)
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(200, 8))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    got = hash_batch(fn, pts)
    eta = params.threshold
    for i in range(200):
        scores = fn.directions @ pts[i]
        clearing = np.nonzero(scores >= eta)[0]
        expected = int(clearing[0]) if clearing.size else params.cap_count
        assert got[i] == expected


def test_cap_row_exactly_at_the_threshold_clears_it():
    # basis directions make the dot product exactly the row's coordinate
    params = FamilyParams(kind="spherical_cap", dim=4, cap_count=4)
    fn = HashFunction(params, 0, np.eye(4))
    eta = params.threshold
    rows = np.zeros((3, 4))
    rows[0, 2] = eta
    rows[1, 2] = np.nextafter(eta, 0.0)
    rows[2, 2] = -eta
    assert hash_batch(fn, rows).tolist() == [2, 4, 4]


def test_cap_hash_of_own_direction_is_that_cap():
    params = FamilyParams(kind="spherical_cap", dim=8, cap_count=16)
    fn = sample_hash_function(params, 5)
    # a direction scores 1.0 against itself, which clears any valid threshold,
    # and no earlier cap is that well aligned for these seeds
    assert own_bucket(fn, fn.directions[0]) == 0


def test_cross_polytope_identity_rotation_examples():
    params = FamilyParams(kind="cross_polytope", dim=4)
    fn = HashFunction(params=params, seed=0, directions=np.eye(4))
    cases = [
        ([0.0, 0.0, 0.0, -1.0], 7),  # negative last axis -> bucket 2*3+1
        ([1.0, 1.0, 0.0, 0.0], 0),  # tie between +x0 and +x1 -> smaller id
        ([-1.0, 1.0, 0.0, 0.0], 1),  # tie between -x0 and +x1
        ([0.0, 1.0, 0.0, 0.0], 2),
    ]
    for v, expected in cases:
        assert own_bucket(fn, unit(v)) == expected


def test_cross_polytope_hash_matches_direct_recount():
    params = FamilyParams(kind="cross_polytope", dim=8)
    fn = sample_hash_function(params, 11)
    rng = np.random.default_rng(12)
    pts = rng.normal(size=(200, 8))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    got = hash_batch(fn, pts)
    for i in range(200):
        proj = fn.directions @ pts[i]
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
        fn = sample_hash_function(params, seed)
        for directions in (fn.directions, np.eye(6)):
            proj = rows @ directions.T
            interleaved = np.empty((rows.shape[0], 12))
            interleaved[:, 0::2] = proj
            interleaved[:, 1::2] = -proj
            got = hash_batch(HashFunction(params, seed, directions), rows)
            assert np.array_equal(got, interleaved.argmax(axis=1))


def test_bucket_is_scale_invariant():
    # cross-polytope buckets depend only on direction; cap buckets compare
    # against a fixed threshold and are defined for unit rows only
    params = FamilyParams(kind="cross_polytope", dim=6)
    fn = sample_hash_function(params, 3)
    rng = np.random.default_rng(14)
    rows = rng.normal(size=(50, 6))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    assert np.array_equal(hash_batch(fn, rows), hash_batch(fn, 3.7 * rows))


def test_hash_batch_checks_dimension():
    params = FamilyParams(kind="cross_polytope", dim=4)
    fn = sample_hash_function(params, 0)
    for bad in (unit([1.0, 2.0, 3.0])[None, :], unit([1.0, 2.0, 3.0, 4.0])):
        for hashed in (
            lambda rows: hash_batch(fn, rows),
            lambda rows: hash_keys(params, fn.directions[None], rows),
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
            stack[s] = sample_hash_function(params, int(rng.integers(2**31))).directions
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
        np.stack([hash_batch(HashFunction(params, 0, d), rows) for d in stack], axis=1),
        slot_bits(params, len(stack)),
    )
    got = hash_keys(params, stack, rows)
    assert got.dtype == np.int64 and got.shape == (rows.shape[0],)
    assert np.array_equal(got, expected)


def _recount_order(fn, q):
    """Probe order computed independently: own bucket first, then remaining
    buckets by descending score with smaller id breaking ties."""
    params = fn.params
    if params.kind == "spherical_cap":
        qq = q / np.linalg.norm(q)
        scores = list(fn.directions @ qq)
        scores.append(min(scores) - 1.0)  # overflow ranks after every cap
    else:
        proj = fn.directions @ q
        scores = []
        for axis in range(params.dim):
            scores.extend((proj[axis], -proj[axis]))
    own = own_bucket(fn, q)
    rest = sorted(
        (b for b in range(len(scores)) if b != own),
        key=lambda b: (-scores[b], b),
    )
    return [own] + rest, scores


@pytest.mark.parametrize("kind,dim", [("spherical_cap", 8), ("cross_polytope", 8)])
def test_probe_sequence_matches_recount(kind, dim):
    params = FamilyParams(kind=kind, dim=dim, cap_count=16)
    fn = sample_hash_function(params, 21)
    rng = np.random.default_rng(22)
    for _ in range(30):
        q = unit(rng.normal(size=dim))
        buckets, deficits = probe_sequence(fn, q)
        expected, scores = _recount_order(fn, q)
        assert list(buckets) == expected
        assert len(set(buckets)) == len(buckets) == len(deficits)
        assert len(buckets) == params.bucket_universe
        # deficits: position zero free, then the drop from the best score,
        # taken over the descending score profile
        desc = sorted(scores, reverse=True)
        assert deficits[0] == 0.0
        assert np.all(np.diff(deficits) >= 0.0)
        assert np.allclose(deficits, [desc[0] - s for s in desc], atol=1e-12)


def test_probe_sequence_truncation_is_a_prefix():
    params = FamilyParams(kind="spherical_cap", dim=6, cap_count=20)
    fn = sample_hash_function(params, 2)
    q = unit(np.arange(1.0, 7.0))
    full_buckets, full_deficits = probe_sequence(fn, q)
    buckets, deficits = probe_sequence(fn, q, j_max=5)
    assert len(buckets) == len(deficits) == 5
    assert np.array_equal(buckets, full_buckets[:5])
    assert np.array_equal(deficits, full_deficits[:5])


def test_enumerator_first_code_is_own_buckets():
    params = FamilyParams(kind="cross_polytope", dim=8)
    fns = [sample_hash_function(params, s) for s in range(3)]
    q = unit(np.arange(1.0, 9.0))
    codes = first_codes(fns, q, 6)
    assert codes[0] == tuple(own_bucket(fn, q) for fn in fns)
    assert len(codes) == len(set(codes)) == 6


def test_enumerator_prefix_property():
    params = FamilyParams(kind="spherical_cap", dim=6, cap_count=12)
    fns = [sample_hash_function(params, s) for s in range(2)]
    q = unit(np.array([0.3, -1.2, 0.5, 0.9, -0.4, 0.1]))
    long = first_codes(fns, q, 20)
    for j in (1, 3, 7, 12):
        assert first_codes(fns, q, j) == long[:j]


def test_enumerator_priorities_are_optimal():
    # the emitted order must match brute force over the full code grid:
    # total deficit ascending, ties by the code tuple itself
    params = FamilyParams(kind="cross_polytope", dim=3)
    fns = [sample_hash_function(params, s) for s in (4, 5)]
    q = unit(np.array([0.8, -0.2, 0.55]))
    (b1s, d1s), (b2s, d2s) = [probe_sequence(fn, q) for fn in fns]
    grid = []
    for b1, d1 in zip(b1s, d1s):
        for b2, d2 in zip(b2s, d2s):
            grid.append((d1 + d2, (int(b1), int(b2))))
    grid.sort()
    expected = [code for _, code in grid]
    got = first_codes(fns, q, len(grid))
    assert got == expected


def test_enumerator_exhausts_small_universe():
    params = FamilyParams(kind="cross_polytope", dim=2)  # four buckets
    fns = [sample_hash_function(params, s) for s in (1, 2)]
    q = unit(np.array([0.6, 0.8]))
    codes = first_codes(fns, q, 50)
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
    # an oracle sharing no code with first_tuples: every tuple of the full
    # grid, sorted by its deficit sum and then the tuple itself
    grid = sorted(
        (sum(float(deficits[i]) for (_, deficits), i in zip(rankings, ranks)),
         tuple(int(buckets[i]) for (buckets, _), i in zip(rankings, ranks)))
        for ranks in itertools.product(*(range(len(b)) for b, _ in rankings))
    )
    expected = [code for _, code in grid]
    assert CodeEnumerator(rankings).first(len(expected)) == expected
    assert CodeEnumerator(rankings).first(len(expected) + 5) == expected
    # a shorter prefix makes the (i + 1)(r + 1) <= count cut bind
    count = data.draw(st.integers(0, len(expected)))
    assert CodeEnumerator(rankings).first(count) == expected[:count]


def test_enumerator_sums_deficits_left_to_right():
    # a two-cap ranking in d = 3: the overflow bucket scores one unit below
    # the lowest cap, so tuples that swap the two between slots tie exactly
    # under the canonical sum d0 + d1
    rankings = [
        ([2, 1, 0], [0.0, 0.8068813216366558, 1.8068813216366557]),
        ([1, 0, 2], [0.0, 0.7851832007803632, 1.785183200780363]),
    ]
    grid = sorted(
        (d0 + d1, (b0, b1))
        for b0, d0 in zip(*rankings[0])
        for b1, d1 in zip(*rankings[1])
    )
    assert CodeEnumerator(rankings).first(9) == [code for _, code in grid]


def test_enumerator_puts_the_own_tuple_first_under_tied_deficits():
    # the own bucket 5 ties with bucket 2 but has the larger id; the spine
    # lower bound needs the all-own tuple at position 0 anyway
    codes = CodeEnumerator([([5, 2], [0.0, 0.0])] * 2).first(4)
    assert codes == [(5, 5), (2, 2), (2, 5), (5, 2)]


def test_family_params_validation_and_json():
    with pytest.raises(ValueError):
        FamilyParams(kind="unknown", dim=4)
    with pytest.raises(ValueError):
        FamilyParams(kind="cross_polytope", dim=1)
    with pytest.raises(ValueError):
        FamilyParams(kind="spherical_cap", dim=4, cap_count=0)
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
