import math

import numpy as np
import pytest

from mlslsh.families import (
    CodeEnumerator,
    FamilyParams,
    HashFunction,
    default_cap_threshold,
    derived_rng,
    derived_seed,
    hash_batch,
    probe_sequence,
    sample_hash_function,
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
        expected = int(clearing[0]) if clearing.size else params.overflow_bucket
        assert got[i] == expected


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
    with pytest.raises(ValueError):
        hash_batch(fn, unit([1.0, 2.0, 3.0])[None, :])
    with pytest.raises(ValueError):
        hash_batch(fn, unit([1.0, 2.0, 3.0, 4.0]))


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
        seq = probe_sequence(fn, q)
        expected, scores = _recount_order(fn, q)
        assert list(seq.buckets) == expected
        assert len(set(seq.buckets)) == len(seq)
        assert len(seq) == params.bucket_universe
        # deficits: position zero free, then the drop from the best score,
        # taken over the descending score profile
        desc = sorted(scores, reverse=True)
        assert seq.deficits[0] == 0.0
        assert np.all(np.diff(seq.deficits) >= 0.0)
        assert np.allclose(seq.deficits, [desc[0] - s for s in desc], atol=1e-12)


def test_probe_sequence_truncation_is_a_prefix():
    params = FamilyParams(kind="spherical_cap", dim=6, cap_count=20)
    fn = sample_hash_function(params, 2)
    q = unit(np.arange(1.0, 7.0))
    full = probe_sequence(fn, q)
    short = probe_sequence(fn, q, j_max=5)
    assert len(short) == 5
    assert np.array_equal(short.buckets, full.buckets[:5])
    assert np.array_equal(short.deficits, full.deficits[:5])


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
    seqs = [probe_sequence(fn, q) for fn in fns]
    grid = []
    for i1, b1 in enumerate(seqs[0].buckets):
        for i2, b2 in enumerate(seqs[1].buckets):
            prio = seqs[0].deficits[i1] + seqs[1].deficits[i2]
            grid.append((prio, (int(b1), int(b2))))
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


def test_enumerator_position_of():
    params = FamilyParams(kind="cross_polytope", dim=2)
    fns = [sample_hash_function(params, s) for s in (1, 2)]
    q = unit(np.array([0.6, 0.8]))
    seqs = [probe_sequence(fn, q) for fn in fns]
    en = CodeEnumerator(seqs)
    codes = en.first(16)
    for i, code in enumerate(codes):
        assert en.position_of(code, 16) == i + 1
    assert en.position_of((99, 99), 16) is None
    assert en.position_of(codes[10], 5) is None  # outside the probe budget


def test_family_params_validation_and_json():
    with pytest.raises(ValueError):
        FamilyParams(kind="unknown", dim=4)
    with pytest.raises(ValueError):
        FamilyParams(kind="cross_polytope", dim=1)
    with pytest.raises(ValueError):
        FamilyParams(kind="spherical_cap", dim=4, cap_count=0)
    p = FamilyParams(kind="spherical_cap", dim=6, cap_count=10, cap_threshold=0.25)
    assert p.bucket_universe == 11 and p.overflow_bucket == 10
    q = FamilyParams.from_json_dict(p.to_json_dict())
    assert q == p
    cp = FamilyParams(kind="cross_polytope", dim=6)
    assert cp.bucket_universe == 12
    assert FamilyParams.from_json_dict(cp.to_json_dict()) == cp
