import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlslsh.geometry import (
    UNIT_NORM_TOL,
    Dataset,
    UnitPoint,
    generate_planted_instance,
    map_query,
    normalize_dataset,
    range_scan,
    uniform_unit_vectors,
    unit_rows,
    unit_vectors_orthogonal_to,
)
from mlslsh.query import brute_force_range


def test_unit_point_validation():
    with pytest.raises(ValueError):
        UnitPoint(np.array([1.0, 1.0]), id=0)  # not unit norm
    with pytest.raises(ValueError):
        UnitPoint(np.array([1.0]), id=0)  # too few dimensions
    with pytest.raises(ValueError):
        UnitPoint(np.array([1.0, 0.0]), id=-1)
    # a NaN norm fails the unit-norm check instead of slipping past it
    with pytest.raises(ValueError, match="non-finite"):
        UnitPoint(np.array([np.nan, 0.0]))


def test_normalize_two_point_example():
    ds = normalize_dataset(np.array([[2.0, 0.0], [0.0, 2.0]]))
    assert np.allclose(ds.centroid, [1.0, 1.0])
    s = 1.0 / math.sqrt(2.0)
    assert np.allclose(ds.matrix[0], [s, -s])
    assert np.allclose(ds.matrix[1], [-s, s])
    assert ds.degenerate_ids == ()


def test_normalize_degenerate_point_is_pinned():
    # a point equal to the centroid has no direction; it gets a fixed axis
    ds = normalize_dataset(np.array([[5.0, 5.0]]))
    assert np.allclose(ds.centroid, [5.0, 5.0])
    assert np.allclose(ds.matrix[0], [1.0, 0.0])
    assert ds.degenerate_ids == (0,)


def test_normalize_rows_are_unit():
    rng = np.random.default_rng(17)
    raw = rng.normal(size=(50, 9)) * 3.0 + 1.5
    ds = normalize_dataset(raw)
    assert np.allclose(np.linalg.norm(ds.matrix, axis=1), 1.0, atol=1e-12)
    assert ds.size == 50 and ds.dim == 9
    # a list of rows is the same point set as the array of those rows
    listed = normalize_dataset([list(row) for row in raw])
    assert np.array_equal(listed.matrix, ds.matrix)
    assert np.array_equal(listed.centroid, ds.centroid)
    assert listed.degenerate_ids == ds.degenerate_ids


def test_map_query_matches_training_row():
    # mapping a training row as a query reproduces its indexed coordinates
    rng = np.random.default_rng(23)
    raw = rng.normal(size=(20, 5))
    ds = normalize_dataset(raw)
    for i in (0, 7, 19):
        q = map_query(ds, raw[i])
        assert q.dtype == np.float64 and q.shape == (5,)
        assert np.array_equal(q, ds.matrix[i])


def test_map_query_rejects_a_query_at_the_centroid():
    # a raw query within DEGENERATE_NORM of the centroid has no direction,
    # so it raises, naming its norm; the data row there keeps its pinned
    # mapping and its place among the degenerate ids
    raw = np.random.default_rng(4).normal(size=(12, 5))
    # the mean of the other rows is the mean of all of them
    raw[3] = np.delete(raw, 3, axis=0).mean(axis=0)
    ds = normalize_dataset(raw)
    assert ds.degenerate_ids == (3,)
    assert np.array_equal(ds.matrix[3], [1.0, 0.0, 0.0, 0.0, 0.0])
    for query in (ds.centroid, ds.centroid + 1e-14):
        with pytest.raises(ValueError, match=r"norm \S+ after centering"):
            map_query(ds, query)
    # just past DEGENERATE_NORM a query has a direction again
    past = ds.centroid.copy()
    past[1] += 1e-11
    assert np.array_equal(map_query(ds, past), [0.0, 1.0, 0.0, 0.0, 0.0])


def test_map_query_rejects_non_finite_input():
    ds = normalize_dataset(np.random.default_rng(2).normal(size=(10, 4)))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            map_query(ds, [bad, 1.0, 2.0, 3.0])


def test_normalize_rejects_bad_input():
    with pytest.raises(ValueError):
        normalize_dataset(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        normalize_dataset(np.empty((0, 4)))
    with pytest.raises(ValueError):
        normalize_dataset(np.array([[1.0], [2.0]]))  # one-dimensional points
    with pytest.raises(ValueError):
        normalize_dataset([[1.0, 2.0], [1.0, 2.0, 3.0]])  # ragged rows
    with pytest.raises(ValueError):
        normalize_dataset([])


def test_uniform_unit_vectors_are_unit():
    rng = np.random.default_rng(1)
    v = uniform_unit_vectors(rng, 100, 12)
    assert v.shape == (100, 12)
    assert np.allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-12)


def test_orthogonal_vectors_are_orthogonal_and_unit():
    rng = np.random.default_rng(2)
    anchors = uniform_unit_vectors(rng, 100, 12)
    u = unit_vectors_orthogonal_to(rng, anchors)
    assert np.allclose(np.linalg.norm(u, axis=1), 1.0, atol=1e-12)
    assert np.max(np.abs(np.einsum("ij,ij->i", anchors, u))) < 1e-9


def test_orthogonal_vectors_rescue_a_draw_parallel_to_its_anchor():
    # a draw that is a multiple of its anchor leaves nothing orthogonal to
    # normalise; the anchor's smallest axis, made orthogonal, stands in
    anchors = uniform_unit_vectors(np.random.default_rng(3), 4, 6)

    class Parallel:
        def standard_normal(self, shape):
            assert shape == anchors.shape
            return anchors * np.array([[2.0], [-1.0], [0.5], [3.0]])

    u = unit_vectors_orthogonal_to(Parallel(), anchors)
    assert np.allclose(np.linalg.norm(u, axis=1), 1.0, atol=1e-12)
    assert np.max(np.abs(np.einsum("ij,ij->i", anchors, u))) < 1e-12


def test_planted_instance_counts_and_truth():
    inst = generate_planted_instance(n=100, d=16, r=0.4, t=5, seed=7, num_queries=3)
    assert inst.dataset.size == 100 and inst.dataset.dim == 16
    assert np.allclose(inst.dataset.centroid, 0.0)
    assert len(inst.queries) == 3 and len(inst.ground_truth) == 3
    for q, gt in zip(inst.queries, inst.ground_truth):
        assert abs(np.linalg.norm(q.coords) - 1.0) < 1e-9
        assert len(gt) >= 5  # the planted points, plus any accidental members
        # ground truth is exactly the brute-force range result
        assert gt == frozenset(
            int(i) for i in range_scan(inst.dataset.matrix, q.coords, 0.4)[0]
        )


def test_planted_points_strictly_inside_radius():
    inst = generate_planted_instance(n=300, d=24, r=0.5, t=8, seed=13, num_queries=2)
    for q, gt in zip(inst.queries, inst.ground_truth):
        diffs = inst.dataset.matrix[sorted(gt)] - q.coords
        dists = np.linalg.norm(diffs, axis=1)
        assert np.all(dists <= 0.5)
        assert np.all(dists > 0.0)


def test_planted_instance_determinism():
    a = generate_planted_instance(n=80, d=8, r=0.3, t=4, seed=5)
    b = generate_planted_instance(n=80, d=8, r=0.3, t=4, seed=5)
    c = generate_planted_instance(n=80, d=8, r=0.3, t=4, seed=6)
    assert np.array_equal(a.dataset.matrix, b.dataset.matrix)
    assert a.ground_truth == b.ground_truth
    assert not np.array_equal(a.dataset.matrix, c.dataset.matrix)
    # seeds are taken modulo 2**63, as `derived_seed` takes them
    d = generate_planted_instance(n=80, d=8, r=0.3, t=4, seed=-1)
    e = generate_planted_instance(n=80, d=8, r=0.3, t=4, seed=2**63 - 1)
    assert np.array_equal(d.dataset.matrix, e.dataset.matrix)


def test_unplanted_far_query_has_empty_truth():
    # with no planting and high dimension, random points sit near sqrt(2) away
    inst = generate_planted_instance(n=50, d=64, r=0.3, t=0, seed=9)
    assert inst.ground_truth[0] == frozenset()


def test_planted_instance_validation():
    with pytest.raises(ValueError):
        generate_planted_instance(n=10, d=8, r=0.4, t=5, seed=0, num_queries=2)
    with pytest.raises(ValueError):
        generate_planted_instance(n=10, d=8, r=2.0, t=1, seed=0)
    with pytest.raises(ValueError):
        generate_planted_instance(n=10, d=1, r=0.4, t=1, seed=0)
    with pytest.raises(ValueError):
        generate_planted_instance(n=10, d=8, r=0.4, t=-1, seed=0)


def test_dataset_point_accessors():
    # points are the rows of the matrix; there is no per-point wrapper
    ds = normalize_dataset(np.array([[2.0, 0.0], [0.0, 2.0], [1.0, 3.0]]))
    assert ds.size == 3 and ds.dim == 2
    assert np.allclose(np.linalg.norm(ds.matrix, axis=1), 1.0, atol=1e-12)
    # centering on the mean (1, 5/3) keeps each row's direction from it
    expected = np.array([[1.0, -5.0 / 3.0], [-1.0, 1.0 / 3.0], [0.0, 4.0 / 3.0]])
    expected /= np.linalg.norm(expected, axis=1, keepdims=True)
    assert np.allclose(ds.matrix, expected, atol=1e-12)


def test_dataset_requires_unit_rows():
    with pytest.raises(ValueError):
        Dataset(matrix=np.array([[0.5, 0.5]]), centroid=np.zeros(2))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 30),
    d=st.integers(2, 10),
    pinned=st.integers(0, 3),
    stretched=st.integers(0, 4),
    on_a_row=st.booleans(),
    pick=st.integers(0, 10**6),
    ulps=st.sampled_from([-1, 0, 1]),
)
def test_range_scan_is_the_exact_range_predicate(
    seed, n, d, pinned, stretched, on_a_row, pick, ulps
):
    """range_scan keeps exactly the rows with sqrt(sum of squared differences)
    <= r, also at r equal to one row's distance and one ulp either side of
    it, and brute force reports the same ids; any faster filter must match
    this predicate."""
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n, d))
    raw[:pinned] = 0.0  # collapse to (1, 0, ..., 0), several rows at once
    rows, degenerate = unit_rows(raw)
    assert degenerate.tolist() == list(range(min(pinned, n)))
    # rows whose norm sits at the unit-norm tolerance, on either side of 1
    for i in range(min(stretched, n)):
        rows[i] *= 1.0 + (-1) ** i * UNIT_NORM_TOL * (1.0 - 1e-6)
    dataset = Dataset(rows, np.zeros(d))
    q = rows[pick % n] if on_a_row else unit_rows(rng.normal(size=(1, d)))[0][0]

    diff = rows - q
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    target = pick % n
    radius = float(dist[target])
    for _ in range(abs(ulps)):
        radius = float(np.nextafter(radius, ulps * np.inf))
    radius = min(max(radius, 0.0), 2.0)  # the range every query mode accepts
    expected = np.flatnonzero(dist <= radius)

    ids, distances = range_scan(rows, q, radius)
    assert np.array_equal(ids, expected)
    assert np.array_equal(distances, dist[expected])
    if radius == dist[target]:
        assert target in ids.tolist()
    elif radius < dist[target]:
        assert target not in ids.tolist()
    report = brute_force_range(dataset, q, radius)
    assert report.ids == tuple(expected.tolist())
    assert report.distances == tuple(dist[expected].tolist())


def test_dataset_rejects_a_matrix_that_is_not_n_by_d_and_a_centroid_of_another_dimension():
    rows = np.eye(3)
    for matrix in (rows[0], rows[None], rows[:, :1], np.empty((0, 3))):
        with pytest.raises(ValueError, match=r"expected an \(n, d\) matrix with n >= 1 and d >= 2"):
            Dataset(matrix, np.zeros(matrix.shape[-1]))
    with pytest.raises(ValueError, match=r"centroid has dimension \(2,\), points have 3"):
        Dataset(rows, np.zeros(2))


def test_map_query_rejects_a_vector_of_the_wrong_shape():
    dataset = normalize_dataset(np.random.default_rng(0).normal(size=(10, 4)))
    for raw in (np.ones(3), np.ones(5), np.ones((1, 4)), 1.0):
        with pytest.raises(ValueError, match="dataset dimension is 4"):
            map_query(dataset, raw)
