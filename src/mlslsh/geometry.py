"""Unit-sphere points, datasets, synthetic planted-neighbor instances, and
the one exact range scan."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

UNIT_NORM_TOL = 1e-6
DEGENERATE_NORM = 1e-12
_SEED_MASK = (1 << 63) - 1


@dataclass(frozen=True)
class UnitPoint:
    """A planted query of Euclidean norm 1, tagged with its position in the
    instance; query functions take its `coords` row."""

    coords: np.ndarray
    id: int = 0

    def __post_init__(self) -> None:
        coords = query_row(self.coords, np.size(self.coords))
        if coords.size < 2:
            raise ValueError(f"expected a vector of dimension >= 2, got shape {coords.shape}")
        if self.id < 0:
            raise ValueError(f"id must be non-negative, got {self.id}")
        object.__setattr__(self, "coords", coords)


@dataclass(frozen=True)
class Dataset:
    """Unit-norm point rows plus the centering information used to map queries.

    `centroid` is the mean of the original vectors. Queries coming from the
    same raw space must be centered with it (see `map_query`) before touching
    any structure built on this dataset. Points whose centered norm fell
    below `DEGENERATE_NORM` were pinned to the canonical unit vector
    (1, 0, ..., 0) and are listed in `degenerate_ids`.
    """

    matrix: np.ndarray
    centroid: np.ndarray
    degenerate_ids: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        matrix = np.ascontiguousarray(np.asarray(self.matrix, dtype=np.float64))
        centroid = np.asarray(self.centroid, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] < 1 or matrix.shape[1] < 2:
            raise ValueError(
                f"expected an (n, d) matrix with n >= 1 and d >= 2, got shape {matrix.shape}"
            )
        if centroid.shape != (matrix.shape[1],):
            raise ValueError(
                f"centroid has dimension {centroid.shape}, points have {matrix.shape[1]}"
            )
        if not np.all(np.isfinite(centroid)):
            raise ValueError("centroid contains non-finite values")
        norms = np.linalg.norm(matrix, axis=1)
        bad = np.flatnonzero(~(np.abs(norms - 1.0) <= UNIT_NORM_TOL))  # NaN fails too
        if bad.size:
            raise ValueError(f"rows {bad[:5].tolist()} are not unit norm")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "centroid", centroid)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


def query_row(q: Sequence[float] | np.ndarray, dim: int) -> np.ndarray:
    """`q` as the row every query function takes, else ValueError: float64
    of shape (dim,), finite, of Euclidean norm 1 within `UNIT_NORM_TOL` like
    a `Dataset` row, as both hash families partition the unit sphere.
    `map_query` makes such a row of a raw-space vector."""
    row = np.asarray(q, dtype=np.float64)
    if row.shape != (dim,):
        raise ValueError(f"query has shape {row.shape}, expected ({dim},)")
    if not np.isfinite(row).all():
        raise ValueError("query contains non-finite values")
    norm = math.sqrt(row @ row)
    if not abs(norm - 1.0) <= UNIT_NORM_TOL:
        raise ValueError(f"query has norm {norm:.9g}, not 1 within {UNIT_NORM_TOL}")
    return row


def range_scan(rows: np.ndarray, q: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the rows within `radius` (inclusive) of the row `q`,
    ascending, and their Euclidean distances.

    This is the one exact range predicate: planted ground truth, the brute
    force scan and the index's final candidate check all call it, so a point
    at distance exactly `radius` is in or out for all three alike.
    """
    diff = rows - q
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    keep = np.flatnonzero(dist <= radius)
    return keep, dist[keep]


def _as_matrix(raw: Sequence[Sequence[float]] | np.ndarray) -> np.ndarray:
    # numpy rejects ragged rows with a ValueError of its own
    arr = np.asarray(raw, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected an (n, d) array, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise ValueError("no input vectors")
    if arr.shape[1] < 2:
        raise ValueError(f"dimension must be >= 2, got {arr.shape[1]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("input contains non-finite values")
    return arr


def unit_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows scaled to norm 1, and the ascending positions of those whose
    norm fell below `DEGENERATE_NORM`: they are pinned to (1, 0, ..., 0)."""
    norms = np.linalg.norm(rows, axis=1)
    degenerate = norms < DEGENERATE_NORM
    unit = rows / np.where(degenerate, 1.0, norms)[:, None]
    unit[degenerate] = 0.0
    unit[degenerate, 0] = 1.0
    return unit, np.flatnonzero(degenerate)


def normalize_dataset(raw: Sequence[Sequence[float]] | np.ndarray) -> Dataset:
    """Center raw vectors on their mean and project each onto the unit sphere.

    Vectors that collapse to (near) zero after centering map to the canonical
    unit vector (1, 0, ..., 0) instead of raising; their row ids are reported
    in `Dataset.degenerate_ids` so callers can inspect them.
    """
    arr = _as_matrix(raw)
    centroid = arr.mean(axis=0)
    unit, degenerate = unit_rows(arr - centroid)
    return Dataset(unit, centroid, degenerate_ids=tuple(int(i) for i in degenerate))


def map_query(dataset: Dataset, raw: Sequence[float] | np.ndarray) -> np.ndarray:
    """Center a raw-space query with the dataset's centroid and project it to
    the sphere; returns the unit float64 row every query function takes.

    A query within `DEGENERATE_NORM` of the centroid has no direction and
    raises ValueError, naming its norm. A data row there is pinned to
    (1, 0, ..., 0) instead, but a query pinned so would be answered with
    the neighbours of a point it never named."""
    vec = np.asarray(raw, dtype=np.float64)
    if vec.ndim != 1 or vec.size != dataset.dim:
        raise ValueError(f"query has shape {vec.shape}, dataset dimension is {dataset.dim}")
    if not np.all(np.isfinite(vec)):
        raise ValueError("query contains non-finite values")
    centered = vec[None, :] - dataset.centroid
    unit, degenerate = unit_rows(centered)
    if degenerate.size:
        raise ValueError(
            f"query has norm {np.linalg.norm(centered):.3g} after centering on the dataset's "
            f"centroid, below {DEGENERATE_NORM}: it has no direction to search"
        )
    return unit[0]


def uniform_unit_vectors(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Rows drawn uniformly from the unit sphere; a vanishing Gaussian row,
    a measure-zero event, is pinned like a degenerate data row."""
    return unit_rows(rng.standard_normal((count, dim)))[0]


def unit_vectors_orthogonal_to(rng: np.random.Generator, anchors: np.ndarray) -> np.ndarray:
    """For each anchor row (unit norm), a uniformly random unit vector orthogonal to it."""
    count, dim = anchors.shape
    g = rng.standard_normal((count, dim))
    proj = np.einsum("ij,ij->i", g, anchors)
    u = g - proj[:, None] * anchors
    norms = np.linalg.norm(u, axis=1)
    tiny = np.where(norms < DEGENERATE_NORM)[0]
    for i in tiny:
        # deterministic rescue: a basis vector can never be parallel to a unit
        # anchor in dimension >= 2 if we pick the axis where the anchor is smallest
        axis = int(np.argmin(np.abs(anchors[i])))
        e = np.zeros(dim)
        e[axis] = 1.0
        u[i] = e - anchors[i][axis] * anchors[i]
        norms[i] = np.linalg.norm(u[i])
    return u / norms[:, None]


class PlantedInstance(NamedTuple):
    dataset: Dataset
    queries: tuple[UnitPoint, ...]
    ground_truth: tuple[frozenset[int], ...]


def generate_planted_instance(
    n: int,
    d: int,
    r: float,
    t: int,
    seed: int,
    num_queries: int = 1,
) -> PlantedInstance:
    """Uniform sphere points plus, for each query, `t` points planted within `r`.

    Planted distances are drawn from r * U(0.05, 0.95), strictly inside the
    radius, so floating-point recomputation can never evict a planted point
    from the ground truth. The ground truth itself is recomputed by brute
    force over the assembled dataset and therefore also contains accidental
    near points. Everything is deterministic for a fixed seed, taken modulo
    2**63 as `families.derived_seed` takes its keys, so a negative seed is
    valid too.
    """
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    if t < 0:
        raise ValueError(f"planted count must be >= 0, got {t}")
    if num_queries < 1:
        raise ValueError(f"need at least one query, got {num_queries}")
    if n <= t * num_queries:
        raise ValueError(
            f"n={n} must exceed the {t * num_queries} planted points"
        )
    if not 0.0 < r < 2.0:
        raise ValueError(f"radius must lie in (0, 2), got {r}")

    rng = np.random.default_rng(seed & _SEED_MASK)
    qmat = uniform_unit_vectors(rng, num_queries, d)
    blocks = [uniform_unit_vectors(rng, n - t * num_queries, d)]
    for qi in range(num_queries):
        if t == 0:
            continue
        dist = r * rng.uniform(0.05, 0.95, size=t)
        theta = np.arccos(1.0 - dist * dist / 2.0)
        u = unit_vectors_orthogonal_to(rng, np.broadcast_to(qmat[qi], (t, d)))
        pts = np.cos(theta)[:, None] * qmat[qi] + np.sin(theta)[:, None] * u
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        blocks.append(pts)
    matrix = np.vstack(blocks)[rng.permutation(n)]

    dataset = Dataset(matrix, np.zeros(d))
    queries = tuple(UnitPoint(qmat[i], id=i) for i in range(num_queries))
    truth = tuple(
        frozenset(int(j) for j in range_scan(matrix, qmat[i], r)[0])
        for i in range(num_queries)
    )
    return PlantedInstance(dataset, queries, truth)
