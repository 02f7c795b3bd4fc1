"""Unit-sphere points, datasets, and synthetic planted-neighbor instances."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

UNIT_NORM_TOL = 1e-6
DEGENERATE_NORM = 1e-12


@dataclass(frozen=True)
class UnitPoint:
    """A point of Euclidean norm 1, tagged with its position in a dataset."""

    coords: np.ndarray
    id: int = 0

    def __post_init__(self) -> None:
        coords = np.asarray(self.coords, dtype=np.float64)
        if coords.ndim != 1 or coords.size < 2:
            raise ValueError(
                f"expected a vector of dimension >= 2, got shape {coords.shape}"
            )
        norm = float(np.linalg.norm(coords))
        if abs(norm - 1.0) > UNIT_NORM_TOL:
            raise ValueError(f"coordinates have norm {norm:.9g}, not 1 within {UNIT_NORM_TOL}")
        if self.id < 0:
            raise ValueError(f"id must be non-negative, got {self.id}")
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return self.coords.size


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
        norms = np.linalg.norm(matrix, axis=1)
        bad = np.where(np.abs(norms - 1.0) > UNIT_NORM_TOL)[0]
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

    def __len__(self) -> int:
        return self.matrix.shape[0]


def distance(x: UnitPoint, y: UnitPoint) -> float:
    """Euclidean distance between two points of equal dimension."""
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    return float(np.linalg.norm(x.coords - y.coords))


def range_ids(matrix: np.ndarray, coords: np.ndarray, radius: float) -> np.ndarray:
    """Ids of rows within `radius` (inclusive) of `coords`, ascending."""
    diff = matrix - coords
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return np.where(dist <= radius)[0]


def _as_matrix(raw: Sequence[Sequence[float]] | np.ndarray) -> np.ndarray:
    if isinstance(raw, np.ndarray):
        arr = np.asarray(raw, dtype=np.float64)
    else:
        rows = [np.asarray(v, dtype=np.float64) for v in raw]
        if not rows:
            raise ValueError("no input vectors")
        shapes = {r.shape for r in rows}
        if len(shapes) != 1 or rows[0].ndim != 1:
            raise ValueError(f"ragged or non-vector input, row shapes {sorted(shapes)}")
        arr = np.stack(rows)
    if arr.ndim != 2:
        raise ValueError(f"expected an (n, d) array, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise ValueError("no input vectors")
    if arr.shape[1] < 2:
        raise ValueError(f"dimension must be >= 2, got {arr.shape[1]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("input contains non-finite values")
    return arr


def _center_and_project(vectors: np.ndarray, centroid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    centered = vectors - centroid
    norms = np.linalg.norm(centered, axis=1)
    degenerate = norms < DEGENERATE_NORM
    safe = np.where(degenerate, 1.0, norms)
    unit = centered / safe[:, None]
    if degenerate.any():
        unit[degenerate] = 0.0
        unit[degenerate, 0] = 1.0
    return unit, np.where(degenerate)[0]


def normalize_dataset(raw: Sequence[Sequence[float]] | np.ndarray) -> Dataset:
    """Center raw vectors on their mean and project each onto the unit sphere.

    Vectors that collapse to (near) zero after centering map to the canonical
    unit vector (1, 0, ..., 0) instead of raising; their row ids are reported
    in `Dataset.degenerate_ids` so callers can inspect them.
    """
    arr = _as_matrix(raw)
    centroid = arr.mean(axis=0)
    unit, degenerate = _center_and_project(arr, centroid)
    return Dataset(unit, centroid, degenerate_ids=tuple(int(i) for i in degenerate))


def map_query(dataset: Dataset, raw: Sequence[float] | np.ndarray, id: int = 0) -> UnitPoint:
    """Center a raw-space query with the dataset's centroid and project it to the sphere."""
    vec = np.asarray(raw, dtype=np.float64)
    if vec.ndim != 1 or vec.size != dataset.dim:
        raise ValueError(f"query has shape {vec.shape}, dataset dimension is {dataset.dim}")
    unit, _ = _center_and_project(vec[None, :], dataset.centroid)
    return UnitPoint(unit[0], id=id)


def uniform_unit_vectors(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Rows drawn uniformly from the unit sphere."""
    if count == 0:
        return np.empty((0, dim))
    g = rng.standard_normal((count, dim))
    norms = np.linalg.norm(g, axis=1)
    tiny = norms < DEGENERATE_NORM
    if tiny.any():  # vanishing Gaussian rows are a measure-zero fallback
        g[tiny] = 0.0
        g[tiny, 0] = 1.0
        norms = np.linalg.norm(g, axis=1)
    return g / norms[:, None]


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
    near points. Everything is deterministic for a fixed seed.
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

    rng = np.random.default_rng(seed)
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
        frozenset(int(j) for j in range_ids(matrix, qmat[i], r))
        for i in range(num_queries)
    )
    return PlantedInstance(dataset, queries, truth)
