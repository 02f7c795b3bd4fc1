"""Sphere-partitioning hash families and their ranked probing order.

Two families are provided. "spherical_cap" draws `cap_count` random
directions and assigns a point to the first cap whose direction clears a dot
product threshold, with a reserved overflow bucket for points that clear
none. "cross_polytope" applies a random rotation and assigns the nearest
signed coordinate axis, giving 2 * dim buckets.

A probe ranking orders every bucket of one hash function for a query, own
bucket first, as a (buckets, deficits) row pair. A code enumerator merges
the per-slot rankings of several hash functions into a best-first stream of
bucket-id tuples; that stream is what multi-probe querying walks.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Literal, Sequence

import numpy as np

FamilyKind = Literal["spherical_cap", "cross_polytope"]

_SEED_MASK = (1 << 63) - 1


def derived_rng(*keys: int) -> np.random.Generator:
    """Deterministic generator keyed by a tuple of integers."""
    return np.random.default_rng(np.random.SeedSequence([k & _SEED_MASK for k in keys]))


def derived_seed(*keys: int) -> int:
    """Collapse integer keys into one 63-bit seed, stable across runs."""
    ss = np.random.SeedSequence([k & _SEED_MASK for k in keys])
    return int(ss.generate_state(1, np.uint64)[0]) & _SEED_MASK


def default_cap_threshold(cap_count: int, dim: int) -> float:
    """Dot-product threshold putting roughly 1/cap_count of directions above it.

    Uses the Gaussian approximation to one coordinate of a uniform unit
    vector. The approximation only affects bucket balance; calibration
    measures the realized probabilities afterwards.
    """
    eta = NormalDist().inv_cdf(1.0 - 1.0 / cap_count) / math.sqrt(dim)
    return min(max(eta, 1e-3), 0.999)


@dataclass(frozen=True)
class FamilyParams:
    """Configuration of one hash family; all randomness is derived from seeds."""

    kind: FamilyKind
    dim: int
    cap_count: int = 64
    cap_threshold: float | None = None
    rotation_seed_base: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("spherical_cap", "cross_polytope"):
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.dim < 2:
            raise ValueError(f"dimension must be >= 2, got {self.dim}")
        if self.kind == "spherical_cap":
            if self.cap_count < 2:
                raise ValueError(f"cap_count must be >= 2, got {self.cap_count}")
            eta = self.threshold
            if not 0.0 < eta < 1.0:
                raise ValueError(f"cap threshold must lie in (0, 1), got {eta}")

    @property
    def threshold(self) -> float:
        if self.cap_threshold is not None:
            return self.cap_threshold
        return default_cap_threshold(self.cap_count, self.dim)

    @property
    def bucket_universe(self) -> int:
        """Number of distinct bucket ids, overflow included."""
        if self.kind == "spherical_cap":
            return self.cap_count + 1
        return 2 * self.dim

    @property
    def direction_count(self) -> int:
        """Rows of a hash function's `directions`: one per cap, or dim for a rotation."""
        return self.cap_count if self.kind == "spherical_cap" else self.dim

    @property
    def overflow_bucket(self) -> int | None:
        return self.cap_count if self.kind == "spherical_cap" else None

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "dim": self.dim,
            "cap_count": self.cap_count,
            "cap_threshold": self.cap_threshold,
            "rotation_seed_base": self.rotation_seed_base,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "FamilyParams":
        return cls(
            kind=doc["kind"],
            dim=int(doc["dim"]),
            cap_count=int(doc["cap_count"]),
            cap_threshold=doc["cap_threshold"],
            rotation_seed_base=int(doc["rotation_seed_base"]),
        )


@dataclass(frozen=True)
class HashFunction:
    """One sampled bucket assignment, fully determined by (params, seed).

    `directions` holds unit cap directions (cap_count, dim) for the cap
    family and an orthogonal rotation (dim, dim) for cross-polytope. In a
    built index it is a read-only view into the index's direction block.
    """

    params: FamilyParams
    seed: int
    directions: np.ndarray


def sample_hash_function(params: FamilyParams, seed: int) -> HashFunction:
    rng = derived_rng(params.rotation_seed_base, seed)
    if params.kind == "spherical_cap":
        g = rng.standard_normal((params.cap_count, params.dim))
        norms = np.linalg.norm(g, axis=1)
        tiny = norms < 1e-12
        if tiny.any():
            g[tiny] = 0.0
            g[tiny, 0] = 1.0
            norms = np.linalg.norm(g, axis=1)
        dirs = g / norms[:, None]
    else:
        a = rng.standard_normal((params.dim, params.dim))
        q, r = np.linalg.qr(a)
        sign = np.sign(np.diag(r))
        sign[sign == 0.0] = 1.0
        dirs = q * sign  # orthonormal, uniformly distributed rotation
    return HashFunction(params, seed, dirs)


def project(h: HashFunction, rows: np.ndarray) -> np.ndarray:
    """Dot products of unit-norm rows with the directions of `h`, shape (m, directions)."""
    if rows.ndim != 2 or rows.shape[1] != h.params.dim:
        raise ValueError(f"rows have shape {rows.shape}, expected (m, {h.params.dim})")
    return rows @ h.directions.T


def bucket_codes(params: FamilyParams, proj: np.ndarray) -> np.ndarray:
    """Bucket ids from projections, one per row, dtype int32.

    Cross-polytope takes the nearest signed axis, 2 * argmax|proj| plus one
    on the negative side: the first axis wins a tie and a zero (of either
    sign) counts as positive, exactly as an argmax over the interleaved
    scores (proj_0, -proj_0, proj_1, -proj_1, ...) would pick.
    """
    if params.kind == "spherical_cap":
        clearing = proj >= params.threshold
        first = clearing.argmax(axis=1)
        return np.where(clearing.any(axis=1), first, params.cap_count).astype(np.int32)
    axis = np.abs(proj).argmax(axis=1)
    negative = proj[np.arange(proj.shape[0]), axis] < 0.0
    return (2 * axis + negative).astype(np.int32)


def hash_batch(h: HashFunction, rows: np.ndarray) -> np.ndarray:
    """Bucket ids for unit-norm rows, shape (m,), dtype int32."""
    return bucket_codes(h.params, project(h, rows))


def rank_projections(
    params: FamilyParams, proj: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Probe orders, positional deficits and own buckets, one row per projection row.

    Returns (orders, deficits, own) with shapes (m, U), (m, U), (m,). Each
    row is ranked on its own, so the rows may be many points under one
    function (the calibration sampler) or one query under many functions
    (the query engine); single-query probing is the one-row case. For the
    cap family the overflow bucket scores one unit below the row's worst cap
    so it always ranks last.
    """
    m = proj.shape[0]
    own = bucket_codes(params, proj)
    if params.kind == "spherical_cap":
        scores = np.hstack([proj, proj.min(axis=1, keepdims=True) - 1.0])
    else:
        scores = np.empty((m, 2 * proj.shape[1]))
        scores[:, 0::2] = proj
        scores[:, 1::2] = -proj
    neg = -scores
    desc = -np.sort(neg, axis=1)
    deficits = desc[:, :1] - desc
    neg[np.arange(m), own] = -np.inf
    orders = np.argsort(neg, axis=1, kind="stable")
    return orders, deficits, own


def probe_sequence(
    h: HashFunction, q: np.ndarray, j_max: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Rank every bucket of `h` for the query row `q`: (buckets, deficits).

    buckets[0] is the query's own bucket; the rest follow by descending
    score, ties on the smaller id, overflow last. deficits[i] is the gap
    between the best score and the i-th best, assigned by position, so the
    own bucket costs 0 even when cap carving put the query in a cap without
    the top score. `j_max` truncates both; None keeps the whole universe.
    """
    vec = np.asarray(q, dtype=np.float64)
    if vec.ndim != 1 or vec.size != h.params.dim:
        raise ValueError(f"query has shape {vec.shape}, family dimension is {h.params.dim}")
    orders, deficits, _ = rank_projections(h.params, project(h, vec[None, :]))
    order, deficit = orders[0], deficits[0]
    if j_max is not None:
        if j_max < 1:
            raise ValueError(f"j_max must be >= 1, got {j_max}")
        order, deficit = order[:j_max], deficit[:j_max]
    return np.ascontiguousarray(order), np.ascontiguousarray(deficit)


def _as_list(row) -> list:
    return row if isinstance(row, list) else np.asarray(row).tolist()


class CodeEnumerator:
    """Best-first stream of bucket-id tuples across hash-function slots.

    Each slot is given as one (buckets, deficits) ranking, as `probe_sequence`
    returns it; the rows are kept as Python lists. The priority of a tuple is
    the sum of per-slot deficits of the chosen buckets; ties break on the
    lexicographically smaller tuple of bucket ids. The stream starts at the
    all-own-buckets tuple (priority 0) and never repeats a tuple. Emitting
    the first j tuples never requires a per-slot rank beyond j - 1, so
    truncated rankings stay exact.
    """

    def __init__(self, rankings: Sequence[tuple[Sequence[int], Sequence[float]]]):
        if not rankings:
            raise ValueError("at least one slot ranking is required")
        self._slots = [(slot, _as_list(b), _as_list(d)) for slot, (b, d) in enumerate(rankings)]
        base_code = tuple(b[0] for _, b, _ in self._slots)
        base_ranks = (0,) * len(self._slots)
        self._heap: list[tuple[float, tuple[int, ...], tuple[int, ...]]] = [
            (0.0, base_code, base_ranks)
        ]
        self._queued = {base_ranks}
        self.emitted: list[tuple[int, ...]] = []

    def _extend_to(self, count: int) -> None:
        while len(self.emitted) < count and self._heap:
            prio, code, ranks = heapq.heappop(self._heap)
            self.emitted.append(code)
            for slot, buckets, deficits in self._slots:
                nxt = ranks[slot] + 1
                if nxt >= len(buckets):
                    continue
                nranks = ranks[:slot] + (nxt,) + ranks[slot + 1 :]
                if nranks in self._queued:
                    continue
                self._queued.add(nranks)
                nprio = prio - deficits[nxt - 1] + deficits[nxt]
                ncode = code[:slot] + (buckets[nxt],) + code[slot + 1 :]
                heapq.heappush(self._heap, (nprio, ncode, nranks))

    def first(self, count: int) -> list[tuple[int, ...]]:
        """The first `count` tuples (fewer if the universe is exhausted)."""
        if count < 0:
            raise ValueError("count must be >= 0")
        self._extend_to(count)
        return self.emitted[:count]

    def position_of(self, code: tuple[int, ...], limit: int) -> int | None:
        """1-based position of `code` among the first `limit` tuples, else None."""
        i = 0
        while i < limit:
            if i >= len(self.emitted):
                self._extend_to(i + 1)
                if i >= len(self.emitted):
                    return None
            if self.emitted[i] == code:
                return i + 1
            i += 1
        return None
