"""Sphere-partitioning hash families and their ranked probing order.

Two families are provided. "spherical_cap" draws `cap_count` random
directions and assigns a point to the first cap whose direction clears a dot
product threshold, with a reserved overflow bucket for points that clear
none. "cross_polytope" applies a random rotation and assigns the nearest
signed coordinate axis, giving 2 * dim buckets.

A probe ranking orders every bucket of one hash function for a query, own
bucket first, as a (buckets, deficits) row pair. `first_tuples` merges the
rankings of consecutive slots, level by level, into the best-first order of
bucket-id tuples that multi-probe querying walks and calibration measures. A
tuple's priority is the sum of its slot deficits taken left to right; the
all-own tuple comes first, and ties break on the packed key. A packed key
holds a tuple's bucket ids in one int64, slot 0 in the high bits and
ceil(log2 U) bits per slot, so keys order like the tuples and at most
KEY_BITS = 63 bits of slots fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Iterator, Literal, Sequence

import numpy as np

FamilyKind = Literal["spherical_cap", "cross_polytope"]

_SEED_MASK = (1 << 63) - 1
KEY_BITS = 63


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


def slot_bits(family: FamilyParams, depth: int) -> int:
    """Key bits per slot for `depth` slots of `family`; ValueError past KEY_BITS."""
    universe = family.bucket_universe
    bits = (universe - 1).bit_length()
    if depth * bits > KEY_BITS:
        raise ValueError(
            f"K={depth} levels of a family with U={universe} buckets need "
            f"{depth} * {bits} = {depth * bits} key bits, more than the {KEY_BITS} "
            "a packed key holds; use fewer levels or a family with fewer buckets"
        )
    return bits


def _pack(slots, bits: int) -> np.ndarray:
    """int64 keys of one code array per slot, slot 0 first, each code below 2**bits."""
    keys = np.int64(0)
    for codes in slots:
        keys = keys << bits | codes.astype(np.int64)
    return keys


def first_tuples(slots, count: int, bits: int) -> Iterator[np.ndarray]:
    """The first `count` bucket-id tuples of every level, best first, as packed keys.

    `slots` holds one (buckets, deficits) pair of (m, w) arrays per slot, row
    i ranking the buckets of that slot's function for query i. Level l
    yields an (m, min(count, tuples)) int64 array of l-slot keys and is
    computed only when asked for. It extends the first `count` tuples of
    level l - 1 by one bucket of slot l, and sorts the candidates by
    priority (the prefix priority plus the bucket's deficit), puts the
    all-own tuple first among equals and breaks the other ties on the key.
    The tuple at position i takes the
    bucket of rank r only if (i + 1)(r + 1) <= count: any other pair is
    dominated by the (i + 1)(r + 1) - 1 >= count pairs at positions <= i
    and ranks <= r, none of higher priority. Rankings cut to `count`
    columns therefore lose nothing.
    """
    m = len(slots[0][0])
    keys, prio = np.zeros((m, 1), dtype=np.int64), np.zeros((m, 1))  # level 0: the empty tuple
    for buckets, deficits in slots:
        i, r = np.nonzero(
            np.outer(np.arange(1, keys.shape[1] + 1), np.arange(1, buckets.shape[1] + 1)) <= count
        )
        cand_keys = keys[:, i] << bits | buckets[:, r].astype(np.int64)
        cand_prio = prio[:, i] + deficits[:, r]
        # the pair (0, 0) is the all-own tuple
        own_last = np.broadcast_to(i + r > 0, cand_keys.shape)
        order = np.lexsort((cand_keys, own_last, cand_prio))[:, :count]
        keys = np.take_along_axis(cand_keys, order, axis=1)
        prio = np.take_along_axis(cand_prio, order, axis=1)
        yield keys


class CodeEnumerator:
    """Best-first stream of bucket-id tuples across hash-function slots, for
    one query: `first_tuples` on one row per slot.

    Each slot is given as one (buckets, deficits) ranking, as `probe_sequence`
    returns it, own bucket first.
    """

    def __init__(self, rankings: Sequence[tuple[Sequence[int], Sequence[float]]]):
        if not rankings:
            raise ValueError("at least one slot ranking is required")
        self._slots = [
            (np.asarray(b, dtype=np.int64)[None, :], np.asarray(d, dtype=np.float64)[None, :])
            for b, d in rankings
        ]
        self._bits = max(1, max(int(b.max()) for b, _ in self._slots).bit_length())
        if self._bits * len(self._slots) > KEY_BITS:
            raise ValueError(f"{len(self._slots)} slots of {self._bits} bits pass {KEY_BITS} key bits")

    def first(self, count: int) -> list[tuple[int, ...]]:
        """The first `count` tuples (fewer if the universe is exhausted)."""
        if count < 0:
            raise ValueError("count must be >= 0")
        depth, mask = len(self._slots), (1 << self._bits) - 1
        *_, keys = first_tuples(self._slots, count, self._bits)
        shifts = range(self._bits * (depth - 1), -1, -self._bits)
        return [tuple(key >> s & mask for s in shifts) for key in keys[0].tolist()]
