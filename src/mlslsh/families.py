"""Sphere-partitioning hash families and their ranked probing order.

Two families are provided. "spherical_cap" draws `cap_count` random
directions and assigns a point to the first cap whose direction clears a dot
product threshold, with a reserved overflow bucket for points that clear
none. "cross_polytope" applies a random rotation and assigns the nearest
signed coordinate axis, giving 2 * dim buckets.

A probe sequence ranks every bucket of one hash function for a query, own
bucket first. A code enumerator merges the per-slot sequences of several
hash functions into a best-first stream of bucket-id tuples; that stream is
what multi-probe querying walks.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Literal, Sequence

import numpy as np

from .geometry import UnitPoint

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
    family and an orthogonal rotation (dim, dim) for cross-polytope.
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


def _scores_batch(h: HashFunction, rows: np.ndarray) -> np.ndarray:
    """Per-bucket affinity scores, shape (m, universe); higher means closer.

    For the cap family the overflow bucket scores one unit below each row's
    worst cap so it always ranks last among that row's buckets.
    """
    if rows.ndim != 2 or rows.shape[1] != h.params.dim:
        raise ValueError(f"rows have shape {rows.shape}, expected (m, {h.params.dim})")
    proj = rows @ h.directions.T
    if h.params.kind == "spherical_cap":
        overflow = proj.min(axis=1, keepdims=True) - 1.0
        return np.hstack([proj, overflow])
    out = np.empty((rows.shape[0], 2 * h.params.dim))
    out[:, 0::2] = proj
    out[:, 1::2] = -proj
    return out


def _codes_from_scores(h: HashFunction, scores: np.ndarray) -> np.ndarray:
    if h.params.kind == "spherical_cap":
        caps = scores[:, : h.params.cap_count]
        clearing = caps >= h.params.threshold
        first = clearing.argmax(axis=1)
        return np.where(clearing.any(axis=1), first, h.params.cap_count).astype(np.int32)
    return scores.argmax(axis=1).astype(np.int32)


def hash_batch(h: HashFunction, rows: np.ndarray) -> np.ndarray:
    """Bucket ids for unit-norm rows, shape (m,), dtype int32."""
    return _codes_from_scores(h, _scores_batch(h, rows))


@dataclass(frozen=True)
class ProbeSequence:
    """Buckets of one hash function ranked best-first for one query.

    buckets[0] is always the query's own bucket. The remaining buckets are
    ordered by descending score with ties on the smaller id, overflow last.
    `deficits` are the nonnegative priority increments used when sequences
    are combined across slots: the j-th deficit is the gap between the best
    score and the j-th best score, assigned positionally so that the query's
    own bucket costs 0 even when cap carving hashed the query into a cap
    that did not have the top score.
    """

    buckets: np.ndarray
    deficits: np.ndarray

    def __len__(self) -> int:
        return int(self.buckets.size)


def _rank_rows(h: HashFunction, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Probe orders, positional deficits, and own buckets for many rows at once.

    Returns (orders, deficits, own) with shapes (m, U), (m, U), (m,). Shared
    by single-query probing and the calibration sampler so both walk exactly
    the same ranking.
    """
    scores = _scores_batch(h, rows)
    own = _codes_from_scores(h, scores)
    key = scores.copy()
    key[np.arange(rows.shape[0]), own] = np.inf
    orders = np.argsort(-key, axis=1, kind="stable")
    desc = -np.sort(-scores, axis=1)
    deficits = desc[:, :1] - desc
    return orders, deficits, own


def probe_sequence(h: HashFunction, q: UnitPoint | np.ndarray, j_max: int | None = None) -> ProbeSequence:
    """Rank every bucket of `h` for query `q`, own bucket first.

    `j_max` truncates the sequence; None keeps the full bucket universe.
    """
    vec = q.coords if isinstance(q, UnitPoint) else np.asarray(q, dtype=np.float64)
    if vec.ndim != 1 or vec.size != h.params.dim:
        raise ValueError(f"query has shape {vec.shape}, family dimension is {h.params.dim}")
    orders, deficits, _ = _rank_rows(h, vec[None, :])
    order, deficit = orders[0], deficits[0]
    if j_max is not None:
        if j_max < 1:
            raise ValueError(f"j_max must be >= 1, got {j_max}")
        order, deficit = order[:j_max], deficit[:j_max]
    return ProbeSequence(np.ascontiguousarray(order), np.ascontiguousarray(deficit))


class CodeEnumerator:
    """Best-first stream of bucket-id tuples across hash-function slots.

    The priority of a tuple is the sum of per-slot deficits of the chosen
    buckets; ties break on the lexicographically smaller tuple of bucket
    ids. The stream starts at the all-own-buckets tuple (priority 0) and
    never repeats a tuple. Emitting the first j tuples never requires a
    per-slot rank beyond j - 1, so truncated slot sequences stay exact.
    """

    def __init__(self, sequences: Sequence[ProbeSequence]):
        if not sequences:
            raise ValueError("at least one slot sequence is required")
        self._seqs = list(sequences)
        base_code = tuple(int(s.buckets[0]) for s in self._seqs)
        base_ranks = (0,) * len(self._seqs)
        self._heap: list[tuple[float, tuple[int, ...], tuple[int, ...]]] = [
            (0.0, base_code, base_ranks)
        ]
        self._queued = {base_ranks}
        self.emitted: list[tuple[int, ...]] = []

    def _extend_to(self, count: int) -> None:
        while len(self.emitted) < count and self._heap:
            prio, code, ranks = heapq.heappop(self._heap)
            self.emitted.append(code)
            for slot, seq in enumerate(self._seqs):
                nxt = ranks[slot] + 1
                if nxt >= len(seq):
                    continue
                nranks = ranks[:slot] + (nxt,) + ranks[slot + 1 :]
                if nranks in self._queued:
                    continue
                self._queued.add(nranks)
                nprio = prio - float(seq.deficits[ranks[slot]]) + float(seq.deficits[nxt])
                ncode = code[:slot] + (int(seq.buckets[nxt]),) + code[slot + 1 :]
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
