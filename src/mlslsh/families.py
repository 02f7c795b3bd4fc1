"""Sphere-partitioning hash families and their ranked probing order.

Two families are provided. "spherical_cap" draws `cap_count` random
directions and assigns a point to the first cap whose direction clears a dot
product threshold, with a reserved overflow bucket for points that clear
none. "cross_polytope" applies a random rotation and assigns the nearest
signed coordinate axis, giving 2 * dim buckets.

A repetition of K functions is one (K, rows, dim) direction stack, sampled
from K seeds by `sample_directions`. `hash_keys` hashes rows under a stack
to packed keys, and `slot_rankings` ranks every bucket of each of its K
slots for a projected query. The index and the probe-success table both
work on stacks this way, so calibration measures the walk queries take.

A probe ranking orders every bucket of one hash function for a query, own
bucket first, as a (buckets, deficits) row pair. `first_tuples` merges the
rankings of consecutive slots, level by level, into the best-first order of
bucket-id tuples that multi-probe querying walks and calibration measures. A
tuple's priority is the sum of its slot deficits taken left to right; the
all-own tuple comes first, and ties break on the packed key. A packed key
holds a tuple's bucket ids in one int64, slot 0 in the high bits and
ceil(log2 U) bits per slot, so keys order like the tuples and at most
KEY_BITS = 63 bits of slots fit. `_pack` is the one encoder and `_unpack`
its inverse; the level-k prefix of a key of K slots is the key shifted
right by bits * (K - k).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from statistics import NormalDist
from typing import Iterator, Literal, Sequence

import numpy as np

from .geometry import uniform_unit_vectors

FamilyKind = Literal["spherical_cap", "cross_polytope"]

_SEED_MASK = (1 << 63) - 1
KEY_BITS = 63
# rows per block of `hash_keys`. At n = 10^4, d = 32, cross-polytope hashed
# fastest in blocks of 256 rows among 128 to 1024, and 64 caps were within
# run-to-run noise of their fastest; larger blocks leave the cache.
HASH_BLOCK = 256


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
    """Configuration of one hash family; all randomness is derived from seeds.
    Its JSON form keeps two fixed fields, `cap_threshold` null (the default
    threshold) and `rotation_seed_base` 0, and reads no other value of them."""

    kind: FamilyKind
    dim: int
    cap_count: int = 64

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

    def to_json_dict(self) -> dict:
        return {**asdict(self), "cap_threshold": None, "rotation_seed_base": 0}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "FamilyParams":
        fixed = (doc["cap_threshold"], doc["rotation_seed_base"])
        if fixed != (None, 0):
            raise ValueError(f"cap_threshold, rotation_seed_base = {fixed}; only (null, 0) is read")
        return cls(kind=doc["kind"], dim=int(doc["dim"]), cap_count=int(doc["cap_count"]))


@dataclass(frozen=True)
class HashFunction:
    """One sampled bucket assignment, fully determined by (params, seed).

    `directions` holds unit cap directions (cap_count, dim) for the cap
    family and an orthogonal rotation (dim, dim) for cross-polytope.
    """

    params: FamilyParams
    seed: int
    directions: np.ndarray


def sample_directions(params: FamilyParams, seeds) -> np.ndarray:
    """The read-only (len(seeds), rows, dim) direction stack of the functions
    with these seeds, one row block per seed in order."""
    stack = np.empty((len(seeds), params.direction_count, params.dim))
    for i, seed in enumerate(seeds):
        rng = derived_rng(0, seed)  # 0: the fixed seed base saved files were made with
        if params.kind == "spherical_cap":
            stack[i] = uniform_unit_vectors(rng, params.cap_count, params.dim)
        else:
            q, r = np.linalg.qr(rng.standard_normal((params.dim, params.dim)))
            sign = np.sign(np.diag(r))
            sign[sign == 0.0] = 1.0
            stack[i] = q * sign  # orthonormal, uniformly distributed rotation
    stack.flags.writeable = False
    return stack


def sample_hash_function(params: FamilyParams, seed: int) -> HashFunction:
    return HashFunction(params, seed, sample_directions(params, [seed])[0])


def _check_rows(params: FamilyParams, rows: np.ndarray) -> None:
    if rows.ndim != 2 or rows.shape[1] != params.dim:
        raise ValueError(f"rows have shape {rows.shape}, expected (m, {params.dim})")


def project(h: HashFunction, rows: np.ndarray) -> np.ndarray:
    """Dot products of unit-norm rows with the directions of `h`, shape (m, directions)."""
    _check_rows(h.params, rows)
    return rows @ h.directions.T


def bucket_codes(params: FamilyParams, proj: np.ndarray) -> np.ndarray:
    """Bucket ids from projections, one per row, dtype int32.

    The cap family takes the first cap whose projection reaches the
    threshold, and the overflow id cap_count when none does. Cross-polytope
    takes the nearest signed axis, 2 * argmax|proj| plus one on the negative
    side: the first axis wins a tie and a zero (of either sign) counts as
    positive, exactly as an argmax over the interleaved scores (proj_0,
    -proj_0, proj_1, -proj_1, ...) would pick.
    """
    m = proj.shape[0]
    if params.kind == "spherical_cap":
        # the first clearing cap, or the always-clearing overflow column
        clearing = np.empty((m, params.cap_count + 1), dtype=bool)
        np.greater_equal(proj, params.threshold, out=clearing[:, :-1])
        clearing[:, -1] = True
        return clearing.argmax(axis=1).astype(np.int32)
    axis = np.abs(proj).argmax(axis=1)
    negative = proj.reshape(-1)[axis + proj.shape[1] * np.arange(m)] < 0.0
    return (2 * axis + negative).astype(np.int32)


def hash_batch(h: HashFunction, rows: np.ndarray) -> np.ndarray:
    """Bucket ids for unit-norm rows, shape (m,), dtype int32."""
    return bucket_codes(h.params, project(h, rows))


def hash_keys(params: FamilyParams, directions: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Packed int64 keys of unit-norm rows under the K functions of one
    repetition, whose directions are stacked in the (K, directions, dim)
    array `directions`; key i equals `_pack` of the K `hash_batch` codes of
    row i.

    The rows are hashed HASH_BLOCK at a time: one matmul projects a block on
    all K functions, one `bucket_codes` call reads the block's K codes per
    row, and one `_pack` call packs them. So the temporaries hold
    HASH_BLOCK * K * U floats for a family of U buckets, however many rows
    there are, and stay in cache.
    """
    _check_rows(params, rows)
    depth, width = directions.shape[:2]
    bits = slot_bits(params, depth)
    flat = directions.reshape(depth * width, params.dim).T
    keys = np.empty(rows.shape[0], dtype=np.int64)
    for a in range(0, rows.shape[0], HASH_BLOCK):
        proj = rows[a : a + HASH_BLOCK] @ flat
        codes = bucket_codes(params, proj.reshape(-1, width)).reshape(-1, depth)
        keys[a : a + HASH_BLOCK] = _pack(codes, bits)
    return keys


def slot_rankings(
    params: FamilyParams, proj: np.ndarray, depth: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Probe orders and positional deficits of an (m * depth, directions)
    projection whose row i * depth + s projects row i on slot s of a
    direction stack: one (buckets, deficits) pair of (m, U) arrays per slot,
    as `first_tuples` reads them. m is the calibration's query points, the
    index's repetitions, or one query under one function.

    Each row is ranked on its own. For the cap family the overflow bucket
    scores one unit below the row's worst cap so it always ranks last.
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
    return [(orders[s::depth], deficits[s::depth]) for s in range(depth)]


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
    ((orders, deficits),) = slot_rankings(h.params, project(h, vec[None, :]), 1)
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


def _shifts(bits: int, depth: int) -> np.ndarray:
    """Key bit offset of slots 0..depth-1, which is also s for levels 1..depth."""
    return bits * np.arange(depth - 1, -1, -1, dtype=np.int64)


def _pack(codes: np.ndarray, bits: int) -> np.ndarray:
    """int64 keys of (..., depth) slot codes, slot 0 in the high bits, each
    code below 2**bits; the inverse of `_unpack`."""
    return (codes.astype(np.int64) << _shifts(bits, codes.shape[-1])).sum(axis=-1)


def _prefixes(keys: np.ndarray, bits: int, depth: int) -> np.ndarray:
    """The (..., depth) level 1..depth prefix keys of keys of `depth` slots:
    level k keeps slots 0..k - 1, the key shifted right by bits * (depth - k)."""
    return keys[..., None] >> _shifts(bits, depth)


def _unpack(keys: np.ndarray, bits: int, depth: int) -> np.ndarray:
    """The inverse of `_pack`: the (..., depth) int64 slot codes of keys of
    `depth` slots, slot 0 first."""
    return _prefixes(keys, bits, depth) & ((1 << bits) - 1)


def first_tuples(slots, count: int, bits: int) -> Iterator[np.ndarray]:
    """The first `count` bucket-id tuples of every level, best first, as packed keys.

    `slots` holds one (buckets, deficits) pair of (m, w) arrays per slot, row
    i ranking the buckets of that slot's function for query i; w may be the
    whole universe. Level l yields an (m, min(count, tuples)) int64 array of
    l-slot keys and is computed only when asked for. It extends the first
    `count` tuples of level l - 1 by one bucket of slot l, and sorts the
    candidates by priority (the prefix priority plus the bucket's deficit),
    puts the all-own tuple first among equals and breaks the other ties on
    the key. The tuple at position i takes the bucket of rank r only if
    (i + 1)(r + 1) <= count: any other pair is dominated by the
    (i + 1)(r + 1) - 1 >= count pairs at positions <= i and ranks <= r, none
    of higher priority. So the merge cuts every ranking to its first `count`
    columns itself, and callers pass rankings uncut.
    """
    m = len(slots[0][0])
    keys, prio = np.zeros((m, 1), dtype=np.int64), np.zeros((m, 1))  # level 0: the empty tuple
    for buckets, deficits in slots:
        ranks = np.arange(1, min(count, buckets.shape[1]) + 1)
        i, r = np.nonzero(np.outer(np.arange(1, keys.shape[1] + 1), ranks) <= count)
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
        *_, keys = first_tuples(self._slots, count, self._bits)
        return [tuple(codes) for codes in _unpack(keys[0], self._bits, len(self._slots)).tolist()]
