"""Sphere-partitioning hash families and their ranked probing order.

Two families are provided. "spherical_cap" draws `cap_count` random
directions and assigns a point to the first cap whose direction clears a dot
product threshold, with a reserved overflow bucket for points that clear
none. "cross_polytope" applies a random rotation and assigns the nearest
signed coordinate axis, giving 2 * dim buckets.

A repetition of K functions is one (K, rows, dim) direction stack, sampled
from K seeds by `sample_directions`. `hash_keys` hashes rows under a stack
to packed keys, and `slot_rankings`, the one ranker, ranks the buckets of
each of its K slots for a projected query, best first, as far as a merge
reads. The index and the probe-success table both work on stacks this way,
so calibration measures the walk queries take. One function is its
(rows, dim) slice of a stack: `hash_batch` hashes under one slice, for the
collision estimate and as a per-function reference, and `probe_sequence`
ranks every bucket of one slice.

A probe ranking orders the buckets of one hash function for a query, own
bucket first, as a (buckets, deficits) row pair. `first_tuples` merges the
rankings of consecutive slots, level by level, into the best-first order of
bucket-id tuples that multi-probe querying walks and calibration measures. A
tuple's priority is the sum of its slot deficits taken left to right; ties
break on the place of the tuple's prefix in the level before, then on the
rank of its last bucket, so the all-own tuple comes first and the first c
tuples of the merge at any count C >= c are the merge at c. A query needs
only the first few tuples of that order, and `ranked_tuples` ranks and
merges only that far. A packed key holds a tuple's bucket ids in one
int64, slot 0 in the high bits and ceil(log2 U) bits per slot, so keys
order like the tuples and at most KEY_BITS = 63 bits of slots fit. `_pack`
is the one encoder and `_unpack` its inverse; the level-k prefix of a key
of K slots is the key shifted right by bits * (K - k).
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from statistics import NormalDist
from typing import Iterator, Literal, Sequence

import numpy as np

from .geometry import _SEED_MASK, checked_int, query_row, uniform_unit_vectors

FamilyKind = Literal["spherical_cap", "cross_polytope"]

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


@functools.lru_cache(maxsize=64)
def default_cap_threshold(cap_count: int, dim: int) -> float:
    """Dot-product threshold putting roughly 1/cap_count of directions above it.

    Uses the Gaussian approximation to one coordinate of a uniform unit
    vector. The approximation only affects bucket balance; calibration
    measures the realized probabilities afterwards. A query codes under it
    a few times, so the value is kept per (cap_count, dim) instead of
    inverting the normal CDF on every call.
    """
    eta = NormalDist().inv_cdf(1.0 - 1.0 / cap_count) / math.sqrt(dim)
    return min(max(eta, 1e-3), 0.999)


@dataclass(frozen=True)
class FamilyParams:
    """Configuration of one hash family; all randomness is derived from seeds.
    `dim` and `cap_count` pass `checked_int`: dim >= 2, and cap_count >= 2
    for spherical caps, any integer for cross-polytope (which reads no caps).
    Its JSON form keeps two fixed fields, `cap_threshold` null (the default
    threshold) and `rotation_seed_base` 0, and reads no other value of them."""

    kind: FamilyKind
    dim: int
    cap_count: int = 64

    def __post_init__(self) -> None:
        if self.kind not in ("spherical_cap", "cross_polytope"):
            raise ValueError(f"unknown family kind {self.kind!r}")
        object.__setattr__(self, "dim", checked_int("dim", self.dim, 2))
        least = 2 if self.kind == "spherical_cap" else None
        object.__setattr__(self, "cap_count", checked_int("cap_count", self.cap_count, least))

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
        """Rows of one function in a direction stack: one per cap, or dim for a rotation."""
        return self.cap_count if self.kind == "spherical_cap" else self.dim

    def to_json_dict(self) -> dict:
        return {**asdict(self), "cap_threshold": None, "rotation_seed_base": 0}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "FamilyParams":
        fixed = (doc["cap_threshold"], doc["rotation_seed_base"])
        if fixed != (None, 0):
            raise ValueError(f"cap_threshold, rotation_seed_base = {fixed}; only (null, 0) is read")
        return cls(kind=doc["kind"], dim=doc["dim"], cap_count=doc["cap_count"])


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


def _check_rows(params: FamilyParams, rows: np.ndarray) -> None:
    if rows.ndim != 2 or rows.shape[1] != params.dim:
        raise ValueError(f"rows have shape {rows.shape}, expected (m, {params.dim})")


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


def unsettled(params: FamilyParams, proj: np.ndarray, margin: float) -> np.ndarray:
    """The rows of `proj`, ascending, that may code differently from a
    product within `margin` of each entry. A cap row is unsettled when a
    cap's projection lies within `margin` of the threshold. A cross-polytope
    row is unsettled when a second |value| lies within 2 * margin of the top
    one; past that gap the top |value| exceeds 2 * margin, so the nearer
    product keeps both its axis and its sign, and is not zero. Every other
    row codes as that product does (see `index.screen_margin`). A row is
    rarely unsettled, so one test over the whole block comes first."""
    if params.kind == "spherical_cap":
        threshold = params.threshold
        near = (proj >= threshold - margin) & (proj <= threshold + margin)
        if not near.any():
            return np.empty(0, dtype=np.intp)
        return np.flatnonzero(near.any(axis=1))
    scores = np.abs(proj)
    # a row's top by its argmax and one flat take: with `max(axis=1)` the
    # call took 1.28 times as long on rows of 32 (numpy 2.4)
    top = scores.reshape(-1)[scores.argmax(axis=1) + np.arange(0, scores.size, scores.shape[1])]
    near = scores >= (top - 2.0 * margin)[:, None]
    # each row counts its top
    if np.count_nonzero(near) == len(proj):
        return np.empty(0, dtype=np.intp)
    return np.flatnonzero(np.count_nonzero(near, axis=1) > 1)


def hash_batch(params: FamilyParams, directions: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Bucket ids for unit-norm rows under the one function whose
    (directions, dim) slice of a stack is `directions`, shape (m,), dtype
    int32. It projects on that function alone, so it is the independent
    reference `hash_keys` is checked against."""
    _check_rows(params, rows)
    return bucket_codes(params, rows @ directions.T)


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
    params: FamilyParams, proj: np.ndarray, depth: int, width: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Probe orders and positional deficits of an (m * depth, directions)
    projection whose row i * depth + s projects row i on slot s of a
    direction stack, ranked as far as a merge at count `width` w reads: one
    (buckets, deficits) pair of (m, min(w, U)) arrays per slot, as
    `first_tuples` reads them. m is the calibration's query points, the
    index's repetitions, or one query under one function.

    Each row is ranked on its own. The own bucket is taken first, then w
    `argmax` passes take the other buckets best first, each pass the first
    maximum, so the smaller id wins a tie; a pass past the universe takes a
    spent bucket at -inf, which the cut drops. The top w scores are the own
    score merged into the w others, which `maximum` and `minimum` place
    without a sort. A deficit is the gap from the top score to the score at
    its position, taken from a top of +0.0 when the top is a zero, so no
    deficit is -0.0.

    The cap family's overflow bucket scores one unit below the row's worst
    cap, so it ranks last. The passes score it the lowest finite float,
    below every cap and above a spent bucket, and only a ranking that
    reaches the overflow's deficit, min(w, U) = U, gives it its score, one
    below the worst cap among the scores the passes took.
    """
    m, universe = proj.shape[0], params.bucket_universe
    width = min(width, universe)  # a wider ranking returns no more columns
    scores = np.empty((m, universe))
    if params.kind == "spherical_cap":
        scores[:, :-1] = proj
        scores[:, -1] = np.finfo(np.float64).min
    else:
        scores[:, 0::2] = proj
        scores[:, 1::2] = -proj
    flat = scores.reshape(-1)
    start = np.arange(0, flat.size, universe)
    # row t holds the flat place and the score of the bucket taken t-th
    at, taken = np.empty((width + 1, m), dtype=np.intp), np.empty((width + 1, m))
    for t in range(width + 1):
        best = scores.argmax(axis=1) if t else bucket_codes(params, proj)
        np.add(best, start, out=at[t])
        flat.take(at[t], out=taken[t])
        flat[at[t]] = -np.inf
    orders = (at[:width] - start).T
    # the own score x into the others v, best first: place c > 0 holds
    # max(min(x, v_c), v_c+1), the larger of x and v_c+1 unless x passes v_c
    own, others = taken[0], taken[1:]
    desc = np.empty((width, m))
    np.maximum(own, others[0], out=desc[0])
    np.maximum(np.minimum(own, others[:-1]), others[1:], out=desc[1:])
    if params.kind == "spherical_cap" and width == universe:
        desc[-1] = desc[-2] - 1.0  # the overflow, below the worst cap
    desc[0] += 0.0  # x - y is -0.0 only for x = -0.0 and y = +0.0
    deficits = (desc[:1] - desc).T
    return [(orders[s::depth], deficits[s::depth]) for s in range(depth)]


def probe_sequence(
    params: FamilyParams, directions: np.ndarray, q: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rank every bucket of the one function whose (directions, dim) slice
    of a stack is `directions` for the query row `q` (a `geometry.query_row`,
    else ValueError): (buckets, deficits), the one row of `slot_rankings`
    for one slot.

    buckets[0] is the query's own bucket; the rest follow by descending
    score, ties on the smaller id, overflow last. deficits[i] is the gap
    between the best score and the i-th best, assigned by position, so the
    own bucket costs 0 even when cap carving put the query in a cap without
    the top score; a zero deficit is +0.0. It ranks to the width of the
    whole universe.
    """
    vec = query_row(q, params.dim)[None, :]
    ((orders, deficits),) = slot_rankings(params, vec @ directions.T, 1, params.bucket_universe)
    return np.ascontiguousarray(orders[0]), np.ascontiguousarray(deficits[0])


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


@functools.lru_cache(maxsize=256)
def _plan(kept: int, ranks: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The candidates of a merge level at `count` from `kept` tuples of the
    level before and rankings of `ranks` buckets, as positions i and ranks
    r with (i + 1)(r + 1) <= count, in (i, r) order. The arrays are
    read-only, as every merge of the shape shares them."""
    plan = np.nonzero(np.outer(np.arange(1, kept + 1), np.arange(1, ranks + 1)) <= count)
    for part in plan:
        part.flags.writeable = False
    return plan


def first_tuples(slots, count: int, bits: int) -> Iterator[np.ndarray]:
    """The first `count` bucket-id tuples of every level, best first, as packed keys.

    `slots` holds one (buckets, deficits) pair of (m, w) arrays per slot,
    row i ranking the buckets of that slot's function for query i, as
    `slot_rankings` ranks to a width or `CodeEnumerator` takes whole
    rankings. Level l yields an (m, min(count, tuples)) int64 array of
    l-slot keys and is computed only when asked for. It extends the first
    `count` tuples of level l - 1 by one bucket of slot l, and one stable
    sort orders the candidates by priority (the prefix priority plus the
    bucket's deficit), then by the place i of the prefix in level l - 1,
    then by the rank r of the bucket. So level l is ordered by (P_l,
    P_l-1, ..., P_1, r_1, ..., r_l), where P_s is the left-to-right sum of
    the first s deficits, and the all-own tuple comes first.

    The tuple at position i takes the bucket of rank r only if
    (i + 1)(r + 1) <= count, and that cut is exact at every count: each of
    the other (i + 1)(r + 1) - 1 pairs at a position <= i and a rank <= r
    has a priority no higher, by monotone float addition (a <= b implies
    fl(a + d) <= fl(b + d)) and deficits non-decreasing along a ranking,
    and comes earlier in (i, r) order. So the merge reads only the first
    `count` buckets and deficits of a ranking, callers may pass rankings
    uncut, and the first c tuples of the merge at any count C >= c are the
    merge at c.
    """
    m = len(slots[0][0])
    rows = np.arange(m)[:, None]
    keys, prio = np.zeros((m, 1), dtype=np.int64), np.zeros((m, 1))  # level 0: the empty tuple
    for buckets, deficits in slots:
        i, r = _plan(keys.shape[1], min(count, buckets.shape[1]), count)
        cand = prio[:, i] + deficits[:, r]
        order = np.argsort(cand, axis=1, kind="stable")[:, :count]
        prio = cand[rows, order]
        keys = keys[rows, i[order]] << bits | buckets[rows, r[order]]
        yield keys


def ranked_tuples(
    params: FamilyParams, proj: np.ndarray, depth: int, width: int, bits: int
) -> list[np.ndarray]:
    """The first `width` tuples of every level of the probe order, as packed
    keys, for a projection laid out as `slot_rankings` reads it: the first
    `width` of the merge at any wider count. Queries rank through this one
    call, made by `index.MultiLevelIndex.probe_keys`, which shifts its
    prefix keys to first keys; tests replace it in `index` to watch or fake
    a ranking."""
    return list(first_tuples(slot_rankings(params, proj, depth, width), width, bits))


class CodeEnumerator:
    """Best-first stream of bucket-id tuples across hash-function slots, for
    one query: `first_tuples` on one row per slot.

    Each slot is given as one (buckets, deficits) ranking, as `probe_sequence`
    returns it, own bucket first: distinct non-negative integer ids and as
    many finite, non-decreasing deficits, or ValueError naming the slot.
    """

    def __init__(self, rankings: Sequence[tuple[Sequence[int], Sequence[float]]]):
        if not rankings:
            raise ValueError("at least one slot ranking is required")
        self._slots = []
        for s, (b, d) in enumerate(rankings):
            b, d = np.asarray(b), np.asarray(d, dtype=np.float64)
            if b.ndim != 1 or b.shape != d.shape or not b.size:
                raise ValueError(f"slot {s}: buckets and deficits must be one non-empty row each")
            if b.dtype.kind not in "iu" or b.min() < 0 or np.unique(b).size < b.size:
                raise ValueError(f"slot {s}: bucket ids must be distinct non-negative integers")
            if not np.isfinite(d).all() or (np.diff(d) < 0.0).any():
                raise ValueError(f"slot {s}: deficits must be finite and non-decreasing")
            self._slots.append((b.astype(np.int64)[None, :], d[None, :]))
        self._bits = max(1, max(int(b.max()) for b, _ in self._slots).bit_length())
        if self._bits * len(self._slots) > KEY_BITS:
            raise ValueError(f"{len(self._slots)} slots of {self._bits} bits pass {KEY_BITS} key bits")

    def first(self, count: int) -> list[tuple[int, ...]]:
        """The first `count` tuples (fewer if the universe is exhausted); a
        `count` that is not a non-negative integer raises ValueError."""
        *_, keys = first_tuples(self._slots, checked_int("count", count, 0), self._bits)
        return [tuple(codes) for codes in _unpack(keys[0], self._bits, len(self._slots)).tolist()]
