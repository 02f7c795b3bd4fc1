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
One function is its (rows, dim) slice of a stack: `hash_batch` hashes and
`probe_sequence` ranks under one slice, for the collision estimate and as
per-function references.

A probe ranking orders every bucket of one hash function for a query, own
bucket first, as a (buckets, deficits) row pair. `first_tuples` merges the
rankings of consecutive slots, level by level, into the best-first order of
bucket-id tuples that multi-probe querying walks and calibration measures. A
tuple's priority is the sum of its slot deficits taken left to right; the
all-own tuple comes first, and ties break on the packed key. A query needs
only the first few tuples of that order, and `ranked_tuples` ranks and
merges only that far, with a certificate that they are the first of the
merge at the calibrated width. A packed key
holds a tuple's bucket ids in one int64, slot 0 in the high bits and
ceil(log2 U) bits per slot, so keys order like the tuples and at most
KEY_BITS = 63 bits of slots fit. `_pack` is the one encoder and `_unpack`
its inverse; the level-k prefix of a key of K slots is the key shifted
right by bits * (K - k).
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from statistics import NormalDist
from typing import Iterator, Literal, Sequence

import numpy as np

from .geometry import _SEED_MASK, query_row, uniform_unit_vectors

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
    `dim` and `cap_count` are integers, numpy ones included, or ValueError.
    Its JSON form keeps two fixed fields, `cap_threshold` null (the default
    threshold) and `rotation_seed_base` 0, and reads no other value of them."""

    kind: FamilyKind
    dim: int
    cap_count: int = 64

    def __post_init__(self) -> None:
        if self.kind not in ("spherical_cap", "cross_polytope"):
            raise ValueError(f"unknown family kind {self.kind!r}")
        for name in ("dim", "cap_count"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.dim < 2:
            raise ValueError(f"dimension must be >= 2, got {self.dim}")
        if self.kind == "spherical_cap":
            if self.cap_count < 2:
                raise ValueError(f"cap_count must be >= 2, got {self.cap_count}")

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
    params: FamilyParams, proj: np.ndarray, depth: int, width: int | None = None
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Probe orders and positional deficits of an (m * depth, directions)
    projection whose row i * depth + s projects row i on slot s of a
    direction stack: one (buckets, deficits) pair of (m, U) arrays per slot,
    as `first_tuples` reads them. m is the calibration's query points, the
    index's repetitions, or one query under one function.

    Each row is ranked on its own. For the cap family the overflow bucket
    scores one unit below the row's worst cap so it always ranks last.
    A row of distinct scores has one order, which the fast default sort
    finds; a row with a tie takes the stable sort, which breaks it on the
    smaller id.

    A `width` w ranks only as far as a merge at count w reads: (m, w)
    buckets and (m, w + 1) deficits per slot, equal bit for bit to those
    columns of the whole ranking. A universe of at most w + 1 buckets takes
    the whole ranking; see `_leading_ranks` for the rest.
    """
    if width is not None and params.bucket_universe > width + 1:
        return _leading_ranks(params, proj, depth, width)
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
    orders = np.argsort(neg, axis=1)
    tied = (desc[:, 1:] == desc[:, :-1]).any(axis=1)
    if tied.any():
        orders[tied] = np.argsort(neg[tied], axis=1, kind="stable")
    return [(orders[s::depth], deficits[s::depth]) for s in range(depth)]


def _leading_ranks(
    params: FamilyParams, proj: np.ndarray, depth: int, width: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """`slot_rankings` to `width` w, for a universe of more than w + 1
    buckets.

    The own bucket is taken first, then w + 1 `argmax` passes take the
    other scores best first, each pass the first maximum, so the smaller id
    of a tie, as the stable sort breaks it: the buckets are the first w
    taken. The top w + 1 scores are the own score merged into the w + 1
    others, which `maximum` and `minimum` place without a sort, returning
    scores unchanged. The overflow bucket scores below every cap, so the
    passes may score it -inf. The sort of the whole ranking can return a
    zero of either sign where a pass finds the other, and that sign reaches
    a deficit only when the top score is a zero too, so such a row takes
    the whole ranking.
    """
    m = proj.shape[0]
    if params.kind == "spherical_cap":
        scores = np.empty((m, params.cap_count + 1))
        scores[:, :-1] = proj
        scores[:, -1] = -np.inf
    else:
        scores = np.empty((m, 2 * proj.shape[1]))
        scores[:, 0::2] = proj
        scores[:, 1::2] = -proj
    flat = scores.reshape(-1)
    start = np.arange(0, flat.size, scores.shape[1])
    # row t holds the flat place and the score of the bucket taken t-th
    at, taken = np.empty((width + 2, m), dtype=np.intp), np.empty((width + 2, m))
    for t in range(width + 2):
        best = scores.argmax(axis=1) if t else bucket_codes(params, proj)
        np.add(best, start, out=at[t])
        flat.take(at[t], out=taken[t])
        flat[at[t]] = -np.inf
    orders = (at[:width] - start).T
    # the own score x into the others v, best first: place c > 0 holds
    # max(min(x, v_c), v_c+1), the larger of x and v_c+1 unless x passes v_c
    own, others = taken[0], taken[1:]
    desc = np.empty((width + 1, m))
    np.maximum(own, others[0], out=desc[0])
    np.maximum(np.minimum(own, others[:-1]), others[1:], out=desc[1:])
    deficits = (desc[:1] - desc).T
    if not desc[0].all():
        zero = np.flatnonzero(desc[0] == 0.0)
        ((whole_orders, whole_deficits),) = slot_rankings(params, proj[zero], 1)
        orders[zero], deficits[zero] = whole_orders[:, :width], whole_deficits[:, : width + 1]
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
    the top score.
    """
    vec = query_row(q, params.dim)
    ((orders, deficits),) = slot_rankings(params, vec[None, :] @ directions.T, 1)
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
def _plan(kept: int, ranks: int, count: int, deficits: int) -> tuple:
    """What a merge level at `count` sums from `kept` tuples of the level
    before and rankings of `ranks` buckets and `deficits` deficits, as
    positions i and ranks r: first its n candidates, those with
    (i + 1)(r + 1) <= count, then the lost pairs, each position with the
    first rank the cut drops there, count // (i + 1), where the deficits
    reach it. A position whose first dropped rank is that of the position
    before it is left out, as its prefix priority is no lower. Also
    whether each candidate is past the all-own pair (0, 0), and n. The
    arrays are read-only, as every merge of the shape shares them."""
    i, r = np.nonzero(np.outer(np.arange(1, kept + 1), np.arange(1, ranks + 1)) <= count)
    first_lost = count // np.arange(1, kept + 1)
    lost = np.flatnonzero((first_lost < deficits) & (np.diff(first_lost, prepend=0) != 0))
    plan = (np.concatenate((i, lost)), np.concatenate((r, first_lost[lost])), i + r > 0)
    for part in plan:
        part.flags.writeable = False
    return (*plan, i.size)


def first_tuples(slots, count: int, bits: int, certified=None) -> Iterator[np.ndarray]:
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
    of higher priority. So the merge reads only the first `count` buckets
    and deficits of a ranking, and callers may pass rankings uncut. A row
    whose first `count` + 1 sorted priorities are distinct keeps the first
    `count` of the fast default sort, which no tie-break could reorder; a
    row with a tie there is sorted again with the tie-breaks.

    The first w tuples of a merge at count w are not in general the first w
    of a merge at a larger count C: with the ranking ([5, 2], [0.0, 0.0]) on
    two slots, count 2 gives (5, 5), (2, 5), as (1, 1) fails the cut, while
    count 16 gives (5, 5), (2, 2). Given an (m,) bool array `certified`, the
    merge clears row i of it at the first level where it cannot prove that
    its tuples are the first of the merge at every count C > `count` of the
    same rankings. A row that kept `count` tuples stays certified if every
    "lost" sum, prio_i plus the deficit of rank count // (i + 1), the first
    rank the cut drops at position i, is above the priority of its last
    tuple; a row that kept fewer, if no rank was lost (none that far
    exists). This reads only the first `count` buckets and `count` + 1
    deficits of each ranking, and needs only deficits >= 0 and
    non-decreasing along a ranking and monotone float addition: a <= b
    implies fl(a + d) <= fl(b + d).

    Proof. Call the merge at `count` N and the one at C W. A tuple has one
    priority in both, as its buckets fix its ranks and so its deficits, and
    both sort candidates by priority, then the all-own tuple, then the key.
    Suppose that at level l - 1 every candidate of W that N did not keep
    sorts after N's last tuple, so N's tuples are W's first; at level 0
    both hold the empty tuple. A level-l candidate of W that N does not keep
    is one of three:
      - a candidate of N that N cut: both sort it alike, after N's last;
      - cut by the rule, r >= count // (i + 1): its priority is >= the lost
        sum of position i, or of an earlier position with the same first
        dropped rank and a prefix priority no higher, above N's last;
      - an extension of a tuple T of W that N did not keep, so N kept
        `count` tuples at level l - 1 and T sorts after the last of them, of
        priority p. N's extensions of its tuples by their own buckets keep
        their priorities, so N's last at level l is <= p. If the extension
        of T has a larger priority, it sorts after N's last; if not, both
        equal p. Then each of N's level l - 1 tuples of priority p precedes
        T, so its own extension precedes T's extension, and those own
        extensions are at least as many as the places N has left for
        priority p: every tuple N keeps sorts before T's extension.
    So the claim holds at level l. Almost every row of real queries
    certifies (see `ranked_tuples`).
    """
    m = len(slots[0][0])
    rows = np.arange(m)[:, None]
    keys, prio = np.zeros((m, 1), dtype=np.int64), np.zeros((m, 1))  # level 0: the empty tuple
    for buckets, deficits in slots:
        i, r, own_last, n = _plan(keys.shape[1], min(count, buckets.shape[1]), count, deficits.shape[1])
        # the candidates' priorities, then the lost sums
        sums = prio[:, i] + deficits[:, r]
        cand_prio = sums[:, :n]
        order = np.argsort(cand_prio, axis=1)[:, : count + 1]
        head = cand_prio[rows, order]
        if certified is not None and n < i.size:
            last = head[:, count - 1] if head.shape[1] >= count else np.inf
            certified &= sums[:, n:].min(axis=1) > last
        # any tie-break leaves the sorted priorities as they are
        order, prio = order[:, :count], head[:, :count]
        # each row's head starts with the all-own tuple's 0, so the last of
        # one row equals the first of the next only in a row with a tie
        run = head.reshape(-1)
        if (run[1:] == run[:-1]).any():
            ties = np.flatnonzero((head[:, 1:] == head[:, :-1]).any(axis=1))
            cand_keys = keys[ties][:, i[:n]] << bits | buckets[ties][:, r[:n]]
            own = np.broadcast_to(own_last, cand_keys.shape)
            order[ties] = np.lexsort((cand_keys, own, cand_prio[ties]))[:, :count]
        keys = keys[rows, i[order]] << bits | buckets[rows, r[order]]
        yield keys


def ranked_tuples(
    params: FamilyParams, proj: np.ndarray, depth: int, width: int, count: int, bits: int
) -> list[np.ndarray]:
    """The first `width` <= `count` tuples of every level of the probe order
    at `count`, as packed keys: `first_tuples(slot_rankings(params, proj,
    depth), count, bits)` with every level cut to `width` columns, for a
    projection laid out as `slot_rankings` reads it.

    It ranks to `width` and merges at `width`, certifying each row (see
    `first_tuples`); a row the certificate does not clear is ranked whole
    and merged again at `count`, so every row equals the merge at `count`.
    Real queries rarely need that: every repetition of 100 queries on each
    benchmark index (n = 10^4, d = 32) certified at widths 2, 4 and 8.
    """
    slots = slot_rankings(params, proj, depth, width)
    certified = np.ones(len(proj) // depth, dtype=bool)
    levels = list(first_tuples(slots, width, bits, certified if width < count else None))
    if not certified.all():
        failed = np.flatnonzero(~certified)
        rows = proj.reshape(-1, depth, proj.shape[1])[failed].reshape(-1, proj.shape[1])
        wide = first_tuples(slot_rankings(params, rows, depth), count, bits)
        for keys, wide_keys in zip(levels, wide):
            keys[failed] = wide_keys[:, : keys.shape[1]]
    return levels


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
