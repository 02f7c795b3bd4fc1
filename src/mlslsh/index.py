"""Multi-level bucket index over packed code keys.

A repetition is one (K, rows, dim) direction stack, its K hash functions in
slot order, plus the points sorted by packed key. `families.hash_keys`
hashes the points under the stack, HASH_BLOCK rows at a time, and packs
each point's K bucket ids into one int64 key: slot 0 in the high bits,
ceil(log2 U) bits per slot for a family with U buckets. A build and the
reload of a file saved without keys both hash through it, so they cannot
disagree. Sorting by key sorts the code tuples lexicographically, so one
sorted array serves every level: the level-k bucket of a k-code prefix key
p is the key range [p << s, (p + 1) << s) with s = bits * (K - k).
The sorted keys and point order of all R repetitions are the rows of one
(R, n) int64 key block and one (R, n) int32 order block; a `Repetition`
views the rows of one, but nothing in the engine reads it. Row r's keys
carry a tag above their K * bits key bits, r's place in its group of up to
2**(63 - K * bits) consecutive repetitions (`repetition_tags`), so a
group's rows read as one sorted array. `bucket_runs`, the one key-range
search, finds buckets of any repetitions of a group with one binary-search
pair each and one `searchsorted` call per group.
`index_shape` is the one sizing rule: depth K and repetition count R follow
from the calibrated p1 and p2, n and the space budget. A key holds at most
63 bits, so K * ceil(log2 U) <= 63, and the sorted order holds point ids as
int32, so an index holds at most MAX_POINTS points; the rule rejects
either. A build sizes by it, and a load checks the header's K and R
against it before reading any array. Both then sample the direction block
and sort the key blocks through `_assemble`: the stacks of all R
repetitions are consecutive slices of one read-only (R * K, rows, dim)
block, so one matmul projects a query on the functions of the first r
repetitions' first k slots, the read extent of its mode. The block also
has a read-only float32 copy, level-major. `MultiLevelIndex.query_codes`
codes a query on any rectangle of repetitions and levels with one float32
product on the copy, over half the bytes, each function whose decision lies
within `screen_margin` of it settled by its float64 product.
This module is the one that computes on packed keys and on the direction
block: a query keeps the bucket ids `query_codes` gives it, and the index
makes the first keys of its own buckets (`MultiLevelIndex.own_runs`) and of
its probes (`MultiLevelIndex.probe_keys`) and searches them.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .calibration import DOCUMENT_ERRORS, CalibrationError, FamilyCalibration
from .families import KEY_BITS, FamilyParams, _pack, _shifts, _unpack, bucket_codes, derived_seed
from .families import hash_keys, ranked_tuples, sample_directions, slot_bits, unsettled
# not called here; perfbench/spans.py wraps index.hash_batch by name
from .families import hash_batch  # noqa: F401
from .geometry import UNIT_NORM_TOL, Dataset, checked_int

MAGIC = b"MLSLSH01"
FORMAT_VERSION = 2
_FLAG_CODES = 1

# the order block holds dataset indices as int32
MAX_POINTS = 2**31 - 1

# float noise guard for ceil on formula values that are exact integers
_CEIL_EPS = 1e-9

# work units a walk is charged for each hash function it codes and each it
# ranks: they steer what it reads and measures, never the work it reports.
# Fixed from a sweep of 0, 0.5, 1, 2 and 0, 1, 2, 8 on planted cross-polytope
# and cap instances of 1e4 and 1e5 points, not measured at run time, so a
# query's output does not depend on the machine
CODE_CHARGE = 1.0
RANK_CHARGE = 8.0


class IndexFormatError(ValueError):
    """Raised when an index file is malformed or truncated."""


def _ceil_guard(x: float) -> int:
    return int(math.ceil(x - _CEIL_EPS))


def compute_k(n: int, p2: float) -> int:
    """Number of hash slots: ceil(ln n / ln(1/p2)), at least 1."""
    if n < 1:
        raise ValueError(f"need at least one point, got {n}")
    if not 0.0 < p2 < 1.0:
        raise ValueError(f"p2 must lie in (0, 1), got {p2}")
    if n == 1:
        return 1
    return max(1, _ceil_guard(math.log(n) / math.log(1.0 / p2)))


def compute_numreps(p1: float, k: int) -> int:
    """Repetitions needed for constant recall at depth k: ceil(p1^-k)."""
    if not 0.0 < p1 <= 1.0:
        raise ValueError(f"p1 must lie in (0, 1], got {p1}")
    if k < 1:
        raise ValueError(f"depth must be at least 1, got {k}")
    return _ceil_guard(p1**-k)


def reps(k: int, j: int, probe_success: float) -> int:
    """Repetitions to consult at level k with j probes: ceil(2 ln(2jk) / P).

    P is the calibrated probability that one repetition's first j probes
    reach a point at the target radius. Unclamped: a setting that needs more
    repetitions than were built is left out of the schedule.
    """
    if k < 1 or j < 1:
        raise ValueError(f"level and probe count must be positive, got k={k}, j={j}")
    if not 0.0 < probe_success <= 1.0:
        raise ValueError(f"probe success must lie in (0, 1], got {probe_success}")
    return max(1, _ceil_guard(2.0 * math.log(2.0 * j * k) / probe_success))


def consulted_reps(calibration: FamilyCalibration, k: int, j: int, rep_cap: int) -> int:
    """Repetitions a fixed query pinned to (k, j) consults: reps(k, j) capped
    at the rep_cap built, and all of them when the calibrated success
    probability is 0. A capped setting cannot reach its success probability,
    so only a pin reads it; the schedule holds no such setting."""
    p = calibration.probe_probability(k, j)
    if p <= 0.0:
        return rep_cap
    return max(1, min(reps(k, j, p), rep_cap))


def schedule_entry(k: int, j: int, count: int, universe: int) -> tuple[float, int, int, int, int]:
    """The entry (cost, k, j, reps, floor) of setting (k, j) consulting
    `count` repetitions of a family with `universe` buckets: cost j * count
    probes, and a floor of one unit per probe past the own bucket that a
    level of universe**k codes has, min(j, universe**k) - 1 per repetition."""
    return float(j * count), k, j, count, count * (min(j, universe**k) - 1)


def check_space_budget(budget) -> int | None:
    """A space budget is None, for no cap, or a positive integer, returned
    as a Python int."""
    return None if budget is None else checked_int("space budget", budget, 1)


def index_shape(calibration: FamilyCalibration, n: int, space_budget: int | None) -> tuple[int, int]:
    """Depth K = compute_k(n, p2) and repetitions R = compute_numreps(p1, K),
    capped by space_budget, of an index of n points; build and load both
    size by it, each after `check_space_budget`. n past MAX_POINTS or K past
    the key bits raise ValueError, a calibration shallower than K raises
    CalibrationError."""
    if n > MAX_POINTS:
        raise ValueError(f"n={n} points; an index holds at most {MAX_POINTS}, int32 ids")
    K = compute_k(n, calibration.p2)
    if calibration.levels < K:
        raise CalibrationError(
            f"calibration covers {calibration.levels} levels but n={n} needs {K}; "
            "re-calibrate with more levels"
        )
    slot_bits(calibration.params, K)
    R = compute_numreps(calibration.p1, K)
    return K, R if space_budget is None else min(R, space_budget)


def screen_margin(dim: int, norm: float) -> float:
    """A bound on |s32 - s64|, the gap between the widened float32 product
    and the float64 product of one direction row w of norm at most `norm`
    with a query row q of `dim` coordinates that `geometry.query_row`
    accepts, so |q| <= Q = 1 + UNIT_NORM_TOL; infinite past dim = 2**24 / 3.
    A decision of `families.bucket_codes` whose float32 margin exceeds it is
    the float64 product's decision (`families.unsettled`).

    With u = 2**-24 and v = 2**-53 the unit roundoffs of float32 and
    float64, gamma_n(x) = n x / (1 - n x) (Higham, Accuracy and Stability
    of Numerical Algorithms, 2002, section 3.1), W = `norm` and
    sum |w_i q_i| <= W Q (Cauchy-Schwarz):

    - Rounding the inputs to float32 gives a_i = w_i (1 + alpha_i) + xi_i
      and b_i = q_i (1 + beta_i) + xi'_i, |alpha|, |beta| <= u, with an
      absolute |xi| <= 2**-150 only where a coordinate lies in the
      subnormal range.
    - The float32 sum of the d products a_i b_i, in any order the kernel
      picks, fused or not, is sum a_i b_i (1 + theta_i) + eta with
      |theta_i| <= gamma_d(u) and |eta| <= d 2**-150 (1 + gamma_d(u)) for
      the products that underflow. With the input factors, each term
      w_i q_i carries d + 2 rounding factors, so
      |s32 - w.q| <= gamma_{d+2}(u) W Q plus the underflow terms: eta, and
      the xi terms, at most d 2**-150 ((1 + u)(W + Q) + 2**-150) times
      1 + gamma_d(u). For d u <= 1/3, gamma_d(u) <= 1/2, so together they
      stay below 0.76 d 2**-149 (1 + W + Q).
    - The float64 reference is itself a d-term product:
      |s64 - w.q| <= gamma_d(v) W Q + d 2**-1074, and d 2**-1074 fits in
      the 0.24 d 2**-149 (1 + W + Q) left over.
    - So |s32 - s64| <= (gamma_{d+2}(u) + gamma_d(v)) W Q
      + d 2**-149 (1 + W + Q).
    - The screen compares the widened s32, which widening leaves exact,
      with float64 bounds such as fl(threshold - eps), fl(threshold + eps)
      or fl(top - 2 eps). fl(x) is the float nearest to x, so a float below
      fl(x) lies below x and a float above it lies above x: the rounding of
      the bounds adds nothing.

    The result is scaled by 1 + 2**-20. That covers the rounding of this
    evaluation, the computed W and the query norm that `query_row`
    checked, each within (d + 2) v of the true value for d u <= 1/3.
    """
    u, v = 2.0**-24, 2.0**-53
    if dim * u > 1.0 / 3.0:
        return math.inf
    q = 1.0 + UNIT_NORM_TOL

    def gamma(n: int, unit: float) -> float:
        return n * unit / (1.0 - n * unit)

    bound = (gamma(dim + 2, u) + gamma(dim, v)) * norm * q + dim * 2.0**-149 * (1.0 + norm + q)
    return bound * (1.0 + 2.0**-20)


def repetition_tags(count: int, key_bits: int) -> np.ndarray:
    """The int64 tag of each of `count` repetitions whose keys take
    `key_bits` bits: its place in its group, shifted above the key bits.
    A group is up to 2**(63 - key_bits) consecutive repetitions, as many
    as the tags keep below 2**63, so a group starts where its tag is 0 and
    the tagged keys of its rows rise from row to row. ValueError when the
    key bits leave no room for a tag."""
    if not 0 < key_bits <= KEY_BITS:
        raise ValueError(f"{key_bits} key bits leave no room below 2**{KEY_BITS} for a tag")
    group = 1 << (KEY_BITS - key_bits)
    return (np.arange(count, dtype=np.int64) % group) << key_bits


def bucket_runs(parts, needles: np.ndarray) -> np.ndarray:
    """Runs [lo, hi) of buckets, one searchsorted per key group.

    Needle pair i, needles[i] = (f - 1, f + 2**s - 1) with f = (p << s) +
    tag, stands for the level bucket of k-slot prefix key p, s its shift
    bits * (K - k), in the repetition of that tag: the tagged keys in
    (f - 1, f + 2**s - 1], searched with both ends on the right, which
    keeps every needle below 2**63. `parts` lists one (a, b, keys, offset)
    per group searched: needles a..b - 1 on the first axis lie in its rows,
    `keys` is the group's rows as one sorted array and `offset` the
    position of its first key in the whole block. Returns the runs shaped
    like `needles`, as positions in the flattened block.
    """
    runs = np.empty(needles.shape, dtype=np.intp)
    for a, b, keys, offset in parts:
        runs[a:b] = keys.searchsorted(needles[a:b], "right")
        if offset:
            runs[a:b] += offset
    return runs


def bucket_loads(keys: np.ndarray, shifts) -> list[float]:
    """m_k of the levels k = 1.. whose shifts bits * (K - k) `shifts` lists,
    averaged over the rows of the key block `keys`: the mean size of the
    level-k bucket of a point drawn at random, sum_b s_b**2 / n over
    buckets of s_b points. One pass per level over each row, one row at a
    time: two neighbours share a level-k bucket exactly when their XOR is
    below 1 << s, s the level's shift, as the tag of their row cancels in
    it, so the positions where it is not start the buckets. The sums are
    exact integers, divided once."""
    count, n = keys.shape
    squares = [0] * len(shifts)
    # bucket starts at 0..n - 1, and the end of the last bucket at n
    starts = np.ones(n + 1, dtype=bool)
    for row in keys:
        change = row[1:] ^ row[:-1]
        for k, shift in enumerate(shifts):
            np.greater_equal(change, 1 << shift, out=starts[1:n])
            sizes = np.diff(np.flatnonzero(starts))
            squares[k] += int(sizes @ sizes)
    return [total / (n * count) for total in squares]


def key_blocks(family: FamilyParams, depth: int, shape: tuple[int, int], keys) -> tuple:
    """The (R, n) int64 key block and int32 order block of R repetitions of
    `depth` slots, row r sorted from the r-th array of `keys`: the n packed
    keys of the points in input order, taken as valid (`load_index` checks
    the keys a file stores). order[r, i] is the dataset index of the point
    at sorted position i of repetition r, and keys[r, i] its key plus the
    tag of r (`repetition_tags`). The sort is stable, so points with equal
    codes keep their input order. `keys` is read one array at a time, so a
    file reader holds one repetition's keys at a time."""
    tags = repetition_tags(shape[0], slot_bits(family, depth) * depth)
    block, order = np.empty(shape, dtype=np.int64), np.empty(shape, dtype=np.int32)
    for r, row in zip(range(shape[0]), keys):
        perm = np.argsort(row, kind="stable")
        order[r] = perm
        np.take(row, perm, out=block[r])
        block[r] += tags[r]
        # hold nothing of this repetition while the next one's keys are made
        del row, perm
    return block, order


class Repetition:
    """One repetition: the (K, rows, dim) direction stack of its K hash
    functions plus views of its rows of the index's key and order blocks.

    keys[i] is the packed code tuple of the point at sorted position i plus
    the repetition's `tag`, and order[i] its dataset index.
    """

    __slots__ = ("directions", "keys", "order", "bits", "tag")

    def __init__(self, directions: np.ndarray, keys: np.ndarray, order: np.ndarray, bits, tag):
        self.directions, self.keys, self.order = directions, keys, order
        self.bits, self.tag = bits, tag

    @property
    def depth(self) -> int:
        return len(self.directions)

    @property
    def sorted_codes(self) -> np.ndarray:
        """The (n, K) int32 code matrix in sorted order, decoded from the keys."""
        return _unpack(self.keys, self.bits, self.depth).astype(np.int32)

    def prefix_range(self, prefix: tuple[int, ...]) -> tuple[int, int]:
        """Half-open run [lo, hi) of sorted positions whose codes start with prefix."""
        if not 1 <= len(prefix) <= self.depth:
            raise ValueError(
                f"prefix length must lie in 1..{self.depth}, got {len(prefix)}"
            )
        if not all(0 <= code < 1 << self.bits for code in prefix):
            return 0, 0  # no key holds a code this wide
        shift = self.bits * (self.depth - len(prefix))
        first = (int(_pack(np.array(prefix, dtype=np.int64), self.bits)) << shift) + self.tag
        needles = np.array([[first - 1, first + (1 << shift) - 1]], dtype=np.int64)
        lo, hi = bucket_runs(((0, 1, self.keys, 0),), needles)[0].tolist()
        return lo, hi


class ReadPlan(NamedTuple):
    """One read of a walk: the `rectangles` (start, stop, top, bottom) of
    repetitions start..stop - 1 at levels top + 1..bottom it codes, and the
    own buckets of those cells that the walk's reach keeps. `cells` are
    their places in the flattened (r, k) grid of the walk's extent, which
    holds a query's codes and runs, `ends` the (tag - 1, tag + 2**s - 1)
    each adds to its first key to make its needle pair, and `parts` the
    `bucket_runs` groups of the cells; `MultiLevelIndex.own_runs` searches
    them."""

    rectangles: tuple
    cells: np.ndarray
    ends: np.ndarray
    parts: tuple


@dataclass(frozen=True)
class Walk:
    """The walk of one query mode, made by `MultiLevelIndex.walk`: the
    sorted schedule `entries` it may measure, all of them in adaptive mode
    and those with j = 1 in single mode, one entry for a fixed pin and none
    for a full scan.

    `reach[k - 1]` is the most repetitions any entry consults at level k,
    0 where none does, so a query of the mode searches level k's buckets
    only in repetitions 0..reach[k - 1] - 1. `extent` is (r, k), the most
    repetitions and the deepest level over the entries, (0, 0) for none:
    a query of the mode reads slots 0..k - 1 of repetitions 0..r - 1 and
    nothing else. It reads them in two `reads`. The first is levels
    1..`depth`, at least as deep as its cheapest j = 1 entry, of the
    `first` repetitions, the most that any of its j = 1 entries at those
    levels consults. The second is the rest of the extent, taken once, when
    an entry first needs a repetition or a level outside the first, and
    charged to the entry before it does (`query._QueryProbes.charge`). The
    index's two walks read first the same rectangle, the j = 1 entries
    worth coding up front; a fixed walk of one j = 1 pin its whole extent,
    and one of a multi-probe pin nothing.
    """

    entries: tuple[tuple[float, int, int, int, int], ...]
    first: int
    depth: int
    reach: tuple[int, ...]
    reads: tuple[ReadPlan, ReadPlan] = field(compare=False, repr=False)

    @property
    def extent(self) -> tuple[int, int]:
        return max(self.reach, default=0), len(self.reach)


@dataclass(frozen=True, eq=False)
class MultiLevelIndex:
    """The built index of `dataset`, sized by `index_shape` from its
    calibration and space budget; the calibration's family and the seed
    give every hash function. `directions` is the (R * K, rows, dim) block
    behind them: repetition r's stack is directions[r * K : (r + 1) * K].

    `schedule` holds every feasible setting (k, j), k <= K and
    j <= max_probes, once as a (cost, k, j, reps, floor) `schedule_entry`,
    sorted: the order in which an adaptive query examines settings, built
    once per index. A setting is feasible when its calibrated success
    probability P(k, j) is positive and reps = reps(k, j, P) <= R: only then
    do its repetitions reach that probability. `cost` = j * reps is its
    probes. `floor` is the least work those repetitions spend past their own
    buckets: one unit per further probe, min(j, U^k) - 1 of them for a level
    of U^k codes. A query adds its own buckets to the floor to get the spine
    lower bound on the work of the setting. With nothing feasible, the
    schedule is empty and every adaptive or single query is a full scan.

    `walks` maps "adaptive" and "single" to the `Walk` of that mode, which
    states what it walks and plans its two reads; `walk` makes every walk,
    a fixed query's too. Both walks read first the j = 1 entries whose cost
    plus `CODE_CHARGE` per function they code, reps * k, stays below W, the
    cheapest j = 1 entry at least: W is the least expected work of a j = 1
    entry (k, 1, reps), reps * (1 + m_k), with m_k the `bucket_loads` of
    level k over the repetitions of the j = 1 entries. A walk stops at the
    first entry whose cost reaches the best work it measured, and skips one
    whose cost plus the coding and ranking it would add reaches it, so a
    query reads the rest of the extent only when a setting outside the
    first read may still pay for it. Both walks are fixed at build and
    load; no query changes them.

    `keys` and `order` are the (R, n) key and order blocks of `key_blocks`.
    `repetitions` views their rows beside each direction stack; nothing in
    the engine reads it.

    The index alone works on packed keys and on the direction block; a
    query keeps bucket ids. `query_codes` codes a query on any rectangle of
    repetitions and levels. It reads a read-only float32 copy of the
    direction block, level-major: copy cell [s, r] is the function of slot
    s of repetition r. A decision on its product with a margin past the
    `screen_margin` of the dimension and the largest direction norm is the
    float64 product's decision. `own_runs` turns a grid of such codes into
    first keys and searches the own buckets a `ReadPlan` keeps;
    `probe_keys` ranks a rectangle into the first keys of its probes, and
    `probe_runs` searches them.
    """

    dataset: Dataset
    calibration: FamilyCalibration
    seed: int
    space_budget: int | None
    levels: int
    directions: np.ndarray
    keys: np.ndarray
    order: np.ndarray
    repetitions: tuple[Repetition, ...] = field(init=False, repr=False)
    schedule: tuple[tuple[float, int, int, int, int], ...] = field(init=False, repr=False)
    walks: Mapping[str, Walk] = field(init=False, repr=False)
    # the level-major float32 copy of the direction block and its screening margin
    _copy: np.ndarray = field(init=False, repr=False)
    _margin: float = field(init=False, repr=False)
    # per group (first row, end row, its rows as one sorted array, offset);
    # the (K, R, 2) needle ends of every level and repetition; the (K,) key
    # bit offset of each slot, which is also the shift of its level
    _groups: tuple = field(init=False, repr=False)
    _ends: np.ndarray = field(init=False, repr=False)
    _shifts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        K, (R, n) = self.levels, self.keys.shape
        if self.order.shape != (R, n) or len(self.directions) != R * K or n != self.size:
            raise ValueError(
                f"{R} x {n} keys, {self.order.shape[0]} x {self.order.shape[1]} ids and "
                f"{len(self.directions)} functions do not make {R} repetitions of "
                f"{K} levels over {self.size} points"
            )
        bits = slot_bits(self.family, K)
        tags = repetition_tags(R, bits * K)
        stacks = self.directions.reshape(R, K, *self.directions.shape[1:])
        object.__setattr__(self, "repetitions", tuple(
            Repetition(stack, keys, order, bits, int(tag))
            for stack, keys, order, tag in zip(stacks, self.keys, self.order, tags)
        ))
        starts = [*np.flatnonzero(tags == 0).tolist(), R]
        object.__setattr__(self, "_groups", tuple(
            (a, b, self.keys[a:b].reshape(-1), a * n) for a, b in zip(starts, starts[1:])
        ))
        shifts = _shifts(bits, K)
        ends = np.stack(np.broadcast_arrays(tags - 1, tags + (1 << shifts[:, None]) - 1), axis=-1)
        object.__setattr__(self, "_ends", ends)
        object.__setattr__(self, "_shifts", shifts)

        cal, universe = self.calibration, self.family.bucket_universe
        entries = []
        for k in range(1, self.levels + 1):
            for j in range(1, cal.max_probes + 1):
                p = cal.probe_probability(k, j)
                if p > 0.0 and (count := reps(k, j, p)) <= R:
                    entries.append(schedule_entry(k, j, count, universe))
        # each (k, j) occurs once, so the sort never compares past it
        schedule = tuple(sorted(entries))
        object.__setattr__(self, "schedule", schedule)
        ones = tuple(e for e in schedule if e[2] == 1)
        rows, levels = max((e[3] for e in ones), default=0), max((e[1] for e in ones), default=0)
        loads = bucket_loads(self.keys[:rows], shifts[:levels].tolist())
        work = min((count * (1.0 + loads[k - 1]) for _, k, _, count, _ in ones), default=math.inf)
        # the first read of both walks: levels of the j = 1 entries worth coding up front
        kept = [k for c, k, _, count, _ in ones if c + CODE_CHARGE * count * k < work]
        depth = max(kept + [ones[0][1]]) if ones else None
        walks = {"adaptive": self.walk(schedule, depth), "single": self.walk(ones, depth)}
        object.__setattr__(self, "walks", MappingProxyType(walks))
        copy = stacks.swapaxes(0, 1).astype(np.float32, order="C")
        copy.flags.writeable = False
        object.__setattr__(self, "_copy", copy)
        # einsum sums the squares of each row without a temporary as large as the block
        norm = math.sqrt(np.einsum("...i,...i->...", self.directions, self.directions).max())
        object.__setattr__(self, "_margin", screen_margin(self.family.dim, norm))

    def query_codes(self, q: np.ndarray, start: int, stop: int, top: int, bottom: int) -> np.ndarray:
        """The (stop - start, bottom - top) int32 bucket ids of the unit
        float64 row q under slots top..bottom - 1 of repetitions
        start..stop - 1, those `bucket_codes` gives the float64 product. It
        screens: one batched float32 product on a view of the copy, widened,
        with each function that `unsettled` flags within the margin projected
        again by the float64 matmul of its row of the direction block alone."""
        copy = self._copy[top:bottom, start:stop]
        flat = np.matmul(copy.reshape(bottom - top, -1, self.family.dim), q.astype(np.float32))
        proj = flat.reshape(copy.shape[:3]).swapaxes(0, 1).astype(np.float64, order="C")
        functions = proj.reshape(-1, proj.shape[2])
        for i in unsettled(self.family, functions, self._margin).tolist():
            r, s = divmod(i, bottom - top)
            np.matmul(self.directions[(start + r) * self.levels + top + s], q, out=functions[i])
        return bucket_codes(self.family, functions).reshape(stop - start, -1)

    def walk(self, entries: tuple, depth: int | None = None) -> Walk:
        """The `Walk` of the sorted schedule `entries` that reads first the
        repetitions of its j = 1 entries at levels 1..`depth`, its extent's
        depth by default, with the plans of its two reads. ValueError for a
        depth shallower than its cheapest j = 1 entry or deeper than its
        extent."""
        reach = [0] * max((e[1] for e in entries), default=0)
        for _, k, _, count, _ in entries:
            reach[k - 1] = max(reach[k - 1], count)
        count, deepest = max(reach, default=0), len(reach)
        ones = [e for e in entries if e[2] == 1]
        least, depth = ones[0][1] if ones else 0, deepest if depth is None else depth
        if not least <= depth <= deepest:
            raise ValueError(
                f"a walk of extent {(count, deepest)} whose cheapest j = 1 entry is at level "
                f"{least} cannot read {depth} levels first"
            )
        first = max((e[3] for e in ones if e[1] <= depth), default=0)
        reach = tuple(reach)
        # the rest deepens the first repetitions before it reads the others,
        # so the cells of both rectangles come in row order
        reads = (
            self._plan(reach, (0, first, 0, depth)),
            self._plan(reach, (0, first, depth, deepest), (first, count, 0, deepest)),
        )
        return Walk(entries, first, depth, reach, reads)

    def _plan(self, reach: tuple, *rectangles: tuple) -> ReadPlan:
        """The `ReadPlan` of the read of `rectangles` by a walk of `reach`:
        their own buckets that reach keeps, repetition r at level k only if
        r < reach[k - 1]."""
        rectangles = tuple(r for r in rectangles if r[0] < r[1] and r[2] < r[3])
        kept = np.zeros((max(reach, default=0), len(reach)), dtype=bool)
        for start, stop, top, bottom in rectangles:
            kept[start:stop, top:bottom] = True
        kept &= np.arange(len(kept))[:, None] < np.array(reach, dtype=np.intp)
        rows, levels = np.nonzero(kept)
        # rows ascend, so the cells of each group are consecutive
        parts = []
        for a, b, keys, offset in self._groups:
            lo, hi = np.searchsorted(rows, (a, b)).tolist()
            if lo < hi:
                parts.append((lo, hi, keys, offset))
        cells = rows * len(reach) + levels
        return ReadPlan(rectangles, cells, self._ends[levels, rows], tuple(parts))

    def own_runs(self, plan: ReadPlan, codes: np.ndarray) -> np.ndarray:
        """The (cells, 2) runs of the own buckets `plan` keeps, given a
        query's (r, D) grid `codes` of the walk's extent, cell [i, s] the
        bucket id of slot s of repetition i, coded wherever the plan's cells
        and the slots before them lie: one cumulative sum along the rows of
        the codes, each shifted to its slot, makes the untagged first keys,
        and one `bucket_runs` call searches the cells."""
        first = np.cumsum(codes << self._shifts[: codes.shape[1]], axis=1)
        return bucket_runs(plan.parts, first.reshape(-1).take(plan.cells)[:, None] + plan.ends)

    def probe_keys(self, q: np.ndarray, rows: int, levels: int, width: int) -> list[np.ndarray]:
        """The untagged first keys of the first `width` buckets of the
        probe order of the unit float64 row q, one (rows, width) array for
        each level 1..levels of repetitions 0..rows - 1, fewer columns if a
        tiny code universe runs out: one float64 matmul on a view of the
        direction block, whose products equal those of the whole block bit
        for bit, and one `ranked_tuples` call, which ranks every level of
        that rectangle at once and merges it, each level's prefix keys then
        shifted to first keys."""
        block = self.directions.reshape(self.num_repetitions, self.levels, -1, self.family.dim)
        proj = np.matmul(block[:rows, :levels], q).reshape(rows * levels, -1)
        bits = slot_bits(self.family, self.levels)
        merged = ranked_tuples(self.family, proj, levels, width, bits)
        return [keys << shift for keys, shift in zip(merged, self._shifts)]

    def probe_runs(self, first: np.ndarray, level: int) -> np.ndarray:
        """The (r, m, 2) runs of the level buckets whose untagged first keys
        are the (r, m) `first`, row i searched in repetition i: one needle
        pair each and one `bucket_runs` search per group."""
        count = len(first)
        parts = tuple((a, min(b, count), keys, at) for a, b, keys, at in self._groups if a < count)
        return bucket_runs(parts, first[..., None] + self._ends[level - 1, :count, None])

    @property
    def family(self) -> FamilyParams:
        return self.calibration.params

    @property
    def num_repetitions(self) -> int:
        return len(self.keys)

    @property
    def size(self) -> int:
        return self.dataset.size

    def save(self, path: str, include_codes: bool = True) -> None:
        """Write the index to `path` as format version 2: after the points,
        one little-endian int64 key per point per repetition, in input order.

        With include_codes=False the file omits the keys; loading rehashes
        the stored points with the recorded seeds, trading load time for file
        size. Raw (pre-normalization) inputs are never persisted.
        """
        ds = self.dataset
        meta = {
            "family": self.family.to_json_dict(),
            "calibration": self.calibration.to_json_dict(),
            "seed": self.seed,
            "space_budget": self.space_budget,
            "levels": self.levels,
            "num_repetitions": self.num_repetitions,
            "n": ds.size,
            "d": ds.dim,
            "degenerate_ids": list(ds.degenerate_ids),
        }
        blob = json.dumps(meta, sort_keys=True).encode("utf-8")
        flags = _FLAG_CODES if include_codes else 0
        with open(path, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<II", FORMAT_VERSION, flags))
            f.write(struct.pack("<Q", len(blob)))
            f.write(blob)
            f.write(np.ascontiguousarray(ds.centroid, dtype="<f8").tobytes())
            f.write(np.ascontiguousarray(ds.matrix, dtype="<f8").tobytes())
            if include_codes:
                bits = slot_bits(self.family, self.levels)
                tags = repetition_tags(self.num_repetitions, bits * self.levels)
                for keys, order, tag in zip(self.keys, self.order, tags):
                    row = np.empty_like(keys)
                    row[order] = keys
                    row -= tag
                    f.write(row.astype("<i8").tobytes())


def _assemble(dataset, calibration, seed, space_budget, shape, keys) -> MultiLevelIndex:
    """The index of shape (K, R): its direction block, repetition by slot,
    and its key blocks, row r sorted from keys(stack r). `keys` is called
    once per repetition in order, so a file reader holds one repetition's
    keys at a time."""
    (K, R), family = shape, calibration.params
    block = sample_directions(family, [derived_seed(seed, r, s) for r in range(R) for s in range(K)])
    stacks = block.reshape(R, K, *block.shape[1:])
    blocks = key_blocks(family, K, (R, dataset.size), (keys(stack) for stack in stacks))
    return MultiLevelIndex(dataset, calibration, seed, space_budget, K, block, *blocks)


def build_index(
    dataset: Dataset,
    calibration: FamilyCalibration,
    space_budget: int | None = None,
    seed: int = 0,
) -> MultiLevelIndex:
    """Build the index of `dataset`, sized by `index_shape`; it keeps the
    space budget as the int `check_space_budget` returns and the seed as
    the int `checked_int` returns."""
    space_budget, seed = check_space_budget(space_budget), checked_int("seed", seed)
    shape = index_shape(calibration, dataset.size, space_budget)
    return _assemble(
        dataset, calibration, seed, space_budget, shape,
        lambda stack: hash_keys(calibration.params, stack, dataset.matrix),
    )


def _check_metadata(meta):
    """(calibration, seed, space budget, n, d, (K, R), degenerate ids) of
    an index header, checked against each other and against `index_shape`
    before anything is sized by them."""
    try:
        n, d, K, R = (checked_int(k, meta[k], 1) for k in ("n", "d", "levels", "num_repetitions"))
        seed = checked_int("seed", meta["seed"])
        calibration = FamilyCalibration.from_json_dict(meta["calibration"])
        family = FamilyParams.from_json_dict(meta["family"])
        budget, degenerate = check_space_budget(meta["space_budget"]), tuple(meta["degenerate_ids"])
        # a file without codes is rebuilt R * K hashes deep, so K and R must
        # be what a build of n points from this calibration and budget gives
        shape = index_shape(calibration, n, budget)
    except DOCUMENT_ERRORS as e:
        raise IndexFormatError(f"corrupt index metadata: {e!r}") from e
    if family != calibration.params:
        raise IndexFormatError(f"family {family} differs from the calibration's {calibration.params}")
    if family.dim != d:
        raise IndexFormatError(f"family dimension {family.dim} does not match d={d}")
    if (K, R) != shape:
        raise IndexFormatError(
            f"levels={K}, num_repetitions={R}; n={n}, the calibration and the "
            f"space budget give {shape[0]} levels and {shape[1]} repetitions"
        )
    # -1 < first < ... < last < n: distinct, ascending and in range
    if not all(type(i) is int for i in degenerate) or not all(
        a < b for a, b in zip((-1, *degenerate), (*degenerate, n))
    ):
        raise IndexFormatError(f"degenerate ids must be distinct ascending ints in 0..{n - 1}")
    return calibration, seed, budget, n, d, shape, degenerate


def load_index(path: str) -> MultiLevelIndex:
    """Load an index written by MultiLevelIndex.save, format version 2 or 1.

    The header is checked against itself, against `index_shape` and against
    the file size before any array is allocated. Version 1 int32 codes are
    range-checked and packed. Files saved without keys are rehashed from the
    stored points and the recorded seed; the result is identical to the
    original build. Version 2 keys are checked for their key range and for
    each slot's code below the bucket universe.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(len(MAGIC) + 16)
        if head[: len(MAGIC)] != MAGIC:
            raise IndexFormatError(f"bad magic {head[: len(MAGIC)]!r}; not an index file")
        if len(head) < len(MAGIC) + 16:
            raise IndexFormatError(f"truncated index file: {len(head)}-byte header")
        version, flags, meta_len = struct.unpack_from("<IIQ", head, len(MAGIC))
        if version not in (1, FORMAT_VERSION):
            raise IndexFormatError(f"unsupported index format version {version}")
        if flags & ~_FLAG_CODES:
            raise IndexFormatError(f"unknown flag bits {flags:#x}")
        if meta_len > size - f.tell():
            raise IndexFormatError(
                f"truncated index file: {meta_len} bytes of metadata announced, "
                f"{size - f.tell()} left"
            )
        try:
            meta = json.loads(f.read(meta_len))
        except ValueError as e:  # bad JSON or bad UTF-8
            raise IndexFormatError(f"corrupt index metadata: {e}") from e
        calibration, seed, budget, n, d, (K, R), degenerate = _check_metadata(meta)
        has_codes = bool(flags & _FLAG_CODES)
        payload = 8 * d * (n + 1) + ((4 * K if version == 1 else 8) * n * R if has_codes else 0)
        left = size - f.tell()
        if left < payload:
            raise IndexFormatError(
                f"truncated index file: n={n}, d={d}, K={K}, R={R} need {payload} "
                f"payload bytes, {left} left"
            )
        if left > payload:
            raise IndexFormatError(f"trailing data after index payload: {left - payload} bytes")
        centroid = np.frombuffer(f.read(8 * d), dtype="<f8").astype(np.float64)
        matrix = np.frombuffer(f.read(8 * n * d), dtype="<f8").reshape(n, d).astype(np.float64)
        try:
            dataset = Dataset(matrix=matrix, centroid=centroid, degenerate_ids=degenerate)
        except ValueError as e:
            raise IndexFormatError(f"corrupt index points: {e}") from e
        family = calibration.params
        bits, universe = slot_bits(family, K), family.bucket_universe

        def stored_keys(stack: np.ndarray) -> np.ndarray:
            if not has_codes:
                return hash_keys(family, stack, dataset.matrix)
            if version == 1:
                codes = np.frombuffer(f.read(4 * n * K), dtype="<i4").reshape(n, K)
                if codes.min() < 0 or codes.max() >= universe:
                    raise ValueError(f"codes must lie in 0..{universe - 1}")
                return _pack(codes, bits)
            keys = np.frombuffer(f.read(8 * n), dtype="<i8").astype(np.int64)
            if keys.min() < 0 or int(keys.max()) >> bits * K or _unpack(keys, bits, K).max() >= universe:
                raise ValueError(f"keys must pack {K} slot codes in 0..{universe - 1}")
            return keys

        try:
            return _assemble(dataset, calibration, seed, budget, (K, R), stored_keys)
        except ValueError as e:
            raise IndexFormatError(f"corrupt codes: {e}") from e
