"""Multi-level bucket index over packed code keys.

A repetition is one (K, rows, dim) direction stack, its K hash functions in
slot order, plus the points sorted by packed key. `families.hash_keys`
hashes the points under the stack, HASH_BLOCK rows at a time, and packs
each point's K bucket ids into one int64 key: slot 0 in the high bits,
ceil(log2 U) bits per slot for a family with U buckets. A build and the
reload of a file saved without keys both hash through it, so they cannot
disagree. Sorting by key sorts the code tuples lexicographically, so one
sorted array serves every level: the level-k bucket of a k-code prefix key
p is the key range [p << s, (p + 1) << s) with s = bits * (K - k), which
`bucket_runs`, the one key-range search, finds with one binary-search pair.
`index_shape` is the one sizing rule: depth K and repetition count R follow
from the calibrated p1 and p2, n and the space budget. A key holds at most
63 bits, so K * ceil(log2 U) <= 63, and the sorted order holds point ids as
int32, so an index holds at most MAX_POINTS points; the rule rejects
either. A build sizes by it, and a load checks the header's K and R
against it before reading any array. Both then sample the direction block
and sort the repetitions through `_assemble`: the stacks of all R
repetitions are consecutive slices of one read-only (R * K, rows, dim)
block, so one matmul projects a query on every function.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .calibration import DOCUMENT_ERRORS, CalibrationError, FamilyCalibration
from .families import FamilyParams, _pack, _unpack, derived_seed, hash_keys
from .families import sample_directions, slot_bits
# not called here; perfbench/spans.py wraps index.hash_batch by name
from .families import hash_batch  # noqa: F401
from .geometry import Dataset

MAGIC = b"MLSLSH01"
FORMAT_VERSION = 2
_FLAG_CODES = 1

# Repetition.order holds dataset indices as int32
MAX_POINTS = 2**31 - 1

# float noise guard for ceil on formula values that are exact integers
_CEIL_EPS = 1e-9


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
    reach a point at the target radius. Unclamped; callers cap at the number
    of repetitions actually built.
    """
    if k < 1 or j < 1:
        raise ValueError(f"level and probe count must be positive, got k={k}, j={j}")
    if not 0.0 < probe_success <= 1.0:
        raise ValueError(f"probe success must lie in (0, 1], got {probe_success}")
    return max(1, _ceil_guard(2.0 * math.log(2.0 * j * k) / probe_success))


def consulted_reps(calibration: FamilyCalibration, k: int, j: int, rep_cap: int) -> int:
    """Repetitions setting (k, j) consults: reps(k, j) capped at the rep_cap
    built, and all of them when the calibrated success probability is 0."""
    p = calibration.probe_probability(k, j)
    if p <= 0.0:
        return rep_cap
    return max(1, min(reps(k, j, p), rep_cap))


def check_space_budget(budget) -> None:
    """A space budget is None, for no cap, or a positive integer."""
    if budget is not None and (type(budget) is not int or budget < 1):
        raise ValueError(f"space budget must be a positive integer, got {budget!r}")


def index_shape(calibration: FamilyCalibration, n: int, space_budget: int | None) -> tuple[int, int]:
    """Depth K = compute_k(n, p2) and repetitions R = compute_numreps(p1, K),
    capped by space_budget, of an index of n points; build and load both
    size by it. A bad budget, n past MAX_POINTS or K past the key bits raise
    ValueError, a calibration shallower than K raises CalibrationError."""
    check_space_budget(space_budget)
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


def bucket_runs(repetitions, prefixes: np.ndarray, level) -> tuple[np.ndarray, np.ndarray]:
    """Sorted runs [lo, hi) of level-k buckets, one row per repetition.

    Row r of the (R', m) int64 `prefixes` holds k-slot prefix keys, searched
    in repetitions[r]; `level` is k, or an array of levels that broadcasts
    against the prefixes. The bucket of prefix p is the key range
    [p << s, (p + 1) << s) with s = bits * (K - k), searched as the keys in
    (first - 1, last], both ends on the right, which keeps every needle
    below 2**63. Returns lo and hi, each shaped like `prefixes`.
    """
    bits, depth = repetitions[0].bits, repetitions[0].depth
    shift = bits * (depth - np.asarray(level, dtype=np.int64))
    first = prefixes << shift
    # one contiguous (2, m) block per repetition; a strided one is copied per search
    needles = np.stack([first - 1, first | ((1 << shift) - 1)], axis=1)
    runs = np.array(
        [rep.keys.searchsorted(x, side="right") for rep, x in zip(repetitions, needles)]
    )
    return runs[:, 0], runs[:, 1]


class Repetition:
    """One repetition: the (K, rows, dim) direction stack of its K hash
    functions plus the points sorted by packed key.

    Built from one key per point in input order. keys[i] is the packed code
    tuple of the point at sorted position i and order[i] its dataset index.
    The sort is stable, so points with equal codes keep their input order.
    """

    __slots__ = ("directions", "keys", "order", "bits")

    def __init__(self, family: FamilyParams, directions: np.ndarray, keys: np.ndarray):
        universe, depth = family.bucket_universe, len(directions)
        self.bits = slot_bits(family, depth)
        if keys.min() < 0 or int(keys.max()) >> self.bits * depth:
            raise ValueError(f"keys must lie in 0..2**{self.bits * depth} - 1")
        if _unpack(keys, self.bits, depth).max() >= universe:
            raise ValueError(f"slot codes must lie in 0..{universe - 1}")
        self.directions = directions
        self.order = np.argsort(keys, kind="stable").astype(np.int32)
        self.keys = keys[self.order]

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
        p = _pack(np.array([[prefix]], dtype=np.int64), self.bits)
        lo, hi = bucket_runs((self,), p, len(prefix))
        return lo.item(), hi.item()


@dataclass(frozen=True, eq=False)
class MultiLevelIndex:
    """The built index of `dataset`, sized by `index_shape` from its
    calibration and space budget; the calibration's family and the seed
    give every hash function. `directions` is the (R * K, rows, dim) block
    behind them: repetition r's stack is directions[r * K : (r + 1) * K].
    `reps_table[k - 1, j - 1]` is the read-only count of repetitions setting
    (k, j) consults, `consulted_reps` for every k <= K and j <= max_probes.
    `probe_floor` beside it is the least work those repetitions spend past
    their own buckets: one unit per further probe, min(j, U^k) - 1 of them
    for a level of U^k codes. A query adds its own buckets to get the spine
    lower bound on the work of every setting.
    `schedule` holds every such setting once as a (cost, k, j) tuple, cost
    j * reps_table[k - 1, j - 1], sorted by (cost, k, j): the order in which
    an adaptive query examines settings, built once per index.
    """

    dataset: Dataset
    calibration: FamilyCalibration
    seed: int
    space_budget: int | None
    levels: int
    repetitions: tuple[Repetition, ...]
    directions: np.ndarray
    reps_table: np.ndarray = field(init=False, repr=False)
    probe_floor: np.ndarray = field(init=False, repr=False)
    schedule: tuple[tuple[float, int, int], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        cal, R = self.calibration, self.num_repetitions
        table = np.array(
            [
                [consulted_reps(cal, k, j, R) for j in range(1, cal.max_probes + 1)]
                for k in range(1, self.levels + 1)
            ],
            dtype=np.int64,
        )
        # the U^k codes of level k, counted only up to the widest probe count
        universe, width = self.family.bucket_universe, cal.max_probes
        codes = np.array([min(universe**k, width) for k in range(1, self.levels + 1)])
        floor = table * (np.minimum(np.arange(1, width + 1), codes[:, None]) - 1)
        for name, value in (("reps_table", table), ("probe_floor", floor)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        schedule = sorted(
            (float(j * reps), k, j)
            for k, row in enumerate(table.tolist(), start=1)
            for j, reps in enumerate(row, start=1)
        )
        object.__setattr__(self, "schedule", tuple(schedule))

    @property
    def family(self) -> FamilyParams:
        return self.calibration.params

    @property
    def num_repetitions(self) -> int:
        return len(self.repetitions)

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
            "num_repetitions": len(self.repetitions),
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
                for rep in self.repetitions:
                    keys = np.empty_like(rep.keys)
                    keys[rep.order] = rep.keys
                    f.write(keys.astype("<i8").tobytes())


def _assemble(dataset, calibration, seed, space_budget, shape, keys) -> MultiLevelIndex:
    """The index of shape (K, R): its direction block, repetition by slot,
    and R repetitions, each sorted by keys(stack). `keys` is called once per
    repetition in order, so a file reader holds one repetition's keys at a time."""
    (K, R), family = shape, calibration.params
    block = sample_directions(family, [derived_seed(seed, r, s) for r in range(R) for s in range(K)])
    stacks = block.reshape(R, K, *block.shape[1:])
    repetitions = tuple(Repetition(family, stack, keys(stack)) for stack in stacks)
    return MultiLevelIndex(dataset, calibration, seed, space_budget, K, repetitions, block)


def build_index(
    dataset: Dataset,
    calibration: FamilyCalibration,
    space_budget: int | None = None,
    seed: int = 0,
) -> MultiLevelIndex:
    """Build the index of `dataset`, sized by `index_shape`."""
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
        n, d, K, R = sizes = [meta[key] for key in ("n", "d", "levels", "num_repetitions")]
        if not all(type(v) is int and v >= 1 for v in sizes) or type(meta["seed"]) is not int:
            raise ValueError(f"n, d, K, R = {sizes} must be positive integers, the seed an integer")
        calibration = FamilyCalibration.from_json_dict(meta["calibration"])
        family = FamilyParams.from_json_dict(meta["family"])
        budget, degenerate = meta["space_budget"], tuple(meta["degenerate_ids"])
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
    return calibration, meta["seed"], budget, n, d, shape, degenerate


def load_index(path: str) -> MultiLevelIndex:
    """Load an index written by MultiLevelIndex.save, format version 2 or 1.

    The header is checked against itself, against `index_shape` and against
    the file size before any array is allocated. Version 1 int32 codes are
    range-checked and packed. Files saved without keys are rehashed from the
    stored points and the recorded seed; the result is identical to the
    original build.
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
            return np.frombuffer(f.read(8 * n), dtype="<i8").astype(np.int64)

        try:
            return _assemble(dataset, calibration, seed, budget, (K, R), stored_keys)
        except ValueError as e:
            raise IndexFormatError(f"corrupt codes: {e}") from e
