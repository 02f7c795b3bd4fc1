"""Adaptive query scheduling over a multi-level index.

A query setting is a pair (k, j): consult level k and probe the first j
code tuples of the probe order per repetition, the order `first_tuples`
defines and the probe-success table was calibrated on. The index states
each feasible setting once, as an entry (cost, k, j, reps, floor) of its
sorted `schedule`: the repetitions it consults, reps(k, j) of them and no
more than were built, its cost estimate, probes times those repetitions,
and the least work they spend past their own buckets. A setting that would
need more repetitions than the index has cannot reach its success
probability and is not in the schedule.

Every mode is one walk, `index.Walk`, made by `MultiLevelIndex.walk`: the
entries it may measure, the extent of the index it reads, its reach, per
level the repetitions whose buckets it searches there, the most any entry
at that level consults, and its two planned reads, the first repetitions
to a first depth up front and the rest of the extent once. A query keeps
the first keys and runs of its own buckets in one grid of the extent's
repetitions and levels. A read fills its cells of the grid and searches
those its `index.ReadPlan` names, one `searchsorted` per key group of the
index.
`_schedule` runs the walk in order, measures the true candidate work of
each entry, and stops at the first entry whose cost reaches the best work
seen, which starts at the walk's ceiling, the work of the full scan it
falls back to.
Before it measures a multi-probe entry it checks the spine lower bound of
`_QueryProbes.bound`; an entry whose bound reaches the best work cannot
replace it and is skipped unmeasured, so pruning changes the trace but
never the answer. Probe counts never pass the calibrated table width, so a
query never re-estimates the table and its work is bounded before it
starts.

Adaptive and single-probe queries walk the index's `walks`, starting from
the full scan of n points, so the reported work never exceeds n. A fixed
query walks its one pinned entry from an unbounded start, so the entry is
always measured; it also answers a pin the schedule leaves out, with the
repetitions capped at those built, and marks its report `infeasible`.
Brute force is the walk of no entries: the full-scan setting (0, 0),
without an index. All four modes check the query row and the radius in one
function and build their report in another; `run_query` picks a mode by
name.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .families import _shifts, ranked_tuples, slot_bits
# not called here; perfbench/spans.py wraps query.probe_sequence by name
from .families import probe_sequence  # noqa: F401
from .geometry import Dataset, query_row, range_scan
from .index import MultiLevelIndex, ReadPlan, Walk, consulted_reps, schedule_entry


@dataclass(frozen=True)
class ExaminedSetting:
    """One (level, probes) pair the scheduler measured."""

    level: int
    probes: int
    cost: float
    work: float

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class QueryReport:
    """Result of one range query plus the accounting behind it.

    ids are sorted ascending; distances align with ids. k_best == 0 means
    the scheduler fell back to a full scan. `examined` lists the settings
    the scheduler measured; `settings_pruned` counts those it ruled out by
    their spine lower bound without measuring (always 0 in single, fixed
    and brute mode). `infeasible` marks a fixed query pinned to a setting
    the schedule leaves out. `functions_projected` counts the hash functions
    the query was coded on, each once: its walk's first read, `first`
    repetitions `depth` slots deep, or, once a setting needed a repetition
    or a level outside it, the walk's whole extent (0 for a full scan). A
    function screened in float32 still counts once when it is projected
    again in float64, to settle its code or for a ranking.
    `key_searches` counts the bucket key ranges the query searched:
    the own buckets of its spine that its walk's reach keeps, one per
    repetition and level, plus the probe buckets of each multi-probe
    setting it looked up. wall_time, settings_pruned, infeasible,
    functions_projected and key_searches are excluded from the JSON form
    unless timing is asked for, so serialized reports are deterministic and
    a fixed report reads as it always has.
    """

    ids: tuple[int, ...]
    distances: tuple[float, ...]
    work_examined: float
    buckets_probed: int
    k_best: int
    j_best: int
    wall_time: float
    mode: str
    examined: tuple[ExaminedSetting, ...] = ()
    settings_pruned: int = 0
    infeasible: bool = False
    functions_projected: int = 0
    key_searches: int = 0

    @property
    def t_reported(self) -> int:
        """Number of reported points."""
        return len(self.ids)

    @property
    def w_best(self) -> float:
        """Work of the chosen setting (k_best, j_best), which every mode
        reports as its work_examined."""
        return self.work_examined

    def to_json_dict(self, include_timing: bool = False) -> dict:
        doc = {
            "mode": self.mode,
            "ids": list(self.ids),
            "distances": list(self.distances),
            "t_reported": self.t_reported,
            "work_examined": self.work_examined,
            "buckets_probed": self.buckets_probed,
            "k_best": self.k_best,
            "j_best": self.j_best,
            "w_best": self.w_best,
            "examined": [e.to_json_dict() for e in self.examined],
        }
        if include_timing:
            doc["wall_time"] = self.wall_time
            doc["settings_pruned"] = self.settings_pruned
            doc["infeasible"] = self.infeasible
            doc["functions_projected"] = self.functions_projected
            doc["key_searches"] = self.key_searches
        return doc


class _QueryProbes:
    """Everything one query reads from the index, shared by every setting the
    scheduler measures. The probes read within the extent (r, D) of their
    `Walk`, and each method takes a setting as its schedule entry (cost, k,
    j, reps, floor), one with reps <= r and k <= D.

    What the query reads of its own buckets lives in one (r, D) grid, cell
    [i, k - 1] for level k of repetition i, as two arrays: `_first`, the
    bucket's first key, and `_own`, its run in the order block. The query
    takes the walk's two reads: the first, its `first` repetitions `depth`
    slots deep, up front, and the rest of the extent once, the first time a
    bound or a ranking needs a repetition or a level outside the first, so
    no function is coded twice. `MultiLevelIndex.query_codes` codes each
    rectangle of a read, and the read fills the rectangle's cells of
    `_first` with one cumulative sum of its codes, each shifted to its slot;
    the rectangle past the first read's depth continues the sum from its
    last column. It then searches the cells its `index.ReadPlan` names,
    those the walk's reach keeps, with one `bucket_runs` call and writes
    their runs to the same cells of `_own`. A running sum of the spine over
    repetitions, read at an entry's `reps` and added to its `floor`, is the
    entry's `bound`: the work of the setting at j = 1 and a lower bound on
    it past that.

    A setting past one probe ranks slots 0..k - 1 of repetitions 0..reps - 1:
    one float64 matmul on a view of the direction block, whose products
    equal those of the whole block bit for bit, and one
    `families.ranked_tuples` call, which ranks every level of that
    rectangle at once and merges it, shifting each level to first keys. It
    ranks and merges only to the width j needs, the smallest power of two
    >= j, at most the calibrated `max_probes`, and certifies each row equal
    to the merge at `max_probes`, merging again at that width any row it
    cannot certify. Both steps treat each row on its own, so a row ranks
    alike in any rectangle, and a later setting that needs more rows,
    levels or probes ranks the larger rectangle afresh, at the wider of the
    two widths, taking the rest of the extent first if the rectangle passes
    the first read. A setting finds its buckets with one `index.probe_runs`
    call, which the probes keep: collecting the candidates of a measured
    setting searches no bucket again.
    """

    def __init__(self, index: MultiLevelIndex, q: np.ndarray, walk: Walk):
        self._index, self._q, self._rest = index, q, walk.reads[1]
        self._extent = count, deepest = walk.extent
        shape = index.num_repetitions, index.levels, -1, index.family.dim
        self._block = index.directions.reshape(shape)
        self._bits = slot_bits(index.family, index.levels)
        # the place of slot s in a key is also the shift of level s + 1: a
        # level-k first key ends in that many zeros
        self._shifts = _shifts(self._bits, index.levels)[:deepest]
        # the grid: untagged first keys, set once a read coded a cell,
        # and runs [lo, hi) in the flattened order block, once it searched
        # one; spine[r, k - 1] is one unit plus the own bucket, summed over
        # repetitions 0..r - 1 at level k, valid for r up to the repetitions
        # searched there
        self._first = np.empty((count, deepest), dtype=np.int64)
        self._own = np.zeros((count, deepest, 2), dtype=np.intp)
        self._spine = np.zeros((count + 1, deepest), dtype=np.int64)
        # slots 0..depth - 1 of repetitions 0..read - 1 are read
        self.read, self.depth, self.key_searches = walk.first, walk.depth, 0
        self._take(walk.reads[0])
        # the (rows, levels) rectangle ranked so far and its width, the
        # (rows, width) first keys of each of its levels, and the runs of
        # each multi-probe entry looked up
        self._ranked = (0, 0, 0)
        self._levels: list[np.ndarray] = []
        self._looked_up: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def functions_projected(self) -> int:
        """Hash functions the query was coded on so far."""
        return self.read * self.depth

    def _take(self, read: ReadPlan) -> None:
        """Code and search one read of the walk: fill the grid cells of its
        rectangles, the runs only where its plan keeps them, and update the
        spine sums."""
        for start, stop, top, bottom in read.rectangles:
            own = self._index.query_codes(self._q, start, stop, top, bottom)
            first = self._first[start:stop, top:bottom]
            np.cumsum(own << self._shifts[top:bottom], axis=1, out=first)
            if top:
                first += self._first[start:stop, top - 1, None]
        if len(read.cells):
            self._own.reshape(-1, 2)[read.cells] = read.runs(self._first)
            self.key_searches += len(read.cells)
            sizes = self._own[..., 1] - self._own[..., 0]
            np.cumsum(sizes + 1, axis=0, out=self._spine[1:])

    def _cover(self, rows: int, levels: int) -> None:
        """Take the rest of the extent the first time the repetitions
        0..rows - 1 at levels 1..levels pass the first read."""
        if rows > self.read or levels > self.depth:
            self._take(self._rest)
            self.read, self.depth = self._extent

    def bound(self, entry, best: float = math.inf) -> int:
        """Spine lower bound on the work of the setting of `entry`: its
        consulted repetitions' own buckets plus its `floor`. A setting at a
        level of the first read that consults repetitions not read yet first
        counts one unit for each of them; if that already reaches `best` it
        returns that lower value and reads no more. Otherwise a setting
        outside the first read takes the rest of the extent."""
        _, k, _, reps, floor = entry
        if k <= self.depth and reps > self.read:
            partial = int(self._spine[self.read, k - 1]) + reps - self.read + floor
            if partial >= best:
                return partial
        self._cover(reps, k)
        return int(self._spine[reps, k - 1]) + floor

    def _runs(self, entry) -> tuple[np.ndarray, np.ndarray]:
        """Sorted runs [lo, hi) of the buckets that the first j probes of
        level k reach in each consulted repetition, two (reps, probes)
        arrays of positions in the flattened order block; fewer probes if a
        tiny code universe runs out."""
        _, k, j, reps, _ = entry
        if j == 1:
            own = self._own[:reps, k - 1]
            return own[:, :1], own[:, 1:]
        if entry in self._looked_up:
            return self._looked_up[entry]
        index = self._index
        count = index.calibration.max_probes
        rows, levels, width = self._ranked
        if reps > rows or k > levels or j > width:
            rows, levels = max(reps, rows), max(k, levels)
            # the smallest power of two >= j, at most the table's width
            width = max(min(1 << (j - 1).bit_length(), count), width)
            self._ranked = rows, levels, width
            self._cover(rows, levels)
            proj = np.matmul(self._block[:rows, :levels], self._q)
            merged = ranked_tuples(
                index.family, proj.reshape(rows * levels, -1), levels, width, count, self._bits
            )
            self._levels = [keys << shift for keys, shift in zip(merged, self._shifts)]
        first = self._levels[k - 1][:reps, :j]
        self.key_searches += first.size
        runs = index.probe_runs(first, k)
        self._looked_up[entry] = runs[..., 0], runs[..., 1]
        return self._looked_up[entry]

    def work(self, entry) -> float:
        """True candidate work of the setting of `entry`: per consulted
        repetition, one unit per probe plus the size of each probed bucket."""
        _, _, j, _, _ = entry
        if j == 1:
            return float(self.bound(entry))
        lo, hi = self._runs(entry)
        return float((1 + hi - lo).sum())

    def candidates(self, entry) -> tuple[np.ndarray, int]:
        """Distinct point ids, ascending, in the buckets the setting of
        `entry` probes, and how many buckets that is."""
        lo, hi = self._runs(entry)
        sizes = (hi - lo).ravel()
        ends = np.cumsum(sizes)
        if not ends[-1]:
            return np.empty(0, dtype=np.int32), lo.size
        # run i fills places ends_i - sizes_i..ends_i - 1 of the gather, and
        # place p holds position hi_i - ends_i + p, from lo_i to hi_i - 1
        at = np.repeat(hi.ravel() - ends, sizes)
        at += np.arange(ends[-1])
        ids = self._index.order.reshape(-1).take(at)
        # a sort and a neighbour mask: np.unique imports numpy.ma on its
        # first call, which made the first query of a process the slowest
        ids.sort()
        return np.concatenate((ids[:1], ids[1:][ids[1:] != ids[:-1]])), lo.size


def _check_query(dim: int, q: np.ndarray, radius: float) -> np.ndarray:
    """`query_row(q, dim)`, with the radius checked too; every mode
    validates through here."""
    q = query_row(q, dim)
    # two is the diameter of the unit sphere; a NaN radius fails too
    if not 0.0 <= radius <= 2.0:
        raise ValueError(f"radius must lie in [0, 2], got {radius}")
    return q


# the full-scan setting (0, 0) as a schedule entry; it reads no index
_FULL_SCAN = (0.0, 0, 0, 0, 0)


def _report(
    dataset: Dataset, q: np.ndarray, radius: float, mode: str, t0: float,
    probes: _QueryProbes | None, entry: tuple, w: float, examined, pruned: int,
) -> QueryReport:
    """The report of the walk `_schedule` ended at `entry` with work w: the
    range members among the buckets it probes, or among every point for
    `_FULL_SCAN`, with the walk's trace and pruning count."""
    _, k, j, _, _ = entry
    if k == 0:
        ids, dists = range_scan(dataset.matrix, q, radius)
        buckets = 0
    else:
        cand, buckets = probes.candidates(entry)
        keep, dists = range_scan(dataset.matrix[cand], q, radius)
        ids = cand[keep]
    return QueryReport(
        ids=tuple(ids.tolist()),
        distances=tuple(dists.tolist()),
        work_examined=w,
        buckets_probed=buckets,
        k_best=k,
        j_best=j,
        wall_time=time.perf_counter() - t0,
        mode=mode,
        examined=tuple(examined),
        settings_pruned=pruned,
        functions_projected=probes.functions_projected if probes else 0,
        key_searches=probes.key_searches if probes else 0,
    )


def _query(
    index: MultiLevelIndex, q: np.ndarray, radius: float | None, mode: str, walk: Walk,
    ceiling: float,
) -> QueryReport:
    """The front door of every index mode: default the radius to the
    calibrated r, validate the row and the radius, make the probes of the
    walk and report where `_schedule` ends it from `ceiling`. A walk of no
    entries reads no index."""
    t0 = time.perf_counter()
    if radius is None:
        radius = index.calibration.r
    q = _check_query(index.dataset.dim, q, radius)
    probes = _QueryProbes(index, q, walk) if walk.entries else None
    found = _schedule(probes, walk.entries, ceiling)
    return _report(index.dataset, q, radius, mode, t0, probes, *found)


def _schedule(probes: _QueryProbes | None, entries, ceiling: float):
    """The cheapest of `entries` the walk finds and its work, the trace of
    settings it measured, and how many more it pruned unmeasured.

    The best starts as the full scan at work `ceiling`, and entries come in
    order of cost. The walk stops at the first entry whose cost reaches the
    best work so far, as every later one costs at least as much. A
    multi-probe entry whose spine lower bound is at least the best work is
    pruned: the best is replaced only on a strict <, so it could never win.
    Single-probe entries are always measured; their bound is their work.
    """
    w_best, best = float(ceiling), _FULL_SCAN
    examined, pruned = [], 0
    for entry in entries:
        c, k, j, _, _ = entry
        if c >= w_best:
            break
        if j > 1 and probes.bound(entry, w_best) >= w_best:
            pruned += 1
            continue
        w = probes.work(entry)
        examined.append(ExaminedSetting(k, j, c, w))
        if w < w_best:
            w_best, best = w, entry

    return best, w_best, examined, pruned


def adaptive_multiprobe(
    index: MultiLevelIndex, q: np.ndarray, radius: float | None = None
) -> QueryReport:
    """Range query with adaptive level and probe-count selection, the walk
    `index.walks["adaptive"]` over every feasible setting.

    With radius omitted, the calibrated radius is used. Reported points are
    always true range members; the scheduler only decides how much of the
    index to look at.
    """
    return _query(index, q, radius, "adaptive", index.walks["adaptive"], index.size)


def single_probe_adaptive(
    index: MultiLevelIndex, q: np.ndarray, radius: float | None = None
) -> QueryReport:
    """Adaptive level selection with exactly one probe per repetition, the
    walk `index.walks["single"]`."""
    return _query(index, q, radius, "single", index.walks["single"], index.size)


def fixed_level_query(
    index: MultiLevelIndex, q: np.ndarray, radius: float | None, k: int, j: int
) -> QueryReport:
    """Range query pinned to setting (k, j); no adaptivity. Its
    `work_examined` is the true candidate work of that setting.

    Useful as a baseline: the adaptive scheduler should never examine more
    work than the best fixed setting by more than its exploration overhead.
    A pin the schedule leaves out as infeasible is still answered: it
    consults `consulted_reps`, reps(k, j) capped at the repetitions built,
    or all of them at P = 0, and its report carries infeasible=True. A
    probe count outside the calibrated table raises there.
    """
    for name, value in (("level k", k), ("probe count j", j)):
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    k, j = int(k), int(j)
    if not 1 <= k <= index.levels:
        raise ValueError(f"level {k} outside 1..{index.levels}")
    count = consulted_reps(index.calibration, k, j, index.num_repetitions)
    entry = schedule_entry(k, j, count, index.family.bucket_universe)
    report = _query(index, q, radius, "fixed", index.walk((entry,)), math.inf)
    return report if entry in index.schedule else replace(report, infeasible=True)


def brute_force_range(dataset: Dataset, q: np.ndarray, radius: float) -> QueryReport:
    """Exact range reporting by full scan; the reference the index is judged against."""
    t0 = time.perf_counter()
    q = _check_query(dataset.dim, q, radius)
    return _report(dataset, q, radius, "brute", t0, None, _FULL_SCAN, float(dataset.size), (), 0)


MODES = ("adaptive", "single", "fixed", "brute")


def run_query(
    mode: str,
    index: MultiLevelIndex | None,
    dataset: Dataset,
    q: np.ndarray,
    radius: float,
    fixed: tuple[int | None, int | None] = (None, None),
) -> QueryReport:
    """Answer q in one of MODES. Brute force scans `dataset` and needs no
    index; the other modes query `index`, built on that dataset. `fixed` is
    the (level, probes) setting of fixed mode."""
    if mode == "brute":
        return brute_force_range(dataset, q, radius)
    if index is None:
        raise ValueError(f"mode {mode!r} needs an index")
    if mode == "adaptive":
        return adaptive_multiprobe(index, q, radius)
    if mode == "single":
        return single_probe_adaptive(index, q, radius)
    if mode != "fixed":
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    if None in fixed:
        raise ValueError("fixed mode needs a level k and a probe count j")
    return fixed_level_query(index, q, radius, *fixed)
