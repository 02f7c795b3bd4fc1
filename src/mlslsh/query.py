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
the codes and runs of its own buckets in one grid of the extent's
repetitions and levels. A read fills its cells of the grid with codes and
has the index search those its `index.ReadPlan` names, one `searchsorted`
per key group of the index. This module only schedules: the index
projects the query on the direction block, makes every key and searches
every bucket.
`_schedule` runs the walk in order, measures the true candidate work of
each entry, and stops at the first entry whose cost reaches the best work
seen, which starts at the walk's ceiling, the work of the full scan it
falls back to.
Query time is hashing and ranking as well as probes and candidates (Dong,
Wang, Josephson, Charikar and Li, "Modeling LSH for performance tuning",
CIKM 2008; Lv et al., "Multi-Probe LSH", VLDB 2007), so before it measures
an entry the walk charges it, in work units, for what it would add to
both: `index.CODE_CHARGE` per function of the rest of the extent, if the
entry needs that read and the query has not taken it, and, past one probe,
`index.RANK_CHARGE` per function of the rectangle it would rank, if the
ranking so far does not cover it (`_QueryProbes.charge`). An entry whose
cost plus its charge reaches the best work is skipped unmeasured, in
single mode too. The charge steers what a walk reads and measures and
never enters the work it reports, and a skip never changes the points a
measured setting reports, but it can leave the walk at a setting of more
work than the one it skipped.
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
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

# not called here; perfbench/spans.py wraps query.probe_sequence by name
from .families import probe_sequence  # noqa: F401
from .geometry import Dataset, checked_int, query_row, range_scan
from .index import CODE_CHARGE, RANK_CHARGE, MultiLevelIndex, ReadPlan, Walk, consulted_reps
from .index import schedule_entry


@dataclass(frozen=True)
class ExaminedSetting:
    """One (level, probes) pair the scheduler measured."""

    level: int
    probes: int
    cost: float
    work: float

    def to_json_dict(self) -> dict:
        return asdict(self)


# the fields of a report that its JSON form holds only when timing is asked for
_TIMED = (
    "wall_time", "settings_pruned", "settings_charged", "infeasible", "functions_projected",
    "key_searches",
)


@dataclass(frozen=True)
class QueryReport:
    """Result of one range query plus the accounting behind it.

    ids are sorted ascending; distances align with ids. k_best == 0 means
    the scheduler fell back to a full scan. `examined` lists the settings
    the scheduler measured; `settings_pruned` counts those it skipped
    without measuring, ruled out by their spine lower bound or skipped by
    the charge for the hashing and ranking they would add, and
    `settings_charged` those of them the charge skipped (both 0 in fixed
    and brute mode; in single mode every skip is charged, as a j = 1
    entry's bound is its work). `infeasible` marks a fixed query pinned to
    a setting the schedule leaves out. `functions_projected` counts the
    hash functions the query was coded on, each once: its walk's first
    read, `first` repetitions `depth` slots deep, or, once a setting
    needed a repetition or a level outside it, the walk's whole extent (0
    for a full scan). A function screened in float32 still counts once when
    it is projected again in float64, to settle its code or for a ranking.
    `key_searches` counts the bucket key ranges the query searched:
    the own buckets of its spine that its walk's reach keeps, one per
    repetition and level, plus the probe buckets of each multi-probe
    setting it looked up. The `_TIMED` fields, wall_time, settings_pruned,
    settings_charged, infeasible, functions_projected and key_searches, are
    excluded from the JSON form unless timing is asked for, so serialized
    reports are deterministic and a fixed report reads as it always has.
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
    settings_charged: int = 0
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
        """Every field, the timing-only ones only with `include_timing`,
        and the derived `t_reported` and `w_best`, as JSON values."""
        names = [f.name for f in fields(self) if include_timing or f.name not in _TIMED]
        doc = {name: getattr(self, name) for name in names}
        doc.update(
            ids=list(self.ids), distances=list(self.distances),
            examined=[e.to_json_dict() for e in self.examined],
            t_reported=self.t_reported, w_best=self.w_best,
        )
        return doc


class _QueryProbes:
    """Everything one query reads from the index, shared by every setting the
    scheduler measures. The probes read within the extent (r, D) of their
    `Walk`, and each method takes a setting as its schedule entry (cost, k,
    j, reps, floor), one with reps <= r and k <= D.

    What the query reads of its own buckets lives in one (r, D) grid, cell
    [i, k - 1] for level k of repetition i, as two arrays: `_codes`, the
    bucket id of slot k - 1, and `_own`, the run of the level-k bucket in
    the order block. The query takes the walk's two reads: the first, its
    `first` repetitions `depth` slots deep, up front, and the rest of the
    extent once, the first time a bound or a ranking needs a repetition or
    a level outside the first, so no function is coded twice.
    `MultiLevelIndex.query_codes` codes each rectangle of a read into its
    cells of `_codes`, and `MultiLevelIndex.own_runs` makes the first keys
    of the grid and searches the cells the read's `index.ReadPlan` names,
    those the walk's reach keeps, whose runs go to the same cells of `_own`.
    A running sum of the spine over repetitions, read at an entry's `reps`
    and added to its `floor`, is the entry's `bound`: the work of the
    setting at j = 1 and a lower bound on it past that. `charge` prices, in
    work units, the functions an entry would add to the coding, the rest of
    the extent if it needs it, and to the ranking, the rectangle it would
    rank if the ranking so far does not cover it.

    A setting past one probe has `MultiLevelIndex.probe_keys` rank slots
    0..k - 1 of repetitions 0..reps - 1, every level of that rectangle at
    once, into the first keys of its probes. It ranks and merges only to
    the width j needs, the smallest power of two >= j, at most the
    calibrated `max_probes`; the first tuples of the merge at any width are
    those of the merge at `max_probes`, the order the calibration measured.
    Both steps treat each row on its own, so a row ranks alike in any
    rectangle, and a later setting that needs more rows, levels or probes
    ranks the larger rectangle afresh, at the wider of the two widths,
    taking the rest of the extent first if the rectangle passes the first
    read. A setting finds its buckets with one `index.probe_runs` call,
    which the probes keep: collecting the candidates of a measured setting
    searches no bucket again.
    """

    def __init__(self, index: MultiLevelIndex, q: np.ndarray, walk: Walk):
        self._index, self._q, self._rest = index, q, walk.reads[1]
        self._extent = count, deepest = walk.extent
        # the grid: bucket ids, set once a read coded a cell, and runs
        # [lo, hi) in the flattened order block, once it searched one;
        # spine[r, k - 1] is one unit plus the own bucket, summed over
        # repetitions 0..r - 1 at level k, valid for r up to the repetitions
        # searched there
        self._codes = np.zeros((count, deepest), dtype=np.int32)
        self._own = np.zeros((count, deepest, 2), dtype=np.intp)
        self._spine = np.zeros((count + 1, deepest), dtype=np.int64)
        # slots 0..depth - 1 of repetitions 0..read - 1 are read, and the
        # rest of the extent codes the other functions
        self.read, self.depth, self.key_searches = walk.first, walk.depth, 0
        self._unread = count * deepest - self.read * self.depth
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
            codes = self._index.query_codes(self._q, start, stop, top, bottom)
            self._codes[start:stop, top:bottom] = codes
        if len(read.cells):
            self._own.reshape(-1, 2)[read.cells] = self._index.own_runs(read, self._codes)
            self.key_searches += len(read.cells)
            sizes = self._own[..., 1] - self._own[..., 0]
            np.cumsum(sizes + 1, axis=0, out=self._spine[1:])

    def _cover(self, rows: int, levels: int) -> None:
        """Take the rest of the extent the first time the repetitions
        0..rows - 1 at levels 1..levels pass the first read."""
        if rows > self.read or levels > self.depth:
            self._take(self._rest)
            self.read, self.depth = self._extent

    def bound(self, entry) -> int:
        """Spine lower bound on the work of the setting of `entry`: its
        consulted repetitions' own buckets plus its `floor`, after the rest
        of the extent if it lies outside the first read."""
        _, k, _, reps, floor = entry
        self._cover(reps, k)
        return int(self._spine[reps, k - 1]) + floor

    def charge(self, entry) -> float:
        """Work units the setting of `entry` adds to the query's hashing and
        ranking: `CODE_CHARGE` per function of the rest of the extent if it
        needs that read and the query has not taken it, and `RANK_CHARGE`
        per function of the rectangle it would rank, past one probe, if the
        ranking so far does not cover it. It runs for every entry a walk
        reaches, so it only compares and multiplies."""
        _, k, j, reps, _ = entry
        rows, levels, width = self._ranked
        charge = CODE_CHARGE * self._unread if reps > self.read or k > self.depth else 0.0
        if j > 1 and (reps > rows or k > levels or j > width):
            charge += RANK_CHARGE * max(reps, rows) * max(k, levels)
        return charge

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
        rows, levels, width = self._ranked
        if reps > rows or k > levels or j > width:
            rows, levels = max(reps, rows), max(k, levels)
            # the smallest power of two >= j, at most the table's width
            width = max(min(1 << (j - 1).bit_length(), index.calibration.max_probes), width)
            self._ranked = rows, levels, width
            self._cover(rows, levels)
            self._levels = index.probe_keys(self._q, rows, levels, width)
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
    probes: _QueryProbes | None, entry: tuple, w: float, examined, pruned: int, charged: int,
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
        settings_charged=charged,
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
    settings it measured, how many more it pruned unmeasured, and how many
    of those the charge skipped.

    The best starts as the full scan at work `ceiling`, and entries come in
    order of cost. The walk stops at the first entry whose cost reaches the
    best work so far, as every later one costs at least as much. An entry
    whose cost plus `_QueryProbes.charge` reaches the best work is skipped
    and counted as pruned and as charged. A multi-probe entry whose spine
    lower bound is at least the best work is pruned: the best is replaced
    only on a strict <, so it could never win. A single-probe entry the
    charge leaves is measured; its bound is its work. From an unbounded
    ceiling, a fixed walk's, nothing is skipped.
    """
    w_best, best = float(ceiling), _FULL_SCAN
    examined, pruned, charged = [], 0, 0
    for entry in entries:
        c, k, j, _, _ = entry
        if c >= w_best:
            break
        if c + probes.charge(entry) >= w_best:
            pruned, charged = pruned + 1, charged + 1
            continue
        if j > 1 and probes.bound(entry) >= w_best:
            pruned += 1
            continue
        w = probes.work(entry)
        examined.append(ExaminedSetting(k, j, c, w))
        if w < w_best:
            w_best, best = w, entry

    return best, w_best, examined, pruned, charged


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
    k, j = checked_int("level k", k), checked_int("probe count j", j)
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
    return _report(dataset, q, radius, "brute", t0, None, _FULL_SCAN, float(dataset.size), (), 0, 0)


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
