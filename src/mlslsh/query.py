"""Adaptive query scheduling over a multi-level index.

A query setting is a pair (k, j): consult level k and probe the first j
code tuples of the probe order per repetition, the order `first_tuples`
defines and the probe-success table was calibrated on. The scheduler walks
settings in order of increasing cost estimate j * reps(k, j), an order the
index builds once and every query shares, measures the true candidate work
of each, and stops at the first setting whose cost reaches the best work
seen. Before it measures a multi-probe setting it checks a tighter lower
bound taken from the spine, the query's own bucket at every level of every
repetition, which the query reads anyway: each consulted repetition costs
its own bucket plus one unit for each further probe. A setting whose bound
reaches the best work cannot replace it and is skipped unmeasured, so
pruning changes the trace but never the answer. Probe counts never pass
the calibrated table width, so a query never re-estimates the table and
its work is bounded before it starts. A brute-force scan is the standing
fallback, so the reported work never exceeds n.

All four modes check the query row and the radius in one function and build
their report in another. Adaptive and single-probe queries run the
scheduler, a fixed query pins one setting, and brute force reports the
full-scan setting (0, 0) without an index; `run_query` picks a mode by name.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Iterator

import numpy as np

from .families import _pack, _prefixes, bucket_codes, first_tuples, slot_bits, slot_rankings
# not called here; perfbench/spans.py wraps query.probe_sequence by name
from .families import probe_sequence  # noqa: F401
from .geometry import Dataset, range_scan
from .index import MultiLevelIndex, bucket_runs, consulted_reps


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
    and brute mode). Both wall_time and settings_pruned are excluded from
    the JSON form unless timing is asked for, so serialized reports are
    deterministic.
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
        return doc


class _QueryProbes:
    """Everything one query reads from the index, shared by every setting the
    scheduler measures.

    One matmul projects the query on all R * K hash functions. The prefixes
    of its own key in each repetition give the spine, its own bucket at
    every level of every repetition, in one `bucket_runs` search; that is
    all a single-probe setting reads. A running sum over repetitions, taken
    at the index's `reps_table` and added to its `probe_floor`, turns the
    spine into `bounds`, nested lists of ints read once per setting:
    bounds[k - 1][j - 1] is the work of setting (k, j) at j = 1 and a lower
    bound on it past that. Only a multi-probe query gathers the columns past
    j = 1.

    The first setting past one probe ranks every slot with one
    `slot_rankings` call and starts `first_tuples` on all repetitions at
    once, one row each, at the calibrated probe width; `first_tuples` cuts
    the rankings to that width itself. It yields levels only as deep as a
    setting asks, and a setting finds its buckets with one `bucket_runs` call.
    """

    def __init__(self, index: MultiLevelIndex, q: np.ndarray, multi_probe: bool = True):
        self._index = index
        family, K = index.family, index.levels
        self._bits = slot_bits(family, K)
        self._proj = index.directions @ np.asarray(q, dtype=np.float64)
        own = bucket_codes(family, self._proj).reshape(index.num_repetitions, K)
        own_prefixes = _prefixes(_pack(own, self._bits), self._bits, K)
        self._lo, self._hi = bucket_runs(index.repetitions, own_prefixes, np.arange(1, K + 1))
        # spine[r, k - 1]: one unit plus the own bucket, summed over
        # repetitions 0..r at level k
        spine = np.cumsum(1 + self._hi - self._lo, axis=0)
        width = index.calibration.max_probes if multi_probe else 1
        rows = index.reps_table[:, :width] - 1
        bounds = spine[rows, np.arange(K)[:, None]] + index.probe_floor[:, :width]
        self.bounds: list[list[int]] = bounds.tolist()
        # the probe order of every repetition, started on first use, and the
        # (R, probes) keys of the levels it has yielded so far
        self._tuples: Iterator[np.ndarray] | None = None
        self._levels: list[np.ndarray] = []

    def _runs(self, k: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Sorted runs [lo, hi) of the buckets that the first j probes of
        level k reach in each consulted repetition, two (reps, probes)
        arrays; fewer probes if a tiny code universe runs out."""
        index, count = self._index, int(self._index.reps_table[k - 1, j - 1])
        if j == 1:
            return self._lo[:count, k - 1 : k], self._hi[:count, k - 1 : k]
        if self._tuples is None:
            slots = slot_rankings(index.family, self._proj, index.levels)
            self._tuples = first_tuples(slots, index.calibration.max_probes, self._bits)
        while len(self._levels) < k:
            self._levels.append(next(self._tuples))
        return bucket_runs(index.repetitions[:count], self._levels[k - 1][:count, :j], k)

    def work(self, k: int, j: int) -> float:
        """True candidate work of setting (k, j): per consulted repetition,
        one unit per probe plus the size of each probed bucket."""
        if j == 1:
            return float(self.bounds[k - 1][0])
        lo, hi = self._runs(k, j)
        return float((1 + hi - lo).sum())

    def candidates(self, k: int, j: int) -> tuple[np.ndarray, int]:
        """Distinct point ids in the buckets setting (k, j) probes, and how
        many buckets that is."""
        lo, hi = self._runs(k, j)
        parts = [
            rep.order[a:b]
            for rep, starts, ends in zip(self._index.repetitions, lo.tolist(), hi.tolist())
            for a, b in zip(starts, ends)
        ]
        return np.unique(np.concatenate(parts)), lo.size


def cost(k: int, j: int, calibration, rep_cap: int) -> float:
    """Scheduler cost estimate for setting (k, j): probes times repetitions.
    An index reads the repetitions from its `reps_table`, built from the
    same `consulted_reps`."""
    return float(j * consulted_reps(calibration, k, j, rep_cap))


def _check_query(dim: int, q: np.ndarray, radius: float) -> np.ndarray:
    """The query as a float64 row; every mode validates through here."""
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 1 or q.shape[0] != dim:
        raise ValueError(f"query has shape {q.shape}, expected ({dim},)")
    if not np.all(np.isfinite(q)):
        raise ValueError("query contains non-finite values")
    # two is the diameter of the unit sphere; a NaN radius fails too
    if not 0.0 <= radius <= 2.0:
        raise ValueError(f"radius must lie in [0, 2], got {radius}")
    return q


def _report(
    dataset: Dataset, q: np.ndarray, radius: float, mode: str, t0: float,
    setting: tuple[int, int, float], probes: _QueryProbes | None, examined, pruned: int,
) -> QueryReport:
    """The report of setting (k, j) with work w: the range members among the
    buckets it probes, or among every point for the full-scan setting (0, 0).
    `examined` and `pruned` are the scheduler's trace and pruning count."""
    k, j, w = setting
    if k == 0:
        ids, dists = range_scan(dataset.matrix, q, radius)
        buckets = 0
    else:
        cand, buckets = probes.candidates(k, j)
        keep, dists = range_scan(dataset.matrix[cand], q, radius)
        ids = cand[keep]
    return QueryReport(
        ids=tuple(int(i) for i in ids),
        distances=tuple(float(v) for v in dists),
        work_examined=w,
        buckets_probed=buckets,
        k_best=k,
        j_best=j,
        wall_time=time.perf_counter() - t0,
        mode=mode,
        examined=tuple(examined),
        settings_pruned=pruned,
    )


def _query(
    index: MultiLevelIndex, q: np.ndarray, radius: float | None, mode: str, choose
) -> QueryReport:
    """The front door of every index mode: default the radius to the
    calibrated r, validate the row and the radius, project the query once,
    and report the setting (k, j, work) that `choose(probes)` returns
    together with its trace and the number of settings it pruned. Only the
    adaptive mode reads the bounds past one probe."""
    t0 = time.perf_counter()
    if radius is None:
        radius = index.calibration.r
    q = _check_query(index.dataset.dim, q, radius)
    probes = _QueryProbes(index, q, multi_probe=mode == "adaptive")
    setting, examined, pruned = choose(probes)
    return _report(index.dataset, q, radius, mode, t0, setting, probes, examined, pruned)


def _schedule(index: MultiLevelIndex, probes: _QueryProbes, multi_probe: bool):
    """The cheapest setting (k, j, work) the adaptive walk finds, the trace
    of settings it measured, and how many more it pruned unmeasured.

    Settings come from `index.schedule`, built once per index in order of
    cost j * reps(k, j). The walk stops at the first setting whose cost
    reaches the best work so far, as every later one costs at least as
    much. A multi-probe setting whose spine lower bound is at least the best
    work is pruned: the best is replaced only on a strict <, so it could
    never win. Single-probe settings are always measured; their bound is
    their work, read off the spine. Single mode skips every multi-probe
    setting; its own come in level order, as cost(k, 1) never falls with k.
    """
    w_best = float(index.size)
    k_best, j_best = 0, 0
    examined: list[ExaminedSetting] = []
    pruned = 0
    for c, k, j in index.schedule:
        if c >= w_best:
            break
        if j > 1:
            if not multi_probe:
                continue
            if probes.bounds[k - 1][j - 1] >= w_best:
                pruned += 1
                continue
        w = probes.work(k, j)
        examined.append(ExaminedSetting(k, j, c, w))
        if w < w_best:
            w_best, k_best, j_best = w, k, j

    return (k_best, j_best, w_best), examined, pruned


def adaptive_multiprobe(
    index: MultiLevelIndex, q: np.ndarray, radius: float | None = None
) -> QueryReport:
    """Range query with adaptive level and probe-count selection.

    With radius omitted, the calibrated radius is used. Reported points are
    always true range members; the scheduler only decides how much of the
    index to look at.
    """
    return _query(index, q, radius, "adaptive", lambda p: _schedule(index, p, multi_probe=True))


def single_probe_adaptive(
    index: MultiLevelIndex, q: np.ndarray, radius: float | None = None
) -> QueryReport:
    """Adaptive level selection with exactly one probe per repetition."""
    return _query(index, q, radius, "single", lambda p: _schedule(index, p, multi_probe=False))


def fixed_level_query(
    index: MultiLevelIndex, q: np.ndarray, radius: float | None, k: int, j: int
) -> QueryReport:
    """Range query pinned to setting (k, j); no adaptivity. Its
    `work_examined` is the true candidate work of that setting.

    Useful as a baseline: the adaptive scheduler should never examine more
    work than the best fixed setting by more than its exploration overhead.
    """
    for name, value in (("level k", k), ("probe count j", j)):
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    k, j = int(k), int(j)
    if not 1 <= k <= index.levels:
        raise ValueError(f"level {k} outside 1..{index.levels}")
    index.calibration.ensure_probes(j)

    def pinned(probes: _QueryProbes):
        w = probes.work(k, j)
        c = float(j * index.reps_table[k - 1, j - 1])
        return (k, j, w), [ExaminedSetting(k, j, c, w)], 0

    return _query(index, q, radius, "fixed", pinned)


def brute_force_range(dataset: Dataset, q: np.ndarray, radius: float) -> QueryReport:
    """Exact range reporting by full scan; the reference the index is judged against."""
    t0 = time.perf_counter()
    q = _check_query(dataset.dim, q, radius)
    return _report(dataset, q, radius, "brute", t0, (0, 0, float(dataset.size)), None, (), 0)


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
