"""Adaptive query scheduling over a multi-level index.

A query setting is a pair (k, j): consult level k and probe j code tuples
per repetition. The scheduler walks settings in order of increasing cost
estimate j * reps(k, j), measures the true candidate work of each, and stops
as soon as no unexamined setting could beat the best work seen. Probe counts
never pass the calibrated table width, so a query never re-estimates the
table and its work is bounded before it starts. A brute-force scan is the
standing fallback, so the reported work never exceeds n.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

import numpy as np

from .families import CodeEnumerator, ProbeSequence, probe_sequence
from .geometry import Dataset
from .index import MultiLevelIndex, Repetition, reps


@dataclass(frozen=True)
class ExaminedSetting:
    """One (level, probes) pair the scheduler measured."""

    level: int
    probes: int
    cost: float
    work: float

    def to_json_dict(self) -> dict:
        return {
            "level": self.level,
            "probes": self.probes,
            "cost": self.cost,
            "work": self.work,
        }


@dataclass(frozen=True)
class QueryReport:
    """Result of one range query plus the accounting behind it.

    ids are sorted ascending; distances align with ids. k_best == 0 means
    the scheduler fell back to a full scan. wall_time is excluded from the
    JSON form unless asked for, so serialized reports are deterministic.
    """

    ids: tuple[int, ...]
    distances: tuple[float, ...]
    t_reported: int
    work_examined: float
    buckets_probed: int
    k_best: int
    j_best: int
    w_best: float
    wall_time: float
    mode: str
    examined: tuple[ExaminedSetting, ...] = ()

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
        return doc


class _LevelProbes:
    """Probe enumeration state for one repetition at one level.

    Tracks, probe by probe, the bucket run for each emitted code tuple and
    the running work total (one unit per probe plus the bucket size). The
    enumeration can exhaust on tiny code universes; work and candidates then
    stop growing.
    """

    def __init__(self, repetition: Repetition, seqs: list[ProbeSequence]):
        self._rep = repetition
        self._enum = CodeEnumerator(seqs)
        self._ranges: list[tuple[int, int]] = []
        self._cum = [0]

    def ensure(self, j: int) -> None:
        if len(self._ranges) >= j:
            return
        codes = self._enum.first(j)
        for code in codes[len(self._ranges) :]:
            lo, hi = self._rep.prefix_range(code)
            self._ranges.append((lo, hi))
            self._cum.append(self._cum[-1] + 1 + (hi - lo))

    def work(self, j: int) -> float:
        self.ensure(j)
        return float(self._cum[min(j, len(self._ranges))])

    def probes_used(self, j: int) -> int:
        self.ensure(j)
        return min(j, len(self._ranges))

    def candidate_ids(self, j: int) -> np.ndarray:
        self.ensure(j)
        parts = [self._rep.order[lo:hi] for lo, hi in self._ranges[: self.probes_used(j)]]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)


class _ProbeCache:
    """Lazy per-query probe state, shared across all settings the scheduler tries."""

    def __init__(self, index: MultiLevelIndex, q: np.ndarray):
        self._index = index
        self._q = q
        self._seqs: dict[tuple[int, int], ProbeSequence] = {}
        self._levels: dict[tuple[int, int], _LevelProbes] = {}

    def seq(self, rep: int, slot: int) -> ProbeSequence:
        key = (rep, slot)
        if key not in self._seqs:
            fn = self._index.repetitions[rep].functions[slot]
            self._seqs[key] = probe_sequence(fn, self._q)
        return self._seqs[key]

    def level(self, rep: int, k: int) -> _LevelProbes:
        key = (rep, k)
        if key not in self._levels:
            seqs = [self.seq(rep, s) for s in range(k)]
            self._levels[key] = _LevelProbes(self._index.repetitions[rep], seqs)
        return self._levels[key]


def _reps_clamped(calibration, k: int, j: int, rep_cap: int) -> int:
    p = calibration.probe_probability(k, j)
    if p <= 0.0:
        return rep_cap
    return max(1, min(reps(k, j, p), rep_cap))


def cost(k: int, j: int, calibration, rep_cap: int) -> float:
    """Scheduler cost estimate for setting (k, j): probes times repetitions."""
    return float(j * _reps_clamped(calibration, k, j, rep_cap))


def _setting_work(index: MultiLevelIndex, cache: _ProbeCache, k: int, j: int) -> float:
    """True candidate work of setting (k, j): per consulted repetition, one
    unit per probe plus the size of each probed bucket."""
    r_count = _reps_clamped(index.params.calibration, k, j, index.num_repetitions)
    return sum(cache.level(rep, k).work(j) for rep in range(r_count))


def work_estimate(
    index: MultiLevelIndex, q: np.ndarray, k: int, j: int, cache: _ProbeCache | None = None
) -> float:
    """True candidate work of setting (k, j); j must lie within the calibrated
    probe budget."""
    index.params.calibration.ensure_probes(j)
    return _setting_work(index, cache or _ProbeCache(index, q), k, j)


def _check_query(index_dim: int, q: np.ndarray, radius: float) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 1 or q.shape[0] != index_dim:
        raise ValueError(f"query has shape {q.shape}, expected ({index_dim},)")
    if not np.all(np.isfinite(q)):
        raise ValueError("query contains non-finite values")
    if not 0.0 <= radius <= 2.0:
        raise ValueError(f"radius must lie in [0, 2], got {radius}")
    return q


def _scan_candidates(
    index: MultiLevelIndex, q: np.ndarray, radius: float, cand: np.ndarray
) -> tuple[tuple[int, ...], tuple[float, ...]]:
    if cand.size == 0:
        return (), ()
    diff = index.dataset.matrix[cand] - q[None, :]
    dists = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    keep = dists <= radius
    ids = cand[keep]
    out = dists[keep]
    order = np.argsort(ids)
    return tuple(int(i) for i in ids[order]), tuple(float(v) for v in out[order])


def _brute_report(
    matrix: np.ndarray, q: np.ndarray, radius: float, mode: str, examined: tuple, t0: float
) -> QueryReport:
    n = matrix.shape[0]
    diff = matrix - q[None, :]
    dists = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    keep = np.where(dists <= radius)[0]
    return QueryReport(
        ids=tuple(int(i) for i in keep),
        distances=tuple(float(v) for v in dists[keep]),
        t_reported=int(keep.size),
        work_examined=float(n),
        buckets_probed=0,
        k_best=0,
        j_best=0,
        w_best=float(n),
        wall_time=time.perf_counter() - t0,
        mode=mode,
        examined=examined,
    )


def _finish(
    index: MultiLevelIndex,
    q: np.ndarray,
    radius: float,
    cache: _ProbeCache,
    k_best: int,
    j_best: int,
    w_best: float,
    examined: list,
    mode: str,
    t0: float,
) -> QueryReport:
    if k_best == 0:
        return _brute_report(index.dataset.matrix, q, radius, mode, tuple(examined), t0)
    r_count = _reps_clamped(index.params.calibration, k_best, j_best, index.num_repetitions)
    parts = []
    buckets = 0
    for rep in range(r_count):
        lp = cache.level(rep, k_best)
        parts.append(lp.candidate_ids(j_best))
        buckets += lp.probes_used(j_best)
    cand = np.unique(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)
    ids, dists = _scan_candidates(index, q, radius, cand)
    return QueryReport(
        ids=ids,
        distances=dists,
        t_reported=len(ids),
        work_examined=w_best,
        buckets_probed=buckets,
        k_best=k_best,
        j_best=j_best,
        w_best=w_best,
        wall_time=time.perf_counter() - t0,
        mode=mode,
        examined=tuple(examined),
    )


def _schedule(
    index: MultiLevelIndex,
    q: np.ndarray,
    radius: float | None,
    multi_probe: bool,
    mode: str,
) -> QueryReport:
    t0 = time.perf_counter()
    cal = index.params.calibration
    if radius is None:
        radius = cal.r
    q = _check_query(index.dataset.dim, q, radius)
    K = index.levels
    R = index.num_repetitions
    n = index.size
    cache = _ProbeCache(index, q)

    w_best = float(n)
    k_best, j_best = 0, 0
    examined: list[ExaminedSetting] = []
    heap: list[tuple[float, int, int]] = []
    visited: set[tuple[int, int]] = set()

    def push(k: int, j: int) -> None:
        heapq.heappush(heap, (cost(k, j, cal, R), k, j))
        visited.add((k, j))

    push(1, 1)
    while heap and heap[0][0] < w_best:
        c, k, j = heapq.heappop(heap)
        w = _setting_work(index, cache, k, j)
        examined.append(ExaminedSetting(k, j, c, w))
        if w < w_best:
            w_best, k_best, j_best = w, k, j
        if j == 1 and k < K and (k + 1, 1) not in visited:
            push(k + 1, 1)
        # any setting with j' probes costs at least j', so successors past
        # the current best work can never be examined and need not be queued;
        # the probe budget ends where the calibrated table does
        if multi_probe and j < cal.max_probes and (k, j + 1) not in visited and j + 1 < w_best:
            push(k, j + 1)

    return _finish(index, q, radius, cache, k_best, j_best, w_best, examined, mode, t0)


def adaptive_multiprobe(
    index: MultiLevelIndex, q: np.ndarray, radius: float | None = None
) -> QueryReport:
    """Range query with adaptive level and probe-count selection.

    With radius omitted, the calibrated radius is used. Reported points are
    always true range members; the scheduler only decides how much of the
    index to look at.
    """
    return _schedule(index, q, radius, multi_probe=True, mode="adaptive")


def single_probe_adaptive(
    index: MultiLevelIndex, q: np.ndarray, radius: float | None = None
) -> QueryReport:
    """Adaptive level selection with exactly one probe per repetition."""
    return _schedule(index, q, radius, multi_probe=False, mode="single")


def fixed_level_query(
    index: MultiLevelIndex, q: np.ndarray, radius: float | None, k: int, j: int
) -> QueryReport:
    """Range query pinned to setting (k, j); no adaptivity.

    Useful as a baseline: the adaptive scheduler should never examine more
    work than the best fixed setting by more than its exploration overhead.
    """
    t0 = time.perf_counter()
    cal = index.params.calibration
    if radius is None:
        radius = cal.r
    q = _check_query(index.dataset.dim, q, radius)
    if not 1 <= k <= index.levels:
        raise ValueError(f"level {k} outside 1..{index.levels}")
    cal.ensure_probes(j)
    cache = _ProbeCache(index, q)
    w = _setting_work(index, cache, k, j)
    examined = [ExaminedSetting(k, j, cost(k, j, cal, index.num_repetitions), w)]
    return _finish(index, q, radius, cache, k, j, w, examined, "fixed", t0)


def brute_force_range(dataset: Dataset, q: np.ndarray, radius: float) -> QueryReport:
    """Exact range reporting by full scan; the reference the index is judged against."""
    t0 = time.perf_counter()
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 1 or q.shape[0] != dataset.dim:
        raise ValueError(f"query has shape {q.shape}, expected ({dataset.dim},)")
    if radius < 0.0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    return _brute_report(dataset.matrix, q, radius, "brute", (), t0)
