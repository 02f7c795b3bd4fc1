"""Adaptive query scheduling over a multi-level index.

A query setting is a pair (k, j): consult level k and probe j code tuples
per repetition. The scheduler walks settings in order of increasing cost
estimate j * reps(k, j), an order the index builds once and every query
shares, measures the true candidate work of each, and stops at the first
setting whose cost reaches the best work seen. Before it measures a
multi-probe setting it checks a tighter lower bound taken from the spine,
the query's own bucket at every level of every repetition, which the query
reads anyway: each consulted repetition costs its own bucket plus one unit
for each further probe. A setting whose bound reaches the best work
cannot replace it and is skipped unmeasured, so pruning changes the trace
but never the answer. Probe counts never pass the calibrated table width, so
a query never re-estimates the table and its work is bounded before it
starts. A brute-force scan is the standing fallback, so the reported work
never exceeds n.

All four modes check the query row and the radius in one function and build
their report in another. Adaptive and single-probe queries run the
scheduler, a fixed query pins one setting, and brute force reports the
full-scan setting (0, 0) without an index; `run_query` picks a mode by name.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .families import CodeEnumerator, bucket_codes, rank_projections
# not called here; perfbench/spans.py wraps query.probe_sequence by name
from .families import probe_sequence  # noqa: F401
from .geometry import Dataset
from .index import MultiLevelIndex, consulted_reps


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

    One matmul projects the query on all R * K hash functions. The query's
    own bucket ids then give the spine, its own bucket at every level of
    every repetition, in one key-range lookup per repetition; that is all a
    single-probe setting reads, and a running sum over repetitions turns it
    into the work of every single-probe setting and a lower bound on every
    other. The first setting past one probe ranks every slot with one
    row-wise argsort, and a CodeEnumerator per (repetition, level) walks
    further probes from there, each one key-range lookup.
    """

    def __init__(self, index: MultiLevelIndex, q: np.ndarray):
        self._index = index
        self._proj = index.directions @ np.asarray(q, dtype=np.float64)
        own = bucket_codes(index.params.family, self._proj)
        self._lo, self._hi = index.level_ranges(own.reshape(index.num_repetitions, index.levels))
        # spine[r, k - 1]: one unit plus the own bucket, summed over
        # repetitions 0..r at level k
        self._spine = np.cumsum(1 + self._hi - self._lo, axis=0)
        # one (buckets, deficits) list pair per slot, built on first use
        self._rankings: list[tuple[list, list]] | None = None
        # (rep, k) -> its enumerator, bucket runs and running work
        self._walks: dict[tuple[int, int], tuple[CodeEnumerator, list, list]] = {}

    def _reps(self, k: int, j: int) -> int:
        return int(self._index.reps_table[k - 1, j - 1])

    def _walk(self, rep: int, k: int, j: int) -> tuple[list, list]:
        """Sorted runs of the buckets that the first j probes of repetition
        `rep` reach at level k, fewer if a tiny code universe runs out, and
        the running work over them: one unit per probe plus the bucket size."""
        if (rep, k) not in self._walks:
            if self._rankings is None:
                orders, deficits, _ = rank_projections(self._index.params.family, self._proj)
                # j <= max_probes here, and the first j tuples never use a
                # slot rank past j - 1
                width = self._index.params.calibration.max_probes
                self._rankings = list(zip(orders[:, :width].tolist(), deficits[:, :width].tolist()))
            first = rep * self._index.levels
            lo, hi = int(self._lo[rep, k - 1]), int(self._hi[rep, k - 1])
            enum = CodeEnumerator(self._rankings[first : first + k])
            self._walks[rep, k] = enum, [(lo, hi)], [0, 1 + hi - lo]
        enum, runs, cum = self._walks[rep, k]
        if len(runs) < j:
            repetition = self._index.repetitions[rep]
            for code in enum.first(j)[len(runs) :]:
                lo, hi = repetition.prefix_range(code)
                runs.append((lo, hi))
                cum.append(cum[-1] + 1 + hi - lo)
        return runs, cum

    def lower_bound(self, k: int, j: int) -> float:
        """A lower bound on work(k, j), equal to it at j = 1.

        The first probe of each consulted repetition is its own bucket, and
        each further probe costs at least one unit; there are j - 1 of them
        unless the U^k codes of level k run out first.
        """
        r_count = self._reps(k, j)
        probed = min(j, self._index.params.family.bucket_universe**k)
        return float(self._spine[r_count - 1, k - 1] + r_count * (probed - 1))

    def work(self, k: int, j: int) -> float:
        """True candidate work of setting (k, j): per consulted repetition,
        one unit per probe plus the size of each probed bucket."""
        if j == 1:
            return self.lower_bound(k, 1)
        total = 0
        for rep in range(self._reps(k, j)):
            runs, cum = self._walk(rep, k, j)
            total += cum[min(j, len(runs))]
        return float(total)

    def candidates(self, k: int, j: int) -> tuple[np.ndarray, int]:
        """Distinct point ids in the buckets setting (k, j) probes, and how
        many buckets that is."""
        parts = []
        for rep in range(self._reps(k, j)):
            order = self._index.repetitions[rep].order
            if j == 1:
                parts.append(order[self._lo[rep, k - 1] : self._hi[rep, k - 1]])
            else:
                parts.extend(order[lo:hi] for lo, hi in self._walk(rep, k, j)[0][:j])
        return np.unique(np.concatenate(parts)), len(parts)


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
        cand, buckets, rows = None, 0, dataset.matrix
    else:
        cand, buckets = probes.candidates(k, j)
        rows = dataset.matrix[cand]
    diff = rows - q[None, :]
    dists = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    keep = np.flatnonzero(dists <= radius)
    return QueryReport(
        ids=tuple(int(i) for i in (keep if cand is None else cand[keep])),
        distances=tuple(float(v) for v in dists[keep]),
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
    together with its trace and the number of settings it pruned."""
    t0 = time.perf_counter()
    if radius is None:
        radius = index.params.calibration.r
    q = _check_query(index.dataset.dim, q, radius)
    probes = _QueryProbes(index, q)
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
            if probes.lower_bound(k, j) >= w_best:
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

    def pinned(probes: _QueryProbes):
        if not 1 <= k <= index.levels:
            raise ValueError(f"level {k} outside 1..{index.levels}")
        index.params.calibration.ensure_probes(j)
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
