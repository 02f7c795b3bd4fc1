"""Monte-Carlo calibration of a hash family at a chosen radius.

Calibration measures three things: p1, the collision probability of pairs at
distance r; p2, the same at distance c * r; and a probe-success table whose
(k, j) entry is the probability that a point at distance r from the query
lands on one of the first j tuples of the query's k-slot multi-probe
enumeration. Everything downstream (depth, repetition counts, query
scheduling) is derived from these measurements, which is what makes the
index parameter-free.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .families import (
    CodeEnumerator,
    FamilyParams,
    derived_rng,
    derived_seed,
    hash_batch,
    project,
    rank_projections,
    sample_hash_function,
)
from .geometry import uniform_unit_vectors, unit_vectors_orthogonal_to

_TAG_NEAR = 11
_TAG_FAR = 12
_TAG_TABLE_FN = 21
_TAG_TABLE_PAIR = 22
_TAG_EST_FN = 31
_TAG_EST_PAIR = 32

_MIN_TRIALS = 1000


class CalibrationError(RuntimeError):
    """Raised when measured probabilities cannot support an index build."""


# what reading a parsed but malformed document with from_json_dict can raise
DOCUMENT_ERRORS = (AttributeError, KeyError, TypeError, ValueError, OverflowError, CalibrationError)


@dataclass(frozen=True)
class CollisionEstimate:
    probability: float
    std_error: float
    trials: int


def _pairs_at_distance(
    rng: np.random.Generator, dim: int, count: int, dist: float
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform pairs of unit vectors at exact Euclidean distance `dist`.

    The partner is built by rotating the anchor toward a random orthogonal
    direction; at dist == 0 the arc collapses and the partner is the anchor
    itself, bit for bit.
    """
    x = uniform_unit_vectors(rng, count, dim)
    theta = math.acos(min(1.0, max(-1.0, 1.0 - dist * dist / 2.0)))
    u = unit_vectors_orthogonal_to(rng, x)
    y = math.cos(theta) * x + math.sin(theta) * u
    return x, y


def _cluster_std_error(hits: Sequence[int], sizes: Sequence[int], p: float) -> float:
    """Standard error of a pooled proportion whose batches share a hash function.

    Pairs inside a batch are correlated through the shared function, so the
    batch is the independent unit and the variance is taken over batch
    residuals rather than single pairs.
    """
    B = len(sizes)
    n = sum(sizes)
    if B < 2:
        return math.sqrt(max(p * (1.0 - p), 0.0) / n)
    resid_sq = sum((h - m * p) ** 2 for h, m in zip(hits, sizes))
    return math.sqrt(resid_sq * B / (B - 1)) / n


def estimate_collision_prob(
    params: FamilyParams,
    dist: float,
    trials: int,
    seed: int,
    batch_size: int = 256,
) -> CollisionEstimate:
    """Fraction of random pairs at distance `dist` that share a bucket.

    Each batch draws a fresh hash function so the estimate averages over the
    family as well as over pair positions. At dist == 0 the result is 1.0
    exactly, because the sampler returns identical partners.
    """
    if not 0.0 <= dist <= 2.0:
        raise ValueError(f"distance must lie in [0, 2], got {dist}")
    if trials < _MIN_TRIALS:
        raise ValueError(f"need at least {_MIN_TRIALS} trials, got {trials}")
    sizes = [batch_size] * (trials // batch_size)
    if trials % batch_size:
        sizes.append(trials % batch_size)
    hits = []
    for b, m in enumerate(sizes):
        h = sample_hash_function(params, derived_seed(seed, _TAG_EST_FN, b))
        rng = derived_rng(seed, _TAG_EST_PAIR, b)
        x, y = _pairs_at_distance(rng, params.dim, m, dist)
        hits.append(int(np.sum(hash_batch(h, x) == hash_batch(h, y))))
    p = sum(hits) / trials
    return CollisionEstimate(p, _cluster_std_error(hits, sizes, p), trials)


def rho(p1: float, p2: float) -> float:
    """Quality exponent log(1/p1) / log(1/p2) of a near/far probability pair."""
    if not 0.0 < p2 < 1.0:
        raise ValueError(f"p2 must lie in (0, 1), got {p2}")
    if not 0.0 < p1 <= 1.0:
        raise ValueError(f"p1 must lie in (0, 1], got {p1}")
    if p1 < p2:
        raise ValueError(f"p1={p1} must be >= p2={p2}")
    return math.log(1.0 / p1) / math.log(1.0 / p2)


def theoretical_rho(space: str, c: float) -> float:
    """Reference exponent for approximation factor c.

    1 / (2c^2 - 1) for Euclidean data and 1 / (2c - 1) for Hamming data.
    """
    if c <= 1.0:
        raise ValueError(f"approximation factor must exceed 1, got {c}")
    if space == "euclidean":
        return 1.0 / (2.0 * c * c - 1.0)
    if space == "hamming":
        return 1.0 / (2.0 * c - 1.0)
    raise ValueError(f"unknown space {space!r}, expected 'euclidean' or 'hamming'")


def edge_probabilities(
    params: FamilyParams, r: float, c: float, trials: int, seed: int
) -> tuple[CollisionEstimate, CollisionEstimate, float]:
    """Measure p1 at r and p2 at c * r; returns (near, far, usable p2).

    A far estimate of exactly 0 is clamped to 1 / trials with a warning so
    the derived depth stays finite. A near estimate at or below the far one
    means the family cannot separate the two distances and is an error.
    """
    near = estimate_collision_prob(params, r, trials, derived_seed(seed, _TAG_NEAR))
    far = estimate_collision_prob(params, c * r, trials, derived_seed(seed, _TAG_FAR))
    p2 = far.probability
    if p2 == 0.0:
        p2 = 1.0 / trials
        warnings.warn(
            f"no far collisions observed at distance {c * r:.4g}; clamping p2 to 1/{trials}",
            stacklevel=2,
        )
    if near.probability <= p2:
        raise CalibrationError(
            f"family cannot separate r={r:.4g} from c*r={c * r:.4g}: "
            f"p1={near.probability:.4g} <= p2={p2:.4g}"
        )
    return near, far, p2


def _estimate_probe_success(
    params: FamilyParams,
    r: float,
    levels: int,
    max_probes: int,
    trials: int,
    seed: int,
    batch_size: int = 64,
) -> tuple[np.ndarray, np.ndarray]:
    """Estimate the probe-success table, rows k = 1..levels, cols j = 1..max_probes.

    All levels of one trial share the same hash functions (level k uses the
    first k of them) and the same pair, so the table is exactly a CDF along
    j and exactly non-increasing along k, not just in expectation. Batches
    share functions across pairs; standard errors are computed over batches.
    """
    sizes = [batch_size] * (trials // batch_size)
    if trials % batch_size:
        sizes.append(trials % batch_size)
    per_batch = np.zeros((len(sizes), levels, max_probes), dtype=np.int64)
    for b, m in enumerate(sizes):
        fns = [
            sample_hash_function(params, derived_seed(seed, _TAG_TABLE_FN, b, s))
            for s in range(levels)
        ]
        rng = derived_rng(seed, _TAG_TABLE_PAIR, b)
        data, query = _pairs_at_distance(rng, params.dim, m, r)

        data_codes = np.empty((m, levels), dtype=np.int64)
        rankings = []
        ranks = np.empty((m, levels), dtype=np.int64)
        rows = np.arange(m)
        for s, fn in enumerate(fns):
            data_codes[:, s] = hash_batch(fn, data)
            o, d, _ = rank_projections(params, project(fn, query))
            inv = np.empty_like(o)
            inv[rows[:, None], o] = np.arange(o.shape[1])[None, :]
            ranks[:, s] = inv[rows, data_codes[:, s]]
            # a position within max_probes never uses a slot rank past it
            rankings.append(list(zip(o[:, :max_probes].tolist(), d[:, :max_probes].tolist())))

        # per pair: its codes, its slot ranks and the query's slot rankings
        for codes, slot_ranks, slots in zip(data_codes.tolist(), ranks.tolist(), zip(*rankings)):
            for k in range(1, levels + 1):
                # a slot rank at or past the probe budget bounds the tuple's
                # position past the budget too, at this and every deeper level
                if slot_ranks[k - 1] >= max_probes:
                    break
                pos = CodeEnumerator(slots[:k]).position_of(tuple(codes[:k]), max_probes)
                if pos is None:
                    break
                per_batch[b, k - 1, pos - 1 :] += 1

    n = float(trials)
    table = per_batch.sum(axis=0) / n
    resid = per_batch - np.array(sizes, dtype=np.float64)[:, None, None] * table
    B = len(sizes)
    if B < 2:
        se = np.sqrt(np.maximum(table * (1.0 - table), 0.0) / n)
    else:
        se = np.sqrt((resid**2).sum(axis=0) * B / (B - 1)) / n
    return table, se


@dataclass(frozen=True, eq=False)
class FamilyCalibration:
    """Measured collision behavior of one family at radius r and far radius c * r.

    probe_success[k-1, j-1] is the probability that a point at distance r
    from the query appears among the first j tuples of the query's k-slot
    multi-probe enumeration. The table is non-decreasing along j and
    non-increasing along k by construction. Its width is the probe budget of
    every query on an index built from it; nothing widens it later.
    """

    params: FamilyParams
    r: float
    c: float
    p1: float
    p2: float
    rho: float
    probe_success: np.ndarray
    probe_success_se: np.ndarray
    trials: int
    seed: int
    p1_std_error: float = 0.0
    p2_std_error: float = 0.0

    def __post_init__(self) -> None:
        table = np.asarray(self.probe_success, dtype=np.float64)
        se = np.asarray(self.probe_success_se, dtype=np.float64)
        if table.ndim != 2 or table.shape[0] < 1 or table.shape[1] < 1:
            raise CalibrationError(f"probe-success table has shape {table.shape}")
        if se.shape != table.shape:
            raise CalibrationError("probe-success table and its errors disagree in shape")
        if not (0.0 < self.p2 <= self.p1 <= 1.0):
            raise CalibrationError(
                f"need 0 < p2 <= p1 <= 1, got p1={self.p1}, p2={self.p2}"
            )
        if np.any(table < 0.0) or np.any(table > 1.0):
            raise CalibrationError("probe-success values must lie in [0, 1]")
        if np.any(np.diff(table, axis=1) < 0.0):
            raise CalibrationError("probe-success table must be non-decreasing along j")
        if np.any(np.diff(table, axis=0) > 0.0):
            raise CalibrationError("probe-success table must be non-increasing along k")
        object.__setattr__(self, "probe_success", table)
        object.__setattr__(self, "probe_success_se", se)

    @property
    def levels(self) -> int:
        return int(self.probe_success.shape[0])

    @property
    def max_probes(self) -> int:
        return int(self.probe_success.shape[1])

    def probe_probability(self, k: int, j: int) -> float:
        """Table entry for level k (1-based) and probe count j (1-based)."""
        if not 1 <= k <= self.levels:
            raise ValueError(f"level {k} outside calibrated range 1..{self.levels}")
        if not 1 <= j <= self.max_probes:
            raise ValueError(f"probe count {j} outside calibrated range 1..{self.max_probes}")
        return float(self.probe_success[k - 1, j - 1])

    def ensure_probes(self, j: int) -> "FamilyCalibration":
        """This calibration, if its table covers `j` probes; never re-estimates.

        The table width is fixed when the family is calibrated, so a probe
        count past it is an error rather than a reason to sample more.
        """
        if not 1 <= j <= self.max_probes:
            raise ValueError(
                f"probe count {j} outside the calibrated range 1..{self.max_probes}; "
                "re-calibrate with a larger max_probes"
            )
        return self

    def to_json_dict(self) -> dict:
        return {
            "format": "mlslsh-calibration",
            "version": 1,
            "family": self.params.to_json_dict(),
            "d": self.params.dim,
            "r": self.r,
            "c": self.c,
            "p1": self.p1,
            "p2": self.p2,
            "rho": self.rho,
            "p1_std_error": self.p1_std_error,
            "p2_std_error": self.p2_std_error,
            "trials": self.trials,
            "seed": self.seed,
            "probe_success": self.probe_success.tolist(),
            "probe_success_se": self.probe_success_se.tolist(),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "FamilyCalibration":
        if doc.get("format") != "mlslsh-calibration":
            raise ValueError("not a calibration document")
        if doc.get("version") != 1:
            raise ValueError(f"unsupported calibration version {doc.get('version')!r}")
        return cls(
            params=FamilyParams.from_json_dict(doc["family"]),
            r=float(doc["r"]),
            c=float(doc["c"]),
            p1=float(doc["p1"]),
            p2=float(doc["p2"]),
            rho=float(doc["rho"]),
            probe_success=np.array(doc["probe_success"], dtype=np.float64),
            probe_success_se=np.array(doc["probe_success_se"], dtype=np.float64),
            trials=int(doc["trials"]),
            seed=int(doc["seed"]),
            p1_std_error=float(doc["p1_std_error"]),
            p2_std_error=float(doc["p2_std_error"]),
        )


def _check_edge_consistency(
    table: np.ndarray, se_table: np.ndarray, near: CollisionEstimate, levels: int
) -> None:
    """The first table column must agree with powers of p1 within 3 sigma.

    Both estimates target the same quantity through independent substreams,
    so a disagreement beyond combined noise indicates a broken sampler.
    Checked for the shallow levels where the comparison has statistical power.
    """
    p1 = near.probability
    for k in range(1, min(4, levels) + 1):
        expected = p1**k
        got = float(table[k - 1, 0])
        sigma = math.sqrt(
            float(se_table[k - 1, 0]) ** 2
            + (k * p1 ** (k - 1) * near.std_error) ** 2
        )
        if abs(got - expected) > 3.0 * sigma and sigma > 0.0:
            raise CalibrationError(
                f"probe-success check failed at k={k}: table says {got:.5g}, "
                f"p1^k says {expected:.5g}, 3 sigma is {3 * sigma:.5g}"
            )


def calibrate(
    params: FamilyParams,
    r: float,
    c: float,
    levels: int,
    max_probes: int,
    trials: int,
    seed: int,
    edges: tuple[CollisionEstimate, CollisionEstimate, float] | None = None,
) -> FamilyCalibration:
    """Measure p1, p2, rho, and the probe-success table for one family.

    Deterministic for a fixed seed; the far probability is clamped away from
    zero (with a warning) and an inseparable pair of radii raises. A caller
    that already ran edge_probabilities(params, r, c, trials, seed) passes
    its result as `edges`, which is then used instead of measuring again.
    """
    if not 0.0 < r < 2.0:
        raise ValueError(f"radius must lie in (0, 2), got {r}")
    if c <= 1.0:
        raise ValueError(f"approximation factor must exceed 1, got {c}")
    if c * r > 2.0:
        raise ValueError(
            f"far distance c*r = {c * r:.4g} exceeds the sphere diameter; "
            "shrink r or c"
        )
    if levels < 1:
        raise ValueError(f"need at least one level, got {levels}")
    if max_probes < 1:
        raise ValueError(f"need at least one probe, got {max_probes}")
    near, far, p2 = edges or edge_probabilities(params, r, c, trials, seed)
    table, se_table = _estimate_probe_success(params, r, levels, max_probes, trials, seed)
    _check_edge_consistency(table, se_table, near, levels)
    return FamilyCalibration(
        params=params,
        r=r,
        c=c,
        p1=near.probability,
        p2=p2,
        rho=rho(near.probability, p2),
        probe_success=table,
        probe_success_se=se_table,
        trials=trials,
        seed=seed,
        p1_std_error=near.std_error,
        p2_std_error=far.std_error,
    )
