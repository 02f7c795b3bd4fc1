"""Monte-Carlo calibration of a hash family at a chosen radius.

Calibration measures three things: p1, the collision probability of pairs at
distance r; p2, the same at distance c * r; and a probe-success table whose
(k, j) entry is the probability that a point at distance r from the query
lands on one of the first j tuples of the query's k-slot probe order, the
order `families.first_tuples` defines and every query walks. Everything
downstream (depth, repetition counts, query scheduling) is derived from
these measurements, which is what makes the index parameter-free.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .families import (
    FamilyParams,
    _prefixes,
    derived_rng,
    derived_seed,
    first_tuples,
    hash_batch,
    hash_keys,
    sample_directions,
    slot_bits,
    slot_rankings,
)
from .geometry import checked_int, uniform_unit_vectors, unit_vectors_orthogonal_to

_TAG_NEAR = 11
_TAG_FAR = 12
_TAG_TABLE_FN = 21
_TAG_TABLE_PAIR = 22
_TAG_EST_FN = 31
_TAG_EST_PAIR = 32

_MIN_TRIALS = 1000
# pairs per hash function: a collision estimate and a probe-table estimate
# draw a fresh function, or K of them, for each batch of this many pairs
_COLLISION_BATCH = 256
_TABLE_BATCH = 64


class CalibrationError(RuntimeError):
    """Raised when measured probabilities cannot support an index build."""


# what reading a parsed but malformed document with from_json_dict can raise
DOCUMENT_ERRORS = (AttributeError, KeyError, TypeError, ValueError, OverflowError, CalibrationError)


def _typed(doc: dict, key: str):
    """doc[key] if it is an int or a float and not a bool, else ValueError:
    a document's numbers are read as written, never truncated."""
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be int or float, got {value!r}")
    return value


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


def _batch_sizes(trials: int, batch: int) -> list[int]:
    """Split trials into full batches and one partial last batch."""
    return [batch] * (trials // batch) + ([trials % batch] if trials % batch else [])


def _pooled(hits: np.ndarray, sizes: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Pooled proportion of a (batches, ...) array of hit counts, and its
    standard error.

    Pairs inside a batch are correlated through the shared hash function, so
    the batch is the independent unit and the variance is taken over batch
    residuals rather than single pairs. Sums run over the batches in order.
    Both callers refuse fewer than 1000 trials, so there are at least 4
    batches of a collision estimate and 16 of a probe table, never fewer
    than the 2 the variance needs.
    """
    n = float(sum(sizes))
    B = len(sizes)
    p = np.add.accumulate(hits, axis=0)[-1] / n
    m = np.array(sizes, dtype=np.float64).reshape((B,) + (1,) * (hits.ndim - 1))
    resid_sq = np.add.accumulate((hits - m * p) ** 2, axis=0)[-1]
    return p, np.sqrt(resid_sq * B / (B - 1)) / n


def estimate_collision_prob(
    params: FamilyParams,
    dist: float,
    trials: int,
    seed: int,
) -> CollisionEstimate:
    """Fraction of random pairs at distance `dist` that share a bucket.

    Each batch draws a fresh hash function so the estimate averages over the
    family as well as over pair positions. At dist == 0 the result is 1.0
    exactly, because the sampler returns identical partners.
    """
    if not 0.0 <= dist <= 2.0:
        raise ValueError(f"distance must lie in [0, 2], got {dist}")
    trials, seed = checked_int("trials", trials, _MIN_TRIALS), checked_int("seed", seed)
    sizes = _batch_sizes(trials, _COLLISION_BATCH)
    hits = np.zeros(len(sizes), dtype=np.int64)
    for b, m in enumerate(sizes):
        # one function per batch: one stack of all of them gave the same
        # estimate, but the heap it left made later queries in the process
        # about 10% slower on both perfbench workloads
        fn = sample_directions(params, [derived_seed(seed, _TAG_EST_FN, b)])[0]
        rng = derived_rng(seed, _TAG_EST_PAIR, b)
        x, y = _pairs_at_distance(rng, params.dim, m, dist)
        hits[b] = np.count_nonzero(hash_batch(params, fn, x) == hash_batch(params, fn, y))
    p, se = _pooled(hits, sizes)
    return CollisionEstimate(float(p), float(se), trials)


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


def _check_radii(r: float, c: float, error: type[Exception] = ValueError) -> None:
    """The near radius r and the far radius c * r must both lie on the
    sphere; `error` is raised when they do not."""
    if not 0.0 < r < 2.0:
        raise error(f"radius must lie in (0, 2), got {r}")
    if not c > 1.0:
        raise error(f"approximation factor must exceed 1, got {c}")
    if c * r > 2.0:
        raise error(
            f"far distance c*r = {c * r:.4g} exceeds the sphere diameter; "
            "shrink r or c"
        )


def check_max_probes(max_probes: int) -> int:
    """The probe budget, the width of the probe-success table, as a Python
    int: a positive integer, or ValueError."""
    return checked_int("max_probes", max_probes, 1)


def edge_probabilities(
    params: FamilyParams, r: float, c: float, trials: int, seed: int
) -> tuple[CollisionEstimate, CollisionEstimate, float]:
    """Measure p1 at r and p2 at c * r; returns (near, far, usable p2).

    Radii off the sphere raise before anything is measured. A far estimate
    of exactly 0 is clamped to 1 / trials with a warning so the derived
    depth stays finite. A near estimate at or below the far one means the
    family cannot separate the two distances and is an error.
    """
    _check_radii(r, c)
    seed = checked_int("seed", seed)
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
) -> tuple[np.ndarray, np.ndarray]:
    """Estimate the probe-success table, rows k = 1..levels, cols j = 1..max_probes.

    All levels of one trial share the same hash functions (level k uses the
    first k of them) and the same pair, so the table is exactly a CDF along
    j and exactly non-increasing along k, not just in expectation. Batches
    share functions across pairs; standard errors are computed over batches.
    Each batch samples its K functions as one direction stack and works on
    it the way a repetition of the index does: `hash_keys` packs the
    partners' keys, one `slot_rankings` call ranks the queries' K slots to
    `max_probes`, as far as the merge reads, and `first_tuples` runs the
    probe order once for all pairs. Level k then looks for each partner's
    level-k prefix key among the first tuples. The first j of the merge at
    `max_probes` are the merge at j, so column j measures exactly the
    probes a query of j probes, ranked and merged to its own width, walks.
    """
    sizes = _batch_sizes(trials, _TABLE_BATCH)
    per_batch = np.zeros((len(sizes), levels, max_probes), dtype=np.int64)
    bits = slot_bits(params, levels)
    for b, m in enumerate(sizes):
        stack = sample_directions(
            params, [derived_seed(seed, _TAG_TABLE_FN, b, s) for s in range(levels)]
        )
        rng = derived_rng(seed, _TAG_TABLE_PAIR, b)
        data, query = _pairs_at_distance(rng, params.dim, m, r)
        partner = _prefixes(hash_keys(params, stack, data), bits, levels)
        proj = query @ stack.reshape(-1, params.dim).T
        slots = slot_rankings(params, proj.reshape(m * levels, -1), levels, max_probes)
        for k, tuples in enumerate(first_tuples(slots, max_probes, bits), start=1):
            hits = np.count_nonzero(tuples == partner[:, k - 1 : k], axis=0)
            if not hits.any():
                break  # level k + 1 only extends these tuples, so it finds none either
            per_batch[b, k - 1] = np.cumsum(np.pad(hits, (0, max_probes - hits.size)))
    return _pooled(per_batch, sizes)


@dataclass(frozen=True, eq=False)
class FamilyCalibration:
    """Measured collision behavior of one family at radius r and far radius c * r.

    probe_success[k-1, j-1] is the probability that a point at distance r
    from the query appears among the first j tuples of the query's k-slot
    multi-probe enumeration. The table is non-decreasing along j and
    non-increasing along k by construction. Its width is the probe budget of
    every query on an index built from it; nothing widens it later. A
    calibration whose radii `_check_radii` rejects, whose table holds a value
    outside [0, 1] or a NaN, whose standard errors (the table's, p1's and
    p2's) are not finite and non-negative raises CalibrationError, so a
    document read back with `from_json_dict` holds no setting a schedule
    would have to drop and no error that `calibrate` cannot make. `trials`
    (at least 1) and `seed` pass `checked_int` and are kept as Python ints,
    so a float, a bool or a trial count below 1 raises ValueError there and
    in a document alike. `from_json_dict` reads the other numbers as
    written: a bool or a string for any of them raises ValueError. A
    negative seed is valid: derived seeds are masked to 63 bits.
    """

    params: FamilyParams
    r: float
    c: float
    p1: float
    p2: float
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
        _check_radii(self.r, self.c, CalibrationError)
        if not (0.0 < self.p2 <= self.p1 <= 1.0 and self.p2 < 1.0):
            raise CalibrationError(
                f"need 0 < p2 <= p1 <= 1 and p2 < 1, got p1={self.p1}, p2={self.p2}"
            )
        # written as "lies inside" so that a NaN fails too
        if not np.all((table >= 0.0) & (table <= 1.0)):
            raise CalibrationError("probe-success values must lie in [0, 1]")
        errors = np.append(se, [self.p1_std_error, self.p2_std_error])
        if not np.all((errors >= 0.0) & np.isfinite(errors)):
            raise CalibrationError("standard errors must be finite and non-negative")
        object.__setattr__(self, "trials", checked_int("trials", self.trials, 1))
        object.__setattr__(self, "seed", checked_int("seed", self.seed))
        if np.any(np.diff(table, axis=1) < 0.0):
            raise CalibrationError("probe-success table must be non-decreasing along j")
        if np.any(np.diff(table, axis=0) > 0.0):
            raise CalibrationError("probe-success table must be non-increasing along k")
        object.__setattr__(self, "probe_success", table)
        object.__setattr__(self, "probe_success_se", se)

    @property
    def rho(self) -> float:
        return rho(self.p1, self.p2)

    @property
    def levels(self) -> int:
        return int(self.probe_success.shape[0])

    @property
    def max_probes(self) -> int:
        return int(self.probe_success.shape[1])

    def probe_probability(self, k: int, j: int) -> float:
        """Table entry for level k (1-based) and probe count j (1-based).

        The table width is fixed when the family is calibrated, so a probe
        count past it is an error rather than a reason to sample more.
        """
        if not 1 <= k <= self.levels:
            raise ValueError(f"level {k} outside calibrated range 1..{self.levels}")
        if not 1 <= j <= self.max_probes:
            raise ValueError(
                f"probe count {j} outside the calibrated range 1..{self.max_probes}; "
                "re-calibrate with a larger max_probes"
            )
        return float(self.probe_success[k - 1, j - 1])

    def ensure_probes(self, j: int) -> "FamilyCalibration":
        """This calibration, if its table covers `j` probes; never re-estimates.
        Nothing in the library calls it; the benchmark's span tracer wraps it."""
        self.probe_probability(1, j)
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
        cal = cls(
            params=FamilyParams.from_json_dict(doc["family"]),
            r=_typed(doc, "r"),
            c=_typed(doc, "c"),
            p1=_typed(doc, "p1"),
            p2=_typed(doc, "p2"),
            probe_success=np.array(doc["probe_success"], dtype=np.float64),
            probe_success_se=np.array(doc["probe_success_se"], dtype=np.float64),
            trials=doc["trials"],
            seed=doc["seed"],
            p1_std_error=_typed(doc, "p1_std_error"),
            p2_std_error=_typed(doc, "p2_std_error"),
        )
        if checked_int("d", doc["d"]) != cal.params.dim:
            raise ValueError(f"stored d={doc['d']!r} differs from the family's dim {cal.params.dim}")
        if _typed(doc, "rho") != cal.rho:
            raise ValueError(f"stored rho={doc['rho']!r} differs from rho(p1, p2) = {cal.rho!r}")
        return cal


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

    Deterministic for a fixed seed. Before anything is measured, ValueError
    is raised for radii off the sphere (r outside (0, 2), c not above 1, or
    c * r past 2), counts that fail `checked_int` (levels and max_probes
    >= 1, trials >= 1000, any integer seed), levels whose packed keys would
    pass 63 bits, and passed `edges` whose near or far estimate was made
    from other than `trials` trials. After measuring, CalibrationError is
    raised only for an inseparable pair of radii; a far probability of 0 is
    clamped away from zero with a warning. No comparison of two Monte-Carlo
    estimates raises: the agreement of the table's first column with powers
    of p1 is checked by the test suite, not on every call. A caller that
    already ran edge_probabilities(params, r, c, trials, seed) passes its
    result as `edges`, which is then used instead of measuring again.
    """
    _check_radii(r, c)
    levels, max_probes = checked_int("levels", levels, 1), check_max_probes(max_probes)
    slot_bits(params, levels)  # the probe table packs codes of every level into one key
    trials, seed = checked_int("trials", trials, _MIN_TRIALS), checked_int("seed", seed)
    # the calibration records one trial count for p1, p2 and the table alike
    if edges is not None and (edges[0].trials, edges[1].trials) != (trials, trials):
        raise ValueError(
            f"edges were measured with {edges[0].trials} near and {edges[1].trials} far "
            f"trials, the calibration asks for {trials}"
        )
    near, far, p2 = edges or edge_probabilities(params, r, c, trials, seed)
    table, se_table = _estimate_probe_success(params, r, levels, max_probes, trials, seed)
    return FamilyCalibration(
        params=params,
        r=r,
        c=c,
        p1=near.probability,
        p2=p2,
        probe_success=table,
        probe_success_se=se_table,
        trials=trials,
        seed=seed,
        p1_std_error=near.std_error,
        p2_std_error=far.std_error,
    )
