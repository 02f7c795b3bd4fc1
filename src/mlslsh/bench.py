"""Benchmark harness: dataset ingest, cached calibration, query sweeps, scaling fits.

Per-query records never include wall-clock times, so reports are reproducible
bit for bit under a fixed seed; timing lives in a separate section that is
not part of the determinism contract.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import tempfile
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .calibration import (
    DOCUMENT_ERRORS,
    CollisionEstimate,
    FamilyCalibration,
    calibrate,
    check_max_probes,
    edge_probabilities,
)
from .families import FamilyParams
from .geometry import Dataset, checked_int, generate_planted_instance, map_query
from .geometry import normalize_dataset, range_scan
from .index import MultiLevelIndex, build_index, check_space_budget, compute_k
from .query import MODES, run_query


def read_fvecs(path: str) -> np.ndarray:
    """Read an .fvecs file: records of int32 dimension then that many float32s.

    The file is viewed as one (n, d + 1) array of records sized by the first
    header; the first record whose header differs, or a partial record at
    the end, is reported with its byte offset. A file whose first record
    does not fit, such as a CSV read as .fvecs, is also told the dimension
    its header announces.
    """
    with open(path, "rb") as f:
        buf = f.read()
    if not buf:
        raise ValueError(f"{path}: empty file")
    if len(buf) < 4:
        raise ValueError(f"{path}: truncated record header at byte 0")
    dim = int.from_bytes(buf[:4], "little", signed=True)
    if dim <= 0:
        raise ValueError(f"{path}: invalid dimension {dim} at byte 0")
    width = dim + 1
    n = len(buf) // (4 * width)
    records = np.frombuffer(buf, dtype="<i4", count=n * width).reshape(n, width)
    bad = np.flatnonzero(records[:, 0] != dim)
    offset = 4 * width * (int(bad[0]) if bad.size else n)
    if offset == len(buf):
        return records[:, 1:].view("<f4").astype(np.float64)
    if offset + 4 > len(buf):
        raise ValueError(f"{path}: truncated record header at byte {offset}")
    d = int.from_bytes(buf[offset : offset + 4], "little", signed=True)
    if d <= 0:
        raise ValueError(f"{path}: invalid dimension {d} at byte {offset}")
    if d != dim:
        raise ValueError(f"{path}: dimension changed from {dim} to {d} at byte {offset}")
    if offset:
        raise ValueError(f"{path}: truncated vector data at byte {offset + 4}")
    raise ValueError(
        f"{path}: truncated vector data at byte 4; the header at byte 0 announces dimension "
        f"{dim}, more than the file's {len(buf)} bytes hold (CSV input needs --format csv)"
    )


def read_csv(path: str) -> np.ndarray:
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = [float(tok) for tok in line.split(",")]
            except ValueError as e:
                raise ValueError(f"{path}: line {lineno}: {e}") from e
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ValueError(
                    f"{path}: line {lineno}: expected {width} values, got {len(row)}"
                )
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.array(rows, dtype=np.float64)


def load_vectors(path: str, fmt: str) -> np.ndarray:
    if fmt == "fvecs":
        return read_fvecs(path)
    if fmt == "csv":
        return read_csv(path)
    raise ValueError(f"unknown input format {fmt!r}, expected 'fvecs' or 'csv'")


class WrongAnswerError(RuntimeError):
    """Raised when a query reports a point outside the true range."""


# the counts of a `BenchConfig` and the least value of each
_COUNTS = {
    "seed": None, "synthetic_n": 1, "synthetic_d": 2, "planted": 0, "num_queries": 1,
    "cap_count": None, "trials": 1, "fixed_level": 1, "fixed_probes": 1,
}


@dataclass(frozen=True)
class BenchConfig:
    radius: float
    approx_c: float
    seed: int = 0
    input_path: str | None = None
    input_format: str = "fvecs"
    synthetic_n: int | None = None
    synthetic_d: int | None = None
    planted: int = 10
    num_queries: int = 100
    space_budget: int | None = None
    family_kind: str = "cross_polytope"
    cap_count: int = 64
    trials: int = 20000
    max_probes: int = 16
    modes: tuple[str, ...] = ("adaptive",)
    fixed_level: int | None = None
    fixed_probes: int | None = None
    cache_dir: str | None = None

    def __post_init__(self) -> None:
        if not self.modes:
            raise ValueError("need at least one query mode")
        for m in self.modes:
            if m not in MODES:
                raise ValueError(f"unknown mode {m!r}, expected one of {MODES}")
        if "fixed" in self.modes and (
            self.fixed_level is None or self.fixed_probes is None
        ):
            raise ValueError("fixed mode needs fixed_level and fixed_probes")
        if "fixed" not in self.modes and (self.fixed_level, self.fixed_probes) != (None, None):
            raise ValueError("fixed_level and fixed_probes pin fixed mode, which modes leaves out")
        # a None is valid only where it is the field's default: no input
        # size, no pin; the trial floor of 1000 is calibration's own rule
        optional = {f.name for f in fields(self) if f.default is None}
        for name, least in _COUNTS.items():
            if (value := getattr(self, name)) is not None or name not in optional:
                object.__setattr__(self, name, checked_int(name, value, least))
        object.__setattr__(self, "max_probes", check_max_probes(self.max_probes))
        object.__setattr__(self, "space_budget", check_space_budget(self.space_budget))

    def to_json_dict(self) -> dict:
        """Every field but the cache directory, which changes no result."""
        return _fields_json(self, skip=("cache_dir",))


def _fields_json(obj, skip: tuple[str, ...] = ()) -> dict:
    """The dataclass fields of obj, but `skip`, as JSON values: tuples become lists."""
    return {
        f.name: list(v) if isinstance(v := getattr(obj, f.name), tuple) else v
        for f in fields(obj)
        if f.name not in skip
    }


def prepare_instance(
    config: BenchConfig,
) -> tuple[Dataset, np.ndarray, tuple[frozenset[int], ...]]:
    """Dataset, the (m, d) matrix of mapped query rows, and exact ground truth
    for one benchmark run.

    Synthetic runs plant near neighbors; file runs hold out the last
    num_queries rows as queries and index the rest, mapping the held-out rows
    with the training centroid. This is the one reader of the input fields,
    so a config that names no input fails here.
    """
    if config.input_path is None:
        if config.synthetic_n is None or config.synthetic_d is None:
            raise ValueError("need either input_path or synthetic_n and synthetic_d")
        inst = generate_planted_instance(
            n=config.synthetic_n,
            d=config.synthetic_d,
            r=config.radius,
            t=config.planted,
            seed=config.seed,
            num_queries=config.num_queries,
        )
        return inst.dataset, np.array([q.coords for q in inst.queries]), inst.ground_truth
    raw = load_vectors(config.input_path, config.input_format)
    if raw.shape[0] <= config.num_queries:
        raise ValueError(
            f"{raw.shape[0]} rows cannot supply {config.num_queries} held-out queries"
        )
    train, held = raw[: -config.num_queries], raw[-config.num_queries :]
    dataset = normalize_dataset(train)
    queries = []
    for i, row in enumerate(held, len(train)):
        try:
            queries.append(map_query(dataset, row))
        except ValueError as e:
            raise ValueError(f"held-out query row {i}: {e}") from e
    queries = np.array(queries)
    truth = tuple(
        frozenset(int(v) for v in range_scan(dataset.matrix, q, config.radius)[0])
        for q in queries
    )
    return dataset, queries, truth


def default_cache_dir() -> str:
    env = os.environ.get("MLSLSH_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "mlslsh")


def calibrate_cached(
    params: FamilyParams,
    r: float,
    c: float,
    levels: int,
    max_probes: int,
    trials: int,
    seed: int,
    cache_dir: str | None = None,
    edges: tuple[CollisionEstimate, CollisionEstimate, float] | None = None,
) -> FamilyCalibration:
    """Calibrate with an on-disk cache keyed by every input.

    Cache hits skip the Monte-Carlo run entirely. An entry that is unreadable,
    malformed, or made from other inputs than the request falls back to
    recomputation and is rewritten. `edges`, the caller's edge_probabilities
    result for the same inputs, spares a recomputation from measuring it again.
    The counts pass `checked_int` before the key is made from them.
    """
    counts = {"levels": levels, "max_probes": max_probes, "trials": trials}
    levels, max_probes, trials = (checked_int(k, v, 1) for k, v in counts.items())
    seed = checked_int("seed", seed)
    cache_dir = cache_dir or default_cache_dir()
    key_doc = {
        "family": params.to_json_dict(),
        "r": r,
        "c": c,
        "levels": levels,
        "max_probes": max_probes,
        "trials": trials,
        "seed": seed,
    }
    digest = hashlib.sha256(
        json.dumps(key_doc, sort_keys=True).encode("utf-8")
    ).hexdigest()[:24]
    path = os.path.join(cache_dir, f"cal-{digest}.json")
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as f:
                found = FamilyCalibration.from_json_dict(json.load(f))
            made_from = (found.params, found.r, found.c, found.levels, found.max_probes,
                         found.trials, found.seed)
            if made_from == (params, r, c, levels, max_probes, trials, seed):
                return found
        except (OSError, *DOCUMENT_ERRORS):
            pass  # unreadable, or parsed but malformed: recompute and rewrite
    cal = calibrate(params, r, c, levels, max_probes, trials, seed, edges)
    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            json.dump(cal.to_json_dict(), f)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return cal


def _calibrate_for_size(config: BenchConfig, dim: int, n: int) -> FamilyCalibration:
    """Calibrate the configured family in `dim` dimensions as deep as n points need.

    The edge probabilities size the depth and then go into the calibration,
    so a set-up measures them once. Every count of the config, the space
    budget and the probe budget too, was checked when the config was made,
    so a bad one fails before any Monte Carlo runs.
    """
    params = FamilyParams(kind=config.family_kind, dim=dim, cap_count=config.cap_count)
    edges = edge_probabilities(
        params, config.radius, config.approx_c, config.trials, config.seed
    )
    return calibrate_cached(
        params,
        config.radius,
        config.approx_c,
        levels=compute_k(n, edges[2]),
        max_probes=config.max_probes,
        trials=config.trials,
        seed=config.seed,
        cache_dir=config.cache_dir,
        edges=edges,
    )


def build_for_config(config: BenchConfig, dataset: Dataset) -> MultiLevelIndex:
    """Measure the edge probabilities, size the depth, calibrate, and build."""
    cal = _calibrate_for_size(config, dataset.dim, dataset.size)
    return build_index(
        dataset, cal, space_budget=config.space_budget, seed=config.seed
    )


def recompute_aggregates(records: list[dict]) -> dict:
    """Aggregates derived purely from the per-query records.

    run_benchmark produces its aggregates through this same function, so a
    reader can always re-derive them from the records file and match exactly.
    """
    by_mode: dict[str, list[dict]] = {}
    for rec in records:
        by_mode.setdefault(rec["mode"], []).append(rec)
    out = {}
    for mode, recs in sorted(by_mode.items()):
        recalls = np.array([r["recall"] for r in recs], dtype=np.float64)
        work = np.array([r["work_examined"] for r in recs], dtype=np.float64)
        buckets = np.array([r["buckets_probed"] for r in recs], dtype=np.float64)
        reported = np.array([r["t_reported"] for r in recs], dtype=np.float64)
        out[mode] = {
            "num_queries": len(recs),
            "mean_recall": float(np.mean(recalls)),
            "median_recall": float(np.median(recalls)),
            "mean_work": float(np.mean(work)),
            "mean_buckets": float(np.mean(buckets)),
            "mean_reported": float(np.mean(reported)),
        }
    return out


@dataclass(frozen=True)
class BenchReport:
    config: BenchConfig
    environment: dict
    aggregates: dict
    timing: dict
    records: list = field(repr=False)

    def to_json_dict(self) -> dict:
        return {
            "format": "mlslsh-bench",
            "version": 1,
            "config": self.config.to_json_dict(),
            "environment": self.environment,
            "aggregates": self.aggregates,
            "timing": self.timing,
            "num_records": len(self.records),
        }


def _environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def _run_queries(
    config: BenchConfig, mode: str, index: MultiLevelIndex | None, instance: tuple
) -> tuple[list[dict], list[float]]:
    """Answer every query of a `prepare_instance` result in one mode;
    returns its records and wall times.

    Every answer is checked against the ground truth: a reported id outside
    the true range raises WrongAnswerError, and the record carries the
    recall.
    """
    dataset, queries, truth = instance
    fixed = (config.fixed_level, config.fixed_probes)
    records, walls = [], []
    for qi, (q, gt) in enumerate(zip(queries, truth)):
        report = run_query(mode, index, dataset, q, config.radius, fixed)
        walls.append(report.wall_time)
        extra = set(report.ids) - gt
        if extra:
            raise WrongAnswerError(
                f"mode {mode} reported non-members {sorted(extra)[:5]} for query {qi}"
            )
        recall = len(set(report.ids) & gt) / len(gt) if gt else 1.0
        rec = {"mode": mode, "query": qi, "recall": recall}
        rec.update(report.to_json_dict(include_timing=False))
        records.append(rec)
    return records, walls


def run_benchmark(config: BenchConfig) -> BenchReport:
    instance = prepare_instance(config)
    index = None
    if any(m != "brute" for m in config.modes):
        index = build_for_config(config, instance[0])
    records = []
    timing: dict[str, dict] = {}
    for mode in config.modes:
        recs, walls = _run_queries(config, mode, index, instance)
        records += recs
        timing[mode] = {
            "total_wall_time": float(sum(walls)),
            "mean_wall_time": float(sum(walls) / len(walls)),
        }
    return BenchReport(
        config=config,
        environment=_environment(),
        aggregates=recompute_aggregates(records),
        timing=timing,
        records=records,
    )


def write_report(report: BenchReport, path: str) -> str:
    """Write the report JSON to `path` and the records beside it; returns the
    records path."""
    base, _ = os.path.splitext(path)
    records_path = base + ".records.jsonl"
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report.to_json_dict(), f, indent=2, sort_keys=True)
        f.write("\n")
    with open(records_path, "w", encoding="utf-8") as f:
        for rec in report.records:
            f.write(json.dumps(rec, sort_keys=True))
            f.write("\n")
    return records_path


@dataclass(frozen=True)
class TrendReport:
    mode: str
    sizes: tuple[int, ...]
    mean_work: tuple[float, ...]
    mean_reported: tuple[float, ...]
    exponent: float
    output_dominated: tuple[bool, ...]

    def to_json_dict(self) -> dict:
        return {"format": "mlslsh-trend", "version": 1, **_fields_json(self)}


def scaling_trend(sizes: list[int], config: BenchConfig) -> TrendReport:
    """Fit ln(mean work - mean output) against ln(n) across dataset sizes.

    Each size is a planted instance made by `prepare_instance` with
    synthetic_n set to it, and every answer is checked against its ground
    truth as `run_benchmark` checks it. Uses one calibration sized for the
    largest n, so smaller builds reuse it. Sizes must be roughly geometric:
    at least three, each step growing by 1.2x or more, with the largest step
    at most twice the smallest.
    """
    if len(sizes) < 3:
        raise ValueError(f"need at least three sizes, got {len(sizes)}")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"sizes must be strictly increasing, got {sizes}")
    ratios = [b / a for a, b in zip(sizes, sizes[1:])]
    if min(ratios) < 1.2:
        raise ValueError(
            f"consecutive sizes must grow by at least 1.2x, got ratios {ratios}"
        )
    if max(ratios) / min(ratios) > 2.0:
        raise ValueError(
            f"sizes must be roughly geometric; step ratios {ratios} vary too much"
        )
    if len(config.modes) != 1:
        raise ValueError("scaling trend needs exactly one query mode")
    if config.input_path is not None or config.synthetic_d is None:
        raise ValueError(
            "scaling trend runs on synthetic instances; set synthetic_d and no input_path"
        )
    mode = config.modes[0]

    cal = None
    if mode != "brute":
        cal = _calibrate_for_size(config, config.synthetic_d, max(sizes))

    mean_work = []
    mean_reported = []
    for n in sizes:
        instance = prepare_instance(replace(config, synthetic_n=n))
        index = None
        if mode != "brute":
            index = build_index(
                instance[0], cal, space_budget=config.space_budget, seed=config.seed
            )
        records, _ = _run_queries(config, mode, index, instance)
        means = recompute_aggregates(records)[mode]
        mean_work.append(means["mean_work"])
        mean_reported.append(means["mean_reported"])

    xs = np.log(np.array(sizes, dtype=np.float64))
    overhead = np.array(mean_work) - np.array(mean_reported)
    if np.any(overhead <= 0.0):
        raise ValueError(
            "mean work does not exceed mean output size at some sizes; "
            "the fit would be degenerate"
        )
    ys = np.log(overhead)
    slope = float(np.polyfit(xs, ys, 1)[0])
    dominated = tuple(
        bool(t >= 0.5 * w) for t, w in zip(mean_reported, mean_work)
    )
    return TrendReport(
        mode=mode,
        sizes=tuple(int(n) for n in sizes),
        mean_work=tuple(mean_work),
        mean_reported=tuple(mean_reported),
        exponent=slope,
        output_dominated=dominated,
    )
