"""Benchmark harness: dataset ingest, cached calibration, query sweeps, scaling fits.

Per-query records never include wall-clock times, so reports are reproducible
bit for bit under a fixed seed; timing lives in a separate section that is
not part of the determinism contract.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import struct
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .calibration import FamilyCalibration, calibrate, edge_probabilities
from .families import FamilyParams
from .geometry import (
    Dataset,
    UnitPoint,
    generate_planted_instance,
    map_query,
    normalize_dataset,
    range_ids,
)
from .index import MultiLevelIndex, build_index, compute_k
from .query import (
    QueryReport,
    adaptive_multiprobe,
    brute_force_range,
    fixed_level_query,
    single_probe_adaptive,
)

_MODES = ("adaptive", "single", "fixed", "brute")


def read_fvecs(path: str) -> np.ndarray:
    """Read an .fvecs file: records of int32 dimension then that many float32s."""
    with open(path, "rb") as f:
        buf = f.read()
    if not buf:
        raise ValueError(f"{path}: empty file")
    rows = []
    offset = 0
    dim = None
    while offset < len(buf):
        if offset + 4 > len(buf):
            raise ValueError(f"{path}: truncated record header at byte {offset}")
        (d,) = struct.unpack_from("<i", buf, offset)
        if d <= 0:
            raise ValueError(f"{path}: invalid dimension {d} at byte {offset}")
        if dim is None:
            dim = d
        elif d != dim:
            raise ValueError(
                f"{path}: dimension changed from {dim} to {d} at byte {offset}"
            )
        end = offset + 4 + 4 * d
        if end > len(buf):
            raise ValueError(f"{path}: truncated vector data at byte {offset + 4}")
        rows.append(np.frombuffer(buf, dtype="<f4", count=d, offset=offset + 4))
        offset = end
    return np.array(rows, dtype=np.float64)


def write_fvecs(path: str, matrix: np.ndarray) -> None:
    matrix = np.asarray(matrix, dtype=np.float32)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {matrix.shape}")
    with open(path, "wb") as f:
        for row in matrix:
            f.write(struct.pack("<i", row.shape[0]))
            f.write(row.astype("<f4").tobytes())


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


def write_csv(path: str, matrix: np.ndarray) -> None:
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {matrix.shape}")
    with open(path, "w", encoding="utf-8") as f:
        for row in matrix:
            f.write(",".join(repr(float(v)) for v in row))
            f.write("\n")


def load_vectors(path: str, fmt: str) -> np.ndarray:
    if fmt == "fvecs":
        return read_fvecs(path)
    if fmt == "csv":
        return read_csv(path)
    raise ValueError(f"unknown input format {fmt!r}, expected 'fvecs' or 'csv'")


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
        if self.input_path is None and (
            self.synthetic_n is None or self.synthetic_d is None
        ):
            raise ValueError("need either input_path or synthetic_n and synthetic_d")
        if not self.modes:
            raise ValueError("need at least one query mode")
        for m in self.modes:
            if m not in _MODES:
                raise ValueError(f"unknown mode {m!r}, expected one of {_MODES}")
        if "fixed" in self.modes and (
            self.fixed_level is None or self.fixed_probes is None
        ):
            raise ValueError("fixed mode needs fixed_level and fixed_probes")
        if self.num_queries < 1:
            raise ValueError(f"need at least one query, got {self.num_queries}")

    def to_json_dict(self) -> dict:
        return {
            "radius": self.radius,
            "approx_c": self.approx_c,
            "seed": self.seed,
            "input_path": self.input_path,
            "input_format": self.input_format,
            "synthetic_n": self.synthetic_n,
            "synthetic_d": self.synthetic_d,
            "planted": self.planted,
            "num_queries": self.num_queries,
            "space_budget": self.space_budget,
            "family_kind": self.family_kind,
            "cap_count": self.cap_count,
            "trials": self.trials,
            "max_probes": self.max_probes,
            "modes": list(self.modes),
            "fixed_level": self.fixed_level,
            "fixed_probes": self.fixed_probes,
        }


def prepare_instance(
    config: BenchConfig,
) -> tuple[Dataset, list[UnitPoint], tuple[frozenset[int], ...]]:
    """Dataset, mapped queries, and exact ground truth for one benchmark run.

    Synthetic runs plant near neighbors; file runs hold out the last
    num_queries rows as queries and index the rest, mapping the held-out rows
    with the training centroid.
    """
    if config.input_path is None:
        inst = generate_planted_instance(
            n=config.synthetic_n,
            d=config.synthetic_d,
            r=config.radius,
            t=config.planted,
            seed=config.seed,
            num_queries=config.num_queries,
        )
        return inst.dataset, list(inst.queries), inst.ground_truth
    raw = load_vectors(config.input_path, config.input_format)
    if raw.shape[0] <= config.num_queries:
        raise ValueError(
            f"{raw.shape[0]} rows cannot supply {config.num_queries} held-out queries"
        )
    train, held = raw[: -config.num_queries], raw[-config.num_queries :]
    dataset = normalize_dataset(train)
    queries = [map_query(dataset, held[i], id=i) for i in range(held.shape[0])]
    truth = tuple(
        frozenset(
            int(v) for v in range_ids(dataset.matrix, q.coords, config.radius)
        )
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
) -> FamilyCalibration:
    """Calibrate with an on-disk cache keyed by every input.

    Cache hits skip the Monte-Carlo run entirely; a corrupt or unreadable
    cache entry falls back to recomputation and is rewritten.
    """
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
                return FamilyCalibration.from_json_dict(json.load(f))
        except (ValueError, KeyError, OSError, json.JSONDecodeError):
            pass
    cal = calibrate(params, r, c, levels, max_probes, trials, seed)
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


def _family_for(config: BenchConfig, dim: int) -> FamilyParams:
    return FamilyParams(
        kind=config.family_kind, dim=dim, cap_count=config.cap_count
    )


def build_for_config(config: BenchConfig, dataset: Dataset) -> MultiLevelIndex:
    """Measure the edge probabilities, size the depth, calibrate, and build.

    The quick pre-pass shares its random substreams with the full calibration,
    so the depth it derives matches what the cached calibration would give.
    """
    params = _family_for(config, dataset.dim)
    _, _, p2 = edge_probabilities(
        params, config.radius, config.approx_c, config.trials, config.seed
    )
    K = compute_k(dataset.size, p2)
    cal = calibrate_cached(
        params,
        config.radius,
        config.approx_c,
        levels=K,
        max_probes=config.max_probes,
        trials=config.trials,
        seed=config.seed,
        cache_dir=config.cache_dir,
    )
    return build_index(
        dataset, cal, space_budget=config.space_budget, seed=config.seed
    )


def _run_one(
    mode: str,
    index: MultiLevelIndex | None,
    dataset: Dataset,
    q: UnitPoint,
    config: BenchConfig,
) -> QueryReport:
    if mode == "brute":
        return brute_force_range(dataset, q.coords, config.radius)
    if index is None:
        raise ValueError(f"mode {mode!r} needs an index")
    if mode == "adaptive":
        return adaptive_multiprobe(index, q.coords, config.radius)
    if mode == "single":
        return single_probe_adaptive(index, q.coords, config.radius)
    return fixed_level_query(
        index, q.coords, config.radius, config.fixed_level, config.fixed_probes
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


def run_benchmark(config: BenchConfig) -> BenchReport:
    dataset, queries, truth = prepare_instance(config)
    index = None
    if any(m != "brute" for m in config.modes):
        index = build_for_config(config, dataset)
    records = []
    timing: dict[str, dict] = {}
    for mode in config.modes:
        walls = []
        for qi, q in enumerate(queries):
            report = _run_one(mode, index, dataset, q, config)
            walls.append(report.wall_time)
            gt = truth[qi]
            extra = set(report.ids) - gt
            if extra:
                raise AssertionError(
                    f"mode {mode} reported non-members {sorted(extra)[:5]} for query {qi}"
                )
            recall = len(set(report.ids) & gt) / len(gt) if gt else 1.0
            rec = {"mode": mode, "query": qi, "recall": recall}
            rec.update(report.to_json_dict(include_timing=False))
            records.append(rec)
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
        return {
            "format": "mlslsh-trend",
            "version": 1,
            "mode": self.mode,
            "sizes": list(self.sizes),
            "mean_work": list(self.mean_work),
            "mean_reported": list(self.mean_reported),
            "exponent": self.exponent,
            "output_dominated": list(self.output_dominated),
        }


def scaling_trend(sizes: list[int], config: BenchConfig) -> TrendReport:
    """Fit ln(mean work - mean output) against ln(n) across dataset sizes.

    Uses one calibration sized for the largest n, so smaller builds reuse it.
    Sizes must be roughly geometric: at least three, each step growing by
    1.2x or more, with the largest step at most twice the smallest.
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
    if config.synthetic_d is None:
        raise ValueError("scaling trend runs on synthetic instances; set synthetic_d")
    mode = config.modes[0]

    cal = None
    if mode != "brute":
        params = _family_for(config, config.synthetic_d)
        _, _, p2 = edge_probabilities(
            params, config.radius, config.approx_c, config.trials, config.seed
        )
        k_max = compute_k(max(sizes), p2)
        cal = calibrate_cached(
            params,
            config.radius,
            config.approx_c,
            levels=k_max,
            max_probes=config.max_probes,
            trials=config.trials,
            seed=config.seed,
            cache_dir=config.cache_dir,
        )

    mean_work = []
    mean_reported = []
    for n in sizes:
        inst = generate_planted_instance(
            n=n,
            d=config.synthetic_d,
            r=config.radius,
            t=config.planted,
            seed=config.seed,
            num_queries=config.num_queries,
        )
        index = None
        if mode != "brute":
            index = build_index(
                inst.dataset, cal, space_budget=config.space_budget, seed=config.seed
            )
        works = []
        reported = []
        for q in inst.queries:
            report = _run_one(mode, index, inst.dataset, q, config)
            works.append(report.work_examined)
            reported.append(report.t_reported)
        mean_work.append(float(np.mean(works)))
        mean_reported.append(float(np.mean(reported)))

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
