"""End-to-end and per-layer benchmark of mlslsh, driven through its public calls.

One run follows the path a user takes: generate a planted instance from the
workload seed, calibrate and build with `bench.build_for_config` into a fresh
empty calibration cache, `save` the index with its codes, `load_index` it
back, then run a closed loop from this one process, one query at a time, in
rounds: a slice of the planted queries in `adaptive` mode, the same slice in
`single` mode, then `brute` passes over it. Every answer is checked against
the brute-force ground truth of the instance.

With tracing on, the same run goes through `spans.Tracer`, which wraps the
library's entry points, and the result holds the per-layer metrics instead.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from mlslsh import bench, geometry, index, query

import spans
from speed import SpeedReference, clock

DIM = 32
RADIUS = 0.4
APPROX_C = 2.0
PLANTED = 10
MAX_PROBES = 16
CAP_COUNT = 64
# Hash functions, depth and repetition count are part of the program's
# configuration, not of the workload: the workload seed varies only the data
# and the queries, so every seed measures the same index shape.
INDEX_SEED = 7
BRUTE_MIN_SECONDS = 2.0
LOAD_REPEATS = 5
ROUNDS = 10
LEVELS_REPORTED = 8
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


# n=10k and 4000 calibration trials keep one run, three cold set-ups
# included, near a minute on a 2-vCPU machine; at n=100k one set-up alone
# takes about 100 s there.
@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    family: str
    n: int
    trials: int = 4000
    num_queries: int = 100
    setup_repeats: int = 3


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cp-10k", "cross_polytope", 10_000),
        Workload("cap-10k", "spherical_cap", 10_000),
    )
}

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "adaptive_p50_ms": ("ms", "lower"),
    "adaptive_qps": ("1/s", "higher"),
    "adaptive_recall": ("ratio", "higher"),
    "single_p50_ms": ("ms", "lower"),
    "single_qps": ("1/s", "higher"),
    "single_recall": ("ratio", "higher"),
    "index_mem_bytes": ("B", "lower"),
    "index_disk_bytes": ("B", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Printed on every run, left out of the result line and of BENCHMARK.json's
# bounded metrics:
# - error_rate is 0 when the code is right, and a bounded metric must never
#   be 0; failures are the result line's `failed` of `attempted` instead.
# - adaptive_tail_ms is the p90 of 100 queries. On cp-10k that sits on the
#   edge between the cheap queries and the 10-20% that explore past 16
#   probes, so it moves by up to 40% from one workload seed to the next.
# - load_s and brute_qps are bound by memory traffic, about 30 MB per load
#   and 5 MB per brute-force query. Both hold steady within a run but moved
#   by 15-25% (quartile spread over ten runs) from one process to the next,
#   with where its memory landed; the speed reference does not track that.
REPORTED_ONLY = {
    "load_s": "s",
    "adaptive_tail_ms": "ms",
    "brute_qps": "1/s",
    "error_rate": "ratio",
}

# name -> (unit, better, the end-to-end metric it should move and where).
# Setup-phase layers are per set-up; query-path layers are totals over one
# adaptive and one single pass of the planted queries.
PER_LAYER = {
    "calibration.edge_calls": ("count", "lower", "setup_s; exactly 2 per set-up on both workloads"),
    "calibration.edge_s": ("s", "lower", "setup_s on both workloads, about 1% of it at 4000 trials"),
    "calibration.probe_table_s": ("s", "lower", "setup_s on both workloads, most on cp-10k"),
    "calibration.ensure_probes_calls": ("count", "lower", "adaptive_qps and the adaptive maximum on both workloads, most on cap-10k; never single_*"),
    "calibration.ensure_probes_s": ("s", "lower", "adaptive_qps and the adaptive maximum on both workloads, most on cap-10k; never single_*"),
    "families.hash_batch_calls": ("count", "lower", "setup_s on both workloads"),
    "families.hash_batch_s": ("s", "lower", "setup_s on both workloads, where hashing is most of the build"),
    "families.probe_sequence_calls": ("count", "lower", "adaptive_p50_ms and single_p50_ms on both workloads"),
    "families.probe_sequence_s": ("s", "lower", "adaptive_p50_ms and single_p50_ms on both workloads"),
    "families.enumerate_calls": ("count", "lower", "adaptive_p50_ms, most on cap-10k; not single_*"),
    "families.enumerate_s": ("s", "lower", "adaptive_p50_ms, most on cap-10k; not single_*"),
    "index.build_s": ("s", "lower", "setup_s on both workloads"),
    "index.sort_s": ("s", "lower", "setup_s on both workloads"),
    "index.prefix_range_calls": ("count", "lower", "adaptive_p50_ms and single_p50_ms on both workloads"),
    "index.prefix_range_s": ("s", "lower", "adaptive_p50_ms and single_p50_ms on both workloads"),
    "index.empty_probe_ratio": ("ratio", "lower", "adaptive_p50_ms on both workloads: share of bucket lookups that found nothing"),
    "index.save_s": ("s", "lower", "no end-to-end metric; the write half of load_s's round trip"),
    **{
        f"index.buckets_l{k}": ("count", "higher", "none: structure check, a speed-up leaves it unchanged")
        for k in range(1, LEVELS_REPORTED + 1)
    },
    **{
        f"index.largest_bucket_l{k}": ("count", "lower", "none: structure check, a speed-up leaves it unchanged")
        for k in range(1, LEVELS_REPORTED + 1)
    },
    "query.adaptive_self_s": ("s", "lower", "adaptive_p50_ms on both workloads: scheduler bookkeeping and candidate scan"),
    "query.settings_examined": ("count", "lower", "adaptive_p50_ms on both workloads"),
    "query.max_probes_examined": ("count", "lower", "adaptive_qps; past 16, and again past 32, it forces a re-estimation"),
    "query.buckets_probed": ("count", "lower", "adaptive_p50_ms on both workloads"),
    "query.work_examined": ("count", "lower", "adaptive_p50_ms on both workloads"),
    "query.useful_ratio": ("ratio", "higher", "adaptive_p50_ms on both workloads"),
    "geometry.instance_s": ("s", "lower", "none: input preparation"),
    "trace.setup_s": ("s", "lower", "tracing overhead: compare with setup_s of the untraced run"),
    "trace.adaptive_qps": ("1/s", "higher", "tracing overhead: compare with adaptive_qps of the untraced run"),
}


@dataclasses.dataclass
class ModeResult:
    latencies: list  # seconds per query, in the order run
    recalls: list  # per planted query, from its first run
    reports: list  # per planted query, from its first run (None if it raised)
    attempted: int = 0
    failed: int = 0
    errors: list = dataclasses.field(default_factory=list)


def _run_mode(res: ModeResult, mode: str, fn, queries, truth, ids: range, min_seconds: float) -> None:
    """Closed loop, one query at a time: whole passes over queries `ids` until
    `min_seconds` have gone by, at least one pass.

    A query fails if it raises, or reports an id outside the ground truth; a
    brute-force query also fails if it misses one. Failures are counted and
    the loop goes on.
    """
    start = time.perf_counter()
    first_pass = True
    while first_pass or time.perf_counter() - start < min_seconds:
        for i in ids:
            res.attempted += 1
            t0 = clock()
            try:
                report = fn(queries[i])
            except Exception as exc:  # counted as a failure; the run goes on
                res.latencies.append(clock() - t0)
                res.failed += 1
                res.errors.append(f"{mode} query {i}: {exc!r}")
                continue
            res.latencies.append(clock() - t0)
            found = set(report.ids)
            gt = truth[i]
            wrong = found ^ gt if mode == "brute" else found - gt
            if wrong:
                res.failed += 1
                res.errors.append(f"{mode} query {i}: ids {sorted(wrong)[:5]} disagree with the ground truth")
            if first_pass:
                res.recalls[i] = len(found & gt) / len(gt) if gt else 1.0
                res.reports[i] = report
        first_pass = False


def tail(latencies: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten samples beyond it.

    Falls back to the median when there are too few samples for that.
    """
    s = sorted(latencies)
    n = len(s)
    if n < 21:
        return statistics.median(s), 50.0
    return s[n - 11], 100.0 * (n - 10) / n


def structure(idx) -> dict:
    """Memory held by the index arrays and the bucket count and largest bucket per level."""
    mem = idx.dataset.matrix.nbytes + sum(
        r.sorted_codes.nbytes + r.order.nbytes for r in idx.repetitions
    )
    buckets = [0] * LEVELS_REPORTED
    largest = [0] * LEVELS_REPORTED
    for rep in idx.repetitions:
        codes = rep.sorted_codes
        n = codes.shape[0]
        boundary = np.zeros(max(n - 1, 0), dtype=bool)
        for k in range(min(codes.shape[1], LEVELS_REPORTED)):
            boundary |= codes[1:, k] != codes[:-1, k]
            edges = np.concatenate(([0], np.flatnonzero(boundary) + 1, [n]))
            buckets[k] += edges.size - 1
            largest[k] = max(largest[k], int(np.diff(edges).max()))
    return {"index_mem_bytes": int(mem), "buckets": buckets, "largest_bucket": largest}


def check_structure(workload: str, seed: int, found: dict, record: bool) -> str:
    """Compare index sizes and bucket counts with the committed reference.

    Sizes are the same for every seed; bucket counts are kept per seed. With
    `record`, the reference entry is written instead of checked.
    """
    ref = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}
    entry = ref.setdefault(workload, {"buckets": {}})
    if record:
        entry["index_mem_bytes"] = found["index_mem_bytes"]
        entry["index_disk_bytes"] = found["index_disk_bytes"]
        entry["buckets"][str(seed)] = found["buckets"]
        REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        return "recorded"
    diffs = [
        key for key in ("index_mem_bytes", "index_disk_bytes")
        if key in entry and entry[key] != found[key]
    ]
    if str(seed) in entry["buckets"] and entry["buckets"][str(seed)] != found["buckets"]:
        diffs.append("buckets")
    if diffs:
        return "FLAGGED: differs from reference.json in " + ", ".join(diffs)
    if "index_mem_bytes" not in entry:
        return "no reference for this workload"
    if str(seed) not in entry["buckets"]:
        return "sizes match; no bucket reference for this seed"
    return "matches reference.json"


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "workload_seed": seed,
        "index_seed": INDEX_SEED,
    }


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    """One benchmark run; returns every measurement, untraced and traced alike."""
    tracer = spans.Tracer() if trace else None
    out: dict = {}
    wall0, cpu0 = time.perf_counter(), clock()
    reference = SpeedReference()
    with tracer.patched() if tracer else nullcontext():
        t0 = clock()
        inst = geometry.generate_planted_instance(
            n=wl.n, d=DIM, r=RADIUS, t=PLANTED, seed=seed, num_queries=wl.num_queries
        )
        out["instance_s"] = clock() - t0
        config = bench.BenchConfig(
            radius=RADIUS,
            approx_c=APPROX_C,
            seed=INDEX_SEED,
            synthetic_n=wl.n,
            synthetic_d=DIM,
            planted=PLANTED,
            num_queries=wl.num_queries,
            family_kind=wl.family,
            cap_count=CAP_COUNT,
            trials=wl.trials,
            max_probes=MAX_PROBES,
        )
        setups = []
        built = None
        for _ in range(wl.setup_repeats):
            reference.measure()
            # a fresh, empty cache every time, so calibration always runs cold
            cfg = dataclasses.replace(config, cache_dir=tempfile.mkdtemp(dir=workdir))
            t0 = clock()
            idx = bench.build_for_config(cfg, inst.dataset)
            setups.append(clock() - t0)
            if built is None:
                built = idx
            del idx
        out["setup_times"] = setups

        path = os.path.join(workdir, "index.mlslsh")
        t0 = clock()
        built.save(path, include_codes=True)
        out["save_s"] = clock() - t0
        out["levels"], out["repetitions"] = built.levels, built.num_repetitions
        del built

        if tracer:
            tracer.phase = "load"
        reference.measure()
        loads = []
        for _ in range(LOAD_REPEATS):
            idx = None  # release the previous copy before loading the next
            t0 = clock()
            idx = index.load_index(path)
            loads.append(clock() - t0)
        out["load_times"] = loads
        found = structure(idx)
        found["index_disk_bytes"] = os.path.getsize(path)
        out["structure"] = found

        coords = [q.coords for q in inst.queries]
        truth = inst.ground_truth
        runners = {
            "adaptive": lambda q: query.adaptive_multiprobe(idx, q, RADIUS),
            "single": lambda q: query.single_probe_adaptive(idx, q, RADIUS),
            "brute": lambda q: query.brute_force_range(idx.dataset, q, RADIUS),
        }
        if tracer:
            runners = {m: tracer.wrap(f"query.{m}", fn) for m, fn in runners.items()}
        for mode in runners:
            out[mode] = ModeResult([], [0.0] * len(coords), [None] * len(coords))
        # The queries are split into rounds, each run in every mode in turn, so
        # every mode samples the whole loop and not one stretch of it. The
        # machine's speed drifts over seconds when other tenants are busy, and
        # brute-force speed jumps by up to 25% with where the heap happens to
        # place its temporary arrays, which the other modes move between rounds.
        q_start = time.perf_counter()
        rounds = min(ROUNDS, len(coords))
        for r in range(rounds):
            reference.measure()
            ids = range(r * len(coords) // rounds, (r + 1) * len(coords) // rounds)
            for mode, fn in runners.items():
                if tracer:
                    tracer.phase = mode
                budget = 0.0
                if mode == "brute":
                    # keep the loop on a schedule of `seconds`, with a floor
                    budget = max(
                        BRUTE_MIN_SECONDS / rounds,
                        seconds * (r + 1) / rounds - (time.perf_counter() - q_start),
                    )
                _run_mode(out[mode], mode, fn, coords, truth, ids, budget)
    out["run_wall_s"], out["run_cpu_s"] = time.perf_counter() - wall0, clock() - cpu0
    out["reference"] = reference
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["tracer"] = tracer
    return out


def end_to_end(out: dict) -> dict:
    """Every time is scaled to the reference machine speed; see speed.py."""
    a, s = out["adaptive"], out["single"]
    found = out["structure"]
    k = out["reference"].scale()
    return {
        "setup_s": k * statistics.median(out["setup_times"]),
        "adaptive_p50_ms": k * 1e3 * statistics.median(a.latencies),
        "adaptive_qps": len(a.latencies) / (k * sum(a.latencies)),
        "adaptive_recall": statistics.fmean(a.recalls),
        "single_p50_ms": k * 1e3 * statistics.median(s.latencies),
        "single_qps": len(s.latencies) / (k * sum(s.latencies)),
        "single_recall": statistics.fmean(s.recalls),
        "index_mem_bytes": found["index_mem_bytes"],
        "index_disk_bytes": found["index_disk_bytes"],
        "peak_rss_mb": out["peak_rss_mb"],
    }


def per_layer(out: dict, e2e: dict) -> dict:
    tr: spans.Tracer = out["tracer"]
    setup = ("setup",)
    queries = ("adaptive", "single")
    repeats = len(out["setup_times"])
    reports = [r for r in out["adaptive"].reports if r is not None]
    prefix_calls = tr.calls("index.prefix_range", queries)
    metrics = {
        "calibration.edge_calls": tr.calls("calibration.edge", setup) / repeats,
        "calibration.edge_s": tr.seconds("calibration.edge", setup) / repeats,
        "calibration.probe_table_s": (
            tr.seconds("calibration.calibrate", setup)
            - tr.seconds("calibration.edge", setup, parent="calibration.calibrate")
        ) / repeats,
        "calibration.ensure_probes_calls": tr.event("calibration.reestimations", queries),
        "calibration.ensure_probes_s": tr.event("calibration.reestimation_s", queries),
        "families.hash_batch_calls": tr.calls("families.hash_batch", setup) / repeats,
        "families.hash_batch_s": tr.seconds("families.hash_batch", setup) / repeats,
        "families.probe_sequence_calls": tr.calls("families.probe_sequence", queries),
        "families.probe_sequence_s": tr.seconds("families.probe_sequence", queries),
        "families.enumerate_calls": tr.calls("families.enumerate", queries),
        "families.enumerate_s": tr.seconds("families.enumerate", queries),
        "index.build_s": tr.seconds("index.build", setup) / repeats,
        "index.sort_s": (
            tr.seconds("index.build", setup)
            - tr.seconds("families.hash_batch", setup, parent="index.build")
        ) / repeats,
        "index.prefix_range_calls": prefix_calls,
        "index.prefix_range_s": tr.seconds("index.prefix_range", queries),
        "index.empty_probe_ratio": (
            tr.event("index.prefix_range.empty", queries) / prefix_calls if prefix_calls else 0.0
        ),
        "index.save_s": out["save_s"],
    }
    found = out["structure"]
    for k in range(LEVELS_REPORTED):
        metrics[f"index.buckets_l{k + 1}"] = found["buckets"][k]
        metrics[f"index.largest_bucket_l{k + 1}"] = found["largest_bucket"][k]
    work = sum(r.work_examined for r in reports)
    metrics.update({
        "query.adaptive_self_s": tr.self_seconds("query.adaptive", ("adaptive",)),
        "query.settings_examined": statistics.fmean(len(r.examined) for r in reports),
        "query.max_probes_examined": max(e.probes for r in reports for e in r.examined),
        "query.buckets_probed": statistics.fmean(r.buckets_probed for r in reports),
        "query.work_examined": work / len(reports),
        "query.useful_ratio": sum(r.t_reported for r in reports) / work,
        "geometry.instance_s": out["instance_s"],
    })
    k = out["reference"].scale()
    metrics = {
        name: k * value if PER_LAYER[name][0] == "s" else value
        for name, value in metrics.items()
    }
    metrics["trace.setup_s"] = e2e["setup_s"]
    metrics["trace.adaptive_qps"] = e2e["adaptive_qps"]
    return metrics


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(args, root: Path) -> int:
    wl = WORKLOADS[args.workload]
    work_root = root / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    try:
        out = run_workload(wl, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run is still using it

    modes = [out[m] for m in ("adaptive", "single", "brute")]
    attempted = sum(m.attempted for m in modes)
    failed = sum(m.failed for m in modes)
    e2e = end_to_end(out)
    status = check_structure(wl.name, args.seed, out["structure"], args.record_reference)

    print(f"# perfbench workload={wl.name} seed={args.seed} trace={args.trace}")
    print("environment " + json.dumps(environment(args.seed), sort_keys=True))
    print("workload " + json.dumps(dataclasses.asdict(wl) | {
        "dim": DIM, "radius": RADIUS, "approx_c": APPROX_C, "planted": PLANTED,
        "max_probes": MAX_PROBES, "levels": out["levels"], "repetitions": out["repetitions"],
        "load": "closed loop, 1 client, one query at a time",
    }))
    ref = out["reference"]
    k = ref.scale()
    print(f"run: {out['run_wall_s']:.1f} s wall, {out['run_cpu_s']:.1f} s CPU")
    print(f"speed: reference median {statistics.median(ref.samples):.4g} s CPU over "
          f"{len(ref.samples)} samples; times below are scaled by {k:.4g} unless marked raw")
    print(f"raw CPU: setup_times_s {[round(t, 4) for t in out['setup_times']]}  load_times_s "
          f"{[round(t, 4) for t in out['load_times']]}")
    for name, m in zip(("adaptive", "single", "brute"), modes):
        value, pct = tail(m.latencies)
        print(f"raw CPU: {name} samples {len(m.latencies)}  tail p{pct:.4g} = {1e3 * value:.6g} ms"
              f"  max {1e3 * max(m.latencies):.6g} ms")
    for name, value in e2e.items():
        print(f"{name:34s} {_fmt(value)} {END_TO_END[name][0]}")
    print(f"{'load_s':34s} {_fmt(k * statistics.median(out['load_times']))} s")
    value, pct = tail(out["adaptive"].latencies)
    print(f"{'adaptive_tail_ms':34s} {_fmt(k * 1e3 * value)} ms  "
          f"(p{pct:.4g} of {len(out['adaptive'].latencies)} samples)")
    brute = out["brute"].latencies
    print(f"{'brute_qps':34s} {_fmt(len(brute) / (k * sum(brute)))} 1/s")
    print(f"{'error_rate':34s} {_fmt(failed / attempted)} ratio  ({failed} of {attempted} queries)")
    metrics = e2e
    units = {k: v[0] for k, v in END_TO_END.items()}
    if args.trace:
        metrics = per_layer(out, e2e)
        units = {k: v[0] for k, v in PER_LAYER.items()}
        for name, value in metrics.items():
            print(f"{name:34s} {_fmt(value)} {units[name]}")
    print(f"structure: {status}")
    if status.startswith("FLAGGED"):
        print(f"perfbench: index structure {status}", file=sys.stderr)
    for err in [e for m in modes for e in m.errors][:20]:
        print(f"perfbench: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0
