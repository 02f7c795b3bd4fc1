"""End-to-end acceptance checks.

Each test prints exactly one verdict line of the form
'acceptance criterion N (<what it verifies>): PASS|FAIL (<numbers>)'.
Shared fixtures build one realistic instance (n=10^4, d=32) plus two smaller
ones, so the thousand-query soundness sweep and the trace replay reuse the
same executed queries.
"""

import json
import math

import numpy as np
import pytest

from conftest import slot_functions
from mlslsh.bench import BenchConfig, calibrate_cached, run_benchmark, scaling_trend
from mlslsh.calibration import FamilyCalibration, estimate_collision_prob
from mlslsh.families import FamilyParams, hash_batch
from mlslsh.geometry import generate_planted_instance
from mlslsh.index import build_index, compute_k, compute_numreps, load_index, reps
from mlslsh.query import (
    adaptive_multiprobe,
    brute_force_range,
    cost,
    fixed_level_query,
    single_probe_adaptive,
)
from mlslsh.calibration import rho, theoretical_rho

RADIUS = 0.4
APPROX_C = 2.0
TRIALS = 20000

RECALL_FLOOR = 0.85
SWEEP_HEADROOM = 1.5
SUBLINEAR_CEILING = 0.95
LINEAR_BAND = (0.9, 1.1)
EXACT_TOL = 1e-12


def verdict(num, what, ok, detail):
    print(f"acceptance criterion {num} ({what}): {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def main_calibration():
    params = FamilyParams(kind="cross_polytope", dim=32)
    cal = calibrate_cached(
        params, RADIUS, APPROX_C, levels=7, max_probes=32, trials=TRIALS, seed=11
    )
    assert cal.levels >= compute_k(10**4, cal.p2)
    return cal


@pytest.fixture(scope="module")
def d16_calibration():
    params = FamilyParams(kind="cross_polytope", dim=16)
    return calibrate_cached(
        params, RADIUS, APPROX_C, levels=7, max_probes=16, trials=TRIALS, seed=13
    )


@pytest.fixture(scope="module")
def main_instance():
    return generate_planted_instance(
        n=10**4, d=32, r=RADIUS, t=10, seed=42, num_queries=100
    )


@pytest.fixture(scope="module")
def main_index(main_instance, main_calibration):
    return build_index(main_instance.dataset, main_calibration, seed=0)


@pytest.fixture(scope="module")
def soundness_runs(main_instance, main_index, d16_calibration, main_calibration):
    """One thousand executed queries: three instances, every query mode."""
    runs = []

    def record(label, instance, index, mode, run_fn):
        for qi, q in enumerate(instance.queries):
            report = run_fn(index, q.coords)
            runs.append(
                {
                    "label": label,
                    "mode": mode,
                    "report": report,
                    "gt": instance.ground_truth[qi],
                    "n": instance.dataset.size,
                    "matrix": instance.dataset.matrix,
                    "query": q.coords,
                }
            )

    # 100 queries x 4 modes on the main planted instance
    record("main", main_instance, main_index, "adaptive",
           lambda ix, q: adaptive_multiprobe(ix, q, RADIUS))
    record("main", main_instance, main_index, "single",
           lambda ix, q: single_probe_adaptive(ix, q, RADIUS))
    record("main", main_instance, main_index, "fixed",
           lambda ix, q: fixed_level_query(ix, q, RADIUS, k=3, j=2))
    record("main", main_instance, main_index, "brute",
           lambda ix, q: brute_force_range(ix.dataset, q, RADIUS))

    # 100 queries x 3 modes on a smaller, lower-dimensional planted instance
    d16 = generate_planted_instance(n=2000, d=16, r=RADIUS, t=8, seed=7, num_queries=100)
    d16_index = build_index(d16.dataset, d16_calibration, seed=1)
    record("d16", d16, d16_index, "adaptive",
           lambda ix, q: adaptive_multiprobe(ix, q, RADIUS))
    record("d16", d16, d16_index, "single",
           lambda ix, q: single_probe_adaptive(ix, q, RADIUS))
    record("d16", d16, d16_index, "fixed",
           lambda ix, q: fixed_level_query(ix, q, RADIUS, k=2, j=2))

    # 100 queries x 3 modes on an unplanted instance (mostly empty answers)
    rnd = generate_planted_instance(n=1000, d=32, r=RADIUS, t=0, seed=99, num_queries=100)
    rnd_index = build_index(rnd.dataset, main_calibration, seed=2)
    record("random", rnd, rnd_index, "adaptive",
           lambda ix, q: adaptive_multiprobe(ix, q, RADIUS))
    record("random", rnd, rnd_index, "single",
           lambda ix, q: single_probe_adaptive(ix, q, RADIUS))
    record("random", rnd, rnd_index, "brute",
           lambda ix, q: brute_force_range(ix.dataset, q, RADIUS))

    assert len(runs) == 1000
    return runs


def test_criterion_1_range_soundness(soundness_runs):
    violations = 0
    for run in soundness_runs:
        rep = run["report"]
        if not set(rep.ids) <= run["gt"]:
            violations += 1
            continue
        for pid, dist in zip(rep.ids, rep.distances):
            true = float(np.linalg.norm(run["matrix"][pid] - run["query"]))
            if dist > RADIUS or abs(dist - true) > EXACT_TOL:
                violations += 1
                break
    verdict(
        1,
        "reported neighbors are true range members",
        violations == 0,
        f"{len(soundness_runs)} queries across 3 instances and 4 modes, "
        f"{violations} violations",
    )


def test_criterion_2_sizing_formulas():
    checks = [
        compute_k(10**6, 0.1) == 6,
        compute_k(1000, 0.5) == 10,
        compute_k(1, 0.9) == 1,
        compute_numreps(0.9, 6) == 2,
        compute_numreps(1.0, 4) == 1,
        compute_numreps(0.5, 10) == 1024,
        reps(1, 1, 1.0) == 2,
        reps(2, 1, 0.25) == 12,
        abs(rho(0.5, 0.1) - math.log(2.0) / math.log(10.0)) < EXACT_TOL,
        rho(0.3, 0.3) == 1.0,
        rho(1.0, 0.5) == 0.0,
        abs(theoretical_rho("euclidean", 2.0) - 1.0 / 7.0) < EXACT_TOL,
        abs(theoretical_rho("hamming", 2.0) - 1.0 / 3.0) < EXACT_TOL,
    ]
    verdict(
        2,
        "depth, repetition, and quality formulas",
        all(checks),
        f"{sum(checks)}/{len(checks)} exact values within {EXACT_TOL}",
    )


def _toy_calibration(params, p1, p2, levels=8, max_probes=8):
    ks = np.arange(1, levels + 1, dtype=np.float64)[:, None]
    js = np.arange(1, max_probes + 1, dtype=np.float64)[None, :]
    table = np.minimum(1.0, p1**ks * (1.0 + 0.25 * (js - 1.0)))
    return FamilyCalibration(
        params=params, r=RADIUS, c=APPROX_C, p1=p1, p2=p2,
        probe_success=table, probe_success_se=np.zeros_like(table),
        trials=1000, seed=0,
    )


def test_criterion_3_build_invariants():
    rng = np.random.default_rng(2024)
    builds = 0
    problems = []
    for trial in range(20):
        n = int(rng.integers(50, 2001))
        d = int(rng.choice([4, 8, 16]))
        kind = "cross_polytope" if trial % 2 == 0 else "spherical_cap"
        params = FamilyParams(kind=kind, dim=d, cap_count=16)
        p1 = float(rng.uniform(0.6, 0.95))
        p2 = float(rng.uniform(0.2, min(0.45, p1 - 0.15)))
        t = min(5, n // 4)
        inst = generate_planted_instance(n=n, d=d, r=RADIUS, t=t, seed=trial)
        index = build_index(
            inst.dataset,
            _toy_calibration(params, p1, p2, levels=compute_k(n, p2)),
            space_budget=8, seed=trial,
        )
        builds += 1
        K, R = index.levels, index.num_repetitions
        if K != compute_k(n, p2) or R != min(8, compute_numreps(p1, K)):
            problems.append(f"build {trial}: sizes off")
        stored = sum(rep.sorted_codes.size for rep in index.repetitions)
        if stored != R * n * K:
            problems.append(f"build {trial}: stored {stored} != {R}*{n}*{K}")
        for r, rep in enumerate(index.repetitions[:2]):
            fns = slot_functions(index, r)
            codes = np.stack([hash_batch(fn, inst.dataset.matrix) for fn in fns], 1)
            for k in range(1, K + 1):
                runs = [
                    rep.prefix_range(tuple(int(v) for v in p))
                    for p in np.unique(codes[:, :k], axis=0)
                ]
                sizes = [hi - lo for lo, hi in runs]
                if sum(sizes) != n:
                    problems.append(f"build {trial}: level {k} not a partition")
            for i in rng.integers(0, n, size=5):
                prev = None
                for k in range(1, K + 1):
                    run = rep.prefix_range(tuple(int(v) for v in codes[i, :k]))
                    members = set(rep.order[slice(*run)].tolist())
                    if int(i) not in members or (prev is not None and not members <= prev):
                        problems.append(f"build {trial}: refinement broken at {k}")
                    prev = members
    verdict(
        3,
        "bucket structure of randomized builds",
        builds == 20 and not problems,
        f"{builds} builds, checks: partition, refinement, storage; "
        f"{len(problems)} problems" + (f" e.g. {problems[0]}" if problems else ""),
    )


def test_criterion_4_collision_calibration(main_calibration):
    grid = [0.2, 0.6, 1.0, 1.4, 1.8]
    failures = []
    for kind in ("cross_polytope", "spherical_cap"):
        params = FamilyParams(kind=kind, dim=32, cap_count=64)
        exact_one = estimate_collision_prob(params, 0.0, 1000, seed=17)
        if exact_one.probability != 1.0:
            failures.append(f"{kind}: p(0) != 1")
        ests = [estimate_collision_prob(params, dist, 10**5, seed=17) for dist in grid]
        for (d1, a), (d2, b) in zip(zip(grid, ests), zip(grid[1:], ests[1:])):
            gap = a.probability - b.probability
            if gap <= 3.0 * math.hypot(a.std_error, b.std_error):
                failures.append(f"{kind}: p({d1}) -> p({d2}) not separated")
    # the probe-success table must agree with powers of the measured p1
    cal = main_calibration
    for k in (1, 2, 3, 4):
        sigma = math.hypot(
            cal.probe_success_se[k - 1, 0],
            k * cal.p1 ** (k - 1) * cal.p1_std_error,
        )
        if abs(cal.probe_success[k - 1, 0] - cal.p1**k) > 3.0 * sigma:
            failures.append(f"table row {k} disagrees with p1^{k}")
    verdict(
        4,
        "collision probabilities fall with distance",
        not failures,
        f"2 families, 5-point grid at 1e5 trials, 3-sigma gaps; "
        f"{len(failures)} failures" + (f" e.g. {failures[0]}" if failures else ""),
    )


def test_criterion_5_planted_recall(soundness_runs):
    recalls = [
        len(set(r["report"].ids) & r["gt"]) / len(r["gt"])
        for r in soundness_runs
        if r["label"] == "main" and r["mode"] == "adaptive"
    ]
    macro = float(np.mean(recalls))
    verdict(
        5,
        "adaptive recall on planted neighbors",
        len(recalls) == 100 and macro >= RECALL_FLOOR,
        f"macro recall {macro:.4f} over {len(recalls)} queries, floor {RECALL_FLOOR}",
    )


def test_criterion_6_adaptive_work_near_optimal(main_instance, main_index):
    grid_j = (1, 2, 4, 8, 16)
    adaptive_work, sweep_work = [], []
    for q in main_instance.queries[:50]:
        rep = adaptive_multiprobe(main_index, q.coords, RADIUS)
        best_fixed = min(
            fixed_level_query(main_index, q.coords, RADIUS, k, j).work_examined
            for k in range(1, main_index.levels + 1)
            for j in grid_j
        )
        adaptive_work.append(rep.w_best)
        sweep_work.append(best_fixed)
    ratio = float(np.mean(adaptive_work) / np.mean(sweep_work))
    verdict(
        6,
        "adaptive work versus best fixed setting",
        ratio <= SWEEP_HEADROOM,
        f"ratio of means {ratio:.3f} over 50 queries, "
        f"{len(grid_j) * main_index.levels}-setting sweep, headroom {SWEEP_HEADROOM}",
    )


def test_criterion_7_work_scaling(tmp_path):
    sizes = [10**3, 10**4, 10**5]
    base = dict(
        radius=RADIUS, approx_c=APPROX_C, seed=3, synthetic_n=max(sizes),
        synthetic_d=32, planted=5, num_queries=20, trials=TRIALS, max_probes=32,
    )
    adaptive = scaling_trend(
        sizes,
        BenchConfig(**base, modes=("adaptive",), space_budget=32),
    )
    brute = scaling_trend(sizes, BenchConfig(**base, modes=("brute",)))
    ok = (
        adaptive.exponent < SUBLINEAR_CEILING
        and LINEAR_BAND[0] <= brute.exponent <= LINEAR_BAND[1]
    )
    verdict(
        7,
        "query work grows sublinearly",
        ok,
        f"adaptive exponent {adaptive.exponent:.3f} < {SUBLINEAR_CEILING}, "
        f"brute {brute.exponent:.3f} in {LINEAR_BAND}, sizes {sizes}",
    )


def test_criterion_8_persistence_and_determinism(tmp_path, main_instance, main_index):
    problems = 0
    # save both flavors, reload, and re-ask the same questions
    full = str(tmp_path / "main-full.idx")
    slim = str(tmp_path / "main-slim.idx")
    main_index.save(full, include_codes=True)
    main_index.save(slim, include_codes=False)
    for path in (full, slim):
        loaded = load_index(path)
        for q in main_instance.queries[:20]:
            a = adaptive_multiprobe(main_index, q.coords, RADIUS).to_json_dict()
            b = adaptive_multiprobe(loaded, q.coords, RADIUS).to_json_dict()
            if a != b:
                problems += 1
    # a full benchmark rerun must reproduce its records byte for byte
    config = BenchConfig(
        radius=RADIUS, approx_c=APPROX_C, seed=5, synthetic_n=400, synthetic_d=8,
        planted=4, num_queries=10, trials=2000, max_probes=8,
        modes=("adaptive", "single", "brute"), cache_dir=str(tmp_path / "cache"),
    )
    lines1 = [json.dumps(r, sort_keys=True) for r in run_benchmark(config).records]
    lines2 = [json.dumps(r, sort_keys=True) for r in run_benchmark(config).records]
    if lines1 != lines2:
        problems += 1
    verdict(
        8,
        "saved indexes and reruns reproduce results",
        problems == 0,
        f"2 index files x 20 queries, 30-record benchmark rerun byte-compare; "
        f"{problems} mismatches",
    )


def _trace_violations(run):
    rep, n = run["report"], run["n"]
    out = []
    if rep.t_reported != len(rep.ids):
        out.append("reported count mismatch")
    if list(rep.ids) != sorted(rep.ids):
        out.append("ids not sorted")
    if rep.mode in ("adaptive", "single"):
        ex = rep.examined
        if rep.k_best > 0 and not ex:
            out.append("chose a setting without examining any")
        if ex and (ex[0].level, ex[0].probes) != (1, 1):
            out.append("first examined setting is not (1,1)")
        costs = [e.cost for e in ex]
        if costs != sorted(costs):
            out.append("examination order not by cost")
        if len({(e.level, e.probes) for e in ex}) != len(ex):
            out.append("setting examined twice")
        running = float(n)
        for e in ex:
            if not e.cost < running:
                out.append("setting examined despite cost >= best work")
            if e.work < e.cost - 1e-9:
                out.append("work below its cost lower bound")
            running = min(running, e.work)
        if rep.w_best != min([float(n)] + [e.work for e in ex]):
            out.append("w_best is not the best examined work")
        if rep.mode == "single" and any(e.probes != 1 for e in ex):
            out.append("single-probe mode probed more than once")
        if rep.k_best > 0:
            hits = [e for e in ex if (e.level, e.probes) == (rep.k_best, rep.j_best)]
            if len(hits) != 1 or hits[0].work != rep.w_best:
                out.append("chosen setting missing from the trace")
        elif rep.work_examined != float(n):
            out.append("fallback scan misreports work")
    elif rep.mode == "fixed":
        if len(rep.examined) != 1 or rep.w_best != rep.examined[0].work:
            out.append("fixed-mode trace inconsistent")
    elif rep.mode == "brute":
        if rep.work_examined != float(n) or rep.buckets_probed != 0:
            out.append("brute accounting wrong")
    return out


def test_criterion_9_query_trace_invariants(soundness_runs):
    violations = []
    for run in soundness_runs:
        violations.extend(_trace_violations(run))
    verdict(
        9,
        "scheduler traces obey their invariants",
        not violations,
        f"{len(soundness_runs)} instrumented queries, {len(violations)} violations"
        + (f" e.g. {violations[0]}" if violations else ""),
    )
