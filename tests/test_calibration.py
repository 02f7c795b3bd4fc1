import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

import mlslsh.calibration as calmod
from conftest import stable_probe_sequence, toy_calibration
from mlslsh.calibration import (
    CalibrationError,
    CollisionEstimate,
    FamilyCalibration,
    _pairs_at_distance,
    calibrate,
    edge_probabilities,
    estimate_collision_prob,
    rho,
    theoretical_rho,
)
from mlslsh.families import (
    FamilyParams,
    derived_rng,
    derived_seed,
    hash_batch,
    sample_directions,
)


def test_pairs_have_exact_distance():
    rng = np.random.default_rng(3)
    for dist in (0.0, 0.3, 1.0, 1.9):
        x, y = _pairs_at_distance(rng, 10, 50, dist)
        assert np.allclose(np.linalg.norm(x, axis=1), 1.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(y, axis=1), 1.0, atol=1e-9)
        assert np.allclose(np.linalg.norm(x - y, axis=1), dist, atol=1e-9)
    # at distance zero the partner is the anchor itself, bit for bit
    x, y = _pairs_at_distance(rng, 10, 20, 0.0)
    assert np.array_equal(x, y)


def test_collision_probability_at_zero_distance_is_one():
    for kind in ("spherical_cap", "cross_polytope"):
        params = FamilyParams(kind=kind, dim=8, cap_count=16)
        est = estimate_collision_prob(params, 0.0, 1000, seed=1)
        assert est.probability == 1.0
        assert est.std_error == 0.0


def test_antipodal_collisions_are_rare_for_caps():
    # opposite points can only collide through the shared overflow bucket:
    # x . u >= eta > 0 and -x . u >= eta exclude each other for every cap u
    params = FamilyParams(kind="spherical_cap", dim=16, cap_count=32)
    assert params.threshold > 0.0
    rng = np.random.default_rng(9)
    collisions = 0
    for seed in range(20):
        fn = sample_directions(params, [seed])[0]
        x = rng.standard_normal((500, params.dim))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        a, b = hash_batch(params, fn, x), hash_batch(params, fn, -x)
        assert np.all(a[a == b] == params.cap_count)
        collisions += np.count_nonzero(a == b)
    assert collisions > 0  # the overflow bucket is shared often enough to test
    est = estimate_collision_prob(params, 2.0, 20000, seed=9)
    assert est.probability == pytest.approx(collisions / 10000, abs=0.05)


def test_antipodal_collisions_impossible_for_cross_polytope():
    # negating a point swaps each axis with its mirror, so the best bucket
    # always moves
    params = FamilyParams(kind="cross_polytope", dim=16)
    est = estimate_collision_prob(params, 2.0, 2000, seed=9)
    assert est.probability == 0.0


def test_collision_probability_decreases_with_distance():
    params = FamilyParams(kind="cross_polytope", dim=16)
    near = estimate_collision_prob(params, 0.3, 20000, seed=4)
    far = estimate_collision_prob(params, 0.9, 20000, seed=4)
    gap = near.probability - far.probability
    sigma = math.hypot(near.std_error, far.std_error)
    assert gap > 3.0 * sigma


def test_std_error_is_positive_for_interior_probabilities():
    params = FamilyParams(kind="cross_polytope", dim=8)
    est = estimate_collision_prob(params, 0.5, 4000, seed=2)
    assert 0.0 < est.probability < 1.0
    assert est.std_error > 0.0
    assert est.trials == 4000


def test_collision_estimator_validation():
    params = FamilyParams(kind="cross_polytope", dim=8)
    with pytest.raises(ValueError):
        estimate_collision_prob(params, -0.1, 2000, seed=0)
    with pytest.raises(ValueError):
        estimate_collision_prob(params, 2.1, 2000, seed=0)
    with pytest.raises(ValueError):
        estimate_collision_prob(params, 0.5, 999, seed=0)


def test_rho_known_values():
    assert abs(rho(0.5, 0.1) - math.log(2.0) / math.log(10.0)) < 1e-12
    assert rho(0.3, 0.3) == 1.0
    assert rho(1.0, 0.5) == 0.0
    for bad in ((0.5, 0.0), (0.5, 1.0), (0.0, 0.5), (1.1, 0.5), (0.2, 0.4)):
        with pytest.raises(ValueError):
            rho(*bad)


def test_theoretical_rho_known_values():
    assert abs(theoretical_rho("euclidean", 2.0) - 1.0 / 7.0) < 1e-12
    assert abs(theoretical_rho("hamming", 2.0) - 1.0 / 3.0) < 1e-12
    assert theoretical_rho("euclidean", 1.0 + 1e-9) < 1.0 + 1e-6
    with pytest.raises(ValueError):
        theoretical_rho("euclidean", 1.0)
    with pytest.raises(ValueError):
        theoretical_rho("manhattan", 2.0)


def test_far_probability_clamp_warns():
    # r=1, c=2 puts the far pairs at the antipode, where the rotation family
    # never collides; the zero must be clamped to 1/trials with a warning
    params = FamilyParams(kind="cross_polytope", dim=12)
    with pytest.warns(UserWarning, match="clamping"):
        near, far, p2 = edge_probabilities(params, 1.0, 2.0, 2000, seed=6)
    assert far.probability == 0.0
    assert p2 == 1.0 / 2000
    assert near.probability > p2


def test_inseparable_radii_raise(monkeypatch):
    def fake_estimate(params, dist, trials, seed, batch_size=256):
        return CollisionEstimate(0.2, 0.01, trials)

    monkeypatch.setattr(calmod, "estimate_collision_prob", fake_estimate)
    params = FamilyParams(kind="cross_polytope", dim=8)
    with pytest.raises(CalibrationError, match="separate"):
        edge_probabilities(params, 0.4, 2.0, 2000, seed=0)


@pytest.fixture(scope="module")
def small_calibration():
    params = FamilyParams(kind="cross_polytope", dim=8)
    return calibrate(params, r=0.4, c=2.0, levels=4, max_probes=8, trials=4000, seed=3)


def test_calibrate_basic_shape_and_bounds(small_calibration):
    cal = small_calibration
    assert cal.levels == 4 and cal.max_probes == 8
    assert cal.probe_success.shape == (4, 8)
    assert 0.0 < cal.p2 < cal.p1 <= 1.0
    assert np.all(cal.probe_success >= 0.0) and np.all(cal.probe_success <= 1.0)
    assert abs(cal.rho - rho(cal.p1, cal.p2)) < 1e-12


def test_probe_success_table_is_monotone(small_calibration):
    table = small_calibration.probe_success
    # a CDF along probes, and refining the code can only lose matches
    assert np.all(np.diff(table, axis=1) >= 0.0)
    assert np.all(np.diff(table, axis=0) <= 0.0)


def test_probe_success_first_column_tracks_p1(small_calibration):
    cal = small_calibration
    for k in (1, 2, 3):
        sigma = math.hypot(
            cal.probe_success_se[k - 1, 0],
            k * cal.p1 ** (k - 1) * cal.p1_std_error,
        )
        assert abs(cal.probe_success[k - 1, 0] - cal.p1**k) <= 3.0 * sigma


@pytest.mark.parametrize("kind", ["cross_polytope", "spherical_cap"])
def test_probe_table_first_column_agrees_with_powers_of_p1(kind):
    # the table's first column and the collision estimator measure p1**k
    # through independent substreams. At 50,000 trials and this seed the
    # correct samplers stay within 1.7 sigma at every level, while table
    # pairs drawn at 1.1 r fall more than 10 sigma off at every level, so a
    # 5-sigma band tells a broken sampler from noise
    params = FamilyParams(kind=kind, dim=32)
    cal = calibrate(params, r=0.4, c=2.0, levels=4, max_probes=1, trials=50000, seed=0)
    for k in (1, 2, 3, 4):
        sigma = math.hypot(
            cal.probe_success_se[k - 1, 0],
            k * cal.p1 ** (k - 1) * cal.p1_std_error,
        )
        assert abs(cal.probe_success[k - 1, 0] - cal.p1**k) <= 5.0 * sigma, k


@pytest.mark.parametrize("kind", ["cross_polytope", "spherical_cap"])
def test_calibrate_returns_at_every_seed(kind):
    # calibrate raises only on rules every correct run keeps; a 3-sigma
    # comparison of the table with p1**k at four levels would reject about
    # one correct calibration in thirty here (cross-polytope seed 35, cap
    # seed 42)
    params = FamilyParams(kind=kind, dim=32)
    for seed in range(50):
        cal = calibrate(params, r=0.4, c=2.0, levels=4, max_probes=1, trials=1000, seed=seed)
        assert cal.seed == seed and cal.probe_success.shape == (4, 1)


def test_probe_success_single_level_matches_direct_walk():
    # independent oracle: walk the probe sequence directly and record where
    # the partner's bucket sits, without the tuple enumerator
    params = FamilyParams(kind="cross_polytope", dim=8)
    r, trials, j_max, seed = 0.4, 3000, 6, 3
    hits = np.zeros(j_max)
    batch = 64
    sizes = [batch] * (trials // batch)
    if trials % batch:
        sizes.append(trials % batch)
    for b, m in enumerate(sizes):
        fn = sample_directions(params, [derived_seed(seed, 21, b, 0)])[0]
        rng = derived_rng(seed, 22, b)
        data, query = _pairs_at_distance(rng, 8, m, r)
        buckets = hash_batch(params, fn, data)
        for i in range(m):
            ranked = stable_probe_sequence(params, fn, query[i])[0][:j_max]
            where = np.nonzero(ranked == buckets[i])[0]
            if where.size:
                hits[where[0] :] += 1
    direct = hits / trials
    cal = calibrate(params, r=r, c=2.0, levels=1, max_probes=j_max, trials=trials, seed=seed)
    assert np.allclose(cal.probe_success[0], direct, atol=1e-12)


@pytest.mark.parametrize(
    "params",
    [
        FamilyParams(kind="cross_polytope", dim=4),
        # a dimension the stacked projection does not split evenly
        FamilyParams(kind="cross_polytope", dim=5),
        FamilyParams(kind="spherical_cap", dim=6, cap_count=4),
    ],
    ids=["cp-d4", "cp-d5", "cap-d6-4caps"],
)
def test_probe_success_three_levels_match_the_sorted_grid(params):
    # independent oracle: per trial, sort the query's full k-slot grid of
    # rank tuples by the probe order's key (P_k, ..., P_1, r_1, ..., r_k),
    # P_s the left-to-right sum of the first s deficits and r_s the rank in
    # slot s, and find the partner's code tuple in it, one function at a time
    r, trials, levels, j_max, seed = 0.4, 1000, 3, 6, 4
    hits = np.zeros((levels, j_max))
    batch = 64
    sizes = [batch] * (trials // batch)
    if trials % batch:
        sizes.append(trials % batch)
    for b, m in enumerate(sizes):
        fns = sample_directions(params, [derived_seed(seed, 21, b, s) for s in range(levels)])
        data, query = _pairs_at_distance(derived_rng(seed, 22, b), params.dim, m, r)
        partner = np.stack([hash_batch(params, fn, data) for fn in fns], axis=1)
        for i in range(m):
            rankings = [[part.tolist() for part in stable_probe_sequence(params, fn, query[i])]
                        for fn in fns]

            def key(ranks):
                sums = itertools.accumulate(rankings[s][1][rank] for s, rank in enumerate(ranks))
                return (*reversed(list(sums)), *ranks)

            for k in range(1, levels + 1):
                tuples = itertools.product(*(range(len(buckets)) for buckets, _ in rankings[:k]))
                grid = sorted(tuples, key=key)
                order = [tuple(rankings[s][0][rank] for s, rank in enumerate(ranks)) for ranks in grid]
                pos = order.index(tuple(int(c) for c in partner[i, :k]))
                if pos < j_max:
                    hits[k - 1, pos:] += 1
    cal = calibrate(params, r=r, c=2.0, levels=levels, max_probes=j_max, trials=trials, seed=seed)
    assert np.array_equal(cal.probe_success, hits / trials)


def test_probe_probability_bounds(small_calibration):
    cal = small_calibration
    assert cal.probe_probability(1, 1) == cal.probe_success[0, 0]
    assert cal.probe_probability(4, 8) == cal.probe_success[3, 7]
    with pytest.raises(ValueError):
        cal.probe_probability(0, 1)
    with pytest.raises(ValueError):
        cal.probe_probability(5, 1)
    with pytest.raises(ValueError):
        cal.probe_probability(1, 9)


def test_ensure_probes_checks_the_calibrated_width(small_calibration, no_reestimation):
    # the table width is fixed at calibration: a probe count past it fails at
    # once instead of re-running the Monte-Carlo estimate
    cal = small_calibration
    for j in (1, 5, 8):
        assert cal.ensure_probes(j) is cal
    for j in (0, 9, 200):
        with pytest.raises(ValueError, match=r"1\.\.8.*larger max_probes"):
            cal.ensure_probes(j)
    # nothing on the calibration can grow after it is made
    for f in dataclasses.fields(cal):
        assert not isinstance(getattr(cal, f.name), (dict, list, set))


def test_calibration_json_round_trip(small_calibration):
    cal = small_calibration
    doc = cal.to_json_dict()
    back = FamilyCalibration.from_json_dict(doc)
    assert back.params == cal.params
    assert back.p1 == cal.p1 and back.p2 == cal.p2 and back.rho == cal.rho
    assert back.r == cal.r and back.c == cal.c
    assert back.trials == cal.trials and back.seed == cal.seed
    assert np.array_equal(back.probe_success, cal.probe_success)
    assert np.array_equal(back.probe_success_se, cal.probe_success_se)
    with pytest.raises(ValueError):
        FamilyCalibration.from_json_dict({"format": "something-else"})


def test_calibration_validation():
    params = FamilyParams(kind="cross_polytope", dim=8)
    ok = np.array([[0.5, 0.6], [0.3, 0.4]])
    se = np.zeros_like(ok)
    base = dict(params=params, r=0.4, c=2.0, p1=0.5, p2=0.2,
                probe_success=ok, probe_success_se=se, trials=1000, seed=0)
    FamilyCalibration(**base)
    bad = dict(base)
    bad["probe_success"] = np.array([[0.6, 0.5], [0.3, 0.4]])  # drops along j
    with pytest.raises(CalibrationError):
        FamilyCalibration(**bad)
    bad = dict(base)
    bad["probe_success"] = np.array([[0.3, 0.4], [0.5, 0.6]])  # grows along k
    with pytest.raises(CalibrationError):
        FamilyCalibration(**bad)
    bad = dict(base)
    bad["p2"] = 0.7  # above p1
    with pytest.raises(CalibrationError):
        FamilyCalibration(**bad)
    bad = dict(base, p1=1.0, p2=1.0)  # no finite depth or rho
    with pytest.raises(CalibrationError, match="p2 < 1"):
        FamilyCalibration(**bad)
    # a NaN compares false both ways, so it must fail as a value outside [0, 1]
    for table in ([[0.5, np.nan], [0.3, 0.4]], [[np.nan, np.nan], [np.nan, np.nan]]):
        with pytest.raises(CalibrationError, match="lie in"):
            FamilyCalibration(**dict(base, probe_success=np.array(table)))
    for value in (np.nan, np.inf, -0.01):
        errors = se.copy()
        errors[1, 0] = value
        with pytest.raises(CalibrationError, match="standard errors"):
            FamilyCalibration(**dict(base, probe_success_se=errors))
    for field in ("p1_std_error", "p2_std_error"):
        for value in (np.nan, np.inf, -1.0):
            with pytest.raises(CalibrationError, match="standard errors"):
                FamilyCalibration(**dict(base, **{field: value}))
    for trials in (0, -5):
        with pytest.raises(ValueError, match=f"trials must be a positive integer, got {trials}"):
            FamilyCalibration(**dict(base, trials=trials))
    # derived seeds are masked to 63 bits, so a negative seed is valid
    assert FamilyCalibration(**dict(base, seed=-1)).seed == -1
    assert calibrate(params, 0.4, 2.0, levels=1, max_probes=1, trials=1000, seed=-1).seed == -1
    # the radii checks of `calibrate`, raised as a CalibrationError
    for r, c, message in [
        (-3.0, 0.1, "radius"), (0.0, 2.0, "radius"), (2.0, 1.5, "radius"), (np.nan, 2.0, "radius"),
        (0.4, 1.0, "approximation factor"), (0.4, np.nan, "approximation factor"),
        (1.5, 2.0, "far distance"),
    ]:
        with pytest.raises(CalibrationError, match=message):
            FamilyCalibration(**dict(base, r=r, c=c))


def test_calibrate_checks_trials_before_sampling(monkeypatch):
    # passed edges once skipped the 1000-trial floor: trials=0 failed deep in
    # the table's pooling, and trials=10 recorded a table of 10 pairs beside
    # p1 and p2 of 1000 as one calibration of 10 trials
    params = FamilyParams(kind="cross_polytope", dim=8)
    edges = edge_probabilities(params, 0.4, 2.0, 1000, 0)
    expected = calibrate(params, 0.4, 2.0, levels=2, max_probes=2, trials=1000, seed=0)
    assert calibrate(
        params, 0.4, 2.0, levels=2, max_probes=2, trials=1000, seed=0, edges=edges
    ).to_json_dict() == expected.to_json_dict()

    def sampled(*args):
        raise AssertionError("sampled before the trial count was checked")

    monkeypatch.setattr(calmod, "_estimate_probe_success", sampled)
    monkeypatch.setattr(calmod, "estimate_collision_prob", sampled)
    for trials, given in [(0, edges), (10, edges), (999, None), (-1, None)]:
        with pytest.raises(ValueError, match="trials must be an integer >= 1000"):
            calibrate(params, 0.4, 2.0, levels=2, max_probes=2, trials=trials, seed=0, edges=given)
    near, far, p2 = edges
    for mixed in [
        (near, far, p2),
        (dataclasses.replace(near, trials=2000), far, p2),
        (near, dataclasses.replace(far, trials=2000), p2),
    ]:
        with pytest.raises(ValueError, match="trials, the calibration asks for 2000"):
            calibrate(params, 0.4, 2.0, levels=2, max_probes=2, trials=2000, seed=0, edges=mixed)
    with pytest.raises(ValueError, match="1000 near and 2000 far"):
        calibrate(
            params, 0.4, 2.0, levels=2, max_probes=2, trials=1000, seed=0,
            edges=(near, dataclasses.replace(far, trials=2000), p2),
        )


def test_calibrate_argument_validation():
    params = FamilyParams(kind="cross_polytope", dim=8)
    with pytest.raises(ValueError):
        calibrate(params, r=0.0, c=2.0, levels=2, max_probes=4, trials=1000, seed=0)
    with pytest.raises(ValueError):
        calibrate(params, r=0.4, c=1.0, levels=2, max_probes=4, trials=1000, seed=0)
    with pytest.raises(ValueError):
        calibrate(params, r=1.5, c=2.0, levels=2, max_probes=4, trials=1000, seed=0)
    with pytest.raises(ValueError):
        calibrate(params, r=0.4, c=2.0, levels=0, max_probes=4, trials=1000, seed=0)
    with pytest.raises(ValueError):
        calibrate(params, r=0.4, c=2.0, levels=2, max_probes=0, trials=1000, seed=0)


def test_calibrate_checks_the_key_bit_budget_before_sampling(no_reestimation):
    # d = 32 gives 64 buckets, 6 bits per slot: 10 levels fit in 63 bits, 11 do not
    params = FamilyParams(kind="cross_polytope", dim=32)
    with pytest.raises(ValueError, match="66 key bits"):
        calibrate(params, r=0.4, c=2.0, levels=11, max_probes=4, trials=1000, seed=0)


def test_calibrate_is_deterministic():
    params = FamilyParams(kind="spherical_cap", dim=8, cap_count=16)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        a = calibrate(params, r=0.4, c=2.0, levels=2, max_probes=4, trials=2000, seed=5)
        b = calibrate(params, r=0.4, c=2.0, levels=2, max_probes=4, trials=2000, seed=5)
    assert a.p1 == b.p1 and a.p2 == b.p2
    assert np.array_equal(a.probe_success, b.probe_success)


def test_calibration_rejects_a_table_that_is_not_2d_and_errors_of_another_shape():
    cal = toy_calibration(FamilyParams(kind="cross_polytope", dim=8), levels=3, max_probes=4)
    table, se = cal.probe_success, cal.probe_success_se
    for bad in (table[0], table[None], table[:0]):
        with pytest.raises(CalibrationError, match="probe-success table has shape"):
            dataclasses.replace(cal, probe_success=bad, probe_success_se=np.zeros_like(bad))
    for bad in (se[:, :2], se.T, se.ravel()):
        with pytest.raises(CalibrationError, match="errors disagree in shape"):
            dataclasses.replace(cal, probe_success_se=bad)


def test_calibration_document_of_another_version_is_refused():
    doc = toy_calibration(FamilyParams(kind="cross_polytope", dim=8)).to_json_dict()
    assert FamilyCalibration.from_json_dict(doc).to_json_dict() == doc
    with pytest.raises(ValueError, match="unsupported calibration version 2"):
        FamilyCalibration.from_json_dict({**doc, "version": 2})
