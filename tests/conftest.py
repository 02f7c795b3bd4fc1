import math

import numpy as np
import pytest

import mlslsh.calibration as calmod
from mlslsh.calibration import FamilyCalibration
from mlslsh.families import bucket_codes
from mlslsh.index import reps


@pytest.fixture(scope="session", autouse=True)
def private_calibration_cache(tmp_path_factory):
    """Point the default calibration cache at a fresh directory, so the tests
    never read or write the user's cache and always run the calibrator."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("MLSLSH_CACHE_DIR", str(tmp_path_factory.mktemp("calibration-cache")))
        yield


@pytest.fixture
def no_reestimation(monkeypatch):
    """Make any Monte-Carlo estimate of the probe-success table fail the test."""

    def never(*args, **kwargs):
        raise AssertionError("the probe table was re-estimated")

    monkeypatch.setattr(calmod, "_estimate_probe_success", never)


def toy_calibration(params, p1=0.8, p2=0.3, levels=6, max_probes=16, slope=0.25):
    """Hand-built calibration at r = 0.4, c = 2 with a synthetic but valid
    probe-success table: p1**k * (1 + slope * (j - 1)), capped at 1."""
    ks = np.arange(1, levels + 1, dtype=np.float64)[:, None]
    js = np.arange(1, max_probes + 1, dtype=np.float64)[None, :]
    table = np.minimum(1.0, p1**ks * (1.0 + slope * (js - 1.0)))
    return FamilyCalibration(
        params=params,
        r=0.4,
        c=2.0,
        p1=p1,
        p2=p2,
        probe_success=table,
        probe_success_se=np.zeros_like(table),
        trials=1000,
        seed=0,
    )


def feasible_reps(index, k, j):
    """reps(k, j) of setting (k, j) on `index`, worked out afresh from the
    calibration table, or None when the setting is infeasible: its success
    probability is 0 or it needs more repetitions than were built."""
    p = float(index.calibration.probe_success[k - 1, j - 1])
    if p == 0.0:
        return None
    count = reps(k, j, p)
    return count if count <= index.num_repetitions else None


def setting_cost(index, k, j):
    """The scheduler's cost estimate of setting (k, j) on `index`, worked
    out afresh: j probes in each of its repetitions; None for an infeasible
    setting, which the schedule leaves out."""
    count = feasible_reps(index, k, j)
    return None if count is None else float(j * count)


def first_depth(index):
    """The depth of the adaptive walk's first read, worked out afresh from
    the schedule and the keys: m_k = sum_b s_b**2 / n over the level-k
    buckets of each repetition a j = 1 entry consults, counted by np.unique
    over the keys cut to k slots and averaged; W the least reps * (1 + m_k)
    over the j = 1 entries; and the deepest level of a j = 1 entry or of
    an entry that costs less than W."""
    single = [e for e in index.schedule if e[2] == 1]
    first = max((count for _, _, _, count, _ in single), default=0)

    def load(k):
        squares = 0
        for rep in index.repetitions[:first]:
            _, sizes = np.unique(rep.keys >> rep.bits * (index.levels - k), return_counts=True)
            squares += sum(int(s) ** 2 for s in sizes)
        return squares / (index.size * first)

    work = min((count * (1.0 + load(k)) for _, k, _, count, _ in single), default=math.inf)
    return max((e[1] for e in index.schedule if e[2] == 1 or e[0] < work), default=0)


def stable_slot_rankings(params, proj, depth):
    """`families.slot_rankings` of every bucket as a stable argsort of every
    row: the own bucket first, then descending scores, ties on the smaller
    id, the cap overflow one unit below the row's worst cap. It shares no
    ranking code with the library, so the probe references rank with it."""
    m = proj.shape[0]
    own = bucket_codes(params, proj)
    if params.kind == "spherical_cap":
        scores = np.hstack([proj, proj.min(axis=1, keepdims=True) - 1.0])
    else:
        scores = np.empty((m, 2 * proj.shape[1]))
        scores[:, 0::2] = proj
        scores[:, 1::2] = -proj
    neg = -scores
    desc = -np.sort(neg, axis=1)
    neg[np.arange(m), own] = -np.inf
    orders = np.argsort(neg, axis=1, kind="stable")
    # the sort returns a zero of either sign, and a zero top score minus a
    # zero of the other sign is -0.0; a ranking's zero deficits are +0.0
    deficits = desc[:, :1] - desc + 0.0
    return [(orders[s::depth], deficits[s::depth]) for s in range(depth)]


def stable_probe_sequence(params, directions, q):
    """`families.probe_sequence` by `stable_slot_rankings`: the (buckets,
    deficits) ranking of the unit row `q` under the one function whose
    (directions, dim) slice of a stack is `directions`."""
    proj = np.asarray(q, dtype=np.float64)[None, :] @ directions.T
    ((orders, deficits),) = stable_slot_rankings(params, proj, 1)
    return orders[0], deficits[0]
