import numpy as np
import pytest

import mlslsh.calibration as calmod
import mlslsh.index as indexmod
import mlslsh.query as querymod
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


def first_read(index):
    """The (repetitions, depth) both walks of `index` read first, worked out
    afresh from the schedule and the keys: m_k = sum_b s_b**2 / n over the
    level-k buckets of each repetition a j = 1 entry consults, counted by
    np.unique over the keys cut to k slots and averaged; W the least
    reps * (1 + m_k) over the j = 1 entries; the depth the deepest level of
    the cheapest j = 1 entry and of those whose cost plus `CODE_CHARGE` per
    function they code, reps * k, stays below W; and the most repetitions
    of a j = 1 entry at most that deep. (0, K) for a schedule of no j = 1
    entry, whose adaptive walk reads nothing first."""
    single = [e for e in index.schedule if e[2] == 1]
    if not single:
        return 0, max((e[1] for e in index.schedule), default=0)
    first = max(count for _, _, _, count, _ in single)

    def load(k):
        squares = 0
        for rep in index.repetitions[:first]:
            _, sizes = np.unique(rep.keys >> rep.bits * (index.levels - k), return_counts=True)
            squares += sum(int(s) ** 2 for s in sizes)
        return squares / (index.size * first)

    work = min(count * (1.0 + load(k)) for _, k, _, count, _ in single)
    charged = [k for c, k, _, count, _ in single if c + indexmod.CODE_CHARGE * count * k < work]
    depth = max([single[0][1], *charged])
    return max(count for _, k, _, count, _ in single if k <= depth), depth


def zero_charges(mp):
    """Patch both walk charges to 0 on `mp`, a pytest MonkeyPatch, in the
    index module, whose builds read CODE_CHARGE for the first read and
    whose pair the reference walks of the tests read, and in the query
    module, whose walks read both. Only an index built after the patch
    reads first as a walk without charges does."""
    for module in (indexmod, querymod):
        mp.setattr(module, "CODE_CHARGE", 0.0)
        mp.setattr(module, "RANK_CHARGE", 0.0)


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
