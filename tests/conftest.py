import pytest

import mlslsh.calibration as calmod
from mlslsh.families import HashFunction, derived_seed


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


def slot_functions(index, r):
    """Repetition r's K hash functions, one per slot, each on its rows of the
    index's direction block: the one-function form per-function oracles
    hash and rank with."""
    K = index.levels
    return [
        HashFunction(
            index.family, derived_seed(index.seed, r, s), index.directions[r * K + s]
        )
        for s in range(K)
    ]
