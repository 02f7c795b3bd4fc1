"""Every count the library takes passes `geometry.checked_int`: sizes,
levels, probes, trials and budgets, seeds, and every count of a
`BenchConfig`, a `FamilyCalibration` and a calibration cache key.

At each site a float and a bool raise ValueError naming the argument (an
IndexFormatError for an index header), before any Monte Carlo or sampling
runs, and a numpy integer is taken as the Python int it equals."""

import json
import re
import struct
import tempfile
from dataclasses import asdict, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

import mlslsh.calibration as calmod
import mlslsh.geometry as geometry
from conftest import toy_calibration
from mlslsh.bench import BenchConfig, build_for_config, calibrate_cached
from mlslsh.calibration import calibrate, check_max_probes, edge_probabilities
from mlslsh.calibration import estimate_collision_prob
from mlslsh.families import CodeEnumerator, FamilyParams
from mlslsh.geometry import checked_int, generate_planted_instance
from mlslsh.index import IndexFormatError, _check_metadata, build_index, load_index
from mlslsh.query import fixed_level_query

CP8 = FamilyParams(kind="cross_polytope", dim=8)


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """A planted instance, its index and the index file's header."""
    inst = generate_planted_instance(n=200, d=8, r=0.4, t=3, seed=4)
    index = build_index(inst.dataset, toy_calibration(CP8, max_probes=8), seed=1)
    path = tmp_path_factory.mktemp("counts") / "small.idx"
    index.save(str(path))
    return inst, index, _header(path.read_bytes())


def _header(blob: bytes) -> dict:
    (meta_len,) = struct.unpack_from("<Q", blob, 16)
    return json.loads(blob[24 : 24 + meta_len])


class Site(NamedTuple):
    name: str  # the argument's name, as the error gives it
    good: int  # a valid value
    # the site called with one count, giving a JSON value that holds the count
    # wherever the site keeps it
    call: Callable
    error: type = ValueError


def _query(small, k, j):
    inst, index, _ = small
    return fixed_level_query(index, inst.queries[0].coords, 0.4, k, j).to_json_dict()


def _metadata(key):
    # all but the calibration, whose arrays JSON does not take
    return lambda small, v: list(_check_metadata({**small[2], key: v})[1:])


def _calibrate(**counts):
    counts = {"levels": 2, "max_probes": 2, "trials": 1000, "seed": 0, **counts}
    return calibrate(CP8, 0.4, 2.0, **counts).to_json_dict()


def _cached(**counts):
    # the one file a cold call writes: its name, made from the cache key, and
    # its document
    counts = {"levels": 2, "max_probes": 2, "trials": 1000, "seed": 0, **counts}
    with tempfile.TemporaryDirectory() as cache:
        calibrate_cached(CP8, 0.4, 2.0, **counts, cache_dir=cache)
        (path,) = Path(cache).iterdir()
        return [path.name, json.loads(path.read_text())]


def _planted(**counts):
    counts = {"n": 40, "d": 4, "t": 2, "num_queries": 3, "seed": 2, **counts}
    inst = generate_planted_instance(**counts, r=0.4)
    return [inst.dataset.matrix.tolist(), [sorted(g) for g in inst.ground_truth]]


def _bench(**counts):
    return BenchConfig(0.4, 2.0, **counts).to_json_dict()


def _built(small, seed):
    inst, index, _ = small
    built = build_index(inst.dataset, index.calibration, seed=seed)
    return [built.seed, _query((inst, built, None), 2, 2)]


SITES = {
    "family-dim": Site("dim", 8, lambda s, v: FamilyParams("cross_polytope", v).to_json_dict()),
    "family-cap-count": Site(
        "cap_count", 8, lambda s, v: FamilyParams("spherical_cap", 8, v).to_json_dict()
    ),
    "family-cap-count-cross-polytope": Site(
        "cap_count", 0, lambda s, v: FamilyParams("cross_polytope", 8, v).to_json_dict()
    ),
    "enumerator-count": Site(
        "count", 2, lambda s, v: CodeEnumerator([([0, 1], [0.0, 1.0])]).first(v)
    ),
    "fixed-level": Site("level k", 2, lambda s, v: _query(s, v, 2)),
    "fixed-probes": Site("probe count j", 2, lambda s, v: _query(s, 1, v)),
    "space-budget": Site(
        "space budget", 2,
        lambda s, v: build_index(s[0].dataset, s[1].calibration, v, seed=1).space_budget,
    ),
    **{
        f"metadata-{key}": Site(key, good, _metadata(key), IndexFormatError)
        for key, good in [("n", 200), ("d", 8), ("levels", 5), ("num_repetitions", 4), ("seed", 1)]
    },
    "check-max-probes": Site("max_probes", 2, lambda s, v: check_max_probes(v)),
    "calibrate-levels": Site("levels", 2, lambda s, v: _calibrate(levels=v)),
    "calibrate-max-probes": Site("max_probes", 2, lambda s, v: _calibrate(max_probes=v)),
    "calibrate-trials": Site("trials", 1000, lambda s, v: _calibrate(trials=v)),
    **{
        f"cached-{key.replace('_', '-')}": Site(
            key, good, lambda s, v, key=key: _cached(**{key: v})
        )
        for key, good in [("levels", 2), ("max_probes", 2), ("trials", 1000), ("seed", 3)]
    },
    "collision-trials": Site(
        "trials", 1000, lambda s, v: asdict(estimate_collision_prob(CP8, 0.4, v, 0))
    ),
    **{
        f"planted-{key}": Site(key, good, lambda s, v, key=key: _planted(**{key: v}))
        for key, good in [("n", 40), ("d", 4), ("t", 2), ("num_queries", 3)]
    },
    "bench-config-queries": Site(
        "num_queries", 3, lambda s, v: BenchConfig(0.4, 2.0, num_queries=v).to_json_dict()
    ),
    **{
        f"bench-config-{key.replace('_', '-')}": Site(
            name, good, lambda s, v, key=key: _bench(**{key: v})
        )
        for key, name, good in [
            ("seed", "seed", 1), ("synthetic_n", "synthetic_n", 40),
            ("synthetic_d", "synthetic_d", 4), ("planted", "planted", 2),
            ("cap_count", "cap_count", 8), ("trials", "trials", 1000),
            ("max_probes", "max_probes", 2), ("space_budget", "space budget", 2),
        ]
    },
    "bench-config-fixed-level": Site(
        "fixed_level", 2, lambda s, v: _bench(modes=("fixed",), fixed_level=v, fixed_probes=1)
    ),
    "bench-config-fixed-probes": Site(
        "fixed_probes", 2, lambda s, v: _bench(modes=("fixed",), fixed_level=1, fixed_probes=v)
    ),
    **{
        f"calibration-{key}": Site(
            key, good, lambda s, v, key=key: replace(s[1].calibration, **{key: v}).to_json_dict()
        )
        for key, good in [("trials", 1000), ("seed", 3)]
    },
    "calibrate-seed": Site("seed", 3, lambda s, v: _calibrate(seed=v)),
    "collision-seed": Site(
        "seed", 3, lambda s, v: asdict(estimate_collision_prob(CP8, 0.4, 1000, v))
    ),
    "edge-seed": Site(
        "seed", 3, lambda s, v: [asdict(e) for e in edge_probabilities(CP8, 0.4, 2.0, 1000, v)[:2]]
    ),
    "build-seed": Site("seed", 1, _built),
    "planted-seed": Site("seed", 2, lambda s, v: _planted(seed=v)),
}


def _never(*args, **kwargs):
    raise AssertionError("sampled before the counts were checked")


@pytest.mark.parametrize("site", SITES.values(), ids=SITES.keys())
def test_a_float_or_a_bool_count_fails_naming_it_before_any_sampling(small, monkeypatch, site):
    for owner, name in [
        (calmod, "edge_probabilities"),
        (calmod, "estimate_collision_prob"),
        (calmod, "_estimate_probe_success"),
        (geometry, "uniform_unit_vectors"),
    ]:
        monkeypatch.setattr(owner, name, _never)
    for bad in (float(site.good), True):
        with pytest.raises(ValueError) as caught:
            site.call(small, bad)
        assert type(caught.value) is site.error
        assert re.search(rf"(^|\W){re.escape(site.name)} must be an? ", str(caught.value)), (
            caught.value
        )


@pytest.mark.parametrize("site", SITES.values(), ids=SITES.keys())
def test_a_numpy_count_is_the_int_it_equals(small, site):
    # json.dumps fails on a numpy integer, so a site that kept one fails here
    expected = json.dumps(site.call(small, site.good))
    for as_numpy in (np.int64, np.int32, np.uint16):
        assert json.dumps(site.call(small, as_numpy(site.good))) == expected


def test_checked_int_names_the_bound():
    assert checked_int("x", -3) == -3
    assert type(checked_int("x", np.uint8(7), 7)) is int
    for value, least, message in [
        (1.0, None, "x must be an integer, got 1.0"),
        (np.bool_(True), None, "x must be an integer, got np.True_"),
        ("1", 0, "x must be a non-negative integer, got '1'"),
        (-1, 0, "x must be a non-negative integer, got -1"),
        (np.int64(0), 1, "x must be a positive integer, got np.int64(0)"),
        (999, 1000, "x must be an integer >= 1000, got 999"),
        (None, 2, "x must be an integer >= 2, got None"),
    ]:
        with pytest.raises(ValueError) as caught:
            checked_int("x", value, least)
        assert str(caught.value) == message


def test_a_numpy_space_budget_is_saved_as_an_int(tmp_path, small):
    inst, index, _ = small
    capped = build_index(inst.dataset, index.calibration, space_budget=np.int64(2), seed=1)
    assert type(capped.space_budget) is int and capped.num_repetitions == 2
    path = tmp_path / "capped.idx"
    capped.save(str(path))
    assert _header(path.read_bytes())["space_budget"] == 2
    loaded = load_index(str(path))
    assert loaded.space_budget == 2 and loaded.num_repetitions == 2
    assert np.array_equal(loaded.keys, capped.keys)
    assert np.array_equal(loaded.order, capped.order)
    assert np.array_equal(loaded.directions, capped.directions)
    assert _query((inst, loaded, None), 1, 2) == _query((inst, capped, None), 1, 2)


def test_numpy_counts_of_a_config_build_save_and_load_as_ints(tmp_path):
    # a numpy trials, max_probes or seed once passed the config, ran the
    # edge Monte Carlo and failed writing the calibration cache's JSON; a
    # numpy trials or seed of a calibration, or a numpy build seed, failed
    # in the index header's JSON. Each now gives the bytes the ints give
    inst = generate_planted_instance(n=300, d=8, r=0.4, t=3, seed=4)
    files = {}
    for kind in (int, np.int64, np.uint16):
        cache = tmp_path / f"cache-{kind.__name__}"
        config = BenchConfig(
            0.4, 2.0, seed=kind(7), trials=kind(1000), max_probes=kind(4),
            space_budget=kind(3), cache_dir=str(cache),
        )
        built = build_for_config(config, inst.dataset)
        (cached,) = cache.iterdir()
        doc = json.loads(cached.read_text())
        assert type(doc["trials"]) is int and type(doc["seed"]) is int
        calibration = replace(built.calibration, trials=kind(2000), seed=kind(5))
        index = build_index(inst.dataset, calibration, 3, seed=kind(7))
        path = tmp_path / f"{kind.__name__}.idx"
        index.save(str(path))
        header = _header(path.read_bytes())
        assert [header["seed"], header["space_budget"]] == [7, 3]
        assert [header["calibration"]["trials"], header["calibration"]["seed"]] == [2000, 5]
        loaded = load_index(str(path))
        for a, b in [(loaded, index), (index, built)]:
            assert np.array_equal(a.keys, b.keys) and np.array_equal(a.order, b.order)
            assert np.array_equal(a.directions, b.directions)
        files[kind] = cached.name, cached.read_bytes(), path.read_bytes()
    assert files[np.int64] == files[int] == files[np.uint16]
