"""Every entry point the benchmark's span tracer wraps still exists, and
still sees the calls its per-layer metrics count.

`perfbench/spans.py` swaps library functions and methods for wrappers by
name, so a rename or deletion in `src/` breaks the traced benchmark. Entering
and leaving `Tracer().patched()` here makes that a tier-1 failure.
"""

import inspect
import sys
from pathlib import Path

import pytest

from mlslsh.calibration import estimate_collision_prob
from mlslsh.families import FamilyParams

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def spans_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        import spans

        yield spans
    finally:
        # the benchmark's modules stay importable only inside one test
        for name in ("spans", "speed"):
            sys.modules.pop(name, None)


def test_tracer_patches_and_restores_every_wrapped_name(spans_module):
    tracer = spans_module.Tracer()
    targets = [(owner, attr) for owner, attr, _, _ in tracer._targets()]
    before = [inspect.getattr_static(owner, attr) for owner, attr in targets]
    with tracer.patched():
        during = [inspect.getattr_static(owner, attr) for owner, attr in targets]
    after = [inspect.getattr_static(owner, attr) for owner, attr in targets]
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))


@pytest.mark.parametrize("kind", ["cross_polytope", "spherical_cap"])
def test_traced_collision_estimate_counts_its_hash_batch_calls(spans_module, kind):
    # 1000 trials are three batches of 256 pairs and one of 232, and each
    # batch hashes its anchors and its partners through calibration.hash_batch:
    # the set-up metric families.hash_batch_calls counts exactly these
    tracer = spans_module.Tracer()
    with tracer.patched():
        estimate_collision_prob(FamilyParams(kind=kind, dim=32), 0.4, 1000, seed=0)
    assert tracer.calls("families.hash_batch", ("setup",)) == 8
