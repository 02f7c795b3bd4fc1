"""Every entry point the benchmark's span tracer wraps still exists.

`perfbench/spans.py` swaps library functions and methods for wrappers by
name, so a rename or deletion in `src/` breaks the traced benchmark. Entering
and leaving `Tracer().patched()` here makes that a tier-1 failure.
"""

import inspect
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_patches_and_restores_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        import spans

        tracer = spans.Tracer()
        targets = [(owner, attr) for owner, attr, _, _ in tracer._targets()]
        before = [inspect.getattr_static(owner, attr) for owner, attr in targets]
        with tracer.patched():
            during = [inspect.getattr_static(owner, attr) for owner, attr in targets]
        after = [inspect.getattr_static(owner, attr) for owner, attr in targets]
    finally:
        # the benchmark's modules stay importable only inside this test
        for name in ("spans", "speed"):
            sys.modules.pop(name, None)
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))
