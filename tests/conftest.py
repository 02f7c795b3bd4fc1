import pytest

import mlslsh.calibration as calmod


@pytest.fixture
def no_reestimation(monkeypatch):
    """Make any Monte-Carlo estimate of the probe-success table fail the test."""

    def never(*args, **kwargs):
        raise AssertionError("the probe table was re-estimated")

    monkeypatch.setattr(calmod, "_estimate_probe_success", never)
