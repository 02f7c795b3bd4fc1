"""Span recorder that wraps mlslsh's public entry points from outside the library.

Every wrapped call is a span: its name, its duration, the span that was open
when it started (its parent) and the benchmark phase it ran in. Fine-grained
layers such as bucket lookups run thousands of times per query, so spans are
folded as they close into totals keyed by (phase, parent, name) rather than
kept one by one; self time, per-parent child time and call counts, which are
all the layer metrics need, survive the folding exactly.

Nothing under src/ is edited: `Tracer.patched()` swaps module and class
attributes for wrappers and puts the originals back on exit.
"""

from __future__ import annotations

import inspect
from collections import defaultdict
from contextlib import contextmanager

from mlslsh import bench, calibration, families, index, query

from speed import clock


class Tracer:
    def __init__(self) -> None:
        self.phase = "setup"
        # (phase, parent name or None, name) -> [calls, seconds, self seconds]
        self.totals: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0.0])
        # (phase, event) -> count or seconds, for outcomes a span alone cannot show
        self.events: dict[tuple, float] = defaultdict(float)
        self._stack: list[list] = []  # open spans: [name, seconds covered by children]
        self._extensions: list = []  # calibrations returned by a re-estimation

    def wrap(self, name: str, fn, on_result=None):
        """`fn` recorded as span `name`; `on_result(args, result, seconds)` sees each success."""

        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            frame = [name, 0.0]
            self._stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = clock() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += seconds
                rec = self.totals[(self.phase, parent, name)]
                rec[0] += 1
                rec[1] += seconds
                rec[2] += seconds - frame[1]
            if on_result is not None:
                on_result(args, result, seconds)
            return result

        return traced

    def calls(self, name: str, phases) -> int:
        return sum(v[0] for k, v in self._select(name, phases, ...))

    def seconds(self, name: str, phases, parent=...) -> float:
        return sum(v[1] for k, v in self._select(name, phases, parent))

    def self_seconds(self, name: str, phases) -> float:
        return sum(v[2] for k, v in self._select(name, phases, ...))

    def event(self, name: str, phases) -> float:
        return sum(v for (ph, ev), v in self.events.items() if ev == name and ph in phases)

    def _select(self, name, phases, parent):
        for key, value in self.totals.items():
            ph, par, nm = key
            if nm == name and ph in phases and (parent is ... or par == parent):
                yield key, value

    def _on_prefix_range(self, args, result, seconds) -> None:
        lo, hi = result
        if lo == hi:
            self.events[(self.phase, "index.prefix_range.empty")] += 1

    def _on_ensure_probes(self, args, result, seconds) -> None:
        # extensions are cached on the calibration, so a wider table returned
        # for the first time is exactly one Monte-Carlo re-estimation
        if result.max_probes > args[0].max_probes and not any(
            result is e for e in self._extensions
        ):
            self._extensions.append(result)
            self.events[(self.phase, "calibration.reestimations")] += 1
            self.events[(self.phase, "calibration.reestimation_s")] += seconds

    def _targets(self):
        """(owner, attribute, span name, result hook) for every wrapped entry point.

        Modules that import a function by name hold their own binding, so each
        binding the benchmark's call path goes through is wrapped.
        """
        return [
            (bench, "edge_probabilities", "calibration.edge", None),
            (calibration, "edge_probabilities", "calibration.edge", None),
            (bench, "calibrate", "calibration.calibrate", None),
            (calibration.FamilyCalibration, "ensure_probes", "calibration.ensure_probes",
             self._on_ensure_probes),
            (calibration, "hash_batch", "families.hash_batch", None),
            (index, "hash_batch", "families.hash_batch", None),
            (query, "probe_sequence", "families.probe_sequence", None),
            (families.CodeEnumerator, "first", "families.enumerate", None),
            (bench, "build_index", "index.build", None),
            (index.Repetition, "prefix_range", "index.prefix_range", self._on_prefix_range),
        ]

    @contextmanager
    def patched(self):
        saved = []
        try:
            for owner, attr, name, hook in self._targets():
                original = inspect.getattr_static(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
