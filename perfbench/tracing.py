"""In-memory tracing for the benchmark.

A span has a name, a start, an end, a parent span and the id of the check
it belongs to; spans are kept in a list and written out once the run ends.
Functions called once per draw (the mechanisms and the noise sampler) are
aggregated instead: each call adds to a count and a total time, but no span
is stored. Both kinds sit on one stack, so a layer's self time is its
duration minus the time of every traced call made inside it, aggregated or
not. The layer of a name is its first dotted component.

The wrappers are installed from the benchmark's own code by rebinding the
public functions wherever a dpselect module refers to them, and removed
again afterwards; nothing under src/ changes.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# per-name call statistics: calls, total ns, self ns, units (draws, pairs, ...)
CALLS, TOTAL_NS, SELF_NS, UNITS = range(4)


def enumeration_band(k: int) -> str:
    if k <= 10:
        return "k2-10"
    if k <= 15:
        return "k11-15"
    return "k16-20"


def quadrature_band(k: int) -> str:
    return "k2-20" if k <= 20 else "k32-64"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent id, check id, name, start ns, end ns)
        self.calls: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0, 0])
        self.layer_self_ns: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.root_ns = 0  # time covered by frames opened with an empty stack
        self.check_id: int | None = None
        self._stack: list[list] = []  # [span id or None, child ns]
        self._next_id = 0

    def _enter(self, record: bool) -> list:
        span_id = None
        if record:
            span_id = self._next_id
            self._next_id += 1
        frame = [span_id, 0, self._parent_id(), time.perf_counter_ns()]
        self._stack.append(frame)
        return frame

    def _parent_id(self):
        for frame in reversed(self._stack):
            if frame[0] is not None:
                return frame[0]
        return None

    def _exit(self, name: str, frame: list, units: int = 0) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        span_id, child_ns, parent, start = frame
        duration = end - start
        self_ns = duration - child_ns
        stats = self.calls[name]
        stats[CALLS] += 1
        stats[TOTAL_NS] += duration
        stats[SELF_NS] += self_ns
        stats[UNITS] += units
        self.layer_self_ns[name.split(".", 1)[0]] += self_ns
        if self._stack:
            self._stack[-1][1] += duration
        else:
            self.root_ns += duration
        if span_id is not None:
            self.spans.append((span_id, parent, self.check_id, name, start, end))

    @contextmanager
    def span(self, name: str, units: int = 0):
        frame = self._enter(True)
        try:
            yield frame
        finally:
            self._exit(name, frame, units)

    def wrap(self, fn, name, aggregate=False, units=None, count=None):
        """Return fn wrapped in a span (or an aggregated call when
        aggregate is set). name is a string or a function of the call's
        arguments; units(args) gives the work units of one call and
        count(counters, args, result) updates the exact counters."""

        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            frame = self._enter(not aggregate)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(label, frame, units(args) if units else 0)
            if count is not None:
                count(self.counters, args, result)
            return result

        return traced

    def absorb(self, dump: dict, frame: list) -> None:
        """Merge the tracer state a child process dumped, nesting its root
        spans under the open frame that started the child."""
        offset = self._next_id
        parent = frame[0]
        for span_id, span_parent, _, name, start, end in dump["spans"]:
            self.spans.append(
                (span_id + offset,
                 parent if span_parent is None else span_parent + offset,
                 self.check_id, name, start, end)
            )
        self._next_id += max((s[0] for s in dump["spans"]), default=-1) + 1
        for name, stats in dump["calls"].items():
            mine = self.calls[name]
            for i, value in enumerate(stats):
                mine[i] += value
        for layer, ns in dump["layer_self_ns"].items():
            self.layer_self_ns[layer] += ns
        for key, value in dump["counters"].items():
            self.counters[key] += value
        frame[1] += dump["root_ns"]

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "calls": dict(self.calls),
            "layer_self_ns": dict(self.layer_self_ns),
            "counters": dict(self.counters),
            "root_ns": self.root_ns,
        }


def _count_enumeration(counters, args, result):
    k = len(args[0].quality)
    counters["oracle.enumeration_terms"] += k * 2 ** (k - 1)
    counters["oracle.tables"] += 1


def _count_table(counters, args, result):
    counters["oracle.tables"] += 1


def _count_draws(counters, args, result):
    counters["oracle.draws"] += int(args[2])


def _count_rejection(counters, args, result):
    counters["oracle.chi_square_gof.rejections"] += 0 if result.passed else 1


def _count_bytes(counters, args, result):
    counters["formats.bytes_read"] += os.path.getsize(args[0])


def _k(inst) -> int:
    return len(inst.quality)


def install(tracer: Tracer):
    """Wrap dpselect's public functions at every binding the loaded dpselect
    modules hold, and the entries of the MECHANISMS and EXACT_ORACLES
    tables. Returns an undo function."""
    from dpselect import audit, core, formats, mechanisms, noise, oracle

    specs = [
        (oracle.pf_exact_distribution,
         dict(name=lambda inst: f"oracle.pf_exact_distribution.{enumeration_band(_k(inst))}",
              count=_count_enumeration)),
        (oracle.rnm_expo_exact_distribution,
         dict(name=lambda inst: f"oracle.rnm_expo_exact_distribution.{enumeration_band(_k(inst))}",
              count=_count_enumeration)),
        (oracle.em_exact_distribution,
         dict(name="oracle.em_exact_distribution", count=_count_table)),
        (oracle.rnm_exact_quadrature,
         dict(name=lambda inst, kind: f"oracle.rnm_exact_quadrature.{kind}.{quadrature_band(_k(inst))}",
              count=_count_table)),
        (oracle.tv_distance, dict(name="oracle.tv_distance")),
        (oracle.empirical_counts, dict(name="oracle.empirical_counts", count=_count_draws)),
        (oracle.chi_square_gof, dict(name="oracle.chi_square_gof", count=_count_rejection)),
        (audit.privacy_ratio_audit,
         dict(name="audit.privacy_ratio_audit", units=lambda args: len(args[1]))),
        (audit.dominance_check,
         dict(name="audit.dominance_check", units=lambda args: len(args[0]))),
        (core.validate_instance, dict(name="core.validate_instance")),
        (formats.load_quality_vector,
         dict(name="formats.load_quality_vector", count=_count_bytes)),
        (formats.load_neighbor_pairs,
         dict(name="formats.load_neighbor_pairs", count=_count_bytes)),
        (noise.samples,
         dict(name=lambda kind, rng, n: f"noise.samples.{type(kind).__name__.lower()}",
              aggregate=True, units=lambda args: int(args[2]))),
    ]
    wrapped = {id(fn): tracer.wrap(fn, **spec) for fn, spec in specs}
    for mechanism, fn in mechanisms.MECHANISMS.items():
        wrapped[id(fn)] = tracer.wrap(fn, f"mechanisms.{mechanism}", aggregate=True)

    undo = []
    modules = [m for n, m in list(sys.modules.items()) if n == "dpselect" or n.startswith("dpselect.")]
    tables = [mechanisms.MECHANISMS, oracle.EXACT_ORACLES]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if callable(value) and id(value) in wrapped:
                setattr(module, attr, wrapped[id(value)])
                undo.append((module, attr, value))
    for table in tables:
        for key, value in list(table.items()):
            if id(value) in wrapped:
                table[key] = wrapped[id(value)]
                undo.append((table, key, value))

    def uninstall() -> None:
        for owner, key, value in reversed(undo):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    return uninstall
