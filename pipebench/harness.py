"""Operations, the round loop, reference-speed normalisation and spans.

Every time this module reports is normalised to a reference host speed.
On a shared 2-core host, speed drifts by up to about 1.8x over a few
seconds, while the time of an operation relative to a fixed pure-Python
reference loop run next to it drifts far less (see README.md).  So the
loop is run between operations, at most every ``REF_EVERY`` seconds,
and after the run each raw time is multiplied by ``REF_SECONDS / t_ref``,
where ``t_ref`` is the median loop time of the ``REF_NEIGHBOURS`` samples
nearest the operation, on both sides of it.  A normalised second is a
second on a host where the loop takes ``REF_SECONDS``.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

REF_SECONDS = 1.5e-3
REF_EVERY = 0.025
REF_NEIGHBOURS = 15


def reference_loop():
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i, i + 7) * Fraction(3, 11)
    return acc


class Clock:
    """Reference-loop samples of one run: their midpoints and durations."""

    def __init__(self):
        self.times = []
        self.loops = []

    def sample(self):
        # the loop leaves no cycles, so the collector is kept out of it
        gc.disable()
        start = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        gc.enable()
        self.times.append((start + end) / 2)
        self.loops.append(end - start)

    def tick(self):
        if not self.times or time.perf_counter() - self.times[-1] >= REF_EVERY:
            self.sample()

    def factor(self, start, end):
        """Normalising factor for an interval, from the samples nearest it."""
        i = bisect.bisect(self.times, (start + end) / 2)
        half = REF_NEIGHBOURS // 2
        lo = max(0, min(i - half, len(self.times) - REF_NEIGHBOURS))
        return REF_SECONDS / statistics.median(self.loops[lo:lo + REF_NEIGHBOURS])


class Mismatch(Exception):
    """An output of the program disagrees with the benchmark's own result."""


def expect(condition, what):
    if not condition:
        raise Mismatch(what)


class Op:
    """One public call on one instance.

    ``call`` is timed.  ``view`` turns its result into a comparable value
    (a CLI op reads its output file there).  The first value is checked
    against the benchmark's own computation by ``check``; later rounds
    must reproduce it exactly.  ``counts`` maps the value to the work
    counters of the op's layer.  ``expand`` may return further ops built
    from the first checked value; they join every round from then on.
    A ``known_fault`` op is counted as failed when it raises.  A
    ``traced_only`` op calls a lower module beside the op that hides it,
    and runs only in traced rounds.  An op that takes another op's result
    as input names it as ``source`` and reads ``source.last``.  A result
    is kept only until its last reader in the round has run; every other
    result is dropped at once, outside the timing, so that no op runs
    beside the live results of the ops before it.
    """

    def __init__(self, name, call, check, counts=None, view=None,
                 known_fault=False, traced_only=False, expand=None, source=None):
        self.name = name
        self.call = call
        self.check = check
        self.counts = counts
        self.view = view
        self.known_fault = known_fault
        self.traced_only = traced_only
        self.expand = expand
        self.source = source
        self.reference = None
        self.checked = False
        self.last = None


class Span:
    __slots__ = ("id", "parent", "name", "round", "start", "end", "factor", "counts")

    def __init__(self, sid, parent, name, round_):
        self.id, self.parent, self.name, self.round = sid, parent, name, round_
        self.start = self.end = None
        self.factor = None  # set from the clock once the run is over
        self.counts = {}

    def add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def as_dict(self):
        return {s: getattr(self, s) for s in self.__slots__}


class Tracer:
    """Spans kept in memory: name, start, end, parent and round."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.round = None

    @contextmanager
    def span(self, name):
        span = Span(len(self.spans), self.stack[-1].id if self.stack else None, name, self.round)
        self.spans.append(span)
        self.stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self.stack.pop()


class RunFailure(Exception):
    pass


class Stats:
    """Raw intervals of one run; normalised once the run is over."""

    def __init__(self):
        self.ops = []      # (start, end) of every op that did not fail
        self.rounds = []   # [(start, end) of each op] per round, failed ops too
        self.attempted = 0
        self.failed = 0

    def normalise(self, clock):
        latencies = [(end - start) * clock.factor(start, end) * 1e3 for start, end in self.ops]
        walls = [sum((end - start) * clock.factor(start, end) for start, end in r) for r in self.rounds]
        return latencies, walls


def run_round(ops, clock, tracer, stats, traced):
    """One pass over the op list, after a full collection so that every
    round starts from the same collector state."""
    gc.collect()
    intervals = []
    stats.rounds.append(intervals)
    last_reader = {id(op.source): op for op in ops if op.source and (traced or not op.traced_only)}
    k = 0
    while k < len(ops):
        op = ops[k]
        k += 1
        if op.traced_only and not traced:
            continue
        clock.tick()
        failed = False
        opened = time.perf_counter()
        with tracer.span(op.name) as span:
            start = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # noqa: BLE001 - the op's outcome is what is measured
                if not op.known_fault:
                    raise RunFailure(f"{op.name} raised {type(exc).__name__}: {exc}") from exc
                failed = True
            end = time.perf_counter()
        intervals.append((opened, time.perf_counter()))
        if end - start >= REF_EVERY:
            clock.sample()
        if not op.traced_only:
            stats.attempted += 1
            stats.failed += failed
        if failed:
            continue
        if not op.traced_only:
            stats.ops.append((start, end))
        if id(op) in last_reader:
            op.last = result
        if op.source and last_reader[id(op.source)] is op:
            op.source.last = None
        value = op.view(result) if op.view else result
        if not op.checked:
            try:
                op.check(value)
            except Mismatch as exc:
                raise RunFailure(f"{op.name}: {exc}") from exc
            op.reference, op.checked = value, True
            if op.expand:
                ops.extend(op.expand(value))
        elif value != op.reference:
            raise RunFailure(f"{op.name}: output differs from the first round's checked output")
        if op.counts:
            for key, amount in op.counts(value).items():
                span.add(key, amount)
        del result, value


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# per-layer metrics from spans

TIME_BUCKETS = {
    "network.forward": "network.forward_s",
    "network.parse_network": "network.parse_s",
    "network.format_network": "network.format_s",
    "polyhedra.member": "polyhedra.member_s",
    "polyhedra.union": "polyhedra.algebra_s",
    "polyhedra.intersection": "polyhedra.algebra_s",
    "polyhedra.complement_poly": "polyhedra.algebra_s",
    "polyhedra.dnf_to_cnf": "polyhedra.algebra_s",
    "polyhedra.cnf_to_dnf": "polyhedra.algebra_s",
    "polyhedra.format_bundle": "polyhedra.bundle_s",
    "polyhedra.parse_bundle": "polyhedra.bundle_s",
    "indexing.normalize_scheme": "indexing.scheme_s",
    "indexing.parse_scheme": "indexing.scheme_s",
    "geometry.parse_point": "geometry.parse_s",
    "geometry.parse_halfspace_block": "geometry.parse_s",
    "kernels.lower_layer": "kernels.lower_ms",
    "kernels.tail_accepted_set": "kernels.tail_s",
    "transform.build_dnf_network": "transform.synth_s",
    "transform.build_cnf_network": "transform.synth_s",
    "transform.extract_scheme": "transform.extract_s",
    "transform.normalize_three_layers": "transform.normalize_s",
    "transform.check_equivalence.exact": "transform.equiv_exact_s",
    "transform.check_equivalence.sampled": "transform.equiv_sampled_s",
    "transform.prune_empty_cells": "transform.prune_s",
    "feasibility.is_feasible": "feasibility.decide_s",
    "feasibility.witness": "feasibility.witness_s",
    "feasibility.cell_witness": "feasibility.witness_s",
}

COUNTERS = (
    "network.points", "polyhedra.points", "polyhedra.pairs_out", "geometry.values",
    "kernels.vectors", "kernels.accepted", "transform.cells_checked",
    "transform.cells_kept", "feasibility.systems", "cli.calls",
)


def _bucket(name):
    return "cli.s" if name.startswith("cli.") else TIME_BUCKETS.get(name)


def self_times(spans, clock):
    """Normalised duration of each span minus the part its children cover."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        span.factor = clock.factor(span.start, span.end)
        out[span.id] = (span.end - span.start - covered) * span.factor
    return out


def layer_metrics(spans, clock, traced_rounds, modules_loaded, overhead_s):
    """Set-up spans count once; round spans are averaged per traced round."""
    own = self_times(spans, clock)
    keys = set(TIME_BUCKETS.values()) | {"cli.s"} | set(COUNTERS)
    setup = dict.fromkeys(keys, 0)
    rounds = dict.fromkeys(keys, 0)
    for span in spans:
        into = setup if span.round == "setup" else rounds
        bucket = _bucket(span.name)
        if bucket:
            into[bucket] += own[span.id]
            if bucket == "cli.s":
                into["cli.calls"] += 1
        for key, amount in span.counts.items():
            into[key] += amount
    totals = {key: setup[key] + rounds[key] / traced_rounds for key in keys}
    totals["kernels.lower_ms"] *= 1e3

    def rate(num, den):
        return totals[num] / totals[den] if totals[den] else 0.0

    feas_s = totals["feasibility.decide_s"] + totals["feasibility.witness_s"]
    totals.update({
        "network.points_per_s": rate("network.points", "network.forward_s"),
        "polyhedra.pairs_per_s": rate("polyhedra.pairs_out", "polyhedra.algebra_s"),
        "kernels.vectors_per_s": rate("kernels.vectors", "kernels.tail_s"),
        "transform.kept_ratio": rate("transform.cells_kept", "transform.cells_checked"),
        "feasibility.systems_per_s": totals["feasibility.systems"] / feas_s if feas_s else 0.0,
        "cli.ms_per_call": 1e3 * rate("cli.s", "cli.calls"),
        "cli.modules_loaded": modules_loaded,
        "trace.overhead_s": overhead_s,
    })
    return totals
