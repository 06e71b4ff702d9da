"""Layer tracing for the benchmark's traced run.

`traced(tracer)` rebinds public xbarc functions in the namespaces that call
them, for the duration of the `with` block only, and restores the originals
on exit. Calls at layer boundaries become spans (name, start, end, parent,
circuit id) held in memory. Calls that run thousands of times per circuit
(the crossbar checks and moves, the simulator's gate applications) are
counted as leaves instead: their time and call count are summed per layer
and charged to the enclosing span, so self times still add up to the root.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from xbarc import cli, mapper, metrics, scheduler, sim, verifier

# (module, attribute, layer name): span boundaries
SPANS = (
    (cli, "parse_qasm", "qasm.parse"),
    (cli, "decompose", "ir.decompose"),
    (cli, "initial_placement", "mapper.place"),
    (cli, "timed_schedule", "scheduler.schedule"),
    (cli, "verify", "verifier.verify"),
    (cli, "build_fidelity_map", "metrics.fmap"),
    (cli, "overhead_report", "metrics.report"),
    (cli, "emit_output", "qasm.emit"),
    (cli, "schedule_from_doc", "instructions.from_doc"),
    (scheduler, "split_cycle", "scheduler.split"),
    (scheduler, "route_two_qubit", "mapper.route"),
    (scheduler, "z_route", "mapper.route"),
    (scheduler, "expand_semi_global", "mapper.route"),
    (verifier, "replay_verify", "verifier.replay"),
    (verifier, "statevector_equiv", "verifier.equiv"),
    (verifier, "simulate_circuit", "sim.circuit"),
    (verifier, "simulate_schedule", "sim.schedule"),
    (metrics, "esp", "metrics.esp"),
)

# (module, attribute, layer name): counted leaves
LEAVES = (
    (scheduler, "check_parallel_set", "crossbar.check"),
    (mapper, "check_parallel_set", "crossbar.check"),
    (verifier, "check_parallel_set", "crossbar.check"),
    (scheduler, "apply_cycle", "crossbar.apply"),
    (mapper, "apply_cycle", "crossbar.apply"),
    (verifier, "apply_op", "crossbar.apply"),
    (metrics, "apply_op", "crossbar.apply"),
    (verifier, "apply_1q", "sim.apply"),
    (verifier, "apply_2q", "sim.apply"),
    (sim, "apply_gate", "sim.apply"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    circuit: str | None = None
    root: str = ""  # name of the outermost span above this one
    child_s: float = 0.0  # time covered by child spans and leaves

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class Leaf:
    calls: int = 0
    seconds: float = 0.0
    not_ok: int = 0  # check_parallel_set reports with ok=False


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    # keyed by (root span name, leaf layer name)
    leaves: dict[tuple[str, str], Leaf] = field(default_factory=lambda: defaultdict(Leaf))
    circuit: str | None = None
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        root = self.spans[parent].root if parent is not None else name
        s = Span(name, time.perf_counter(), parent=parent, circuit=self.circuit, root=root)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_s += s.duration

    def wrap_span(self, name: str, fn):
        def traced_call(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced_call

    def wrap_leaf(self, name: str, fn):
        def counted_call(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                enclosing = self.spans[self._stack[-1]] if self._stack else None
                stat = self.leaves[(enclosing.root if enclosing else "", name)]
                stat.calls += 1
                stat.seconds += dt
                if enclosing is not None:
                    enclosing.child_s += dt
            if getattr(result, "ok", True) is False:
                stat.not_ok += 1
            return result

        return counted_call

    def self_times(self, root: str | None = None) -> dict[str, float]:
        """Seconds of self time per layer, under one root span name or all.
        Leaves count whole, since no traced call runs inside them."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if root in (None, s.root):
                out[s.name] += s.self_s
        for (leaf_root, name), stat in self.leaves.items():
            if root in (None, leaf_root):
                out[name] += stat.seconds
        return dict(out)

    def leaf(self, name: str) -> Leaf:
        """Totals of one leaf layer over all roots."""
        total = Leaf()
        for (_, leaf_name), stat in self.leaves.items():
            if leaf_name == name:
                total.calls += stat.calls
                total.seconds += stat.seconds
                total.not_ok += stat.not_ok
        return total

    def to_json(self) -> dict:
        return {
            "spans": [
                {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "circuit": s.circuit}
                for s in self.spans
            ],
            "leaves": [{"root": r, "name": n, **vars(v)} for (r, n), v in self.leaves.items()],
        }


@contextmanager
def traced(tracer: Tracer):
    """Rebind every boundary in SPANS and LEAVES to `tracer`'s wrappers."""
    saved = []
    try:
        for table, wrap in ((SPANS, tracer.wrap_span), (LEAVES, tracer.wrap_leaf)):
            for module, attr, name in table:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, wrap(name, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
