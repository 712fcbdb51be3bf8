"""Spans around tcq's public functions, taken from outside the package.

``Tracer.installed()`` replaces each traced function at every name a caller
looks it up by (for example ``tcq.chain.stationary``, which ``analyze``
calls, and ``tcq.symmetry.stationary``, which ``quotient_analyze`` calls)
and puts every original back on exit. Spans stay in memory until the run
writes them out. ``viterbi.reduced_transition`` runs once per arc, so it is
only counted, against the innermost open span; its time stays in that
span's self time.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

# layer name -> (defining module, function)
TRACED = {
    "statespace.enumerate": ("tcq.statespace", "enumerate_states"),
    "graph.validate": ("tcq.graph", "validate"),
    "graph.exact_path_constant": ("tcq.graph", "exact_path_constant"),
    "chain.analyze": ("tcq.chain", "analyze"),
    "chain.build": ("tcq.chain", "build_chain"),
    "chain.closed_classes": ("tcq.chain", "closed_classes"),
    "chain.stationary": ("tcq.chain", "stationary"),
    "rd.rate_of": ("tcq.graph", "rate_of"),
    "rd.blahut": ("tcq.rd", "blahut"),
    "symmetry.induced_fibers": ("tcq.symmetry", "induced_fibers"),
    "symmetry.quotient": ("tcq.symmetry", "quotient"),
    "symmetry.quotient_analyze": ("tcq.symmetry", "quotient_analyze"),
    "sim.simulate": ("tcq.sim", "simulate"),
    "viterbi.encode": ("tcq.viterbi", "encode"),
    "viterbi.brute_force": ("tcq.viterbi", "brute_force_min"),
    "cli.main": ("tcq.cli", "main"),
}
COUNTED = {"viterbi.reduced_transition": ("tcq.viterbi", "reduced_transition")}

# Small facts read off a traced call's arguments and result; computing them
# is tracing overhead, charged to the enclosing span.
FACTS = {
    "statespace.enumerate": lambda a, k, r: {
        "states": len(r),
        "arcs": len(r) * len(r.graph.alphabet),
    },
    "chain.build": lambda a, k, r: {"nnz": sum(len(row) for row in r.rows)},
    "chain.closed_classes": lambda a, k, r: {"classes": len(r.closed)},
    "chain.stationary": lambda a, k, r: {
        "solve_dim": sum(len(c) for c in r.classes.closed)
    },
    "symmetry.induced_fibers": lambda a, k, r: {
        "fibers": len(r),
        "group_order": len(a[1] if len(a) > 1 else k["group"]),
    },
    "chain.analyze": lambda a, k, r: {"digits": len(str(r.distortion.denominator))},
    "symmetry.quotient_analyze": lambda a, k, r: {
        "digits": len(str(r.distortion.denominator))
    },
    "sim.simulate": lambda a, k, r: {"steps": r.n, "workers": r.workers},
}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    facts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        # span id (or -1 outside any span) -> counted leaf calls
        self.leaf_calls: dict[int, int] = defaultdict(int)
        self.paused = False

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span under the innermost open one."""
        sp = Span(len(self.spans), self.stack[-1] if self.stack else None, name, 0.0)
        self.spans.append(sp)
        self.stack.append(sp.id)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self.stack.pop()

    def _traced(self, name: str, fn):
        facts = FACTS.get(name)

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            if facts is not None:
                try:
                    sp.facts = facts(args, kwargs, result)
                except Exception as exc:  # a reshaped result must not fail the run
                    sp.facts = {"facts_error": repr(exc)}
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn):
        calls = self.leaf_calls
        stack = self.stack

        def wrapper(*args, **kwargs):
            if not self.paused:
                calls[stack[-1] if stack else -1] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced name in the loaded tcq modules; restore on exit."""
        modules = [m for n, m in sys.modules.items() if n == "tcq" or n.startswith("tcq.")]
        patched: list[tuple[object, str, object]] = []
        try:
            for name, (mod, attr) in {**TRACED, **COUNTED}.items():
                original = getattr(sys.modules[mod], attr)
                if name in COUNTED:
                    wrapper = self._counted(original)
                else:
                    wrapper = self._traced(name, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            patched.append((m, key, original))
                            setattr(m, key, wrapper)
            yield self
        finally:
            for m, key, original in reversed(patched):
                setattr(m, key, original)

    @contextlib.contextmanager
    def pause(self):
        """Run checks inside a traced pass without recording their calls."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time covered by child spans."""
        child = defaultdict(float)
        for sp in self.spans:
            if sp.parent is not None:
                child[sp.parent] += sp.duration
        out: dict[str, float] = defaultdict(float)
        for sp in self.spans:
            out[sp.name] += sp.duration - child[sp.id]
        return dict(out)

    def records(self, t0: float) -> list[dict]:
        """Spans as plain records, times in seconds from ``t0``."""
        return [
            {
                "id": sp.id,
                "parent": sp.parent,
                "name": sp.name,
                "start": sp.start - t0,
                "end": sp.end - t0,
                "leaf_calls": self.leaf_calls.get(sp.id, 0),
                **sp.facts,
            }
            for sp in self.spans
        ]
