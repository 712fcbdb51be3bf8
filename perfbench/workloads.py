"""The workloads: seeded inputs, the timed calls into tcq, and checks.

Each workload is built from ``(seed, corpus)`` and exposes ``ops``: the
operations one pass over its inputs makes, in a seeded order. An operation
is one timed call into tcq's public API plus an untimed check of what it
returned. ``once`` holds further operations a workload runs once per run,
after the timed loop (and once per traced pass), so that they are checked
and traced without weighing on the timing: the CLI byte checks and Blahut
on exact-survey, the upper-rung graphs on enumerate-large (whose memory
peak_rss_mb reports), viterbi.encode and brute force on montecarlo.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import Any, Callable

import tcq
import tcq.cli
from tcq.statespace import format_statespace

import corpus
from checks import certify, digest, expect

ROOT = Path(__file__).resolve().parent.parent
DEBRUIJN8 = "graphs/debruijn8.g"
DEBRUIJN8_GROUP = "graphs/debruijn8_translations.perm"
DEBRUIJN8_D = Fraction(452, 1809)
G3_D = Fraction(1, 6)

# Steps per simulate call. Calls are short so that the fastest of many falls
# in one of a shared host's quiet moments, which last well under a second;
# at 250,000 steps the fastest calls varied more from run to run.
SIM_N = 100_000
ENCODE_PREFIX = 2_000  # walk prefix re-encoded by viterbi.encode
BRUTE_PREFIX = 10  # prefix short enough for brute-force path enumeration
Z_LIMIT = 6.0  # |z| of a Monte Carlo estimate against the exact value


def sim_workers() -> tuple[int, ...]:
    """Worker counts to simulate with, never more than the machine's CPUs."""
    return tuple(sorted({1, min(2, os.cpu_count() or 1)}))


@dataclass
class Op:
    kind: str  # the graph and parameters; stable across passes and runs
    run: Callable[[], Any]  # the timed call into tcq
    check: Callable[[Any], None]  # raises CheckFailed; not timed
    units: Callable[[Any], int]  # work one call delivers


def load_graph(path: str):
    return tcq.parse_graph((ROOT / path).read_text(encoding="utf-8"))


def uniform(g):
    return tcq.SourceModel.uniform(g.alphabet)


def increment_sum(res) -> int:
    """Total distortion of a simulate() walk, from its mean over n steps."""
    return round(res.estimate * res.n)


def walk_prefix(g, seed: int, length: int) -> tuple[list[str], int]:
    """The first ``length`` source symbols of the Monte Carlo stream for
    ``seed`` and the increments a single-worker walk sums over them."""
    src = uniform(g)
    bounds, support = tcq.sim.source_thresholds(src)
    idx = tcq.sim.symbol_indices(seed, 0, length, bounds, support)
    walked = tcq.simulate(g, src, n=length, seed=seed, workers=1)
    return [g.alphabet[i] for i in idx.tolist()], increment_sum(walked)


class Workload:
    unit = ""  # what ``Op.units`` counts

    def __init__(self, seed: int):
        self.seed = seed
        self.graphs: dict[str, dict] = {}  # provenance: sizes per graph
        self.ops: list[Op] = []
        self.once: list[Op] = []
        self._checked: set[str] = set()  # graphs whose one-off check has run

    def _shuffle(self) -> None:
        random.Random(self.seed).shuffle(self.ops)

    def _first_time(self, name: str) -> bool:
        """True the first time a one-off check for ``name`` runs."""
        if name in self._checked:
            return False
        self._checked.add(name)
        return True


class ExactSurvey(Workload):
    """analyze(g, uniform, with_rd=True) on g3, debruijn8 and random order-3
    labellings; each value is pinned and, once per run, certified."""

    unit = "exact D(G) values"

    def __init__(self, seed: int, data: dict):
        super().__init__(seed)
        cases = [
            ("g3", load_graph("graphs/g3.g"), G3_D),
            ("debruijn8", load_graph(DEBRUIJN8), DEBRUIJN8_D),
        ]
        for name, e in corpus.select("exact-survey", seed, data):
            cases.append((name, tcq.de_bruijn(3, tuple(e["labels"])), Fraction(e["D"])))
        self.ops = [self._op(*case) for case in cases]
        self._shuffle()
        self.once = [
            _cli_op(["analyze", "--graph", DEBRUIJN8], "debruijn8_analyze.txt"),
            _cli_op(["quotient", "--graph", DEBRUIJN8, "--group", DEBRUIJN8_GROUP], "debruijn8_quotient.txt"),
            _blahut_op(),
        ]

    def _op(self, name: str, g, pinned: Fraction) -> Op:
        src = uniform(g)

        def check(report) -> None:
            expect(report.distortion == pinned, f"{name}: D = {report.distortion}, pinned {pinned}")
            rd = report.rd_point
            expect(rd is not None and rd.distortion <= float(pinned) + 1e-9, f"{name}: D(G) < D(R)")
            if self._first_time(name):
                mc = tcq.build_chain(tcq.enumerate_states(g), src)
                certify(mc, tcq.stationary(mc).q, report.distortion)
                self.graphs[name] = {"states": report.state_count}

        return Op(f"analyze {name}", lambda: tcq.analyze(g, src, with_rd=True), check, lambda r: 1)


class EnumerateLarge(Workload):
    """enumerate_states, build_chain and closed_classes, timed on order-4
    binary labellings, whose calls are short enough that the fastest of
    many repeats from run to run; an order-4 quaternary and an order-5
    binary labelling (the upper rungs, 0.5-1 s a call) run once. No exact
    solve."""

    unit = "reduced states"

    def __init__(self, seed: int, data: dict):
        super().__init__(seed)
        for name, e in corpus.select("enumerate-large", seed, data):
            op = self._op(name, tcq.de_bruijn(e["order"], tuple(e["labels"])), e)
            (self.ops if name.startswith("order4b") else self.once).append(op)
        self._shuffle()

    def _op(self, name: str, g, pin: dict) -> Op:
        src = uniform(g)

        def run():
            ss = tcq.enumerate_states(g)
            mc = tcq.build_chain(ss, src)
            return ss, mc, tcq.closed_classes(mc)

        def check(result) -> None:
            ss, mc, classes = result
            expect(len(ss) == pin["states"], f"{name}: {len(ss)} states, pinned {pin['states']}")
            members = sorted(chain(classes.transient, *classes.closed))
            expect(members == list(range(len(ss))), f"{name}: classes do not partition the states")
            for c in classes.closed:
                inside = set(c)
                expect(all(t in inside for i in c for t in mc.rows[i]), f"{name}: class not closed")
            if self._first_time(name):
                expect(digest(format_statespace(ss)) == pin["digest"], f"{name}: state space differs")
                self.graphs[name] = {"states": len(ss), "classes": len(classes.closed)}

        return Op(f"enumerate {name}", run, check, lambda r: len(r[0]))


class Montecarlo(Workload):
    """simulate on debruijn8 and one order-4 XOR-family labelling, with one
    and two workers; sums pinned per (seed, n, W) and |z| bounded against
    the exact value. A single-worker prefix of each walk is re-encoded by
    viterbi.encode, and a shorter one checked by brute force."""

    unit = "Monte Carlo steps"

    def __init__(self, seed: int, data: dict):
        super().__init__(seed)
        pins = data["sim_sums"].get(str(seed), {})
        [(xname, e)] = corpus.select("montecarlo", seed, data)
        cases = [
            ("debruijn8", load_graph(DEBRUIJN8), DEBRUIJN8_D, {"states": 107, "fibers": 16}),
            (
                xname,
                tcq.de_bruijn(4, tuple(e["labels"])),
                Fraction(e["D"]),
                {"states": e["states"], "fibers": e["fibers"]},
            ),
        ]
        for name, g, exact, sizes in cases:
            self.graphs[name] = sizes
            for w in sim_workers():
                kind = f"simulate {name} W={w}"
                self.ops.append(self._op(kind, g, exact, w, pins.get(kind)))
            self.once.append(_encode_op(name, g, seed))
        self._shuffle()

    def _op(self, kind: str, g, exact: Fraction, workers: int, pinned) -> Op:
        src = uniform(g)

        def check(res) -> None:
            expect(res.n == SIM_N, f"{kind}: {res.n} steps")
            total = increment_sum(res)
            expect(pinned is None or total == pinned, f"{kind}: sum {total}, pinned {pinned}")
            z = tcq.z_score(res, exact)
            expect(abs(z) <= Z_LIMIT, f"{kind}: z = {z} against the exact value")

        return Op(
            kind,
            lambda: tcq.simulate(g, src, n=SIM_N, seed=self.seed, workers=workers),
            check,
            lambda r: r.n,
        )


WORKLOADS = {
    "exact-survey": ExactSurvey,
    "enumerate-large": EnumerateLarge,
    "montecarlo": Montecarlo,
}


def _cli_op(argv: list[str], expected: str) -> Op:
    want = (ROOT / "graphs" / "expected" / expected).read_text(encoding="utf-8")

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = tcq.cli.main(argv)
        return code, out.getvalue()

    def check(result) -> None:
        code, text = result
        expect(code == 0 and text == want, f"tcq {' '.join(argv)} differs from {expected}")

    return Op("cli " + argv[0], run, check, lambda r: 1)


def _encode_op(name: str, g, seed: int) -> Op:
    """viterbi.encode on a prefix of the single-worker walk for ``seed``,
    which must cost what the walk summed, and brute force on a shorter one."""
    xs, walked = walk_prefix(g, seed, ENCODE_PREFIX)
    short = xs[:BRUTE_PREFIX]

    def run():
        return (
            tcq.encode(g, xs).total_distortion,
            tcq.encode(g, short).total_distortion,
            tcq.brute_force_min(g, short),
        )

    def check(result) -> None:
        enc, enc_short, brute = result
        expect(enc == walked, f"{name}: encode gives {enc}, the walk sums {walked}")
        expect(enc_short == brute, f"{name}: encode gives {enc_short}, brute force {brute}")

    return Op(f"encode {name}", run, check, lambda r: 1)


def _blahut_op() -> Op:
    def check(point) -> None:
        closed = tcq.hamming_rd_closed_form(4, 1.0)
        expect(abs(point.distortion - closed) <= 1e-6, f"blahut {point.distortion}, closed form {closed}")

    return Op("blahut", lambda: tcq.blahut([0.25] * 4, 1.0), check, lambda r: 1)
