#!/usr/bin/env python3
"""Regenerate ``corpus.json``: the graph pools the workloads draw from, and
their pins (certified exact values, state-space digests, Monte Carlo sums).

Every value written here is computed and checked by the code under test, so
run this only on a commit whose outputs are trusted, and review the diff:

    python3 perfbench/make_corpus.py            # pools, then Monte Carlo pins
    python3 perfbench/make_corpus.py --sim-only # keep pools, redo the sums
    python3 perfbench/make_corpus.py --pools order4b  # redo only these pools
    python3 perfbench/make_corpus.py --sizes 400  # size deciles of the draws

The size bands sit on the ROADMAP's ladder rungs, not on the middle of the
draws. On the first draws of ``gap_survey.py --seed 0`` (400 order-3, 30
of each larger family) the deciles of the state count are:

    order-3 quaternary  164 199 228 253 294 317 345 388 446  (median 294)
    order-4 binary      328 413 502 613 769 1003 1474 1750 2738  (60 draws)
    order-4 quaternary  5112 6090 7342 9552 11528 12826 13894 14863 21199
    order-5 binary      6879 9531 15674 19002 24477 29722 36276 39571 >40000

The order-3 band (a closed class of 220-230 states) is the 225-state rung,
near the 30th percentile; its solve takes about 1-1.5 s, so a run still
makes ten or more calls per graph, and of the first 16 draws in the band
the pool keeps the 13 whose solve cost is within 8% of their median. The median draw (294 states) solves in about 4 s and
the top decile in 15 s or more. The order-4 band (9,000-10,500) is the 9.8k
rung, near the 40th percentile; the order-5 band (6,000-7,000) is the 6.5k
rung, near the 10th percentile. The order-4 binary band (600-1,000) is the
middle fifth of its draws; one enumeration takes about 50 ms, short enough
that the fastest of many calls repeats from run to run.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tcq  # noqa: E402
from tcq.statespace import format_statespace  # noqa: E402

from checks import certify, digest  # noqa: E402
from corpus import CORPUS_PATH, gap_survey_labels, load_corpus, xor_labels  # noqa: E402

# (key, de Bruijn order, alphabet size, band on the solved size, pool size).
# order3 bands the size of the single closed class, which sets the exact
# solve time; the large families band the state count, which sets the
# enumeration time and the peak memory.
RANDOM_POOLS = (
    ("order3", 3, 4, (220, 230), 16),
    ("order4b", 4, 2, (600, 1000), 24),
    ("order4q", 4, 4, (9000, 10500), 8),
    ("order5b", 5, 2, (6000, 7000), 8),
)
# (a, b) of the order-4 XOR-invariant labellings montecarlo simulates: one,
# so that every seed gets the same work, and a small one (927 states in 61
# fibers), so that its calls stay short; its exact D(G) comes from the
# quotient.
XOR_MASKS = ((14, 1),)
SIM_PIN_SEEDS = 100
# Order-3 draws of one size still differ in solve time by up to 1.5x, and a
# run times only two of them; the pool keeps those within this share of the
# median cost, so that every seed gets about the same work.
COST_BAND = 0.08
COST_ROUNDS = 5


def relative_costs(graphs) -> list[float]:
    """Each graph's fastest analyze() over a few rounds, as a multiple of
    debruijn8's fastest in the same rounds, so that the host's speed at the
    time cancels out."""
    ref = tcq.debruijn8_demo()
    fastest = [float("inf")] * (len(graphs) + 1)
    for _ in range(COST_ROUNDS):
        for i, g in enumerate([ref, *graphs]):
            t = time.perf_counter()
            tcq.analyze(g, tcq.SourceModel.uniform(g.alphabet), with_rd=True)
            fastest[i] = min(fastest[i], time.perf_counter() - t)
    return [f / fastest[0] for f in fastest[1:]]


def random_pool(key: str, order: int, m: int, band: tuple[int, int], count: int):
    rng = random.Random(0)  # the stream of `gap_survey.py --seed 0`
    pool = []
    while len(pool) < count:
        labels = gap_survey_labels(rng, order, m)
        g = tcq.de_bruijn(order, tuple(labels))
        try:
            ss = tcq.enumerate_states(g, max_states=band[1] + 1)
        except tcq.StateSpaceLimitError:
            continue
        src = tcq.SourceModel.uniform(g.alphabet)
        mc = tcq.build_chain(ss, src)
        classes = tcq.closed_classes(mc)
        size = len(ss) if order > 3 else len(classes.closed[0])
        if len(classes.closed) != 1 or not band[0] <= size <= band[1]:
            continue
        entry = {"order": order, "labels": labels, "states": len(ss)}
        if key == "order3":
            sd = tcq.stationary(mc)
            d = tcq.distortion_rate(mc, sd)
            certify(mc, sd.q, d)
            entry["D"] = str(d)
        else:
            entry["digest"] = digest(format_statespace(ss))
        print(key, len(pool), entry["states"], flush=True)
        pool.append(entry)
    if key == "order3":
        costs = relative_costs([tcq.de_bruijn(order, tuple(e["labels"])) for e in pool])
        mid = statistics.median(costs)
        print(key, "costs", [round(c, 2) for c in costs], flush=True)
        pool = [
            {**e, "cost": round(c, 2)} for e, c in zip(pool, costs) if abs(c / mid - 1) <= COST_BAND
        ]
    return pool


def xor_pool(order: int = 4):
    group = tcq.xor_translation_group(order)
    pool = []
    for a, b in XOR_MASKS:
        labels = xor_labels(order, a, b)
        g = tcq.de_bruijn(order, tuple(labels))
        ss = tcq.enumerate_states(g)
        fp = tcq.induced_fibers(ss, group)
        qc = tcq.quotient(ss, tcq.SourceModel.uniform(g.alphabet), fp)
        qr = tcq.quotient_analyze(qc)
        certify(qc.chain, qr.q, qr.distortion)
        entry = {"order": order, "mask": [a, b], "labels": labels, "states": len(ss), "fibers": len(fp)}
        pool.append({**entry, "D": str(qr.distortion)})
        print("xor4", a, b, len(ss), len(fp), flush=True)
    return pool


def size_deciles(draws: int) -> None:
    """Print the deciles of the state count over the first ``draws`` order-3
    draws and the first 30 draws of each larger family, capped at 40,000."""
    for key, order, m, _, _ in RANDOM_POOLS:
        rng = random.Random(0)
        n = draws if order == 3 else 60 if m == 2 and order == 4 else 30
        sizes = []
        for _ in range(n):
            g = tcq.de_bruijn(order, tuple(gap_survey_labels(rng, order, m)))
            try:
                sizes.append(len(tcq.enumerate_states(g, max_states=40_000)))
            except tcq.StateSpaceLimitError:
                sizes.append(40_001)
        cuts = statistics.quantiles(sizes, n=10)
        print(key, n, "draws; deciles", [round(c) for c in cuts], flush=True)


def sim_pins(corpus: dict) -> dict:
    from workloads import Montecarlo, increment_sum

    out = {}
    for seed in range(SIM_PIN_SEEDS):
        wl = Montecarlo(seed, corpus)
        out[str(seed)] = {op.kind: increment_sum(op.run()) for op in wl.ops}
        print("sim", seed, out[str(seed)], flush=True)
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sim-only", action="store_true")
    ap.add_argument("--sizes", type=int, metavar="DRAWS", help="only print size deciles")
    ap.add_argument("--pools", nargs="+", metavar="KEY", help="redo only these random pools")
    args = ap.parse_args()
    if args.sizes:
        size_deciles(args.sizes)
        return
    if args.sim_only:
        corpus = load_corpus()
    elif args.pools:
        corpus = load_corpus()
        for key, *rest in RANDOM_POOLS:
            if key in args.pools:
                corpus[key] = random_pool(key, *rest)
        CORPUS_PATH.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
        return
    else:
        corpus = {key: random_pool(key, *rest) for key, *rest in RANDOM_POOLS}
        corpus["xor4"] = xor_pool()
        corpus["sim_sums"] = {}
        CORPUS_PATH.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    corpus["sim_sums"] = sim_pins(corpus)
    CORPUS_PATH.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
