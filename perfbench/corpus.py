"""Graph families and the seeded selection of each workload's inputs.

Random labellings are drawn exactly as ``scripts/gap_survey.py`` draws them
(uniform symbols per edge, rejecting labellings that miss a symbol). Which
random labellings a run may get is fixed once, in ``corpus.json``: each
family keeps only draws whose state space falls in a narrow size band around
one of the ROADMAP's ladder rungs (and, for the order-3 family, whose solve
cost is near the median), so every seed gets about the same amount of work.
``make_corpus.py`` regenerates that file and its pins. A run's ``--seed``
picks the graphs from each pool and their order; the program under test
only ever sees the graphs.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS_PATH = HERE / "corpus.json"

# How many graphs a run takes from each pool.
EXACT_RANDOM = 2
ENUM_TIMED = 8  # order-4 binary graphs enumerate-large times
ENUM_LARGE = 1  # upper-rung graphs per family it runs once


def gap_survey_labels(rng: random.Random, order: int, alphabet_size: int) -> str:
    """One labelling of the order-m de Bruijn graph, as gap_survey draws it."""
    symbols = [chr(ord("a") + i) for i in range(alphabet_size)]
    n_edges = 2 ** (order + 1)
    while True:
        labels = [rng.choice(symbols) for _ in range(n_edges)]
        if len(set(labels)) == alphabet_size:
            return "".join(labels)


def _parity(x: int) -> int:
    return bin(x).count("1") & 1


def xor_labels(order: int, a: int, b: int) -> str:
    """The XOR-translation-invariant family
    label(v, w) = ("ab", "cd")[parity(v & a)][w ^ parity(v & b)]."""
    pairs = ("ab", "cd")
    return "".join(
        pairs[_parity(v & a)][w ^ _parity(v & b)]
        for v in range(2**order)
        for w in (0, 1)
    )


def load_corpus() -> dict:
    return json.loads(CORPUS_PATH.read_text(encoding="utf-8"))


def select(workload: str, seed: int, corpus: dict) -> list[tuple[str, dict]]:
    """The pool entries one run of ``workload`` gets for ``seed``, as
    (name, entry) pairs; each entry holds ``order``, ``labels`` and pins.
    The fixed graphs read from ``graphs/`` are added by the workload itself.
    """
    rng = random.Random(f"{workload}:{seed}")

    def pick(key: str, k: int) -> list[tuple[str, dict]]:
        """One entry from each of k equal slices of the pool ordered by
        state count, so that every seed gets about the same work."""
        pool = corpus[key]
        by_size = sorted(range(len(pool)), key=lambda i: pool[i]["states"])
        step = len(pool) // k
        chosen = [rng.choice(by_size[j * step : (j + 1) * step]) for j in range(k)]
        return [(f"{key}-{i:02d}", pool[i]) for i in chosen]

    if workload == "exact-survey":
        return pick("order3", EXACT_RANDOM)
    if workload == "enumerate-large":
        return pick("order4b", ENUM_TIMED) + pick("order4q", ENUM_LARGE) + pick("order5b", ENUM_LARGE)
    if workload == "montecarlo":
        return pick("xor4", 1)
    raise KeyError(workload)
