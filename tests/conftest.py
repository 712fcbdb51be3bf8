from __future__ import annotations

import random
import weakref
from pathlib import Path

import pytest
from hypothesis import settings

from tcq import LabeledGraph, debruijn8_demo, graph_from_edges, sim, validate

REPO_ROOT = Path(__file__).resolve().parents[1]
GRAPH_DIR = REPO_ROOT / "graphs"
EXPECTED_DIR = GRAPH_DIR / "expected"

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

_SYMBOLS = "abcdefgh"


@pytest.fixture(autouse=True)
def no_kept_tables(monkeypatch):
    """Every test starts with no closed arc tables kept by ``sim``, so no
    walk's path depends on which tests walked the same graph before."""
    monkeypatch.setattr(sim, "_CLOSED", weakref.WeakKeyDictionary())


def random_code_graph(
    rng: random.Random,
    max_vertices: int = 5,
    max_symbols: int = 3,
    max_out: int = 3,
) -> LabeledGraph:
    """A random strongly connected aperiodic graph (rejection sampled)."""
    while True:
        n = rng.randint(1, max_vertices)
        m = rng.randint(1, max_symbols)
        alphabet = tuple(_SYMBOLS[:m])
        edges = []
        for v in range(n):
            for _ in range(rng.randint(1, max_out)):
                edges.append((f"v{v}", f"v{rng.randrange(n)}", rng.choice(alphabet)))
        g = graph_from_edges(edges, alphabet)
        report = validate(g)
        if report.strongly_connected and report.aperiodic:
            return g


def random_sequence(rng: random.Random, alphabet: tuple[str, ...], length: int):
    return tuple(rng.choice(alphabet) for _ in range(length))


@pytest.fixture
def g3() -> LabeledGraph:
    return graph_from_edges(
        [("v1", "v1", "a"), ("v1", "v2", "b"), ("v2", "v1", "a"), ("v2", "v2", "a")],
        alphabet=("a", "b"),
    )


@pytest.fixture
def debruijn8() -> LabeledGraph:
    return debruijn8_demo()


@pytest.fixture
def perfect2() -> LabeledGraph:
    return graph_from_edges([("v", "v", "a"), ("v", "v", "b")], alphabet=("a", "b"))


@pytest.fixture
def selfloop_ab() -> LabeledGraph:
    return graph_from_edges([("v", "v", "a")], alphabet=("a", "b"))
