"""The integer arc tables against the tuple, dict and Tarjan oracles: the
state space's ``succ``/``inc`` arrays and ``arcs`` view, the chain's CSR
table and its ``rows``/``absorb`` views, and the class split."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import REPO_ROOT, random_code_graph
from oracles import chain_dicts, enumerate_tuples, tarjan_closed_classes
from tcq import (
    SourceModel,
    analyze,
    build_chain,
    closed_classes,
    de_bruijn,
    debruijn8_demo,
    enumerate_states,
)
from tcq import chain

POOLS = json.loads((REPO_ROOT / "perfbench" / "corpus.json").read_text(encoding="utf-8"))
POOL_GRAPHS = [
    pytest.param(entry["order"], entry["labels"], id=f"{pool}-{i:02d}")
    for pool in ("order3", "order4b", "order4q", "order5b", "xor4")
    for i, entry in enumerate(POOLS[pool])
]


def _check_against_oracles(g, src: SourceModel):
    """The tables of g under src equal the oracles'; returns the chain."""
    ss = enumerate_states(g)
    states, arcs = enumerate_tuples(g)
    assert ss.states == states
    assert ss.arcs == arcs
    assert ss.succ.shape == ss.inc.shape == (len(states), len(g.alphabet))
    mc = build_chain(ss, src)
    rows, absorb = chain_dicts(arcs, src)
    assert mc.rows == rows
    assert mc.absorb == absorb
    # ClassPartition equality: the order of the closed classes too
    assert closed_classes(mc) == tarjan_closed_classes(rows)
    return mc


@pytest.mark.parametrize("order,labels", POOL_GRAPHS)
def test_pool_graphs_match_the_oracles(order, labels):
    g = de_bruijn(order, tuple(labels))
    _check_against_oracles(g, SourceModel.uniform(g.alphabet))


def test_random_graphs_and_sources_match_the_oracles():
    rng = random.Random(15)
    for _ in range(300):
        g = random_code_graph(rng)
        # zero weights drop symbols, which splits some chains into several classes
        weights = [rng.choice([0, 1, 2, 5]) for _ in g.alphabet]
        weights[rng.randrange(len(weights))] += 1
        src = SourceModel(g.alphabet, tuple(Fraction(w, sum(weights)) for w in weights))
        _check_against_oracles(g, src)


def test_zero_probability_symbols_match_the_oracles():
    g = debruijn8_demo()
    src = SourceModel(g.alphabet, tuple(Fraction(x == "c") for x in g.alphabet))
    classes = closed_classes(_check_against_oracles(g, src))
    assert len(classes.closed) == 4
    assert len(classes.transient) == 91


@pytest.mark.parametrize("big", [2**64 + 13, 2**1100 + 13], ids=["2^64+13", "2^1100+13"])
def test_numerators_past_int64_match_the_oracles(big):
    g = de_bruijn(2, tuple("acbdbdca"))
    probs = [Fraction(big // 5, big), Fraction(big // 3, big), Fraction(big // 7, big)]
    mc = _check_against_oracles(g, SourceModel(g.alphabet, (*probs, 1 - sum(probs))))
    assert mc.scale == big
    assert mc.num.dtype == mc.absorb_num.dtype == object


def test_shared_fractions_in_the_views():
    """One Fraction object per distinct numerator, across rows and absorb."""
    g = debruijn8_demo()
    mc = build_chain(enumerate_states(g), SourceModel.uniform(g.alphabet))
    values = [p for row in mc.rows for p in row.values()] + list(mc.absorb)
    assert len({id(p) for p in values}) == len(set(values)) == len(mc._fractions)


def test_analyze_builds_no_tuple_or_fraction_view(monkeypatch):
    """The analysis path reads only the integer tables."""
    seen = []
    build = chain.build_chain

    def recording(ss, src):
        seen.append((ss, build(ss, src)))
        return seen[-1][1]

    monkeypatch.setattr(chain, "build_chain", recording)
    for g in (debruijn8_demo(), de_bruijn(3, tuple("dabcbbbbcbbcabbd"))):
        analyze(g, with_rd=True)
    for ss, mc in seen:
        assert "arcs" not in vars(ss)
        assert not {"rows", "absorb", "_fractions"} & set(vars(mc))
        assert isinstance(mc.num, np.ndarray) and mc.num.dtype == np.int64
