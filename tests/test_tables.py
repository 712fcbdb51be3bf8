"""The integer arc tables against the tuple, dict and Tarjan oracles: the
state space's ``vectors``/``succ``/``inc`` arrays, the chain's CSR table and
its ``rows``/``absorb`` views, and the class split."""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import REPO_ROOT, random_code_graph
from oracles import chain_dicts, enumerate_tuples, tarjan_closed_classes, tuple_arcs, tuple_states
from tcq import (
    SourceModel,
    analyze,
    build_chain,
    closed_classes,
    de_bruijn,
    debruijn8_demo,
    enumerate_states,
    induced_fibers,
    quotient,
    quotient_analyze,
    xor_translation_group,
)
from tcq import chain, cli, symmetry

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
    assert tuple_states(ss) == states
    assert tuple_arcs(ss) == arcs
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
    """The analysis path and the symmetry quotient, through the library and
    through ``tcq quotient``, read only the integer tables."""
    chains, laws = [], []
    build, solve = chain.build_chain, symmetry.stationary

    def recording(ss, src):
        chains.append(build(ss, src))
        return chains[-1]

    def recording_law(mc):  # quotient_analyze's solve, of the quotient chain
        chains.append(mc)
        laws.append(solve(mc))
        return laws[-1]

    monkeypatch.setattr(chain, "build_chain", recording)
    monkeypatch.setattr(symmetry, "build_chain", recording)
    monkeypatch.setattr(symmetry, "stationary", recording_law)
    for g in (debruijn8_demo(), de_bruijn(3, tuple("dabcbbbbcbbcabbd"))):
        analyze(g, with_rd=True)
    g = debruijn8_demo()
    ss = enumerate_states(g)
    fp = induced_fibers(ss, xor_translation_group(3))
    quotient_analyze(quotient(ss, SourceModel.uniform(g.alphabet), fp))
    monkeypatch.chdir(REPO_ROOT)
    perm = "graphs/debruijn8_translations.perm"
    argv = ["quotient", "--graph", "graphs/debruijn8.g", "--group", perm]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
        assert cli.main([*argv, "--porcelain"]) == 0
    # two full chains for analyze; a full and a quotient chain per quotient
    assert (len(chains), len(laws)) == (8, 3)
    for mc in chains:
        assert not {"rows", "absorb", "_fractions"} & set(vars(mc))
        assert isinstance(mc.num, np.ndarray) and mc.num.dtype == np.int64
    assert not any("q" in vars(sd) for sd in laws)
