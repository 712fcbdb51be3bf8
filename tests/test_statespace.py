from __future__ import annotations

import dataclasses
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_code_graph, random_sequence
from oracles import (
    check_component_bound,
    enumerate_arcs,
    membership_increment,
    state_index,
    tuple_arcs,
    tuple_states,
)
from tcq import (
    ComponentBoundError,
    GraphStructureError,
    SourceModel,
    StateSpaceLimitError,
    build_chain,
    chain,
    closed_classes,
    de_bruijn,
    enumerate_states,
    graph_from_edges,
    parse_graph,
    reduced_transition,
    simulate,
    statespace,
    zero_state,
)
from tcq.statespace import format_statespace


def test_g3_space(g3):
    ss = enumerate_states(g3)
    assert tuple_states(ss) == ((0, 0), (1, 0))
    assert ss.k == 1
    # alphabet order a, b per state
    assert tuple_arcs(ss) == (((0, 0), (1, 0)), ((0, 0), (0, 1)))
    assert len(ss) == 2


def test_zero_state_first_and_reduced(debruijn8):
    ss = enumerate_states(debruijn8)
    assert tuple_states(ss)[0] == zero_state(debruijn8)
    assert all(min(s) == 0 for s in tuple_states(ss))
    assert len(ss) == 107


def test_enumeration_is_deterministic(debruijn8):
    a = enumerate_states(debruijn8)
    b = enumerate_states(debruijn8)
    assert tuple_states(a) == tuple_states(b)
    assert tuple_arcs(a) == tuple_arcs(b)


def test_requires_strong_connectivity_and_aperiodicity():
    with pytest.raises(GraphStructureError, match="aperiodic"):
        enumerate_states(parse_graph("alphabet a\nedge v w a\nedge w v a\n"))
    with pytest.raises(GraphStructureError, match="strongly_connected=False"):
        enumerate_states(
            parse_graph("alphabet a\nedge v v a\nedge w w a\nedge w v a\n")
        )


def test_state_cap(debruijn8):
    with pytest.raises(StateSpaceLimitError, match="raise max_states"):
        enumerate_states(debruijn8, max_states=10)


def _cap_holds_at_107_states(g) -> None:
    assert len(enumerate_states(g, max_states=107)) == 107
    message = "more than 106 states; raise max_states to continue"
    with pytest.raises(StateSpaceLimitError, match=message):
        enumerate_states(g, max_states=106)


def test_state_cap_at_its_boundary(monkeypatch, debruijn8):
    """The cap is checked after each block, on every state the block
    interned: a space of exactly ``max_states`` states is returned, one
    more raises, whichever block the last state is found in."""
    monkeypatch.setattr(statespace, "_BLOCK", 3)
    _cap_holds_at_107_states(debruijn8)


@pytest.mark.parametrize("block", [1, statespace._BLOCK])
def test_state_cap_at_its_boundary_in_other_blocks(monkeypatch, debruijn8, block):
    """The same boundary with one state per block, and with blocks that
    hold whole BFS layers of debruijn8."""
    monkeypatch.setattr(statespace, "_BLOCK", block)
    _cap_holds_at_107_states(debruijn8)


@pytest.mark.parametrize("block", [3, statespace._BLOCK])
@pytest.mark.parametrize("limit", [0, 1, 10, 50, 106, 107])
def test_closure_stops_past_its_limit(monkeypatch, debruijn8, block, limit):
    """A closure that stops once the table holds more than ``limit`` states
    is a prefix of the enumeration: the same states in the same order, and
    the same arcs for the states it advanced, which are at most ``limit``
    and come first. It interns at most (symbols + 1)·``limit`` states; every
    state after those it advanced has no arc. The table is marked closed
    exactly when the closure advanced every state it interned."""
    ss = enumerate_states(debruijn8)
    monkeypatch.setattr(statespace, "_BLOCK", block)
    table = statespace.ArcTable(debruijn8, np.intp)
    table.close(ss.k, limit)
    n, n_sym = len(table), len(debruijn8.alphabet)
    lo = int((table.succ[:n] >= 0).all(axis=1).sum())  # the states advanced
    assert (table.succ[lo:n] == -1).all()
    if limit >= len(ss):
        assert lo == n == len(ss)
        assert table.closed
    else:
        assert lo <= limit < n <= max(1, (n_sym + 1) * limit)
        assert not table.closed
    assert np.array_equal(table.vectors[:n], ss.vectors[:n])
    assert np.array_equal(table.succ[:lo], ss.succ[:lo])
    assert np.array_equal(table.inc[:lo], ss.inc[:lo])


def test_space_arrays_are_exact_and_own_their_data(debruijn8):
    """The returned arrays are trimmed copies of the table's: no spare
    capacity, and no view that would keep the table's arrays alive. The
    vectors' dtype holds the largest component plus 1."""
    ss = enumerate_states(debruijn8)
    n, n_sym = len(ss), len(debruijn8.alphabet)
    assert ss.vectors.shape == (n, debruijn8.num_vertices)
    assert (ss.succ.shape, ss.succ.dtype) == ((n, n_sym), np.intp)
    assert (ss.inc.shape, ss.inc.dtype) == ((n, n_sym), np.uint8)
    assert all(a.base is None for a in (ss.vectors, ss.succ, ss.inc))
    assert np.iinfo(ss.vectors.dtype).max > ss.vectors.max()


@settings(max_examples=40)
@given(st.integers(0, 10**9))
def test_component_bound_and_closure_random(seed):
    rng = random.Random(seed)
    g = random_code_graph(rng)
    ss = enumerate_states(g, max_states=50_000)
    assert check_component_bound(ss)
    assert all(min(s) == 0 for s in tuple_states(ss))
    # arcs land inside the space with increments in {0,1}
    for row in tuple_arcs(ss):
        for ti, inc in row:
            assert 0 <= ti < len(ss)
            assert inc in (0, 1)


def test_long_random_walk_stays_inside(debruijn8):
    ss = enumerate_states(debruijn8)
    rng = random.Random(11)
    s = zero_state(debruijn8)
    index = state_index(ss)
    for x in random_sequence(rng, debruijn8.alphabet, 10_000):
        s, _ = reduced_transition(debruijn8, s, x)
        assert s in index


def test_membership_increment(g3):
    ss = enumerate_states(g3)
    r = membership_increment(ss, (1, 0), "b")
    assert not r.in_space and r.incremented
    r = membership_increment(ss, (1, 0), "a")
    assert r.in_space and not r.incremented
    r = membership_increment(ss, (0, 0), "b")
    assert r.in_space and not r.incremented
    with pytest.raises(KeyError):
        membership_increment(ss, (2, 0), "a")


def test_membership_increment_exhaustive(debruijn8):
    ss = enumerate_states(debruijn8)
    for s in tuple_states(ss):
        for x in debruijn8.alphabet:
            r = membership_increment(ss, s, x)
            assert r.in_space == (not r.incremented)


def test_format_statespace(g3):
    text = format_statespace(enumerate_states(g3))
    lines = text.splitlines()
    assert lines[:4] == ["vertices: 2", "alphabet: a b", "k: 1", "states: 2"]
    assert lines[4:6] == ["0 0", "1 0"]
    assert lines[6] == "arcs:"
    assert lines[7:] == ["0 a 0 0", "0 b 1 0", "1 a 0 0", "1 b 0 1"]
    assert text.endswith("\n")


def _labelling(seed: int, order: int, symbols: str) -> tuple[str, ...]:
    """A random de Bruijn labelling that uses every symbol."""
    rng = random.Random(seed)
    while True:
        labels = tuple(rng.choice(symbols) for _ in range(2 ** (order + 1)))
        if len(set(labels)) == len(symbols):
            return labels


# order 4 over four symbols, seed 15: 8,171 states, one BFS layer of 2,061
BIG_LAYER = de_bruijn(4, _labelling(15, 4, "abcd"))

DIFFERENTIAL_CORPUS = [
    *(random_code_graph(random.Random(seed), 6, 4, 3) for seed in range(40)),
    *(de_bruijn(3, _labelling(seed, 3, "abcd")) for seed in range(3)),
    *(de_bruijn(4, _labelling(seed, 4, "ab")) for seed in range(3)),
    de_bruijn(4, _labelling(0, 4, "abcd")),
]


@pytest.mark.parametrize("gi", range(len(DIFFERENTIAL_CORPUS)))
def test_enumeration_matches_per_arc_oracle(gi):
    g = DIFFERENTIAL_CORPUS[gi]
    ss = enumerate_states(g)
    assert (tuple_states(ss), tuple_arcs(ss)) == enumerate_arcs(g)


def test_block_boundary_inside_a_layer():
    """A BFS layer larger than one block is split between two kernel calls;
    the second also takes the first states of the next layer."""
    ss = enumerate_states(BIG_LAYER)
    # a state's BFS parent is the source of the first arc, in arc order, into it
    depth = {0: 0}
    for si, row in enumerate(tuple_arcs(ss)):
        for ti, _ in row:
            depth.setdefault(ti, depth[si] + 1)
    assert len(ss) > statespace._BLOCK
    assert max(Counter(depth.values()).values()) > statespace._BLOCK
    assert (tuple_states(ss), tuple_arcs(ss)) == enumerate_arcs(BIG_LAYER)


@pytest.mark.parametrize("block", [1, 3, 64])
def test_small_blocks_give_the_same_space(monkeypatch, debruijn8, block):
    expected = enumerate_arcs(debruijn8)
    monkeypatch.setattr(statespace, "_BLOCK", block)
    ss = enumerate_states(debruijn8)
    assert (tuple_states(ss), tuple_arcs(ss)) == expected


def test_component_above_k_raises(monkeypatch, g3):
    """A kernel that broke the bound would be caught: k = 1 on g3."""
    advance = statespace.viterbi.advance

    def broken(g, states):
        t, inc = advance(g, states)
        first = t[..., 0]
        first[first > 0] += 2
        return t, inc

    monkeypatch.setattr(statespace.viterbi, "advance", broken)
    message = r"state \(3, 0\) from \(\(0, 0\), 'b'\) exceeds the bound k=1"
    with pytest.raises(ComponentBoundError, match=message):
        enumerate_states(g3)


def test_component_above_k_raises_in_small_blocks(monkeypatch, g3):
    """The bound is checked once per block, on the block's largest
    component, and the first state past it and its parent are looked up
    only then: with one state per block the message is the same."""
    monkeypatch.setattr(statespace, "_BLOCK", 1)
    test_component_above_k_raises(monkeypatch, g3)


def _hub_graph(seed: int, spokes: int = 64):
    """An order-3 de Bruijn core over three symbols and a hub with one
    in-edge from each of ``spokes`` spoke vertices; a random core vertex
    feeds each spoke, and the hub feeds one core vertex back."""
    rng = random.Random(seed)
    core = de_bruijn(3, tuple(rng.choice("abc") for _ in range(16)))
    edges = list(core.edges)
    for i in range(spokes):
        edges.append((rng.choice(core.vertices), f"s{i}", rng.choice("abc")))
        edges.append((f"s{i}", "hub", rng.choice("abc")))
    edges.append(("hub", rng.choice(core.vertices), rng.choice("abc")))
    return graph_from_edges(edges, alphabet=("a", "b", "c"))


# 73 vertices, 145 edges, in-degree 64 at the hub: 1,070 states
HUB = _hub_graph(0)


def _kernel_calls(monkeypatch) -> list[int]:
    """Records the number of vectors of every ``viterbi.advance`` call."""
    calls = []
    advance = statespace.viterbi.advance

    def recording(g, states):
        calls.append(len(states))
        return advance(g, states)

    monkeypatch.setattr(statespace.viterbi, "advance", recording)
    return calls


def test_hub_graph_blocks_bound_the_padded_intermediate(monkeypatch):
    """The padded table holds D x V in-edges, 4,672 here against 145 edges;
    each block is cut so that its (F, symbols, D, V) intermediate is no
    larger than that of ``_BLOCK`` states over the E edges."""
    depth, n_vert = HUB.in_edge_arrays.src.shape
    n_sym, n_edges = len(HUB.alphabet), len(HUB.edges)
    assert depth >= 64
    calls = _kernel_calls(monkeypatch)
    ss = enumerate_states(HUB)
    assert (tuple_states(ss), tuple_arcs(ss)) == enumerate_arcs(HUB)
    assert max(calls) * n_sym * depth * n_vert <= statespace._BLOCK * n_sym * n_edges
    assert max(calls) == statespace._BLOCK * n_edges // (depth * n_vert) < len(ss)


@pytest.mark.parametrize("block", [3, 64])
def test_uniform_in_degree_keeps_the_block(monkeypatch, block):
    """With every in-degree equal, D x V = E and each call advances up to
    ``_BLOCK`` states, as an unpadded kernel's would."""
    monkeypatch.setattr(statespace, "_BLOCK", block)
    calls = _kernel_calls(monkeypatch)
    ss = enumerate_states(DIFFERENTIAL_CORPUS[-2])  # order-4 binary, 16 vertices
    assert max(calls) == block and sum(calls) == len(ss)


def test_analysis_path_builds_no_tuple_views(monkeypatch, debruijn8):
    """``analyze``, and enumeration, chain and class split, leave the state
    space as its arrays alone: it has no tuple or dict view to build."""
    spaces = []

    def recording(g, max_states=10**6):
        spaces.append(enumerate_states(g, max_states))
        return spaces[-1]

    monkeypatch.setattr(chain, "enumerate_states", recording)
    assert chain.analyze(debruijn8).distortion == Fraction(452, 1809)
    ss = enumerate_states(debruijn8)
    closed_classes(build_chain(ss, SourceModel.uniform(debruijn8.alphabet)))
    format_statespace(ss)
    for space in (*spaces, ss):
        assert vars(space).keys() == {"graph", "k", "vectors", "succ", "inc"}
    assert not any(hasattr(ss, view) for view in ("states", "index", "arcs"))


def test_state_space_equality(g3, debruijn8):
    """Spaces are equal when graph, k, vectors and arc table agree element by
    element; comparing them builds no view."""
    a, b = enumerate_states(debruijn8), enumerate_states(debruijn8)
    assert a == b and hash(a) == hash(b)
    assert vars(a).keys() == {"graph", "k", "vectors", "succ", "inc"}
    assert a == dataclasses.replace(a, vectors=a.vectors.astype(np.int64))
    assert a != enumerate_states(g3)
    assert a != dataclasses.replace(a, k=a.k + 1)
    assert a != dataclasses.replace(a, vectors=a.vectors[::-1])
    succ, inc = a.succ.copy(), a.inc.copy()
    succ[5, 1] = (succ[5, 1] + 1) % len(a)
    inc[0, 0] ^= 1
    assert a != dataclasses.replace(a, succ=succ)
    assert a != dataclasses.replace(a, inc=inc)
    # the same arrays over a renamed alphabet: a different graph
    renamed = enumerate_states(
        graph_from_edges(
            [(e.src, e.dst, e.label.upper()) for e in debruijn8.edges],
            alphabet=tuple(x.upper() for x in debruijn8.alphabet),
        )
    )
    assert (renamed.vectors.tolist(), renamed.succ.tolist()) == (a.vectors.tolist(), a.succ.tolist())
    assert a != renamed
    assert a != tuple_states(a)


def test_unset_spare_rows_are_never_read(monkeypatch, debruijn8):
    """A table's spare rows of ``vectors`` and ``inc`` are left unset when it
    grows; filled with garbage instead, they change neither an enumeration
    nor a walk: on debruijn8 (closed before the walk), on an order-5
    quaternary labelling whose walk fills the table lane by lane, and on a
    periodic graph whose vectors widen."""
    rng = random.Random(5)
    order5q = de_bruijn(5, tuple(rng.choice("abcd") for _ in range(64)))
    periodic = parse_graph("alphabet a b\nedge v w a\nedge w v b\n")
    walks = ((debruijn8, 100_000), (order5q, 2000), (periodic, 100_000))

    def run():
        ss = enumerate_states(debruijn8)
        return ss, [simulate(g, SourceModel.uniform(g.alphabet), n, seed=2) for g, n in walks]

    ss, clean = run()
    grown = statespace._grown

    def garbled(a, rows, fill=None):
        out = grown(a, rows, fill)
        if fill is None:
            out[len(a) :] = np.iinfo(out.dtype).max
        return out

    monkeypatch.setattr(statespace, "_grown", garbled)
    garbled_ss, garbled_walks = run()
    assert garbled_ss == ss
    for a, b in zip(clean, garbled_walks):
        assert np.array_equal(a.increments, b.increments)
