from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_code_graph, random_sequence
from oracles import zero_state
from tcq import (
    InstanceTooLargeError,
    brute_force_min,
    count_paths,
    debruijn8_demo,
    encode,
    graph_from_edges,
    reduced_transition,
)
from tcq.viterbi import advance, holding


def test_zero_state(g3):
    assert zero_state(g3) == (0, 0)


def test_transition_hand_values(g3):
    # from (0,0): reading b, the only zero-cost continuation enters v2
    assert oracles.transition(g3, (0, 0), "b") == (1, 0)
    assert reduced_transition(g3, (0, 0), "b") == ((1, 0), 0)
    assert oracles.transition(g3, (0, 0), "a") == (0, 0)
    assert reduced_transition(g3, (0, 0), "a") == ((0, 0), 0)
    # from (1,0): both components pay for another b
    assert oracles.transition(g3, (1, 0), "b") == (1, 1)
    assert reduced_transition(g3, (1, 0), "b") == ((0, 0), 1)


def test_transition_input_validation(g3):
    with pytest.raises(ValueError, match="length"):
        reduced_transition(g3, (0, 0, 0), "a")
    with pytest.raises(ValueError, match="not in alphabet"):
        reduced_transition(g3, (0, 0), "z")


def test_reduced_transition(g3):
    nxt, inc = reduced_transition(g3, (1, 0), "b")
    assert nxt == (0, 0) and inc == 1
    nxt, inc = reduced_transition(g3, (0, 0), "b")
    assert nxt == (1, 0) and inc == 0
    with pytest.raises(ValueError, match="not reduced"):
        reduced_transition(g3, (1, 1), "a")


@given(st.integers(0, 10**9))
def test_increment_is_zero_or_one(seed):
    rng = random.Random(seed)
    g = random_code_graph(rng)
    s = zero_state(g)
    for x in random_sequence(rng, g.alphabet, 40):
        s, inc = reduced_transition(g, s, x)
        assert inc in (0, 1)
        assert min(s) == 0


@given(st.integers(0, 10**9))
def test_reduction_commutes_with_running_minimum(seed):
    rng = random.Random(seed)
    g = random_code_graph(rng)
    xs = random_sequence(rng, g.alphabet, 30)
    unreduced = zero_state(g)
    reduced = zero_state(g)
    total_inc = 0
    for x in xs:
        unreduced = oracles.transition(g, unreduced, x)
        m = min(unreduced)
        reduced, inc = reduced_transition(g, reduced, x)
        total_inc += inc
        assert reduced == tuple(c - m for c in unreduced)
        assert total_inc == m  # the increments count the running minimum


def test_encode_hand_values(g3, debruijn8):
    r = encode(g3, ("b", "b"))
    assert r.total_distortion == 1
    assert r.labels == ("b", "a")
    assert r.path == (1, 2)
    assert encode(g3, ("a", "a", "a")).total_distortion == 0
    assert encode(g3, ("b", "a", "b")).total_distortion == 0
    for x in debruijn8.alphabet:
        assert encode(debruijn8, (x,)).total_distortion == 0


def test_encode_rejects_bad_input(g3):
    with pytest.raises(ValueError, match="empty"):
        encode(g3, ())
    with pytest.raises(ValueError, match="not in alphabet"):
        encode(g3, ("a", "z"))


def _check_self_consistent(g, xs, result):
    assert len(result.path) == len(xs)
    vi = g.vertex_index
    for prev, cur in zip(result.path, result.path[1:]):
        assert vi[g.edges[prev].dst] == vi[g.edges[cur].src]
    assert result.labels == tuple(g.edges[ei].label for ei in result.path)
    assert result.total_distortion == sum(
        x != lab for x, lab in zip(xs, result.labels)
    )


@given(st.integers(0, 10**9))
def test_encode_self_consistency(seed):
    rng = random.Random(seed)
    g = random_code_graph(rng)
    xs = random_sequence(rng, g.alphabet, rng.randint(1, 12))
    _check_self_consistent(g, xs, encode(g, xs))


@settings(max_examples=60)
@given(st.integers(0, 10**9))
def test_encode_equals_brute_force_equals_increment_sum(seed):
    rng = random.Random(seed)
    g = random_code_graph(rng, max_vertices=4, max_symbols=3, max_out=2)
    xs = random_sequence(rng, g.alphabet, rng.randint(1, 8))
    expected = brute_force_min(g, xs)
    assert encode(g, xs).total_distortion == expected
    s = zero_state(g)
    total = 0
    for x in xs:
        s, inc = reduced_transition(g, s, x)
        total += inc
    assert total == expected


def test_count_paths(g3):
    assert count_paths(g3, 0) == 2  # one empty path per start vertex
    assert count_paths(g3, 1) == 4
    assert count_paths(g3, 2) == 8
    assert count_paths(debruijn8_demo(), 3) == 8 * 2**3


def test_brute_force_guard(g3):
    with pytest.raises(InstanceTooLargeError):
        brute_force_min(g3, ("a",) * 40)
    assert brute_force_min(g3, ("a",) * 10, max_paths=2**10 * 2) == 0


def test_brute_force_zero_on_realizable_labels():
    rng = random.Random(7)
    g = random_code_graph(rng)
    # read labels off an actual random walk; that path costs nothing
    v = 0
    labels = []
    for _ in range(8):
        ei = rng.choice(g.out_edges[v])
        labels.append(g.edges[ei].label)
        v = g.vertex_index[g.edges[ei].dst]
    assert brute_force_min(g, tuple(labels)) == 0
    assert encode(g, tuple(labels)).total_distortion == 0


@pytest.mark.parametrize("top", [1, 3, 254, 255, 256, 70_000, 2**40, 2**70])
def test_transitions_match_scalar_oracle(top):
    """Random reduced vectors with components up to ``top``: the kernel's
    dtype must hold max + 1 without wrapping, past 64 bits included."""
    rng = random.Random(top)
    for _ in range(30):
        g = random_code_graph(rng, max_vertices=8, max_symbols=4)
        s = [rng.randint(0, top) for _ in range(g.num_vertices)]
        s[rng.randrange(g.num_vertices)] = top
        s[rng.randrange(g.num_vertices)] = 0
        s = tuple(s)
        for x in g.alphabet:
            assert reduced_transition(g, s, x) == oracles.reduced_transition(g, s, x)


def _skewed_graph(rng: random.Random):
    """A ring through 3-8 vertices, 8-12 more in-edges into one hub from
    random sources (so parallel edges and the hub's own self-loop can occur),
    a self-loop and a doubled ring edge, all shuffled: the hub has 9 or
    more in-edges and most vertices one, so the kernel pads most columns."""
    n = rng.randint(3, 8)
    syms = "abcd"[: rng.randint(2, 4)]
    edges = [(f"v{i}", f"v{(i + 1) % n}", rng.choice(syms)) for i in range(n)]
    hub = f"v{rng.randrange(n)}"
    edges += [(f"v{rng.randrange(n)}", hub, rng.choice(syms)) for _ in range(rng.randint(8, 12))]
    u = rng.randrange(n)
    edges += [(f"v{u}", f"v{u}", rng.choice(syms)), (f"v{u}", f"v{(u + 1) % n}", rng.choice(syms))]
    rng.shuffle(edges)
    return graph_from_edges(edges, alphabet=tuple(syms))


@pytest.mark.parametrize("count", [1, 3, 64])
@pytest.mark.parametrize("top", [1, 255, 256, 2**64, 2**70])
def test_batch_kernel_matches_scalar_oracle(top, count):
    """``advance`` on a stack of ``count`` vectors, for every symbol at once,
    against the per-arc oracle: components up to ``top`` in the dtype
    ``holding`` gives (uint16 at 255 and 256, Python ints in an ``object``
    array past 64 bits), which the result keeps."""
    rng = random.Random(f"{top}:{count}")
    for _ in range(8):
        g = _skewed_graph(rng)
        n = g.num_vertices
        assert max(map(len, g.incoming_edges)) >= 9
        vectors = []
        for _ in range(count):
            s = [rng.randint(0, top) for _ in range(n)]
            s[rng.randrange(n)] = top
            s[rng.randrange(n)] = 0
            vectors.append(tuple(s))
        stack = np.array(vectors, dtype=holding(0, top + 1))
        expected = [[oracles.reduced_transition(g, s, x) for x in g.alphabet] for s in vectors]

        t, inc = advance(g, stack)
        assert t.shape == (count, len(g.alphabet), n) and inc.shape == (count, len(g.alphabet))
        assert t.dtype == inc.dtype == stack.dtype
        got = [list(zip(map(tuple, tf), incf)) for tf, incf in zip(t.tolist(), inc.tolist())]
        assert got == expected
        t0, inc0 = advance(g, stack[0])  # one vector, every symbol
        assert (t0.tolist(), inc0.tolist()) == (t[0].tolist(), inc[0].tolist())


@pytest.mark.parametrize(
    "edges",
    [
        [("v", "w", "a"), ("w", "w", "b")],  # the first vertex has no in-edge
        [("w", "w", "a"), ("v", "w", "b")],  # the last one has none
    ],
)
def test_vertex_without_in_edge_raises(edges):
    g = graph_from_edges(edges, alphabet=("a", "b"))
    s = zero_state(g)
    with pytest.raises(ValueError, match="'v' has no incoming edge"):
        reduced_transition(g, s, "b")
