from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import state_index, tuple_arcs
from tcq import (
    SourceError,
    SourceModel,
    analyze,
    de_bruijn,
    debruijn8_demo,
    encode,
    enumerate_states,
    parse_graph,
    sim,
    simulate,
    viterbi,
    z_score,
)
from tcq.sim import (
    _worker_ranges,
    random_words,
    source_thresholds,
    symbol_indices,
)

MASK = (1 << 64) - 1


def _splitmix64_scalar(seed: int, i: int) -> int:
    """Plain-integer reference for the vectorized generator."""
    z = (seed + (i + 1) * 0x9E3779B97F4A7C15) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


@given(st.integers(0, MASK), st.integers(0, 1000))
@settings(max_examples=50)
def test_random_words_match_scalar_reference(seed, start):
    words = random_words(seed, start, start + 5)
    for offset, w in enumerate(words):
        assert int(w) == _splitmix64_scalar(seed, start + offset)


def test_stream_is_position_addressable():
    whole = random_words(99, 0, 1000)
    parts = np.concatenate([random_words(99, a, b) for a, b in [(0, 400), (400, 1000)]])
    assert (whole == parts).all()


def test_symbol_stream_partition_equals_whole():
    src = SourceModel(("a", "b", "c"), (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
    bounds, support = source_thresholds(src)
    whole = symbol_indices(5, 0, 999, bounds, support)
    cut = np.concatenate(
        [symbol_indices(5, a, b, bounds, support) for a, b in [(0, 137), (137, 999)]]
    )
    assert (whole == cut).all()


def test_thresholds_sum_exactly_to_two_to_64():
    src = SourceModel(("a", "b", "c"), (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)))
    bounds, support = source_thresholds(src)
    assert support == [0, 1, 2]
    assert len(bounds) == 2
    # reconstruct the implied weights and check the rounding guarantee
    edges = [0] + [int(b) for b in bounds] + [1 << 64]
    for sym, (lo, hi) in zip(support, zip(edges, edges[1:])):
        weight = hi - lo
        exact = src.probabilities[sym] * (1 << 64)
        assert abs(weight - exact) < 1
    assert edges[-1] - edges[0] == 1 << 64


def test_zero_probability_symbol_is_never_drawn():
    src = SourceModel(("a", "b", "c"), (Fraction(1, 2), Fraction(0), Fraction(1, 2)))
    bounds, support = source_thresholds(src)
    assert support == [0, 2]
    picks = symbol_indices(123, 0, 10_000, bounds, support)
    assert set(np.unique(picks)) <= {0, 2}


def test_single_symbol_source():
    src = SourceModel(("a", "b"), (Fraction(1), Fraction(0)))
    bounds, support = source_thresholds(src)
    assert support == [0] and len(bounds) == 0
    assert (symbol_indices(1, 0, 100, bounds, support) == 0).all()


def test_simulate_is_deterministic(g3):
    src = SourceModel.uniform(g3.alphabet)
    a = simulate(g3, src, n=5000, seed=42)
    b = simulate(g3, src, n=5000, seed=42)
    assert (a.increments == b.increments).all()
    assert (a.estimate, a.stderr) == (b.estimate, b.stderr)
    c = simulate(g3, src, n=5000, seed=43)
    assert (a.increments != c.increments).any()


def test_simulate_multiworker_deterministic(g3):
    src = SourceModel.uniform(g3.alphabet)
    a = simulate(g3, src, n=5000, seed=42, workers=3)
    b = simulate(g3, src, n=5000, seed=42, workers=3)
    assert (a.increments == b.increments).all()
    assert a.workers == 3


def test_worker_ranges_partition():
    for n, w in [(10, 3), (7, 7), (5, 1), (100, 8)]:
        ranges = _worker_ranges(n, w)
        assert ranges[0][0] == 0 and ranges[-1][1] == n
        for (_, e1), (s2, _) in zip(ranges, ranges[1:]):
            assert e1 == s2
        sizes = [e - s for s, e in ranges]
        assert max(sizes) - min(sizes) <= 1


def test_worker_ranges_are_never_empty(g3):
    assert _worker_ranges(3, 5) == [(0, 1), (1, 2), (2, 3)]
    src = SourceModel.uniform(g3.alphabet)
    many = simulate(g3, src, n=10, seed=1, workers=10**12)
    ten = simulate(g3, src, n=10, seed=1, workers=10)
    assert (many.increments == ten.increments).all()
    assert many.workers == 10**12


def test_perfect_code_has_zero_estimate(perfect2):
    src = SourceModel.uniform(perfect2.alphabet)
    r = simulate(perfect2, src, n=2000, seed=0)
    assert r.estimate == 0.0
    assert r.stderr == 0.0
    assert z_score(r, Fraction(0)) == 0.0


def test_increments_match_encoder_on_realized_stream(g3, debruijn8):
    n = 600
    for g, seed in ((g3, 5), (debruijn8, 6)):
        src = SourceModel.uniform(g.alphabet)
        result = simulate(g, src, n=n, seed=seed)
        bounds, support = source_thresholds(src)
        xs = tuple(
            g.alphabet[i] for i in symbol_indices(seed, 0, n, bounds, support)
        )
        assert int(result.increments.sum()) == encode(g, xs).total_distortion


def test_batch_count_and_stderr(g3):
    src = SourceModel.uniform(g3.alphabet)
    r = simulate(g3, src, n=200, seed=1)
    assert r.batch_count == 100
    assert r.estimate == float(r.increments.mean())
    tiny = simulate(g3, src, n=1, seed=1)
    assert tiny.batch_count == 1
    assert math.isnan(tiny.stderr)
    assert tiny.bias_bound == 2.0**-64


def test_simulate_validation(g3):
    src = SourceModel.uniform(g3.alphabet)
    with pytest.raises(ValueError, match="at least one step"):
        simulate(g3, src, n=0, seed=1)
    with pytest.raises(ValueError, match="at least one worker"):
        simulate(g3, src, n=10, seed=1, workers=0)
    with pytest.raises(SourceError, match="does not match"):
        simulate(g3, SourceModel.uniform(("x", "y")), n=10, seed=1)


def test_convergence_smoke(g3):
    src = SourceModel.uniform(g3.alphabet)
    exact = analyze(g3, src).distortion
    r = simulate(g3, src, n=100_000, seed=2)
    assert abs(z_score(r, exact)) <= 5.0
    r4 = simulate(g3, src, n=100_000, seed=2, workers=4)
    assert abs(z_score(r4, exact)) <= 5.0


def test_zscore_infinite_when_stderr_zero(perfect2):
    src = SourceModel.uniform(perfect2.alphabet)
    r = simulate(perfect2, src, n=500, seed=9)
    assert z_score(r, Fraction(1, 10)) == float("inf") or z_score(r, Fraction(1, 10)) == float("-inf")


def test_rng_seed_distinctness():
    a = random_words(0, 0, 100)
    b = random_words(1, 0, 100)
    assert (a != b).any()


XOR4 = de_bruijn(4, tuple("abbacddccddcabbacddcabbaabbacddc"))  # 927 states


def _walk_graph(name: str):
    if name == "debruijn8":
        return debruijn8_demo()
    if name == "xor4":
        return XOR4
    rng = random.Random(0)  # a random order-4 quaternary labelling: 3,415 states
    return de_bruijn(4, tuple(rng.choice("abcd") for _ in range(32)))


def _walk(monkeypatch, g, n: int, seed: int = 0, workers: int = 1):
    """simulate, returning the result, the walk's Explorer and its kernel
    calls: (reduced_transition, advance outside reduced_transition)."""
    made = []
    calls = [0, 0]
    inside = [False]
    single = viterbi.reduced_transition
    advance = viterbi.advance

    class Recorded(sim.Explorer):
        def __init__(self, graph):
            super().__init__(graph)
            made.append(self)

    def counted_single(*args):
        calls[0] += 1
        inside[0] = True  # its own advance call is not counted again
        try:
            return single(*args)
        finally:
            inside[0] = False

    def counted_advance(*args):
        calls[1] += not inside[0]
        return advance(*args)

    monkeypatch.setattr(sim, "Explorer", Recorded)
    monkeypatch.setattr(viterbi, "reduced_transition", counted_single)
    monkeypatch.setattr(viterbi, "advance", counted_advance)
    r = simulate(g, SourceModel.uniform(g.alphabet), n=n, seed=seed, workers=workers)
    monkeypatch.undo()
    [explorer] = made
    return r, explorer, tuple(calls)


def test_simulate_explores_only_the_walk(monkeypatch):
    """The walk computes an arc on its first use only: an order-5 quaternary
    labelling, whose full space is too large to enumerate in a unit test,
    needs at most one reduced transition per step, and at most one kernel
    call per step and two per state it interns."""
    rng = random.Random(5)
    g = de_bruijn(5, tuple(rng.choice("abcd") for _ in range(64)))
    assert len(g.alphabet) == 4
    r, explorer, (single, expanded) = _walk(monkeypatch, g, 2000)
    assert 0 < single <= 2000
    assert single + expanded <= 2000
    assert single + expanded <= 2 * len(explorer.states)
    assert 0.0 < r.estimate < 1.0


def test_revisited_states_expand_in_one_kernel_call(monkeypatch, debruijn8):
    """A 100,000-step walk on debruijn8 (107 states) makes at most one
    single-arc call and one whole-state expansion per state."""
    r, explorer, (single, expanded) = _walk(monkeypatch, debruijn8, 100_000)
    assert len(explorer.states) == 107
    assert expanded > 0
    assert single + expanded <= 214


@pytest.mark.parametrize("name", ["debruijn8", "xor4", "random-order4-quaternary"])
def test_walk_arcs_match_the_enumerated_table(monkeypatch, name):
    """Every arc the walk memoized is the enumerated arc between the same
    state vectors, no block outlives a full row, and the increments are
    those of the same walk read off the enumerated table. The kernel runs
    at most once per step and twice per state the walk interns."""
    g = _walk_graph(name)
    ss = enumerate_states(g)
    index, arcs = state_index(ss), tuple_arcs(ss)
    src = SourceModel.uniform(g.alphabet)
    bounds, support = source_thresholds(src)
    for workers in (1, 2):
        r, explorer, calls = _walk(monkeypatch, g, 100_000, seed=3, workers=workers)
        assert sum(calls) <= min(r.n, 2 * len(explorer.states))
        where = [index[s] for s in explorer.states]
        memoized = 0
        for si, row in enumerate(explorer.rows):
            for xi, step in enumerate(row):
                if step is not None:
                    ti, inc = step
                    assert arcs[where[si]][xi] == (where[ti], inc)
                    memoized += 1
        assert memoized > len(explorer.states)
        assert all(None in explorer.rows[si] for si in explorer.blocks)

        expected = np.empty(r.n, dtype=np.uint8)
        for start, stop in _worker_ranges(r.n, workers):
            state = 0
            xs = symbol_indices(3, start, stop, bounds, support).tolist()
            for pos, xi in enumerate(xs, start):
                state, expected[pos] = arcs[state][xi]
        assert r.increments.dtype == np.uint8
        assert (r.increments == expected).all()


def test_wide_kernel_rows_walk_the_same(monkeypatch):
    """Kernel rows in a dtype wider than uint8 are kept as lists of ints,
    and the walk, its states and its arcs are unchanged."""
    narrow, narrow_explorer, _ = _walk(monkeypatch, XOR4, 20_000, seed=2)
    monkeypatch.setattr(viterbi, "holding", lambda lo, hi: np.int64)
    wide, explorer, _ = _walk(monkeypatch, XOR4, 20_000, seed=2)
    assert explorer.blocks
    assert all(type(block) is list for block in explorer.blocks.values())
    assert all(type(c) is int for s in explorer.states for c in s)
    assert (explorer.states, explorer.rows) == (narrow_explorer.states, narrow_explorer.rows)
    assert (wide.increments == narrow.increments).all()


# 100,000-step increment sums, equal to perfbench's corpus pins
@pytest.mark.parametrize(
    "name, seed, workers, total",
    [
        ("debruijn8", 0, 1, 25030),
        ("debruijn8", 0, 2, 25029),
        ("debruijn8", 3, 1, 25038),
        ("debruijn8", 3, 2, 25038),
        ("xor4", 0, 1, 26763),
        ("xor4", 0, 2, 26762),
        ("xor4", 3, 1, 26946),
        ("xor4", 3, 2, 26944),
    ],
)
def test_pinned_walk_sums(name, seed, workers, total):
    g = _walk_graph(name)
    r = simulate(g, SourceModel.uniform(g.alphabet), n=100_000, seed=seed, workers=workers)
    assert int(r.increments.sum()) == total


def test_simulate_runs_on_a_periodic_graph():
    """Simulation needs no aperiodicity: it never enumerates the space."""
    g = parse_graph("alphabet a b\nedge v w a\nedge w v b\n")
    r = simulate(g, SourceModel.uniform(g.alphabet), n=1000, seed=1)
    assert r.estimate == 0.485
