from __future__ import annotations

import gc
import math
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import searched_symbols, state_index, tuple_arcs, walk_increments
from tcq import (
    GraphStructureError,
    SourceError,
    SourceModel,
    analyze,
    de_bruijn,
    debruijn8_demo,
    encode,
    enumerate_states,
    graph_from_edges,
    parse_graph,
    sim,
    simulate,
    viterbi,
    z_score,
)
from tcq.graph import exact_path_constant
from tcq.sim import (
    _worker_ranges,
    random_words,
    source_thresholds,
    symbol_indices,
)
from tcq.statespace import ArcTable

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


def _edge_words(bounds: np.ndarray) -> np.ndarray:
    """Every sampling bucket's first and last word, and b - 1, b and b + 1
    for every bound b."""
    bucket = 1 << (64 - sim._TOP_BITS)
    firsts = [h * bucket for h in range(1 << sim._TOP_BITS)]
    words = firsts + [f + bucket - 1 for f in firsts]
    words += [b + d for b in bounds.tolist() for d in (-1, 0, 1) if 0 <= b + d <= MASK]
    return np.array(words, dtype=np.uint64)


def _source(weights: list[Fraction]) -> SourceModel:
    total = sum(weights)
    return SourceModel(
        tuple(f"s{i}" for i in range(len(weights))), tuple(w / total for w in weights)
    )


def _assert_picks_match_the_search(src: SourceModel, seed: int = 0) -> None:
    bounds, support = source_thresholds(src)
    words = np.concatenate((_edge_words(bounds), random_words(seed, 0, 5000)))
    picks = sim._Guide(bounds, support).pick(words)
    expected = searched_symbols(words, bounds, support)
    assert picks.dtype == expected.dtype
    assert (picks == expected).all()


_TINY = Fraction(1, 2**70)


@pytest.mark.parametrize(
    "weights",
    [
        [1],  # no bounds
        [1, 0],  # no bounds, a zero-probability symbol
        [1, 1, 1, 1],  # every bound on a bucket's first word
        [1] * 64,
        [1, 4095],  # a bound on the first word of bucket 1
        [1, 8191],  # a bound halfway into bucket 0
        [3, 2, 1],  # bounds off a bucket's first word
        [1] * 3,
        [1, 0, 1, 0, 0, 2],
        [1] * 1000,
        [1] * 5000,  # more bounds than buckets
        [_TINY, Fraction(1, 2), Fraction(1, 2) - _TINY],
        [Fraction(1, 4) - _TINY, 2 * _TINY, Fraction(3, 4) - _TINY],
        [Fraction(1, 2), _TINY, Fraction(1, 2) - _TINY],
    ],
)
def test_table_picks_match_the_search(weights):
    """The top-bits table picks, on every word at the edge of a sampling
    bucket and next to every bound, the symbol that a search among the
    bounds picks, in the same dtype."""
    _assert_picks_match_the_search(_source([Fraction(w) for w in weights]))


@st.composite
def _weights(draw) -> list[Fraction]:
    """1 to 1,000 weights, some of them zero, cut at multiples of 1/total:
    for a total of 4,096 every bound is on a bucket's first word, for
    8,192 some are halfway into a bucket, and the other totals cut
    anywhere; sometimes with one more weight of 2^-70."""
    k = draw(st.integers(1, 1000))
    dyadic = st.sampled_from([1 << sim._TOP_BITS, 1 << (sim._TOP_BITS + 1), 1 << 64])
    total = draw(dyadic | st.integers(1, 10**6))
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=k - 1, max_size=k - 1)))
    weights = [Fraction(b - a, total) for a, b in zip([0, *cuts], [*cuts, total])]
    if draw(st.booleans()):
        weights = [w * (1 - _TINY) for w in weights]
        weights.insert(draw(st.integers(0, k)), _TINY)
    return weights


@given(_weights(), st.integers(0, MASK))
@settings(max_examples=60)
def test_table_picks_match_the_search_on_random_sources(weights, seed):
    _assert_picks_match_the_search(_source(weights), seed)


def test_symbol_indices_pick_the_stream_words():
    src = SourceModel(("a", "b", "c"), (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
    bounds, support = source_thresholds(src)
    picks = symbol_indices(8, 1000, 3000, bounds, support)
    assert (picks == searched_symbols(random_words(8, 1000, 3000), bounds, support)).all()


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


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n", [1, 99, 100, 101, 100_003])
def test_estimate_is_the_mean_of_the_increments(g3, n, workers):
    """The estimate, the batch sums' total over n, is the float mean of the
    increments, bit for bit; one step makes one batch."""
    r = simulate(g3, SourceModel.uniform(g3.alphabet), n=n, seed=4, workers=workers)
    assert r.estimate == float(r.increments.mean())


@pytest.mark.parametrize("n", [2, 99, 100, 101, 12_345])
def test_batch_means_match_array_split(g3, n):
    """The batch sums are taken over np.array_split's batches, and the
    standard error is bit-identical to averaging each split batch."""
    r = simulate(g3, SourceModel.uniform(g3.alphabet), n=n, seed=1)
    means = [float(b.mean()) for b in np.array_split(r.increments, r.batch_count)]
    mean_of_means = sum(means) / r.batch_count
    var = sum((m - mean_of_means) ** 2 for m in means) / (r.batch_count - 1)
    assert r.stderr == math.sqrt(var / r.batch_count)


def test_simulate_validation(g3):
    src = SourceModel.uniform(g3.alphabet)
    with pytest.raises(ValueError, match="at least one step"):
        simulate(g3, src, n=0, seed=1)
    with pytest.raises(ValueError, match="at least one worker"):
        simulate(g3, src, n=10, seed=1, workers=0)
    with pytest.raises(SourceError, match="does not match"):
        simulate(g3, SourceModel.uniform(("x", "y")), n=10, seed=1)


@pytest.mark.parametrize(
    "edges",
    [
        [("v", "w", "a"), ("w", "w", "b")],  # the first vertex has no in-edge
        [("w", "w", "a"), ("v", "w", "b")],  # the last one has none
    ],
)
def test_simulate_refuses_a_vertex_without_in_edge(monkeypatch, edges):
    """A vertex with no in-edge has no cost to carry forward: ``simulate``
    says so before it builds a table, in the words the CLI prints."""
    g = graph_from_edges(edges, alphabet=("a", "b"))

    def no_table(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(sim, "ArcTable", no_table)
    with pytest.raises(GraphStructureError) as raised:
        simulate(g, SourceModel.uniform(g.alphabet), n=10, seed=1)
    assert str(raised.value) == "vertex 'v' has no incoming edge; the walk needs one per vertex"


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


def _walk(g, n: int, seed: int = 0, workers: int = 1):
    """simulate, returning the result, the walk's ArcTable and its counts:
    kernel calls, ``ArcTable.fill`` calls, lockstep steps, the lane steps
    they take (a lockstep step of k lanes takes k), and steps walked alone.
    Every arc that the walk asks the table to fill must be missing from
    it. The walk neither reads nor keeps a closed table of ``sim._CLOSED``,
    so it builds its own, and the patches it makes end with it."""
    made = []
    counts = dict.fromkeys(("kernel", "fill", "lockstep", "lane_steps", "alone"), 0)
    advance, step, alone = viterbi.advance, sim._step, sim._walk_alone

    class Recorded(sim.ArcTable):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

        def fill(self, states, symbols):
            assert (self.succ[states, symbols] < 0).all()
            counts["fill"] += 1
            super().fill(states, symbols)

    def counted_advance(*args):
        counts["kernel"] += 1
        return advance(*args)

    def counted_step(table, states, *args):
        counts["lockstep"] += 1
        counts["lane_steps"] += len(states)
        return step(table, states, *args)

    def counted_alone(table, rows, symbols, *args):
        counts["alone"] += len(symbols)
        return alone(table, rows, symbols, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "ArcTable", Recorded)
        mp.setattr(viterbi, "advance", counted_advance)
        mp.setattr(sim, "_step", counted_step)
        mp.setattr(sim, "_walk_alone", counted_alone)
        mp.setattr(sim, "_CLOSED", weakref.WeakKeyDictionary())
        r = simulate(g, SourceModel.uniform(g.alphabet), n=n, seed=seed, workers=workers)
    [table] = made
    return r, table, counts


def _filled(table) -> int:
    return int((table.succ[: len(table)] >= 0).sum())


def test_simulate_explores_only_the_walk():
    """On an order-5 quaternary labelling, whose full space is too large to
    enumerate in a unit test, the closure stops past its budget of
    2,000 // 64 = 31 states, having interned at most 5 · 31, and the lanes
    then intern only the successors they take: no more states are interned
    than that, plus lane steps taken, plus one. Every kernel call fills at
    least one arc, and there is at most one fill per lockstep step and per
    step walked alone. The 2,000 steps run as 44 lanes of at most 46, so
    the lanes and their re-walks take at most 92 lockstep steps."""
    g = _ORDER5Q
    assert len(g.alphabet) == 4
    r, table, counts = _walk(g, 2000)
    assert len(table) <= counts["lane_steps"] + counts["alone"] + 1 + 5 * (2000 // 64)
    assert 0 < counts["kernel"] <= _filled(table)
    assert 0 < counts["fill"] <= counts["lockstep"] + counts["alone"]
    assert counts["lockstep"] <= 2 * 46
    assert 0.0 < r.estimate < 1.0


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", ["debruijn8", "xor4"])
def test_finite_space_walk_reads_a_closed_table(name, workers):
    """A 100,000-step walk closes a space of at most 100,000 // 64 states
    before its lanes start: it fills no arc on demand, and its table is the
    enumerated space, row for row. Its ranges take one lockstep pass
    together, d symbols a step: d is 4 on debruijn8 (107 · 4^4 = 27,392
    word arcs) and 2 on the XOR labelling (927 · 4^2 = 14,832; 4 would
    need 237,312, more than the 100,000 steps). So lanes 128 steps long
    take 128 / d lockstep steps, counted on the closed table too, and their
    re-walk at most 64 / d."""
    g = _walk_graph(name)
    ss = enumerate_states(g)
    assert len(ss) <= 100_000 // 64
    _, table, counts = _walk(g, 100_000, workers=workers)
    assert counts["fill"] == 0
    d = {"debruijn8": 4, "xor4": 2}[name]
    assert 128 // d < counts["lockstep"] <= (128 + sim._REWALK) // d
    n = len(table)
    for a in ("vectors", "succ", "inc"):
        assert np.array_equal(getattr(table, a)[:n], getattr(ss, a)), a


def test_revisited_states_expand_in_one_kernel_call(monkeypatch, debruijn8):
    """Without the closure (a budget of 0 states), a 100,000-step walk on
    debruijn8 (107 states, 428 arcs) interns each state once and fills
    every arc in fewer kernel calls than it has states: a call computes
    every arc of the states it expands, for all the lanes that miss at one
    step."""
    monkeypatch.setattr(sim, "_CLOSURE_SHARE", 100_001)
    r, table, counts = _walk(debruijn8, 100_000)
    assert len(table) == 107
    assert _filled(table) == 428
    assert 0 < counts["kernel"] == counts["fill"] <= 107


@pytest.mark.parametrize("name", ["debruijn8", "xor4", "random-order4-quaternary"])
def test_walk_arcs_match_the_enumerated_table(name):
    """Every arc the walk filled is the enumerated arc between the same
    state vectors, and the increments are those of the same walk read off
    the enumerated table. The kernel runs at most once per arc filled."""
    g = _walk_graph(name)
    ss = enumerate_states(g)
    index, arcs = state_index(ss), tuple_arcs(ss)
    src = SourceModel.uniform(g.alphabet)
    bounds, support = source_thresholds(src)
    for workers in (1, 2):
        r, table, counts = _walk(g, 100_000, seed=3, workers=workers)
        assert counts["kernel"] <= _filled(table)
        where = [index[s] for s in map(tuple, table.vectors[: len(table)].tolist())]
        succ, inc = table.succ[: len(table)].tolist(), table.inc[: len(table)].tolist()
        for si, (row, incs) in enumerate(zip(succ, inc)):
            for xi, (ti, d) in enumerate(zip(row, incs)):
                if ti >= 0:
                    assert arcs[where[si]][xi] == (where[ti], d)
        assert _filled(table) > len(table)

        expected = np.empty(r.n, dtype=np.uint8)
        for start, stop in _worker_ranges(r.n, workers):
            state = 0
            xs = symbol_indices(3, start, stop, bounds, support).tolist()
            for pos, xi in enumerate(xs, start):
                state, expected[pos] = arcs[state][xi]
        assert r.increments.dtype == np.uint8
        assert (r.increments == expected).all()


def test_wide_kernel_rows_walk_the_same(monkeypatch):
    """State vectors in a dtype wider than uint8 give the same walk: the
    same states in the same order, the same arcs and the same increments."""
    narrow, narrow_table, _ = _walk(XOR4, 20_000, seed=2)
    monkeypatch.setattr(viterbi, "holding", lambda lo, hi: np.int64)
    wide, table, _ = _walk(XOR4, 20_000, seed=2)
    assert (narrow_table.vectors.dtype, table.vectors.dtype) == (np.uint8, np.int64)
    n = len(table)
    assert n == len(narrow_table)
    for a, b in [("vectors", "vectors"), ("succ", "succ"), ("inc", "inc")]:
        assert np.array_equal(getattr(table, a)[:n], getattr(narrow_table, b)[:n])
    assert (wide.increments == narrow.increments).all()


PERIODIC = parse_graph("alphabet a b\nedge v w a\nedge w v b\n")


def test_periodic_walk_widens_its_vectors():
    """On a periodic graph the lanes never meet the true walk, and a
    component passes 255 within 100,000 steps: the vectors widen to a dtype
    holding it plus 1, the index is re-keyed by the wider rows, and the walk
    is still the one-step-at-a-time walk. Every lane but each chunk's first
    is walked again alone, over a successor list kept for the pass that
    lacks the arcs lockstep steps filled since it last read their rows;
    ``_walk`` checks that none of them is computed again. A periodic space
    is not closed: the table holds only the 584 states the lanes take."""
    r, table, counts = _walk(PERIODIC, 100_000, seed=1)
    assert len(table) == 584
    assert counts["kernel"] == counts["fill"]
    vectors = table.vectors[: len(table)]
    assert vectors.max() >= 256
    assert np.iinfo(vectors.dtype).max > vectors.max()
    assert table.index == {row.tobytes(): i for i, row in enumerate(vectors)}
    assert (r.increments == walk_increments(PERIODIC, 100_000, 1, 1)).all()


def test_walks_alone_keep_rows_of_the_states_they_reach(monkeypatch):
    """The successor rows kept for lanes walked alone cover the states
    those walks reached and the successors of the rows they read, not the
    whole table: each call numbers its start state and each step at most
    one row of 4 successors. A 20,000-step walk on an order-5 quaternary
    labelling interns about 20,000 states and walks a few lanes alone."""
    made = []

    class Recorded(sim._Alone):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(sim, "_Alone", Recorded)
    r, table, counts = _walk(_ORDER5Q, 20_000)
    [alone] = made
    assert counts["alone"] > 0
    assert 0 < len(alone.states) <= 5 * counts["alone"] < len(table) // 10
    assert len(alone.rows) == 4 * len(alone.states)
    assert alone.number == {s: i for i, s in enumerate(alone.states)}
    assert (r.increments == walk_increments(_ORDER5Q, 20_000, 0, 1)).all()


def _labelling(order: int, seed: int, symbols: str = "abcd"):
    """A random labelling of the order-``order`` de Bruijn graph, quaternary
    unless ``symbols`` says otherwise."""
    rng = random.Random(seed)
    return de_bruijn(order, tuple(rng.choice(symbols) for _ in range(2 ** (order + 1))))


_ORDER3Q = _labelling(3, 3)
_ORDER5Q = _labelling(5, 5)
# Lengths around lane boundaries (a last lane cut short is padded with
# symbol 0 to full length): 99 is 9 full lanes of 11 steps, 100 is 10 of
# 10, 101 is 10 of 11 whose last walks 2 steps; around the lengths where
# lanes reach their cap of 2 * _REWALK = 128 steps: 16,257 is the first
# length whose sqrt rule (129 steps) is capped, so it runs as 128 lanes of
# 128 whose last walks 1 step; 16,383 as 128 whose last walks 127 (the
# rule gives 127 of 129); 16,384 as 128 full lanes either way; 16,385 as
# 129 whose last walks 1 step; 25,601, whose last capped lane walks one
# step; 32,769, which two workers split into ranges of 16,385 and 16,384
# steps, walked in one pass of 129 lanes each, the second range's last lane
# all padding. Walks of several chunks are tested with a shorter chunk in
# test_uneven_chunks_hand_on_their_true_end.
_LENGTHS = (1, 2, 3, 99, 100, 101, 16_257, 16_383, 16_384, 16_385, 25_601, 32_769, 100_000)


@pytest.mark.parametrize("workers", [1, 2, 3, 7])
@pytest.mark.parametrize(
    "name",
    ["g3", "debruijn8", "perfect2", "selfloop_ab", "xor4", "order3q", "order5q", "periodic"],
)
def test_walk_matches_the_one_step_oracle(request, name, workers):
    """The lanes give exactly the increments of the walk one step at a time.
    The order-5 quaternary labelling walks at most 2,000 steps."""
    g = {"xor4": XOR4, "order3q": _ORDER3Q, "order5q": _ORDER5Q, "periodic": PERIODIC}.get(name)
    g = g or request.getfixturevalue(name)
    for n in _LENGTHS if name != "order5q" else (*_LENGTHS[:6], 2000):
        r = simulate(g, SourceModel.uniform(g.alphabet), n=n, seed=7, workers=workers)
        assert (r.increments == walk_increments(g, n, 7, workers)).all(), n


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


def _closes(monkeypatch) -> list[int]:
    """Record the state count of every ``ArcTable.close`` from here on."""
    closes = []
    close = ArcTable.close

    def counted(table, *args):
        close(table, *args)
        closes.append(len(table))

    monkeypatch.setattr(ArcTable, "close", counted)
    return closes


def _no_table(*args):
    raise AssertionError("a table was built")


@pytest.mark.parametrize("workers", [1, 2])
def test_walks_of_one_graph_close_its_table_once(monkeypatch, workers):
    """The first walk that closes a graph's space keeps its arcs, as ``succ``
    and ``inc`` trimmed to the enumerated states; the next walk of the graph
    reads them without closing again. Both walks are the one-step walk."""
    closes = _closes(monkeypatch)
    g = debruijn8_demo()
    for seed in (0, 1):
        r = simulate(g, SourceModel.uniform(g.alphabet), n=100_000, seed=seed, workers=workers)
        assert (r.increments == walk_increments(g, 100_000, seed, workers)).all(), seed
    assert closes == [107]
    kept = sim._CLOSED[g]
    assert set(vars(kept)) == {"succ", "inc"}
    ss = enumerate_states(g)
    for a in ("succ", "inc"):
        assert getattr(kept, a).base is None, a  # no spare rows behind it
        assert np.array_equal(getattr(kept, a), getattr(ss, a)), a


def test_an_equal_graph_reads_the_kept_table(monkeypatch):
    """The tables are kept by graph value: a distinct but equal graph
    builds no table."""
    closes = _closes(monkeypatch)
    first, second = debruijn8_demo(), debruijn8_demo()
    assert first is not second and first == second
    simulate(first, SourceModel.uniform(first.alphabet), n=100_000, seed=2)
    monkeypatch.setattr(sim, "ArcTable", _no_table)
    r = simulate(second, SourceModel.uniform(second.alphabet), n=100_000, seed=2)
    assert (r.increments == walk_increments(second, 100_000, 2, 1)).all()
    assert closes == [107]


def test_a_kept_table_dies_with_its_graph(monkeypatch):
    """The kept table holds no reference to its graph: once the graph is
    collected, its entry is gone."""
    _closes(monkeypatch)
    g = de_bruijn(4, tuple("abbacddccddcabbacddcabbaabbacddc"))  # equal to XOR4, not XOR4
    simulate(g, SourceModel.uniform(g.alphabet), n=100_000, seed=0)
    assert len(sim._CLOSED) == 1
    alive = weakref.ref(g)
    del g
    gc.collect()
    assert alive() is None
    assert len(sim._CLOSED) == 0


def test_open_tables_are_not_kept(monkeypatch):
    """Only closed tables are kept: not the periodic graph's, whose space
    is not closed, nor the tables of walks that stop the closure at their
    budget (2,000 // 64 = 31 states, against 107 on debruijn8 and many
    more on the order-5 quaternary labelling)."""
    _closes(monkeypatch)
    for g in (PERIODIC, debruijn8_demo(), _ORDER5Q):
        simulate(g, SourceModel.uniform(g.alphabet), n=2000, seed=0)
    assert len(sim._CLOSED) == 0


def test_a_short_walk_reads_a_longer_walks_table(monkeypatch):
    """After a 100,000-step walk closed debruijn8's space, a 2,000-step
    walk, whose own budget of 31 states would not close it, reads the kept
    arcs: it builds no table and walks words of 2 symbols (107 · 4^2 =
    1,712 word arcs fit in its 2,000 steps), which only a closed table
    takes. It is the one-step walk."""
    closes = _closes(monkeypatch)
    g = debruijn8_demo()
    simulate(g, SourceModel.uniform(g.alphabet), n=100_000, seed=0)
    monkeypatch.setattr(sim, "ArcTable", _no_table)
    used = _recorded_words(monkeypatch)
    r = simulate(g, SourceModel.uniform(g.alphabet), n=2000, seed=3)
    assert used == [2] and closes == [107]
    assert (r.increments == walk_increments(g, 2000, 3, 1)).all()


def test_simulate_runs_on_a_periodic_graph():
    """Simulation needs no aperiodicity: it never enumerates the space."""
    g = parse_graph("alphabet a b\nedge v w a\nedge w v b\n")
    r = simulate(g, SourceModel.uniform(g.alphabet), n=1000, seed=1)
    assert r.estimate == 0.485


@pytest.mark.parametrize("rewalk", [1, 3, 8])
def test_lanes_that_have_not_met_are_walked_alone(monkeypatch, rewalk):
    """With a re-walk too short for every lane to meet its path, a lane that
    has not met is walked alone and the lanes after it take up their
    re-walks again where the walk alone reaches their start: the increments
    stay those of the walk one step at a time. Lanes are at most twice the
    re-walk long, so each case counts its walks alone to show that some
    lane did not meet."""
    monkeypatch.setattr(sim, "_REWALK", rewalk)
    alone = sim._walk_alone
    for g in (debruijn8_demo(), XOR4):
        for n, workers in ((101, 1), (sim._CHUNK + 1, 1), (100_000, 2)):
            calls = 0

            def counted(*args):
                nonlocal calls
                calls += 1
                return alone(*args)

            monkeypatch.setattr(sim, "_walk_alone", counted)
            r = simulate(g, SourceModel.uniform(g.alphabet), n=n, seed=4, workers=workers)
            assert calls > 0, (n, workers)
            assert (r.increments == walk_increments(g, n, 4, workers)).all(), (n, workers)


def test_uneven_chunks_hand_on_their_true_end(monkeypatch):
    """With a chunk length of 1,000 steps, a range of a 7,919-step walk
    spans several chunks, and each pass walks the chunks of every range in
    one lockstep loop. The chunk length is not a square, so each chunk's
    last lane is cut short and padded (1,000 steps run as 31 lanes of 33,
    the last walking 10) and may end before it meets its path; the last
    pass walks chunks n and n - 1 steps long (132 and 131 at 7 workers). The
    state each chunk hands to the next pass is still the true one."""
    monkeypatch.setattr(sim, "_CHUNK", 1000)
    for g in (debruijn8_demo(), XOR4, _ORDER5Q, PERIODIC):
        for workers in (1, 2, 3, 7):
            r = simulate(g, SourceModel.uniform(g.alphabet), n=7919, seed=5, workers=workers)
            assert (r.increments == walk_increments(g, 7919, 5, workers)).all(), workers


@pytest.mark.parametrize("workers", [1, 2, 3, 7])
def test_every_lockstep_step_advances_every_lane(monkeypatch, g3, workers):
    """Every lockstep step of a pass, speculative or re-walk, advances all
    walks · m lanes: each walk of a pass, n or n - 1 steps long, is cut into
    the same m = ⌈n / steps⌉ lanes, its last padded to full length. With a
    chunk of 1,000 steps a 7,919-step walk takes several passes, whose last
    lanes are cut short: g3's table is closed and walked in words of up to
    8 symbols (1,000 steps run as 32 lanes of 4 words), the periodic
    graph's is not closed and walked one symbol a step."""
    monkeypatch.setattr(sim, "_CHUNK", 1000)
    used = _recorded_words(monkeypatch)
    passes = []
    walk, step = sim._walk, sim._step

    def recorded_walk(table, xss, *args):
        passes.append((len(xss), len(xss[0]), []))
        return walk(table, xss, *args)

    def recorded_step(table, states, *args):
        passes[-1][2].append(len(states))
        return step(table, states, *args)

    monkeypatch.setattr(sim, "_walk", recorded_walk)
    monkeypatch.setattr(sim, "_step", recorded_step)
    for g in (g3, PERIODIC):
        r = simulate(g, SourceModel.uniform(g.alphabet), n=7919, seed=5, workers=workers)
        assert (r.increments == walk_increments(g, 7919, 5, workers)).all()
    assert len(passes) == len(used) and 8 in used and 1 in used
    for (walks, n, lanes), d in zip(passes, used):
        steps = max(1, min(-(-n // math.isqrt(n)), 2 * sim._REWALK) // d) * d
        assert lanes and set(lanes) == {walks * -(-n // steps)}, (walks, n, d)


# A random binary labelling of the order-3 de Bruijn graph: 239 states, so a
# pass of 100,000 steps walks it a byte of symbols at a time (239 · 2^8 =
# 61,184 word arcs).
_ORDER3B = _labelling(3, 4, "ab")


def _closed_table(g) -> ArcTable:
    table = ArcTable(g, np.intp)
    table.close(exact_path_constant(g), 10**6)
    assert table.closed
    return table


@pytest.mark.parametrize("name, d", [("debruijn8", 4), ("xor4", 2), ("order3b", 8)])
def test_word_tables_take_d_steps(monkeypatch, name, d):
    """For every state and word, the word table of a 100,000-step pass
    holds the state that d single steps reach and, in bit i, the increment
    of step i; a word's first symbol is its top base-S digit. d is the
    largest power of two up to 8 whose table of states · S^d entries fits
    in the pass's steps, and at most _REWALK; it is 1, and the table is the
    symbol table, on a table that is not closed."""
    g = _ORDER3B if name == "order3b" else _walk_graph(name)
    table = _closed_table(g)
    words, got = sim._words(table, 100_000)
    assert got == d
    n, n_sym = len(table), len(g.alphabet)
    state = np.repeat(np.arange(n)[:, None], n_sym**d, axis=1)
    bits = np.zeros_like(state)
    for i in range(d):  # step i of every word from every state
        xi = np.arange(n_sym**d) // n_sym ** (d - 1 - i) % n_sym
        bits |= table.inc[state, xi].astype(np.intp) << i
        state = table.succ[state, xi]
    assert np.array_equal(words.succ, state)
    assert np.array_equal(words.inc, bits)
    assert sim._words(table, n * n_sym**d - 1)[1] == d // 2
    monkeypatch.setattr(sim, "_REWALK", 3)
    assert sim._words(table, 100_000)[1] == min(d, 2)
    fresh = ArcTable(g, np.intp)
    assert sim._words(fresh, 10**9) == (fresh, 1)


def _recorded_words(monkeypatch) -> list[int]:
    """The d of every pass that ``simulate`` walks from here on."""
    used = []
    words = sim._words

    def recorded(table, steps):
        out = words(table, steps)
        used.append(out[1])
        return out

    monkeypatch.setattr(sim, "_words", recorded)
    return used


@pytest.mark.parametrize("workers", [1, 2, 3, 7])
def test_word_walks_match_the_one_step_oracle(monkeypatch, workers):
    """Walks of d symbols a lockstep step give the increments of the walk
    one step at a time when the walk is not a whole number of words."""
    used = _recorded_words(monkeypatch)
    for g, n, d in ((debruijn8_demo(), 100_003, 4), (XOR4, 100_001, 2)):
        r = simulate(g, SourceModel.uniform(g.alphabet), n=n, seed=6, workers=workers)
        assert used.pop() == d and n % d
        assert (r.increments == walk_increments(g, n, 6, workers)).all(), (n, workers)


@pytest.mark.parametrize("n, workers, d", [(64, 20, 4), (300, 40, 8)])
def test_ranges_shorter_than_a_word(monkeypatch, selfloop_ab, n, workers, d):
    """A range shorter than one word is one lane of one word cut short, and
    gives the increments of the walk one step at a time. One state and two
    symbols close within a 64-step walk's budget: 64 steps take words of 4
    symbols and run as ranges of 4 and 3 steps at W = 20, 300 steps words
    of 8 and ranges of 8 and 7 at W = 40."""
    used = _recorded_words(monkeypatch)
    r = simulate(selfloop_ab, SourceModel.uniform(selfloop_ab.alphabet), n=n, seed=6, workers=workers)
    assert used == [d]
    assert min(hi - lo for lo, hi in _worker_ranges(n, workers)) < d
    assert (r.increments == walk_increments(selfloop_ab, n, 6, workers)).all()


@pytest.mark.parametrize("chunk", [1000, 1001])
@pytest.mark.parametrize("workers", [1, 2, 3, 7])
def test_word_walks_hand_on_their_true_end(monkeypatch, g3, chunk, workers):
    """With a chunk of 1,000 or 1,001 steps, each range of a 7,919-step
    walk spans several passes, walked in words of up to 8 symbols (2 on
    debruijn8 from two workers on). A chunk of 1,001 steps ends inside its
    last word, and the state it hands to the next pass is still the true
    one."""
    monkeypatch.setattr(sim, "_CHUNK", chunk)
    used = _recorded_words(monkeypatch)
    for g in (debruijn8_demo(), _ORDER3B, g3):
        r = simulate(g, SourceModel.uniform(g.alphabet), n=7919, seed=8, workers=workers)
        assert (r.increments == walk_increments(g, 7919, 8, workers)).all(), workers
    assert 8 in used and (workers == 1 or 2 in used)


@pytest.mark.parametrize("workers", [1, 2])
def test_word_walks_walk_unmet_lanes_alone(monkeypatch, workers):
    """On debruijn8 at seed 5, some lane does not meet its path within the
    re-walk's 16 words of 4 symbols, and is walked alone one symbol at a
    time; the increments are still those of the walk one step at a time."""
    used = _recorded_words(monkeypatch)
    calls = 0
    alone = sim._walk_alone

    def counted(*args):
        nonlocal calls
        calls += 1
        return alone(*args)

    monkeypatch.setattr(sim, "_walk_alone", counted)
    g = debruijn8_demo()
    for n in (100_000, 100_003):
        r = simulate(g, SourceModel.uniform(g.alphabet), n=n, seed=5, workers=workers)
        assert (r.increments == walk_increments(g, n, 5, workers)).all(), n
    assert used == [4, 4] and calls > 0
