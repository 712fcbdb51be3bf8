from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REPO_ROOT, random_code_graph
from oracles import chain_from_rows, tuple_arcs
from tcq import (
    ChainError,
    MarkovChain,
    SourceError,
    SourceModel,
    analyze,
    build_chain,
    closed_classes,
    decimal_string,
    distortion_rate,
    gap_report,
    encode,
    enumerate_states,
    graph_from_edges,
    stationary,
)

HALF = Fraction(1, 2)


class TestSourceModel:
    def test_uniform(self):
        src = SourceModel.uniform(("a", "b", "c", "d"))
        assert src.probabilities == (Fraction(1, 4),) * 4
        assert dict(zip(src.alphabet, src.probabilities))["c"] == Fraction(1, 4)

    def test_parse_uniform(self):
        assert SourceModel.parse("uniform", ("a", "b")) == SourceModel.uniform(("a", "b"))

    def test_parse_pairs_follow_alphabet_order(self):
        src = SourceModel.parse("b:1/3 , a:2/3", ("a", "b"))
        assert src.probabilities == (Fraction(2, 3), Fraction(1, 3))

    def test_parse_accepts_decimals(self):
        src = SourceModel.parse("a:0.25,b:0.75", ("a", "b"))
        assert src.probabilities == (Fraction(1, 4), Fraction(3, 4))

    @pytest.mark.parametrize(
        "spec,fragment",
        [
            ("a:1/2,z:1/2", "not in the graph alphabet"),
            ("a:1/2,a:1/2", "assigned twice"),
            ("a:1", "no probability given"),
            ("a:x,b:1/2", "bad probability"),
            ("a:1/2,b:1/3", "sum to"),
            ("a:3/2,b:-1/2", "negative"),
            ("a:1/2,,b:1/2", "empty entry"),
            ("a=1/2,b=1/2", "expected symbol:probability"),
        ],
    )
    def test_parse_errors(self, spec, fragment):
        with pytest.raises(SourceError, match=fragment):
            SourceModel.parse(spec, ("a", "b"))

    def test_direct_validation(self):
        with pytest.raises(SourceError, match="one probability per symbol"):
            SourceModel(("a", "b"), (Fraction(1),))
        with pytest.raises(SourceError, match="duplicate symbol"):
            SourceModel(("a", "a"), (HALF, HALF))


def test_build_chain_g3(g3):
    ss = enumerate_states(g3)
    mc = build_chain(ss, SourceModel.uniform(g3.alphabet))
    assert mc.rows == ({0: HALF, 1: HALF}, {0: Fraction(1)})
    assert mc.absorb == (Fraction(0), HALF)


def test_build_chain_rejects_alphabet_mismatch(g3):
    ss = enumerate_states(g3)
    with pytest.raises(SourceError, match="does not match"):
        build_chain(ss, SourceModel.uniform(("x", "y")))


def test_zero_probability_symbols_drop_out(g3):
    ss = enumerate_states(g3)
    mc = build_chain(ss, SourceModel(("a", "b"), (Fraction(1), Fraction(0))))
    assert mc.rows == ({0: Fraction(1)}, {0: Fraction(1)})
    assert mc.absorb == (Fraction(0), Fraction(0))


def test_closed_classes_g3(g3):
    mc = build_chain(enumerate_states(g3), SourceModel.uniform(g3.alphabet))
    part = closed_classes(mc)
    assert part.closed == ((0, 1),)
    assert part.transient == ()


def test_closed_classes_disconnected_identity():
    mc = chain_from_rows(({0: Fraction(1)}, {1: Fraction(1)}), (Fraction(0), Fraction(1)))
    part = closed_classes(mc)
    assert sorted(part.closed) == [(0,), (1,)]
    assert part.transient == ()
    sd = stationary(mc)
    # started from state 0, the walk never leaves it
    assert sd.q == (Fraction(1), Fraction(0))
    assert not sd.unique
    assert distortion_rate(mc, sd) == 0


def test_multiple_closed_classes_mixture():
    # state 0 transient, absorbed into {1} w.p. 1/3 and {2} w.p. 2/3
    mc = chain_from_rows(
        ({1: Fraction(1, 3), 2: Fraction(2, 3)}, {1: Fraction(1)}, {2: Fraction(1)}),
        (Fraction(0), Fraction(0), Fraction(1)),
    )
    sd = stationary(mc)
    assert sd.q == (Fraction(0), Fraction(1, 3), Fraction(2, 3))
    assert not sd.unique
    assert sd.classes.transient == (0,)
    assert distortion_rate(mc, sd) == Fraction(2, 3)


def test_two_step_absorption():
    # 0 -> 1 -> {2 or 3}; absorption probabilities pass through transient 1
    mc = chain_from_rows(
        ({1: Fraction(1)}, {2: HALF, 3: HALF}, {2: Fraction(1)}, {3: Fraction(1)}),
        (Fraction(0),) * 3 + (Fraction(1),),
    )
    sd = stationary(mc)
    assert sd.q == (0, 0, HALF, HALF)
    assert distortion_rate(mc, sd) == HALF


def test_stationary_g3_exact(g3):
    ss = enumerate_states(g3)
    mc = build_chain(ss, SourceModel.uniform(g3.alphabet))
    sd = stationary(mc)
    assert sd.q == (Fraction(2, 3), Fraction(1, 3))
    assert sd.unique
    d = distortion_rate(mc, sd)
    assert d == Fraction(1, 6)
    assert (d.numerator, d.denominator) == (1, 6)


def test_float_and_int_probabilities(g3):
    # build_chain reads each probability through Fraction(p)
    assert analyze(g3, SourceModel(g3.alphabet, (0.5, 0.5))).distortion == Fraction(1, 6)
    assert analyze(g3, SourceModel(g3.alphabet, (1, 0))).distortion == 0


@settings(max_examples=40)
@given(st.integers(0, 10**9))
def test_stationary_solves_balance_exactly(seed):
    rng = random.Random(seed)
    g = random_code_graph(rng)
    m = len(g.alphabet)
    # random rational source with full support
    cuts = sorted(rng.randint(1, 19) for _ in range(m - 1))
    weights = [b - a for a, b in zip([0] + cuts, cuts + [20])]
    src = SourceModel(g.alphabet, tuple(Fraction(w, 20) for w in weights))
    mc = build_chain(enumerate_states(g, max_states=50_000), src)
    sd = stationary(mc)
    assert sum(sd.q) == 1
    assert all(qi >= 0 for qi in sd.q)
    # inflow to every state, accumulated over the sparse rows
    inflow = [Fraction(0)] * mc.size
    for i, row in enumerate(mc.rows):
        for j, p in row.items():
            inflow[j] += sd.q[i] * p
    assert inflow == list(sd.q)


@given(st.integers(0, 10**9))
@settings(max_examples=20)
def test_symbol_relabelling_invariance(seed):
    rng = random.Random(seed)
    g = random_code_graph(rng)
    perm = list(g.alphabet)
    rng.shuffle(perm)
    relabel = dict(zip(g.alphabet, perm))
    g2 = graph_from_edges(
        [(e.src, e.dst, relabel[e.label]) for e in g.edges], g.alphabet
    )
    m = len(g.alphabet)
    cuts = sorted(rng.randint(1, 11) for _ in range(m - 1))
    weights = [b - a for a, b in zip([0] + cuts, cuts + [12])]
    src = SourceModel(g.alphabet, tuple(Fraction(w, 12) for w in weights))
    inv = {v: k for k, v in relabel.items()}
    prob = dict(zip(src.alphabet, src.probabilities))
    src2 = SourceModel(g.alphabet, tuple(prob[inv[s]] for s in g.alphabet))
    # pushing the relabelling through the source leaves the distortion alone
    assert analyze(g, src).distortion == analyze(g2, src2).distortion


def _exhaustive_expected_min(g, src, n) -> Fraction:
    """Sum over all length-n sequences of P(seq) * optimal distortion."""
    total = Fraction(0)
    prob = dict(zip(src.alphabet, src.probabilities))
    for xs in product(g.alphabet, repeat=n):
        p = Fraction(1)
        for x in xs:
            p *= prob[x]
        if p:
            total += p * encode(g, xs).total_distortion
    return total


def _evolved_expected_increments(mc, n) -> Fraction:
    """Same expectation, via exact evolution of the state distribution."""
    dist = {0: Fraction(1)}
    total = Fraction(0)
    for _ in range(n):
        nxt: dict[int, Fraction] = {}
        for si, w in dist.items():
            total += w * mc.absorb[si]
            for ti, p in mc.rows[si].items():
                nxt[ti] = nxt.get(ti, Fraction(0)) + w * p
        dist = nxt
    return total


@pytest.mark.parametrize("n", [1, 2, 3, 6, 12])
def test_finite_horizon_expectation_matches_evolution(g3, n):
    src = SourceModel.uniform(g3.alphabet)
    mc = build_chain(enumerate_states(g3), src)
    assert _exhaustive_expected_min(g3, src, n) == _evolved_expected_increments(mc, n)


def test_finite_horizon_expectation_approaches_rate(g3):
    src = SourceModel.uniform(g3.alphabet)
    d = analyze(g3, src).distortion
    for n in (6, 12):
        en = _exhaustive_expected_min(g3, src, n)
        assert abs(en / n - d) <= Fraction(2, 100)


def test_decimal_string():
    assert decimal_string(Fraction(452, 1809)) == "0.2498618021"
    assert decimal_string(Fraction(1, 6)) == "0.1666666667"
    assert decimal_string(Fraction(1, 3)) == "0.3333333333"
    assert decimal_string(Fraction(2, 3)) == "0.6666666667"
    assert decimal_string(Fraction(0)) == "0.0000000000"
    assert decimal_string(Fraction(1, 2)) == "0.5000000000"
    # round-half-up at the last kept digit
    assert decimal_string(Fraction(5, 10**11)) == "0.0000000001"
    assert decimal_string(Fraction(1, 8), places=2) == "0.13"


def test_analyze_report_fields(debruijn8):
    r = analyze(debruijn8)
    assert r.state_count == 107
    assert r.k == 3
    assert r.class_count == 1
    assert r.unique
    assert r.distortion == Fraction(452, 1809)
    assert r.distortion_decimal == "0.2498618021"
    assert (r.rate.out_degree, r.rate.rate) == (2, 1)
    assert r.rd_point is None


def test_analyze_with_rd(g3):
    r = analyze(g3, with_rd=True)
    # binary uniform source at one bit per step is lossless
    assert r.rd_point is not None
    assert abs(r.rd_point.rate - 1.0) < 1e-9
    assert r.rd_point.distortion == 0.0
    assert abs(gap_report(r, r.rd_point).gap - 1 / 6) < 1e-12


def test_chain_invariants_raise():
    """The table's checks, on chains built from Fraction rows."""
    with pytest.raises(ChainError, match="row 0 is not positive entries summing to 1"):
        chain_from_rows(({0: HALF},), (Fraction(0),))
    with pytest.raises(ChainError, match="row 0 is not positive"):
        chain_from_rows(({0: Fraction(2), 1: Fraction(-1)},), (HALF,))
    with pytest.raises(ChainError, match="one row and one increment mass"):
        chain_from_rows(({0: Fraction(1)},), (Fraction(0),) * 2)
    # successors outside the states: -1 would index the last state from the end
    with pytest.raises(ChainError, match="row 0 names state -1, outside the 1 states"):
        chain_from_rows(({-1: Fraction(1)},), (Fraction(0),))
    with pytest.raises(ChainError, match="row 1 names state 5, outside the 2 states"):
        chain_from_rows(({0: Fraction(1)}, {5: Fraction(1)}), (Fraction(0),) * 2)
    with pytest.raises(ChainError, match="a chain needs at least one state"):
        chain_from_rows((), ())


def _table(size, succ, num, absorb_num=None, indptr=None):
    """``MarkovChain`` over scale 1, one entry per row by default."""
    return MarkovChain(
        size,
        1,
        np.arange(len(succ) + 1) if indptr is None else np.array(indptr),
        np.array(succ, dtype=np.intp),
        np.array(num, dtype=np.int64),
        np.zeros(size, dtype=np.int64) if absorb_num is None else np.array(absorb_num),
    )


def test_table_invariants_raise():
    with pytest.raises(ChainError, match="row 0 names state -1, outside the 1 states"):
        _table(1, [-1], [1])
    with pytest.raises(ChainError, match="row 1 names state 2, outside the 2 states"):
        _table(2, [0, 2], [1, 1])
    with pytest.raises(ChainError, match="a chain needs at least one state"):
        _table(0, [], [])
    with pytest.raises(ChainError, match="row 1 is not positive entries summing to 1"):
        _table(2, [0, 1, 1], [1, 2, -1], indptr=[0, 1, 3])
    with pytest.raises(ChainError, match="row 1 is not positive entries summing to 1"):
        _table(3, [0, 2], [1, 1], indptr=[0, 1, 1, 2])  # an empty row
    with pytest.raises(ChainError, match="one row and one increment mass"):
        _table(2, [0, 0], [1, 1], absorb_num=[0])
    mc = _table(2, [1, 0], [1, 1], absorb_num=[0, 1])
    assert (mc.rows, mc.absorb) == (({1: Fraction(1)}, {0: Fraction(1)}), (0, 1))


def test_row_check_is_exact_on_shared_entries():
    """A row that differs from a valid one in one entry, by however little,
    is refused."""
    third = Fraction(1, 3)
    good = {0: third, 1: 2 * third}
    tiny = Fraction(1, 10**40)
    for bad in ({0: third, 1: 2 * third + tiny}, {0: third, 1: good[1], 2: Fraction(0)}):
        with pytest.raises(ChainError, match="row 2 is not positive"):
            chain_from_rows((good, dict(good), bad), (third,) * 3)
    chain_from_rows((good, dict(good), {2: Fraction(1)}), (third,) * 3)


@pytest.mark.parametrize("seed", range(8))
def test_build_chain_matches_arc_by_arc_sums(seed):
    """Rows and increment masses equal the plain sums over the arcs."""
    rng = random.Random(seed)
    g = random_code_graph(rng, max_vertices=5, max_symbols=4)
    weights = [rng.choice([0, 1, 2, 7]) for _ in g.alphabet]
    weights[0] += 1
    src = SourceModel(g.alphabet, tuple(Fraction(w, sum(weights)) for w in weights))
    ss = enumerate_states(g)
    rows, absorb = [], []
    for arc_row in tuple_arcs(ss):
        row, mass = {}, Fraction(0)
        for (ti, inc), p in zip(arc_row, src.probabilities):
            if p:
                row[ti] = row.get(ti, Fraction(0)) + p
                mass += inc * p
        rows.append(row)
        absorb.append(mass)
    mc = build_chain(ss, src)
    assert mc.rows == tuple(rows)
    assert mc.absorb == tuple(absorb)


def test_chain_invariants_survive_optimized_mode():
    """The chain checks are raises, not asserts: they hold under python -O."""
    code = (
        "import numpy as np\n"
        "from tcq import ChainError, MarkovChain\n"
        "ints = lambda *v: np.array(v, dtype=np.int64)\n"
        "for make in (\n"
        "    lambda: MarkovChain(1, 2, ints(0, 1), ints(0), ints(1), ints(0)),\n"
        "    lambda: MarkovChain(1, 1, ints(0, 1), ints(-1), ints(1), ints(0)),\n"
        "    lambda: MarkovChain(1, 1, ints(0, 1), ints(5), ints(1), ints(0)),\n"
        "    lambda: MarkovChain(0, 1, ints(0), ints(), ints(), ints()),\n"
        "    lambda: MarkovChain(2, 1, ints(0, 1, 2), ints(0, 0), ints(1, 1), ints(0)),\n"
        "):\n"
        "    try:\n"
        "        make()\n"
        "    except ChainError as exc:\n"
        "        print(exc.stage, exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "chain row 0 is not positive entries summing to 1",
        "chain row 0 names state -1, outside the 1 states",
        "chain row 0 names state 5, outside the 1 states",
        "chain a chain needs at least one state",
        "chain need one row and one increment mass per state",
    ]
