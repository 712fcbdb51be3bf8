"""The exact chain solver against the Bareiss and modular Dixon oracles, a
float solve, and systems built to be hard for it."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import frexp, gcd, isqrt, lcm

import numpy as np
import pytest

from conftest import REPO_ROOT, random_code_graph
from oracles import bareiss_stationary, chain_from_rows, dixon_solve, solve_integer
from tcq import (
    ChainError,
    MarkovChain,
    SourceModel,
    build_chain,
    closed_classes,
    de_bruijn,
    debruijn8_demo,
    enumerate_states,
    stationary,
)
from tcq import chain, cli


def _random_source(rng: random.Random, alphabet: tuple[str, ...]) -> SourceModel:
    cuts = sorted(rng.randint(1, 29) for _ in range(len(alphabet) - 1))
    weights = [b - a for a, b in zip([0] + cuts, cuts + [30])]
    return SourceModel(alphabet, tuple(Fraction(w, 30) for w in weights))


def _random_multiclass_chain(rng: random.Random) -> MarkovChain:
    """Transient states 0..t-1 draining into 2 or 3 closed classes."""
    t = rng.randint(2, 6)
    sizes = [rng.randint(1, 4) for _ in range(rng.randint(2, 3))]
    starts = [t + sum(sizes[:c]) for c in range(len(sizes))]
    n = t + sum(sizes)

    def law(targets: list[int]) -> dict[int, Fraction]:
        w = [rng.randint(1, 7) for _ in targets]
        out: dict[int, Fraction] = {}
        for s, wi in zip(targets, w):
            out[s] = out.get(s, Fraction(0)) + Fraction(wi, sum(w))
        return out

    rows = []
    for i in range(t):
        targets = [rng.randrange(n) for _ in range(3)] + [starts[i % len(sizes)]]
        rows.append(law(targets))
    for start, size in zip(starts, sizes):
        for k in range(size):
            ring = start + (k + 1) % size  # keeps the class irreducible
            rows.append(law([ring] + [start + rng.randrange(size) for _ in range(2)]))
    absorb = tuple(Fraction(rng.randint(0, 3), 3) for _ in range(n))
    return chain_from_rows(tuple(rows), absorb)


def _recurrent_start_chain() -> MarkovChain:
    """State 0 in the closed class {0, 3}; the transient states 1 and 4,
    which 0 cannot reach, drain into it and into the closed class {2, 5}."""
    rows = (
        {0: Fraction(1, 2), 3: Fraction(1, 2)},
        {4: Fraction(1, 3), 2: Fraction(1, 3), 0: Fraction(1, 3)},
        {5: Fraction(3, 4), 2: Fraction(1, 4)},
        {0: Fraction(2, 5), 3: Fraction(3, 5)},
        {1: Fraction(1, 2), 5: Fraction(1, 2)},
        {2: Fraction(1)},
    )
    absorb = tuple(Fraction(k, 6) for k in (0, 3, 6, 2, 0, 4))
    return chain_from_rows(rows, absorb)


def _partly_reached_chain() -> MarkovChain:
    """State 0 transient and draining, through the transient state 2, into
    the closed classes {1} and {3, 4}; the transient state 5, which 0
    cannot reach, drains into 0 and into a third closed class {6, 7}."""
    rows = (
        {0: Fraction(1, 3), 1: Fraction(1, 3), 2: Fraction(1, 3)},
        {1: Fraction(1)},
        {0: Fraction(1, 4), 2: Fraction(1, 4), 3: Fraction(1, 2)},
        {3: Fraction(1, 3), 4: Fraction(2, 3)},
        {3: Fraction(1)},
        {0: Fraction(1, 2), 6: Fraction(1, 2)},
        {6: Fraction(1, 5), 7: Fraction(4, 5)},
        {6: Fraction(1)},
    )
    absorb = tuple(Fraction(k, 4) for k in (1, 0, 2, 3, 4, 1, 2, 0))
    return chain_from_rows(rows, absorb)


def _uniform_chain(g) -> MarkovChain:
    return build_chain(enumerate_states(g), SourceModel.uniform(g.alphabet))


def _one_symbol_chain(g, symbol: str) -> MarkovChain:
    """The chain under a source that only ever emits ``symbol``: a real
    graph whose chain splits into several closed classes."""
    src = SourceModel(g.alphabet, tuple(Fraction(x == symbol) for x in g.alphabet))
    return build_chain(enumerate_states(g), src)


def _reached(mc: MarkovChain) -> set[int]:
    seen, todo = {0}, [0]
    while todo:
        for t in mc.rows[todo.pop()]:
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return seen


def _corpus() -> list[tuple[str, MarkovChain]]:
    rng = random.Random(20240613)
    out = []
    while len(out) < 8:
        g = random_code_graph(rng)
        mc = build_chain(enumerate_states(g), _random_source(rng, g.alphabet))
        if mc.size >= 3:
            out.append((f"random-{len(out)}", mc))
    for i in range(2):
        out.append((f"multiclass-{i}", _random_multiclass_chain(rng)))
    out.append(("recurrent-start-multiclass", _recurrent_start_chain()))
    out.append(("transient-start-partly-reached", _partly_reached_chain()))
    # zero-probability symbols split real graphs' chains: debruijn8 under "c"
    # alone has four closed classes, of which state 0 (transient) reaches
    # one; this order-3 labelling under "a" alone has two, one holding 0
    out.append(("debruijn8-only-c", _one_symbol_chain(debruijn8_demo(), "c")))
    g = de_bruijn(3, tuple("dabcbbbbcbbcabbd"))
    out.append(("debruijn3-dabcbbbbcbbcabbd-only-a", _one_symbol_chain(g, "a")))
    # order-3 de Bruijn labellings whose closed class has 117 and 144 states
    for labels in ("bbcdaadcbbdddbbb", "ccdaaaccdccbcbcc"):
        out.append((f"debruijn3-{labels}", _uniform_chain(de_bruijn(3, tuple(labels)))))
    return out


def _float_stationary(mc: MarkovChain) -> np.ndarray:
    """The same balance and absorption systems, solved in floating point."""
    classes = closed_classes(mc)
    weights = [float(0 in comp) for comp in classes.closed]
    if not any(weights):
        trans = classes.transient
        pos = {s: i for i, s in enumerate(trans)}
        a = np.eye(len(trans))
        r = np.zeros((len(trans), len(classes.closed)))
        owner = {s: c for c, comp in enumerate(classes.closed) for s in comp}
        for i, s in enumerate(trans):
            for target, p in mc.rows[s].items():
                if target in pos:
                    a[i, pos[target]] -= float(p)
                else:
                    r[i, owner[target]] += float(p)
        weights = list(np.linalg.solve(a, r)[pos[0]])
    q = np.zeros(mc.size)
    for w, comp in zip(weights, classes.closed):
        local = {s: i for i, s in enumerate(comp)}
        m = len(comp)
        a = np.zeros((m, m))
        for i, s in enumerate(comp):
            for target, p in mc.rows[s].items():
                a[local[target], i] += float(p)
        a -= np.eye(m)
        a[m - 1] = 1.0  # normalization replaces the last balance equation
        b = np.zeros(m)
        b[m - 1] = 1.0
        q[list(comp)] += w * np.linalg.solve(a, b)
    return q


def _balanced(mc: MarkovChain, q: tuple[Fraction, ...], members) -> bool:
    flow = {j: Fraction(0) for j in members}
    for i in members:
        for j, p in mc.rows[i].items():
            flow[j] += q[i] * p
    return all(flow[j] == q[j] for j in members)


@pytest.mark.parametrize("mc", [pytest.param(mc, id=name) for name, mc in _corpus()])
def test_stationary_matches_bareiss_and_float(mc):
    sd = stationary(mc)
    assert sd.q == bareiss_stationary(mc)
    assert np.max(np.abs(np.array([float(x) for x in sd.q]) - _float_stationary(mc))) < 1e-9
    assert sum(sd.q) == 1
    for comp in sd.classes.closed:
        assert _balanced(mc, sd.q, comp)


@pytest.mark.parametrize("mc", [pytest.param(mc, id=name) for name, mc in _corpus()])
def test_stationary_matches_modular_dixon(monkeypatch, mc):
    """The same integer system, solved by the modular p-adic oracle."""
    expected = stationary(mc).q

    def dixon(a, b):
        d, (nums,) = dixon_solve(a, [b])
        n = len(b)
        return d, nums, chain.SolveStats(n, n, 0, 0, 0.0, 0, len(a[1]), "int")

    monkeypatch.setattr(chain, "_solve_exact", dixon)
    assert stationary(mc).q == expected


def test_solve_stats_describe_each_solve(debruijn8):
    mc = _uniform_chain(debruijn8)
    sd = stationary(mc)
    stats = sd.solve
    assert stats.dim == len(sd.classes.closed[0]) == 106
    assert stats.lifts == 1  # certified by the first reconstruction
    # the cap alone sets K: 2**K times the largest entry stays below 2**52
    assert stats.bits_per_lift == 52 - frexp(float(max(sd.q)))[1]
    assert 0 <= stats.float_gap < 1e-12  # the first float solve was this close
    assert stats.denominator_digits == len(str(lcm(*(x.denominator for x in sd.q))))
    # one entry per balance (target, source) pair and diagonal, and a full normalization row
    members = sd.classes.closed[0]
    local = {s: i for i, s in enumerate(members)}
    last = len(members) - 1
    entries = {(local[t], local[s]) for s in members for t in mc.rows[s] if local[t] < last}
    assert stats.nnz == len(entries | {(j, j) for j in range(last)}) + len(members)
    assert stats.residual == "int64"
    # the stats ride along without taking part in equality
    assert sd == chain.StationaryDistribution(sd.numerators, sd.denominator, sd.classes, sd.unique)
    assert stats.unreduced_dim == stats.dim  # no state has a single predecessor
    # from a transient state 0 that reaches several closed classes: one solve
    # over the transient visits and class balances and masses of what 0
    # reaches, less the states censoring eliminates
    for mc, dim in ((_random_multiclass_chain(random.Random(5)), 6), (_partly_reached_chain(), 4)):
        sd = stationary(mc)
        assert sd.solve.unreduced_dim == len(_reached(mc))
        assert sd.solve.dim == dim
        assert sd.solve.residual == "int64"
    # state 4's one predecessor is 3: it leaves the 5 unknowns
    assert sd.solve.unreduced_dim == 5 and sd.q[5:] == (0, 0, 0)
    # from a recurrent state 0 the one solve is its class, and none of the
    # mass reaches the other class; both states have self-loops
    sd = stationary(_recurrent_start_chain())
    assert sd.solve.dim == sd.solve.unreduced_dim == 2
    assert [sd.q[s] for s in (2, 5)] == [0, 0] and sd.q[0] + sd.q[3] == 1
    # a real graph split by a zero-probability symbol: the one reached class,
    # a 4-cycle, solved as its one kept member
    sd = stationary(_one_symbol_chain(debruijn8_demo(), "c"))
    assert len(sd.classes.closed) == 4 and sd.solve.unreduced_dim == 4 and sd.solve.dim == 1


# (unreduced_dim, dim, lifts, bits_per_lift, denominator_digits, nnz,
# residual) of the one system of each order-3 pool graph of
# perfbench/corpus.json: unreduced_dim is the class size, and the rest
# describe the censored system that is solved.
ORDER3_SYSTEMS = [
    ("caacdacdcbddcaaa", (228, 174, 8, 48, 61, 1191, "int64")),
    ("accacbcdadcbcbbb", (229, 191, 7, 47, 48, 1251, "int64")),
    ("cadddcbbdcabbccc", (229, 169, 7, 47, 53, 1177, "int64")),
    ("accbdbcbdccddacc", (222, 179, 10, 46, 61, 1191, "int64")),
    ("aabcbccccdbdbaba", (221, 174, 8, 46, 56, 1163, "int64")),
    ("cddabbaabacbdaaa", (230, 192, 7, 47, 48, 1249, "int64")),
    ("bcaabcacbddbddbb", (221, 158, 8, 47, 60, 1082, "int64")),
    ("aaabbdbadccdbbcc", (224, 170, 8, 47, 59, 1169, "int64")),
    ("dabcbbbbcbbcabbd", (223, 180, 6, 48, 44, 1163, "int64")),
    ("bdcddbbdbbbacbbd", (225, 172, 7, 47, 46, 1178, "int64")),
    ("accadcccaaacddcb", (226, 156, 8, 47, 61, 1126, "int64")),
    ("dcacaddbacbbadaa", (225, 177, 7, 48, 48, 1192, "int64")),
    ("ddcdddbbdabadaba", (230, 152, 12, 47, 77, 1133, "int64")),
]


@pytest.mark.parametrize(
    "labels,expected",
    # debruijn8 has no single-predecessor state: censoring leaves its system as it is
    [pytest.param("debruijn8", (106, 106, 1, 57, 4, 611, "int64"), id="debruijn8")]
    + [pytest.param(labels, stats, id=labels) for labels, stats in ORDER3_SYSTEMS],
)
def test_the_integer_system_is_unchanged(labels, expected):
    g = debruijn8_demo() if labels == "debruijn8" else de_bruijn(3, tuple(labels))
    s = stationary(_uniform_chain(g)).solve
    assert (
        s.unreduced_dim,
        s.dim,
        s.lifts,
        s.bits_per_lift,
        s.denominator_digits,
        s.nnz,
        s.residual,
    ) == expected


def _weighted_chain(rows: list[dict[int, int]]) -> MarkovChain:
    """The chain whose row i sends weight w to state j, over the row's sum."""
    rows = tuple({j: Fraction(w, sum(row.values())) for j, w in row.items()} for row in rows)
    absorb = tuple(Fraction(s % 2) for s in range(len(rows)))
    return chain_from_rows(rows, absorb)


def _tailed_chain(rng: random.Random, hubs: int) -> MarkovChain:
    """``hubs`` states with self-loops on a ring, so that each of them
    stays in the solve. From each hub, a tail of 3 to 6 states of one
    predecessor each runs back to a random hub, each tail state also
    returning to its hub, and two branches of one state each meet again at
    a state that only a second round of censoring eliminates, once both
    branches have folded into the hub."""
    rows: list[dict[int, int]] = [
        {h: rng.randint(1, 5), (h + 1) % hubs: rng.randint(1, 5)} for h in range(hubs)
    ]

    def add(row: dict[int, int]) -> int:
        rows.append(row)
        return len(rows) - 1

    for h in range(hubs):
        prev = h
        for _ in range(rng.randint(3, 6)):
            rows[prev][len(rows)] = rng.randint(1, 5)
            prev = add({h: rng.randint(1, 5)})
        rows[prev][rng.randrange(hubs)] = 1
        meet = add({rng.randrange(hubs): 1})
        for _ in range(2):
            rows[h][add({meet: 1})] = rng.randint(1, 5)
    return _weighted_chain(rows)


def _draining_chain() -> MarkovChain:
    """State 0 transient, with state 2 its one predecessor, reaching three
    closed classes: {4, 5}, where 4's one predecessor is 5; {6}; and the
    pure cycle 7-8-9. The transient states 1 and 2 have one predecessor
    each (0 and 1), and 3 has a self-loop."""
    return _weighted_chain(
        [
            {1: 1, 4: 1},
            {2: 1},
            {0: 1, 3: 1, 6: 1},
            {3: 1, 7: 1},
            {5: 1},
            {4: 1, 5: 1},
            {6: 1},
            {8: 1},
            {9: 1},
            {7: 1},
        ]
    )


def _censoring(mc: MarkovChain) -> tuple:
    """stationary(mc) and the (root, coef, power) that censoring returned."""
    folds = []
    censor = chain._censor

    def recording(*args):
        folds.append(censor(*args))
        return folds[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chain, "_censor", recording)
        sd = stationary(mc)
    (fold,) = folds
    return sd, fold


def test_an_uncensored_chain_takes_the_one_path(debruijn8):
    """debruijn8 has no single-predecessor state: censoring returns the
    identity, and the law is still back-substituted and certified once on
    the original chain's equations."""
    mc = _uniform_chain(debruijn8)
    certified = []
    certify = chain._certify

    def recording(*args):
        certified.append(args)
        return certify(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chain, "_certify", recording)
        stationary(mc)
    assert len(certified) == 1
    sd, (root, coef, power) = _censoring(mc)
    assert root.tolist() == list(range(mc.size))
    assert set(coef.tolist()) == {1} and not power.any()
    assert sd.solve.dim == sd.solve.unreduced_dim == 106
    assert sd.q == bareiss_stationary(mc)
    # the certificate is a real check here too: one share off by one fails it
    back_substitute, member = chain._back_substitute, sd.classes.closed[0][0]

    def corrupt(*args):
        x, d = back_substitute(*args)
        x[member] += 1
        return x, d

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chain, "_back_substitute", corrupt)
        with pytest.raises(ChainError, match="fails the original chain's balance equation"):
            stationary(mc)


@pytest.mark.parametrize(
    "mc,dim",
    [
        # a pure cycle keeps one member, whose mass row reads 5 x = 1
        pytest.param(_weighted_chain([{(s + 1) % 5: 1} for s in range(5)]), 1, id="pure-5-cycle"),
        pytest.param(_draining_chain(), 5, id="transient-start-three-classes"),
        # a zero-probability symbol leaves debruijn8 a reached 4-cycle
        pytest.param(_one_symbol_chain(debruijn8_demo(), "c"), 1, id="debruijn8-only-c"),
        pytest.param(
            _one_symbol_chain(de_bruijn(3, tuple("dabcbbbbcbbcabbd")), "a"),
            1,
            id="debruijn3-only-a",
        ),
    ]
    + [
        pytest.param(_tailed_chain(random.Random(seed), hubs), hubs, id=f"tails-{hubs}-hubs-{seed}")
        for seed, hubs in ((1, 1), (2, 2), (3, 3), (4, 4), (5, 6))
    ],
)
def test_censoring_matches_bareiss(mc, dim):
    sd, fold = _censoring(mc)
    assert sd.q == bareiss_stationary(mc)
    assert sd.solve.dim == dim < sd.solve.unreduced_dim
    root, coef, power = fold
    assert all(0 < c <= mc.scale**p for c, p in zip(coef.tolist(), power.tolist()))


def test_censoring_reaches_depth_3_and_a_second_round():
    mc = _tailed_chain(random.Random(3), 3)
    sd, (root, coef, power) = _censoring(mc)
    assert int(power.max()) >= 3  # a tail state 3 or more steps below its hub
    preds = [{i for i in range(mc.size) if s in mc.rows[i]} for s in range(mc.size)]
    meets = [s for s, p in enumerate(preds) if len(p) == 2 and all(len(preds[i]) == 1 for i in p)]
    assert len(meets) == 3 and all(root[s] < 3 for s in meets)  # each folded into a hub


def test_probability_one_arcs_add_no_power():
    """State 0 stays put with probability p, else it starts a path of 2,000
    states with one successor each back to 0, under a 65-bit scale. The
    path's shares all equal (1 - p) times 0's: the path adds no power of
    the scale, so no share grows with the path's length."""
    big = 2**64 + 13
    p, n = Fraction(big // 3, big), 2000
    rows = [{0: p, 1: 1 - p}] + [{k + 1: Fraction(1)} for k in range(1, n - 1)] + [{0: Fraction(1)}]
    mc = chain_from_rows(tuple(rows), (Fraction(0),) * n)
    sd, (root, coef, power) = _censoring(mc)
    assert (sd.solve.unreduced_dim, sd.solve.dim) == (n, 1)
    assert int(power.max()) == 1
    first = 1 / (1 + (n - 1) * (1 - p))
    assert sd.q == (first,) + ((1 - p) * first,) * (n - 1)


def test_censoring_never_folds_a_transient_state_0():
    mc = _draining_chain()
    sd, (root, coef, power) = _censoring(mc)
    assert root.tolist()[:4] == [0, 0, 0, 3]  # 1 and 2 fold into 0, which stays
    assert root[4] == 5 and root[6] == 6
    assert len({root[s] for s in (7, 8, 9)}) == 1  # one member of the cycle stays
    assert sd.q[:4] == (0, 0, 0, 0) and sum(sd.q) == 1


def test_the_random_corpus_is_censored():
    censored = {name for name, mc in _corpus() if (s := stationary(mc).solve).dim < s.unreduced_dim}
    assert {f"random-{k}" for k in range(8)} <= censored
    assert "recurrent-start-multiclass" not in censored  # both its states have self-loops


def test_a_corrupted_back_substituted_share_raises_in_optimized_mode():
    """State 0 has a self-loop; 1, 2 and 3 follow it round a cycle, one
    predecessor each, and fold into it. Corrupting 3's share after the
    back-substitution must fail the original chain's balance equations,
    first that of state 0, which 3 feeds."""
    code = (
        "from fractions import Fraction\n"
        "import numpy as np\n"
        "from tcq import ChainError, MarkovChain, stationary\n"
        "from tcq import chain\n"
        "real = chain._back_substitute\n"
        "def corrupt(*args):\n"
        "    x, d = real(*args)\n"
        "    x[3] += 1\n"
        "    return x, d\n"
        "ints = lambda *v: np.array(v, dtype=np.int64)\n"
        "# 0 -> {0, 1} with 1/2 each, then 1 -> 2 -> 3 -> 0, over scale 2\n"
        "indptr, succ = ints(0, 2, 3, 4, 5), ints(0, 1, 2, 3, 0)\n"
        "mc = MarkovChain(4, 2, indptr, succ, ints(1, 1, 2, 2, 2), ints(0, 0, 0, 0))\n"
        "print(stationary(mc).q == (Fraction(2, 5),) + (Fraction(1, 5),) * 3)\n"
        "chain._back_substitute = corrupt\n"
        "try:\n"
        "    stationary(mc)\n"
        "except ChainError as exc:\n"
        "    print(exc.stage, exc)\n"
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
        "True",
        "chain the back-substituted law fails the original chain's balance equation of state 0",
    ]


def _csr(rows: list[list[int]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    entries = [[(j, v) for j, v in enumerate(row) if v] for row in rows]
    return (
        np.cumsum([0] + [len(e) for e in entries]),
        np.array([j for e in entries for j, _ in e]),
        np.array([v for e in entries for _, v in e], dtype=object),
    )


@pytest.mark.parametrize(
    "rows,b,residual",
    [
        # short rows with a wide entry: the row sums stay below 2**34
        pytest.param([[2**25, 3, 0], [1, 2, 1], [0, 1, 5]], [1, 0, 2], "int64", id="2^25-entry"),
        # the entry's square passes 2**63: Hadamard's bound needs Python integers
        pytest.param([[2**33, 3, 0], [1, 2, 1], [0, 1, 5]], [1, 0, 2], "int64", id="2^33-entry"),
        # squares of 2**64 that would wrap to 0, on a system that needs the whole bound
        pytest.param(
            [[2**32, 1, 0, 0], [0, 2**32, 1, 0], [0, 0, 2**32, 1], [1, 0, 0, 2**32]],
            [1, 0, 0, 0],
            "int64",
            id="2^32-entry-per-row",
        ),
        pytest.param(
            [[2**33, 2**33, 1], [1, 2, 1], [0, 1, 5]], [1, 0, 2], "int", id="row-sum-2^34"
        ),
        pytest.param([[7, 3, 0], [1, 2, 1], [0, 1, 5]], [2**34, 0, 2], "int", id="rhs-2^34"),
    ],
)
def test_int64_residual_is_chosen_by_row_sums(rows, b, residual):
    d, nums, stats = chain._solve_exact(_csr(rows), b)
    assert stats.residual == residual
    assert [Fraction(v, d) for v in nums] == solve_integer([row + [r] for row, r in zip(rows, b)])


def test_states_that_state_0_cannot_reach_stay_out_of_the_solve():
    """State 0 alone is a closed class, and so is state 1; 20,000 more
    transient states drain into both. The solve has one unknown, far below
    the dense factor's cap of 16,384."""
    half = Fraction(1, 2)
    rows = ({0: Fraction(1)}, {1: Fraction(1)}) + ({0: half, 1: half},) * 20_000
    mc = chain_from_rows(rows, (Fraction(0),) * len(rows))
    sd = stationary(mc)
    assert sd.solve.dim == 1 and not sd.unique
    assert sd.q[0] == 1 and not any(sd.q[1:])


def test_large_denominators_stay_exact(monkeypatch):
    g = de_bruijn(2, tuple("acbdbdca"))
    solve, solved = chain._solve_exact, []

    def recording(a, b):
        solved.append(solve(a, b))
        return solved[-1]

    monkeypatch.setattr(chain, "_solve_exact", recording)
    # 2**1100 + 13 gives a d of 4,304 digits, past the 4,300 that str(d) allows
    for big in (2**64 + 13, 2**1100 + 13):
        probs = [Fraction(big // 5, big), Fraction(big // 3, big), Fraction(big // 7, big)]
        src = SourceModel(g.alphabet, (*probs, 1 - sum(probs)))
        mc = build_chain(enumerate_states(g), src)
        # the scaled integer entries overflow int64
        assert max(p.denominator for row in mc.rows for p in row.values()) > 2**63
        sd = stationary(mc)
        assert sd.q == bareiss_stationary(mc)
        assert _balanced(mc, sd.q, range(mc.size))
        assert sd.solve.denominator_digits > 200
        assert sd.solve.residual == "int"  # row sums past 2**34 keep Python integers
        # d's digits are counted without str(d)
        d, _, stats = solved[-1]
        assert 10 ** (stats.denominator_digits - 1) <= d < 10**stats.denominator_digits


def _nearly_decomposable(eps: Fraction, lazy: bool = False) -> MarkovChain:
    """Two lazy 3-cycles, 0-1-2 and 3-4-5, joined by transitions of mass eps
    and 2 eps: the balance system's condition number grows like 1/eps.

    States 2 and 5 each have one predecessor (1 and 4), so censoring solves
    4 unknowns. With ``lazy``, 2 and 5 also stay put with probability 1/2:
    every state then has a self-loop, none is eliminated, and the dense
    factor sees all 6 unknowns."""
    h = Fraction(1, 2)
    stay = h if lazy else Fraction(0)
    rows = (
        {0: h, 1: h - eps, 3: eps},
        {1: Fraction(1, 3), 2: Fraction(2, 3)},
        {0: 1 - stay, 2: stay},
        {3: h, 4: h - 2 * eps, 0: 2 * eps},
        {4: Fraction(1, 4), 5: Fraction(3, 4)},
        {3: 1 - stay, 5: stay},
    )
    rows = tuple({j: p for j, p in row.items() if p} for row in rows)
    return chain_from_rows(rows, (Fraction(0), h, Fraction(1)) * 2)


def _coupled_cycles(length: int, eps: Fraction) -> MarkovChain:
    """Two lazy cycles of ``length`` states each, joined from their first
    states by transitions of mass eps and 2 eps. Every state has a
    self-loop, so censoring eliminates none."""
    h = Fraction(1, 2)
    rows = []
    for start, out in ((0, eps), (length, 2 * eps)):
        rows.append({start: h, start + 1: h - out, length - start: out})
        rows += [{i: h, i + 1: h} for i in range(start + 1, start + length - 1)]
        rows.append({start + length - 1: h, start: h})
    absorb = tuple(Fraction(i % 2) for i in range(2 * length))
    return chain_from_rows(tuple(rows), absorb)


@pytest.mark.parametrize(
    "mc,dim,fewer_bits",
    [
        # censored: states 2 and 5 leave, and the dense factor sees 4 unknowns;
        # at 2**-40 the float solve of those 4 still lifts 52 bits at a time
        pytest.param(_nearly_decomposable(Fraction(1, 2**40)), 4, False, id="6-states-2^-40"),
        pytest.param(_nearly_decomposable(Fraction(1, 2**55)), 4, True, id="6-states-2^-55"),
        # self-loops everywhere: nothing is eliminated, the dense factor sees all
        pytest.param(
            _nearly_decomposable(Fraction(1, 2**55), lazy=True), 6, True, id="6-lazy-states-2^-55"
        ),
        pytest.param(_coupled_cycles(50, Fraction(1, 2**50)), 100, True, id="100-states-2^-50"),
    ],
)
def test_ill_conditioned_system_still_certifies(mc, dim, fewer_bits):
    sd = stationary(mc)
    assert sd.q == bareiss_stationary(mc)
    assert (sd.solve.unreduced_dim, sd.solve.dim) == (mc.size, dim)
    if fewer_bits:  # the float solve keeps fewer bits per lift than on a well-conditioned chain
        assert sd.solve.bits_per_lift < 52


_FAMILIES = {
    "6-states": _nearly_decomposable,
    "6-lazy-states": lambda eps: _nearly_decomposable(eps, lazy=True),
    "16-states": lambda eps: _coupled_cycles(8, eps),
    "128-states": lambda eps: _coupled_cycles(64, eps),
}


@pytest.mark.parametrize("family", _FAMILIES.values(), ids=_FAMILIES)
def test_every_eps_from_2_to_the_minus_36_to_55_certifies(family):
    """The range where the float factor's refusals do not hang on its
    rounding: row-pivoted dgetrf and the blocked LU it replaced both certify
    every eps here. Past 2**-55 the refusals move with the factor and are
    not monotone in eps; every value certified there is still exact."""
    for e in range(36, 56):
        mc = family(Fraction(1, 2**e))
        assert stationary(mc).q == bareiss_stationary(mc), f"eps = 2**-{e}"


def _solves(mc: MarkovChain) -> list[tuple]:
    """(d, numerators, lifts, bits_per_lift, residual) of the solve in stationary(mc)."""
    out = []
    solve = chain._solve_exact

    def recording(a, b):
        d, nums, stats = solve(a, b)
        out.append((d, nums, stats.lifts, stats.bits_per_lift, stats.residual))
        return d, nums, stats

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chain, "_solve_exact", recording)
        stationary(mc)
    return out


@pytest.mark.parametrize(
    "mc",
    [pytest.param(mc, id=name) for name, mc in _corpus()]
    + [
        pytest.param(_nearly_decomposable(Fraction(1, 2**40)), id="6-states-2^-40"),
        pytest.param(_nearly_decomposable(Fraction(1, 2**55)), id="6-states-2^-55"),
        pytest.param(_coupled_cycles(50, Fraction(1, 2**50)), id="100-states-2^-50"),
        # (the three above have row sums past 2**34, so they are wide already)
        # censored to 4 unknowns, which lift 53 bits at a time in int64
        pytest.param(_nearly_decomposable(Fraction(1, 2**18)), id="6-states-2^-18"),
        # ill-conditioned (26 bits per lift), yet with row sums below 2**34: the int64 path
        pytest.param(_nearly_decomposable(Fraction(1, 2**30)), id="6-states-2^-30"),
        pytest.param(_uniform_chain(debruijn8_demo()), id="debruijn8"),
    ],
)
def test_python_int_residual_lifts_as_the_int64_residual(monkeypatch, mc):
    default = _solves(mc)
    monkeypatch.setattr(chain, "_INT64_ROW_LIMIT", 0)  # every system is wide
    wide = _solves(mc)
    assert [s[:4] for s in wide] == [s[:4] for s in default]
    assert {s[4] for s in wide} == {"int"}


@pytest.mark.parametrize("labels", ["debruijn8", "bbcdaadcbbdddbbb"])
def test_int64_residual_leaves_matvec_to_the_certificate(monkeypatch, labels):
    mc = _uniform_chain(debruijn8_demo() if labels == "debruijn8" else de_bruijn(3, tuple(labels)))
    calls = {"matvec": 0, "candidates": 0}
    matvec, reconstruct = chain._matvec, chain._reconstruct

    def counted_matvec(a, x):
        calls["matvec"] += 1
        return matvec(a, x)

    def counted_reconstruct(xs, shift):
        found = reconstruct(xs, shift)
        calls["candidates"] += found is not None
        return found

    monkeypatch.setattr(chain, "_matvec", counted_matvec)
    monkeypatch.setattr(chain, "_reconstruct", counted_reconstruct)
    stats = stationary(mc).solve
    assert stats.residual == "int64"
    # one certificate check per candidate, and no residual update
    assert calls["matvec"] == calls["candidates"] >= 1
    calls.update(matvec=0, candidates=0)
    monkeypatch.setattr(chain, "_INT64_ROW_LIMIT", 0)
    stats = stationary(mc).solve
    assert stats.residual == "int"
    # the Python-int residual is updated in numpy as well: only the certificate runs _matvec
    assert calls["matvec"] == calls["candidates"] >= 1


def test_a_row_with_no_entry_raises():
    # np.add.reduceat would read the empty row 1 as the first entry of row 2
    a = (np.array([0, 1, 1, 2]), np.array([0, 2]), np.array([1, 3]))
    with pytest.raises(ChainError, match="row 1 of the system has no entry") as info:
        chain._solve_exact(a, [1, 0, 3])
    assert info.value.stage == "chain"


def test_beyond_double_precision_fails_fast():
    # censored to 4 unknowns, and lazy with all 6 in the dense factor
    for lazy in (False, True):
        mc = _nearly_decomposable(Fraction(1, 2**200), lazy=lazy)
        start = time.perf_counter()
        with pytest.raises(ChainError, match="too ill-conditioned") as info:
            stationary(mc)
        assert info.value.stage == "chain"
        assert time.perf_counter() - start < 10


def test_censored_system_certifies_past_the_unreduced_refusal():
    """At eps = 2**-80 the unreduced 6-unknown system is refused; censored
    to 4 unknowns it lifts a bit at a time to the certified law."""
    mc = _nearly_decomposable(Fraction(1, 2**80))
    sd = stationary(mc)
    assert sd.q == bareiss_stationary(mc)
    assert (sd.solve.unreduced_dim, sd.solve.dim) == (6, 4)

    def identity(size, *args):
        return np.arange(size), np.ones(size, dtype=object), np.zeros(size, dtype=np.int64)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chain, "_censor", identity)
        with pytest.raises(ChainError, match="too ill-conditioned"):
            stationary(mc)


def test_a_float_solve_off_by_a_relative_2_to_the_minus_20_still_certifies(
    monkeypatch, debruijn8
):
    mc = build_chain(enumerate_states(debruijn8), SourceModel.uniform(debruijn8.alphabet))
    exact_solve = chain._FloatLU.solve
    # every float solve off by a relative 2**-20, along the solution itself:
    # the residual keeps that error, and the cap on the next solve leaves
    # each later lift about 20 bits
    monkeypatch.setattr(chain._FloatLU, "solve", lambda lu, b: exact_solve(lu, b) * (1 + 2**-20))
    sd = stationary(mc)
    assert sd.q == bareiss_stationary(mc)
    assert sd.solve.bits_per_lift == 20


def test_oversized_system_is_refused_before_allocating(monkeypatch, capsys):
    # debruijn8's balance system has 106 unknowns: 89,888 bytes as float64
    monkeypatch.setattr(chain, "_MAX_FACTOR_BYTES", 8 * 100 * 100)
    assert cli.main(["analyze", "--graph", str(REPO_ROOT / "graphs" / "debruijn8.g")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error (chain): a system of 106 unknowns") and err.count("\n") == 1


# CSR lists (indptr, cols, vals) and right-hand side of a system that is
# singular over the rationals: [[1, 2], [2, 4]] x = [1, 2]
SINGULAR = (([0, 2, 4], [0, 1, 0, 1], [1, 2, 2, 4]), [1, 2])


def test_singular_system_raises():
    (a, b) = SINGULAR
    with pytest.raises(ChainError, match="singular system") as info:
        chain._solve_exact(tuple(map(np.array, a)), b)
    assert info.value.stage == "chain"


def test_singular_system_raises_in_optimized_mode():
    code = (
        "import numpy as np\n"
        "from tcq import ChainError\n"
        "from tcq.chain import _solve_exact\n"
        f"a, b = {SINGULAR!r}\n"
        "try:\n"
        "    _solve_exact(tuple(map(np.array, a)), b)\n"
        "except ChainError as exc:\n"
        "    print(exc.stage, exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("chain singular system")


def test_exact_solve_loads_no_scipy():
    code = (
        "import sys\n"
        "import tcq\n"
        "tcq.analyze(tcq.debruijn8_demo(), with_rd=True)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_lapack_is_bound_at_the_first_solve_not_at_import():
    code = (
        "import tcq\n"
        "from tcq import chain\n"
        "print(chain._lapack.cache_info().currsize)\n"
        "tcq.analyze(tcq.debruijn8_demo())\n"
        "print(chain._lapack()[0].__name__)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    unbound, symbol = proc.stdout.splitlines()
    assert unbound == "0"
    assert symbol in {name.format("dgetrf") for name in chain._LAPACK_NAMES}


def test_the_float_factor_pivots_over_rows():
    """dgetrf on the Fortran-order matrix factors A itself, P A = L U with
    rows swapped, and each solve matches numpy's."""
    rng = np.random.default_rng(7)
    a = rng.standard_normal((70, 70))
    a[5, 0] = a[0, 2] = 100.0  # the first pivot: row 5 over rows, column 2 over columns
    b = rng.standard_normal(70)
    lu = chain._FloatLU(np.asfortranarray(a))
    assert lu.pivots[0] == 6  # LAPACK counts rows from 1
    rows = list(range(70))
    for j, p in enumerate(lu.pivots - 1):
        rows[j], rows[p] = rows[p], rows[j]
    lower = np.tril(lu.lu, -1) + np.eye(70)
    assert np.allclose(a[rows], lower @ np.triu(lu.lu), rtol=0, atol=1e-12)
    assert np.allclose(lu.solve(b), np.linalg.solve(a, b), rtol=1e-9, atol=0)


def test_no_lapack_symbol_is_a_chain_error(monkeypatch, capsys):
    monkeypatch.setattr(chain, "_LAPACK_NAMES", ("no_such_{}_",))
    chain._lapack.cache_clear()
    try:
        assert cli.main(["analyze", "--graph", str(REPO_ROOT / "graphs" / "debruijn8.g")]) == 1
    finally:
        chain._lapack.cache_clear()  # the next solve binds the real names again
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error (chain): numpy's LAPACK exports no dgetrf and dgetrs as no_such_d*_\n"


def test_a_refused_lapack_argument_raises_in_optimized_mode():
    # a C-order array's column stride is 1: dgetrf refuses it as the
    # leading dimension (argument 4) rather than factor the transpose
    code = (
        "import numpy as np\n"
        "from tcq import ChainError\n"
        "from tcq.chain import _FloatLU\n"
        "try:\n"
        "    _FloatLU(np.eye(3) + np.tril(np.ones((3, 3))))\n"
        "except ChainError as exc:\n"
        "    print(exc.stage, exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    # LAPACK's own error handler prints its line to stdout first
    assert proc.stdout.splitlines()[-1] == "chain LAPACK's dgetrf refused its argument 4"


def test_analyze_takes_d_from_the_integer_law(monkeypatch, debruijn8):
    """No Fraction per state on the way to D(G): ``q`` is built only when read."""
    laws = []

    def recording(mc):
        laws.append(stationary(mc))
        return laws[-1]

    monkeypatch.setattr(chain, "stationary", recording)
    assert chain.analyze(debruijn8).distortion == Fraction(452, 1809)
    (sd,) = laws
    assert "q" not in vars(sd)
    assert gcd(sd.denominator, *sd.numerators) == 1  # lowest terms
    assert sd.denominator == lcm(*(x.denominator for x in sd.q))
    assert sd.numerators == tuple(x * sd.denominator for x in sd.q)
    # the same law over a multiple of its denominator: reduced on construction
    again = chain.StationaryDistribution(
        [3 * v for v in sd.numerators], 3 * sd.denominator, sd.classes, sd.unique
    )
    assert (again.numerators, again.denominator) == (sd.numerators, sd.denominator)


def _reconstruct_by_division(xs: list[int], m: int) -> tuple[int, list[int]] | None:
    """``chain._reconstruct`` with ``%`` and ``//`` by m in place of its
    masks and shifts: the reference they are compared against."""
    bound = isqrt(m) >> 1
    d = 1
    for x in xs:
        y = d * x % m
        if y <= bound or m - y <= bound:
            continue
        r0, r1, s0, s1 = m, y, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
        d *= abs(s1)
        if d > bound:
            return None
    return d, [(d * x + (m >> 1)) // m for x in xs]


@pytest.mark.parametrize("seed", range(4))
def test_reconstruct_masks_and_shifts_match_division(seed):
    """Digits of signed rationals over a common denominator, exact or
    perturbed, and digits with no such denominator, reconstruct as they do
    by division, negative digits included."""
    rng = random.Random(seed)
    found = 0
    for _ in range(200):
        shift = rng.randint(4, 400)
        m = 1 << shift
        d = rng.randint(1, max(1, isqrt(m) >> 3))
        xs = [(rng.randint(-4 * d, 4 * d) * m) // d + rng.randint(-2, 2) for _ in range(6)]
        if rng.random() < 0.25:
            xs = [rng.randint(-m, m) for _ in range(6)]
        expected = _reconstruct_by_division(xs, m)
        assert chain._reconstruct(xs, shift) == expected
        found += expected is not None
    assert 0 < found < 200


def _first_numerator_off_by_one(xs, shift):
    """The true reconstruction with its first numerator off by one: within
    sqrt(m)/2 of d x / m (m = 2**shift) on every entry, as a reconstruction
    can be, yet not a solution of A num = d b."""
    found = _real_reconstruct(xs, shift)
    if found is None:
        return None
    d, nums = found
    return d, [nums[0] + 1] + nums[1:]


_real_reconstruct = chain._reconstruct


@pytest.mark.parametrize(
    "fake",
    [lambda xs, shift: None, _first_numerator_off_by_one],
    ids=["no-reconstruction", "stable-but-wrong"],
)
def test_uncertified_answers_are_never_returned(monkeypatch, g3, fake):
    mc = build_chain(enumerate_states(g3), SourceModel.uniform(g3.alphabet))
    monkeypatch.setattr(chain, "_reconstruct", fake)
    with pytest.raises(ChainError, match="no certified solution within the Hadamard bound"):
        stationary(mc)
