from __future__ import annotations

import json
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import REPO_ROOT
from oracles import (
    apply_to_state,
    lumped_dicts,
    orbit_fibers,
    state_index,
    tuple_states,
)
from tcq import (
    FiberPartition,
    GraphStructureError,
    NotInvariantError,
    NotLumpableError,
    PartitionError,
    PermutationGroup,
    SourceError,
    SourceModel,
    build_chain,
    distortion_rate,
    de_bruijn,
    enumerate_states,
    fiber_representatives,
    induced_fibers,
    parse_permutations,
    quotient,
    quotient_analyze,
    stationary,
    xor_translation_group,
)
from tcq.symmetry import compose, identity

HALF = Fraction(1, 2)
ONE = Fraction(1)


def test_permutation_algebra():
    p = (1, 2, 0)
    assert compose(p, identity(3)) == p
    assert compose(identity(3), p) == p
    assert compose(p, compose(p, p)) == identity(3)
    assert compose((0, 2, 1), (0, 2, 1)) == identity(3)


def test_apply_to_state_reads_through_the_permutation():
    # component v of the image is the score of vertex p(v): the oracle's
    # tuple form and the column gather that induced_fibers runs agree
    assert apply_to_state((1, 0), (3, 5)) == (5, 3)
    assert apply_to_state((2, 0, 1), (7, 8, 9)) == (9, 7, 8)
    assert np.array([[7, 8, 9]])[:, (2, 0, 1)].tolist() == [[9, 7, 8]]


def test_group_closure():
    rot = PermutationGroup.from_generators(((1, 2, 0),), 3)
    assert len(rot) == 3
    s3 = PermutationGroup.from_generators(((1, 2, 0), (1, 0, 2)), 3)
    assert len(s3) == 6
    assert identity(3) in s3.elements
    trivial = PermutationGroup.from_generators((), 3)
    assert trivial.elements == (identity(3),)
    with pytest.raises(GraphStructureError, match="not a permutation"):
        PermutationGroup.from_generators(((0, 0, 1),), 3)

    def symmetric(n):  # a transposition and an n-cycle generate all n! permutations
        return PermutationGroup.from_generators(((1, 0, *range(2, n)), (*range(1, n), 0)), n)

    assert len(symmetric(8)) == 40_320
    start = time.perf_counter()
    # 9! = 362,880 is past the limit, refused before the group is listed
    with pytest.raises(GraphStructureError, match="more than 65,536 elements") as info:
        symmetric(9)
    assert time.perf_counter() - start < 5
    assert info.value.stage == "graph"


def test_xor_translation_group():
    grp = xor_translation_group(3)
    assert len(grp) == 8
    assert grp.degree == 8
    for p in grp.elements:
        assert compose(p, p) == identity(8)  # each translation is an involution


def test_parse_permutations():
    text = "# group file\n0 1 2\n\n2 0 1  # rotation\n"
    perms = parse_permutations(text, 3)
    assert perms == ((0, 1, 2), (2, 0, 1))
    with pytest.raises(GraphStructureError, match="line 1"):
        parse_permutations("0 1\n", 3)
    with pytest.raises(GraphStructureError, match="not a permutation"):
        parse_permutations("0 0 1\n", 3)
    with pytest.raises(GraphStructureError, match="integers"):
        parse_permutations("a b c\n", 3)


def test_trivial_group_fibers_are_singletons(g3):
    ss = enumerate_states(g3)
    fp = induced_fibers(ss, PermutationGroup.from_generators((), 2))
    assert fp.fibers == ((0,), (1,))
    src = SourceModel.uniform(g3.alphabet)
    qc = quotient(ss, src, fp)
    mc = build_chain(ss, src)
    assert qc.chain.rows == mc.rows
    assert qc.chain.absorb == mc.absorb
    assert quotient_analyze(qc).distortion == Fraction(1, 6)


def test_non_symmetry_is_rejected(g3):
    ss = enumerate_states(g3)
    swap = PermutationGroup.from_generators(((1, 0),), 2)
    # swapping the two vertices maps (1,0) to (0,1), which is unreachable
    with pytest.raises(NotInvariantError, match="outside the state space"):
        induced_fibers(ss, swap)


def test_degree_mismatch_is_rejected(g3):
    ss = enumerate_states(g3)
    with pytest.raises(NotInvariantError, match="act on 3 points"):
        induced_fibers(ss, PermutationGroup.from_generators((), 3))


def test_merging_unlike_states_is_not_lumpable(g3):
    ss = enumerate_states(g3)
    fp = FiberPartition(fibers=((0, 1),), fiber_of=(0, 0))
    with pytest.raises(NotLumpableError) as info:
        quotient(ss, SourceModel.uniform(g3.alphabet), fp)
    err = info.value
    assert (err.fiber, err.member_a, err.member_b) == (0, 0, 1)


def test_fiber_partition_invariants_raise():
    with pytest.raises(PartitionError, match="exactly once"):
        FiberPartition(fibers=((0,), (0, 1)), fiber_of=(0, 1))
    with pytest.raises(PartitionError, match="disagrees with fiber 1"):
        FiberPartition(fibers=((0,), (1,)), fiber_of=(0, 0))


def test_overlapping_orbits_raise(debruijn8):
    """Two XOR translations without the identity are not a group: their
    orbits overlap instead of partitioning the states."""
    ss = enumerate_states(debruijn8)
    elements = tuple(tuple(v ^ c for v in range(8)) for c in (1, 2))
    with pytest.raises(PartitionError, match="do not form a group"):
        induced_fibers(ss, PermutationGroup(degree=8, elements=elements))


def test_quotient_rejects_alphabet_mismatch(g3):
    ss = enumerate_states(g3)
    fp = FiberPartition(fibers=((0,), (1,)), fiber_of=(0, 1))
    with pytest.raises(SourceError, match="does not match"):
        quotient(ss, SourceModel.uniform(("x", "y")), fp)


def test_orbit_coherence(debruijn8):
    ss = enumerate_states(debruijn8)
    grp = xor_translation_group(3)
    fp = induced_fibers(ss, grp)
    assert len(fp) == 16
    assert sorted(len(f) for f in fp.fibers) == [1, 2, 4, 4] + [8] * 12
    states, index = tuple_states(ss), state_index(ss)
    for fi, fiber in enumerate(fp.fibers):
        members = set(fiber)
        for i in fiber:
            assert fp.fiber_of[i] == fi
            orbit = {index[apply_to_state(p, states[i])] for p in grp.elements}
            assert orbit == members
    # group order is an upper bound on any orbit size
    assert max(len(f) for f in fp.fibers) <= len(grp)


def test_fiber_representatives_are_lex_least(debruijn8):
    ss = enumerate_states(debruijn8)
    fp = induced_fibers(ss, xor_translation_group(3))
    reps = fiber_representatives(ss, fp)
    states = tuple_states(ss)
    for fi, fiber in enumerate(fp.fibers):
        rep_vec = states[reps[fi]]
        assert reps[fi] in fiber
        assert all(rep_vec <= states[i] for i in fiber)


def test_quotient_reproduces_distortion(debruijn8):
    src = SourceModel.uniform(debruijn8.alphabet)
    ss = enumerate_states(debruijn8)
    mc = build_chain(ss, src)
    full = distortion_rate(mc, stationary(mc))
    fp = induced_fibers(ss, xor_translation_group(3))
    qr = quotient_analyze(quotient(ss, src, fp))
    assert qr.distortion == full == Fraction(452, 1809)
    assert qr.fiber_count == 16
    assert sum(qr.stationary.q) == 1


# Known quotient transition structure of the bundled 8-vertex example.
# Each fiber is named by one member state (digits = vector components);
# values are (targets with probability 1/2 each or 1, increment mass).
EXPECTED_QUOTIENT_MAP = {
    "00000000": ({"00001111": ONE}, Fraction(0)),
    "00001111": ({"01101111": ONE}, Fraction(0)),
    "01101111": ({"11101122": ONE}, Fraction(0)),
    "11101122": ({"22221210": HALF, "00001100": HALF}, HALF),
    "00001100": ({"00001111": HALF, "01101111": HALF}, Fraction(0)),
    "22221210": ({"22332101": HALF, "10111100": HALF}, HALF),
    "10111100": ({"11101111": HALF, "22111001": HALF}, Fraction(0)),
    "22332101": ({"22332101": HALF, "10111100": HALF}, HALF),
    "11101111": ({"22221110": HALF, "00001100": HALF}, HALF),
    "22111001": ({"11101122": HALF, "21011122": HALF}, Fraction(0)),
    "22221110": ({"22221210": HALF, "10011100": HALF}, HALF),
    "21011122": ({"22221210": HALF, "10000011": HALF}, HALF),
    "10011100": ({"11101111": HALF, "22110001": HALF}, Fraction(0)),
    "10000011": ({"01101111": HALF, "10001111": HALF}, Fraction(0)),
    "22110001": ({"11101111": HALF, "22111001": HALF}, Fraction(0)),
    "10001111": ({"11101111": HALF, "22111001": HALF}, Fraction(0)),
}


def test_quotient_transition_structure(debruijn8):
    ss = enumerate_states(debruijn8)
    src = SourceModel.uniform(debruijn8.alphabet)
    fp = induced_fibers(ss, xor_translation_group(3))
    qc = quotient(ss, src, fp)

    index = state_index(ss)

    def fiber_of_string(digits: str) -> int:
        return fp.fiber_of[index[tuple(int(c) for c in digits)]]

    assert len(EXPECTED_QUOTIENT_MAP) == 16
    for member, (targets, inc_mass) in EXPECTED_QUOTIENT_MAP.items():
        fi = fiber_of_string(member)
        expected_row = {fiber_of_string(t): mass for t, mass in targets.items()}
        assert qc.chain.rows[fi] == expected_row, member
        assert qc.chain.absorb[fi] == inc_mass, member


# The numpy fibers and quotient against the orbit loop and Fraction-dict
# lumping they replaced (``tests/oracles.py``).

XOR4 = json.loads((REPO_ROOT / "perfbench" / "corpus.json").read_text(encoding="utf-8"))["xor4"]


def _outcome(f, *args):
    """f's result, or the type, stage, text and fields of the tcq error it raises."""
    try:
        return f(*args)
    except (NotInvariantError, PartitionError, NotLumpableError) as exc:
        return type(exc), exc.stage, str(exc), vars(exc)


def _check_quotient(ss, src, fp) -> NotLumpableError | None:
    """The quotient of fp has the oracle's rows and increment masses, or both
    refuse it alike: the refusal is returned."""
    try:
        mc = quotient(ss, src, fp).chain
    except NotLumpableError as exc:
        assert _outcome(lumped_dicts, ss, src, fp) == _outcome(lambda: quotient(ss, src, fp))
        return exc
    assert (mc.rows, mc.absorb) == lumped_dicts(ss, src, fp)
    return None


@pytest.mark.parametrize(
    "labels",
    [None] + [e["labels"] for e in XOR4],
    ids=["debruijn8"] + [f"xor4-{i:02d}" for i in range(len(XOR4))],
)
def test_quotient_matches_the_oracles(labels, debruijn8):
    """debruijn8 and the XOR-invariant order-4 labellings of the benchmark
    corpus, under their XOR translation groups."""
    g = debruijn8 if labels is None else de_bruijn(4, tuple(labels))
    ss = enumerate_states(g)
    group = xor_translation_group(g.num_vertices.bit_length() - 1)
    fp = induced_fibers(ss, group)
    assert fp == orbit_fibers(ss, group)
    states = tuple_states(ss)
    reps = fiber_representatives(ss, fp)
    assert [states[r] for r in reps] == [min(states[i] for i in fiber) for fiber in fp.fibers]
    assert _check_quotient(ss, SourceModel.uniform(g.alphabet), fp) is None


def _coarsened(fp: FiberPartition, label: list[int], flip: bool) -> FiberPartition:
    """The fibers of fp with equal labels merged, each in descending order
    when ``flip`` (so that its first member is its largest)."""
    groups: dict[int, list[int]] = {}
    for fi, fiber in enumerate(fp.fibers):
        groups.setdefault(label[fi], []).extend(fiber)
    fibers = sorted(tuple(sorted(g, reverse=flip)) for g in groups.values())
    fiber_of = [0] * len(fp.fiber_of)
    for fi, fiber in enumerate(fibers):
        for i in fiber:
            fiber_of[i] = fi
    return FiberPartition(fibers=tuple(fibers), fiber_of=tuple(fiber_of))


def test_non_lumpable_partitions_name_the_oracles_witness(g3, debruijn8):
    """Coarsenings of debruijn8's orbits, members in ascending and in
    descending order: the same fiber, first member, first differing member
    and message as the oracle, target-fiber masses checked before increments."""
    ss = enumerate_states(debruijn8)
    src = SourceModel.uniform(debruijn8.alphabet)
    fp = induced_fibers(ss, xor_translation_group(3))
    rng = random.Random(9)
    kinds = set()
    for t in range(60):
        k = rng.randint(2, 15)
        coarse = _coarsened(fp, [rng.randrange(k) for _ in range(len(fp))], flip=t % 2 == 1)
        err = _check_quotient(ss, src, coarse)
        if err is not None:
            kinds.add((err.fiber > 0, "increment masses" in str(err)))
    # refusals past the first fiber, and both kinds of disagreement
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}
    # every pair of orbits merged: four of the 120 are lumpable again
    refused = 0
    for a in range(len(fp)):
        for b in range(a + 1, len(fp)):
            label = [b if fi == a else fi for fi in range(len(fp))]
            refused += _check_quotient(ss, src, _coarsened(fp, label, flip=False)) is not None
    assert refused == 116
    # g3's two states, with the larger first: equal masses, unequal increments
    fp = FiberPartition(fibers=((1, 0),), fiber_of=(0, 0))
    err = _check_quotient(enumerate_states(g3), SourceModel.uniform(g3.alphabet), fp)
    assert (err.fiber, err.member_a, err.member_b) == (0, 1, 0)
    assert "increment masses differ: 1/2 vs 0" in str(err)


def test_non_groups_and_non_symmetries_fail_as_the_oracle_does(g3, debruijn8):
    """Element sets that are not groups, and permutations that are not
    symmetries: the oracle's partition, or its error and text."""
    ss = enumerate_states(debruijn8)
    translations = xor_translation_group(3).elements
    rng = random.Random(4)
    cases = [PermutationGroup(degree=8, elements=(p,)) for p in translations]
    for _ in range(30):
        subset = tuple(rng.sample(translations, rng.randint(1, 7)))
        cases.append(PermutationGroup(degree=8, elements=subset))
        cases.append(PermutationGroup(degree=8, elements=(tuple(rng.sample(range(8), 8)),)))
    cases.append(PermutationGroup.from_generators(((7, 6, 5, 4, 3, 2, 1, 0),), 8))
    kinds = set()
    for grp in cases:
        got = _outcome(induced_fibers, ss, grp)
        assert got == _outcome(orbit_fibers, ss, grp)
        kinds.add(got[0] if isinstance(got, tuple) else FiberPartition)
    assert kinds == {FiberPartition, NotInvariantError, PartitionError}
    g3_space = enumerate_states(g3)
    for grp in (PermutationGroup.from_generators(((1, 0),), 2), xor_translation_group(2)):
        got = _outcome(induced_fibers, g3_space, grp)
        assert got[0] is NotInvariantError and got == _outcome(orbit_fibers, g3_space, grp)
