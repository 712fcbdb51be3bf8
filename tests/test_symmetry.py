from __future__ import annotations

import time
from fractions import Fraction

import pytest

from tcq import (
    FiberPartition,
    GraphStructureError,
    NotInvariantError,
    NotLumpableError,
    PartitionError,
    PermutationGroup,
    SourceError,
    SourceModel,
    apply_to_state,
    build_chain,
    distortion_rate,
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
    # component v of the image is the score of vertex p(v)
    assert apply_to_state((1, 0), (3, 5)) == (5, 3)
    assert apply_to_state((2, 0, 1), (7, 8, 9)) == (9, 7, 8)


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
    for fi, fiber in enumerate(fp.fibers):
        members = set(fiber)
        for i in fiber:
            assert fp.fiber_of[i] == fi
            orbit = {ss.index[apply_to_state(p, ss.states[i])] for p in grp.elements}
            assert orbit == members
    # group order is an upper bound on any orbit size
    assert max(len(f) for f in fp.fibers) <= len(grp)


def test_fiber_representatives_are_lex_least(debruijn8):
    ss = enumerate_states(debruijn8)
    fp = induced_fibers(ss, xor_translation_group(3))
    reps = fiber_representatives(ss, fp)
    for fi, fiber in enumerate(fp.fibers):
        rep_vec = ss.states[reps[fi]]
        assert reps[fi] in fiber
        assert all(rep_vec <= ss.states[i] for i in fiber)


def test_quotient_reproduces_distortion(debruijn8):
    src = SourceModel.uniform(debruijn8.alphabet)
    ss = enumerate_states(debruijn8)
    mc = build_chain(ss, src)
    full = distortion_rate(mc, stationary(mc))
    fp = induced_fibers(ss, xor_translation_group(3))
    qr = quotient_analyze(quotient(ss, src, fp))
    assert qr.distortion == full == Fraction(452, 1809)
    assert qr.fiber_count == 16
    assert sum(qr.q) == 1


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

    def fiber_of_string(digits: str) -> int:
        return fp.fiber_of[ss.index[tuple(int(c) for c in digits)]]

    assert len(EXPECTED_QUOTIENT_MAP) == 16
    for member, (targets, inc_mass) in EXPECTED_QUOTIENT_MAP.items():
        fi = fiber_of_string(member)
        expected_row = {fiber_of_string(t): mass for t, mass in targets.items()}
        assert qc.chain.rows[fi] == expected_row, member
        assert qc.chain.absorb[fi] == inc_mass, member
