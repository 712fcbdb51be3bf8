"""Vertex-permutation symmetry and exact quotient chains.

A group of vertex permutations acts on state vectors by coordinate
relabelling. When the state space is closed under the action, the orbits
partition it into fibers. If every fiber's members carry identical
per-fiber transition mass and increment mass, the partition is exactly
lumpable and the quotient chain reproduces the distortion rate.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import NoReturn

import numpy as np

from .chain import (
    MarkovChain,
    SourceModel,
    StationaryDistribution,
    build_chain,
    decimal_string,
    distortion_rate,
    stationary,
)
from .errors import (
    GraphStructureError,
    NotInvariantError,
    NotLumpableError,
    PartitionError,
)
from .statespace import StateSpace, row_keys

Permutation = tuple[int, ...]

_MAX_GROUP_ORDER = 65_536  # elements a generated group may hold


def identity(n: int) -> Permutation:
    return tuple(range(n))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Permutation acting as p after q."""
    return tuple(p[q[i]] for i in range(len(p)))


def _check_permutation(p: Permutation, n: int) -> None:
    if len(p) != n or sorted(p) != list(range(n)):
        raise GraphStructureError(f"{p} is not a permutation of 0..{n - 1}")


@dataclass(frozen=True)
class PermutationGroup:
    degree: int
    elements: tuple[Permutation, ...]

    @classmethod
    def from_generators(
        cls, generators: tuple[Permutation, ...], degree: int
    ) -> PermutationGroup:
        """Closure of the generators under composition (includes identity).

        Raises GraphStructureError once the closure holds more than
        ``_MAX_GROUP_ORDER`` elements, before listing the rest of the group.
        """
        for p in generators:
            _check_permutation(p, degree)
        e = identity(degree)
        seen = {e}
        queue = deque([e])
        while queue:
            p = queue.popleft()
            for g in generators:
                nxt = compose(g, p)
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
            if len(seen) > _MAX_GROUP_ORDER:
                raise GraphStructureError(
                    f"the generators give a group of more than {_MAX_GROUP_ORDER:,}"
                    " elements, the limit for a symmetry group"
                )
        return cls(degree=degree, elements=tuple(sorted(seen)))

    def __len__(self) -> int:
        return len(self.elements)


def parse_permutations(text: str, degree: int) -> tuple[Permutation, ...]:
    """One permutation per line: the images of vertices 0..n-1 in order.

    Blank lines and '#' comments are skipped.
    """
    out: list[Permutation] = []
    # no vertex index has more digits than the vertex count; a longer token
    # is read as -1 (not a permutation), since int() takes time quadratic
    # in its digits once the CLI lifts Python's cap on them
    width = len(str(degree))
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            p = tuple(int(tok) if len(tok) <= width else -1 for tok in line.split())
        except ValueError:
            raise GraphStructureError(
                f"permutation line {lineno}: entries must be integers"
            ) from None
        if len(p) != degree or sorted(p) != list(range(degree)):
            raise GraphStructureError(
                f"permutation line {lineno}: not a permutation of 0..{degree - 1}"
            )
        out.append(p)
    return tuple(out)


def xor_translation_group(bits: int) -> PermutationGroup:
    """The 2^bits permutations v -> v XOR c of vertices 0..2^bits - 1."""
    n = 1 << bits
    elements = tuple(tuple(v ^ c for v in range(n)) for c in range(n))
    return PermutationGroup(degree=n, elements=elements)


@dataclass(frozen=True)
class FiberPartition:
    """Partition of the state indices, fibers ordered by smallest member."""

    fibers: tuple[tuple[int, ...], ...]
    fiber_of: tuple[int, ...]

    def __post_init__(self) -> None:
        seen = sorted(i for fiber in self.fibers for i in fiber)
        if seen != list(range(len(self.fiber_of))):
            raise PartitionError("the fibers do not cover each state exactly once")
        for fi, fiber in enumerate(self.fibers):
            if any(self.fiber_of[i] != fi for i in fiber):
                raise PartitionError(f"fiber_of disagrees with fiber {fi}")

    def __len__(self) -> int:
        return len(self.fibers)


def fiber_representatives(ss: StateSpace, fp: FiberPartition) -> tuple[int, ...]:
    """Canonical representative per fiber: lexicographically least state vector."""
    vectors = ss.vectors.tolist()
    return tuple(min(fiber, key=vectors.__getitem__) for fiber in fp.fibers)


def induced_fibers(ss: StateSpace, group: PermutationGroup) -> FiberPartition:
    """Orbit partition of the state space under the group action.

    The state s maps under p to the vector whose component v is s(p(v)),
    one column gather ``vectors[:, p]`` per element, looked up by the bytes
    of its rows. Raises NotInvariantError if some element maps a reachable
    state to a vector outside the space.
    """
    if group.degree != ss.graph.num_vertices:
        raise NotInvariantError(
            f"permutations act on {group.degree} points,"
            f" graph has {ss.graph.num_vertices} vertices"
        )
    index = {key: i for i, key in enumerate(row_keys(ss.vectors))}
    # images[e, i]: the index of state i under element e, -1 outside the space
    images = np.array(
        [[index.get(key, -1) for key in row_keys(ss.vectors[:, p])] for p in group.elements],
        dtype=np.intp,
    ).reshape(len(group), len(ss))
    fiber_of = np.full(len(ss), -1, dtype=np.intp)
    fibers: list[tuple[int, ...]] = []
    for i in range(len(ss)):
        if fiber_of[i] != -1:
            continue
        column = images[:, i]
        if (column < 0).any():
            p = group.elements[int(np.argmax(column < 0))]
            raise NotInvariantError(
                f"permutation {p} maps state {tuple(ss.vectors[i].tolist())}"
                f" to {tuple(ss.vectors[i, list(p)].tolist())},"
                " which is outside the state space"
            )
        orbit = np.unique(column)
        fi = len(fibers)
        taken = orbit[fiber_of[orbit] != -1]
        if taken.size:
            j = int(taken[0])
            raise PartitionError(
                f"state {j} lies in orbits {int(fiber_of[j])} and {fi};"
                " the permutations do not form a group"
            )
        fibers.append(tuple(orbit.tolist()))
        fiber_of[orbit] = fi
    return FiberPartition(fibers=tuple(fibers), fiber_of=tuple(fiber_of.tolist()))


@dataclass(frozen=True)
class QuotientChain:
    statespace: StateSpace
    partition: FiberPartition
    chain: MarkovChain

    def __len__(self) -> int:
        return len(self.partition)


def quotient(ss: StateSpace, src: SourceModel, fp: FiberPartition) -> QuotientChain:
    """Quotient chain over the fibers, after an exact lumpability check.

    A state's masses are its entries in ``build_chain(ss, src)`` summed per
    target fiber, integers over the chain's scale. Every member of a fiber
    must have the masses and the increment mass of the fiber's first member,
    whose row the quotient takes. Otherwise NotLumpableError names the first
    fiber, in order, with a member that differs, its first such member, and
    the masses that differ, target-fiber masses before increment masses.
    """
    full = build_chain(ss, src)
    n, m = full.size, len(fp)
    fiber_of = np.array(fp.fiber_of, dtype=np.intp)
    firsts = np.array([fiber[0] for fiber in fp.fibers], dtype=np.intp)
    ref = firsts[fiber_of]  # each state's fiber's first member
    # each state's mass per target fiber, one entry per key state * m + target fiber, sorted
    key = np.repeat(np.arange(n), np.diff(full.indptr)) * m + fiber_of[full.succ]
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    key, mass = key[starts], np.add.reduceat(full.num[order], starts)
    state, target = np.divmod(key, m)
    counts = np.bincount(state, minlength=n)
    # a member differs from its reference when their entry counts differ, or
    # when the reference has no equal entry for one of the member's target fibers
    wanted = ref[state] * m + target
    at = np.minimum(np.searchsorted(key, wanted), len(key) - 1)
    unequal = (key[at] != wanted) | (mass[at] != mass)
    bad = (counts != counts[ref]) | (full.absorb_num != full.absorb_num[ref])
    bad[state[unequal]] = True
    members = np.concatenate(fp.fibers)
    witness = members[bad[members]]
    if witness.size:
        _refuse(full, fp, int(witness[0]))
    rows = np.flatnonzero(ref[state] == state)  # the first members' entries, by fiber
    rows = rows[np.argsort(fiber_of[state[rows]], kind="stable")]
    indptr = np.zeros(m + 1, dtype=np.intp)
    np.cumsum(counts[firsts], out=indptr[1:])
    mc = MarkovChain(m, full.scale, indptr, target[rows], mass[rows], full.absorb_num[firsts])
    return QuotientChain(statespace=ss, partition=fp, chain=mc)


def _refuse(full: MarkovChain, fp: FiberPartition, member: int) -> NoReturn:
    """NotLumpableError for ``member`` against its fiber's first member."""
    fi = fp.fiber_of[member]
    first = fp.fibers[fi][0]

    def masses(i: int) -> dict[int, Fraction]:  # by target fiber, in successor order
        out: dict[int, Fraction] = {}
        for e in range(full.indptr[i], full.indptr[i + 1]):
            tf = fp.fiber_of[full.succ[e]]
            out[tf] = out.get(tf, Fraction(0)) + Fraction(int(full.num[e]), full.scale)
        return out

    ref_mass, mass = masses(first), masses(member)
    if mass != ref_mass:
        raise NotLumpableError(
            fi, first, member, f"target-fiber masses differ: {ref_mass} vs {mass}"
        )
    ref_inc, inc = (Fraction(int(full.absorb_num[i]), full.scale) for i in (first, member))
    raise NotLumpableError(fi, first, member, f"increment masses differ: {ref_inc} vs {inc}")


@dataclass(frozen=True)
class QuotientReport:
    distortion: Fraction
    distortion_decimal: str
    fiber_count: int
    stationary: StationaryDistribution

    @property
    def q(self) -> tuple[Fraction, ...]:  # the Fraction view of ``stationary``
        return self.stationary.q


def quotient_analyze(qc: QuotientChain) -> QuotientReport:
    sd = stationary(qc.chain)
    d = distortion_rate(qc.chain, sd)
    return QuotientReport(
        distortion=d,
        distortion_decimal=decimal_string(d),
        fiber_count=len(qc.partition),
        stationary=sd,
    )
