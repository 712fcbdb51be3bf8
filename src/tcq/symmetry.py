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
from .statespace import StateSpace
from .viterbi import StateVector

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


def apply_to_state(p: Permutation, s: StateVector) -> StateVector:
    """Relabelled state: component v reads the score of vertex p(v)."""
    return tuple(s[p[v]] for v in range(len(s)))


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
    return tuple(min(fiber, key=lambda i: ss.states[i]) for fiber in fp.fibers)


def induced_fibers(ss: StateSpace, group: PermutationGroup) -> FiberPartition:
    """Orbit partition of the state space under the group action.

    Raises NotInvariantError if some element maps a reachable state to a
    vector outside the space.
    """
    if group.degree != ss.graph.num_vertices:
        raise NotInvariantError(
            f"permutations act on {group.degree} points,"
            f" graph has {ss.graph.num_vertices} vertices"
        )
    n = len(ss)
    fiber_of = [-1] * n
    fibers: list[tuple[int, ...]] = []
    for i in range(n):
        if fiber_of[i] != -1:
            continue
        orbit: set[int] = set()
        for p in group.elements:
            image = apply_to_state(p, ss.states[i])
            j = ss.index.get(image)
            if j is None:
                raise NotInvariantError(
                    f"permutation {p} maps state {ss.states[i]} to {image},"
                    " which is outside the state space"
                )
            orbit.add(j)
        fi = len(fibers)
        fibers.append(tuple(sorted(orbit)))
        for j in orbit:
            if fiber_of[j] != -1:
                raise PartitionError(
                    f"state {j} lies in orbits {fiber_of[j]} and {fi};"
                    " the permutations do not form a group"
                )
            fiber_of[j] = fi
    return FiberPartition(fibers=tuple(fibers), fiber_of=tuple(fiber_of))


@dataclass(frozen=True)
class QuotientChain:
    statespace: StateSpace
    partition: FiberPartition
    chain: MarkovChain

    def __len__(self) -> int:
        return len(self.partition)


def quotient(ss: StateSpace, src: SourceModel, fp: FiberPartition) -> QuotientChain:
    """Quotient chain over the fibers, after an exact lumpability check.

    Every member of a fiber must put the same total mass on each target
    fiber and the same mass on incrementing arcs; any disagreement raises
    NotLumpableError naming the fiber and a witness pair. The masses are
    the rows of ``build_chain(ss, src)`` summed over each target fiber.
    """
    full = build_chain(ss, src)

    def profile(i: int) -> tuple[dict[int, Fraction], Fraction]:
        mass: dict[int, Fraction] = {}
        for ti, p in full.rows[i].items():
            tf = fp.fiber_of[ti]
            mass[tf] = mass.get(tf, Fraction(0)) + p
        return mass, full.absorb[i]

    rows: list[dict[int, Fraction]] = []
    absorb: list[Fraction] = []
    for fi, fiber in enumerate(fp.fibers):
        ref_mass, ref_absorb = profile(fiber[0])
        for member in fiber[1:]:
            mass, a = profile(member)
            if mass != ref_mass:
                raise NotLumpableError(
                    fi,
                    fiber[0],
                    member,
                    f"target-fiber masses differ: {ref_mass} vs {mass}",
                )
            if a != ref_absorb:
                raise NotLumpableError(
                    fi,
                    fiber[0],
                    member,
                    f"increment masses differ: {ref_absorb} vs {a}",
                )
        rows.append(ref_mass)
        absorb.append(ref_absorb)
    mc = MarkovChain(size=len(fp), rows=tuple(rows), absorb=tuple(absorb))
    return QuotientChain(statespace=ss, partition=fp, chain=mc)


@dataclass(frozen=True)
class QuotientReport:
    distortion: Fraction
    distortion_decimal: str
    fiber_count: int
    q: tuple[Fraction, ...]
    stationary: StationaryDistribution


def quotient_analyze(qc: QuotientChain) -> QuotientReport:
    sd = stationary(qc.chain)
    d = distortion_rate(qc.chain, sd)
    return QuotientReport(
        distortion=d,
        distortion_decimal=decimal_string(d),
        fiber_count=len(qc.partition),
        q=sd.q,
        stationary=sd,
    )
