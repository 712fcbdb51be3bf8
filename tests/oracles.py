"""Independent checks of the enumerated state space, used only by tests."""

from __future__ import annotations

from typing import NamedTuple

from tcq import viterbi
from tcq.statespace import StateSpace
from tcq.viterbi import StateVector


class MembershipResult(NamedTuple):
    in_space: bool
    incremented: bool


def check_component_bound(ss: StateSpace) -> bool:
    """True iff every component of every state is at most k."""
    return all(max(s) <= ss.k for s in ss.states)


def membership_increment(ss: StateSpace, s: StateVector, x: str) -> MembershipResult:
    """Whether the unreduced successor of (s, x) stays inside the space.

    It leaves the space exactly when the step increments: the unreduced
    successor has minimum component > 0 iff the arc's increment is 1.
    Both facts are recomputed here and asserted to agree.
    """
    si = ss.index.get(s)
    if si is None:
        raise KeyError(f"state {s} is not in the enumerated space")
    _, inc = ss.arcs[si][ss.graph.symbol_index[x]]
    unreduced = viterbi.transition(ss.graph, s, x)
    in_space = unreduced in ss.index
    assert (inc == 1) == (min(unreduced) > 0) == (not in_space), (
        "membership/increment equivalence violated"
    )
    return MembershipResult(in_space=in_space, incremented=inc == 1)
