"""Exception hierarchy.

Every error carries a ``stage`` class attribute naming the pipeline stage it
belongs to; the CLI prints it so failures are attributable.
"""

from __future__ import annotations


class Error(Exception):
    """Base class for all domain errors raised by this package."""

    stage = "run"


class GraphFormatError(Error):
    """Malformed graph description text."""

    stage = "graph"

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class GraphStructureError(Error):
    """A graph violates a structural requirement (missing out-edge, bad label, ...)."""

    stage = "graph"


class NotPrimitiveError(Error):
    """No exact-path length exists: the graph is not strongly connected and aperiodic."""

    stage = "exact-path-constant"


class SourceError(Error):
    """Invalid source distribution (bad syntax, negative mass, sum != 1, alphabet mismatch)."""

    stage = "source"


class StateSpaceLimitError(Error):
    """State enumeration exceeded the configured cap."""

    stage = "enumerate"


class ComponentBoundError(Error):
    """An enumerated state has a component above the exact-path constant.

    This indicates a bug in the transition operators, never bad user input.
    """

    stage = "enumerate"


class ChainError(Error):
    """A Markov chain breaks an invariant: a row that is not a probability
    law, a singular balance system, or stationary mass that does not sum to 1.
    """

    stage = "chain"


class PartitionError(Error):
    """State fibers that do not partition the state indices exactly once."""

    stage = "quotient"


class NotInvariantError(Error):
    """A supplied permutation maps some reachable state outside the state space."""

    stage = "quotient"


class NotLumpableError(Error):
    """A state partition does not induce a well-defined quotient chain."""

    stage = "quotient"

    def __init__(self, fiber: int, member_a: int, member_b: int, detail: str):
        self.fiber = fiber
        self.member_a = member_a
        self.member_b = member_b
        super().__init__(
            f"fiber {fiber} is not lumpable: states {member_a} and {member_b} "
            f"disagree on {detail}"
        )


class ConvergenceError(Error):
    """The rate-distortion slope search could not bracket the requested rate."""

    stage = "rd"


class RateOutOfRangeError(Error):
    """Requested rate lies outside [0, H(source)]."""

    stage = "rd"


class BoundViolationError(Error):
    """The converse bound (graph distortion >= distortion-rate value) failed."""

    stage = "rd"


class SimulationLimitError(Error):
    """A walk whose per-step increments would not fit in physical memory."""

    stage = "simulate"


class InstanceTooLargeError(Error):
    """Exhaustive enumeration would exceed the configured work guard."""

    stage = "brute-force"
