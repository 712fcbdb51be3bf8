"""Exact distortion analysis of trellis quantizers defined by labelled graphs.

A labelled directed graph is a fixed-rate lossy encoder: a source sequence
is encoded as the minimum-Hamming-distortion path through the graph's
trellis (Viterbi algorithm). This package computes the asymptotic per-step
distortion of such a code exactly, by enumerating the finite space of
reduced path-cost vectors and solving the induced Markov chain in rational
arithmetic, with Monte Carlo and rate-distortion baselines for comparison.
"""

from .chain import (
    AnalysisReport,
    MarkovChain,
    SourceModel,
    StationaryDistribution,
    analyze,
    build_chain,
    closed_classes,
    decimal_string,
    distortion_rate,
    stationary,
)
from .errors import (
    BoundViolationError,
    ChainError,
    ComponentBoundError,
    ConvergenceError,
    Error,
    GraphFormatError,
    GraphStructureError,
    InstanceTooLargeError,
    NotInvariantError,
    NotLumpableError,
    NotPrimitiveError,
    PartitionError,
    RateOutOfRangeError,
    SimulationLimitError,
    SourceError,
    StateSpaceLimitError,
)
from .graph import (
    Edge,
    LabeledGraph,
    RateInfo,
    ValidationReport,
    de_bruijn,
    debruijn8_demo,
    exact_path_constant,
    graph_from_edges,
    parse_graph,
    rate_of,
    serialize_graph,
    validate,
)
from .rd import (
    GapReport,
    RDPoint,
    blahut,
    gap_report,
    hamming_rd_closed_form,
    source_entropy,
)
from .sim import SimResult, simulate, z_score
from .statespace import StateSpace, enumerate_states
from .symmetry import (
    FiberPartition,
    PermutationGroup,
    QuotientChain,
    QuotientReport,
    fiber_representatives,
    induced_fibers,
    parse_permutations,
    quotient,
    quotient_analyze,
    xor_translation_group,
)
from .viterbi import (
    EncodingResult,
    brute_force_min,
    count_paths,
    encode,
    reduced_transition,
)

__version__ = "0.1.0"
