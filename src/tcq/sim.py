"""Monte Carlo estimate of the per-step distortion rate.

The walk is a sample path of the same chain that ``statespace`` enumerates:
it drives a ``statespace.Explorer`` along the sampled symbols, reading each
memoized arc straight from the current state's row and asking the explorer
only on a miss. The explorer runs the transition kernel at most once per
miss: for one arc at a state's first miss, and for all of the state's
successors, kept as a block, at its second. Only the states the walk visits
are ever interned, so graphs whose full space is too large to enumerate (or
that are periodic) still simulate.

Symbols come from a counter-based generator (SplitMix64 applied to a seed
plus counter), so position i of the stream depends only on (seed, i). A
worker count W splits the stream into W contiguous ranges; each range is
walked from the zero state, which makes multi-worker runs deterministic
given (seed, n, W) but not bit-identical to the single-worker walk.
Every step's increment is kept, one byte each, so a walk longer than the
machine's physical memory in bytes is refused before anything is allocated.

Source sampling draws a 64-bit word per step and compares it against
cumulative thresholds obtained from the exact symbol probabilities by
largest-remainder rounding to integer multiples of 2^-64. Zero-probability
symbols receive weight exactly zero; every other symbol's probability is
off by at most 2^-64.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

import numpy as np

from .chain import SourceModel
from .errors import SimulationLimitError, SourceError
from .graph import LabeledGraph
from .statespace import Explorer

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1
_CHUNK = 1 << 16

BIAS_BOUND = 2.0**-64


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def random_words(seed: int, start: int, stop: int) -> np.ndarray:
    """Words start..stop-1 of the stream for this seed, as uint64."""
    idx = np.arange(start + 1, stop + 1, dtype=np.uint64)
    return _mix64(np.uint64(seed & _MASK) + idx * np.uint64(_GAMMA))


def source_thresholds(src: SourceModel) -> tuple[np.ndarray, list[int]]:
    """Cumulative sampling boundaries scaled to 2^64, plus the map from
    boundary interval to symbol index. Weights are the probabilities
    rounded to integers summing to exactly 2^64 (largest remainder)."""
    scaled = [p * (1 << 64) for p in src.probabilities]
    weights = [int(s) for s in scaled]  # floor
    shortfall = (1 << 64) - sum(weights)
    order = sorted(
        range(len(scaled)), key=lambda i: (scaled[i] - weights[i], -i), reverse=True
    )
    for i in order[:shortfall]:
        weights[i] += 1
    support = [i for i, w in enumerate(weights) if w > 0]
    if not support:
        raise SourceError("no symbol has positive probability")
    bounds: list[int] = []
    acc = 0
    for i in support[:-1]:
        acc += weights[i]
        bounds.append(acc)
    return np.array(bounds, dtype=np.uint64), support


def symbol_indices(
    seed: int, start: int, stop: int, bounds: np.ndarray, support: list[int]
) -> np.ndarray:
    """Alphabet indices of stream positions start..stop-1."""
    u = random_words(seed, start, stop)
    picks = np.searchsorted(bounds, u, side="right")
    return np.asarray(support, dtype=np.int64)[picks]


@dataclass(frozen=True, eq=False)
class SimResult:
    n: int
    seed: int
    workers: int
    estimate: float
    stderr: float
    batch_count: int
    bias_bound: float
    increments: np.ndarray  # uint8, one entry per step


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not report it."""
    try:
        pages, size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    return pages * size if pages > 0 and size > 0 else None


def _worker_ranges(n: int, workers: int) -> list[tuple[int, int]]:
    workers = min(workers, n)  # no empty ranges
    q, r = divmod(n, workers)
    out = []
    start = 0
    for i in range(workers):
        length = q + (1 if i < r else 0)
        out.append((start, start + length))
        start += length
    return out


def simulate(
    g: LabeledGraph,
    src: SourceModel,
    n: int,
    seed: int = 0,
    workers: int = 1,
) -> SimResult:
    """Walk n source symbols through the reduced transition and average the
    increments. The standard error comes from batch means (up to 100 batches).
    """
    if n < 1:
        raise ValueError("need at least one step")
    if workers < 1:
        raise ValueError("need at least one worker")
    memory = _physical_memory()
    if memory is not None and n > memory:  # the increments take one byte per step
        raise SimulationLimitError(
            f"a walk of {n:,} steps needs {n:,} bytes for its increments,"
            f" above the {memory:,} bytes of physical memory"
        )
    if src.alphabet != g.alphabet:
        raise SourceError(
            f"source alphabet {src.alphabet} does not match graph alphabet {g.alphabet}"
        )
    bounds, support = source_thresholds(src)
    explorer = Explorer(g)
    rows, arc = explorer.rows, explorer.arc
    buf = bytearray(n)
    for start, stop in _worker_ranges(n, workers):
        si, row = 0, rows[0]  # each range restarts from the zero state
        for cs in range(start, stop, _CHUNK):
            ce = min(cs + _CHUNK, stop)
            xs = symbol_indices(seed, cs, ce, bounds, support).tolist()
            for pos, xi in enumerate(xs, cs):
                step = row[xi]
                if step is None:
                    step = arc(si, xi)
                si, inc = step
                row = rows[si]
                buf[pos] = inc
    increments = np.frombuffer(buf, dtype=np.uint8)

    estimate = float(increments.mean())
    batch_count = min(100, n)
    if batch_count >= 2:
        means = [float(b.mean()) for b in np.array_split(increments, batch_count)]
        mean_of_means = sum(means) / batch_count
        var = sum((m - mean_of_means) ** 2 for m in means) / (batch_count - 1)
        stderr = sqrt(var / batch_count)
    else:
        stderr = float("nan")
    return SimResult(
        n=n,
        seed=seed,
        workers=workers,
        estimate=estimate,
        stderr=stderr,
        batch_count=batch_count,
        bias_bound=BIAS_BOUND,
        increments=increments,
    )


def z_score(result: SimResult, exact: Fraction | float) -> float:
    """Standardized deviation of the estimate from an exact value."""
    diff = result.estimate - float(exact)
    if result.stderr == 0.0:
        return 0.0 if diff == 0.0 else math.copysign(float("inf"), diff)
    return diff / result.stderr
