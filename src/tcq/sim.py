"""Monte Carlo estimate of the per-step distortion rate.

The walk is a sample path of the same chain that ``statespace`` enumerates,
read off a ``statespace.ArcTable`` that computes an arc only when some lane
first takes it. Each chunk of a worker range is cut into about
sqrt(length) lanes: lane 0 starts from the range's true state and every
other lane from the zero vector, and all lanes advance together, one numpy
gather from the table per step; at a step where some lanes miss, one
``viterbi.advance`` call computes the missing arcs. Then the lanes are
verified from left to right. Lane j is walked again from the speculative
end of lane j - 1, all lanes together, until it meets its own path, as
surviving paths of a Viterbi decoder merge; from there on its speculative
increments are exact, and its end is the true start of lane j + 1. A lane
that has not met its path within ``_REWALK`` steps is walked alone, one
step at a time, from its true start, and so are the lanes after it until
one is found whose re-walk started from the true state; on a periodic
graph no lane meets, and all of a chunk but lane 0 is walked again alone. So the
increments are exactly those of a walk one step at a time, and only the
states some lane takes are interned: graphs whose full space is too large
to enumerate (or that are periodic) still simulate.

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
from math import isqrt, sqrt

import numpy as np

from . import viterbi
from .chain import SourceModel
from .errors import SimulationLimitError, SourceError
from .graph import LabeledGraph
from .statespace import ArcTable

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1
_CHUNK = 1 << 16
# Steps of the lockstep re-walk; a lane that has not met its path by then
# is walked alone. Lanes of a graph whose paths merge meet within tens of steps.
_REWALK = 64

BIAS_BOUND = 2.0**-64


def random_words(seed: int, start: int, stop: int) -> np.ndarray:
    """Words start..stop-1 of the stream for this seed, as uint64: SplitMix64
    of seed + (i + 1) * gamma, mixed in place in one buffer."""
    z = np.arange(start + 1, stop + 1, dtype=np.uint64)
    z *= np.uint64(_GAMMA)
    z += np.uint64(seed & _MASK)
    scratch = np.empty_like(z)
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        z ^= np.right_shift(z, np.uint64(shift), out=scratch)
        z *= np.uint64(mult)
    z ^= np.right_shift(z, np.uint64(31), out=scratch)
    return z


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
    return np.asarray(support, dtype=viterbi.holding(0, support[-1]))[picks]


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


def _step(
    table: ArcTable, states: np.ndarray, xs: np.ndarray, nxt: np.ndarray, incs: np.ndarray
) -> None:
    """One step of every lane: write the successors of ``states`` under
    ``xs`` into ``nxt`` and their increments into ``incs``. Missing arcs are
    computed in one ``ArcTable.fill`` call."""
    arcs = np.multiply(states, table.succ.shape[1], dtype=np.intp)
    arcs += xs
    table.succ.take(arcs, out=nxt)
    if nxt.min() < 0:
        miss = nxt < 0
        table.fill(states[miss].tolist(), xs[miss].tolist())
        table.succ.take(arcs, out=nxt)
    table.inc.take(arcs, out=incs)


def _walk(
    table: ArcTable, rows: list[int], xs: np.ndarray, state: int, out: np.ndarray
) -> int:
    """Write the increments of the walk from ``state`` along the symbol
    indices ``xs`` into ``out`` and return the state it ends in. ``rows``
    is the list that ``_walk_alone`` reads.

    The walk is cut into lanes of ``span`` steps (the last may be shorter);
    row t of ``x``, ``paths`` and ``incs`` is step t of every lane. All
    lanes but the first start from the zero state; ``paths`` holds the
    state after each step."""
    n = len(xs)
    span = -(-n // isqrt(n))
    lanes = -(-n // span)
    last = n - (lanes - 1) * span  # steps of the last lane
    x = np.zeros((lanes, span), xs.dtype)
    x.ravel()[:n] = xs
    x = np.ascontiguousarray(x.T)
    paths = np.empty((span, lanes), table.succ.dtype)
    incs = np.empty((span, lanes), np.uint8)
    start = np.zeros(lanes, table.succ.dtype)
    start[0] = state
    for t in range(span):
        k = lanes if t < last else lanes - 1
        _step(table, paths[t - 1, :k] if t else start, x[t, :k], paths[t, :k], incs[t, :k])
    return _verify(table, rows, xs, x, paths, incs, out)


def _verify(
    table: ArcTable,
    rows: list[int],
    xs: np.ndarray,
    x: np.ndarray,
    paths: np.ndarray,
    incs: np.ndarray,
    out: np.ndarray,
) -> int:
    """Correct the speculative lanes of ``_walk`` from left to right, write
    the walk's increments into ``out`` and return its end state.

    First every lane j > 0 is walked again, all together, from the
    speculative end of lane j - 1, overwriting its increments, for up to
    ``_REWALK`` steps or until every lane has met its own path; a lane that
    met it stays on it. That start is true while every lane before has met
    its path. From the first lane that has not, the walk goes on alone, one
    step at a time, to the first lane boundary where it is in the state
    that the next lane's re-walk started from and that lane met its path."""
    span, lanes = paths.shape
    n = len(out)
    last = n - (lanes - 1) * span  # steps of the last lane
    spec = np.append(paths[-1, :-1], paths[last - 1, -1])  # each lane's speculative end
    met = np.ones(lanes, bool)
    cur = spec[:-1]  # lane j starts from the speculative end of lane j - 1
    for t in range(min(span, _REWALK)):
        if t == last:  # the last lane has ended
            met[-1], cur = cur[-1] == spec[-1], cur[:-1]
        if not len(cur):
            break
        k = len(cur) + 1
        nxt = np.empty_like(cur)
        _step(table, cur, x[t, 1:k], nxt, incs[t, 1:k])
        cur = nxt
        hit = cur == paths[t, 1:k]
        if hit.all():
            break
    else:
        met[1 : len(cur) + 1] = hit
    out[:] = incs.T.ravel()[:n]
    if met.all():
        return int(spec[-1])
    symbols = xs.tolist()
    j = int(np.argmin(met))
    state = int(spec[j - 1])
    while j < lanes:
        lo = j * span
        arcs: list[int] = []
        while True:
            state = _walk_alone(table, rows, symbols[j * span : (j + 1) * span], state, arcs)
            j += 1
            if j == lanes or (met[j] and state == spec[j - 1]):
                break
        out[lo : lo + len(arcs)] = table.inc.take(arcs)
        while j < lanes and met[j] and state == spec[j - 1]:  # lane j's re-walk holds
            state = int(spec[j])
            j += 1
    return state


def _walk_alone(
    table: ArcTable, rows: list[int], symbols: list[int], state: int, arcs: list[int]
) -> int:
    """Walk ``symbols`` from ``state`` one step at a time, appending each
    step's flat (state, symbol) index to ``arcs``, and return the end state.

    ``rows`` holds, for each flat arc index, the flat index of its
    successor's row (the successor times the number of symbols), or a
    negative number; it is kept across calls and grown here as the table
    grows. It misses the arcs filled by lockstep steps since: an arc it
    lacks is read from the table, computed there first if the table lacks
    it too."""
    n_sym = table.succ.shape[1]
    rows += [-1] * (n_sym * len(table) - len(rows))
    row = state * n_sym
    for xi in symbols:
        arc = row + xi
        row = rows[arc]
        if row < 0:
            si = arc // n_sym
            if table.succ[si, xi] < 0:
                table.fill([si], [xi])
                rows += [-1] * (n_sym * len(table) - len(rows))
            rows[arc - xi : arc - xi + n_sym] = [s * n_sym for s in table.succ[si].tolist()]
            row = rows[arc]
        arcs.append(arc)
    return row // n_sym


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
    # Lanes take at most 3n steps (speculative, verifying, walking again),
    # and each step interns at most one state.
    table = ArcTable(g, np.int32 if 3 * n < 2**31 else np.int64)
    increments = np.empty(n, dtype=np.uint8)
    rows: list[int] = []  # successor rows by flat arc index, for the walks alone
    for start, stop in _worker_ranges(n, workers):
        state = 0  # each range restarts from the zero state
        for cs in range(start, stop, _CHUNK):
            ce = min(cs + _CHUNK, stop)
            xs = symbol_indices(seed, cs, ce, bounds, support)
            state = _walk(table, rows, xs, state, increments[cs:ce])

    estimate = float(increments.mean())
    batch_count = min(100, n)
    if batch_count >= 2:
        # np.array_split's batches, r of q + 1 steps and then q, summed
        # exactly; a reduction along rows casts in buffers, where
        # np.add.reduceat would first copy the whole walk to int64.
        q, r = divmod(n, batch_count)
        head = r * (q + 1)
        means = np.concatenate(
            (
                increments[:head].reshape(r, q + 1).sum(axis=1, dtype=np.int64) / (q + 1),
                increments[head:].reshape(batch_count - r, q).sum(axis=1, dtype=np.int64) / q,
            )
        ).tolist()
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
