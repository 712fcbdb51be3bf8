"""Monte Carlo estimate of the per-step distortion rate.

The walk is a sample path of the same chain that ``statespace`` enumerates,
read off a ``statespace.ArcTable``. On a graph whose space is finite
(strongly connected and aperiodic) the table is first closed breadth first,
as enumeration closes it, until it is closed or holds more than n //
``_CLOSURE_SHARE`` states, so the walk of a space that fits reads every arc
off the closed table; any other arc is computed when some lane first takes
it.

Each chunk of a worker range is cut into lanes of about sqrt(length)
steps, but at most 2 * ``_REWALK``: the re-walk gives a lane ``_REWALK``
steps to meet its path, and a longer lane only adds lockstep steps, so a
65,536-step chunk runs as 512 lanes of 128 steps. Lane 0
starts from the range's true state and every other lane from the zero
vector, and all lanes advance together, one numpy gather from the table
per step; at a step where some lanes miss, one ``viterbi.advance`` call
computes the missing arcs. Then the lanes are verified from left to
right. Lane j is walked again from the speculative end of lane j - 1, all
lanes together, until it meets its own path, as surviving paths of a
Viterbi decoder merge; from there on its speculative increments are
exact, and its end is the true start of lane j + 1. A lane that has not
met its path within ``_REWALK`` steps is walked alone, one step at a
time, from its true start, and so are the lanes after it until one is
found whose re-walk started from the true state; on a periodic graph no
lane meets, and all of a chunk but lane 0 is walked again alone. So the
increments are exactly those of a walk one step at a time, and past the
closure only the states some lane takes are interned: graphs whose full
space is too large to enumerate (or that are periodic) still simulate.

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
off by at most 2^-64. A word's symbol is read from a table of 4,096
entries indexed by its top 12 bits (a guide table for inversion
sampling); only the words of the few buckets that hold a threshold other
than on their first word are searched among the thresholds, so the picks
are those of a search over every word.
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
from .graph import LabeledGraph, exact_path_constant, validate
from .statespace import ArcTable

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1
_CHUNK = 1 << 16
# Steps of the lockstep re-walk; a lane that has not met its path by then
# is walked alone. Lanes of a graph whose paths merge meet within tens of steps.
_REWALK = 64
_TOP_BITS = 12  # a word's top bits index the sampling table
# A walk of n steps closes a finite space's table up to n // _CLOSURE_SHARE
# states, so it advances at most that many. On an order-5 quaternary
# labelling, closing takes about 1.3-1.6 us per state advanced and a walk that
# interns a new state at nearly every step about 2 us a step (one core of a
# shared 2-core x86 host), so on a space too large to close the closure costs
# about 1-2% of the walk, and a space that fits is never filled lane by lane.
_CLOSURE_SHARE = 64

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
    return _pick_symbols(random_words(seed, start, stop), bounds, support)


def _pick_symbols(u: np.ndarray, bounds: np.ndarray, support: list[int]) -> np.ndarray:
    """The alphabet index that each uint64 word of ``u`` picks:
    ``support[k]``, k the number of ``bounds`` at most the word.

    Words are bucketed by their top ``_TOP_BITS`` bits. A bucket that holds
    no bound, or one only on its first word, picks one symbol for all its
    words, read from a table; the words of every other bucket are
    searched among ``bounds``."""
    symbols = np.asarray(support, dtype=viterbi.holding(0, support[-1]))
    shift = np.uint64(64 - _TOP_BITS)
    firsts = np.arange(1 << _TOP_BITS, dtype=np.uint64) << shift
    table = symbols[np.searchsorted(bounds, firsts, side="right")]
    top = np.right_shift(u, shift, out=np.empty(len(u), np.intp), casting="unsafe")
    picks = table.take(top)
    inner = bounds[bounds & np.uint64((1 << (64 - _TOP_BITS)) - 1) != 0]
    if len(inner):
        mixed = np.zeros(1 << _TOP_BITS, bool)
        mixed[inner >> shift] = True
        at = np.flatnonzero(mixed.take(top))
        picks[at] = symbols[np.searchsorted(bounds, u[at], side="right")]
    return picks


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


class _Alone:
    """What ``_walk_alone`` keeps across calls, over only the states that
    walks alone have reached or read a row of, numbered in that order:
    ``states[i]`` is the table index of number i and ``number`` maps it
    back. ``rows[i * symbols + x]`` is the flat index of the row of the
    successor of i under x (its number times the number of symbols), or a
    negative number where the table had no arc when the row was read."""

    def __init__(self, symbols: int):
        self.symbols = symbols
        self.rows: list[int] = []
        self.states: list[int] = []
        self.number: dict[int, int] = {}

    def row(self, state: int) -> int:
        """The flat index of the row of table state ``state``, numbering
        the state if it has no number yet."""
        i = self.number.get(state)
        if i is None:
            i = self.number[state] = len(self.states)
            self.states.append(state)
            self.rows += [-1] * self.symbols
        return i * self.symbols


def _walk(table: ArcTable, alone: _Alone, xs: np.ndarray, state: int, out: np.ndarray) -> int:
    """Write the increments of the walk from ``state`` along the symbol
    indices ``xs`` into ``out`` and return the state it ends in. ``alone``
    is what ``_walk_alone`` keeps.

    The walk is cut into lanes of ``span`` steps, about sqrt(n) and at
    most ``2 * _REWALK`` (the last lane may be shorter); row t of ``x``,
    ``paths`` and ``incs`` is step t of every lane. All lanes but the
    first start from the zero state; ``paths`` holds the state after each
    step."""
    n = len(xs)
    span = min(-(-n // isqrt(n)), 2 * _REWALK)
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
    return _verify(table, alone, xs, x, paths, incs, out)


def _verify(
    table: ArcTable,
    alone: _Alone,
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
    runs: list[tuple[int, list[int]]] = []  # first step and arcs of each run walked alone
    while j < lanes:
        lo = j * span
        arcs: list[int] = []
        while True:
            state = _walk_alone(table, alone, symbols[j * span : (j + 1) * span], state, arcs)
            j += 1
            if j == lanes or (met[j] and state == spec[j - 1]):
                break
        runs.append((lo, arcs))
        while j < lanes and met[j] and state == spec[j - 1]:  # lane j's re-walk holds
            state = int(spec[j])
            j += 1
    inc = table.inc[alone.states].ravel()  # by flat (number, symbol) index
    for lo, arcs in runs:
        out[lo : lo + len(arcs)] = inc.take(np.fromiter(arcs, np.intp, len(arcs)))
    return state


def _walk_alone(
    table: ArcTable, alone: _Alone, symbols: list[int], state: int, arcs: list[int]
) -> int:
    """Walk ``symbols`` from table state ``state`` one step at a time,
    appending each step's flat (number, symbol) index in ``alone`` to
    ``arcs``, and return the table state it ends in.

    ``alone.rows`` misses the arcs filled by lockstep steps since it read
    their rows: an arc it lacks is read from the table, computed there
    first if the table lacks it too."""
    n_sym, rows, states = alone.symbols, alone.rows, alone.states
    row = alone.row(state)
    for xi in symbols:
        arc = row + xi
        row = rows[arc]
        if row < 0:
            si = states[arc // n_sym]
            if table.succ[si, xi] < 0:
                table.fill([si], [xi])
            rows[arc - xi : arc - xi + n_sym] = [
                alone.row(s) if s >= 0 else -1 for s in table.succ[si].tolist()
            ]
            row = rows[arc]
        arcs.append(arc)
    return states[row // n_sym]


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
    # The closure interns at most symbols + 1 times its budget of states; then
    # lanes take at most 3n steps (speculative, verifying, walking again), and
    # each step interns at most one state.
    budget = n // _CLOSURE_SHARE
    states = (len(g.alphabet) + 1) * budget + 3 * n
    table = ArcTable(g, np.int32 if states < 2**31 else np.int64)
    report = validate(g)
    if report.strongly_connected and report.aperiodic:
        table.close(exact_path_constant(g), budget)
    increments = np.empty(n, dtype=np.uint8)
    alone = _Alone(len(g.alphabet))
    for start, stop in _worker_ranges(n, workers):
        state = 0  # each range restarts from the zero state
        for cs in range(start, stop, _CHUNK):
            ce = min(cs + _CHUNK, stop)
            xs = symbol_indices(seed, cs, ce, bounds, support)
            state = _walk(table, alone, xs, state, increments[cs:ce])

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
