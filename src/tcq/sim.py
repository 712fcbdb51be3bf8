"""Monte Carlo estimate of the per-step distortion rate.

The walk is a sample path of the same chain that ``statespace`` enumerates,
read off a ``statespace.ArcTable``. On a graph whose space is finite
(strongly connected and aperiodic) the table is first closed breadth first,
as enumeration closes it, until it is closed or holds more than n //
``_CLOSURE_SHARE`` states, so the walk of a space that fits reads every arc
off the closed table; any other arc is computed when some lane first takes
it. A table that closes is kept, as its ``succ`` and ``inc`` trimmed to its
states, for as long as its graph lives (``_CLOSED`` holds the graph weakly):
the space depends on the graph alone, so every later walk of the graph, or
of an equal one, reads those arcs, whatever its length, and builds no
table. Tables that do not close are not kept.

The walk takes every worker range at once, in passes over their c-th
chunks of ``_CHUNK`` steps. Every chunk of a pass is cut into the same
number of lanes of about sqrt(length) steps, but at most 2 * ``_REWALK``:
the re-walk gives a lane ``_REWALK`` steps to meet its path, and a longer
lane only adds lockstep steps. A chunk's last lane is padded with symbol 0
to full length (a 100,000-step range runs as 782 lanes of 128 steps, the
last walking 32), so every lane of a pass advances at every step, one
numpy gather per step; lane 0 starts from its range's true state and
every other lane from the zero vector, and on a table that is not closed
one ``viterbi.advance`` call computes the arcs that lanes miss at a step.
On a closed table a step takes a word of d symbols, as radix-4 Viterbi
decoders take two trellis stages: d is the largest of 1, 2, 4 and 8, at
most ``_REWALK``, whose word table of states times symbols^d arcs is no
larger than the pass's steps (4 on debruijn8 and 2 on the 927-state XOR
labelling at 100,000 steps). Then lane j is walked again from the
speculative end of lane j - 1, all lanes together, until it meets its own
path at a word boundary, as surviving paths of a Viterbi decoder merge;
from there on its speculative path is exact, and its end is the true start
of lane j + 1. One gather then reads every word's increments off the
table. A lane that has not met its path within ``_REWALK`` steps is walked
alone, one symbol at a time, from its true start, and so are the lanes
after it until one is found whose re-walk started from the true state; on
a periodic graph no lane meets, and all of a chunk but lane 0 is walked
again alone. So the increments are exactly those of a walk one step at a
time, and past the closure only the states some lane takes are interned:
graphs whose full space is too large to enumerate (or that are periodic)
still simulate.

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

import os
import weakref
from dataclasses import dataclass
from fractions import Fraction
from math import copysign, isqrt, sqrt

import numpy as np

from . import viterbi
from .chain import SourceModel
from .errors import GraphStructureError, SimulationLimitError, SourceError
from .graph import LabeledGraph, exact_path_constant, validate
from .statespace import ArcTable

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1
_CHUNK = 1 << 17  # steps of each worker range that one pass walks
# Steps of the lockstep re-walk, taken as _REWALK // d words of d symbols; a lane that
# has not met its path by then is walked alone; where paths merge, lanes meet within tens of steps.
_REWALK = 64
_TOP_BITS = 12  # a word's top bits index the sampling table
_WORDS = 1 << 15  # stream words drawn at once
# A walk of n steps closes a finite space's table up to n // _CLOSURE_SHARE
# states, so it advances at most that many. On the order-5 quaternary walk
# rungs, closing takes about 1.3-1.7 us per state advanced and a walk that
# interns a state at nearly every step 1.7-1.9 us a step (one core of a
# shared 2-core x86 host): on a space too large to close the closure costs
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
    """Alphabet indices of stream positions start..stop-1, drawn in blocks
    of at most ``_WORDS`` words, whose buffers stay in cache, through one
    sampling table."""
    guide = _Guide(bounds, support)
    out = np.empty(stop - start, guide.symbols.dtype)
    for lo in range(start, stop, _WORDS):
        hi = min(lo + _WORDS, stop)
        out[lo - start : hi - start] = guide.pick(random_words(seed, lo, hi))
    return out


class _Guide:
    """The sampling table of one source's ``bounds`` and ``support``.

    Words are bucketed by their top ``_TOP_BITS`` bits. A bucket that holds
    no bound, or one only on its first word, picks one symbol for all its
    words, read from ``table``; the words of every bucket marked in
    ``mixed`` (None when there is none) are searched among ``bounds``."""

    def __init__(self, bounds: np.ndarray, support: list[int]):
        self.bounds = bounds
        self.symbols = np.asarray(support, dtype=viterbi.holding(0, support[-1]))
        self.shift = np.uint64(64 - _TOP_BITS)
        firsts = np.arange(1 << _TOP_BITS, dtype=np.uint64) << self.shift
        self.table = self.symbols[np.searchsorted(bounds, firsts, side="right")]
        inner = bounds[bounds & np.uint64((1 << (64 - _TOP_BITS)) - 1) != 0]
        self.mixed = None
        if len(inner):
            self.mixed = np.zeros(1 << _TOP_BITS, bool)
            self.mixed[inner >> self.shift] = True

    def pick(self, u: np.ndarray) -> np.ndarray:
        """The alphabet index that each uint64 word of ``u`` picks:
        ``support[k]``, k the number of ``bounds`` at most the word."""
        top = np.right_shift(u, self.shift, out=np.empty(len(u), np.intp), casting="unsafe")
        picks = self.table.take(top)
        if self.mixed is not None:
            at = np.flatnonzero(self.mixed.take(top))
            picks[at] = self.symbols[np.searchsorted(self.bounds, u[at], side="right")]
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


def _step(table: ArcTable | _Words, states: np.ndarray, xs: np.ndarray, nxt: np.ndarray) -> None:
    """One lockstep step of every lane: write the successors of ``states``
    under the symbols or words ``xs`` into ``nxt``. On a table that is not
    closed, missing arcs are computed in one ``ArcTable.fill`` call."""
    arcs = np.multiply(states, table.succ.shape[1], dtype=np.intp)
    arcs += xs
    table.succ.take(arcs, out=nxt)
    if not table.closed and nxt.min() < 0:
        miss = nxt < 0
        table.fill(states[miss].tolist(), xs[miss].tolist())
        table.succ.take(arcs, out=nxt)


class _Alone:
    """What ``_walk_alone`` keeps across one pass of ``_walk`` that has a lane
    to walk alone, over only the states that walks alone have reached or read
    a row of, numbered in that order: ``states[i]`` is the table index of
    number i and ``number`` maps it back. ``rows[i * symbols + x]`` is the
    flat index of the row of the successor of i under x (its number times
    the number of symbols), or a negative number where the table had no arc
    when the row was read, and ``incs[i * symbols + x]`` the increment of
    that arc."""

    def __init__(self, symbols: int):
        self.symbols = symbols
        self.rows: list[int] = []
        self.incs: list[int] = []
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
            self.incs += [0] * self.symbols
        return i * self.symbols


class _Words:
    """A closed table's arcs over words of d symbols (see ``_words``); for
    d = 1, the closed table's ``succ`` and ``inc`` trimmed to its states,
    the form in which ``_CLOSED`` keeps it."""

    closed = True

    def __init__(self, succ: np.ndarray, inc: np.ndarray):
        self.succ, self.inc = succ, inc

    def __len__(self) -> int:
        return len(self.succ)


# Each graph's closed arc table, for as long as the graph lives (see the
# module docstring).
_CLOSED: weakref.WeakKeyDictionary[LabeledGraph, _Words] = weakref.WeakKeyDictionary()


def _words(table: ArcTable | _Words, steps: int) -> tuple[ArcTable | _Words, int]:
    """The table that the lockstep steps of a pass of ``steps`` steps read,
    and the d symbols each takes, by the rule in the module docstring (8
    bits fill an ``inc`` byte); for d = 1 it is ``table``. For d > 1,
    ``succ[s, w]`` is the state d steps from s along word w, whose i-th
    symbol is its base-S digit d - 1 - i, and bit i of ``inc[s, w]`` is
    step i's increment. They are built by doubling, for j = 1, 2, 4:
    T_2j[s, u S^j + v] = T_j[T_j[s, u], v] and
    I_2j[s, u S^j + v] = I_j[s, u] | I_j[T_j[s, u], v] << j."""
    n, n_sym = len(table), table.succ.shape[1]
    d = 1
    while table.closed and 2 * d <= min(8, _REWALK) and n * n_sym ** (2 * d) <= steps:
        d *= 2
    succ, inc = table.succ[:n], table.inc[:n]
    for j in (1, 2, 4)[: d.bit_length() - 1]:  # take(axis=0) gathers rows faster than [succ]
        inc = (inc[:, :, None] | inc.take(succ, 0) << j).reshape(n, -1)
        succ = succ.take(succ, 0).reshape(n, -1)
    return (_Words(succ, inc) if d > 1 else table), d


def _walk(
    table: ArcTable | _Words, xss: list[np.ndarray], starts: list[int], outs: list[np.ndarray]
) -> list[int]:
    """Write the increments of the walk from each ``starts[b]`` along the
    symbol indices ``xss[b]`` into ``outs[b]``, all walks in one lockstep
    loop, and return the states they end in. The walks are n or n - 1
    steps long, the longer first.

    Each walk is cut into the same ``m`` lanes of ``span`` words of d
    symbols (see ``_words``), about sqrt(n) and at most ``2 * _REWALK``
    steps, its last lane padded with symbol 0 to full length: the walk's
    end is read at its true step, from the start of a word cut short one
    symbol at a time. Lane 0 starts from the walk's start and every other
    lane from the zero state. Column ``b * m + j`` of ``x`` and ``paths`` is
    lane j of walk b, and row t is word t of every lane in ``x`` and the
    state before it in ``paths``."""
    words, d = _words(table, sum(map(len, xss)))
    n_sym, n_words = table.succ.shape[1], words.succ.shape[1]  # S and S^d
    n = len(xss[0])
    span = max(1, min(-(-n // isqrt(n)), 2 * _REWALK) // d)
    steps = span * d  # of each lane
    walks, m = len(xss), -(-n // steps)
    x = np.zeros((walks, m * steps), xss[0].dtype)
    for row, xs in zip(x, xss):
        row[: len(xs)] = xs
    symbols = x.reshape(walks * m, span, d)
    x = symbols[..., 0].astype(viterbi.holding(0, n_words - 1))
    for i in range(1, d):  # a word's first symbol is its top digit
        x *= n_sym
        x += symbols[..., i]
    x = np.ascontiguousarray(x.T)
    paths = np.zeros((span + 1, walks * m), table.succ.dtype)
    paths[0, ::m] = starts
    for t in range(span):
        _step(words, paths[t], x[t], paths[t + 1])

    # Lane j is walked again from the speculative end of lane j - 1 (lane 0
    # from its start), all lanes together, until every lane has met its own
    # path at a word boundary or for _REWALK steps. Its states replace the
    # speculative ones, and one gather then reads every word's increment
    # bits: a filled arc never changes.
    walked = np.zeros((min(span, _REWALK // d) + 1, walks * m), paths.dtype)
    walked[0, 1:] = paths[-1, :-1]
    walked[0, ::m] = starts
    met = np.empty(walks * m, bool)
    for t in range(len(walked) - 1):
        _step(words, walked[t], x[t], walked[t + 1])
        if np.equal(walked[t + 1], paths[t + 1], out=met).all():
            break
    paths[: t + 2] = walked[: t + 2]
    ends = paths[-1].reshape(walks, m).tolist()
    for b, xs in enumerate(xss):  # row k - j * span of lane j is the state before word k
        k = len(xs) // d
        j = min(k // span, m - 1)
        end = paths[k - j * span, b * m + j]
        for xi in xs[k * d :].tolist():  # the steps of a last word cut short
            end = table.succ[end, xi]
        ends[b][-1] = int(end)
    arcs = np.multiply(paths[:-1], n_words, dtype=np.intp)
    arcs += x
    incs = words.inc.take(arcs).T
    bits = np.arange(1 << d, dtype=np.uint8)[:, None] >> np.arange(d, dtype=np.uint8) & 1
    for out, lanes in zip(outs, incs.reshape(walks, m, span)):  # bits[v, i] is bit i of v
        bits.take(lanes[:-1], 0, out[: steps * (m - 1)].reshape(m - 1, span, d), "clip")
        out[steps * (m - 1) :] = bits.take(lanes[-1], 0).ravel()[: len(out) - steps * (m - 1)]
    if met.all():
        return [row[-1] for row in ends]
    holds = np.where(met, walked[0], -1).reshape(walks, m).tolist()
    alone = _Alone(n_sym)
    return [_verify(table, alone, *walk, steps) for walk in zip(xss, holds, ends, outs)]


def _verify(
    table: ArcTable | _Words,
    alone: _Alone,
    xs: np.ndarray,
    holds: list[int],
    ends: list[int],
    out: np.ndarray,
    span: int,
) -> int:
    """Walk alone the lanes of one walk of ``_walk`` whose re-walk did not
    hold, writing their increments into ``out``, and return the state the
    walk ends in. Lane j takes steps ``j * span`` on; its re-walk ended in
    ``ends[j]`` and started from ``holds[j]``, or -1 if it did not meet the
    lane's path. A lane's re-walk started from the speculative end of the
    lane before, which is true while every lane before has met its path:
    from the first lane that has not, the walk goes on alone, one step at a
    time, to the first lane boundary where the next lane's re-walk holds."""
    if -1 not in holds:
        return ends[-1]
    j = holds.index(-1)
    state = ends[j - 1]
    while j < len(holds):
        lo = j * span
        incs = bytearray()
        while True:
            state = _walk_alone(table, alone, xs[j * span : (j + 1) * span].tolist(), state, incs)
            j += 1
            if j == len(holds) or state == holds[j]:
                break
        out[lo : lo + len(incs)] = np.frombuffer(incs, np.uint8)
        while j < len(holds) and state == holds[j]:  # lane j's re-walk holds
            state = ends[j]
            j += 1
    return state


def _walk_alone(
    table: ArcTable | _Words, alone: _Alone, symbols: list[int], state: int, incs: bytearray
) -> int:
    """Walk ``symbols`` from table state ``state`` one step at a time,
    appending each step's increment to ``incs``, and return the table
    state it ends in.

    ``alone.rows`` misses the arcs filled by lockstep steps since it read
    their rows: an arc it lacks is read from the table, computed there
    first if the table lacks it too."""
    n_sym, rows, arc_incs, states = alone.symbols, alone.rows, alone.incs, alone.states
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
            arc_incs[arc - xi : arc - xi + n_sym] = table.inc[si].tolist()
            row = rows[arc]
        incs.append(arc_incs[arc])
    return states[row // n_sym]


def simulate(
    g: LabeledGraph,
    src: SourceModel,
    n: int,
    seed: int = 0,
    workers: int = 1,
) -> SimResult:
    """Walk n source symbols through the reduced transition and average the
    increments; the standard error comes from batch means (up to 100
    batches). A vertex with no in-edge raises ``GraphStructureError``.

    A walk that closes the graph's arc table keeps the closed arcs until the
    graph is collected; later walks of the graph, or of an equal one, read
    them without building or closing a table."""
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
    sourceless = g.in_edge_arrays.sourceless
    if sourceless is not None:
        raise GraphStructureError(
            f"vertex {g.vertices[sourceless]!r} has no incoming edge; "
            "the walk needs one per vertex"
        )
    bounds, support = source_thresholds(src)
    table = _CLOSED.get(g)
    if table is None:
        # The closure interns at most symbols + 1 times its budget of states; then
        # lanes take at most 3n steps (speculative with padding, verifying at most
        # half a capped lane, walking again), and each step interns at most one state.
        budget = n // _CLOSURE_SHARE
        states = (len(g.alphabet) + 1) * budget + 3 * n
        table = ArcTable(g, np.int32 if states < 2**31 else np.int64)
        report = validate(g)
        if report.strongly_connected and report.aperiodic:
            table.close(exact_path_constant(g), budget)
        if table.closed:
            # drop the vectors and interning dict before copying the arcs off the spare rows
            n_states, succ, inc = len(table), table.succ, table.inc
            del table
            table = _CLOSED[g] = _Words(succ[:n_states].copy(), inc[:n_states].copy())
            del succ, inc
    increments = np.empty(n, dtype=np.uint8)
    ranges = _worker_ranges(n, workers)
    ends = [0] * len(ranges)  # each range starts from the zero state
    for c in range(0, ranges[0][1], _CHUNK):  # the first range is the longest
        chunks = [(lo + c, min(lo + c + _CHUNK, hi)) for lo, hi in ranges if lo + c < hi]
        xss = [symbol_indices(seed, lo, hi, bounds, support) for lo, hi in chunks]
        outs = [increments[lo:hi] for lo, hi in chunks]
        ends[: len(chunks)] = _walk(table, xss, ends[: len(chunks)], outs)

    # np.array_split's batches, r of q + 1 steps and then q, summed exactly
    # (one batch of one step when n = 1); a reduction along rows casts in
    # buffers, where np.add.reduceat would first copy the whole walk to int64.
    batch_count = min(100, n)
    q, r = divmod(n, batch_count)
    head = r * (q + 1)
    heads = increments[:head].reshape(r, q + 1).sum(axis=1, dtype=np.int64)
    tails = increments[head:].reshape(batch_count - r, q).sum(axis=1, dtype=np.int64)
    # the total is below 2^53, so this is the correctly rounded mean
    estimate = (int(heads.sum()) + int(tails.sum())) / n
    if batch_count >= 2:
        means = np.concatenate((heads / (q + 1), tails / q)).tolist()
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
        return 0.0 if diff == 0.0 else copysign(float("inf"), diff)
    return diff / result.stderr
