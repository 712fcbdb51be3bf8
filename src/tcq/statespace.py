"""The reduced state vectors and their arc table.

``ArcTable`` is the one interner: it keeps three arrays with one row per
state, ``vectors`` (the state's cost vector), ``succ`` (successor indices)
and ``inc`` (increments), one column per symbol in the last two, and a dict
from the bytes of each state's row to its index. Its core advances a
selection of its rows through ``viterbi.advance`` (every selected state
under every symbol in one numpy call) and interns the successors at the
positions it is given, in (state, symbol) order.

Closing a table runs breadth first from the zero vector over its rows:
the rows not yet advanced are the BFS queue, taken a block at a time, and
every successor of a block is interned, so the discovery order and the arc
table are those of a one-arc-at-a-time search. The closure is finite:
every component of every reachable reduced vector is bounded by the
graph's exact-path constant k. Enumeration closes a table completely;
``StateSpace`` is the closed table's arrays, trimmed to its states and
nothing else: a state's vector is its row, and a vector's index is found by
the bytes of its row, as the table interns it.

A walk closes its table the same way first, but only up to a budget of
states and only on a graph whose space is finite (strongly connected and
aperiodic), so a walk of a space that fits in the budget reads every arc
off the closed table. Past the budget, and on every other graph, the walk
fills the table on demand: it computes a state's arcs when the walk takes
one that is missing and interns only the successors the walk takes, in the
order it first takes them, so a walk of a graph whose space is too large to
enumerate (or that is periodic) interns the closure's states and those it
reaches, no others.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable

import numpy as np

from . import viterbi
from .errors import ComponentBoundError, GraphStructureError, StateSpaceLimitError
from .graph import LabeledGraph, exact_path_constant, validate

_BLOCK = 2048  # queued states that enumeration advances per kernel call


@dataclass(frozen=True, eq=False)
class StateSpace:
    """The enumerated space as arrays: row i of ``vectors`` is state i, in
    discovery order with the zero vector first; ``succ[i, x]`` is the
    successor of state i under symbol index x and ``inc[i, x]`` the
    increment of that arc.

    Two spaces are equal when they have the same graph and k and the same
    vectors and arc table, element by element."""

    graph: LabeledGraph
    k: int
    vectors: np.ndarray = field(repr=False)  # (states, vertices), a dtype holding max(vectors) + 1
    succ: np.ndarray = field(repr=False)  # intp, (states, symbols)
    inc: np.ndarray = field(repr=False)  # uint8, (states, symbols)

    def __len__(self) -> int:
        return len(self.vectors)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateSpace):
            return NotImplemented
        return (self.graph, self.k) == (other.graph, other.k) and all(
            np.array_equal(a, b)
            for a, b in zip((self.vectors, self.succ, self.inc), (other.vectors, other.succ, other.inc))
        )

    def __hash__(self) -> int:
        return hash((self.graph, self.k, len(self)))


def row_keys(a: np.ndarray) -> list[bytes]:
    """The bytes of each row of a 2-D array: the keys that ``ArcTable``
    interns state vectors by, so that two rows of one dtype match when they
    are equal."""
    a = np.ascontiguousarray(a)
    return a.view(np.dtype((np.void, a.shape[1] * a.itemsize))).ravel().tolist()


class ArcTable:
    """Reduced states in the order they are first interned, the zero vector
    first, in ``StateSpace``'s layout: row i of ``vectors`` is state i,
    ``succ[i, x]`` its successor under symbol index x, -1 until the arc is
    computed, and ``inc[i, x]`` that arc's increment, unset until then.
    Rows from ``len(self)`` on are spare capacity, unset but for ``succ``:
    the table has the least power of two of rows that holds its states, so
    its size depends on the state count alone. ``index`` maps the bytes of each state's row to its index.
    ``closed`` is true once ``close`` has advanced every interned row, so
    that every successor of every state is in the table.

    ``vectors`` holds every component plus 1 (see ``viterbi.holding``), as
    ``viterbi.advance`` requires; a successor that reaches the dtype's
    maximum widens it and re-keys ``index``. A graph whose space is
    finite never widens past the dtype holding k + 1, but a periodic one
    can grow without bound."""

    def __init__(self, g: LabeledGraph, index_dtype: type):
        self.graph = g
        self.vectors = np.zeros((1, g.num_vertices), viterbi.holding(0, 1))
        self.succ = np.full((1, len(g.alphabet)), -1, index_dtype)
        self.inc = np.zeros((1, len(g.alphabet)), np.uint8)
        self.index: dict[bytes, int] = {self.vectors[0].tobytes(): 0}
        self._top = np.iinfo(self.vectors.dtype).max
        self.closed = False

    def __len__(self) -> int:
        return len(self.index)

    def fill(self, states: list[int], symbols: list[int]) -> None:
        """Compute every arc of the distinct states among ``states`` in one
        ``viterbi.advance`` call. The successors of the pairs (states[i],
        symbols[i]) are interned in pair order; every other arc is filled
        only if its successor is already interned."""
        rows = list(dict.fromkeys(states))
        if len(rows) == 1:  # a basic index: the kernel and the writes run faster
            self._intern(rows[0], symbols)
        else:
            at = {si: i * self.inc.shape[1] for i, si in enumerate(rows)}
            self._intern(rows, [at[si] + xi for si, xi in zip(states, symbols)])

    def close(self, k: int, limit: int) -> None:
        """Advance this table's rows breadth first from the zero vector,
        every successor interned, until every row is advanced or the table
        holds more than ``limit`` states. The table must have advanced no
        row yet; the rows the closure leaves unadvanced have no arcs, and
        ``closed`` is set if it leaves none. Raises ``ComponentBoundError``
        if a component exceeds k, which signals a bug, not bad input.

        Each kernel call advances F queued states, with F·D·V at most
        ``_BLOCK``·E for V vertices, E edges and largest in-degree D, so its
        (F, symbols, D, V) intermediate is never larger than ``_BLOCK``
        states' (symbols, E) path costs; F is ``_BLOCK`` when every
        in-degree is equal. A closure that stops at ``limit`` advanced at
        most ``limit`` states and interned at most (symbols + 1)·``limit``.
        """
        g = self.graph
        n_sym = len(g.alphabet)
        block = max(1, _BLOCK * len(g.edges) // g.in_edge_arrays.src.size)
        lo = 0
        while lo < len(self) <= limit:  # the rows from lo on are the BFS queue
            hi = min(lo + block, len(self))
            if self._intern(slice(lo, hi), range((hi - lo) * n_sym)) > k:
                # the block's first arc into a vector past k discovered it
                succ = self.succ[lo:hi].ravel()
                pos = int(np.argmax(self.vectors[succ].max(axis=1) > k))
                si, xi = divmod(pos, n_sym)
                raise ComponentBoundError(
                    f"state {tuple(self.vectors[succ[pos]].tolist())} from"
                    f" ({tuple(self.vectors[lo + si].tolist())}, {g.alphabet[xi]!r})"
                    f" exceeds the bound k={k}"
                )
            lo = hi
        self.closed = lo == len(self)

    def _intern(self, sel: int | list[int] | slice, positions: Iterable[int]) -> int:
        """Compute every arc of the states ``sel`` selects in one
        ``viterbi.advance`` call and intern the successors at ``positions``
        (flat indices in (state, symbol) order of the selection), in that
        order. Every other arc is filled only if its successor is already
        interned. Returns the largest component of the successors."""
        t, inc = viterbi.advance(self.graph, self.vectors[sel])
        t = t.reshape(-1, t.shape[-1])  # (state, symbol) order
        top = int(t.max())
        if top >= self._top:  # the next kernel call needs top + 1
            wide = viterbi.holding(0, top + 1)
            self.vectors, t = self.vectors.astype(wide), t.astype(wide)
            self._top = np.iinfo(wide).max
            self.index = {key: i for i, key in enumerate(row_keys(self.vectors[: len(self)]))}
        index = self.index
        n = len(index)
        keys = row_keys(t)
        fresh = []  # rows of t that this call interns
        for pos in positions:
            if keys[pos] not in index:
                index[keys[pos]] = len(index)
                fresh.append(pos)
        if len(index) > len(self.vectors):  # a power of two, whatever the batches
            cap = 1 << (len(index) - 1).bit_length()
            self.vectors = _grown(self.vectors, cap)
            self.succ = _grown(self.succ, cap, -1)
            self.inc = _grown(self.inc, cap)
        if fresh:
            t.take(fresh, axis=0, out=self.vectors[n : len(index)])
        succ = np.fromiter(map(index.get, keys, repeat(-1)), self.succ.dtype, len(keys))
        self.succ[sel] = succ.reshape(inc.shape)
        self.inc[sel] = inc
        return top


def _grown(a: np.ndarray, rows: int, fill: int | None = None) -> np.ndarray:
    """``a`` with rows up to ``rows``; the new rows are set to ``fill``, or
    left unset where a row is written before it is read."""
    out = np.empty((rows,) + a.shape[1:], a.dtype)
    out[: len(a)] = a
    if fill is not None:
        out[len(a) :] = fill
    return out


def enumerate_states(g: LabeledGraph, max_states: int = 10**6) -> StateSpace:
    """Breadth-first closure from the zero vector under the reduced transition.

    Arc order is (state discovery order x alphabet order). Raises if the
    graph is not strongly connected and aperiodic, if the space exceeds
    ``max_states``, or if any component exceeds the exact-path constant
    (the latter signals a bug, not bad input). ``ArcTable.close`` gives
    the block size of its kernel calls.
    """
    report = validate(g)
    if not (report.strongly_connected and report.aperiodic):
        raise GraphStructureError(
            "state-space enumeration requires a strongly connected aperiodic graph"
            f" (strongly_connected={report.strongly_connected},"
            f" aperiodic={report.aperiodic})"
        )
    k = exact_path_constant(g)

    table = ArcTable(g, np.intp)
    table.close(k, max_states)
    if len(table) > max_states:
        raise StateSpaceLimitError(
            f"more than {max_states} states; raise max_states to continue"
        )

    n = len(table)
    return StateSpace(
        graph=g,
        k=k,
        vectors=table.vectors[:n].copy(),
        succ=table.succ[:n].copy(),
        inc=table.inc[:n].copy(),
    )


def format_statespace(ss: StateSpace) -> str:
    """Stable text dump: header, one state per line, then the arc table.

    Arc lines read ``<state-index> <symbol> <successor-index> <increment>``.
    """
    lines = [
        f"vertices: {ss.graph.num_vertices}",
        "alphabet: " + " ".join(ss.graph.alphabet),
        f"k: {ss.k}",
        f"states: {len(ss)}",
    ]
    lines.extend(" ".join(map(str, s)) for s in ss.vectors.tolist())
    lines.append("arcs:")
    symbols = ss.graph.alphabet
    arcs = zip(ss.succ.ravel().tolist(), ss.inc.ravel().tolist())
    for pos, (ti, inc) in enumerate(arcs):
        si, xi = divmod(pos, len(symbols))
        lines.append(f"{si} {symbols[xi]} {ti} {inc}")
    return "\n".join(lines) + "\n"
