"""The reduced state vectors and their arc table.

Enumeration is a breadth-first closure from the zero vector: it advances the
BFS queue a block of states at a time through ``viterbi.advance`` (every
state of the block under every symbol in one numpy call) and interns the
successors in (state, symbol) order, each by the bytes of its array row, so
the discovery order and the arc table are those of a one-arc-at-a-time
search. The closure is finite: every component of every reachable reduced
vector is bounded by the graph's exact-path constant k. The space is kept as
three arrays with one row per state: ``StateSpace.vectors`` (the queue
itself), ``StateSpace.succ`` (successor indices) and ``StateSpace.inc``
(increments), one column per symbol in the last two. Nothing else is kept:
a state's vector is its row, and a vector's index is found by the bytes of
its row, as enumeration interns it.

``Explorer`` interns reduced vectors lazily, in the order a walk first takes
them; Monte Carlo drives it along the sampled walk. A state's first miss
computes one arc through ``viterbi.reduced_transition``; a second miss at the
same state runs ``viterbi.advance`` once for every symbol and keeps the
successors as one compact block until that state's row is full. Successors
in a block are not interned until the walk takes them, so a walk interns
only the states it visits and a block costs symbols x (vertices + 1) bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import viterbi
from .errors import ComponentBoundError, GraphStructureError, StateSpaceLimitError
from .graph import LabeledGraph, exact_path_constant, validate
from .viterbi import StateVector

Arc = tuple[int, int]  # (successor state index, increment in {0,1})

_BLOCK = 2048  # queued states that enumeration advances per kernel call


class Explorer:
    """Reduced states of one graph, interned in discovery order with the
    zero vector first (``index`` maps a vector to its position). ``rows[i][xi]``
    is the arc of state i under symbol xi, None until ``arc`` computes it.

    ``blocks[i]`` holds every successor of state i, computed at its second
    miss and kept until its row is full: the increments (one per symbol)
    followed by the successor vectors, in symbol order, as ``bytes`` when
    the kernel's rows are uint8 (a list of ints otherwise). A block holds
    symbols x (vertices + 1) bytes; an interned state (its vector, row and
    index entry) costs about twice a block with its dict entry (438 against
    212 bytes on a 100,000-step order-5 quaternary walk).
    """

    def __init__(self, g: LabeledGraph):
        self.graph = g
        zero = viterbi.zero_state(g)
        self.states: list[StateVector] = [zero]
        self.index: dict[StateVector, int] = {zero: 0}
        self.rows: list[list[Arc | None]] = [[None] * len(g.alphabet)]
        self.blocks: dict[int, bytes | list[int]] = {}

    def arc(self, si: int, xi: int) -> Arc:
        """Compute, memoize and return the arc of state si under symbol xi.

        A state's first miss computes that one arc through
        ``viterbi.reduced_transition``; its next miss expands every symbol
        in one ``viterbi.advance`` call into ``blocks[si]``, which later
        misses read. Only the successor asked for is interned, so states
        are numbered in the order the caller first takes them.
        """
        g = self.graph
        row = self.rows[si]
        if not any(row):
            nxt, inc = viterbi.reduced_transition(g, self.states[si], g.alphabet[xi])
        else:
            block = self.blocks.get(si)
            if block is None:
                s = self.states[si]
                t, incs = viterbi.advance(g, np.array(s, dtype=viterbi.holding(0, max(s) + 1)))
                if t.dtype == np.uint8:
                    block = incs.tobytes() + t.tobytes()
                else:
                    block = incs.tolist() + t.ravel().tolist()
                self.blocks[si] = block
            if row.count(None) == 1:  # this arc fills the row
                del self.blocks[si]
            v = g.num_vertices
            lo = len(row) + xi * v
            nxt, inc = tuple(block[lo : lo + v]), block[xi]
        ti = self.index.get(nxt)
        if ti is None:
            ti = len(self.states)
            self.index[nxt] = ti
            self.states.append(nxt)
            self.rows.append([None] * len(g.alphabet))
        entry = (ti, inc)
        row[xi] = entry
        return entry


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
    vectors: np.ndarray = field(repr=False)  # (states, vertices), a dtype holding k + 1
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
    """The bytes of each row of a 2-D array: the keys that enumeration interns
    state vectors by, so that two rows of one dtype match when they are equal."""
    a = np.ascontiguousarray(a)
    return a.view(np.dtype((np.void, a.shape[1] * a.itemsize))).ravel().tolist()


def enumerate_states(g: LabeledGraph, max_states: int = 10**6) -> StateSpace:
    """Breadth-first closure from the zero vector under the reduced transition.

    Arc order is (state discovery order x alphabet order). Raises if the
    graph is not strongly connected and aperiodic, if the space exceeds
    ``max_states``, or if any component exceeds the exact-path constant
    (the latter signals a bug, not bad input).

    Each kernel call advances F queued states, with F·D·V at most
    ``_BLOCK``·E for V vertices, E edges and largest in-degree D, so its
    (F, symbols, D, V) intermediate is never larger than ``_BLOCK`` states'
    (symbols, E) path costs; F is ``_BLOCK`` when every in-degree is equal.
    """
    report = validate(g)
    if not (report.strongly_connected and report.aperiodic):
        raise GraphStructureError(
            "state-space enumeration requires a strongly connected aperiodic graph"
            f" (strongly_connected={report.strongly_connected},"
            f" aperiodic={report.aperiodic})"
        )
    k = exact_path_constant(g)

    n_sym = len(g.alphabet)
    n_vert = g.num_vertices
    block = max(1, _BLOCK * len(g.edges) // g.in_edge_arrays.src.size)
    # The queue's vectors as array rows in discovery order, in a dtype that
    # holds k + 1 (an integer one: k <= (V - 1)^2 + 1), interned by the bytes
    # of their rows.
    queue = np.zeros((1, n_vert), dtype=viterbi.holding(0, k + 1))
    index: dict[bytes, int] = {queue[0].tobytes(): 0}
    succ_all: list[int] = []  # successor indices in (state, symbol) order
    inc_blocks: list[np.ndarray] = []
    lo = 0
    while lo < len(index):
        hi = min(lo + block, len(index))
        t, inc = viterbi.advance(g, queue[lo:hi])
        rows = t.reshape(-1, n_vert)
        over_k = rows.max() > k
        keys = row_keys(rows)  # (state, symbol) order
        succ = list(map(index.get, keys))  # the misses are interned below, in order
        fresh = []  # positions in rows of the states this block discovers
        for pos in [pos for pos, ti in enumerate(succ) if ti is None]:
            key = keys[pos]
            ti = index.get(key)  # interned earlier in this block
            if ti is None:
                ti = len(index)
                index[key] = ti
                fresh.append(pos)
                if over_k and rows[pos].max() > k:
                    si, xi = divmod(pos, n_sym)
                    raise ComponentBoundError(
                        f"state {tuple(rows[pos].tolist())} from"
                        f" ({tuple(queue[lo + si].tolist())}, {g.alphabet[xi]!r})"
                        f" exceeds the bound k={k}"
                    )
                if ti >= max_states:
                    raise StateSpaceLimitError(
                        f"more than {max_states} states; raise max_states to continue"
                    )
            succ[pos] = ti
        succ_all += succ
        inc_blocks.append(inc)
        n = len(index)
        if n > len(queue):
            grown = np.empty((2 * n, n_vert), queue.dtype)
            grown[: len(queue)] = queue
            queue = grown
        queue[n - len(fresh) : n] = rows[fresh]
        lo = hi

    return StateSpace(
        graph=g,
        k=k,
        vectors=queue[: len(index)],
        succ=np.array(succ_all, dtype=np.intp).reshape(-1, n_sym),
        inc=np.concatenate(inc_blocks).astype(np.uint8),
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
