"""Hamming distortion, per-symbol best-path cost updates, and a full encoder.

The core object is the vector of minimum accumulated distortions into each
vertex. ``advance`` is the one cost-update kernel, the add-compare-select
step of a trellis decoder: for a stack of such vectors it takes, for every
vertex and symbol at once, the minimum over the vertex's in-edges of source
cost plus label cost (one numpy ``minimum.reduce`` over the in-edge axis of
the graph's ``in_edge_arrays``, padded to the largest in-degree), then
subtracts each new vector's minimum component. That keeps the vectors
bounded and returns the subtracted amount as the per-step distortion
increment (always 0 or 1 for Hamming distortion). ``statespace.ArcTable``
runs it on a selection of its rows, a block of the BFS queue for state
enumeration and the states that missed an arc for the Monte Carlo walk;
``reduced_transition`` runs it on one vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InstanceTooLargeError
from .graph import LabeledGraph

StateVector = tuple[int, ...]


@dataclass(frozen=True)
class EncodingResult:
    path: tuple[int, ...]  # edge indices, in graph edge order
    labels: tuple[str, ...]
    total_distortion: int


def holding(lo: int, hi: int) -> type | np.dtype:
    """An integer dtype that holds every value in [lo, hi] (Python ints past
    64 bits)."""
    if lo >= 0 and hi <= 255:
        return np.uint8
    dt = np.result_type(np.min_scalar_type(lo), np.min_scalar_type(hi))
    return dt if dt.kind in "iu" else object


def advance(g: LabeledGraph, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced successors of cost vectors under every symbol: the transition
    kernel.

    ``states`` is one vector (V,) or a stack (F, V), in a dtype that holds
    each component plus 1 (see ``holding``). Returns ``t``, every successor
    with its minimum subtracted, and ``inc``, the subtracted minima: of shape
    (symbols, V) and (symbols,) for one vector, (F, symbols, V) and
    (F, symbols) for a stack.
    """
    tab = g.in_edge_arrays
    if tab.sourceless is not None:
        raise ValueError(
            f"vertex {g.vertices[tab.sourceless]!r} has no incoming edge; "
            "cost updates need one per vertex"
        )
    # (..., symbols, D, V): every in-edge's path cost
    t = np.minimum.reduce(states[..., None, tab.src] + tab.cost, axis=-2)
    inc = np.minimum.reduce(t, axis=-1, keepdims=True)
    t -= inc
    return t, inc[..., 0]


def reduced_transition(g: LabeledGraph, s: StateVector, x: str) -> tuple[StateVector, int]:
    """``advance`` on one reduced state s, read at symbol x: the reduced
    successor and the subtracted minimum, the increment."""
    if min(s) != 0:
        raise ValueError("state vector is not reduced (minimum component != 0)")
    if len(s) != g.num_vertices:
        raise ValueError("state vector length does not match vertex count")
    xi = g.symbol_index.get(x)
    if xi is None:
        raise ValueError(f"symbol {x!r} not in alphabet")
    t, inc = advance(g, np.array(s, dtype=holding(0, max(s) + 1)))
    return tuple(t[xi].tolist()), int(inc[xi])


def encode(g: LabeledGraph, xs: Sequence[str]) -> EncodingResult:
    """Minimum-Hamming-distortion path of length len(xs), any start vertex.

    Ties are broken deterministically: at every stage the lowest incoming
    edge index wins, and the final vertex is the lowest-index minimizer.
    """
    if not xs:
        raise ValueError("cannot encode an empty sequence")
    sym = g.symbol_index
    for x in xs:
        if x not in sym:
            raise ValueError(f"symbol {x!r} not in alphabet")

    n = g.num_vertices
    unreachable = len(xs) + 1  # exceeds any attainable total distortion
    cost = [0] * n
    back: list[list[int]] = []  # per step, per vertex: chosen edge index
    for x in xs:
        new_cost = [unreachable] * n
        choice = [-1] * n
        for v, pairs in enumerate(g.incoming_edges):
            best = unreachable
            best_edge = -1
            for u, ei in pairs:
                c = cost[u] + (0 if g.edges[ei].label == x else 1)
                if c < best:
                    best = c
                    best_edge = ei
            new_cost[v] = best
            choice[v] = best_edge
        cost = new_cost
        back.append(choice)

    final = min(range(n), key=cost.__getitem__)
    path_rev = []
    v = final
    vi = g.vertex_index
    for choice in reversed(back):
        ei = choice[v]
        path_rev.append(ei)
        v = vi[g.edges[ei].src]
    path = tuple(reversed(path_rev))
    labels = tuple(g.edges[ei].label for ei in path)
    return EncodingResult(path, labels, cost[final])


def count_paths(g: LabeledGraph, length: int) -> int:
    """Exact number of directed paths of the given length (any start)."""
    counts = [1] * g.num_vertices
    vi = g.vertex_index
    for _ in range(length):
        nxt = [0] * g.num_vertices
        for e in g.edges:
            nxt[vi[e.src]] += counts[vi[e.dst]]
        counts = nxt
    return sum(counts)


def brute_force_min(
    g: LabeledGraph, xs: Sequence[str], max_paths: int = 10**7
) -> int:
    """Minimum total distortion by explicit enumeration of every path.

    Independent of the dynamic-programming encoder; guarded by a cap on the
    number of paths to enumerate.
    """
    if not xs:
        raise ValueError("cannot encode an empty sequence")
    n_paths = count_paths(g, len(xs))
    if n_paths > max_paths:
        raise InstanceTooLargeError(
            f"{n_paths} paths of length {len(xs)} exceed the cap {max_paths}"
        )
    vi = g.vertex_index
    out = g.out_edges
    n = len(xs)
    best = n + 1
    # DFS over (vertex, depth, accumulated cost)
    for start in range(g.num_vertices):
        stack = [(start, 0, 0)]
        while stack:
            v, depth, acc = stack.pop()
            if depth == n:
                if acc < best:
                    best = acc
                continue
            if acc >= best:
                # a full traversal cannot beat `best`; costs only grow
                continue
            x = xs[depth]
            for ei in out[v]:
                e = g.edges[ei]
                stack.append((vi[e.dst], depth + 1, acc + (0 if e.label == x else 1)))
    return best
