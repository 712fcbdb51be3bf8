"""Labelled directed multigraphs: parsing, generation, validation, structure.

Graph description format (UTF-8, line oriented, ``#`` starts a comment,
tokens whitespace separated):

    alphabet <sym> <sym> ...     exactly once, first non-comment line
    edge <from> <to> <label>     one per edge

Vertices are declared implicitly on first mention; file order defines both
vertex order and edge order, and edge order is significant (it drives all
tie-breaking downstream).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import GraphFormatError, GraphStructureError, NotPrimitiveError


class Edge(NamedTuple):
    src: str
    dst: str
    label: str


class InEdgeArrays(NamedTuple):
    """The in-edges of every vertex, padded to the largest in-degree D:
    column v of ``src`` holds the source vertices of v's in-edges in edge
    order, and ``cost[x]`` the Hamming cost of each one's label under
    symbol x. A vertex with fewer than D in-edges repeats its last one,
    which cannot change a minimum. ``sourceless`` is the first vertex
    without an in-edge (None when every vertex has one); its column is
    filler, and ``viterbi.advance`` refuses such a graph."""

    src: np.ndarray  # intp, (D, vertices)
    cost: np.ndarray  # uint8, (symbols, D, vertices)
    sourceless: int | None


@dataclass(frozen=True)
class LabeledGraph:
    """Finite directed multigraph with one alphabet symbol per edge.

    Parallel edges are allowed and preserved; vertex, edge and alphabet
    order are exactly as given.
    """

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    alphabet: tuple[str, ...]

    def __post_init__(self):
        if not self.vertices:
            raise GraphStructureError("graph has no vertices")
        if not self.alphabet:
            raise GraphStructureError("graph has no alphabet")
        if len(set(self.vertices)) != len(self.vertices):
            raise GraphStructureError("duplicate vertex id")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise GraphStructureError("duplicate alphabet symbol")
        for kind, names in (("vertex", self.vertices), ("symbol", self.alphabet)):
            bad = [s for s in names if not s or "#" in s or any(map(str.isspace, s))]
            if bad:
                raise GraphStructureError(
                    f"{kind} {bad[0]!r} is not one token of the graph format:"
                    " names must be non-empty, without whitespace or '#'"
                )
        symbols = set(self.alphabet)
        names = set(self.vertices)
        has_out = set()
        for e in self.edges:
            if e.label not in symbols:
                raise GraphStructureError(f"edge label {e.label!r} not in alphabet")
            if e.src not in names or e.dst not in names:
                raise GraphStructureError(f"edge {e} references unknown vertex")
            has_out.add(e.src)
        missing = [v for v in self.vertices if v not in has_out]
        if missing:
            raise GraphStructureError(f"vertex {missing[0]!r} has no outgoing edge")

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @cached_property
    def vertex_index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def symbol_index(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.alphabet)}

    @cached_property
    def incoming_edges(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex: (source vertex index, edge index) pairs, in edge order."""
        inc: list[list[tuple[int, int]]] = [[] for _ in self.vertices]
        vi = self.vertex_index
        for i, e in enumerate(self.edges):
            inc[vi[e.dst]].append((vi[e.src], i))
        return tuple(tuple(pairs) for pairs in inc)

    @cached_property
    def in_edge_arrays(self) -> InEdgeArrays:
        """``incoming_edges`` as the padded arrays of the vectorised cost
        update in ``viterbi``."""
        pairs = self.incoming_edges
        depth = max(map(len, pairs))  # every vertex has an out-edge, so D >= 1
        cols = [p or ((0, 0),) for p in pairs]  # filler for a sourceless vertex
        rows = list(zip(*(p + p[-1:] * (depth - len(p)) for p in cols)))
        sym = self.symbol_index
        labels = np.array([[sym[self.edges[ei].label] for _, ei in r] for r in rows])
        return InEdgeArrays(
            src=np.array([[u for u, _ in r] for r in rows], dtype=np.intp),
            cost=(labels != np.arange(len(self.alphabet))[:, None, None]).astype(np.uint8),
            sourceless=next((v for v, p in enumerate(pairs) if not p), None),
        )

    @cached_property
    def out_edges(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex: edge indices leaving it, in edge order."""
        out: list[list[int]] = [[] for _ in self.vertices]
        vi = self.vertex_index
        for i, e in enumerate(self.edges):
            out[vi[e.src]].append(i)
        return tuple(tuple(ix) for ix in out)

    @cached_property
    def successors(self) -> tuple[tuple[int, ...], ...]:
        """Deduplicated adjacency (vertex indices), parallel edges collapsed."""
        vi = self.vertex_index
        succ: list[set[int]] = [set() for _ in self.vertices]
        for e in self.edges:
            succ[vi[e.src]].add(vi[e.dst])
        return tuple(tuple(sorted(s)) for s in succ)

    @cached_property
    def out_degrees(self) -> tuple[int, ...]:
        return tuple(len(ix) for ix in self.out_edges)


@dataclass(frozen=True)
class ValidationReport:
    strongly_connected: bool
    aperiodic: bool | None  # None when not strongly connected


@dataclass(frozen=True)
class RateInfo:
    """Coding rate of a uniform-out-degree graph.

    ``rate`` is the exact log2 of the out-degree when that is a power of
    two, else None (the out-degree itself stays exact in ``out_degree``).
    """

    out_degree: int
    rate: int | None

    @property
    def approx(self) -> float:
        return math.log2(self.out_degree)


def parse_graph(text: str) -> LabeledGraph:
    """Parse the line-oriented graph description format."""
    alphabet: list[str] | None = None
    edges: list[tuple[str, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "alphabet":
            if alphabet is not None:
                raise GraphFormatError("duplicate alphabet line", lineno)
            if len(tokens) < 2:
                raise GraphFormatError("alphabet line needs at least one symbol", lineno)
            alphabet = tokens[1:]
            if len(set(alphabet)) != len(alphabet):
                raise GraphFormatError("duplicate alphabet symbol", lineno)
        elif tokens[0] == "edge":
            if alphabet is None:
                raise GraphFormatError("alphabet line must come first", lineno)
            if len(tokens) != 4:
                raise GraphFormatError("expected: edge <from> <to> <label>", lineno)
            _, src, dst, label = tokens
            if label not in alphabet:
                raise GraphFormatError(f"unknown label {label!r}", lineno)
            edges.append((src, dst, label))
        else:
            raise GraphFormatError(f"unknown directive {tokens[0]!r}", lineno)

    if alphabet is None:
        raise GraphFormatError("missing alphabet line")
    if not edges:
        raise GraphFormatError("graph has no edges")
    return graph_from_edges(edges, alphabet)


def serialize_graph(g: LabeledGraph) -> str:
    """Emit the description format; parse(serialize(g)) reproduces g exactly."""
    lines = ["alphabet " + " ".join(g.alphabet)]
    lines.extend(f"edge {e.src} {e.dst} {e.label}" for e in g.edges)
    return "\n".join(lines) + "\n"


def graph_from_edges(
    edges: Iterable[tuple[str, str, str]], alphabet: Sequence[str]
) -> LabeledGraph:
    """Build a graph with vertex order = first-mention order in the edge list."""
    vertices: list[str] = []
    seen: set[str] = set()
    es = []
    for src, dst, label in edges:
        for v in (src, dst):
            if v not in seen:
                seen.add(v)
                vertices.append(v)
        es.append(Edge(src, dst, label))
    return LabeledGraph(tuple(vertices), tuple(es), tuple(alphabet))


def strong_components(indptr: Sequence[int], succ: Sequence[int]) -> list[int]:
    """Strongly connected components of the digraph in which vertex v has
    the successors ``succ[indptr[v]:indptr[v + 1]]``, by Pearce's iterative
    algorithm ("A space-efficient algorithm for finding strongly connected
    components", IPL 2016). Returns each vertex's component, numbered in the
    order a depth-first search (roots and successors in the given order)
    completes them: reverse topological order, as Tarjan's algorithm finds
    them.
    """
    n = len(indptr) - 1
    rindex = [0] * n  # DFS index, lowered to a reachable one; n - 1 - component once done
    root = bytearray(n)  # whether rindex[v] is still v's own DFS index
    cursor = list(indptr[:-1])  # each vertex's next successor position
    done: list[int] = []  # visited vertices whose component is still open
    index, c = 1, n - 1
    for r in range(n):
        if rindex[r]:
            continue
        rindex[r], root[r], index = index, 1, index + 1
        work = [r]  # the DFS path
        while work:
            v = work[-1]
            e, end, low = cursor[v], indptr[v + 1], rindex[v]
            while e < end:
                w = succ[e]
                if not rindex[w]:
                    break
                if rindex[w] < low:
                    low, root[v] = rindex[w], 0
                e += 1
            rindex[v], cursor[v] = low, e
            if e < end:  # descend into w; v resumes at this edge once w is done
                rindex[w], root[w], index = index, 1, index + 1
                work.append(w)
                continue
            work.pop()
            if not root[v]:
                done.append(v)
                continue
            index -= 1
            while done and low <= rindex[done[-1]]:
                rindex[done.pop()] = c
                index -= 1
            rindex[v] = c
            c -= 1
    return [n - 1 - x for x in rindex]


def validate(g: LabeledGraph) -> ValidationReport:
    """Structural verdicts: strong connectivity and aperiodicity."""
    n = g.num_vertices
    indptr = [0, *accumulate(map(len, g.successors))]
    sc = max(strong_components(indptr, [w for ws in g.successors for w in ws])) == 0

    aperiodic: bool | None = None
    if sc:
        # period = gcd over edges of (depth[u] + 1 - depth[v]) in a BFS layering
        depth = [-1] * n
        depth[0] = 0
        frontier = [0]
        while frontier:
            nxt = []
            for u in frontier:
                for w in g.successors[u]:
                    if depth[w] == -1:
                        depth[w] = depth[u] + 1
                        nxt.append(w)
            frontier = nxt
        period = 0
        for u in range(n):
            for w in g.successors[u]:
                period = math.gcd(period, depth[u] + 1 - depth[w])
        aperiodic = period == 1

    return ValidationReport(sc, aperiodic)


def exact_path_constant(g: LabeledGraph) -> int:
    """Least k such that every ordered vertex pair is joined by a length-k path.

    Exists iff the graph is strongly connected and aperiodic; the search is
    capped by the Wielandt primitivity bound (n-1)^2 + 1.
    """
    n = g.num_vertices
    rows = [0] * n
    for v in range(n):
        for w in g.successors[v]:
            rows[v] |= 1 << w
    full = (1 << n) - 1
    bound = (n - 1) ** 2 + 1
    # row v of A^(k+1) is the union over successors w of v of row w of A^k
    last = rows
    for k in range(1, bound + 1):
        if all(r == full for r in last):
            return k
        nxt = [0] * n
        for v in range(n):
            acc = 0
            for w in g.successors[v]:
                acc |= last[w]
            nxt[v] = acc
        last = nxt
    raise NotPrimitiveError(
        f"no all-pairs exact path length up to {bound}: "
        "graph is not strongly connected and aperiodic"
    )


def rate_of(g: LabeledGraph) -> RateInfo:
    """Coding rate log2(out-degree); requires uniform out-degree."""
    degs = set(g.out_degrees)
    if len(degs) != 1:
        raise GraphStructureError(
            f"non-uniform out-degree: {sorted(degs)}"
        )
    d = degs.pop()
    rate = d.bit_length() - 1 if d & (d - 1) == 0 else None
    return RateInfo(out_degree=d, rate=rate)


def de_bruijn(order: int, labels: Sequence[str]) -> LabeledGraph:
    """Binary de Bruijn graph on m-bit vertices with the given edge labelling.

    Vertices are the 2^m bit strings in lexicographic order; the edges
    (x1..xm) -> (x2..xm w), w in {0,1}, are taken in (vertex, w) order and
    carry labels[i]. The alphabet is the distinct labels in first-appearance
    order.
    """
    if order < 1:
        raise GraphStructureError("order must be >= 1")
    # the bit length first: 2^(order + 1) would not fit in memory for a large order
    if order >= len(labels).bit_length() or 2 ** (order + 1) != len(labels):
        want = 2 ** (order + 1) if order < 64 else f"2^{order + 1}"
        raise GraphStructureError(
            f"expected {want} labels for order {order}, got {len(labels)}"
        )
    nv = 2**order
    mask = nv - 1
    names = [format(v, f"0{order}b") for v in range(nv)]
    alphabet: list[str] = []
    for lab in labels:
        if lab not in alphabet:
            alphabet.append(lab)
    edges = []
    i = 0
    for v in range(nv):
        for w in (0, 1):
            edges.append(Edge(names[v], names[((v << 1) | w) & mask], labels[i]))
            i += 1
    return LabeledGraph(tuple(names), tuple(edges), tuple(alphabet))


# Bundled labelling of the order-3 graph: out-labels are {a,b} on vertices
# with middle bit 0 and {c,d} on middle bit 1, with the pair order flipped
# between the first-bit halves. This is the 8-vertex demo the CLI ships as
# `gen-debruijn --builtin paper-example`.
DEBRUIJN8_DEMO_LABELS = (
    "a", "b", "b", "a", "c", "d", "d", "c",
    "b", "a", "a", "b", "d", "c", "c", "d",
)


def debruijn8_demo() -> LabeledGraph:
    """The bundled 8-vertex, 16-edge quaternary-alphabet example graph."""
    return de_bruijn(3, DEBRUIJN8_DEMO_LABELS)
