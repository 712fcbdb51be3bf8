from __future__ import annotations

import random
import re
from itertools import accumulate

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_code_graph
from oracles import tarjan_components
from tcq import (
    Edge,
    GraphFormatError,
    GraphStructureError,
    LabeledGraph,
    NotPrimitiveError,
    de_bruijn,
    debruijn8_demo,
    exact_path_constant,
    graph_from_edges,
    parse_graph,
    rate_of,
    serialize_graph,
    validate,
)
from tcq.graph import strong_components

G3_TEXT = """\
alphabet a b
edge v1 v1 a
edge v1 v2 b
edge v2 v1 a
edge v2 v2 a
"""


def test_parse_basic():
    g = parse_graph(G3_TEXT)
    assert g.vertices == ("v1", "v2")
    assert g.alphabet == ("a", "b")
    assert g.edges[1] == Edge("v1", "v2", "b")
    assert g.num_vertices == 2


def test_parse_comments_and_blank_lines():
    text = "# header\n\nalphabet a  # trailing\n# mid\nedge v v a\n\n"
    g = parse_graph(text)
    assert g.vertices == ("v",)
    assert g.alphabet == ("a",)


def test_vertex_order_is_first_mention_order():
    g = parse_graph("alphabet a\nedge x y a\nedge y z a\nedge z x a\n")
    assert g.vertices == ("x", "y", "z")


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("edge v v a\n", "alphabet line must come first"),
        ("alphabet a\nalphabet b\nedge v v a\n", "duplicate alphabet"),
        ("alphabet a a\nedge v v a\n", "duplicate alphabet symbol"),
        ("alphabet\nedge v v a\n", "at least one symbol"),
        ("alphabet a\nedge v v\n", "expected: edge"),
        ("alphabet a\nedge v v b\n", "unknown label"),
        ("alphabet a\nvertex v\n", "unknown directive"),
        ("alphabet a\n", "no edges"),
        ("", "missing alphabet"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(GraphFormatError, match=fragment):
        parse_graph(text)


def test_parse_error_carries_line_number():
    with pytest.raises(GraphFormatError, match="line 3"):
        parse_graph("alphabet a\nedge v v a\nedge v v b\n")


def test_structure_errors():
    with pytest.raises(GraphStructureError, match="no outgoing edge"):
        parse_graph("alphabet a\nedge v w a\n")
    with pytest.raises(GraphStructureError, match="duplicate vertex id"):
        LabeledGraph(("v", "v"), (Edge("v", "v", "a"),), ("a",))
    with pytest.raises(GraphStructureError, match="unknown vertex"):
        LabeledGraph(("v",), (Edge("v", "w", "a"),), ("a",))
    with pytest.raises(GraphStructureError, match="not in alphabet"):
        LabeledGraph(("v",), (Edge("v", "v", "x"),), ("a",))


def test_roundtrip_shipped_example():
    g = debruijn8_demo()
    assert parse_graph(serialize_graph(g)) == g


@given(st.integers(0, 10**9))
def test_roundtrip_random_graphs(seed):
    g = random_code_graph(random.Random(seed))
    assert parse_graph(serialize_graph(g)) == g


@pytest.mark.parametrize("bad", ["", "v w", "v\tw", "v\u2028w", "#", "v#1"])
def test_names_the_format_cannot_hold_are_refused(bad):
    with pytest.raises(GraphStructureError, match=re.escape(f"vertex {bad!r} is not one token")):
        LabeledGraph((bad,), (Edge(bad, bad, "a"),), ("a",))
    with pytest.raises(GraphStructureError, match=re.escape(f"symbol {bad!r} is not one token")):
        LabeledGraph(("v",), (Edge("v", "v", bad),), (bad,))


@given(
    st.lists(st.text(max_size=3), min_size=1, max_size=3, unique=True),
    st.lists(st.text(max_size=3), min_size=1, max_size=3, unique=True),
)
def test_roundtrip_holds_for_every_accepted_name(vertices, symbols):
    """A graph that LabeledGraph accepts, whatever its names, reads back
    from its serialized form as itself."""
    # a ring through the vertices in order, so that parsing keeps that order
    ring = zip(vertices, vertices[1:] + vertices[:1])
    edges = tuple(Edge(v, w, symbols[i % len(symbols)]) for i, (v, w) in enumerate(ring))
    try:
        g = LabeledGraph(tuple(vertices), edges, tuple(symbols))
    except GraphStructureError:
        assert any(not s or "#" in s or any(c.isspace() for c in s) for s in vertices + symbols)
        return
    assert parse_graph(serialize_graph(g)) == g


def _to_networkx(g: LabeledGraph) -> nx.MultiDiGraph:
    h = nx.MultiDiGraph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from((e.src, e.dst) for e in g.edges)
    return h


@given(st.integers(0, 10**9))
def test_validate_matches_networkx(seed):
    # unfiltered random graphs, connected or not
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    alphabet = ("a", "b")
    edges = []
    for v in range(n):
        for _ in range(rng.randint(1, 3)):
            edges.append((f"v{v}", f"v{rng.randrange(n)}", rng.choice(alphabet)))
    g = graph_from_edges(edges, alphabet)
    h = _to_networkx(g)
    report = validate(g)
    assert report.strongly_connected == nx.is_strongly_connected(h)
    if report.strongly_connected:
        assert report.aperiodic == nx.is_aperiodic(h)
    else:
        assert report.aperiodic is None


@given(st.integers(0, 10**9))
def test_strong_components_match_tarjan(seed):
    """Pearce's components over CSR lists are Tarjan's, in Tarjan's order,
    on random digraphs with self-loops, parallel arcs and sinks."""
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    adj = [sorted(rng.randrange(n) for _ in range(rng.randint(0, 3))) for _ in range(n)]
    indptr = [0, *accumulate(map(len, adj))]
    comp = strong_components(indptr, [w for ws in adj for w in ws])
    expected = tarjan_components(n, adj)
    assert sorted(set(comp)) == list(range(len(expected)))
    for c, members in enumerate(expected):
        assert {v for v in range(n) if comp[v] == c} == set(members)


def test_validate_out_degree_profile(g3):
    assert rate_of(g3).out_degree == 2
    g = parse_graph("alphabet a\nedge v w a\nedge w v a\nedge w w a\n")
    with pytest.raises(GraphStructureError, match=r"non-uniform out-degree: \[1, 2\]"):
        rate_of(g)


def _epc_oracle(g: LabeledGraph) -> int | None:
    """Matrix powering over booleans via networkx adjacency."""
    a = nx.to_numpy_array(_to_networkx(g)) > 0
    power = a.copy()
    for k in range(1, (g.num_vertices - 1) ** 2 + 2):
        if power.all():
            return k
        power = (power @ a) > 0
    return None


def test_exact_path_constant_demo():
    assert exact_path_constant(debruijn8_demo()) == 3


def test_exact_path_constant_single_vertex():
    g = parse_graph("alphabet a\nedge v v a\n")
    assert exact_path_constant(g) == 1


@given(st.integers(0, 10**9))
def test_exact_path_constant_matches_oracle(seed):
    g = random_code_graph(random.Random(seed))
    assert exact_path_constant(g) == _epc_oracle(g)


def test_exact_path_constant_rejects_periodic():
    g = parse_graph("alphabet a\nedge v w a\nedge w v a\n")
    with pytest.raises(NotPrimitiveError):
        exact_path_constant(g)


def test_rate_of(g3):
    info = rate_of(g3)
    assert (info.out_degree, info.rate) == (2, 1)
    assert info.approx == 1.0
    g = parse_graph(
        "alphabet a\nedge v v a\nedge v w a\nedge w v a\nedge w w a\n"
        "edge v w a\nedge w w a\n"
    )
    info = rate_of(g)  # out-degree 3: exact bit rate undefined
    assert (info.out_degree, info.rate) == (3, None)
    assert abs(info.approx - 1.584962500721156) < 1e-12
    with pytest.raises(GraphStructureError, match="non-uniform"):
        rate_of(parse_graph("alphabet a\nedge v w a\nedge w v a\nedge w w a\n"))


def test_de_bruijn_order1():
    g = de_bruijn(1, ("a", "b", "a", "b"))
    assert g.vertices == ("0", "1")
    assert g.edges == (
        Edge("0", "0", "a"),
        Edge("0", "1", "b"),
        Edge("1", "0", "a"),
        Edge("1", "1", "b"),
    )
    assert g.alphabet == ("a", "b")


def test_de_bruijn_structure_order3():
    g = debruijn8_demo()
    assert g.num_vertices == 8
    assert len(g.edges) == 16
    assert g.alphabet == ("a", "b", "c", "d")
    # shift-register successors: x1x2x3 -> x2x3w
    for e in g.edges:
        assert e.dst == e.src[1:] + e.dst[-1]
    # every vertex has exactly two out-edges with distinct labels
    for v, eis in zip(g.vertices, g.out_edges):
        labs = {g.edges[ei].label for ei in eis}
        assert len(eis) == 2 and len(labs) == 2


def test_de_bruijn_bad_label_count():
    with pytest.raises(GraphStructureError, match="expected 16 labels"):
        de_bruijn(3, tuple("abc"))
    with pytest.raises(GraphStructureError, match="order must be >= 1"):
        de_bruijn(0, ("a", "b"))
