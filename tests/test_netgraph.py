import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from citeclass import (
    FlowMatrix,
    Layout,
    LayoutParams,
    ParseError,
    Partition,
    ValidationError,
    build_flow_graph,
    detect_communities,
    export_graph,
    linlog_layout,
    load_graph,
    modularity,
)
from citeclass.netgraph import FORMATS, FlowGraph, GraphEdge, GraphNode, _distances, _energy, _gradient, _pairs
from conftest import partitions


def graph_from_edges(edges, nodes=None):
    """Undirected weighted graph from (u, v, w) triples."""
    if nodes is None:
        nodes = sorted({u for u, _, _ in edges} | {v for _, v, _ in edges})
    gnodes = [GraphNode(n, 1.0) for n in nodes]
    gedges = [GraphEdge(u, v, w) for u, v, w in edges]
    return FlowGraph(gnodes, gedges)


def two_triangles():
    # two triangles joined by one bridge edge
    e = [
        ("a1", "a2", 1.0), ("a2", "a3", 1.0), ("a1", "a3", 1.0),
        ("b1", "b2", 1.0), ("b2", "b3", 1.0), ("b1", "b3", 1.0),
        ("a3", "b1", 1.0),
    ]
    return graph_from_edges(e)


def test_build_flow_graph_from_matrix():
    m = FlowMatrix(
        "area", 10,
        {"X": 4.0, "Y": 6.0}, {"X": 5.0, "Y": 5.0}, {"X": 4.0, "Y": 5.0},
        {("Y", "X"): 1.0, ("X", "Y"): 1e-9},
    )
    g = build_flow_graph(m, epsilon=1e-6)
    assert g.node_codes() == ["X", "Y"]
    # node size comes from the destination system
    assert {n.class_code: n.size for n in g.nodes} == {"X": 5.0, "Y": 5.0}
    assert [(e.source, e.target, e.weight) for e in g.edges] == [("Y", "X", 1.0)]


def test_build_flow_graph_drops_self_loops_keeps_nodes():
    m = FlowMatrix("area", 1, {"X": 1.0}, {"X": 1.0}, {"X": 1.0}, {("X", "X"): 0.5})
    g = build_flow_graph(m)
    assert g.node_codes() == ["X"]
    assert g.edges == []


def test_build_flow_graph_rejects_empty_matrix():
    m = FlowMatrix("area", 0, {}, {}, {}, {})
    with pytest.raises(ValidationError):
        build_flow_graph(m)


def test_modularity_two_triangles():
    g = two_triangles()
    part = {"a1": 0, "a2": 0, "a3": 0, "b1": 1, "b2": 1, "b3": 1}
    assert modularity(g, part) == pytest.approx(6.0 / 7.0 - 0.5, abs=1e-12)


def test_modularity_single_community_is_zero():
    g = two_triangles()
    part = {c: 0 for c in g.node_codes()}
    assert modularity(g, part) == pytest.approx(0.0, abs=1e-12)


def test_modularity_rejects_partial_partition():
    g = two_triangles()
    with pytest.raises(ValidationError):
        modularity(g, {"a1": 0})


def test_detect_two_triangles():
    g = two_triangles()
    part = detect_communities(g)
    groups = {}
    for code, cid in part.community.items():
        groups.setdefault(cid, set()).add(code)
    assert sorted(groups.values(), key=sorted) == [
        {"a1", "a2", "a3"}, {"b1", "b2", "b3"},
    ]
    assert part.q == pytest.approx(6.0 / 7.0 - 0.5, abs=1e-9)
    # reported q matches an independent recomputation
    assert part.q == pytest.approx(modularity(g, part.community), abs=1e-12)


def test_detect_community_ids_are_dense_and_ordered():
    g = two_triangles()
    part = detect_communities(g)
    ids = sorted(set(part.community.values()))
    assert ids == list(range(len(ids)))
    # community 0 contains the lexicographically first node
    assert part.community["a1"] == 0


def test_detect_deterministic_across_runs():
    g = two_triangles()
    p1 = detect_communities(g)
    p2 = detect_communities(g)
    assert p1.community == p2.community
    assert p1.q == p2.q


def brute_force_best_q(graph):
    best = -1.0
    for part in partitions(graph.node_codes()):
        q = modularity(graph, {n: i for i, block in enumerate(part) for n in block})
        best = max(best, q)
    return best


def test_detect_never_beats_brute_force():
    rng = np.random.default_rng(12345)
    for trial in range(50):
        n = int(rng.integers(3, 8))
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    edges.append((f"n{i}", f"n{j}", float(rng.integers(1, 4))))
        if not edges:
            continue
        g = graph_from_edges(edges)
        part = detect_communities(g)
        assert part.q <= brute_force_best_q(g) + 1e-9
        assert part.q == pytest.approx(modularity(g, part.community), abs=1e-9)


def greedy_reference(graph):
    """Plain-loop greedy merging over a dict of dicts: the merge rule of
    detect_communities, with the same adds in the same order."""
    codes = graph.node_codes()
    idx = {c: i for i, c in enumerate(codes)}
    sym = {}
    for edge in graph.edges:
        i, j = idx[edge.source], idx[edge.target]
        if i != j:
            key = (min(i, j), max(i, j))
            sym[key] = sym.get(key, 0.0) + edge.weight
    two_m = 2.0 * math.fsum(sym.values())
    if two_m <= 0.0:
        return {c: i for i, c in enumerate(codes)}, 0.0
    e = {i: {} for i in range(len(codes))}
    a = [0.0] * len(codes)
    for (i, j), w in sym.items():
        e[i][j] = e[j][i] = w / two_m
        a[i] += w / two_m
        a[j] += w / two_m
    members = {i: [i] for i in range(len(codes))}
    q = -math.fsum(ai * ai for ai in a)
    while True:
        best_dq, best = 0.0, None
        for i in sorted(members):
            for j in sorted(k for k in e[i] if k > i):
                dq = 2.0 * (e[i][j] - a[i] * a[j])
                if dq > best_dq:
                    best_dq, best = dq, (i, j)
        if best is None:
            break
        i, j = best
        q += best_dq
        members[i].extend(members.pop(j))
        a[i] += a[j]
        for k, w in e.pop(j).items():
            del e[k][j]
            if k != i:
                e[i][k] = e[i].get(k, 0.0) + w
                e[k][i] = e[k].get(i, 0.0) + w
    community = {}
    for new_id, old_id in enumerate(sorted(members, key=lambda c: min(members[c]))):
        for node in members[old_id]:
            community[codes[node]] = new_id
    return community, q


def random_directed_graph(rng, weights):
    n = int(rng.integers(2, 41))
    density = rng.uniform(0.05, 0.6)
    edges = []
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < density:
                w = {"unit": 1.0, "small": float(rng.integers(1, 4)),
                     "real": float(rng.uniform(0.01, 5.0))}[weights]
                edges.append(GraphEdge(f"n{i:02d}", f"n{j:02d}", w))
    return FlowGraph([GraphNode(f"n{i:02d}", 1.0) for i in range(n)], edges)


@pytest.mark.parametrize("weights", ["unit", "small", "real"])
def test_detect_matches_greedy_reference(weights):
    # unit and small-integer weights make exact dQ ties common, so the tie
    # rule and the order a is summed in both decide the partition
    rng = np.random.default_rng({"unit": 71, "small": 72, "real": 73}[weights])
    for trial in range(150):
        g = random_directed_graph(rng, weights)
        part = detect_communities(g)
        community, q = greedy_reference(g)
        assert part.community == community, f"trial {trial}"
        assert part.q == q, f"trial {trial}"


def test_layout_deterministic():
    g = two_triangles()
    params = LayoutParams(iterations=80, step=0.1, seed=3)
    l1 = linlog_layout(g, params)
    l2 = linlog_layout(g, params)
    assert l1.positions == l2.positions
    assert l1.final_energy == l2.final_energy


def test_layout_energy_monotone():
    g = two_triangles()
    layout = linlog_layout(g, LayoutParams(iterations=120, step=0.1, seed=5))
    trace = layout.energy_trace
    assert len(trace) >= 2
    for prev, cur in zip(trace, trace[1:]):
        assert cur <= prev + 1e-9


def test_layout_two_nodes_unit_distance():
    g = graph_from_edges([("u", "v", 1.0)])
    layout = linlog_layout(g, LayoutParams(iterations=400, step=0.1, seed=1))
    (x1, y1), (x2, y2) = layout.positions["u"], layout.positions["v"]
    d = math.hypot(x1 - x2, y1 - y2)
    # minimum of w*d - ln d sits at d = 1 for the node-repulsion variant
    # with unit degrees
    assert abs(d - 1.0) <= 1e-3


def test_layout_edge_variant_differs():
    g = two_triangles()
    node = linlog_layout(g, LayoutParams(iterations=60, step=0.1, seed=2, variant="node"))
    edge = linlog_layout(g, LayoutParams(iterations=60, step=0.1, seed=2, variant="edge"))
    assert node.positions != edge.positions


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(777)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(3, 7))
        w = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.7:
                    w[i, j] = w[j, i] = float(rng.uniform(0.5, 2.0))
        if w.sum() == 0:
            continue
        deg = w.sum(axis=1)
        rep = np.outer(deg, deg)
        np.fill_diagonal(rep, 0.0)
        att, reps = _pairs(w), _pairs(rep)
        x = rng.uniform(-1, 1, size=(n, 2))
        g = _gradient(x, _distances(x), w, rep)
        h = 1e-6
        num = np.zeros_like(x)
        for i in range(n):
            for k in range(2):
                xp, xm = x.copy(), x.copy()
                xp[i, k] += h
                xm[i, k] -= h
                num[i, k] = (_energy(_distances(xp), att, reps)
                             - _energy(_distances(xm), att, reps)) / (2 * h)
        scale = max(np.abs(num).max(), 1.0)
        rel = np.abs(g - num).max() / scale
        worst = max(worst, rel)
    assert worst <= 1e-4


def test_export_import_json(tmp_path):
    g = two_triangles()
    part = detect_communities(g)
    layout = linlog_layout(g, LayoutParams(iterations=50, step=0.1, seed=9))
    p = tmp_path / "g.json"
    export_graph(g, part, layout, "json", str(p))
    g2, comm, pos = load_graph(str(p), "json")
    assert set(g2.node_codes()) == set(g.node_codes())
    assert comm == part.community
    for code, (x, y) in layout.positions.items():
        assert pos[code] == pytest.approx((x, y))


def test_export_import_graphml(tmp_path):
    g = two_triangles()
    part = detect_communities(g)
    layout = linlog_layout(g, LayoutParams(iterations=50, step=0.1, seed=9))
    p = tmp_path / "g.graphml"
    export_graph(g, part, layout, "graphml", str(p))
    g2, comm, pos = load_graph(str(p), "graphml")
    assert set(g2.node_codes()) == set(g.node_codes())
    assert len(g2.edges) == len(g.edges)
    assert comm == part.community
    for code, (x, y) in layout.positions.items():
        assert pos[code] == pytest.approx((x, y))


def test_export_rejects_unknown_format(tmp_path):
    g = two_triangles()
    part = detect_communities(g)
    layout = linlog_layout(g, LayoutParams(iterations=10, step=0.1, seed=9))
    with pytest.raises(ValidationError):
        export_graph(g, part, layout, "bogus", str(tmp_path / "g.x"))


def test_export_bytes_stable(tmp_path):
    g = two_triangles()
    part = detect_communities(g)
    layout = linlog_layout(g, LayoutParams(iterations=50, step=0.1, seed=9))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    export_graph(g, part, layout, "json", str(p1))
    export_graph(g, part, layout, "json", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


# class codes with XML-special, non-ASCII and the three whitespace control
# characters; left out are the other control characters (XML 1.0 forbids the
# C0 ones), surrogates (not UTF-8) and unassigned code points (U+FFFE, U+FFFF)
CODES = st.text(st.one_of(st.sampled_from("\"<>&'\t\n\r"),
                          st.characters(blacklist_categories=("Cc", "Cs", "Cn"))), min_size=1, max_size=6)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def exported_graphs(draw):
    """A graph with its partition and layout, drawn with awkward codes and
    finite numbers, and nodes and edges in any order."""
    codes = draw(st.lists(CODES, min_size=1, max_size=6, unique=True))
    nodes = [GraphNode(c, draw(FINITE)) for c in codes]
    pairs = draw(st.lists(st.tuples(st.sampled_from(codes), st.sampled_from(codes)), max_size=10, unique=True))
    edges = [GraphEdge(i, j, draw(FINITE)) for i, j in pairs]
    community = {c: draw(st.integers(0, 5)) for c in codes}
    positions = {c: (draw(FINITE), draw(FINITE)) for c in codes}
    return FlowGraph(draw(st.permutations(nodes)), edges), Partition(community, 0.0), Layout(positions, 0.0, ())


@given(case=exported_graphs(), fmt=st.sampled_from(["json", "graphml"]))
@settings(max_examples=100, deadline=None)
def test_export_load_round_trip(tmp_path_factory, case, fmt):
    g, part, layout = case
    tmp = tmp_path_factory.mktemp("graph")
    first, second = tmp / f"a.{fmt}", tmp / f"b.{fmt}"
    export_graph(g, part, layout, fmt, str(first))
    export_graph(g, part, layout, fmt, str(second))
    assert first.read_bytes() == second.read_bytes()
    g2, comm, pos = load_graph(str(first), fmt)
    assert g2.nodes == sorted(g.nodes, key=lambda n: n.class_code)
    assert g2.edges == sorted(g.edges, key=lambda e: (e.source, e.target))
    assert comm == part.community
    assert pos == layout.positions


# a spoiled export -> the format it is in
BAD_EXPORTS = {
    "json-missing-field": ("json", lambda text: text.replace('"size"', '"sise"', 1)),
    "json-non-numeric": ("json", lambda text: re.sub(r'"x": [^,\n]+', '"x": "east"', text, count=1)),
    "json-truncated": ("json", lambda text: text[: len(text) // 2]),
    "graphml-missing-field": ("graphml", lambda text: text.replace('<data key="size">', '<data key="sise">', 1)),
    "graphml-non-numeric": ("graphml", lambda text: text.replace('<data key="x">', '<data key="x">east', 1)),
    "graphml-truncated": ("graphml", lambda text: text[: len(text) // 2]),
    # both formats hold str codes, int communities and finite numbers, never bools
    "json-int-code": ("json", lambda text: text.replace('"id": "a1"', '"id": 5', 1)),
    "json-bool-size": ("json", lambda text: re.sub(r'"size": [^,\n]+', '"size": true', text, count=1)),
    "json-float-community": ("json", lambda text: re.sub(r'"community": \d+', '"community": 2.7', text, count=1)),
    "json-nan-x": ("json", lambda text: re.sub(r'"x": [^,\n]+', '"x": NaN', text, count=1)),
    "json-huge-weight": ("json", lambda text: re.sub(r'"weight": [^,\n]+', '"weight": 1%s' % ("0" * 400), text,
                                                     count=1)),
    "graphml-underscore-community": ("graphml", lambda text: re.sub(
        r'<data key="community">\d+', '<data key="community">1_0', text, count=1)),
    "graphml-float-community": ("graphml", lambda text: re.sub(
        r'<data key="community">\d+', '<data key="community">2.7', text, count=1)),
    "graphml-inf-size": ("graphml", lambda text: re.sub(r'<data key="size">[^<]+', '<data key="size">inf', text,
                                                         count=1)),
    "graphml-overflow-y": ("graphml", lambda text: re.sub(r'<data key="y">[^<]+', '<data key="y">1e999', text,
                                                           count=1)),
    "graphml-padded-weight": ("graphml", lambda text: re.sub(r'<data key="weight">([^<]+)',
                                                              r'<data key="weight"> \1', text, count=1)),
}


@pytest.mark.parametrize("case", list(BAD_EXPORTS))
def test_load_graph_refuses_bad_records(tmp_path, case):
    fmt, spoil = BAD_EXPORTS[case]
    g = two_triangles()
    layout = linlog_layout(g, LayoutParams(iterations=10, step=0.1, seed=9))
    p = tmp_path / f"g.{fmt}"
    export_graph(g, detect_communities(g), layout, fmt, str(p))
    p.write_text(spoil(p.read_text(encoding="utf-8")), encoding="utf-8")
    with pytest.raises(ParseError, match=re.escape(str(p))):
        load_graph(str(p), fmt)


@pytest.mark.parametrize("fmt", FORMATS)
def test_export_refuses_control_characters(tmp_path, fmt):
    # XML 1.0 cannot hold a C0 control other than tab, newline and carriage
    # return, so neither format writes one
    g = graph_from_edges([("a", "c\x01d", 1.0)])
    layout = linlog_layout(g, LayoutParams(iterations=5, seed=1))
    with pytest.raises(ValidationError, match=re.escape("'c\\x01d'")):
        export_graph(g, detect_communities(g), layout, fmt, str(tmp_path / f"g.{fmt}"))
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("fmt", FORMATS)
def test_export_refuses_non_finite_numbers(tmp_path, fmt):
    # load_graph refuses a number that is not finite, so neither format writes one
    g = FlowGraph([GraphNode("a", math.nan), GraphNode("b", 1.0)], [GraphEdge("a", "b", math.inf)])
    layout = Layout({"a": (0.0, 1.0), "b": (2.0, -math.inf)}, 0.0, ())
    with pytest.raises(ValidationError) as e:
        export_graph(g, Partition({"a": 0, "b": 0}, 0.0), layout, fmt, str(tmp_path / f"g.{fmt}"))
    assert e.value.errors == ["node 'a' size nan", "node 'b' y -inf", "edge 'a'->'b' weight inf"]
    assert not list(tmp_path.iterdir())


def test_flow_endpoint_outside_the_classes_is_refused():
    m = FlowMatrix("area", 0, {}, {"A": 1.0, "B": 2.0}, {}, {("A", "B"): 1.0, ("ZZ", "A"): 1.0, ("B", "YY"): 2.0})
    with pytest.raises(ValidationError, match="'YY'.*'ZZ'"):
        build_flow_graph(m)


def test_detect_edgeless_graph_all_singletons():
    g = FlowGraph([GraphNode("X", 1.0), GraphNode("Y", 2.0)], [])
    part = detect_communities(g)
    assert part.community == {"X": 0, "Y": 1}
    assert part.q == 0.0


def test_modularity_singleton_partition_one_edge():
    g = graph_from_edges([("u", "v", 1.0)])
    assert modularity(g, {"u": 0, "v": 1}) == pytest.approx(-0.5, abs=1e-12)


def test_layout_single_node_keeps_initial_position():
    g = FlowGraph([GraphNode("X", 1.0)], [])
    layout = linlog_layout(g, LayoutParams(iterations=10, step=0.1, seed=4))
    assert layout.final_energy == 0.0
    assert set(layout.positions) == {"X"}


def test_layout_separates_cliques():
    edges = [
        ("a1", "a2", 1.0), ("a2", "a3", 1.0), ("a1", "a3", 1.0),
        ("b1", "b2", 1.0), ("b2", "b3", 1.0), ("b1", "b3", 1.0),
        ("a1", "b1", 0.05),
    ]
    g = graph_from_edges(edges)
    for seed in range(10):
        layout = linlog_layout(g, LayoutParams(iterations=600, step=0.1, seed=seed))
        pos = layout.positions

        def dist(u, v):
            (x1, y1), (x2, y2) = pos[u], pos[v]
            return math.hypot(x1 - x2, y1 - y2)

        intra = [dist("a1", "a2"), dist("a2", "a3"), dist("a1", "a3"),
                 dist("b1", "b2"), dist("b2", "b3"), dist("b1", "b3")]
        inter = [dist(a, b) for a in ("a1", "a2", "a3") for b in ("b1", "b2", "b3")]
        assert max(intra) < min(inter), f"seed {seed}"
