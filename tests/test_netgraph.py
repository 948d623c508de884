import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from citeclass.corpus import ParseError, ValidationError
from citeclass.flow import FlowMatrix
from citeclass.netgraph import (
    FORMATS, WRITE_RECORDS, Layout, LayoutParams, Partition, _distances, _energy, _gradient, _pairs,
    build_flow_graph, detect_communities, export_graph, linlog_layout, load_graph,
)
from conftest import edge_triples, flow_graph, partitions
from oracles import greedy_reference, oracle_modularity


def flows_of(flow):
    """A {(from, to): weight} dict as read_flow_csv returns flows:
    (codes, source, target, weight), rows in dict order."""
    codes = list(dict.fromkeys(c for pair in flow for c in pair))
    at = {c: i for i, c in enumerate(codes)}
    return (codes, np.array([at[i] for i, _ in flow], dtype=np.int32),
            np.array([at[j] for _, j in flow], dtype=np.int32), np.array(list(flow.values()), dtype=float))


def oracle_q(graph, community):
    """The oracle's Q of a partition of graph."""
    return oracle_modularity(edge_triples(graph), community)


def two_triangles():
    # two triangles joined by one bridge edge
    e = [
        ("a1", "a2", 1.0), ("a2", "a3", 1.0), ("a1", "a3", 1.0),
        ("b1", "b2", 1.0), ("b2", "b3", 1.0), ("b1", "b3", 1.0),
        ("a3", "b1", 1.0),
    ]
    return flow_graph(e)


def test_build_flow_graph_from_matrix():
    m = FlowMatrix(
        "area",
        {"X": 4.0, "Y": 6.0}, {"X": 5.0, "Y": 5.0}, {"X": 4.0, "Y": 5.0},
        {("Y", "X"): 1.0, ("X", "Y"): 1e-9},
    )
    g = build_flow_graph(flows_of(m.flow), m.size_b, epsilon=1e-6)
    assert g.nodes == ["X", "Y"]
    # node size comes from the destination system
    assert dict(zip(g.nodes, g.size.tolist())) == {"X": 5.0, "Y": 5.0}
    assert edge_triples(g) == [("Y", "X", 1.0)]


def test_build_flow_graph_drops_self_loops_keeps_nodes():
    g = build_flow_graph(flows_of({("X", "X"): 0.5}), {"X": 1.0})
    assert g.nodes == ["X"]
    assert edge_triples(g) == []


def test_build_flow_graph_sorts_edges():
    # read_flow_csv keeps the file's order; the graph's edges are in (source, target) order
    flows = {("B", "A"): 1.0, ("A", "C"): 2.0, ("A", "B"): 3.0, ("C", "A"): 0.5}
    g = build_flow_graph(flows_of(flows), {"A": 1.0, "B": 1.0, "C": 1.0})
    assert edge_triples(g) == sorted((i, j, w) for (i, j), w in flows.items())


def test_build_flow_graph_rejects_empty_matrix():
    with pytest.raises(ValidationError):
        build_flow_graph(flows_of({}), {})


def test_modularity_two_triangles():
    g = two_triangles()
    part = {"a1": 0, "a2": 0, "a3": 0, "b1": 1, "b2": 1, "b3": 1}
    assert oracle_q(g, part) == pytest.approx(6.0 / 7.0 - 0.5, abs=1e-12)


def test_modularity_single_community_is_zero():
    g = two_triangles()
    part = {c: 0 for c in g.nodes}
    assert oracle_q(g, part) == pytest.approx(0.0, abs=1e-12)


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
    assert part.q == pytest.approx(oracle_q(g, part.community), abs=1e-12)


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
    for part in partitions(graph.nodes):
        q = oracle_q(graph, {n: i for i, block in enumerate(part) for n in block})
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
        g = flow_graph(edges)
        part = detect_communities(g)
        assert part.q <= brute_force_best_q(g) + 1e-9
        assert part.q == pytest.approx(oracle_q(g, part.community), abs=1e-9)


def random_directed_graph(rng, weights, n_range=(2, 41), density_range=(0.05, 0.6)):
    """n nodes and (u, v, w) edges, each ordered pair drawn at one density:
    so some pairs have both directions and some only j -> i."""
    n = int(rng.integers(*n_range))
    density = rng.uniform(*density_range)
    nodes = [f"n{i:03d}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < density:
                w = {"unit": 1.0, "small": float(rng.integers(1, 4)),
                     "real": float(rng.uniform(0.01, 5.0))}[weights]
                edges.append((nodes[i], nodes[j], w))
    return nodes, edges


@pytest.mark.parametrize("weights", ["unit", "small", "real"])
def test_detect_matches_greedy_reference(weights):
    # unit and small-integer weights make exact dQ ties common, so the tie
    # rule and the order a is summed in both decide the partition; the
    # 250-300-node graphs take hundreds of merges, each updating the gains
    # of one community only
    rng = np.random.default_rng({"unit": 71, "small": 72, "real": 73}[weights])
    trials = [((2, 41), (0.05, 0.6))] * 150 + [((250, 301), (0.01, 0.04))] * 2
    for trial, (n_range, density_range) in enumerate(trials):
        nodes, edges = random_directed_graph(rng, weights, n_range, density_range)
        part = detect_communities(flow_graph(edges, dict.fromkeys(nodes, 1.0)))
        community, q = greedy_reference(nodes, edges)
        assert part.community == community, f"trial {trial}"
        assert part.q == q, f"trial {trial}"
        if n_range[0] >= 250:  # some pairs are joined in one direction only
            pairs = {(u, v) for u, v, _ in edges}
            assert any((v, u) not in pairs for u, v in pairs)


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
    g = flow_graph([("u", "v", 1.0)])
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
    assert set(g2.nodes) == set(g.nodes)
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
    assert set(g2.nodes) == set(g.nodes)
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
# and the floats whose repr is least like the others'
NUMBERS = FINITE | st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e300])


@st.composite
def exported_graphs(draw):
    """A graph with its partition and layout, drawn with awkward codes and
    finite numbers, self-loops among its edges."""
    codes = draw(st.lists(CODES, min_size=1, max_size=6, unique=True))
    sizes = {c: draw(NUMBERS) for c in codes}
    pairs = draw(st.lists(st.tuples(st.sampled_from(codes), st.sampled_from(codes)), max_size=10, unique=True))
    edges = [(i, j, draw(NUMBERS)) for i, j in pairs]
    community = {c: draw(st.integers(0, 5)) for c in codes}
    positions = {c: (draw(NUMBERS), draw(NUMBERS)) for c in codes}
    return flow_graph(edges, sizes), Partition(community, 0.0), Layout(positions, 0.0, ())


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
    assert g2.nodes == g.nodes == sorted(g.nodes)
    assert g2.size.tolist() == g.size.tolist()
    assert edge_triples(g2) == edge_triples(g) == sorted(edge_triples(g), key=lambda e: (e[0], e[1]))
    assert comm == part.community
    assert pos == layout.positions


def test_load_graph_sorts_records(tmp_path):
    # a graph holds its nodes and edges sorted, whatever order a file lists them in
    p = tmp_path / "g.json"
    p.write_text(json.dumps({
        "edges": [{"from": "b", "to": "a", "weight": 1.0}, {"from": "a", "to": "b", "weight": 2.0}],
        "nodes": [{"id": "b", "size": 1.0, "community": 1, "x": 0.0, "y": 0.5},
                  {"id": "a", "size": 2.0, "community": 0, "x": 1.0, "y": 1.5}],
    }))
    g, comm, pos = load_graph(str(p), "json")
    assert g.nodes == ["a", "b"] and g.size.tolist() == [2.0, 1.0]
    assert edge_triples(g) == [("a", "b", 2.0), ("b", "a", 1.0)]
    assert comm == {"a": 0, "b": 1} and pos == {"a": (1.0, 1.5), "b": (0.0, 0.5)}


def json_records(graph, part, layout):
    """Figure 3's records as plain dicts, for json.dumps."""
    return {
        "edges": [{"from": u, "to": v, "weight": w} for u, v, w in edge_triples(graph)],
        "nodes": [{"id": c, "size": s, "community": part.community[c], "x": layout.positions[c][0],
                   "y": layout.positions[c][1]} for c, s in zip(graph.nodes, graph.size.tolist())],
    }


@given(case=exported_graphs())
@settings(max_examples=100, deadline=None)
def test_export_json_is_json_dumps(tmp_path_factory, case):
    # the block writer writes what json.dump(indent=2, sort_keys=True) writes
    g, part, layout = case
    p = tmp_path_factory.mktemp("graph") / "g.json"
    export_graph(g, part, layout, "json", str(p))
    assert p.read_text(encoding="utf-8") == json.dumps(json_records(g, part, layout), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("fmt", FORMATS)
def test_export_joins_blocks(tmp_path, fmt):
    # more edges than one block holds: records join across blocks as within one
    rng = np.random.default_rng(5)
    codes = [f"c{i:03d}" for i in range(100)]
    edges = [(u, v, float(rng.uniform(0.0, 3.0))) for u in codes for v in codes if u != v]
    assert len(edges) > 2 * WRITE_RECORDS
    g = flow_graph(edges)
    part = Partition({c: i % 7 for i, c in enumerate(codes)}, 0.0)
    layout = Layout({c: (float(i), -0.5 * i) for i, c in enumerate(codes)}, 0.0, ())
    p = tmp_path / f"g.{fmt}"
    export_graph(g, part, layout, fmt, str(p))
    if fmt == "json":
        assert p.read_text() == json.dumps(json_records(g, part, layout), indent=2, sort_keys=True) + "\n"
    g2, comm, pos = load_graph(str(p), fmt)
    assert edge_triples(g2) == edge_triples(g)
    assert (comm, pos) == (part.community, layout.positions)


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
    g = flow_graph([("a", "c\x01d", 1.0)])
    layout = linlog_layout(g, LayoutParams(iterations=5, seed=1))
    with pytest.raises(ValidationError, match=re.escape("'c\\x01d'")):
        export_graph(g, detect_communities(g), layout, fmt, str(tmp_path / f"g.{fmt}"))
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("fmt", FORMATS)
def test_export_refuses_non_finite_numbers(tmp_path, fmt):
    # load_graph refuses a number that is not finite, so neither format writes one
    g = flow_graph([("a", "b", math.inf)], {"a": math.nan, "b": 1.0})
    layout = Layout({"a": (0.0, 1.0), "b": (2.0, -math.inf)}, 0.0, ())
    with pytest.raises(ValidationError) as e:
        export_graph(g, Partition({"a": 0, "b": 0}, 0.0), layout, fmt, str(tmp_path / f"g.{fmt}"))
    assert e.value.errors == ["node 'a' size nan", "node 'b' y -inf", "edge 'a'->'b' weight inf"]
    assert not list(tmp_path.iterdir())


def test_flow_endpoint_outside_the_classes_is_refused():
    flow = {("A", "B"): 1.0, ("ZZ", "A"): 1.0, ("B", "YY"): 2.0}
    with pytest.raises(ValidationError, match="'YY'.*'ZZ'"):
        build_flow_graph(flows_of(flow), {"A": 1.0, "B": 2.0})


def test_detect_edgeless_graph_all_singletons():
    g = flow_graph([], {"X": 1.0, "Y": 2.0})
    part = detect_communities(g)
    assert part.community == {"X": 0, "Y": 1}
    assert part.q == 0.0


def test_modularity_singleton_partition_one_edge():
    g = flow_graph([("u", "v", 1.0)])
    assert oracle_q(g, {"u": 0, "v": 1}) == pytest.approx(-0.5, abs=1e-12)


def test_layout_single_node_keeps_initial_position():
    g = flow_graph([], {"X": 1.0})
    layout = linlog_layout(g, LayoutParams(iterations=10, step=0.1, seed=4))
    assert layout.final_energy == 0.0
    assert set(layout.positions) == {"X"}


def test_layout_separates_cliques():
    edges = [
        ("a1", "a2", 1.0), ("a2", "a3", 1.0), ("a1", "a3", 1.0),
        ("b1", "b2", 1.0), ("b2", "b3", 1.0), ("b1", "b3", 1.0),
        ("a1", "b1", 0.05),
    ]
    g = flow_graph(edges)
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
