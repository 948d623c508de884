"""Flow network: community detection and force-directed layout.

The graph has one node per class (sized by the target-system class size)
and one directed edge per positive flow. Community detection runs greedy
modularity maximization (Clauset-Newman-Moore) on the symmetrized graph:
start from singletons, repeatedly merge the pair of communities with the
largest gain dQ = 2*(e_ij - a_i*a_j) while it is positive. The gains are one
dense matrix over community pairs i < j, read in row-major order, so a tie
goes to the smallest (i, j). The degree fractions a_i are summed pair by
pair in the order of the symmetrized weights: exact ties are common with
integer weights, and summing e's rows instead rounds some a_i differently
and changes which pair wins.

The layout minimizes the LinLog energy
    sum_edges w_uv*|x_u - x_v|  -  sum_pairs r_uv*ln|x_u - x_v|
by gradient descent with a backtracking line search. The repulsion factor
r_uv is deg_u*deg_v in the node-repulsion variant (default) or 1 in the
edge-repulsion variant. O(n^2) dense evaluation is fine at <= a few hundred
nodes.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import numpy as np

from .corpus import ParseError, ValidationError, atomic_open, read_json, write_json
from .flow import FlowMatrix

GRAPHML_NS = "http://graphml.graphdrawing.org/xmlns"
FORMATS = ("json", "graphml")
# the record fields GraphML holds as <data>: (key, element, attr.type), which
# also gives its <key> lines; and those it holds as attributes: {attribute: field}
GRAPHML_DATA = (("size", "node", "double"), ("community", "node", "int"), ("x", "node", "double"),
                ("y", "node", "double"), ("weight", "edge", "double"))
GRAPHML_ATTRS = {"node": {"id": "id"}, "edge": {"source": "from", "target": "to"}}
# GraphML attributes escape the quote, and the three C0 controls XML would
# read back as spaces; XML 1.0 cannot hold the other C0 controls (CONTROL)
ATTR_ESCAPES = {'"': "&quot;", "\t": "&#9;", "\n": "&#10;", "\r": "&#13;"}
CONTROL = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f]")
# GraphML <data> text reads as a number, as JSON reads it, only if it is a JSON number literal
NUMBER = re.compile(r"-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][-+]?[0-9]+)?")
VARIANTS = ("node", "edge")


@dataclass(frozen=True, slots=True)
class GraphNode:
    class_code: str
    size: float


@dataclass(frozen=True, slots=True)
class GraphEdge:
    source: str
    target: str
    weight: float


@dataclass(slots=True)
class FlowGraph:
    nodes: list[GraphNode]
    edges: list[GraphEdge]

    def node_codes(self) -> list[str]:
        return [n.class_code for n in self.nodes]


@dataclass(slots=True)
class Partition:
    community: dict[str, int]
    q: float


@dataclass(frozen=True, slots=True)
class LayoutParams:
    iterations: int = 500
    step: float = 0.1
    seed: int = 0
    variant: str = "node"

    def __post_init__(self):
        errors = []
        if self.iterations < 1:
            errors.append(f"iterations must be >= 1, got {self.iterations}")
        if not (0.0 < self.step < math.inf):
            errors.append(f"step must be finite and > 0, got {self.step}")
        if self.variant not in VARIANTS:
            errors.append(f"unknown layout variant {self.variant!r}")
        if errors:
            raise ValidationError(errors)


@dataclass(slots=True)
class Layout:
    positions: dict[str, tuple[float, float]]
    final_energy: float
    energy_trace: tuple[float, ...]


def build_flow_graph(matrix: FlowMatrix, epsilon: float = 1e-6) -> FlowGraph:
    """One node per class sized by its target-system weight; one directed
    edge per flow entry of at least epsilon."""
    classes = matrix.classes()
    if not classes:
        raise ValidationError(["cannot build a graph from an empty flow matrix"])
    if strays := sorted({c for pair in matrix.flow for c in pair}.difference(classes)):
        raise ValidationError([f"flow endpoint {c!r} is not a class of the graph" for c in strays])
    nodes = [GraphNode(c, matrix.size_b.get(c, 0.0)) for c in classes]
    edges = [
        GraphEdge(i, j, w)
        for (i, j), w in sorted(matrix.flow.items())
        if w >= epsilon and i != j
    ]
    return FlowGraph(nodes, edges)


def _symmetric_weights(graph: FlowGraph) -> dict[tuple[int, int], float]:
    """Undirected pair weights (sum of both directions) on node indices."""
    idx = {c: i for i, c in enumerate(graph.node_codes())}
    sym: dict[tuple[int, int], float] = {}
    for e in graph.edges:
        i, j = idx[e.source], idx[e.target]
        if i == j:
            continue
        key = (i, j) if i < j else (j, i)
        sym[key] = sym.get(key, 0.0) + e.weight
    return sym


def modularity(graph: FlowGraph, partition: dict[str, int] | Partition) -> float:
    """Weighted modularity Q = sum_c (e_cc - a_c^2) on the symmetrized
    graph. A graph with no edges scores 0."""
    community = partition.community if isinstance(partition, Partition) else partition
    codes = graph.node_codes()
    for c in codes:
        if c not in community:
            raise ValidationError([f"partition does not cover node {c!r}"])
    sym = _symmetric_weights(graph)
    two_m = 2.0 * math.fsum(sym.values())
    if two_m <= 0.0:
        return 0.0
    comm_of = [community[c] for c in codes]
    e_cc = dict.fromkeys(comm_of, 0.0)
    a = dict.fromkeys(comm_of, 0.0)
    for (i, j), w in sym.items():
        ci, cj = comm_of[i], comm_of[j]
        a[ci] += w / two_m
        a[cj] += w / two_m
        if ci == cj:
            e_cc[ci] += 2.0 * w / two_m
    q = 0.0
    for c in set(comm_of):
        q += e_cc[c] - a[c] * a[c]
    return q


def detect_communities(graph: FlowGraph) -> Partition:
    """Greedy modularity merging; returns the partition at the maximum Q
    reached (Q only grows while merges are accepted)."""
    codes = graph.node_codes()
    n = len(codes)
    sym = _symmetric_weights(graph)
    two_m = 2.0 * math.fsum(sym.values())
    if two_m <= 0.0:
        return Partition({c: i for i, c in enumerate(codes)}, 0.0)

    # e[i, j]: inter-community weight fraction; a[i]: degree fraction, summed
    # in pair order (see the module docstring)
    e = np.zeros((n, n))
    a = np.zeros(n)
    for (i, j), w in sym.items():
        frac = w / two_m
        e[i, j] = e[j, i] = frac
        a[i] += frac
        a[j] += frac
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    q = -math.fsum(ai * ai for ai in a)

    live = np.triu(np.ones((n, n), dtype=bool), k=1)  # pairs i < j of live communities
    while True:
        dq = np.where(live, 2.0 * (e - np.outer(a, a)), -math.inf)
        i, j = divmod(int(np.argmax(dq)), n)  # the first maximum in row-major order
        if not dq[i, j] > 0.0:
            break
        q += float(dq[i, j])
        members[i].extend(members.pop(j))
        a[i] += a[j]
        e[i] += e[j]
        e[:, i] = e[i]
        e[i, i] = 0.0
        live[j, :] = live[:, j] = False

    community: dict[str, int] = {}
    for new_id, old_id in enumerate(sorted(members, key=lambda c: min(members[c]))):
        for node in members[old_id]:
            community[codes[node]] = new_id
    return Partition(community, q)


def _distances(x: np.ndarray) -> np.ndarray:
    """Pairwise distances between the rows of x, with an infinite diagonal."""
    dx = x[:, None, 0] - x[None, :, 0]
    dy = x[:, None, 1] - x[None, :, 1]
    d = np.sqrt(dx * dx + dy * dy)
    np.fill_diagonal(d, math.inf)
    return d


def _pairs(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the pairs i < j with m > 0, row-major, and m there."""
    idx = np.flatnonzero(np.triu(m > 0.0, k=1))
    return idx, m.take(idx)


def _energy(d: np.ndarray, att: tuple, rep: tuple) -> float:
    """Energy at distances d over the attraction and repulsion _pairs."""
    (att_idx, att_w), (rep_idx, rep_w) = att, rep
    rep_d = d.take(rep_idx)
    if np.any(rep_d <= 0.0):
        return math.inf
    att_term = float((att_w * d.take(att_idx)).sum())
    with np.errstate(divide="ignore"):
        rep_term = float((rep_w * np.log(rep_d)).sum())
    return att_term - rep_term


def _gradient(x: np.ndarray, d: np.ndarray, w: np.ndarray, rep: np.ndarray) -> np.ndarray:
    inv = 1.0 / d
    coef = w * inv - rep * inv * inv
    return coef.sum(axis=1)[:, None] * x - coef @ x


def linlog_layout(graph: FlowGraph, params: LayoutParams = LayoutParams()) -> Layout:
    """Deterministic gradient descent from seeded random positions. The
    energy trace holds the initial energy plus every accepted step; accepted
    steps strictly decrease energy."""
    codes = graph.node_codes()
    n = len(codes)
    rng = np.random.default_rng(params.seed)
    x = rng.random((n, 2))

    w = np.zeros((n, n))
    for (i, j), wij in _symmetric_weights(graph).items():
        w[i, j] = w[j, i] = wij
    if params.variant == "node":
        deg = w.sum(axis=1)
        rep = np.outer(deg, deg)
    else:
        rep = np.ones((n, n))
    np.fill_diagonal(rep, 0.0)
    att_pairs, rep_pairs = _pairs(w), _pairs(rep)

    def separated(pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """pos with coincident nodes moved apart by a seeded jitter of
        magnitude 1e-9, and its distances."""
        for _ in range(100):
            d = _distances(pos)
            if not (d == 0.0).any():
                return pos, d
            ii, jj = np.nonzero(d == 0.0)  # d is symmetric
            pos = pos.copy()
            for k in np.unique(jj[ii < jj]):
                off = rng.standard_normal(2)
                norm = math.sqrt(float(off @ off))
                if norm == 0.0:
                    continue
                pos[int(k)] += off / norm * 1e-9
        raise ValidationError(["could not separate coincident nodes"])

    x, d = separated(x)
    energy = _energy(d, att_pairs, rep_pairs)
    trace = [energy]
    step = params.step
    for _ in range(params.iterations):
        grad = _gradient(x, d, w, rep)
        if not np.isfinite(grad).all():
            break
        s = step
        while s > 1e-18:
            cand, cand_d = separated(x - s * grad)
            new_energy = _energy(cand_d, att_pairs, rep_pairs)
            if new_energy < energy:
                break
            s /= 2.0
        else:  # no step lowered the energy
            break
        x, d = cand, cand_d
        trace.append(new_energy)
        converged = abs(energy - new_energy) < 1e-9 * max(abs(energy), 1e-12)
        energy = new_energy
        step = s * 2.0
        if converged:
            break

    positions = {codes[i]: (float(x[i, 0]), float(x[i, 1])) for i in range(n)}
    return Layout(positions, energy if n else 0.0, tuple(trace))


def export_graph(
    graph: FlowGraph,
    partition: Partition,
    layout: Layout,
    fmt: str,
    path: str,
) -> None:
    """Write the same node and edge records in either format; byte-deterministic given inputs."""
    codes = graph.node_codes()
    if set(partition.community) != set(codes) or set(layout.positions) != set(codes):
        raise ValidationError(["graph, partition, and layout cover different node sets"])
    if fmt not in FORMATS:
        raise ValidationError([f"unknown graph format {fmt!r}"])
    names = set(codes).union(*((e.source, e.target) for e in graph.edges))
    if bad := sorted(c for c in names if CONTROL.search(c)):
        raise ValidationError([f"class code {c!r} holds a control character" for c in bad])
    nodes = [{"id": n.class_code, "size": n.size, "community": partition.community[n.class_code],
              "x": layout.positions[n.class_code][0], "y": layout.positions[n.class_code][1]}
             for n in sorted(graph.nodes, key=lambda n: n.class_code)]
    edges = [{"from": e.source, "to": e.target, "weight": e.weight}
             for e in sorted(graph.edges, key=lambda e: (e.source, e.target))]
    bad = [f"node {r['id']!r} {k} {r[k]}" for r in nodes for k in ("size", "x", "y") if not math.isfinite(r[k])]
    bad += [f"edge {e['from']!r}->{e['to']!r} weight {e['weight']}" for e in edges if not math.isfinite(e["weight"])]
    if bad:
        raise ValidationError(bad)
    if fmt == "json":
        write_json(path, {"nodes": nodes, "edges": edges})
        return
    # the xml modules load only here and in load_graph: saxutils alone imports urllib
    from xml.sax.saxutils import escape

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<graphml xmlns="{GRAPHML_NS}">',
        *(f'  <key id="{key}" for="{el}" attr.name="{key}" attr.type="{kind}"/>' for key, el, kind in GRAPHML_DATA),
        '  <graph id="G" edgedefault="directed">',
    ]
    for el, records in (("node", nodes), ("edge", edges)):
        for rec in records:
            quoted = (f'{a}="{escape(rec[field], ATTR_ESCAPES)}"' for a, field in GRAPHML_ATTRS[el].items())
            lines.append(f"    <{el} {' '.join(quoted)}>")
            lines.extend(f'      <data key="{key}">{rec[key]!r}</data>' for key, e, _ in GRAPHML_DATA if e == el)
            lines.append(f"    </{el}>")
    lines += ["  </graph>", "</graphml>", ""]
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))


def _field(value, kind: type):
    """value as a str code, an int community or a finite float (given as an int or a float, never a bool)."""
    if type(value) not in ((int, float) if kind is float else (kind,)) or (kind is float and not math.isfinite(value)):
        raise ValueError(f"expected {kind.__name__}, got {value!r}")
    return kind(value)


def load_graph(path: str, fmt: str) -> tuple[FlowGraph, dict[str, int], dict[str, tuple[float, float]]]:
    """Read back an exported graph: (graph, community map, positions). Bad
    text, a missing field or a value of the wrong type (see _field) raises ParseError."""
    import xml.etree.ElementTree as ET

    if fmt not in FORMATS:
        raise ValidationError([f"unknown graph format {fmt!r}"])
    try:
        if fmt == "json":
            records = read_json(path)
        else:
            root = ET.parse(path).getroot()
            # the record of an element: its attributes under their field names, and its data
            records = {f"{el}s": [
                {field: item.attrib[a] for a, field in attrs.items()}
                | {d.get("key"): json.loads(t) if NUMBER.fullmatch(t := d.text or "") else t
                   for d in item.iter(f"{{{GRAPHML_NS}}}data")}
                for item in root.iter(f"{{{GRAPHML_NS}}}{el}")
            ] for el, attrs in GRAPHML_ATTRS.items()}
        nodes, edges = records["nodes"], records["edges"]
        graph = FlowGraph([GraphNode(_field(rec["id"], str), _field(rec["size"], float)) for rec in nodes],
                          [GraphEdge(_field(rec["from"], str), _field(rec["to"], str), _field(rec["weight"], float))
                           for rec in edges])
        community = {rec["id"]: _field(rec["community"], int) for rec in nodes}
        positions = {rec["id"]: (_field(rec["x"], float), _field(rec["y"], float)) for rec in nodes}
    except ET.ParseError as e:
        raise ParseError(f"{path}: invalid GraphML: {e}") from None
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ParseError(f"{path}: a node or edge record lacks a field or holds a bad value: {e!r}") from None
    return graph, community, positions
