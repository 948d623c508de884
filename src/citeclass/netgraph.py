"""Flow network: community detection and force-directed layout.

The graph has one node per class (sized by the target-system class size)
and one directed edge per positive flow, as index arrays. Both kernels read
one list of undirected pairs, weighted w_ij + w_ji, in the order of each
pair's first edge. Community detection runs greedy modularity maximization
(Clauset-Newman-Moore) on it: from singletons, merge the pair of communities
with the largest gain dQ = 2*(e_ij - a_i*a_j) while it is positive. The gains
are one dense matrix over pairs i < j, read in row-major order, so a tie goes
to the smallest (i, j); merging j into i changes only row and column i. The
degree fractions a_i are summed in pair order: exact ties are common with
integer weights, and summing e's rows instead rounds some a_i differently.

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

from .corpus import ParseError, ValidationError, atomic_open, read_json

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
WRITE_RECORDS = 4096  # the records export_graph formats and writes at a time


@dataclass(slots=True, eq=False)  # == on arrays is not a bool
class FlowGraph:
    """The class codes, sorted, and their sizes; per edge, in (source, target)
    order, the indices into nodes of its ends and its weight."""
    nodes: list[str]
    size: np.ndarray
    source: np.ndarray
    target: np.ndarray
    weight: np.ndarray

    @property
    def edges(self) -> range:
        return range(len(self.weight))


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
        if self.seed < 0:  # numpy's generators take no negative seed
            errors.append(f"seed must be >= 0, got {self.seed}")
        if self.variant not in VARIANTS:
            errors.append(f"unknown layout variant {self.variant!r}")
        if errors:
            raise ValidationError(errors)


@dataclass(slots=True)
class Layout:
    positions: dict[str, tuple[float, float]]
    final_energy: float
    energy_trace: tuple[float, ...]


def build_flow_graph(flows: tuple[list[str], np.ndarray, np.ndarray, np.ndarray], sizes: dict[str, float],
                     epsilon: float = 1e-6) -> FlowGraph:
    """One node per class of sizes, sized by its target-system weight; one
    directed edge per flow of at least epsilon between two classes. flows is
    (codes, source, target, weight) as read_flow_csv returns it."""
    codes, source, target, weight = flows
    if not sizes:
        raise ValidationError(["cannot build a graph without classes"])
    if strays := sorted(set(codes).difference(sizes)):
        raise ValidationError([f"flow endpoint {c!r} is not a class of the graph" for c in strays])
    nodes = sorted(sizes)
    at = {c: i for i, c in enumerate(nodes)}
    index = np.array([at[c] for c in codes], dtype=np.int32)
    s, t = index[source], index[target]
    keep = np.flatnonzero((weight >= epsilon) & (s != t))
    keep = keep[np.lexsort((t[keep], s[keep]))]
    return FlowGraph(nodes, np.array([sizes[c] for c in nodes], dtype=float), s[keep], t[keep], weight[keep])


def _symmetric_pairs(graph: FlowGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs i < j that edges other than self-loops join, in the order of each pair's
    first edge, and their weights: each pair's edges added from 0.0 in edge order."""
    n = len(graph.nodes)
    keep = graph.source != graph.target
    s, t, w = graph.source[keep], graph.target[keep], graph.weight[keep]
    key = np.minimum(s, t).astype(np.int64) * n + np.maximum(s, t)
    unique, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return unique[order] // n, unique[order] % n, np.bincount(inverse, weights=w)[order]


def detect_communities(graph: FlowGraph) -> Partition:
    """Greedy modularity merging; returns the partition at the maximum Q
    reached (Q only grows while merges are accepted)."""
    codes = graph.nodes
    n = len(codes)
    pi, pj, pw = _symmetric_pairs(graph)
    two_m = 2.0 * math.fsum(pw.tolist())
    if two_m <= 0.0:
        return Partition({c: i for i, c in enumerate(codes)}, 0.0)

    # e[i, j]: inter-community weight fraction; a[i]: degree fraction, each
    # pair's fraction added to a_i, then a_j, in pair order (see the module docstring)
    e = np.zeros((n, n))
    e[pi, pj] = e[pj, pi] = frac = pw / two_m
    a = np.bincount(np.stack((pi, pj), axis=1).ravel(), weights=np.repeat(frac, 2), minlength=n)
    label = np.arange(n)  # each node's community, named by its smallest node (j > i merges into i)
    q = -math.fsum((a * a).tolist())

    live = np.triu(np.ones((n, n), dtype=bool), k=1)  # pairs i < j of live communities
    dq = np.where(live, 2.0 * (e - np.outer(a, a)), -math.inf)
    while True:
        i, j = divmod(int(np.argmax(dq)), n)  # the first maximum in row-major order
        if not dq[i, j] > 0.0:
            break
        q += float(dq[i, j])
        label[label == j] = i
        a[i] += a[j]
        e[i] += e[j]
        e[:, i] = e[i]
        e[i, i] = 0.0
        live[j, :] = live[:, j] = False
        dq[i] = np.where(live[i], 2.0 * (e[i] - a[i] * a), -math.inf)
        dq[:, i] = np.where(live[:, i], 2.0 * (e[:, i] - a * a[i]), -math.inf)
        dq[j, :] = dq[:, j] = -math.inf

    return Partition(dict(zip(codes, np.unique(label, return_inverse=True)[1].tolist())), q)


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
    codes = graph.nodes
    n = len(codes)
    rng = np.random.default_rng(params.seed)
    x = rng.random((n, 2))

    pi, pj, pw = _symmetric_pairs(graph)
    w = np.zeros((n, n))
    w[pi, pj] = w[pj, pi] = pw
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


def _write_records(fh, template: str, columns: list[np.ndarray], sep: str) -> None:
    """template % row for each row of the columns, sep between rows, WRITE_RECORDS rows per write."""
    for lo in range(0, len(columns[0]), WRITE_RECORDS):
        rows = zip(*(col[lo:lo + WRITE_RECORDS].tolist() for col in columns))
        fh.write((sep if lo else "") + sep.join([template % row for row in rows]))


def export_graph(graph: FlowGraph, partition: Partition, layout: Layout, fmt: str, path: str) -> None:
    """Write the same node and edge records in either format; byte-deterministic given inputs. Each code
    is encoded once; a number is written as its str, which for an int or a float is the repr json writes."""
    codes = graph.nodes
    if set(partition.community) != set(codes) or set(layout.positions) != set(codes):
        raise ValidationError(["graph, partition, and layout cover different node sets"])
    if fmt not in FORMATS:
        raise ValidationError([f"unknown graph format {fmt!r}"])
    if bad := sorted(c for c in codes if CONTROL.search(c)):
        raise ValidationError([f"class code {c!r} holds a control character" for c in bad])
    xy = np.array([layout.positions[c] for c in codes], dtype=float).reshape(-1, 2)
    nodes = {"size": graph.size, "x": xy[:, 0], "y": xy[:, 1]}
    bad = [f"node {c!r} {k} {v}" for c, *values in zip(codes, *(col.tolist() for col in nodes.values()))
           for k, v in zip(nodes, values) if not math.isfinite(v)]
    bad += [f"edge {codes[graph.source[k]]!r}->{codes[graph.target[k]]!r} weight {float(graph.weight[k])}"
            for k in np.flatnonzero(~np.isfinite(graph.weight)).tolist()]
    if bad:
        raise ValidationError(bad)
    if fmt == "json":
        enc = np.array([json.encoder.encode_basestring_ascii(c) for c in codes], dtype=object)
    else:  # the xml modules load only here and in load_graph: saxutils alone imports urllib
        from xml.sax.saxutils import escape
        enc = np.array([escape(c, ATTR_ESCAPES) for c in codes], dtype=object)
    records = {"node": nodes | {"id": enc, "community": np.array([partition.community[c] for c in codes], object)},
               "edge": {"from": enc[graph.source], "to": enc[graph.target], "weight": graph.weight}}
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        if fmt == "json":  # as json.dump(indent=2, sort_keys=True) writes it, then a newline
            for head, el, n in (('{\n  "edges": [', "edge", len(graph.edges)), (',\n  "nodes": [', "node", len(codes))):
                fields = sorted(records[el])
                fh.write(head)
                _write_records(fh, "\n    {" + ",".join(f'\n      "{f}": %s' for f in fields) + "\n    }",
                               [records[el][f] for f in fields], ",")
                fh.write("\n  ]" if n else "]")
            fh.write("\n}\n")
            return
        keys = "".join(f'\n  <key id="{key}" for="{el}" attr.name="{key}" attr.type="{kind}"/>'
                       for key, el, kind in GRAPHML_DATA)
        fh.write(f'<?xml version="1.0" encoding="UTF-8"?>\n<graphml xmlns="{GRAPHML_NS}">{keys}'
                 '\n  <graph id="G" edgedefault="directed">')
        for el, attrs in GRAPHML_ATTRS.items():
            data = [key for key, e, _ in GRAPHML_DATA if e == el]
            template = f"\n    <{el} " + " ".join(f'{a}="%s"' for a in attrs) + ">" + "".join(
                f'\n      <data key="{key}">%s</data>' for key in data) + f"\n    </{el}>"
            _write_records(fh, template, [records[el][f] for f in [*attrs.values(), *data]], "")
        fh.write("\n  </graph>\n</graphml>\n")


def _field(value, kind: type):
    """value as a str code, an int community or a finite float (given as an int or a float, never a bool)."""
    if type(value) not in ((int, float) if kind is float else (kind,)) or (kind is float and not math.isfinite(value)):
        raise ValueError(f"expected {kind.__name__}, got {value!r}")
    return kind(value)


def load_graph(path: str, fmt: str) -> tuple[FlowGraph, dict[str, int], dict[str, tuple[float, float]]]:
    """Read back an exported graph: (graph, community map, positions), the
    graph's nodes and edges sorted whatever the file's order. Bad text, a missing field, a
    value of the wrong type (see _field) or an edge whose end is not a node raises ParseError."""
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
        codes = sorted(_field(rec["id"], str) for rec in nodes)
        at = {c: i for i, c in enumerate(codes)}
        nodes = sorted(nodes, key=lambda rec: rec["id"])
        edges = sorted(edges, key=lambda rec: (at[_field(rec["from"], str)], at[_field(rec["to"], str)]))
        graph = FlowGraph(codes, np.array([_field(rec["size"], float) for rec in nodes], dtype=float),
                          *(np.array([at[_field(rec[end], str)] for rec in edges], np.int32) for end in ("from", "to")),
                          np.array([_field(rec["weight"], float) for rec in edges], dtype=float))
        community = {rec["id"]: _field(rec["community"], int) for rec in nodes}
        positions = {rec["id"]: (_field(rec["x"], float), _field(rec["y"], float)) for rec in nodes}
    except ET.ParseError as e:
        raise ParseError(f"{path}: invalid GraphML: {e}") from None
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ParseError(f"{path}: a node or edge record lacks a field or holds a bad value: {e!r}") from None
    return graph, community, positions
