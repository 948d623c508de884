from bisect import bisect_left

import numpy as np
import pytest

from citeclass.assignments import SYSTEM_ASJC, SYSTEM_U1, AssignmentSet
from citeclass.columns import DocumentColumns
from citeclass.corpus import Area, Category, Corpus, Document, Journal, Scheme
from citeclass.flow import flow_matrix
from citeclass.netgraph import FlowGraph
from citeclass.syngen import SplitMix64, SynParams, _gen_journals, build_scheme, generate_corpus


def make_scheme():
    """Two regular areas with a misc category each, plus a multi area.

    PH: physics with PH01, PH02, PH00 (misc)
    CH: chemistry with CH01, CH02, CH00 (misc)
    MD: multidisciplinary, no categories
    """
    areas = [
        Area("PH", "Physics"),
        Area("CH", "Chemistry"),
        Area("MD", "Multidisciplinary", is_multidisciplinary=True),
    ]
    categories = [
        Category("PH00", "Physics misc", "PH", is_misc=True),
        Category("PH01", "Mechanics", "PH"),
        Category("PH02", "Optics", "PH"),
        Category("CH00", "Chemistry misc", "CH", is_misc=True),
        Category("CH01", "Organic", "CH"),
        Category("CH02", "Inorganic", "CH"),
    ]
    return Scheme(categories, areas)


@pytest.fixture
def scheme():
    return make_scheme()


@pytest.fixture(scope="session")
def scheme285():
    # 15 areas x 19 categories = 285 non-misc codes
    params = SynParams(n_areas=15, cats_per_area=19, include_misc=True,
                       multi_journal_share=0.1)
    return build_scheme(params)


def document_columns(docs):
    """The Documents as the DocumentColumns a Corpus takes, in the order given."""
    columns = DocumentColumns()
    for d in docs:
        columns.add(d.doc_id, d.journal_id, d.year, d.doc_type, d.references, d.external_citations)
    return columns


def make_corpus(scheme, docs, journals=None):
    if journals is None:
        journals = [
            Journal("J-PH", ("PH01",)),
            Journal("J-PH2", ("PH02",)),
            Journal("J-CH", ("CH01",)),
            Journal("J-MIX", ("PH01", "CH01")),
            Journal("J-MD", ("MD",)),
            Journal("J-MISC", ("PH01", "PH00")),
        ]
    return Corpus(scheme, journals, document_columns(docs))


@pytest.fixture
def small_corpus(scheme):
    docs = [
        Document("D1", "J-PH", 2015, "article", ("D2", "D3", "X1"), 2),
        Document("D2", "J-CH", 2014, "article", ("D3",), 0),
        Document("D3", "J-MIX", 2013, "article", (), 1),
        Document("D4", "J-MD", 2015, "review", ("D1", "D2", "D3"), 0),
        Document("D5", "J-MISC", 2016, "article", ("D1", "D4", "X2", "X3"), 5),
    ]
    return make_corpus(scheme, docs)


@pytest.fixture(scope="session")
def syn200():
    params = SynParams(n_docs=200, n_journals=30, seed=42)
    return generate_corpus(params)


@pytest.fixture(scope="session")
def syn2000():
    params = SynParams(n_docs=2000, n_journals=100, seed=7)
    return generate_corpus(params)


def assert_vec_close(a, b, tol=1e-12):
    assert set(a) == set(b), f"supports differ: {sorted(a)} vs {sorted(b)}"
    for k in a:
        assert abs(a[k] - b[k]) <= tol, f"{k}: {a[k]} vs {b[k]}"


def vector(aset, doc_id):
    """The row of doc_id in an AssignmentSet as a {code: weight} dict in code order."""
    i = bisect_left(aset.doc_ids, doc_id)
    if aset.doc_ids[i:i + 1] != [doc_id]:
        raise KeyError(doc_id)
    lo, hi = aset.weights.indptr[i:i + 2]
    return dict(zip([aset.codes[k] for k in aset.weights.indices[lo:hi].tolist()],
                    aset.weights.data[lo:hi].tolist()))


def vectors(aset):
    """Every row of an AssignmentSet as {doc_id: {code: weight}}, in doc_id order."""
    return {doc_id: vector(aset, doc_id) for doc_id in aset.doc_ids}


def planted_journal_categories(params):
    """The planted non-misc category of each journal, reproduced from the
    seed (journal generation precedes document generation in the stream)."""
    _, planted = _gen_journals(SplitMix64(params.seed), build_scheme(params), params)
    return planted


def one_doc_flow(a, b):
    """The flow matrix of one document whose vectors are a and b."""
    return flow_matrix(AssignmentSet.from_rows(SYSTEM_ASJC, [("D1", a)]),
                       AssignmentSet.from_rows(SYSTEM_U1, [("D1", b)]))


def plain_collapse(vec, scheme):
    """A vector's category weights summed into their areas, in code order."""
    out = {}
    for code, w in vec.items():
        area = scheme.cat_to_area[code]
        out[area] = out.get(area, 0.0) + w
    return dict(sorted(out.items()))


def partitions(items):
    """All set partitions of a list, as lists of lists."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1:]
        yield part + [[first]]


def flow_graph(edges, sizes=None):
    """The FlowGraph of (source, target, weight) triples: its nodes are the
    sorted codes of sizes ({code: size}), or the edges' ends at size 1.0, and
    its edges are the triples in (source, target) order, none dropped."""
    if sizes is None:
        sizes = dict.fromkeys((c for u, v, _ in edges for c in (u, v)), 1.0)
    nodes = sorted(sizes)
    at = {c: i for i, c in enumerate(nodes)}
    edges = sorted(edges, key=lambda e: (at[e[0]], at[e[1]]))
    return FlowGraph(nodes, np.array([sizes[c] for c in nodes], dtype=float),
                     np.array([at[u] for u, _, _ in edges], dtype=np.int32),
                     np.array([at[v] for _, v, _ in edges], dtype=np.int32),
                     np.array([w for _, _, w in edges], dtype=float))


def edge_triples(graph):
    """The graph's edges as (source, target, weight) triples of codes."""
    return [(graph.nodes[s], graph.nodes[t], w)
            for s, t, w in zip(graph.source.tolist(), graph.target.tolist(), graph.weight.tolist())]
