import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from citeclass.asjc import classify_asjc
from citeclass.assignments import AssignmentSet, SYSTEM_ASJC, SYSTEM_U1
from citeclass.citer import classify_u1f08_all
from citeclass.corpus import ValidationError
from citeclass.flow import (
    CLASS_STATS_HEADER, flow_matrix, flow_rows, read_class_stats_csv, read_flow_csv, summary_rows, top_links,
    write_class_stats_csv, write_flow_csv,
)
from conftest import assert_vec_close, matrix_dicts, one_doc_flow, plain_collapse, vector
from oracles import oracle_flow


def test_document_flow_worked_example():
    m = one_doc_flow({"X": 0.6, "Y": 0.4}, {"X": 0.2, "Y": 0.3, "Z": 0.5})
    assert_vec_close(m.common, {"X": 0.2, "Y": 0.3})
    assert set(m.flow) == {("X", "Z"), ("Y", "Z")}
    assert abs(m.flow[("X", "Z")] - 0.4) <= 1e-12
    assert abs(m.flow[("Y", "Z")] - 0.1) <= 1e-12


def test_document_flow_identity_is_empty():
    m = one_doc_flow({"X": 0.5, "Y": 0.5}, {"X": 0.5, "Y": 0.5})
    assert_vec_close(m.common, {"X": 0.5, "Y": 0.5})
    assert m.flow == {}


def test_document_flow_disjoint_supports():
    m = one_doc_flow({"X": 1.0}, {"Y": 0.5, "Z": 0.5})
    assert m.common == {}
    assert_vec_close(dict((f"{i}->{j}", w) for (i, j), w in m.flow.items()),
                     {"X->Y": 0.5, "X->Z": 0.5})


def test_document_flow_rejects_unnormalized():
    with pytest.raises(ValidationError):
        one_doc_flow({"X": 0.9}, {"X": 1.0})


normalized_vec = st.dictionaries(
    st.sampled_from([f"C{i}" for i in range(6)]),
    st.floats(min_value=0.01, max_value=1.0),
    min_size=1,
    max_size=5,
).map(lambda d: {k: v / sum(d.values()) for k, v in d.items()})


@given(a=normalized_vec, b=normalized_vec)
@settings(max_examples=120, deadline=None)
def test_document_flow_mass_balance(a, b):
    moves = one_doc_flow(a, b).flow
    out_total = math.fsum(moves.values())
    # total moved equals the total deficit
    deficit = math.fsum(max(a.get(k, 0) - b.get(k, 0), 0) for k in set(a) | set(b))
    assert abs(out_total - deficit) <= 1e-9
    # per-class conservation: size_a - moved_out + moved_in == size_b
    for k in set(a) | set(b):
        moved_out = math.fsum(w for (i, _), w in moves.items() if i == k)
        moved_in = math.fsum(w for (_, j), w in moves.items() if j == k)
        assert abs(a.get(k, 0.0) - moved_out + moved_in - b.get(k, 0.0)) <= 1e-9


def two_doc_sets():
    va = {"D1": {"PH01": 1.0}, "D2": {"PH01": 0.5, "CH01": 0.5}}
    vb = {"D1": {"CH01": 1.0}, "D2": {"PH01": 0.5, "CH01": 0.5}}
    return (
        AssignmentSet.from_rows(SYSTEM_ASJC, va.items()),
        AssignmentSet.from_rows(SYSTEM_U1, vb.items()),
    )


def test_flow_matrix_totals(scheme):
    set_a, set_b = two_doc_sets()
    m = matrix_dicts(flow_matrix(set_a, set_b, "category"))
    assert_vec_close(m.size_a, {"PH01": 1.5, "CH01": 0.5})
    assert_vec_close(m.size_b, {"PH01": 0.5, "CH01": 1.5})
    assert_vec_close(m.common, {"PH01": 0.5, "CH01": 0.5})
    assert set(m.flow) == {("PH01", "CH01")}
    assert abs(m.flow[("PH01", "CH01")] - 1.0) <= 1e-12


def test_flow_matrix_area_level_collapses_first(scheme):
    # PH01 -> PH02 moves vanish at area level because both sit in PH
    va = {"D1": {"PH01": 1.0}}
    vb = {"D1": {"PH02": 1.0}}
    m = matrix_dicts(flow_matrix(
        AssignmentSet.from_rows(SYSTEM_ASJC, va.items()),
        AssignmentSet.from_rows(SYSTEM_U1, vb.items()), "area", scheme
    ))
    assert m.flow == {}
    assert_vec_close(m.common, {"PH": 1.0})


def test_flow_matrix_rejects_mismatched_docs():
    set_a = AssignmentSet.from_rows(SYSTEM_ASJC, [("D1", {"X": 1.0})])
    set_b = AssignmentSet.from_rows(SYSTEM_U1, [("D2", {"X": 1.0})])
    with pytest.raises(ValidationError):
        flow_matrix(set_a, set_b, "category")


def test_accumulator_matches_flow_matrix(syn200):
    scheme, corpus = syn200
    set_a = classify_asjc(corpus, scheme)
    set_b = classify_u1f08_all(corpus, scheme)
    for level, to_level in (
        ("category", lambda vec: vec),
        ("area", lambda vec: plain_collapse(vec, scheme)),
    ):
        matrix = flow_matrix(set_a, set_b, level, scheme)
        direct = matrix_dicts(matrix)
        # the oracle's flows of each document, summed in document order
        size_a, size_b, common, flow = {}, {}, {}, {}
        for doc_id in set_a.doc_ids:
            vec_a, vec_b = to_level(vector(set_a, doc_id)), to_level(vector(set_b, doc_id))
            doc_common, moves = oracle_flow(vec_a, vec_b)
            for total, part in ((size_a, vec_a), (size_b, vec_b), (common, doc_common), (flow, moves)):
                for k, w in part.items():
                    total[k] = total.get(k, 0.0) + w
        assert direct.size_a == dict(sorted(size_a.items()))
        assert direct.size_b == dict(sorted(size_b.items()))
        assert direct.common == dict(sorted(common.items()))
        assert direct.flow == dict(sorted(flow.items()))
        assert list(direct.flow) == sorted(flow)
        # every class either set holds, in code order, and each class's flows added in pair order
        assert matrix.classes == sorted(set(size_a) | set(size_b))
        incoming, outgoing = dict.fromkeys(matrix.classes, 0.0), dict.fromkeys(matrix.classes, 0.0)
        for (i, j), w in direct.flow.items():
            outgoing[i] += w
            incoming[j] += w
        assert matrix.incoming.tolist() == list(incoming.values())
        assert matrix.outgoing.tolist() == list(outgoing.values())


def test_class_flow_stats_balance(syn200):
    scheme, corpus = syn200
    set_a = classify_asjc(corpus, scheme)
    set_b = classify_u1f08_all(corpus, scheme)
    m = flow_matrix(set_a, set_b, "category")
    # global: both sizes sum to the document count
    assert abs(math.fsum(m.size_a.tolist()) - len(corpus)) <= 1e-6
    assert abs(math.fsum(m.size_b.tolist()) - len(corpus)) <= 1e-6
    for size_a, size_b, common, incoming, outgoing, pct_incoming, pct_outgoing in zip(
            *(getattr(m, name).tolist() for name in CLASS_STATS_HEADER[1:])):
        assert abs((size_a - size_b) - (outgoing - incoming)) <= 1e-9
        assert common <= min(size_a, size_b) + 1e-9
        if size_a > 0:
            assert pct_incoming == pytest.approx(100.0 * incoming / size_a)
            assert pct_outgoing == pytest.approx(100.0 * outgoing / size_a)
        else:
            assert math.isnan(pct_incoming) and math.isnan(pct_outgoing)


def test_class_held_only_by_b_has_na_percentages(tmp_path):
    # Z has no ASJC-FRAC weight, so its percentages are undefined: NaN in the
    # matrix, NA in the CSV, and NaN again when read back
    set_a = AssignmentSet.from_rows(SYSTEM_ASJC, [("D1", {"X": 1.0})])
    set_b = AssignmentSet.from_rows(SYSTEM_U1, [("D1", {"X": 0.5, "Z": 0.5})])
    m = flow_matrix(set_a, set_b, "category")
    assert m.classes == ["X", "Z"]
    assert m.pct_outgoing[0] == 50.0 and np.isnan(m.pct_outgoing[1]) and np.isnan(m.pct_incoming[1])
    p = tmp_path / "stats.csv"
    write_class_stats_csv(m, str(p))
    assert p.read_text().splitlines()[1:] == [
        "X,1.000000,0.500000,0.500000,0.000000,0.500000,0.000000,50.000000",
        "Z,0.000000,0.500000,0.000000,0.500000,0.000000,NA,NA",
    ]
    classes, stats = read_class_stats_csv(str(p))
    assert classes == m.classes
    assert np.array_equal(stats, np.array([getattr(m, name) for name in CLASS_STATS_HEADER[1:]]).T, equal_nan=True)


def test_top_links_sorted_and_filtered():
    set_a = AssignmentSet.from_rows(SYSTEM_ASJC, [("D1", {"X": 1.0}), ("D2", {"Y": 1.0}), ("D3", {"W": 1.0}),
                                                  ("D4", {"A": 1.0})])
    set_b = AssignmentSet.from_rows(SYSTEM_U1, [("D1", {"Z": 1.0}), ("D2", {"Z": 0.5, "Y": 0.5}),
                                                ("D3", {"Z": 0.3, "W": 0.7}), ("D4", {"Z": 1.0})])
    m = flow_matrix(set_a, set_b, "category")
    links = [(m.classes[m.source[k]], m.classes[m.target[k]], m.flow[k]) for k in top_links(m, 0.4)]
    # heaviest first, the tie at 1.0 by class pair; W -> Z (0.3) is below the cut
    assert links == [("A", "Z", 1.0), ("X", "Z", 1.0), ("Y", "Z", 0.5)]
    assert list(flow_rows(m, top_links(m, 0.4))) == [
        ["A", "Z", "1.000000"], ["X", "Z", "1.000000"], ["Y", "Z", "0.500000"]]


def test_summary_stats_population_std():
    rows = summary_rows([("m", [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])])
    assert rows == [["m", 8, "5.000000", "2.000000", "40.000000"]]


def test_summary_stats_zero_mean_has_no_cv():
    rows = summary_rows([("m", [1.0, -1.0])])
    assert rows == [["m", 2, "0.000000", "1.000000", "NA"]]


def test_summary_rows_of_no_values_are_na():
    assert summary_rows([("m", [])]) == [["m", 0, "NA", "NA", "NA"]]


def test_flow_csv_roundtrip(tmp_path, syn200):
    scheme, corpus = syn200
    set_a = classify_asjc(corpus, scheme)
    set_b = classify_u1f08_all(corpus, scheme)
    m = flow_matrix(set_a, set_b, "area", scheme)
    p = tmp_path / "flows.csv"
    write_flow_csv(m, str(p))
    codes, source, target, weight = read_flow_csv(str(p))
    back = dict(zip([(codes[i], codes[j]) for i, j in zip(source.tolist(), target.tolist())], weight.tolist()))
    flows = matrix_dicts(m).flow
    assert list(back) == list(flows)
    for k in flows:
        assert abs(back[k] - flows[k]) <= 1e-6

    p2 = tmp_path / "stats.csv"
    write_class_stats_csv(m, str(p2))
    classes, stats = read_class_stats_csv(str(p2))
    assert classes == m.classes
    for k, name in enumerate(CLASS_STATS_HEADER[1:]):
        assert np.abs(stats[:, k] - getattr(m, name)).max() <= 1e-6
