import math

import pytest
from hypothesis import given, settings, strategies as st

from citeclass import (
    AssignmentSet,
    SYSTEM_ASJC,
    SYSTEM_U1,
    ValidationError,
    class_flow_stats,
    flow_matrix,
    summary_stats,
    top_links,
)
from citeclass.flow import (
    read_class_stats_csv,
    read_flow_csv,
    write_class_stats_csv,
    write_flow_csv,
)
from citeclass.syngen import oracle_flow
from conftest import assert_vec_close, one_doc_flow, plain_collapse


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
    m = flow_matrix(set_a, set_b, "category")
    assert m.n_docs == 2
    assert_vec_close(m.size_a, {"PH01": 1.5, "CH01": 0.5})
    assert_vec_close(m.size_b, {"PH01": 0.5, "CH01": 1.5})
    assert_vec_close(m.common, {"PH01": 0.5, "CH01": 0.5})
    assert set(m.flow) == {("PH01", "CH01")}
    assert abs(m.flow[("PH01", "CH01")] - 1.0) <= 1e-12


def test_flow_matrix_area_level_collapses_first(scheme):
    # PH01 -> PH02 moves vanish at area level because both sit in PH
    va = {"D1": {"PH01": 1.0}}
    vb = {"D1": {"PH02": 1.0}}
    m = flow_matrix(
        AssignmentSet.from_rows(SYSTEM_ASJC, va.items()),
        AssignmentSet.from_rows(SYSTEM_U1, vb.items()), "area", scheme
    )
    assert m.flow == {}
    assert_vec_close(m.common, {"PH": 1.0})


def test_flow_matrix_rejects_mismatched_docs():
    set_a = AssignmentSet.from_rows(SYSTEM_ASJC, [("D1", {"X": 1.0})])
    set_b = AssignmentSet.from_rows(SYSTEM_U1, [("D2", {"X": 1.0})])
    with pytest.raises(ValidationError):
        flow_matrix(set_a, set_b, "category")


def test_accumulator_matches_flow_matrix(syn200):
    from citeclass import classify_asjc, classify_u1f08_all

    scheme, corpus = syn200
    set_a = classify_asjc(corpus, scheme)
    set_b = classify_u1f08_all(corpus, scheme)
    for level, to_level in (
        ("category", lambda vec: vec),
        ("area", lambda vec: plain_collapse(vec, scheme)),
    ):
        direct = flow_matrix(set_a, set_b, level, scheme)
        # the oracle's flows of each document, summed in document order
        size_a, size_b, common, flow = {}, {}, {}, {}
        for doc_id in set_a.doc_ids:
            vec_a, vec_b = to_level(set_a.get(doc_id)), to_level(set_b.get(doc_id))
            doc_common, moves = oracle_flow(vec_a, vec_b)
            for total, part in ((size_a, vec_a), (size_b, vec_b), (common, doc_common), (flow, moves)):
                for k, w in part.items():
                    total[k] = total.get(k, 0.0) + w
        assert direct.n_docs == len(corpus)
        assert direct.size_a == dict(sorted(size_a.items()))
        assert direct.size_b == dict(sorted(size_b.items()))
        assert direct.common == dict(sorted(common.items()))
        assert direct.flow == dict(sorted(flow.items()))


def test_class_flow_stats_balance(syn200):
    from citeclass import classify_asjc, classify_u1f08_all

    scheme, corpus = syn200
    set_a = classify_asjc(corpus, scheme)
    set_b = classify_u1f08_all(corpus, scheme)
    m = flow_matrix(set_a, set_b, "category")
    rows = class_flow_stats(m)
    # global: both sizes sum to the document count
    assert abs(math.fsum(r.size_a for r in rows) - len(corpus)) <= 1e-6
    assert abs(math.fsum(r.size_b for r in rows) - len(corpus)) <= 1e-6
    for r in rows:
        assert abs((r.size_a - r.size_b) - (r.outgoing - r.incoming)) <= 1e-9
        assert r.common <= min(r.size_a, r.size_b) + 1e-9
        if r.size_a > 0:
            assert r.pct_incoming == pytest.approx(100.0 * r.incoming / r.size_a)
        else:
            assert r.pct_incoming is None


def test_top_links_sorted_and_filtered():
    set_a = AssignmentSet.from_rows(SYSTEM_ASJC, [("D1", {"X": 1.0}), ("D2", {"Y": 1.0})])
    set_b = AssignmentSet.from_rows(SYSTEM_U1, [("D1", {"Z": 1.0}), ("D2", {"Z": 0.5, "Y": 0.5})])
    m = flow_matrix(set_a, set_b, "category")
    links = top_links(m, 0.4)
    assert links[0] == ("X", "Z", 1.0)
    assert all(w >= 0.4 for _, _, w in links)
    weights = [w for _, _, w in links]
    assert weights == sorted(weights, reverse=True)


def test_summary_stats_population_std():
    s = summary_stats([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
    assert s.n == 8
    assert s.mean == pytest.approx(5.0)
    assert s.std == pytest.approx(2.0)
    assert s.cv_pct == pytest.approx(40.0)


def test_summary_stats_zero_mean_has_no_cv():
    s = summary_stats([1.0, -1.0])
    assert s.mean == 0.0
    assert s.cv_pct is None


def test_summary_stats_rejects_empty():
    with pytest.raises(ValidationError):
        summary_stats([])


def test_flow_csv_roundtrip(tmp_path, syn200):
    from citeclass import classify_asjc, classify_u1f08_all

    scheme, corpus = syn200
    set_a = classify_asjc(corpus, scheme)
    set_b = classify_u1f08_all(corpus, scheme)
    m = flow_matrix(set_a, set_b, "area", scheme)
    p = tmp_path / "flows.csv"
    write_flow_csv(m, str(p))
    back = read_flow_csv(str(p), "area")
    assert set(back.flow) == set(m.flow)
    for k in m.flow:
        assert abs(back.flow[k] - m.flow[k]) <= 1e-6

    rows = class_flow_stats(m)
    p2 = tmp_path / "stats.csv"
    write_class_stats_csv(rows, str(p2))
    back_rows = read_class_stats_csv(str(p2))
    assert [r.class_code for r in back_rows] == [r.class_code for r in rows]
    for r1, r2 in zip(rows, back_rows):
        assert abs(r1.size_a - r2.size_a) <= 1e-6
        assert abs(r1.incoming - r2.incoming) <= 1e-6
