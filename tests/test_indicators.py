import math

import pytest

from citeclass import (
    AssignmentSet,
    Document,
    Journal,
    SYSTEM_ASJC,
    SYSTEM_U1,
    ValidationError,
    build_citation_index,
    category_baselines,
    classify_asjc,
    excellence_flags,
    excellence_overlap,
    excellence_thresholds,
    ni_abs_diff_series,
    ni_std_by_area,
    ni_table,
    normalized_impact,
)
from citeclass.indicators import NIDiagnostics, _cell_cut
from citeclass.weights import collapse_to_areas
from conftest import make_corpus


def single_cat_corpus(scheme, citations, year=2015, doc_type="article"):
    """n unit-weight physics documents with the given citation counts."""
    docs = [
        Document(f"D{i:04d}", "J-PH", year, doc_type, (), cit)
        for i, cit in enumerate(citations)
    ]
    corpus = make_corpus(scheme, docs)
    aset = classify_asjc(corpus, scheme)
    return corpus, aset


def test_baselines_weighted_mean(scheme):
    corpus, aset = single_cat_corpus(scheme, [0, 10, 20])
    index = build_citation_index(corpus)
    b = category_baselines(corpus, aset, index)
    cell = ("article", 2015, "PH01")
    assert b.mean_citations[cell] == pytest.approx(10.0)
    assert b.cell_weight[cell] == pytest.approx(3.0)


def test_baselines_split_by_type_and_year(scheme):
    docs = [
        Document("D1", "J-PH", 2015, "article", (), 10),
        Document("D2", "J-PH", 2015, "review", (), 30),
        Document("D3", "J-PH", 2016, "article", (), 50),
    ]
    corpus = make_corpus(scheme, docs)
    aset = classify_asjc(corpus, scheme)
    b = category_baselines(corpus, aset, build_citation_index(corpus))
    assert b.mean_citations[("article", 2015, "PH01")] == pytest.approx(10.0)
    assert b.mean_citations[("review", 2015, "PH01")] == pytest.approx(30.0)
    assert b.mean_citations[("article", 2016, "PH01")] == pytest.approx(50.0)


def test_ni_is_one_for_constant_citations(scheme):
    corpus, aset = single_cat_corpus(scheme, [7, 7, 7, 7])
    index = build_citation_index(corpus)
    b = category_baselines(corpus, aset, index)
    ni, diag = ni_table(corpus, aset, b, index)
    assert all(v == pytest.approx(1.0) for v in ni.values())
    assert diag.total() == 0


def test_ni_weighted_cell_mean_is_one(syn200):
    scheme, corpus = syn200
    aset = classify_asjc(corpus, scheme)
    index = build_citation_index(corpus)
    b = category_baselines(corpus, aset, index)
    # per cell: weighted mean of cit/mean over member docs equals 1
    sums = {}
    for d in corpus.documents:
        cit = index.count(d.doc_id)
        for c, w in aset.get(d.doc_id).items():
            cell = (d.doc_type, d.year, c)
            mean = b.mean_citations[cell]
            if mean == 0.0:
                continue
            s, ww = sums.get(cell, (0.0, 0.0))
            sums[cell] = (s + w * cit / mean, ww + w)
    for cell, (s, ww) in sums.items():
        assert s / ww == pytest.approx(1.0, abs=1e-9)


def test_ni_zero_mean_cell_contributes_zero(scheme):
    corpus, aset = single_cat_corpus(scheme, [0, 0, 0])
    index = build_citation_index(corpus)
    b = category_baselines(corpus, aset, index)
    diag = NIDiagnostics()
    v = normalized_impact(corpus.documents[0], aset.get("D0000"), b, index, diag)
    assert v == 0.0
    assert diag.total() == 1
    assert diag.zero_mean_hits[("article", 2015, "PH01")] == 1


def test_ni_missing_cell_errors(scheme):
    corpus, aset = single_cat_corpus(scheme, [1, 2])
    index = build_citation_index(corpus)
    b = category_baselines(corpus, aset, index)
    stranger = Document("DX", "J-CH", 2015, "article", (), 3)
    with pytest.raises(ValidationError):
        normalized_impact(stranger, {"CH01": 1.0}, b, index)


def test_ni_scale_invariance_under_doubling(scheme):
    cits = [0, 1, 2, 5, 9, 14]
    corpus1, aset = single_cat_corpus(scheme, cits)
    corpus2, _ = single_cat_corpus(scheme, [2 * c for c in cits])
    ni1, _ = ni_table(corpus1, aset, category_baselines(
        corpus1, aset, build_citation_index(corpus1)), build_citation_index(corpus1))
    ni2, _ = ni_table(corpus2, aset, category_baselines(
        corpus2, aset, build_citation_index(corpus2)), build_citation_index(corpus2))
    for doc_id in ni1:
        assert abs(ni1[doc_id] - ni2[doc_id]) <= 1e-12


def test_ni_abs_diff_series(scheme):
    docs = [
        Document("D1", "J-PH", 2015, "article", (), 4),
        Document("D2", "J-PH", 2015, "article", (), 8),
        Document("D3", "J-PH", 2016, "article", (), 6),
    ]
    corpus = make_corpus(scheme, docs)
    ni_a = {"D1": 1.0, "D2": 0.5, "D3": 2.0}
    ni_b = {"D1": 1.2, "D2": 0.9, "D3": 2.0}
    series = ni_abs_diff_series(ni_a, ni_b, corpus)
    assert series == [(2015, pytest.approx(0.3)), (2016, pytest.approx(0.0))]
    dropped = ni_abs_diff_series(ni_a, ni_b, corpus, drop_last_year=True)
    assert [y for y, _ in dropped] == [2015]


def test_ni_std_by_area_weighted(scheme):
    vectors = {
        "D1": {"PH01": 1.0},
        "D2": {"PH01": 0.5, "CH01": 0.5},
    }
    aset = AssignmentSet(SYSTEM_ASJC, vectors)
    ni = {"D1": 2.0, "D2": 0.0}
    out = dict(ni_std_by_area(ni, aset.to_areas(scheme)))
    # PH: weights 1.0 and 0.5 on values 2 and 0 -> mean 4/3, var 8/9
    assert out["PH"] == pytest.approx(math.sqrt(8.0 / 9.0))
    # CH: single value 0 with weight .5 -> std 0
    assert out["CH"] == pytest.approx(0.0)


def test_cell_cut_distinct_values():
    vw = {c: 1.0 for c in range(1, 11)}
    assert _cell_cut(vw, 0.10) == 10


def test_cell_cut_all_tied_gives_empty_top():
    vw = {5: 4.0}
    # any cut <= 5 includes 100% of weight; the top must stay <= p
    assert _cell_cut(vw, 0.10) == 6


def test_cell_cut_p_one_keeps_everyone():
    vw = {3: 1.0, 1: 2.0}
    assert _cell_cut(vw, 1.0) == 0


def test_cell_cut_partial_tie():
    # values 3 (w1) and 1 (w1): share(>=2) = .5 <= .5 and 2 is the smallest
    # such threshold
    assert _cell_cut({3: 1.0, 1: 1.0}, 0.5) == 2
    # share(>=17) = 0.8 / 3.2 = 0.25 exactly, though the float sum lands above
    vw = {28: 0.6, 21: 0.2, 16: 1.4, 14: 0.5, 6: 1 / 3, 4: 1 / 6}
    assert _cell_cut(vw, 0.25) == 17


def test_excellence_share_capped(syn200):
    scheme, corpus = syn200
    aset = classify_asjc(corpus, scheme)
    index = build_citation_index(corpus)
    for p in (0.10, 0.01):
        th = excellence_thresholds(corpus, aset.to_areas(scheme), index, p)
        # recompute weighted share per cell, must be <= p
        shares = {}
        for d in corpus.documents:
            cit = index.count(d.doc_id)
            for a, w in collapse_to_areas(aset.get(d.doc_id), scheme).items():
                cell = (d.doc_type, d.year, a)
                tot, exc = shares.get(cell, (0.0, 0.0))
                shares[cell] = (tot + w, exc + (w if cit >= th.cut[cell] else 0.0))
        for cell, (tot, exc) in shares.items():
            assert exc / tot <= p + 1e-12, cell


def test_excellence_exact_share_with_distinct_citations(scheme):
    corpus, aset = single_cat_corpus(scheme, list(range(1000)))
    index = build_citation_index(corpus)
    areas = aset.to_areas(scheme)
    th = excellence_thresholds(corpus, areas, index, 0.10)
    flags = excellence_flags(corpus, areas, th, index)
    share = sum(flags.values()) / len(flags)
    assert abs(share - 0.10) <= 0.001


def test_excellence_all_tied_cell_has_no_excellent_docs(scheme):
    corpus, aset = single_cat_corpus(scheme, [5] * 100)
    index = build_citation_index(corpus)
    areas = aset.to_areas(scheme)
    th = excellence_thresholds(corpus, areas, index, 0.10)
    flags = excellence_flags(corpus, areas, th, index)
    assert not any(flags.values())


def test_excellence_p1_subset_of_p10(syn200):
    scheme, corpus = syn200
    areas = classify_asjc(corpus, scheme).to_areas(scheme)
    index = build_citation_index(corpus)
    f10 = excellence_flags(corpus, areas, excellence_thresholds(corpus, areas, index, 0.10), index)
    f1 = excellence_flags(corpus, areas, excellence_thresholds(corpus, areas, index, 0.01), index)
    for doc_id, flag in f1.items():
        if flag:
            assert f10[doc_id]


def test_excellence_rejects_bad_p(scheme):
    corpus, aset = single_cat_corpus(scheme, [1, 2])
    index = build_citation_index(corpus)
    areas = aset.to_areas(scheme)
    with pytest.raises(ValidationError):
        excellence_thresholds(corpus, areas, index, 0.0)
    with pytest.raises(ValidationError):
        excellence_thresholds(corpus, areas, index, 1.5)


def test_excellence_overlap_percentages(scheme):
    vectors_b = {
        "D1": {"PH01": 1.0},
        "D2": {"PH01": 1.0},
        "D3": {"PH01": 0.5, "CH01": 0.5},
        "D4": {"CH01": 1.0},
    }
    aset_b = AssignmentSet(SYSTEM_U1, vectors_b)
    flags_a = {"D1": True, "D2": False, "D3": True, "D4": False}
    flags_b = {"D1": True, "D2": True, "D3": False, "D4": False}
    rows = {r.area: r for r in excellence_overlap(flags_a, flags_b, aset_b.to_areas(scheme))}
    # PH size under B = 2.5; both: D1 (1.0) -> 40%; only B: D2 (1.0) -> 40%;
    # only A: D3 (0.5) -> 20%
    assert rows["PH"].pct_common == pytest.approx(40.0)
    assert rows["PH"].pct_only_b == pytest.approx(40.0)
    assert rows["PH"].pct_only_a == pytest.approx(20.0)
    # CH size = 1.5; only A: D3 (0.5) -> 33.33%
    assert rows["CH"].pct_only_a == pytest.approx(100.0 / 3.0)
    assert rows["CH"].pct_common == pytest.approx(0.0)


def test_to_areas_collapses_once_per_shared_vector(syn200):
    scheme, corpus = syn200
    aset = classify_asjc(corpus, scheme)
    areas = aset.to_areas(scheme)
    assert areas.system == aset.system
    assert list(areas.vectors) == list(aset.vectors)
    for doc_id, vec in aset.vectors.items():
        assert areas.get(doc_id) == collapse_to_areas(vec, scheme)
    # classify_asjc gives every document of a journal one vector object
    by_journal = {}
    for d in corpus.documents:
        by_journal.setdefault(d.journal_id, []).append(d.doc_id)
    first, second = next(ids for ids in by_journal.values() if len(ids) >= 2)[:2]
    assert aset.get(first) is aset.get(second)
    assert areas.get(first) is areas.get(second)
