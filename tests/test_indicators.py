import math

import numpy as np
import pytest

from citeclass import (
    AssignmentSet,
    Document,
    Journal,
    SYSTEM_ASJC,
    SYSTEM_U1,
    ValidationError,
    WeightColumns,
    build_citation_index,
    category_baselines,
    classify_asjc,
    classify_u1f08_all,
    collapse_to_areas,
    excellence_flags,
    excellence_overlap,
    excellence_thresholds,
    ni_abs_diff_series,
    ni_std_by_area,
    ni_table,
)
from citeclass.indicators import _cell_cut
from citeclass.syngen import oracle_baselines, oracle_excellence
from conftest import make_corpus, plain_collapse


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
    b = category_baselines(WeightColumns(corpus, aset), index)
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
    b = category_baselines(WeightColumns(corpus, aset), build_citation_index(corpus))
    assert b.mean_citations[("article", 2015, "PH01")] == pytest.approx(10.0)
    assert b.mean_citations[("review", 2015, "PH01")] == pytest.approx(30.0)
    assert b.mean_citations[("article", 2016, "PH01")] == pytest.approx(50.0)


def test_ni_is_one_for_constant_citations(scheme):
    corpus, aset = single_cat_corpus(scheme, [7, 7, 7, 7])
    index = build_citation_index(corpus)
    cats = WeightColumns(corpus, aset)
    b = category_baselines(cats, index)
    ni, zero_mean_hits = ni_table(cats, b, index)
    assert all(v == pytest.approx(1.0) for v in ni)
    assert sum(zero_mean_hits.values()) == 0


def test_ni_weighted_cell_mean_is_one(syn200):
    scheme, corpus = syn200
    aset = classify_asjc(corpus, scheme)
    index = build_citation_index(corpus)
    b = category_baselines(WeightColumns(corpus, aset), index)
    # per cell: weighted mean of cit/mean over member docs equals 1
    sums = {}
    for d, cit in zip(corpus.documents, index):
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
    # D0000 is alone in its cell and uncited; D0001 has a cited cell of its own
    corpus = make_corpus(scheme, [
        Document("D0000", "J-PH", 2015, "article", (), 0),
        Document("D0001", "J-CH", 2015, "article", (), 3),
    ])
    cats = WeightColumns(corpus, classify_asjc(corpus, scheme))
    index = build_citation_index(corpus)
    ni, zero_mean_hits = ni_table(cats, category_baselines(cats, index), index)
    assert ni[0] == 0.0
    assert sum(zero_mean_hits.values()) == 1
    assert zero_mean_hits[("article", 2015, "PH01")] == 1


def test_ni_missing_cell_errors(scheme):
    corpus, aset = single_cat_corpus(scheme, [1, 2])
    b = category_baselines(WeightColumns(corpus, aset), build_citation_index(corpus))
    # a corpus with a document in a cell the baselines do not cover
    stranger = Document("DX", "J-CH", 2015, "article", (), 3)
    corpus2 = make_corpus(scheme, [*corpus.documents, stranger])
    cats2 = WeightColumns(corpus2, classify_asjc(corpus2, scheme))
    with pytest.raises(ValidationError):
        ni_table(cats2, b, build_citation_index(corpus2))


def test_ni_scale_invariance_under_doubling(scheme):
    cits = [0, 1, 2, 5, 9, 14]
    corpus1, aset = single_cat_corpus(scheme, cits)
    corpus2, _ = single_cat_corpus(scheme, [2 * c for c in cits])
    cats1, cats2 = WeightColumns(corpus1, aset), WeightColumns(corpus2, aset)
    index1, index2 = build_citation_index(corpus1), build_citation_index(corpus2)
    ni1, _ = ni_table(cats1, category_baselines(cats1, index1), index1)
    ni2, _ = ni_table(cats2, category_baselines(cats2, index2), index2)
    for v1, v2 in zip(ni1, ni2, strict=True):
        assert abs(v1 - v2) <= 1e-12


def test_ni_abs_diff_series(scheme):
    docs = [
        Document("D1", "J-PH", 2015, "article", (), 4),
        Document("D2", "J-PH", 2015, "article", (), 8),
        Document("D3", "J-PH", 2016, "article", (), 6),
    ]
    corpus = make_corpus(scheme, docs)
    # NI arrays in corpus order: D1, D2, D3
    ni_a = np.array([1.0, 0.5, 2.0])
    ni_b = np.array([1.2, 0.9, 2.0])
    series = ni_abs_diff_series(ni_a, ni_b, corpus)
    assert series == [(2015, pytest.approx(0.3)), (2016, pytest.approx(0.0))]
    dropped = ni_abs_diff_series(ni_a, ni_b, corpus, drop_last_year=True)
    assert [y for y, _ in dropped] == [2015]


def test_ni_std_by_area_weighted(scheme):
    vectors = {
        "D1": {"PH01": 1.0},
        "D2": {"PH01": 0.5, "CH01": 0.5},
    }
    aset = AssignmentSet.from_rows(SYSTEM_ASJC, vectors.items())
    corpus = make_corpus(scheme, [Document(d, "J-PH", 2015, "article", (), 0) for d in vectors])
    ni = np.array([2.0, 0.0])
    out = dict(ni_std_by_area(ni, WeightColumns(corpus, collapse_to_areas(aset, scheme))))
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
        th = excellence_thresholds(WeightColumns(corpus, collapse_to_areas(aset, scheme)), index, p)
        # recompute weighted share per cell, must be <= p
        shares = {}
        for d, cit in zip(corpus.documents, index):
            for a, w in plain_collapse(aset.get(d.doc_id), scheme).items():
                cell = (d.doc_type, d.year, a)
                tot, exc = shares.get(cell, (0.0, 0.0))
                shares[cell] = (tot + w, exc + (w if cit >= th[cell] else 0.0))
        for cell, (tot, exc) in shares.items():
            assert exc / tot <= p + 1e-12, cell


def test_excellence_exact_share_with_distinct_citations(scheme):
    corpus, aset = single_cat_corpus(scheme, list(range(1000)))
    index = build_citation_index(corpus)
    areas = WeightColumns(corpus, collapse_to_areas(aset, scheme))
    th = excellence_thresholds(areas, index, 0.10)
    flags = excellence_flags(areas, th, index)
    share = flags.sum() / len(flags)
    assert abs(share - 0.10) <= 0.001


def test_excellence_all_tied_cell_has_no_excellent_docs(scheme):
    corpus, aset = single_cat_corpus(scheme, [5] * 100)
    index = build_citation_index(corpus)
    areas = WeightColumns(corpus, collapse_to_areas(aset, scheme))
    th = excellence_thresholds(areas, index, 0.10)
    flags = excellence_flags(areas, th, index)
    assert not any(flags)


def test_excellence_p1_subset_of_p10(syn200):
    scheme, corpus = syn200
    areas = WeightColumns(corpus, collapse_to_areas(classify_asjc(corpus, scheme), scheme))
    index = build_citation_index(corpus)
    f10 = excellence_flags(areas, excellence_thresholds(areas, index, 0.10), index)
    f1 = excellence_flags(areas, excellence_thresholds(areas, index, 0.01), index)
    for flag1, flag10 in zip(f1, f10, strict=True):
        if flag1:
            assert flag10


def test_excellence_rejects_bad_p(scheme):
    corpus, aset = single_cat_corpus(scheme, [1, 2])
    index = build_citation_index(corpus)
    areas = WeightColumns(corpus, collapse_to_areas(aset, scheme))
    with pytest.raises(ValidationError):
        excellence_thresholds(areas, index, 0.0)
    with pytest.raises(ValidationError):
        excellence_thresholds(areas, index, 1.5)


def test_excellence_overlap_percentages(scheme):
    vectors_b = {
        "D1": {"PH01": 1.0},
        "D2": {"PH01": 1.0},
        "D3": {"PH01": 0.5, "CH01": 0.5},
        "D4": {"CH01": 1.0},
    }
    aset_b = AssignmentSet.from_rows(SYSTEM_U1, vectors_b.items())
    corpus = make_corpus(scheme, [Document(d, "J-PH", 2015, "article", (), 0) for d in vectors_b])
    areas_b = WeightColumns(corpus, collapse_to_areas(aset_b, scheme))
    # flags in corpus order: D1, D2, D3, D4
    flags_a = np.array([True, False, True, False])
    flags_b = np.array([True, True, False, False])
    rows = {r.area: r for r in excellence_overlap(flags_a, flags_b, areas_b)}
    # PH size under B = 2.5; both: D1 (1.0) -> 40%; only B: D2 (1.0) -> 40%;
    # only A: D3 (0.5) -> 20%
    assert rows["PH"].pct_common == pytest.approx(40.0)
    assert rows["PH"].pct_only_b == pytest.approx(40.0)
    assert rows["PH"].pct_only_a == pytest.approx(20.0)
    # CH size = 1.5; only A: D3 (0.5) -> 33.33%
    assert rows["CH"].pct_only_a == pytest.approx(100.0 / 3.0)
    assert rows["CH"].pct_common == pytest.approx(0.0)


@pytest.mark.parametrize("system", [SYSTEM_ASJC, SYSTEM_U1])
def test_to_areas_matches_collapse_to_areas(syn200, system):
    scheme, corpus = syn200
    aset = classify_asjc(corpus, scheme)
    if system == SYSTEM_U1:
        aset = classify_u1f08_all(corpus, scheme)
    cats = WeightColumns(corpus, aset)
    areas = WeightColumns(corpus, collapse_to_areas(aset, scheme))
    # each document's entries, in order, are its vector, and at area level
    # its vector's weights summed per area in code order
    for cols, expected in ((cats, lambda vec: vec),
                           (areas, lambda vec: plain_collapse(vec, scheme))):
        per_doc = [{} for _ in corpus.documents]
        for k in range(len(cols.doc)):
            per_doc[cols.doc[k]][cols.classes[cols.cls[k]]] = cols.weight[k]
        for d, got in zip(corpus.documents, per_doc):
            assert list(got.items()) == list(expected(aset.get(d.doc_id)).items()), d.doc_id


@pytest.fixture(scope="module")
def syn2000_sets(syn2000):
    scheme, corpus = syn2000
    asjc = classify_asjc(corpus, scheme)
    return {SYSTEM_ASJC: asjc, SYSTEM_U1: classify_u1f08_all(corpus, scheme)}


@pytest.mark.parametrize("window", [None, 3])
@pytest.mark.parametrize("system", [SYSTEM_ASJC, SYSTEM_U1])
def test_baselines_match_oracle(syn2000, syn2000_sets, system, window):
    scheme, corpus = syn2000
    aset = syn2000_sets[system]
    b = category_baselines(WeightColumns(corpus, aset), build_citation_index(corpus, window))
    oracle = oracle_baselines(corpus, aset, window)
    assert list(b.mean_citations) == list(oracle)
    for cell, (mean, weight) in oracle.items():
        assert abs(b.mean_citations[cell] - mean) <= 1e-9, cell
        assert abs(b.cell_weight[cell] - weight) <= 1e-9, cell


@pytest.mark.parametrize("p", [0.10, 0.01, 0.25])
@pytest.mark.parametrize("window", [None, 3])
@pytest.mark.parametrize("system", [SYSTEM_ASJC, SYSTEM_U1])
def test_excellence_matches_oracle(syn2000, syn2000_sets, system, window, p):
    scheme, corpus = syn2000
    aset = syn2000_sets[system]
    index = build_citation_index(corpus, window)
    areas = WeightColumns(corpus, collapse_to_areas(aset, scheme))
    th = excellence_thresholds(areas, index, p)
    flags = excellence_flags(areas, th, index)
    cuts, oracle_flags = oracle_excellence(corpus, scheme, aset, p, window)
    assert th == cuts
    assert flags.tolist() == [oracle_flags[d.doc_id] for d in corpus.documents]
