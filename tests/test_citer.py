import math

import numpy as np
import pytest

from citeclass import (
    Document,
    ThresholdPolicy,
    ValidationError,
    apply_threshold,
    citer,
    classify_asjc,
    classify_u1f08_all,
    oracle_classify,
)
from conftest import assert_vec_close, make_corpus


# keeps every category with positive weight, so a one-reference document's
# vector is its reference's profile
KEEP_ALL = ThresholdPolicy(theta=1e-9, min_references=1)


def u1_setup(scheme, docs, journals=None):
    corpus = make_corpus(scheme, docs, journals)
    asjc_set = classify_asjc(corpus, scheme)
    return corpus, asjc_set


def test_threshold_policy_validation():
    with pytest.raises(ValidationError):
        ThresholdPolicy(theta=1.5)
    with pytest.raises(ValidationError):
        ThresholdPolicy(max_categories=0)
    with pytest.raises(ValidationError):
        ThresholdPolicy(min_references=-1)


def test_reference_profile_averages_citers(scheme):
    # R cited by C1 {PH01:1} and C2 {PH01:0.5, CH01:0.5} -> {PH01:.75, CH01:.25}
    docs = [
        Document("R", "J-PH2", 2010, "article", (), 0),
        Document("C1", "J-PH", 2012, "article", ("R",), 0),
        Document("C2", "J-MIX", 2012, "article", ("R",), 0),
        Document("D", "J-CH", 2013, "article", ("R",), 0),
    ]
    corpus = make_corpus(scheme, docs)
    prof = classify_u1f08_all(corpus, scheme, KEEP_ALL).get("D")
    assert_vec_close(prof, {"PH01": 0.75, "CH01": 0.25})


def test_reference_profile_excludes_classified_doc(scheme):
    docs = [
        Document("R", "J-PH2", 2010, "article", (), 0),
        Document("D", "J-CH", 2013, "article", ("R",), 0),
    ]
    corpus = make_corpus(scheme, docs)
    # D is R's only citer; excluding D leaves none -> R's own journal vector
    prof = classify_u1f08_all(corpus, scheme, KEEP_ALL).get("D")
    assert_vec_close(prof, {"PH02": 1.0})


def test_reference_profile_external_is_empty(scheme):
    # the only reference is external: its profile is empty, so D keeps its
    # journal vector
    docs = [Document("D", "J-CH", 2013, "article", ("X9",), 0)]
    corpus, asjc_set = u1_setup(scheme, docs)
    assert classify_u1f08_all(corpus, scheme, KEEP_ALL).get("D") == asjc_set.get("D")


def test_aggregate_skips_empty_profiles(scheme):
    # an external reference adds nothing: D's vector is the mean of the
    # profiles {PH01:1}, {PH01:.5, CH01:.5}, {CH01:1} with or without X9
    for refs in (("R1", "R2", "R3", "X9"), ("R1", "R2", "R3")):
        docs = [
            Document("R1", "J-CH", 2010, "article", (), 0),
            Document("R2", "J-CH", 2010, "article", (), 0),
            Document("R3", "J-PH", 2010, "article", (), 0),
            Document("C1", "J-PH", 2012, "article", ("R1",), 0),
            Document("C2", "J-MIX", 2012, "article", ("R2",), 0),
            Document("C3", "J-CH", 2012, "article", ("R3",), 0),
            Document("D", "J-PH2", 2013, "article", refs, 0),
        ]
        corpus = make_corpus(scheme, docs)
        agg = classify_u1f08_all(corpus, scheme, KEEP_ALL).get("D")
        assert_vec_close(agg, {"PH01": 0.5, "CH01": 0.5})


def test_aggregate_all_empty(scheme):
    # only external references, or none at all: the document falls back
    docs = [
        Document("D1", "J-CH", 2013, "article", ("X1", "X2"), 0),
        Document("D2", "J-PH", 2013, "article", (), 0),
    ]
    corpus, asjc_set = u1_setup(scheme, docs)
    u1 = classify_u1f08_all(corpus, scheme, KEEP_ALL)
    assert u1.get("D1") == asjc_set.get("D1")
    no_min = ThresholdPolicy(theta=1e-9, min_references=0)
    assert classify_u1f08_all(corpus, scheme, no_min).get("D2") == asjc_set.get("D2")


def cut_rows(rows, policy=ThresholdPolicy()):
    """apply_threshold of a block whose columns are the codes A, B, ... as
    one {code: weight} dict per row."""
    out = apply_threshold(np.array(rows, dtype=np.float64), policy)
    return [{"ABCDEFG"[c]: w for c, w in zip(out.indices[lo:hi].tolist(), out.data[lo:hi].tolist())}
            for lo, hi in zip(out.indptr[:-1].tolist(), out.indptr[1:].tolist())]


def test_apply_threshold_keeps_relative_08():
    [out] = cut_rows([[0.50, 0.41, 0.39]])
    # 0.39 < 0.8 * 0.50 = 0.40 -> dropped; kept renormalized
    assert set(out) == {"A", "B"}
    assert_vec_close(out, {"A": 0.50 / 0.91, "B": 0.41 / 0.91}, tol=1e-12)


def test_apply_threshold_boundary_kept():
    # 0.4 == 0.8 * 0.5 exactly: kept; a ratio of 0.8 short by float noise
    # is kept too
    for out in cut_rows([[0.5, 0.4], [1.0, 0.7999999999999998]]):
        assert set(out) == {"A", "B"}


def test_apply_threshold_ratios_around_theta():
    # one ulp either side of 0.8 rounds to 0.8 at 12 decimals and is kept;
    # 0.7999999999994 rounds below it, 0.7999999999996 does not
    below, above = math.nextafter(0.8, 0.0), math.nextafter(0.8, 1.0)
    out = cut_rows([[1.0, below, above, 0.7999999999994, 0.7999999999996, 0.7]])
    assert [sorted(row) for row in out] == [["A", "B", "C", "E"]]


def test_apply_threshold_caps_at_five_by_weight_then_code():
    # six tied weights; A one ulp short of the others still ties: float
    # noise does not rank
    out = cut_rows([[a_weight] + [1.0] * 5 for a_weight in (1.0, 1.0 - 2.0 ** -52)])
    for row in out:
        # all tied: the first five codes survive
        assert sorted(row) == ["A", "B", "C", "D", "E"]
        assert_vec_close(row, {c: 0.2 for c in "ABCDE"})


def test_apply_threshold_cap_ranks_each_row():
    # exact ties under the cap go by code; the heavier weight ranks first
    # wherever it sits, and a row under the cap is not ranked
    policy = ThresholdPolicy(theta=0.5, max_categories=3)
    out = cut_rows([[0.9, 0.9, 0.9, 0.9, 1.0, 0.9, 0.9],
                    [0.6, 0.6, 0.6, 0.6, 0.6, 0.6, 0.6],
                    [0.0, 1.0, 0.0, 0.9, 0.0, 0.0, 0.2]], policy)
    assert [sorted(row) for row in out] == [["A", "B", "E"], ["A", "B", "C"], ["B", "D"]]


def test_apply_threshold_divides_by_exact_sum():
    # the kept weights 0.1, 0.2, 0.3 sum to 0.6000000000000001 in order but
    # to 0.6 exactly
    kept = [0.1, 0.2, 0.3]
    assert sum(kept) != math.fsum(kept)
    [out] = cut_rows([[0.1, 0.2, 0.3, 0.0]], ThresholdPolicy(theta=0.3))
    assert out == {c: w / math.fsum(kept) for c, w in zip("ABC", kept)}


def test_apply_threshold_empty_row():
    out = cut_rows([[0.0, 0.0, 0.0], [0.0, 1e-16, 0.0], [0.0, 2.0, 0.0]])
    assert out == [{}, {}, {"B": 1.0}]


def test_classify_few_references_falls_back(scheme):
    docs = [
        Document("R1", "J-PH", 2010, "article", (), 0),
        Document("R2", "J-PH", 2010, "article", (), 0),
        Document("D", "J-CH", 2013, "article", ("R1", "R2"), 0),
    ]
    corpus, asjc_set = u1_setup(scheme, docs)
    a = classify_u1f08_all(corpus, scheme)
    assert a.get("D") == asjc_set.get("D")


def test_classify_all_external_falls_back(scheme):
    docs = [Document("D", "J-CH", 2013, "article", ("X1", "X2", "X3"), 0)]
    corpus, asjc_set = u1_setup(scheme, docs)
    a = classify_u1f08_all(corpus, scheme)
    assert a.get("D") == asjc_set.get("D")


def test_classify_uses_citer_origin_not_own_journal(scheme):
    # D (chemistry journal) cites three physics-cited references: the
    # citer-origin route must say physics, ignoring D's own journal.
    docs = [
        Document("R1", "J-CH", 2010, "article", (), 0),
        Document("R2", "J-CH", 2010, "article", (), 0),
        Document("R3", "J-CH", 2010, "article", (), 0),
        Document("C1", "J-PH", 2012, "article", ("R1", "R2", "R3"), 0),
        Document("C2", "J-PH", 2012, "article", ("R1", "R2", "R3"), 0),
        Document("D", "J-CH", 2013, "article", ("R1", "R2", "R3"), 0),
    ]
    corpus = make_corpus(scheme, docs)
    a = classify_u1f08_all(corpus, scheme)
    assert_vec_close(a.get("D"), {"PH01": 1.0})


def test_classify_excludes_self_from_citer_pools(scheme):
    # D is the only citer of its references, so every profile falls back to
    # the reference's own journal vector.
    docs = [
        Document("R1", "J-PH", 2010, "article", (), 0),
        Document("R2", "J-PH2", 2010, "article", (), 0),
        Document("R3", "J-PH", 2010, "article", (), 0),
        Document("D", "J-CH", 2013, "article", ("R1", "R2", "R3"), 0),
    ]
    corpus = make_corpus(scheme, docs)
    a = classify_u1f08_all(corpus, scheme)
    # mean of {PH01:1}, {PH02:1}, {PH01:1} = {PH01:2/3, PH02:1/3};
    # 1/3 < 0.8 * 2/3 -> only PH01 kept
    assert_vec_close(a.get("D"), {"PH01": 1.0})


def test_citer_window_masks_old_citers(scheme):
    # R0 (2010) is cited by C0 (2011, chemistry), C1 (2015, physics) and D
    # (2013). The window is measured from the cited document's year.
    docs = [
        Document("R0", "J-PH2", 2010, "article", (), 0),
        Document("C0", "J-CH", 2011, "article", ("R0",), 0),
        Document("C1", "J-PH", 2015, "article", ("R0",), 0),
        Document("D", "J-CH", 2013, "article", ("R0", "X1", "X2"), 0),
    ]
    corpus = make_corpus(scheme, docs)
    full = classify_u1f08_all(corpus, scheme).get("D")
    assert_vec_close(full, {"CH01": 0.5, "PH01": 0.5})
    cut = classify_u1f08_all(corpus, scheme, citer_window=1).get("D")
    # only C0 (2011 - 2010 <= 1) remains a citer of R0
    assert_vec_close(cut, {"CH01": 1.0})


@pytest.mark.parametrize("citer_window", [None, 2])
def test_chunks_give_the_one_chunk_weights(syn2000, monkeypatch, citer_window):
    # 286 chunks of 7 documents, some holding no in-corpus reference
    scheme, corpus = syn2000
    whole = classify_u1f08_all(corpus, scheme, ThresholdPolicy(), citer_window).weights
    monkeypatch.setattr(citer, "CHUNK_SIZE", 7)
    chunked = classify_u1f08_all(corpus, scheme, ThresholdPolicy(), citer_window).weights
    for part in ("indptr", "indices", "data"):
        x, y = getattr(whole, part), getattr(chunked, part)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), part


@pytest.mark.parametrize("citer_window", [None, 1, 2])
def test_batch_matches_oracle(syn2000, citer_window):
    scheme, corpus = syn2000
    policy = ThresholdPolicy()
    batch = classify_u1f08_all(corpus, scheme, policy, citer_window)
    oracle = oracle_classify(corpus, scheme, policy, citer_window)
    for d in corpus.documents:
        assert_vec_close(oracle.get(d.doc_id), batch.get(d.doc_id), tol=1e-9)


def test_support_bounds_and_threshold(syn2000):
    scheme, corpus = syn2000
    policy = ThresholdPolicy()
    u1 = classify_u1f08_all(corpus, scheme, policy)
    thresholded = 0
    for d in corpus.documents:
        vec = u1.get(d.doc_id)
        total = sum(vec.values())
        assert abs(total - 1.0) <= 1e-9
        # the written fallback rule: the other system's support is carried over
        if len(d.references) < policy.min_references or not any(r in corpus for r in d.references):
            continue
        assert 1 <= len(vec) <= policy.max_categories
        thresholded += 1
    assert thresholded > len(corpus) // 2
