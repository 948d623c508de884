import hashlib
import math

import numpy as np
import pytest

from citeclass import citer
from citeclass.asjc import classify_asjc
from citeclass.citer import ThresholdPolicy, apply_threshold, classify_u1f08_all
from citeclass.corpus import Document, ValidationError
from citeclass.syngen import SynParams, generate_corpus
from conftest import assert_vec_close, make_corpus, vector
from oracles import oracle_classify


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
    prof = vector(classify_u1f08_all(corpus, scheme, KEEP_ALL), "D")
    assert_vec_close(prof, {"PH01": 0.75, "CH01": 0.25})


def test_reference_profile_excludes_classified_doc(scheme):
    docs = [
        Document("R", "J-PH2", 2010, "article", (), 0),
        Document("D", "J-CH", 2013, "article", ("R",), 0),
    ]
    corpus = make_corpus(scheme, docs)
    # D is R's only citer; excluding D leaves none -> R's own journal vector
    prof = vector(classify_u1f08_all(corpus, scheme, KEEP_ALL), "D")
    assert_vec_close(prof, {"PH02": 1.0})


def test_reference_profile_external_is_empty(scheme):
    # the only reference is external: its profile is empty, so D keeps its
    # journal vector
    docs = [Document("D", "J-CH", 2013, "article", ("X9",), 0)]
    corpus, asjc_set = u1_setup(scheme, docs)
    assert vector(classify_u1f08_all(corpus, scheme, KEEP_ALL), "D") == vector(asjc_set, "D")


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
        agg = vector(classify_u1f08_all(corpus, scheme, KEEP_ALL), "D")
        assert_vec_close(agg, {"PH01": 0.5, "CH01": 0.5})


def test_aggregate_all_empty(scheme):
    # only external references, or none at all: the document falls back
    docs = [
        Document("D1", "J-CH", 2013, "article", ("X1", "X2"), 0),
        Document("D2", "J-PH", 2013, "article", (), 0),
    ]
    corpus, asjc_set = u1_setup(scheme, docs)
    u1 = classify_u1f08_all(corpus, scheme, KEEP_ALL)
    assert vector(u1, "D1") == vector(asjc_set, "D1")
    no_min = ThresholdPolicy(theta=1e-9, min_references=0)
    assert vector(classify_u1f08_all(corpus, scheme, no_min), "D2") == vector(asjc_set, "D2")


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
    assert vector(a, "D") == vector(asjc_set, "D")


def test_classify_all_external_falls_back(scheme):
    docs = [Document("D", "J-CH", 2013, "article", ("X1", "X2", "X3"), 0)]
    corpus, asjc_set = u1_setup(scheme, docs)
    a = classify_u1f08_all(corpus, scheme)
    assert vector(a, "D") == vector(asjc_set, "D")


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
    assert_vec_close(vector(a, "D"), {"PH01": 1.0})


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
    assert_vec_close(vector(a, "D"), {"PH01": 1.0})


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
    full = vector(classify_u1f08_all(corpus, scheme), "D")
    assert_vec_close(full, {"CH01": 0.5, "PH01": 0.5})
    cut = vector(classify_u1f08_all(corpus, scheme, citer_window=1), "D")
    # only C0 (2011 - 2010 <= 1) remains a citer of R0
    assert_vec_close(cut, {"CH01": 1.0})


# sha256 of the indptr, indices and data of classify_u1f08_all's weights, as the
# scipy.sparse kernel this one replaced wrote them, by (corpus, theta, citer window)
U1_BYTES = {
    ("syn2000", 0.8, None): ("0712b80e4aa0f48267398a855667c7190de1ba620dc886decce6150b9a0640fa",
                             "a64aa0f91aeee62031b1330547ffe0e268669b0d7162bc6454812574b3acf84d",
                             "2bcde130cb5d122347462103cc2f721909d539376d2381c2b9745d99ec412bb8"),
    ("syn2000", 0.8, 1): ("84e8d336a4e0659874b3b9ccfa51c333063f55be917860c6380cdc342f1bbbe5",
                          "e0204346741deb78515a994e7efefab4d24ed7537e5d09de0eb3108cfdeb25a3",
                          "e11991e2936064d953076d216a0ead7ad9d14a436cd4775b07010140352e61e9"),
    ("syn2000", 0.8, 2): ("04d17c1845afe3c764c222b6abc84f13337e7ae326eb94e678381cf7c687d0b8",
                          "2c53095e88e9434f72c413a032e1051da97edcd92bb25c7c7637aca988a1ebee",
                          "b864f68184fc71a1547bee5b0b5e3f027936de46e5c8419fc69eaa25621fa799"),
    ("syn2000", 0.9, None): ("abed22381e7ea624fc89b657f4e0f27c91cc7a102e63df8ca0c0f3590a9fabc7",
                             "6d1ede4f0d719397cb770ccc0b46acdfeef59dd76680bc6a26c46411de09c765",
                             "f72bd87b814a2dc4c129a292870ebbd723dc30e1fd59999d53c449ac04989932"),
    ("syn285", 0.8, None): ("34cf49735c7eb5f8bdc8dfa47fd1839dd5dafbaa9ab816ba1705bdc964922a6a",
                            "0657b8e0230e860247c0bf7474d41d52f4d9041d202e4f343648b9b43eba2649",
                            "a016fc6b75a0f8b8511c3b7062025f2c0a92d9837e28a0597c3a2f6ffbd56750"),
    ("syn285", 0.8, 1): ("fc7967c3c4574cd90486586ac06528304965147de0896d197d780e0dcc842ca8",
                         "e0776aa499341f2ab051f4dea3d014d03f8166475c0c5df3c51b9cbf22ff06d6",
                         "f2c042b245bbf7f4a8757e7ac2d80772e064b1308450275a470ddd653f4af122"),
    ("syn285", 0.8, 2): ("36c06995ecd62e1ab813d34e7e50fe7d48fed1c928532befade15692c83c2571",
                         "c1139cd312089fb35d851fdf94b0103f73ca53bc0de90829ada7a89a395e10b9",
                         "c270295e5da3ae8dfc08a3f64eb0d79e02ddd138a85aa622172501007b87e8aa"),
    ("syn285", 0.9, None): ("56b7864f7c4baaba0aee9cbe6af971fc87659acf2e0c7290468e3e2b9a74e186",
                            "54ffa730dfa35e0b2a35c1c9d259dedbcf285a16eb0c68b29d9ed9f0a04f8fa9",
                            "0620f6d776baeb3b08311999ffe67ebf2b01481a34e9480388695fd26a5668ed"),
}


@pytest.fixture(scope="module")
def syn285():
    # 300 scheme categories, 285 of them assignable: a default block holds 229 documents
    return generate_corpus(SynParams(n_docs=1500, n_journals=120, seed=5, n_areas=15, cats_per_area=19,
                                     multi_journal_share=0.1, journal_codes_max=4))


def u1_digests(scheme, corpus, theta, citer_window):
    w = classify_u1f08_all(corpus, scheme, ThresholdPolicy(theta=theta), citer_window).weights
    assert (w.indptr.dtype, w.indices.dtype, w.data.dtype) == (np.int64, np.int32, np.float64)
    return tuple(hashlib.sha256(part.tobytes()).hexdigest() for part in w)


@pytest.mark.parametrize("key", list(U1_BYTES), ids=lambda key: "-".join(map(str, key)))
def test_u1_weights_keep_their_bytes(request, key):
    name, theta, citer_window = key
    assert u1_digests(*request.getfixturevalue(name), theta, citer_window) == U1_BYTES[key]


@pytest.mark.parametrize("citer_window", [None, 2])
def test_chunks_give_the_one_chunk_weights(syn2000, syn285, monkeypatch, citer_window):
    # a budget of 7 rows of cells: blocks of 7 documents, some holding no in-corpus reference
    for name, (scheme, corpus) in (("syn2000", syn2000), ("syn285", syn285)):
        pinned = U1_BYTES[name, 0.8, citer_window]
        assert u1_digests(scheme, corpus, 0.8, citer_window) == pinned
        with monkeypatch.context() as patch:
            patch.setattr(citer, "BLOCK_CELLS", 7 * len(classify_asjc(corpus, scheme).codes))
            assert u1_digests(scheme, corpus, 0.8, citer_window) == pinned
            # a budget below one row's cells still takes one document a block
            patch.setattr(citer, "BLOCK_CELLS", 1)
            assert u1_digests(scheme, corpus, 0.8, citer_window) == pinned


@pytest.mark.parametrize("citer_window", [None, 1, 2])
def test_batch_matches_oracle(syn2000, citer_window):
    scheme, corpus = syn2000
    policy = ThresholdPolicy()
    batch = classify_u1f08_all(corpus, scheme, policy, citer_window)
    oracle = oracle_classify(corpus, scheme, policy, citer_window)
    for d in corpus.documents:
        assert_vec_close(oracle[d.doc_id], vector(batch, d.doc_id), tol=1e-9)


def test_support_bounds_and_threshold(syn2000):
    scheme, corpus = syn2000
    policy = ThresholdPolicy()
    u1 = classify_u1f08_all(corpus, scheme, policy)
    internal = set(corpus.doc_ids)
    thresholded = 0
    for d in corpus.documents:
        vec = vector(u1, d.doc_id)
        total = sum(vec.values())
        assert abs(total - 1.0) <= 1e-9
        # the written fallback rule: the other system's support is carried over
        if len(d.references) < policy.min_references or not internal.intersection(d.references):
            continue
        assert 1 <= len(vec) <= policy.max_categories
        thresholded += 1
    assert thresholded > len(corpus) // 2
