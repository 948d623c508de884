import math

import pytest
from hypothesis import given, settings, strategies as st

from citeclass import Document, Journal, ValidationError, classify_asjc
from citeclass.syngen import _oracle_journal_vector
from citeclass.weights import PRUNE_EPS
from conftest import assert_vec_close, make_corpus, make_scheme


def one_journal_corpus(scheme, codes):
    return make_corpus(scheme, [Document("D", "J1", 2015, "article", (), 0)], [Journal("J1", tuple(codes))])


def journal_vector(scheme, codes):
    """The ASJC-FRAC vector of the one document of a one-journal corpus."""
    return classify_asjc(one_journal_corpus(scheme, codes), scheme).get("D")


def test_base_weights_single_code(scheme):
    assert journal_vector(scheme, ("PH01",)) == {"PH01": 1.0}


def test_base_weights_split_over_codes(scheme):
    v = journal_vector(scheme, ("PH01", "CH01", "CH02"))
    assert_vec_close(v, {"PH01": 1 / 3, "CH01": 1 / 3, "CH02": 1 / 3})


def test_redistribute_pure_vector_unchanged(scheme):
    out = journal_vector(scheme, ("PH01", "CH01"))
    assert out == {"PH01": 0.5, "CH01": 0.5}
    assert list(out) == ["CH01", "PH01"]


def test_redistribute_multi_spreads_over_all_non_misc(scheme):
    out = journal_vector(scheme, ("MD",))
    assert_vec_close(out, {c: 0.25 for c in ["PH01", "PH02", "CH01", "CH02"]})


def test_redistribute_misc_spreads_within_area(scheme):
    out = journal_vector(scheme, ("PH00",))
    assert_vec_close(out, {"PH01": 0.5, "PH02": 0.5})


def test_redistribute_mixed_misc_and_regular(scheme):
    # journal with PH01 + PH00: the misc half boosts both PH categories
    out = journal_vector(scheme, ("PH01", "PH00"))
    assert_vec_close(out, {"PH01": 0.75, "PH02": 0.25})


def test_redistribute_multi_and_regular(scheme):
    out = journal_vector(scheme, ("PH01", "MD"))
    expected = {"PH01": 0.5 + 0.125, "PH02": 0.125, "CH01": 0.125, "CH02": 0.125}
    assert_vec_close(out, expected)


def test_regular_journal_keeps_exact_shares(scheme285):
    # math.fsum([1/49] * 49) is 0.9999999999999999, so renormalizing a
    # profile of regular codes only would move each share off 1/49
    codes = scheme285.non_misc_codes[:49]
    v = journal_vector(scheme285, codes)
    assert list(v) == sorted(codes)
    assert all(w == 1.0 / 49 for w in v.values())


def test_redistribute_rejects_unknown_code(scheme):
    # the corpus checks journal codes too; classify_asjc keeps its own check
    # for journals that reach it some other way
    corpus = one_journal_corpus(scheme, ("PH01",))
    corpus.journals["J1"] = Journal("J1", ("NOPE",))
    with pytest.raises(ValidationError):
        classify_asjc(corpus, scheme)


def test_misc_only_area_is_unconstructible():
    # redistribution would have no target, so the scheme itself is invalid
    from citeclass import Area, Category, Scheme

    with pytest.raises(ValidationError):
        Scheme(
            [Category("ZZ00", "misc only", "ZZ", is_misc=True)],
            [Area("ZZ", "Lonely")],
        )


def test_journal_vector_misc_only_journal(scheme):
    # a journal carrying only the misc code resolves to the area's categories
    assert_vec_close(journal_vector(scheme, ("PH00",)), {"PH01": 0.5, "PH02": 0.5})


def test_classify_asjc_set(scheme, small_corpus):
    aset = classify_asjc(small_corpus, scheme)
    assert len(aset) == len(small_corpus)
    assert_vec_close(aset.get("D1"), {"PH01": 1.0})
    assert_vec_close(aset.get("D3"), {"PH01": 0.5, "CH01": 0.5})
    assert_vec_close(aset.get("D4"), {c: 0.25 for c in ["PH01", "PH02", "CH01", "CH02"]})
    # J-MISC = PH01 + PH00 -> 0.75 / 0.25
    assert_vec_close(aset.get("D5"), {"PH01": 0.75, "PH02": 0.25})


def test_classify_asjc_shares_vectors_per_journal(scheme, small_corpus):
    docs = list(small_corpus.documents) + [
        Document("D6", "J-PH", 2016, "article", (), 0),
    ]
    corpus = make_corpus(scheme, docs)
    aset = classify_asjc(corpus, scheme)
    assert aset.get("D1") == aset.get("D6")


def test_multidisciplinary_split_285(scheme285):
    v = journal_vector(scheme285, ("MULTI",))
    assert len(v) == 285
    for w in v.values():
        assert abs(w - 1 / 285) <= 1e-12


@st.composite
def journal_codes(draw):
    codes = ["PH01", "PH02", "CH01", "CH02", "PH00", "CH00", "MD"]
    k = draw(st.integers(min_value=1, max_value=len(codes)))
    return tuple(draw(st.permutations(codes))[:k])


@given(codes=journal_codes())
@settings(max_examples=60, deadline=None)
def test_journal_vector_properties(codes):
    scheme = make_scheme()
    v = journal_vector(scheme, codes)
    assert abs(math.fsum(v.values()) - 1.0) <= 1e-9
    for code, w in v.items():
        cat = scheme.category_by_code[code]
        assert not cat.is_misc
        assert w >= PRUNE_EPS
    # the oracle divides by a plain sum, so the rows agree to rounding only
    assert_vec_close(v, _oracle_journal_vector(Journal("J", codes), scheme), tol=1e-12)
