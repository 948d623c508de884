import pytest

from citeclass import (
    SynParams,
    ThresholdPolicy,
    ValidationError,
    classify_u1f08_all,
    generate_corpus,
    oracle_classify,
    oracle_flow,
    write_corpus,
)
from citeclass.syngen import ORACLE_MAX_CLASSES, SplitMix64, build_scheme, planted_journal_categories
from conftest import assert_vec_close


def test_splitmix64_reference_sequence():
    # first outputs for seed 0 of the standard splitmix64 stream
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_splitmix64_uniform_range():
    rng = SplitMix64(123)
    for _ in range(1000):
        u = rng.uniform()
        assert 0.0 <= u < 1.0


def test_splitmix64_randint_bounds():
    rng = SplitMix64(5)
    seen = set()
    for _ in range(2000):
        v = rng.randint(7)
        assert 0 <= v < 7
        seen.add(v)
    assert seen == set(range(7))
    with pytest.raises(ValidationError):
        rng.randint(0)


def test_params_validation():
    with pytest.raises(ValidationError):
        SynParams(n_docs=0)
    with pytest.raises(ValidationError):
        SynParams(refs_min=5, refs_max=2)
    with pytest.raises(ValidationError):
        SynParams(intra_category_citation_prob=1.5)
    with pytest.raises(ValidationError):
        SynParams(include_misc=False, misc_journal_share=0.1)


def test_build_scheme_shape():
    params = SynParams(n_areas=3, cats_per_area=4, include_misc=True,
                       multi_journal_share=0.1)
    scheme = build_scheme(params)
    assert len(scheme.non_misc_codes) == 12
    assert scheme.multi_area.code == "MULTI"
    assert len(scheme.misc_by_area) == 3


def test_build_scheme_without_misc_or_multi():
    params = SynParams(n_areas=2, cats_per_area=3, include_misc=False,
                       multi_journal_share=0.0, misc_journal_share=0.0)
    scheme = build_scheme(params)
    assert scheme.multi_area is None
    assert set(scheme.misc_by_area.values()) == {None}
    assert len(scheme.non_misc_codes) == 6


def test_generation_deterministic(tmp_path):
    params = SynParams(n_docs=300, n_journals=40, seed=11)
    s1, c1 = generate_corpus(params)
    s2, c2 = generate_corpus(params)
    assert [d for d in c1.documents] == [d for d in c2.documents]
    assert c1.journals == c2.journals
    ja, da = tmp_path / "j1.jsonl", tmp_path / "d1.jsonl"
    jb, db = tmp_path / "j2.jsonl", tmp_path / "d2.jsonl"
    write_corpus(c1, str(ja), str(da))
    write_corpus(c2, str(jb), str(db))
    assert ja.read_bytes() == jb.read_bytes()
    assert da.read_bytes() == db.read_bytes()


def test_generation_seed_changes_output():
    a = generate_corpus(SynParams(n_docs=100, n_journals=20, seed=1))[1]
    b = generate_corpus(SynParams(n_docs=100, n_journals=20, seed=2))[1]
    assert [d.doc_id for d in a.documents] == [d.doc_id for d in b.documents]
    assert any(d1 != d2 for d1, d2 in zip(a.documents, b.documents))


def test_generated_corpus_is_valid(syn200):
    scheme, corpus = syn200
    # construction succeeded -> validation passed; check reference direction
    for d in corpus.documents:
        for r in d.references:
            if r in corpus:
                assert corpus.doc(r).year < d.year
    assert all(len(d.references) >= 3 for d in corpus.documents)


def test_reference_counts_within_bounds(syn200):
    scheme, corpus = syn200
    params = SynParams(n_docs=200, n_journals=30, seed=42)
    for d in corpus.documents:
        assert params.refs_min <= len(d.references) <= params.refs_max


def test_planted_journal_categories_match_generation():
    params = SynParams(n_docs=50, n_journals=25, seed=9)
    scheme, corpus = generate_corpus(params)
    planted = planted_journal_categories(params)
    assert set(planted) == set(corpus.journals)
    for jid, cat in planted.items():
        assert not scheme.category_by_code[cat].is_misc


def test_oracle_classify_guard():
    params = SynParams(n_docs=10, n_journals=5, seed=1)
    scheme, corpus = generate_corpus(params)
    oracle_classify(corpus, scheme, ThresholdPolicy())  # under the limit: fine
    big = SynParams(n_docs=10001, n_journals=5, seed=1)
    scheme2, corpus2 = generate_corpus(big)
    with pytest.raises(ValidationError):
        oracle_classify(corpus2, scheme2, ThresholdPolicy())


def test_oracle_flow_guard():
    n = ORACLE_MAX_CLASSES + 1
    wa = {f"C{i}": 1.0 / n for i in range(n)}
    with pytest.raises(ValidationError):
        oracle_flow(wa, wa)


def test_oracle_matches_production_u1(syn200):
    scheme, corpus = syn200
    policy = ThresholdPolicy()
    prod = classify_u1f08_all(corpus, scheme, policy)
    oracle = oracle_classify(corpus, scheme, policy)
    assert set(oracle.doc_ids) == set(prod.doc_ids)
    for doc_id in oracle.doc_ids:
        assert_vec_close(oracle.get(doc_id), prod.get(doc_id), tol=1e-9)


def test_planted_recovery_pure_setup():
    # single-category journals, all citations within category: every doc
    # with enough references recovers its planted category exactly
    params = SynParams(
        n_docs=400, n_journals=40, seed=3,
        multi_journal_share=0.0, misc_journal_share=0.0,
        journal_codes_max=1, intra_category_citation_prob=1.0,
        external_ref_prob=0.0,
    )
    scheme, corpus = generate_corpus(params)
    planted = planted_journal_categories(params)
    u1 = classify_u1f08_all(corpus, scheme)
    checked = 0
    for d in corpus.documents:
        internal = [r for r in d.references if r in corpus]
        if len(d.references) < 3 or not internal:
            continue
        vec = u1.get(d.doc_id)
        assert_vec_close(vec, {planted[d.journal_id]: 1.0})
        checked += 1
    assert checked > 100
