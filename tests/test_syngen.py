import ast
import re
from collections import Counter
from pathlib import Path

import pytest

from citeclass.citer import ThresholdPolicy, classify_u1f08_all
from citeclass.corpus import ValidationError, write_corpus
from citeclass.syngen import SplitMix64, SynParams, build_scheme, generate_corpus
from conftest import assert_vec_close, planted_journal_categories, vector
from oracles import ORACLE_MAX_CLASSES, oracle_classify, oracle_flow


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


@pytest.mark.parametrize("years", [{"year_min": -3}, {"year_max": 10005}, {"year_min": -2, "year_max": -1}])
def test_params_refuse_years_a_corpus_cannot_hold(years):
    with pytest.raises(ValidationError, match=r"must be in \[0, 9999\]"):
        SynParams(**years)


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
    year = dict(zip(corpus.doc_ids, corpus.year.tolist()))
    for d in corpus.documents:
        for r in d.references:
            if r in year:
                assert year[r] < d.year
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
    with pytest.raises(ValueError):
        oracle_classify(corpus2, scheme2, ThresholdPolicy())


def test_oracle_flow_guard():
    n = ORACLE_MAX_CLASSES + 1
    wa = {f"C{i}": 1.0 / n for i in range(n)}
    with pytest.raises(ValueError):
        oracle_flow(wa, wa)


def defined_names(tree):
    """Every name a module binds: functions, classes, assignment targets and imports."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.alias):
            yield node.asname or node.name.split(".")[0]


def test_oracles_stand_apart_from_the_package():
    # the oracles import no citeclass module, and the package defines no oracle
    root = Path(__file__).resolve().parent.parent
    tree = ast.parse((root / "tests" / "oracles.py").read_text(encoding="utf-8"))
    imported = [(node.level, node.module or "") for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    imported += [(0, a.name) for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
    assert [m for level, m in imported if level or m.split(".")[0] == "citeclass"] == []
    oracles = [f"{path.name}: {name}" for path in sorted((root / "src" / "citeclass").rglob("*.py"))
               for name in defined_names(ast.parse(path.read_text(encoding="utf-8")))
               if name.lstrip("_").lower().startswith("oracle")]
    assert oracles == []


def read_names(node):
    """Every name the code under node reads, as a name or an attribute; a
    docstring holds none."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_package_name_has_a_reader():
    # a top-level function or class of the package that no other package code,
    # README mention or bench script reads serves only the tests
    root = Path(__file__).resolve().parent.parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((root / "src" / "citeclass").glob("*.py"))}
    read = Counter(name for tree in trees.values() for name in read_names(tree))
    readme = (root / "README.md").read_text(encoding="utf-8")
    readers = {word for span in re.findall(r"`+([^`]+)`+", readme) for word in re.findall(r"\w+", span)}
    for path in (root / "bench").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # the trace shim also names what it patches in strings
        readers.update(read_names(tree), (node.value for node in ast.walk(tree)
                                          if isinstance(node, ast.Constant) and isinstance(node.value, str)))
    unread = [f"{module}: {node.name}" for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in readers
              and read[node.name] == Counter(read_names(node))[node.name]]
    assert unread == []


def test_oracle_matches_production_u1(syn200):
    scheme, corpus = syn200
    policy = ThresholdPolicy()
    prod = classify_u1f08_all(corpus, scheme, policy)
    oracle = oracle_classify(corpus, scheme, policy)
    assert set(oracle) == set(prod.doc_ids)
    for doc_id in oracle:
        assert_vec_close(oracle[doc_id], vector(prod, doc_id), tol=1e-9)


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
    internal = set(corpus.doc_ids)
    checked = 0
    for d in corpus.documents:
        if len(d.references) < 3 or not internal.intersection(d.references):
            continue
        vec = vector(u1, d.doc_id)
        assert_vec_close(vec, {planted[d.journal_id]: 1.0})
        checked += 1
    assert checked > 100
