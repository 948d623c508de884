import dataclasses
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from citeclass import (
    Area,
    Category,
    Corpus,
    Document,
    Journal,
    ParseError,
    Scheme,
    ValidationError,
    build_citation_index,
    corpus_summary,
    load_corpus,
    load_corpus_npz,
    load_scheme,
    low_reference_share,
    save_corpus_npz,
    write_corpus,
    write_scheme,
)
from citeclass.corpus import fmt, write_csv, write_json
from conftest import make_corpus, make_scheme


def test_scheme_lookup_tables(scheme):
    assert scheme.cat_to_area["PH01"] == "PH"
    assert scheme.multi_area.code == "MD"
    assert scheme.non_misc_by_area["PH"] == ("PH01", "PH02")
    assert scheme.misc_by_area["PH"] == "PH00"
    assert set(scheme.non_misc_codes) == {"CH01", "CH02", "PH01", "PH02"}
    assert scheme.is_assignable_code("PH01")
    assert scheme.is_assignable_code("MD")
    assert not scheme.is_assignable_code("PH")
    assert not scheme.is_assignable_code("NOPE")


def test_scheme_rejects_duplicate_codes():
    areas = [Area("PH", "Physics")]
    cats = [Category("PH01", "a", "PH"), Category("PH01", "b", "PH")]
    with pytest.raises(ValidationError):
        Scheme(cats, areas)


def test_scheme_rejects_unknown_area():
    with pytest.raises(ValidationError):
        Scheme([Category("XX01", "a", "XX")], [Area("PH", "Physics")])


def test_scheme_rejects_multi_with_categories():
    areas = [Area("MD", "Multi", is_multidisciplinary=True)]
    with pytest.raises(ValidationError):
        Scheme([Category("MD01", "a", "MD")], areas)


def test_scheme_rejects_two_misc_in_area():
    areas = [Area("PH", "Physics")]
    cats = [
        Category("PH00", "m1", "PH", is_misc=True),
        Category("PH09", "m2", "PH", is_misc=True),
        Category("PH01", "a", "PH"),
    ]
    with pytest.raises(ValidationError):
        Scheme(cats, areas)


def test_corpus_sorts_documents_and_references(scheme):
    docs = [
        Document("D2", "J-PH", 2014, "article", ("D9", "D1"), 0),
        Document("D1", "J-PH", 2014, "article", (), 0),
    ]
    c = make_corpus(scheme, docs)
    assert [d.doc_id for d in c.documents] == ["D1", "D2"]
    assert c.doc("D2").references == ("D1", "D9")


def test_corpus_rejects_duplicate_doc(scheme):
    docs = [
        Document("D1", "J-PH", 2014, "article", (), 0),
        Document("D1", "J-PH", 2015, "article", (), 0),
    ]
    with pytest.raises(ValidationError):
        make_corpus(scheme, docs)


def test_corpus_rejects_self_citation(scheme):
    docs = [Document("D1", "J-PH", 2014, "article", ("D1",), 0)]
    with pytest.raises(ValidationError):
        make_corpus(scheme, docs)


def test_corpus_rejects_unknown_journal(scheme):
    docs = [Document("D1", "J-NOPE", 2014, "article", (), 0)]
    with pytest.raises(ValidationError):
        make_corpus(scheme, docs)


def test_corpus_year_bounds(scheme):
    docs = [Document("D1", "J-PH", 2005, "article", (), 0)]
    journals = [Journal("J-PH", ("PH01",))]
    with pytest.raises(ValidationError):
        Corpus(scheme, journals, docs, year_min=2010, year_max=2020)


def test_validation_collects_multiple_errors(scheme):
    docs = [
        Document("D1", "J-NOPE", 2014, "article", (), 0),
        Document("D2", "J-PH", 2014, "article", ("D2",), -1),
    ]
    journals = [Journal("J-PH", ("PH01",))]
    with pytest.raises(ValidationError) as exc:
        Corpus(scheme, journals, docs)
    assert len(exc.value.errors) == 3


def oracle_document_errors(docs, journal_ids, year_min, year_max):
    """The document messages of Corpus, from a plain loop over the documents in doc_id order."""
    def fault(text):
        return ("holds a carriage return" if "\r" in text
                else None if text.encode("utf-8", "replace").decode("utf-8") == text else "is not UTF-8 text")

    docs, errors = sorted(docs, key=lambda d: d.doc_id), []
    for pos, d in enumerate(docs):
        if not d.doc_id:
            errors.append(f"document at position {pos} has empty doc_id")
            continue
        if pos and d.doc_id == docs[pos - 1].doc_id:
            errors.append(f"duplicate doc_id {d.doc_id!r}")
            continue
        if d.journal_id not in journal_ids:
            errors.append(f"document {d.doc_id!r} references unknown journal {d.journal_id!r}")
        if not 0 <= d.year < 10000:
            errors.append(f"document {d.doc_id!r} year {d.year} outside [0, 9999]")
        if year_min is not None and d.year < year_min:
            errors.append(f"document {d.doc_id!r} year {d.year} below period start {year_min}")
        if year_max is not None and d.year > year_max:
            errors.append(f"document {d.doc_id!r} year {d.year} above period end {year_max}")
        if d.doc_id in d.references:
            errors.append(f"document {d.doc_id!r} cites itself")
        if d.external_citations < 0:
            errors.append(f"document {d.doc_id!r} has negative external_citations")
    return errors + [f"document {d.doc_id!r}: {f} {why}" for f in ("doc_id", "doc_type")
                     for d in docs if (why := fault(getattr(d, f)))]


FAULTY_IDS = st.sampled_from(["", "D1", "D2", "D3", "D\r4", "\ud800D5", "X1"])


@given(docs=st.lists(st.builds(
    Document, FAULTY_IDS, st.sampled_from(["J-PH", "J-CH", "J-NOPE"]),
    st.one_of(st.integers(-3, 10003), st.sampled_from([10**30, -10**30, 0, 2000, 2020])),
    st.sampled_from(["article", "a\rb", "\udfff"]), st.lists(FAULTY_IDS, max_size=4).map(tuple),
    st.integers(-2, 3)), max_size=8),
    year_min=st.sampled_from([None, -5, 0, 2000]), year_max=st.sampled_from([None, -1, 0, 2020, 20000]))
@settings(max_examples=300, deadline=None)
def test_document_validation_matches_a_plain_loop(docs, year_min, year_max):
    # the columns validator names every fault the per-document loop names, in the same order
    journals = [Journal("J-PH", ("PH01",)), Journal("J-CH", ("CH01",))]
    expected = oracle_document_errors(docs, {"J-PH", "J-CH"}, year_min, year_max)
    try:
        Corpus(make_scheme(), journals, docs, year_min, year_max)
        got = []
    except ValidationError as e:
        got = e.errors
    assert got == expected


def test_corpus_messages_that_ingest_cannot_reach(scheme):
    # load_corpus refuses an empty doc_id and a negative external_citations as malformed
    docs = [
        Document("D2", "J-PH", 2014, "article", ("", "D2"), -1),
        Document("", "J-NOPE", 2014, "article", (), -1),
        Document("", "J-PH", 20000, "a\rb", (), 0),
        Document("D1", "J-PH", 2014, "article", (), -3),
    ]
    with pytest.raises(ValidationError) as exc:
        make_corpus(scheme, docs)
    assert exc.value.errors == [
        "document at position 0 has empty doc_id",
        "document at position 1 has empty doc_id",
        "document 'D1' has negative external_citations",
        "document 'D2' cites itself",
        "document 'D2' has negative external_citations",
        "document '': doc_type holds a carriage return",
    ]


def test_citation_index_counts(small_corpus):
    index = build_citation_index(small_corpus)
    assert len(index) == len(small_corpus)
    # D3 is cited by D1, D2, D4 and has 1 external citation
    assert index[small_corpus.position("D3")] == 4
    # D5 is cited by nobody internally, has 5 external
    assert index[small_corpus.position("D5")] == 5


def test_citation_index_window(small_corpus):
    # window 1: only citers within one year of the cited doc count
    index = build_citation_index(small_corpus, window_years=1)
    # D3 (2013): D2 (2014) in window, D1/D4 (2015) out; external always counts
    assert index[small_corpus.position("D3")] == 1 + 1


def test_low_reference_share(small_corpus):
    stats = dict(low_reference_share(corpus_summary(small_corpus), 3))
    # 2013: D3 has 0 refs -> 100% below; 2014: D2 has 1 ref -> 100%
    assert stats[2013] == 100.0
    assert stats[2014] == 100.0
    # 2015: D1 (3 refs) and D4 (3 refs) both at threshold -> 0%
    assert stats[2015] == 0.0
    assert stats[2016] == 0.0


def test_corpus_summary_shape(small_corpus):
    s = corpus_summary(small_corpus)
    assert s["n_documents"] == 5
    assert s["n_journals"] == 6
    assert s["year_min"] == 2013 and s["year_max"] == 2016
    assert s["doc_types"] == {"article": 4, "review": 1}
    assert s["years"]["2015"]["documents"] == 2
    assert s["years"]["2015"]["reference_count_hist"] == {"3": 2}


def test_scheme_csv_roundtrip(tmp_path, scheme):
    path = tmp_path / "scheme.csv"
    write_scheme(scheme, str(path))
    back = load_scheme(str(path))
    assert back.non_misc_codes == scheme.non_misc_codes
    assert back.multi_area.code == scheme.multi_area.code
    assert back.cat_to_area == scheme.cat_to_area
    assert back.misc_by_area == scheme.misc_by_area
    # second round-trip is byte-stable
    path2 = tmp_path / "scheme2.csv"
    write_scheme(back, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_load_scheme_rejects_bad_header(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("code,name\nPH01,x\n")
    with pytest.raises(ParseError):
        load_scheme(str(p))


def test_load_scheme_rejects_bad_bool(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text(
        "code,name,area_code,area_name,is_misc,is_multidisciplinary\n"
        "PH01,Mechanics,PH,Physics,maybe,false\n"
    )
    with pytest.raises(ParseError):
        load_scheme(str(p))


def test_load_scheme_rejects_dangling_area(tmp_path):
    # area PH never gets a defining row (area_name always empty)
    p = tmp_path / "s.csv"
    p.write_text(
        "code,name,area_code,area_name,is_misc,is_multidisciplinary\n"
        "PH01,Mechanics,PH,,false,false\n"
    )
    with pytest.raises(ValidationError):
        load_scheme(str(p))


def test_corpus_jsonl_roundtrip(tmp_path, small_corpus):
    jp, dp = tmp_path / "j.jsonl", tmp_path / "d.jsonl"
    write_corpus(small_corpus, str(jp), str(dp))
    back = load_corpus(str(jp), str(dp), small_corpus.scheme)
    assert len(back) == len(small_corpus)
    for d1, d2 in zip(small_corpus.documents, back.documents):
        assert d1 == d2
    assert back.journals == small_corpus.journals
    jp2, dp2 = tmp_path / "j2.jsonl", tmp_path / "d2.jsonl"
    write_corpus(back, str(jp2), str(dp2))
    assert jp.read_bytes() == jp2.read_bytes()
    assert dp.read_bytes() == dp2.read_bytes()


def test_load_corpus_rejects_bad_json(tmp_path, scheme):
    jp, dp = tmp_path / "j.jsonl", tmp_path / "d.jsonl"
    jp.write_text('{"journal_id":"J1","asjc_codes":["PH01"]}\n')
    dp.write_text("not json\n")
    with pytest.raises(ParseError):
        load_corpus(str(jp), str(dp), scheme)


def test_load_corpus_rejects_missing_field(tmp_path, scheme):
    jp, dp = tmp_path / "j.jsonl", tmp_path / "d.jsonl"
    jp.write_text('{"journal_id":"J1","asjc_codes":["PH01"]}\n')
    dp.write_text('{"doc_id":"D1","journal_id":"J1","year":2015}\n')
    with pytest.raises(ParseError):
        load_corpus(str(jp), str(dp), scheme)


@pytest.mark.parametrize("ext", [-1, 2**53 + 1, 2**63])
def test_load_corpus_rejects_out_of_range_external_citations(tmp_path, scheme, ext):
    jp, dp = tmp_path / "j.jsonl", tmp_path / "d.jsonl"
    jp.write_text('{"journal_id":"J1","asjc_codes":["PH01"]}\n')
    dp.write_text('{"doc_id":"D1","journal_id":"J1","year":2015,"doc_type":"article",'
                  f'"references":[],"external_citations":{ext}}}\n')
    with pytest.raises(ParseError):
        load_corpus(str(jp), str(dp), scheme)


def test_load_corpus_interns_reference_strings(tmp_path, scheme):
    jp, dp = tmp_path / "j.jsonl", tmp_path / "d.jsonl"
    jp.write_text('{"journal_id":"J1","asjc_codes":["PH01"]}\n')
    dp.write_text(
        '{"doc_id":"D1","journal_id":"J1","year":2015,"doc_type":"article","references":[]}\n'
        '{"doc_id":"D2","journal_id":"J1","year":2015,"doc_type":"article","references":["D1"]}\n'
        '{"doc_id":"D3","journal_id":"J1","year":2015,"doc_type":"article","references":["D1"]}\n'
    )
    c = load_corpus(str(jp), str(dp), scheme)
    r2 = c.doc("D2").references[0]
    r3 = c.doc("D3").references[0]
    assert r2 is r3


def test_ref_edges_arrays(small_corpus):
    citing, cited = small_corpus.ref_edges()
    n = len(small_corpus)
    assert len(citing) == len(cited)
    # only internal references appear
    pairs = set()
    for i, d in enumerate(small_corpus.documents):
        for r in d.references:
            if r in small_corpus:
                pairs.add((i, small_corpus.position(r)))
    assert set(zip(citing.tolist(), cited.tolist())) == pairs
    assert all(0 <= i < n for i in citing)


def test_fmt_is_the_artifact_number_format():
    assert fmt(0.5) == "0.500000"
    assert fmt(-1e-12) == "0.000000"
    assert fmt(None) == "NA"


# the journals of make_corpus
JOURNAL_IDS = ["J-PH", "J-PH2", "J-CH", "J-MIX", "J-MD", "J-MISC"]
# characters that CSV quotes or JSON escapes, drawn often
TRICKY = ',"\n\r'
IDS = st.text(st.one_of(st.sampled_from(TRICKY), st.characters()), min_size=1, max_size=6)
# a doc id reaches indicators.csv, which cannot carry a carriage return
DOC_IDS = IDS.filter(lambda s: "\r" not in s)


@st.composite
def documents(draw):
    """Documents that cite each other and ids outside the corpus, with
    references in any order."""
    doc_ids = draw(st.lists(DOC_IDS, max_size=8, unique=True))
    external = [x for x in draw(st.lists(IDS, max_size=6, unique=True)) if x not in doc_ids]
    docs = []
    for doc_id in doc_ids:
        pool = [x for x in doc_ids if x != doc_id] + external
        refs = draw(st.lists(st.sampled_from(pool), max_size=5, unique=True)) if pool else []
        docs.append(Document(
            doc_id, draw(st.sampled_from(JOURNAL_IDS)), draw(st.integers(0, 9999)),
            draw(st.sampled_from(["article", "review", "lettre é", 'a,"b\n'])), tuple(refs),
            draw(st.integers(0, 2**53))))
    return docs


EDGE_CASES = [
    Document("D1", "J-PH", 2015, "article", (), 0),  # no references
    Document("D2", "J-CH", 2016, "review", ("X2", "X1"), 3),  # only external references
    Document("Dé", "J-MIX", 2017, "article", ("文献", "D1", "X1"), 0),
    Document("文献", "J-MD", 0, "lettre é", ("X\x00",), 2**53),
]
COLUMNS = ("doc_ids", "journal_ids", "doc_types", "external_ids", "journal_index", "year",
           "type_index", "external_citations", "n_references", "ref_indptr", "ref",
           "cited_indptr", "cited")


def refuses_lone_surrogates(scheme, docs, journals=None):
    """Whether a drawn doc id is not UTF-8 text, which Corpus refuses: no artifact writer can encode it."""
    if all(utf8(d.doc_id) for d in docs):
        return False
    with pytest.raises(ValidationError, match="doc_id is not UTF-8 text"):
        make_corpus(scheme, docs, journals)
    return True


@given(docs=documents())
@example(docs=EDGE_CASES)
@settings(max_examples=100, deadline=None)
def test_npz_round_trip(tmp_path_factory, docs):
    # JSONL -> Corpus -> npz -> Corpus -> JSONL gives the canonical bytes back
    d = tmp_path_factory.mktemp("npz")
    scheme = make_scheme()
    if refuses_lone_surrogates(scheme, docs):
        return
    jsonl = [str(d / "journals.jsonl"), str(d / "documents.jsonl")]
    again = [str(d / "journals2.jsonl"), str(d / "documents2.jsonl")]
    write_corpus(make_corpus(scheme, docs), *jsonl)
    parsed = load_corpus(*jsonl, scheme)
    save_corpus_npz(parsed, str(d / "corpus.npz"), *jsonl)
    loaded = load_corpus_npz(str(d / "corpus.npz"), scheme, *jsonl)
    write_corpus(loaded, *again)
    for a, b in zip(jsonl, again):
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()
    assert loaded.journals == parsed.journals
    for name in COLUMNS:
        x, y = getattr(parsed, name), getattr(loaded, name)
        if isinstance(x, list):
            assert x == y, name
        else:
            assert x.dtype == y.dtype and np.array_equal(x, y), name
    assert loaded.documents == parsed.documents


@given(docs=documents(), extra=st.lists(IDS, max_size=3, unique=True),
       spoil=st.sampled_from(["doc_id", "doc_type"]), bad=st.sampled_from(["{}\r", "{}\ud800", "\udfff{}"]))
@example(docs=EDGE_CASES, extra=["J\r,\"\n"], spoil="doc_id", bad="{}\r")
@example(docs=EDGE_CASES, extra=[], spoil="doc_type", bad="\udfff{}")
@settings(max_examples=100, deadline=None)
def test_jsonl_round_trip(tmp_path_factory, docs, extra, spoil, bad):
    # Corpus -> JSONL -> Corpus gives the same columns, and the same bytes once written again
    d = tmp_path_factory.mktemp("jsonl")
    scheme = make_scheme()
    journals = [*make_corpus(scheme, []).journals.values(),
                *(Journal(j, ("MD", "CH02")) for j in extra if j not in JOURNAL_IDS)]
    if refuses_lone_surrogates(scheme, docs, journals):
        return
    corpus = make_corpus(scheme, docs, journals)
    first = [str(d / "journals.jsonl"), str(d / "documents.jsonl")]
    again = [str(d / "journals2.jsonl"), str(d / "documents2.jsonl")]
    write_corpus(corpus, *first)
    loaded = load_corpus(*first, scheme)
    write_corpus(loaded, *again)
    for a, b in zip(first, again):
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()
    assert loaded.journals == corpus.journals
    for name in COLUMNS:
        x, y = getattr(corpus, name), getattr(loaded, name)
        if isinstance(x, list):
            assert x == y, name
        else:
            assert x.dtype == y.dtype and np.array_equal(x, y), name
    # a carriage return where a CSV artifact would carry it, or a lone surrogate, which no
    # artifact writer can encode, is refused, not round-tripped
    if docs:
        spoilt = dataclasses.replace(docs[0], **{spoil: bad.format(getattr(docs[0], spoil))})
        reason = "holds a carriage return" if "\r" in bad else "is not UTF-8 text"
        with pytest.raises(ValidationError, match=f"{spoil} {reason}"):
            make_corpus(scheme, [spoilt, *docs[1:]], journals)


# load_scheme strips each field, so a canonical code or name has no white space at its ends
SCHEME_TEXT = st.text(st.one_of(st.sampled_from(TRICKY.replace("\r", "")),
                                st.characters(exclude_characters="\r")), max_size=6).filter(
    lambda s: s == s.strip())
CODES = SCHEME_TEXT.filter(bool)


@st.composite
def scheme_parts(draw):
    """The categories and areas of a valid scheme: 1-3 regular areas of 1-2
    regular categories and at most one misc category each, and maybe a
    multidisciplinary area."""
    n_areas = draw(st.integers(1, 3))
    multi = draw(st.booleans())
    area_codes = draw(st.lists(CODES, min_size=n_areas + multi, max_size=n_areas + multi, unique=True))
    areas = [Area(code, draw(CODES), i == n_areas) for i, code in enumerate(area_codes)]
    kinds = [(a.code, misc) for a in areas[:n_areas]
             for misc in [False] * draw(st.integers(1, 2)) + [True] * draw(st.integers(0, 1))]
    codes = draw(st.lists(CODES, min_size=len(kinds), max_size=len(kinds), unique=True))
    return [Category(c, draw(SCHEME_TEXT), a, misc) for c, (a, misc) in zip(codes, kinds)], areas


def utf8(text):
    """Whether text encodes as UTF-8: a lone surrogate does not."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


@given(parts=scheme_parts(), spoil=st.sampled_from([None, "category code", "category name",
                                                    "area code", "area name"]),
       bad=st.sampled_from(["{}\rx", " {}", "{}\n", "\u2003{}\t", "{}\ud800", "\udfff{}"]))
@settings(max_examples=100, deadline=None)
def test_scheme_round_trip(tmp_path_factory, parts, spoil, bad):
    categories, areas = parts
    if spoil:
        # a carriage return, white space that load_scheme would strip, or a
        # lone surrogate, which write_scheme cannot encode
        kind, field = spoil.split()
        objs = categories if kind == "category" else areas
        objs[0] = dataclasses.replace(objs[0], **{field: bad.format(getattr(objs[0], field))})
        reason = ("holds a carriage return" if "\r" in bad else "is not UTF-8 text" if not utf8(bad)
                  else "has white space at either end")
        with pytest.raises(ValidationError, match=f"{field} {reason}"):
            Scheme(categories, areas)
        return
    if not all(utf8(text) for o in [*categories, *areas] for text in (o.code, o.name)):
        with pytest.raises(ValidationError, match="is not UTF-8 text"):
            Scheme(categories, areas)
        return
    # Scheme -> CSV -> Scheme gives the same lookup tables, and the same bytes once written again
    d = tmp_path_factory.mktemp("scheme")
    scheme = Scheme(categories, areas)
    write_scheme(scheme, str(d / "scheme.csv"))
    loaded = load_scheme(str(d / "scheme.csv"))
    write_scheme(loaded, str(d / "scheme2.csv"))
    assert (d / "scheme.csv").read_bytes() == (d / "scheme2.csv").read_bytes()
    for name in ("categories", "areas", "area_by_code", "category_by_code", "multi_area", "cat_to_area",
                 "non_misc_by_area", "misc_by_area", "non_misc_codes"):
        assert getattr(loaded, name) == getattr(scheme, name), name


def test_scheme_refuses_padded_text():
    # load_scheme strips every field, so such text would not survive the round trip
    with pytest.raises(ValidationError) as e:
        Scheme([Category("C1", " Mech ", "A")], [Area("A", "Area A ")])
    assert e.value.errors == ["area 'A': name has white space at either end",
                              "category 'C1': name has white space at either end"]


def test_columns_of_small_corpus(small_corpus):
    c = small_corpus
    assert c.doc_ids == ["D1", "D2", "D3", "D4", "D5"]
    assert c.external_ids == ["X1", "X2", "X3"]
    assert c.n_references.tolist() == [3, 1, 0, 3, 4]
    # D1 cites D2, D3 and X1 (pool index 5 + 0)
    assert c.ref[c.ref_indptr[0]:c.ref_indptr[1]].tolist() == [1, 2, 5]
    assert c.cited_indptr.tolist() == [0, 2, 3, 3, 6, 8]
    assert c.cited.tolist() == [1, 2, 2, 0, 1, 2, 0, 3]
    assert [c.journal_ids[j] for j in c.journal_index] == ["J-PH", "J-CH", "J-MIX", "J-MD", "J-MISC"]
    assert [c.doc_types[t] for t in c.type_index] == ["article", "article", "article", "review", "article"]


def failing_rows():
    yield [3, 4]
    raise RuntimeError("write failed halfway")


@pytest.mark.parametrize("write", [
    lambda path, bad: write_csv(path, ["a", "b"], failing_rows() if bad else [[1, 2]]),
    # keys are sorted, so "a" is written before "z" fails to serialize
    lambda path, bad: write_json(path, {"a": [1, 2], "z": object() if bad else 3}),
], ids=["csv", "json"])
def test_failed_write_keeps_the_old_file(tmp_path, write):
    path = str(tmp_path / "artifact")
    write(path, False)
    with open(path, "rb") as fh:
        before = fh.read()
    with pytest.raises((RuntimeError, TypeError)):
        write(path, True)
    with open(path, "rb") as fh:
        assert fh.read() == before
    assert os.listdir(tmp_path) == ["artifact"]
