import hashlib
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from citeclass import SYSTEM_ASJC, SYSTEM_U1, AssignmentSet, ParseError, ValidationError
from citeclass.assignments import (
    load_assignments_npz, read_assignments, save_assignments_npz, write_assignments,
)


@st.composite
def assignment_rows(draw):
    """(doc_id, vector) pairs in any order, each vector's keys in any order
    and its weights positive with a sum of 1."""
    doc_ids = draw(st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=12, unique=True))
    codes = draw(st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=8, unique=True))
    rows = []
    for doc_id in doc_ids:
        support = draw(st.lists(st.sampled_from(codes), min_size=1, unique=True))
        raw = [draw(st.floats(min_value=1e-6, max_value=1.0)) for _ in support]
        total = math.fsum(raw)
        rows.append((doc_id, {c: r / total for c, r in zip(support, raw)}))
    return rows


def bits(vec):
    return {k: w.hex() for k, w in vec.items()}


@given(rows=assignment_rows(), system=st.sampled_from([SYSTEM_ASJC, SYSTEM_U1]))
@settings(max_examples=150, deadline=None)
def test_write_read_write_round_trip(tmp_path_factory, rows, system):
    tmp = tmp_path_factory.mktemp("rt")
    first, second = tmp / "a.jsonl", tmp / "b.jsonl"
    packed = AssignmentSet.from_rows(system, rows)
    assert packed.doc_ids == sorted(d for d, _ in rows)
    for doc_id, vec in rows:
        assert bits(packed.get(doc_id)) == bits(dict(sorted(vec.items())))
    write_assignments(str(first), packed)
    read = read_assignments(str(first), system)
    write_assignments(str(second), read)
    assert first.read_bytes() == second.read_bytes()
    again = read_assignments(str(second), system)
    assert read.doc_ids == again.doc_ids == packed.doc_ids
    for doc_id, vec in rows:
        # the file holds each weight at 12 significant digits
        assert bits(read.get(doc_id)) == bits({k: float("%.12g" % w) for k, w in sorted(vec.items())})
        assert bits(again.get(doc_id)) == bits(read.get(doc_id))


def test_from_rows_sorts_rows_and_codes():
    aset = AssignmentSet.from_rows(SYSTEM_ASJC, [("D2", {"B": 0.25, "A": 0.75}), ("D1", {"C": 1.0})])
    assert aset.doc_ids == ["D1", "D2"]
    assert aset.codes == ("A", "B", "C")
    W = aset.weights
    assert (W.indptr.tolist(), W.indices.tolist(), W.data.tolist()) == ([0, 1, 3], [2, 0, 1], [1.0, 0.75, 0.25])
    assert list(aset.get("D2")) == ["A", "B"]
    with pytest.raises(KeyError):
        aset.get("D3")


def test_from_rows_rejects_duplicate_doc_ids():
    with pytest.raises(ValidationError, match="duplicate assignment for 'D1'"):
        AssignmentSet.from_rows(SYSTEM_U1, [("D1", {"A": 1.0}), ("D0", {"A": 1.0}), ("D1", {"B": 1.0})])


def test_require_docs_names_missing_and_extra():
    aset = AssignmentSet.from_rows(SYSTEM_ASJC, [("D1", {"A": 1.0}), ("D3", {"A": 1.0})])
    aset.require_docs(["D1", "D3"])
    with pytest.raises(ValidationError) as e:
        aset.require_docs(["D1", "D2"])
    assert e.value.errors == [f"no {SYSTEM_ASJC} assignment for 'D2'",
                              f"unexpected {SYSTEM_ASJC} assignment for 'D3'"]
    # the same ids in another order
    with pytest.raises(ValidationError) as e:
        aset.require_docs(["D3", "D1"])
    assert e.value.errors == [f"{SYSTEM_ASJC} assignments out of order at position 0"]


def test_read_assignments_refuses_an_empty_file_and_another_system(tmp_path):
    path = tmp_path / "a.jsonl"
    path.write_text("")
    with pytest.raises(ValidationError, match="no assignments found"):
        read_assignments(str(path), SYSTEM_ASJC)
    write_assignments(str(path), AssignmentSet.from_rows(SYSTEM_U1, [("D1", {"A": 1.0})]))
    with pytest.raises(ValidationError) as e:
        read_assignments(str(path), SYSTEM_ASJC)
    assert e.value.errors == [f"{path}: mixed systems {SYSTEM_ASJC!r} and {SYSTEM_U1!r}"]


RECORD = '{"doc_id": "D2", "system": "U1-F-0.8", "weights": %s}'


@pytest.mark.parametrize("line, error", [
    (RECORD % '{"A": NaN, "B": 0.5}', ParseError), (RECORD % '{"A": Infinity}', ParseError),
    (RECORD % '{"A": -Infinity, "B": 1.0}', ParseError), (RECORD % '{"A": 1e400}', ParseError),
    (RECORD % ('{"A": 1%s}' % ("0" * 400)), ParseError), (RECORD % '{"A": true}', ParseError),
    (RECORD % '{"A": 1.5, "B": -0.5}', ValidationError), (RECORD % '{"A": 1.0, "B": 0}', ValidationError),
    (RECORD % '{"A": 0.5}', ValidationError), (RECORD % "{}", ValidationError),
    (RECORD % '[["A", 1.0]]', ParseError), ("[1,2]", ParseError),
], ids=["nan", "inf", "-inf", "float-overflow", "int-overflow", "bool", "negative", "zero", "sum-half",
        "empty", "weights-not-object", "line-not-object"])
def test_read_assignments_refuses_bad_records(tmp_path, line, error):
    # a weight that is not a finite number, or a record or line of the wrong
    # shape, is malformed; a weight <= 0 or a sum off 1 is invalid
    path = tmp_path / "a.jsonl"
    write_assignments(str(path), AssignmentSet.from_rows(SYSTEM_U1, [("D1", {"A": 1.0})]))
    with path.open("a") as fh:
        fh.write(line + "\n")
    with pytest.raises(error, match=re.escape(f"{path}: record 2: ")):
        read_assignments(str(path), SYSTEM_U1)


def test_sets_refuse_vectors_that_are_not_normalized():
    with pytest.raises(ValidationError) as e:
        AssignmentSet.from_rows(SYSTEM_ASJC, [("D1", {"A": 1.0}), ("D2", {"A": 0.5}), ("D3", {"A": 1.5, "B": -0.5})])
    assert e.value.errors == [f"{SYSTEM_ASJC} weights of {d!r} must be positive and sum to 1" for d in ("D2", "D3")]


@given(rows=assignment_rows(), system=st.sampled_from([SYSTEM_ASJC, SYSTEM_U1]), corpus=st.binary())
@settings(max_examples=100, deadline=None)
def test_sidecar_round_trip(tmp_path_factory, rows, system, corpus):
    # the sidecar holds, bit for bit, the set that read_assignments reads from its JSONL
    tmp = tmp_path_factory.mktemp("npz")
    jsonl, npz, corpus_npz = tmp / "a.jsonl", tmp / "a.npz", tmp / "corpus.npz"
    corpus_npz.write_bytes(corpus)
    packed = AssignmentSet.from_rows(system, rows)
    write_assignments(str(jsonl), packed)
    save_assignments_npz(packed, str(npz), str(jsonl), str(corpus_npz))
    loaded, digest = load_assignments_npz(str(npz), system, str(jsonl))
    read = read_assignments(str(jsonl), system)
    assert digest == hashlib.sha256(corpus).digest()
    assert (loaded.system, loaded.doc_ids, loaded.codes) == (system, read.doc_ids, read.codes)
    for mine, theirs in zip(loaded.weights, read.weights):
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()
    # saved again, the loaded set gives the same bytes
    again = tmp / "b.npz"
    save_assignments_npz(loaded, str(again), str(jsonl), str(corpus_npz))
    assert again.read_bytes() == npz.read_bytes()
