"""Corpus data model: classification scheme, journals, documents, citations.

File formats:

  scheme CSV      header ``code,name,area_code,area_name,is_misc,is_multidisciplinary``.
                  Rows with a non-empty ``code`` define categories; the
                  multidisciplinary area appears as a single row with an empty
                  ``code``. Areas are defined by the (area_code, area_name)
                  pairs on the rows that mention them.

  journals JSONL  one object per line:
                  ``{"journal_id": str, "asjc_codes": [str, ...]}``

  documents JSONL one object per line:
                  ``{"doc_id": str, "journal_id": str, "year": int in [0, 9999],
                  "doc_type": str, "references": [str, ...],
                  "external_citations": int in [0, 2**53] (optional, default 0)}``

  corpus npz      the columns of a Corpus as an uncompressed npz, with the
                  sha256 of the journals and documents JSONL it was saved
                  next to; it is stale once they no longer match.

Loading is strict: structurally malformed input raises ParseError (with line
or record position), semantic problems raise ValidationError (all collected).
Loaded objects are immutable; every ordering is lexicographic so identical
inputs yield identical in-memory layouts and byte-identical re-serialization.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import zipfile
from bisect import bisect_left
from collections import Counter
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from operator import lt
from typing import IO, TYPE_CHECKING, Iterable, Iterator

import numpy as np

if TYPE_CHECKING:
    from .columns import DocumentColumns

SCHEME_HEADER = ["code", "name", "area_code", "area_name", "is_misc", "is_multidisciplinary"]

MAX_REPORTED_ERRORS = 100
# years lie in [0, YEARS): int32 arrays hold them and their differences exactly
YEARS = 10000


class ParseError(Exception):
    """Structurally malformed input (bad CSV/JSON, wrong field types)."""


class ValidationError(Exception):
    """Semantically invalid input. Carries the full list of problems."""

    def __init__(self, errors: Iterable[str]):
        self.errors = list(errors)
        shown = self.errors[:MAX_REPORTED_ERRORS]
        if len(self.errors) > MAX_REPORTED_ERRORS:
            shown.append(f"... and {len(self.errors) - MAX_REPORTED_ERRORS} more")
        super().__init__("; ".join(shown))


def _bad_text(kind: str, fields: dict[str, list[str]], scheme: bool = False) -> list[str]:
    """An error per field text holding a \\r, which ends a line for the CSV artifacts' reader, or
    a lone surrogate, which is not UTF-8 and so no artifact writer can encode, and with scheme per
    text with white space at either end, which load_scheme strips. fields maps each field to its
    texts, one per object; the first field is the id."""

    def fault(text: str) -> str | None:
        if "\r" in text:
            return "holds a carriage return"
        if scheme and text != text.strip():
            return "has white space at either end"
        # a lone surrogate encodes as "?" here, where the writers would raise
        if not text.isascii() and text.encode("utf-8", "replace").decode("utf-8") != text:
            return "is not UTF-8 text"
        return None

    ids = next(iter(fields.values()))
    # without scheme, texts whose concatenation has no fault have none each
    return [f"{kind} {ids[i]!r}: {f} {why}" for f, texts in fields.items() if scheme or fault("".join(texts))
            for i, text in enumerate(texts) if (why := fault(text))]


def fmt(v: float | None) -> str:
    """The artifact number format: six decimals, with float noise just
    below zero printed as zero and a missing value as NA."""
    if v is None:
        return "NA"
    if -1e-9 < v < 0.0:
        v = 0.0
    return "%.6f" % v


@contextmanager
def atomic_open(path: str, mode: str = "w", **kwargs) -> Iterator[IO]:
    """Open a temp file beside path for writing. It replaces path when the
    block ends, and is removed when the block raises, so path keeps its old
    bytes and no temp file stays behind."""
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_csv(path: str, header: list[str], rows: Iterable[list]) -> None:
    """Write an artifact CSV: one header row, then the rows, with \n line ends."""
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_lines(path: str, newline: str | None = None) -> Iterator[str]:
    """The lines of a UTF-8 text file, read as they are consumed. A byte
    that is not UTF-8 raises ParseError naming the file."""
    with open(path, "r", encoding="utf-8", newline=newline) as fh:
        try:
            yield from fh
        except UnicodeDecodeError as e:
            raise ParseError(f"{path}: not UTF-8 text: {e.reason}") from None


def read_json(path: str):
    """A JSON file; text that is not JSON raises ParseError naming the file."""
    try:
        return json.loads("".join(read_lines(path)))
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: invalid JSON: {e.msg} (line {e.lineno})") from None


def write_json(path: str, obj) -> None:
    """Write an artifact JSON: indented, keys sorted, newline-terminated."""
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True, slots=True)
class Area:
    code: str
    name: str
    is_multidisciplinary: bool = False


@dataclass(frozen=True, slots=True)
class Category:
    code: str
    name: str
    area_code: str
    is_misc: bool = False


class Scheme:
    """A two-level classification: areas containing categories.

    Invariants enforced here:
      * category and area codes are non-empty and unique
      * every category's area exists and is not the multidisciplinary area
      * at most one area is multidisciplinary, and it owns no categories
      * every other area has at least one non-misc category and at most one
        misc category
      * no code or name holds a carriage return, white space at either end
        or a lone surrogate
    """

    def __init__(self, categories: Iterable[Category], areas: Iterable[Area]):
        self.categories: tuple[Category, ...] = tuple(sorted(categories, key=lambda c: c.code))
        self.areas: tuple[Area, ...] = tuple(sorted(areas, key=lambda a: a.code))
        errors: list[str] = []

        self.area_by_code: dict[str, Area] = {}
        for a in self.areas:
            if not a.code:
                errors.append("area with empty code")
            elif a.code in self.area_by_code:
                errors.append(f"duplicate area code {a.code!r}")
            else:
                self.area_by_code[a.code] = a

        multi = [a for a in self.areas if a.is_multidisciplinary]
        if len(multi) > 1:
            errors.append("more than one multidisciplinary area: " + ", ".join(a.code for a in multi))
        self.multi_area: Area | None = multi[0] if len(multi) == 1 else None

        self.category_by_code: dict[str, Category] = {}
        for c in self.categories:
            if not c.code:
                errors.append(f"category {c.name!r} with empty code")
            elif c.code in self.category_by_code:
                errors.append(f"duplicate category code {c.code!r}")
            else:
                self.category_by_code[c.code] = c
            area = self.area_by_code.get(c.area_code)
            if area is None:
                errors.append(f"category {c.code!r} references unknown area {c.area_code!r}")
            elif area.is_multidisciplinary:
                errors.append(f"category {c.code!r} assigned to multidisciplinary area {area.code!r}")

        for kind, objs in (("area", self.areas), ("category", self.categories)):
            errors += _bad_text(kind, {"code": [o.code for o in objs], "name": [o.name for o in objs]}, scheme=True)
        self.cat_to_area: dict[str, str] = {c.code: c.area_code for c in self.categories}
        by_area: dict[str, list[Category]] = {a.code: [] for a in self.areas}
        for c in self.categories:
            if c.area_code in by_area:
                by_area[c.area_code].append(c)

        self.non_misc_by_area: dict[str, tuple[str, ...]] = {}
        self.misc_by_area: dict[str, str | None] = {}
        for a in self.areas:
            if a.is_multidisciplinary:
                continue
            cats = by_area[a.code]
            non_misc = tuple(c.code for c in cats if not c.is_misc)
            misc = [c.code for c in cats if c.is_misc]
            if not non_misc:
                errors.append(f"area {a.code!r} has no non-misc category")
            if len(misc) > 1:
                errors.append(f"area {a.code!r} has more than one misc category: " + ", ".join(misc))
            self.non_misc_by_area[a.code] = non_misc
            self.misc_by_area[a.code] = misc[0] if misc else None

        self.non_misc_codes: tuple[str, ...] = tuple(
            c.code for c in self.categories if not c.is_misc
        )

        if errors:
            raise ValidationError(errors)

    def is_assignable_code(self, code: str) -> bool:
        """True if a journal may carry this code (category or multi area)."""
        if code in self.category_by_code:
            return True
        return self.multi_area is not None and code == self.multi_area.code


@dataclass(frozen=True, slots=True)
class Journal:
    journal_id: str
    asjc_codes: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class Document:
    doc_id: str
    journal_id: str
    year: int
    doc_type: str
    references: tuple[str, ...]
    external_citations: int = 0


class Corpus:
    """An immutable set of journals and documents against one Scheme, held
    as columns. Document i is doc_ids[i], in sorted order, with journal_index
    into journal_ids (sorted), year (int32), type_index into doc_types
    (sorted), external_citations (int64) and n_references. Its references,
    sorted and duplicate-free, are row i of the CSR (ref_indptr, ref) over
    the id pool doc_ids + external_ids. The pool indices below len(doc_ids)
    are the references in the corpus; they alone form the CSR (cited_indptr,
    cited) of cited positions. External references resolve to nothing but
    still count toward n_references. documents are Documents, turned into
    DocumentColumns, or DocumentColumns; the documents view is built on first access.
    """

    def __init__(
        self,
        scheme: Scheme,
        journals: Iterable[Journal],
        documents: Iterable[Document] | DocumentColumns,
        year_min: int | None = None,
        year_max: int | None = None,
    ):
        self.scheme, self.year_min, self.year_max = scheme, year_min, year_max
        errors: list[str] = []

        by_id: dict[str, Journal] = {}
        for j in sorted(journals, key=lambda j: j.journal_id):
            if not j.journal_id:
                errors.append("journal with empty id")
                continue
            if j.journal_id in by_id:
                errors.append(f"duplicate journal_id {j.journal_id!r}")
                continue
            if not j.asjc_codes:
                errors.append(f"journal {j.journal_id!r} has no codes")
            if len(set(j.asjc_codes)) != len(j.asjc_codes):
                errors.append(f"journal {j.journal_id!r} lists a code more than once")
            for code in j.asjc_codes:
                if not scheme.is_assignable_code(code):
                    errors.append(f"journal {j.journal_id!r} carries unknown code {code!r}")
            # code order carries no meaning: sorted, equal corpora serialize identically
            by_id[j.journal_id] = Journal(j.journal_id, tuple(sorted(j.asjc_codes)))

        # imported here: only corpus builders compile that module and load its array buffers
        from .columns import DocumentColumns
        if not isinstance(documents, DocumentColumns):
            columns = DocumentColumns()
            for d in documents:
                columns.add(d.doc_id, d.journal_id, d.year, d.doc_type, d.references, d.external_citations)
            documents = columns
        self._attach(by_id, documents.corpus_columns(by_id, year_min, year_max, errors))

    def _attach(self, journals: dict[str, Journal], columns: dict) -> None:
        """Set the journals and the stored columns; derive the rest."""
        self.journals, self.journal_ids = journals, list(journals)
        for name in ("doc_ids", "doc_types", "external_ids", *NPZ_COLUMNS):
            setattr(self, name, columns[name])
        self.n_references = np.diff(self.ref_indptr)
        internal = self.ref < len(self.doc_ids)
        # each row's start less the external references before it
        self.cited_indptr = self.ref_indptr - np.searchsorted(np.flatnonzero(~internal), self.ref_indptr)
        self.cited = self.ref[internal]
        self._documents: list[Document] | None = None

    @property
    def documents(self) -> list[Document]:
        """The documents as objects, in doc_id order."""
        if self._documents is None:
            pool = self.doc_ids + self.external_ids
            refs, ptr = self.ref.tolist(), self.ref_indptr.tolist()
            journal_ids, doc_types = self.journal_ids, self.doc_types
            self._documents = [
                Document(doc_id, journal_ids[j], year, doc_types[t],
                         tuple(map(pool.__getitem__, refs[ptr[i]:ptr[i + 1]])), ext)
                for i, (doc_id, j, year, t, ext) in enumerate(zip(
                    self.doc_ids, self.journal_index.tolist(), self.year.tolist(),
                    self.type_index.tolist(), self.external_citations.tolist()))
            ]
        return self._documents

    def __len__(self) -> int:
        return len(self.doc_ids)

    def __contains__(self, doc_id: str) -> bool:
        i = bisect_left(self.doc_ids, doc_id)
        return self.doc_ids[i:i + 1] == [doc_id]

    def doc(self, doc_id: str) -> Document:
        return self.documents[self.position(doc_id)]

    def position(self, doc_id: str) -> int:
        i = bisect_left(self.doc_ids, doc_id)
        if self.doc_ids[i:i + 1] != [doc_id]:
            raise KeyError(doc_id)
        return i

    def ref_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """In-corpus reference edges as (citing_pos, cited_pos) int32 arrays,
        ordered by citing position then cited position."""
        citing = np.repeat(np.arange(len(self), dtype=np.int32), np.diff(self.cited_indptr))
        return citing, self.cited

    def in_window(self, window_years: int | None) -> np.ndarray:
        """For each entry of cited, whether the citation is in-window:
        year(citing) - year(cited) <= window_years. With no window every
        citation is; a negative window raises ValidationError."""
        if window_years is None:
            return np.ones(len(self.cited), dtype=bool)
        if window_years < 0:
            raise ValidationError([f"window_years must be >= 0, got {window_years}"])
        return np.repeat(self.year, np.diff(self.cited_indptr)) - self.year[self.cited] <= window_years


def build_citation_index(corpus: Corpus, window_years: int | None = None) -> np.ndarray:
    """Each document's in-window internal citations (Corpus.in_window) plus
    its external_citations, as an int64 array aligned with corpus.doc_ids."""
    cited = corpus.cited[corpus.in_window(window_years)]
    return np.bincount(cited, minlength=len(corpus)) + corpus.external_citations


def low_reference_share(stats: dict, min_references: int) -> list[tuple[int, float]]:
    """Per publication year of a corpus_summary dict, the percentage of
    documents with fewer than min_references references (internal and
    external both count). Returns (year, pct) pairs sorted by year."""
    series = []
    for year in sorted(stats["years"], key=int):
        info = stats["years"][year]
        below = sum(n for k, n in info["reference_count_hist"].items() if int(k) < min_references)
        series.append((int(year), 100.0 * below / info["documents"]))
    return series


def corpus_summary(corpus: Corpus) -> dict:
    """JSON-ready corpus statistics: document counts and reference-count
    histograms per year, plus document-type counts."""
    years = {y: {"documents": 0, "reference_count_hist": {}} for y in np.unique(corpus.year).tolist()}
    types = np.bincount(corpus.type_index, minlength=len(corpus.doc_types)).tolist()
    # a Counter keeps the pairs in order of first appearance, and so each histogram
    for (y, k), count in Counter(zip(corpus.year.tolist(), corpus.n_references.tolist())).items():
        years[y]["documents"] += count
        years[y]["reference_count_hist"][str(k)] = count
    return {
        "n_documents": len(corpus),
        "n_journals": len(corpus.journals),
        "year_min": min(years, default=None),
        "year_max": max(years, default=None),
        "doc_types": dict(zip(corpus.doc_types, types)),
        "years": {str(y): info for y, info in years.items()},
    }


def _parse_bool(raw: str, path: str, line_no: int, column: str) -> bool:
    v = raw.strip().lower()
    if v in ("true", "1"):
        return True
    if v in ("false", "0", ""):
        return False
    raise ParseError(f"{path}: line {line_no}, column {column}: expected boolean, got {raw!r}")


def load_scheme(path: str) -> Scheme:
    """Read a scheme CSV. Raises ParseError on malformed rows (line and
    column reported) and ValidationError on invariant violations, including
    a category referencing an area no row names (dangling area)."""
    categories: list[Category] = []
    area_names: dict[str, str] = {}
    area_multi: dict[str, bool] = {}
    referenced: dict[str, int] = {}
    errors: list[str] = []
    reader = csv.reader(read_lines(path, newline=""))
    header = next(reader, None)
    if header is None:
        raise ParseError(f"{path}: empty file")
    if header != SCHEME_HEADER:
        raise ParseError(f"{path}: line 1: expected header {','.join(SCHEME_HEADER)}")
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(SCHEME_HEADER):
            raise ParseError(f"{path}: line {line_no}: expected {len(SCHEME_HEADER)} fields, got {len(row)}")
        code, name, area_code, area_name, raw_misc, raw_multi = (f.strip() for f in row)
        is_misc = _parse_bool(raw_misc, path, line_no, "is_misc")
        is_multi = _parse_bool(raw_multi, path, line_no, "is_multidisciplinary")
        if not area_code:
            raise ParseError(f"{path}: line {line_no}, column area_code: must not be empty")
        if area_name:
            seen_name = area_names.get(area_code)
            if seen_name is not None and seen_name != area_name:
                errors.append(
                    f"area {area_code!r} named both {seen_name!r} and {area_name!r}"
                )
            area_names.setdefault(area_code, area_name)
            # an area-definition row is authoritative for the multi flag;
            # category rows only set it when nothing else has
            if not code:
                area_multi[area_code] = is_multi
            elif area_code not in area_multi:
                area_multi[area_code] = is_multi
        else:
            referenced.setdefault(area_code, line_no)
        if code:
            categories.append(Category(code, name, area_code, is_misc))
        else:
            if is_misc:
                errors.append(f"multidisciplinary area row {area_code!r} flagged is_misc")
            if not is_multi:
                errors.append(
                    f"line {line_no}: row with empty code must be the multidisciplinary area"
                )
    for area_code, line_no in referenced.items():
        if area_code not in area_names:
            errors.append(
                f"area {area_code!r} referenced (line {line_no}) but never defined with a name"
            )
    if errors:
        raise ValidationError(errors)
    areas = [
        Area(code, area_names[code], area_multi.get(code, False))
        for code in sorted(area_names)
    ]
    return Scheme(categories, areas)


def write_scheme(scheme: Scheme, path: str) -> None:
    """Canonical form: header, category rows sorted by code, then the
    multidisciplinary area row (if any) last."""
    rows = [
        [c.code, c.name, c.area_code, scheme.area_by_code[c.area_code].name,
         "true" if c.is_misc else "false", "false"]
        for c in scheme.categories
    ]
    if scheme.multi_area is not None:
        rows.append(["", "", scheme.multi_area.code, scheme.multi_area.name, "false", "true"])
    write_csv(path, SCHEME_HEADER, rows)


def _load_jsonl(path: str) -> Iterator[tuple[int, dict]]:
    for line_no, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}: record {line_no}: invalid JSON: {e.msg}") from None
        if not isinstance(obj, dict):
            raise ParseError(f"{path}: record {line_no}: expected an object")
        yield line_no, obj


def _req(obj: dict, key: str, kind: type, path: str, line_no: int):
    val = obj.get(key)
    if kind is int and isinstance(val, bool):
        val = None
    if not isinstance(val, kind):
        raise ParseError(f"{path}: record {line_no}: field {key!r} missing or not {kind.__name__}")
    return val


def load_corpus(
    journal_path: str,
    document_path: str,
    scheme: Scheme,
    year_min: int | None = None,
    year_max: int | None = None,
) -> Corpus:
    """Read journals and documents JSONL files into a validated Corpus. Each
    document record is parsed straight into DocumentColumns, which intern
    every id once; no Document is built."""
    journals: list[Journal] = []
    for line_no, obj in _load_jsonl(journal_path):
        jid = _req(obj, "journal_id", str, journal_path, line_no)
        codes = _req(obj, "asjc_codes", list, journal_path, line_no)
        if not all(isinstance(c, str) and c for c in codes):
            raise ParseError(f"{journal_path}: record {line_no}: asjc_codes must be non-empty strings")
        journals.append(Journal(jid, tuple(sorted(codes))))

    from .columns import DocumentColumns

    columns = DocumentColumns()
    for line_no, obj in _load_jsonl(document_path):
        doc_id = _req(obj, "doc_id", str, document_path, line_no)
        if not doc_id:
            raise ParseError(f"{document_path}: record {line_no}: empty doc_id")
        journal_id = _req(obj, "journal_id", str, document_path, line_no)
        year = _req(obj, "year", int, document_path, line_no)
        doc_type = _req(obj, "doc_type", str, document_path, line_no)
        if not doc_type:
            raise ParseError(f"{document_path}: record {line_no}: empty doc_type")
        refs = _req(obj, "references", list, document_path, line_no)
        if not set(map(type, refs)) <= {str} or "" in refs:
            raise ParseError(f"{document_path}: record {line_no}: references must be non-empty strings")
        ext = obj.get("external_citations", 0)
        # citation counts are int64 arrays and enter float64 sums, exact up to 2**53
        if isinstance(ext, bool) or not isinstance(ext, int) or not 0 <= ext <= 2**53:
            raise ParseError(f"{document_path}: record {line_no}: external_citations must be an integer in [0, 2**53]")
        columns.add(doc_id, journal_id, year, doc_type, refs, ext)

    return Corpus(scheme, journals, columns, year_min, year_max)


WRITE_ROWS = 1 << 11  # documents formatted per block by write_corpus


def write_corpus(corpus: Corpus, journal_path: str, document_path: str) -> None:
    """Canonical form: one compact JSON object per line, journals and
    documents sorted by id, references sorted, external_citations omitted
    when zero, as json.dumps writes them with separators (",", ":"); the
    documents from the columns, WRITE_ROWS at a time, each string escaped once."""
    enc = json.encoder.encode_basestring_ascii
    with atomic_open(journal_path, "w", encoding="utf-8", newline="\n") as fh:
        for jid in sorted(corpus.journals):
            fh.write('{"journal_id":%s,"asjc_codes":[%s]}\n'
                     % (enc(jid), ",".join(map(enc, corpus.journals[jid].asjc_codes))))
    pool, journals, doc_types = (np.array(list(map(enc, texts)), object) for texts in (
        corpus.doc_ids + corpus.external_ids, corpus.journal_ids, corpus.doc_types))
    with atomic_open(document_path, "w", encoding="utf-8", newline="\n") as fh:
        for i0 in range(0, len(corpus), WRITE_ROWS):
            i1 = min(i0 + WRITE_ROWS, len(corpus))
            lo, hi = corpus.ref_indptr[i0], corpus.ref_indptr[i1]
            refs = pool[corpus.ref[lo:hi]].tolist()
            ptr = (corpus.ref_indptr[i0:i1 + 1] - lo).tolist()
            fh.write("".join([
                '{"doc_id":%s,"journal_id":%s,"year":%d,"doc_type":%s,"references":[%s]%s}\n' % (
                    doc_id, journal, year, doc_type, ",".join(refs[a:b]),
                    ',"external_citations":%d' % ext if ext else "")
                for doc_id, journal, year, doc_type, ext, a, b in zip(
                    pool[i0:i1].tolist(), journals[corpus.journal_index[i0:i1]].tolist(), corpus.year[i0:i1].tolist(),
                    doc_types[corpus.type_index[i0:i1]].tolist(), corpus.external_citations[i0:i1].tolist(),
                    ptr, ptr[1:])]))


# the numeric columns a corpus npz stores as they are, and the string lists it
# stores as UTF-8 bytes <name> with the offsets <name>_ptr of each string
NPZ_COLUMNS = ("journal_index", "year", "type_index", "external_citations", "ref_indptr", "ref")
NPZ_STRINGS = ("doc_ids", "doc_types", "external_ids", "journal_ids", "journal_codes")
NPZ_DTYPES = {
    "jsonl_sha256": np.uint8, "journal_index": np.int32, "year": np.int32, "type_index": np.int32,
    "external_citations": np.int64, "ref_indptr": np.int64, "ref": np.int32, "code_indptr": np.int64,
    **{name: np.uint8 for name in NPZ_STRINGS}, **{f"{name}_ptr": np.int64 for name in NPZ_STRINGS},
}


def sha256_of(*paths: str) -> np.ndarray:
    """The sha256 digests of the files, one after the other, as uint8."""
    digests = b""
    for path in paths:
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            while block := fh.read(1 << 20):
                h.update(block)
        digests += h.digest()
    return np.frombuffer(digests, np.uint8)


def save_npz(path: str, arrays: dict[str, np.ndarray], strings: dict[str, list[str]]) -> None:
    """Write arrays and string lists as an uncompressed npz; a list is stored
    as the UTF-8 bytes <name> and the offsets <name>_ptr of each string.
    Equal inputs give equal bytes."""
    for name, values in strings.items():
        arrays[name] = np.frombuffer("".join(values).encode("utf-8", "surrogatepass"), np.uint8)
        arrays[f"{name}_ptr"] = np.cumsum([0] + [len(x) for x in values], dtype=np.int64)
    with atomic_open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_npz(path: str, what: str, dtypes: dict, strings: tuple[str, ...], bounds, jsonl: tuple[str, ...],
             known: dict[str, list[str]] | None = None) -> dict:
    """The arrays of an npz that save_npz wrote, each string list decoded, or the list
    known gives it when that is the list stored. An unreadable file, arrays other than
    the 1-d ones of dtypes, and arrays out of bounds raise ParseError: bounds(arrays, the
    length of each string list) lists (array, its length or None, the end of its offsets
    or the bound of its values). A file is stale, a ValidationError, when its array
    jsonl_sha256 is not sha256_of the files jsonl."""
    try:
        with np.load(path, allow_pickle=False) as npz:
            a = {name: npz[name] for name in npz.files}
        text = {name: a[name].tobytes().decode("utf-8", "surrogatepass") for name in strings}
    except (ValueError, EOFError, KeyError, zipfile.BadZipFile) as e:
        raise ParseError(f"{path}: unreadable {what} arrays: {e}") from None
    if sorted(a) != sorted(dtypes) or any(a[k].dtype != t or a[k].ndim != 1 for k, t in dtypes.items()):
        raise ParseError(f"{path}: not {what} arrays")
    size = {name: len(a[f"{name}_ptr"]) - 1 for name in strings}
    for name, length, end in (*bounds(a, size), ("jsonl_sha256", 32 * len(jsonl), 256),
                              *((f"{name}_ptr", None, len(text[name])) for name in strings)):
        x = a[name]
        if name.endswith("ptr"):
            ok = len(x) > 0 and x[0] == 0 and x[-1] == end and not (np.diff(x) < 0).any()
        else:
            ok = x.size == 0 or (x.min() >= 0 and x.max() < end)
        if not ok or length not in (None, len(x)):
            raise ParseError(f"{path}: array {name!r} has the wrong length or values out of range")
    if not np.array_equal(a["jsonl_sha256"], sha256_of(*jsonl)):
        raise ValidationError([f"{path} is stale: {' or '.join(jsonl)} changed since it was written"])
    for name in strings:
        held = (known or {}).get(name)
        if held is not None and "".join(held) == text[name] and np.array_equal(
                np.cumsum(np.fromiter(map(len, held), np.int64, len(held))), a[f"{name}_ptr"][1:]):
            a[name] = held
            continue
        ptr = a[f"{name}_ptr"].tolist()
        a[name] = [text[name][i:j] for i, j in zip(ptr, ptr[1:])]
    return a


def save_corpus_npz(corpus: Corpus, path: str, journal_path: str, document_path: str) -> None:
    """Write the columns of corpus as an uncompressed npz, with the digests of
    the JSONL files it was written next to. Equal corpora give equal bytes."""
    journals = corpus.journals.values()
    arrays = {name: getattr(corpus, name) for name in NPZ_COLUMNS}
    arrays["jsonl_sha256"] = sha256_of(journal_path, document_path)
    arrays["code_indptr"] = np.cumsum([0] + [len(j.asjc_codes) for j in journals], dtype=np.int64)
    save_npz(path, arrays, {
        "doc_ids": corpus.doc_ids, "doc_types": corpus.doc_types, "external_ids": corpus.external_ids,
        "journal_ids": corpus.journal_ids, "journal_codes": [c for j in journals for c in j.asjc_codes]})


def load_corpus_npz(path: str, scheme: Scheme, journal_path: str, document_path: str) -> Corpus:
    """Read a corpus saved by save_corpus_npz. An unreadable file, or arrays
    of the wrong type, length, range or order, raise ParseError; a file
    whose digests do not match the two JSONL files is stale: ValidationError."""
    a = load_npz(path, "corpus", NPZ_DTYPES, NPZ_STRINGS, lambda a, size: [
        ("journal_index", size["doc_ids"], size["journal_ids"]), ("year", size["doc_ids"], YEARS),
        ("type_index", size["doc_ids"], size["doc_types"]), ("external_citations", size["doc_ids"], 2**53 + 1),
        ("ref", None, size["doc_ids"] + size["external_ids"]), ("ref_indptr", size["doc_ids"] + 1, len(a["ref"])),
        ("code_indptr", size["journal_ids"] + 1, size["journal_codes"])],
        (journal_path, document_path))
    if not all(map(lt, a["doc_ids"], a["doc_ids"][1:])):
        raise ParseError(f"{path}: doc_ids are not strictly increasing")
    codes, ptr = a["journal_codes"], a["code_indptr"].tolist()
    corpus = Corpus.__new__(Corpus)
    corpus.scheme, corpus.year_min, corpus.year_max = scheme, None, None
    corpus._attach({jid: Journal(jid, tuple(codes[ptr[i]:ptr[i + 1]]))
                    for i, jid in enumerate(a["journal_ids"])}, a)
    return corpus
