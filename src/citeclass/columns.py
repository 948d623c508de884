"""Documents parsed into columns, and the one validator of them.

DocumentColumns holds documents as integer buffers, each id interned on
first sight; corpus_columns checks them and turns them into the columns a
Corpus stores. load_corpus and syngen fill one and pass it to Corpus.
Only they import this module, so a stage that loads corpus.npz neither
compiles it nor loads the array module: in corpus.py the two raised the
peak RSS of every such stage by 0.2 MB.
"""

from __future__ import annotations

from array import array
from itertools import compress
from typing import Iterable

import numpy as np

from .corpus import YEARS, Journal, ValidationError, _bad_text


class _Intern(dict):
    """Each key's index in the order keys were first looked up."""

    def __missing__(self, key):
        self[key] = index = len(self)
        return index


class DocumentColumns:
    """Documents as columns, in the order added, for Corpus to validate. Each doc id and
    reference (one pool), journal id and doc type is interned on first sight and held as that
    provisional index. fields holds per document its doc id, journal id, year, doc type and
    external_citations; a year outside [0, YEARS) is kept in odd_years and stored as -1."""

    def __init__(self) -> None:
        self.ids, self.journal_ids, self.doc_types = _Intern(), _Intern(), _Intern()
        self.fields, self.ref, self.ref_indptr, self.odd_years = array("q"), array("i"), array("q", [0]), {}

    def add(self, doc_id: str, journal_id: str, year: int, doc_type: str, references: Iterable[str],
            external_citations: int) -> None:
        """Append a document."""
        if not 0 <= year < YEARS:
            self.odd_years[len(self.ref_indptr) - 1], year = year, -1
        self.fields.extend((self.ids[doc_id], self.journal_ids[journal_id], year, self.doc_types[doc_type],
                            external_citations))
        self.ref.extend(map(self.ids.__getitem__, references))
        self.ref_indptr.append(len(self.ref))

    def corpus_columns(self, journals: dict[str, Journal], year_min: int | None, year_max: int | None,
                       errors: list[str]) -> dict:
        """The columns Corpus stores; raises ValidationError with errors and then the
        documents' faults in doc_id order, if any. Consumes the columns."""
        names = sorted(self.ids)  # every id in string order; rank is each provisional index's place there
        rank = np.empty(len(names), np.int32)
        rank[np.fromiter(map(self.ids.__getitem__, names), np.int64, len(names))] = np.arange(len(names))
        doc, journal, year, types, ext = np.asarray(self.fields).reshape(-1, 5).T
        ref, ptr = np.asarray(self.ref), np.asarray(self.ref_indptr)
        # spent: each buffer is freed once the arrays below no longer view it
        self.ids = self.fields = self.ref = None
        # the documents in doc_id order, repeated ids in the order added
        order = np.argsort(rank[doc], kind="stable")
        key, journal, year, types, ext = (a[order] for a in (rank[doc], journal, year, types, ext))
        journal_ids, doc_types = list(self.journal_ids), list(self.doc_types)
        known = np.array([j in journals for j in journal_ids], bool)
        cites_self = np.searchsorted(ptr, np.flatnonzero(ref == np.repeat(doc, np.diff(ptr))), "right") - 1
        repeat = np.concatenate(([False], key[1:] == key[:-1]))
        doc_ids = list(map(names.__getitem__, key.tolist()))
        # a superset of the documents with a fault; the loop names each fault
        suspect = (repeat | ~known[journal] | (year < max(0, year_min or 0)) | (ext < 0) | np.isin(order, cites_self)
                   | (year > (YEARS if year_max is None else year_max)) | (key == 0) & (names[:1] == [""]))
        for pos in np.flatnonzero(suspect).tolist():
            doc_id, rec = doc_ids[pos], int(order[pos])
            if not doc_id or repeat[pos]:
                errors.append(f"duplicate doc_id {doc_id!r}" if doc_id else f"document at position {pos} has empty doc_id")
                continue
            y = self.odd_years.get(rec, int(year[pos]))
            errors += [f"document {doc_id!r} {text}" for fault, text in (
                (not known[journal[pos]], f"references unknown journal {journal_ids[journal[pos]]!r}"),
                (not 0 <= y < YEARS, f"year {y} outside [0, {YEARS - 1}]"),
                (year_min is not None and y < year_min, f"year {y} below period start {year_min}"),
                (year_max is not None and y > year_max, f"year {y} above period end {year_max}"),
                (rec in cites_self, "cites itself"), (ext[pos] < 0, "has negative external_citations")) if fault]
        errors += _bad_text("document", {"doc_id": doc_ids, "doc_type": list(map(doc_types.__getitem__, types.tolist()))})
        if errors:
            raise ValidationError(errors)

        # each document's references as (its position, rank) entries: sorted, repeats dropped
        entry = np.repeat(np.argsort(order), np.diff(ptr))
        entry *= len(names)
        entry += rank[ref]
        del doc, ref
        if (entry[1:] <= entry[:-1]).any():
            entry = np.unique(entry)
        ref_indptr = np.searchsorted(entry, np.arange(len(order) + 1) * len(names))
        # the pool index of each rank: the doc ids, then the external ids, each in string order
        is_doc = np.zeros(len(names), bool)
        is_doc[key] = True
        pool = np.where(is_doc, np.cumsum(is_doc) - 1, len(doc_ids) + np.cumsum(~is_doc) - 1).astype(np.int32)
        sorted_types = sorted(doc_types)
        return {"doc_ids": doc_ids, "doc_types": sorted_types, "external_ids": list(compress(names, (~is_doc).tolist())),
                "journal_index": _positions(journal_ids, list(journals))[journal], "year": year.astype(np.int32),
                "type_index": _positions(doc_types, sorted_types)[types], "external_citations": ext,
                "ref_indptr": ref_indptr, "ref": pool[np.remainder(entry, len(names), out=entry)]}


def _positions(texts: list[str], ordered: list[str]) -> np.ndarray:
    """The position in ordered of each text, as int32."""
    return np.fromiter(map(dict(zip(ordered, range(len(ordered)))).__getitem__, texts), np.int32, len(texts))
