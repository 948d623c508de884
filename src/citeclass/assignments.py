"""Classification results and their JSONL serialization.

One line per document: {"doc_id": ..., "system": ..., "weights": {code: w}}.
Weight keys are sorted and values formatted at 12 significant digits so the
same result always serializes to the same bytes.
"""

from __future__ import annotations

import json
import math
import sys
from array import array
from bisect import bisect_left
from typing import Iterable, Iterator, Mapping

import numpy as np
from scipy import sparse

from .corpus import ParseError, Scheme, ValidationError, _load_jsonl, atomic_open
from .weights import NORMALIZATION_TOL, CategoryVector

SYSTEM_ASJC = "ASJC-FRAC"
SYSTEM_U1 = "U1-F-0.8"
KNOWN_SYSTEMS = (SYSTEM_ASJC, SYSTEM_U1)

WRITE_BLOCK = 1024  # rows formatted per block by write_assignments


class AssignmentSet:
    """All assignments of one system: row i of the float64 CSR matrix
    weights is the vector of doc_ids[i] over codes, entries in code order.
    doc_ids and codes are sorted."""

    def __init__(self, system: str, doc_ids: list[str], codes: tuple[str, ...], weights: sparse.csr_matrix):
        if system not in KNOWN_SYSTEMS:
            raise ValidationError([f"unknown classification system {system!r}"])
        self.system, self.doc_ids, self.codes, self.weights = system, doc_ids, codes, weights

    @classmethod
    def from_rows(cls, system: str, rows: Iterable[tuple[str, Mapping[str, float]]]) -> AssignmentSet:
        """Pack (doc_id, vector) pairs, in any doc_id order, into a set. Only
        flat arrays grow while the rows stream in."""
        doc_ids: list[str] = []
        col_of: dict[str, int] = {}  # code -> column, by first appearance
        indptr, indices, data = array("q", [0]), array("i"), array("d")
        for doc_id, vec in rows:
            doc_ids.append(doc_id)
            indices.extend([col_of.setdefault(c, len(col_of)) for c in vec])
            data.extend(vec.values())
            indptr.append(len(data))
        codes = sorted(col_of)
        # first-appearance column -> sorted column: the inverse permutation
        rank = np.fromiter((col_of[c] for c in codes), np.int32, len(codes)).argsort()
        weights = sparse.csr_matrix(
            (np.frombuffer(data), rank[np.frombuffer(indices, np.int32)], np.frombuffer(indptr, np.int64)),
            shape=(len(doc_ids), len(codes)))
        weights.sort_indices()
        if any(a >= b for a, b in zip(doc_ids, doc_ids[1:])):
            order = sorted(range(len(doc_ids)), key=doc_ids.__getitem__)
            doc_ids, weights = [doc_ids[i] for i in order], weights[order]
            if dups := sorted({a for a, b in zip(doc_ids, doc_ids[1:]) if a == b}):
                raise ValidationError([f"duplicate assignment for {d!r}" for d in dups])
        return cls(system, doc_ids, tuple(codes), weights)

    def row(self, i: int) -> CategoryVector:
        """The vector of doc_ids[i] as a dict in code order."""
        lo, hi = self.weights.indptr[i:i + 2]
        return dict(zip(map(self.codes.__getitem__, self.weights.indices[lo:hi].tolist()),
                        self.weights.data[lo:hi].tolist()))

    def get(self, doc_id: str) -> CategoryVector:
        i = bisect_left(self.doc_ids, doc_id)
        if i == len(self.doc_ids) or self.doc_ids[i] != doc_id:
            raise KeyError(doc_id)
        return self.row(i)

    def __len__(self) -> int:
        return len(self.doc_ids)

    def require_docs(self, doc_ids: list[str]) -> None:
        """Check that the set holds exactly these sorted doc ids, in order."""
        if self.doc_ids != doc_ids:
            held, wanted = set(self.doc_ids), set(doc_ids)
            at = next((i for i, (a, b) in enumerate(zip(self.doc_ids, doc_ids)) if a != b), len(doc_ids))
            raise ValidationError(
                [f"no {self.system} assignment for {d!r}" for d in sorted(wanted - held)]
                + [f"unexpected {self.system} assignment for {d!r}" for d in sorted(held - wanted)]
                or [f"{self.system} assignments out of order at position {at}"])


def collapse_to_areas(aset: AssignmentSet, scheme: Scheme) -> AssignmentSet:
    """The same documents with each vector's category weights summed into
    the scheme's areas: one product with the 0/1 category -> area matrix,
    which adds each area's weights in code order."""
    unknown = [c for c in aset.codes if c not in scheme.cat_to_area]
    if unknown:
        raise ValidationError([f"unknown category code {c!r}" for c in unknown])
    areas = tuple(a.code for a in scheme.areas)
    area_of = {a: i for i, a in enumerate(areas)}
    cols = [area_of[scheme.cat_to_area[c]] for c in aset.codes]
    to_area = sparse.csr_matrix((np.ones(len(cols)), cols, np.arange(len(cols) + 1)),
                                shape=(len(aset.codes), len(areas)))
    return AssignmentSet(aset.system, aset.doc_ids, areas, (aset.weights @ to_area).sorted_indices())


def write_assignments(path: str, aset: AssignmentSet) -> None:
    codes = [json.dumps(c) for c in aset.codes]
    system = json.dumps(aset.system)
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        for lo in range(0, len(aset), WRITE_BLOCK):
            block = aset.weights[lo:lo + WRITE_BLOCK]
            ptr, keys, values = block.indptr.tolist(), block.indices.tolist(), block.data.tolist()
            for i, doc_id in enumerate(aset.doc_ids[lo:lo + WRITE_BLOCK]):
                parts = ",".join(f"{codes[k]}:{w:.12g}" for k, w in
                                 zip(keys[ptr[i]:ptr[i + 1]], values[ptr[i]:ptr[i + 1]]))
                fh.write(f'{{"doc_id":{json.dumps(doc_id)},"system":{system},"weights":{{{parts}}}}}\n')


def iter_assignments(path: str) -> Iterator[tuple[str, str, CategoryVector]]:
    """Stream (doc_id, system, vector) records from a JSONL file. A
    weight that is not a finite number is malformed; weights that are not
    all positive with a sum within NORMALIZATION_TOL of 1 are invalid."""
    fmax = sys.float_info.max
    for line_no, obj in _load_jsonl(path):
        doc_id = obj.get("doc_id")
        system = obj.get("system")
        weights = obj.get("weights")
        if not isinstance(doc_id, str) or not isinstance(system, str) or not isinstance(weights, dict):
            raise ParseError(f"{path}: record {line_no}: malformed assignment")
        for k, v in weights.items():
            # type() rules out bool; the range rules out nan, inf and ints beyond float
            if not isinstance(k, str) or type(v) not in (float, int) or not -fmax <= v <= fmax:
                raise ParseError(f"{path}: record {line_no}: malformed weights")
        vec = {k: float(v) for k, v in weights.items()}
        if min(vec.values(), default=0.0) <= 0.0 or abs(math.fsum(vec.values()) - 1.0) > NORMALIZATION_TOL:
            raise ValidationError([f"{path}: record {line_no}: weights must be positive and sum to 1"])
        yield doc_id, system, vec


def read_assignments(path: str, system: str) -> AssignmentSet:
    """Load a whole assignment file of one system."""

    def rows() -> Iterator[tuple[str, CategoryVector]]:
        for doc_id, other, vec in iter_assignments(path):
            if other != system:
                raise ValidationError([f"{path}: mixed systems {system!r} and {other!r}"])
            yield doc_id, vec

    aset = AssignmentSet.from_rows(system, rows())
    if not len(aset):
        raise ValidationError([f"{path}: no assignments found"])
    return aset
