"""Classification results, their JSONL serialization and its npz sidecar.

One line per document: {"doc_id": ..., "system": ..., "weights": {code: w}}.
Weight keys are sorted and values formatted at 12 significant digits so the
same result always serializes to the same bytes. The stages after classify
load the set from the sidecar beside the JSONL instead of parsing it.
"""

from __future__ import annotations

import json
import math
import sys
from operator import itemgetter, lt
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .corpus import ParseError, Scheme, ValidationError, _load_jsonl, atomic_open, load_npz, save_npz, sha256_of
from .weights import NORMALIZATION_TOL

SYSTEM_ASJC = "ASJC-FRAC"
SYSTEM_U1 = "U1-F-0.8"
KNOWN_SYSTEMS = (SYSTEM_ASJC, SYSTEM_U1)

WRITE_BLOCK = 1024  # rows formatted per block by write_assignments


class CSR(NamedTuple):
    """Compressed sparse rows: row i holds data[indptr[i]:indptr[i + 1]] (float64) in the
    columns indices[indptr[i]:indptr[i + 1]] (int32), increasing; indptr is int64."""
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @classmethod
    def from_entries(cls, row: np.ndarray, col: np.ndarray, data: np.ndarray, n: int) -> CSR:
        """The n rows of the entries (row, col, data), given in (row, col) order."""
        return cls(np.searchsorted(row, np.arange(n + 1)).astype(np.int64), col.astype(np.int32),
                   data.astype(np.float64))

    def rows(self) -> np.ndarray:
        """The row of each entry."""
        return np.repeat(np.arange(len(self.indptr) - 1), np.diff(self.indptr))

    def take(self, rows: np.ndarray) -> CSR:
        """These rows, in this order."""
        size = self.indptr[rows + 1] - self.indptr[rows]
        ptr = np.concatenate(([0], np.cumsum(size)))
        at = np.arange(ptr[-1]) + np.repeat(self.indptr[rows] - ptr[:-1], size)
        return CSR(ptr, self.indices[at], self.data[at])


class AssignmentSet:
    """All assignments of one system: row i of the CSR weights is the vector
    of doc_ids[i] over codes, entries in code order. doc_ids and codes are
    sorted. Each vector is positive weights summing to 1 within
    NORMALIZATION_TOL: the classifiers build them so, and a set read from
    outside the program is checked once, by normalized()."""

    def __init__(self, system: str, doc_ids: list[str], codes: tuple[str, ...], weights: CSR):
        if system not in KNOWN_SYSTEMS:
            raise ValidationError([f"unknown classification system {system!r}"])
        self.system, self.doc_ids, self.codes, self.weights = system, doc_ids, codes, weights

    def normalized(self) -> AssignmentSet:
        """The set itself, once each vector is checked to be positive weights summing to 1."""
        row = self.weights.rows()
        off = ~(np.abs(np.bincount(row, weights=self.weights.data, minlength=len(self)) - 1.0) <= NORMALIZATION_TOL)
        off[row[~(self.weights.data > 0.0)]] = True
        if off.any():
            raise ValidationError([f"{self.system} weights of {self.doc_ids[i]!r} must be positive and sum to 1"
                                   for i in np.flatnonzero(off).tolist()])
        return self

    @classmethod
    def from_rows(cls, system: str, rows: Iterable[tuple[str, Mapping[str, float]]]) -> AssignmentSet:
        """Pack (doc_id, vector) pairs, in any doc_id order, into a set."""
        rows = sorted(rows, key=itemgetter(0))
        doc_ids = [doc_id for doc_id, _ in rows]
        if dups := sorted({a for a, b in zip(doc_ids, doc_ids[1:]) if a == b}):
            raise ValidationError([f"duplicate assignment for {d!r}" for d in dups])
        codes = sorted({c for _, vec in rows for c in vec})
        col = {c: k for k, c in enumerate(codes)}
        # the entries in (row, column) order
        cells = sorted((i, col[c], w) for i, (_, vec) in enumerate(rows) for c, w in vec.items())
        row, column, data = (np.array([cell[k] for cell in cells]) for k in range(3))
        return cls(system, doc_ids, tuple(codes), CSR.from_entries(row, column, data, len(doc_ids))).normalized()

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
    the scheme's areas, each area's from 0 in code order."""
    unknown = [c for c in aset.codes if c not in scheme.cat_to_area]
    if unknown:
        raise ValidationError([f"unknown category code {c!r}" for c in unknown])
    areas = tuple(a.code for a in scheme.areas)
    area_of = {a: i for i, a in enumerate(areas)}
    cols = np.array([area_of[scheme.cat_to_area[c]] for c in aset.codes], dtype=np.int64)
    W, m = aset.weights, len(areas)
    cells, cell = np.unique(W.rows() * m + cols[W.indices], return_inverse=True)
    row, col = np.divmod(cells, m)
    return AssignmentSet(aset.system, aset.doc_ids, areas,
                         CSR.from_entries(row, col, np.bincount(cell, weights=W.data), len(aset)))


def write_assignments(path: str, aset: AssignmentSet) -> None:
    codes = [json.dumps(c) for c in aset.codes]
    system = json.dumps(aset.system)
    W = aset.weights
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        for lo in range(0, len(aset), WRITE_BLOCK):
            hi = min(lo + WRITE_BLOCK, len(aset))
            first, last = W.indptr[lo], W.indptr[hi]
            ptr = (W.indptr[lo:hi + 1] - first).tolist()
            keys, values = W.indices[first:last].tolist(), W.data[first:last].tolist()
            for i, doc_id in enumerate(aset.doc_ids[lo:hi]):
                parts = ",".join(f"{codes[k]}:{w:.12g}" for k, w in
                                 zip(keys[ptr[i]:ptr[i + 1]], values[ptr[i]:ptr[i + 1]]))
                fh.write(f'{{"doc_id":{json.dumps(doc_id)},"system":{system},"weights":{{{parts}}}}}\n')


def iter_assignments(path: str) -> Iterator[tuple[str, str, dict[str, float]]]:
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

    def rows() -> Iterator[tuple[str, dict[str, float]]]:
        for doc_id, other, vec in iter_assignments(path):
            if other != system:
                raise ValidationError([f"{path}: mixed systems {system!r} and {other!r}"])
            yield doc_id, vec

    aset = AssignmentSet.from_rows(system, rows())
    if not len(aset):
        raise ValidationError([f"{path}: no assignments found"])
    return aset


# an assignment npz: the CSR, string lists as corpus.npz stores them, and digests
SIDECAR_STRINGS = ("doc_ids", "codes", "system")
SIDECAR_DTYPES = {"indptr": np.int64, "indices": np.int32, "data": np.float64, "jsonl_sha256": np.uint8,
                  "corpus_sha256": np.uint8, **{name: np.uint8 for name in SIDECAR_STRINGS},
                  **{f"{name}_ptr": np.int64 for name in SIDECAR_STRINGS}}


def save_assignments_npz(aset: AssignmentSet, path: str, jsonl_path: str, corpus_path: str) -> None:
    """Write the set as read_assignments reads it back from jsonl_path (weights at 12
    significant digits, only the codes it holds), with the sha256 of that JSONL and of
    the corpus npz it was classified from. Equal sets give equal bytes."""
    W = aset.weights
    values, at = np.unique(W.data, return_inverse=True)
    held = np.bincount(W.indices, minlength=len(aset.codes)) > 0
    save_npz(path, {"indptr": W.indptr, "indices": (np.cumsum(held) - 1).astype(np.int32)[W.indices],
                    "data": np.array([float(f"{w:.12g}") for w in values.tolist()])[at],
                    "jsonl_sha256": sha256_of(jsonl_path), "corpus_sha256": sha256_of(corpus_path)},
             {"doc_ids": aset.doc_ids, "codes": [c for c, h in zip(aset.codes, held) if h],
              "system": [aset.system]})


def load_assignments_npz(path: str, system: str, jsonl_path: str, corpus_sha256: bytes | None = None,
                         doc_ids: list[str] | None = None) -> tuple[AssignmentSet, bytes]:
    """The set that save_assignments_npz wrote, and the sha256 of its corpus npz, which
    must be corpus_sha256 when given; a set of the doc_ids given holds that very list.
    As in iter_assignments, a weight that is not finite is malformed (ParseError, as are
    bad arrays and columns or rows out of order); a row that is not positive weights
    summing to 1 is invalid (ValidationError, as are another system, no rows, a changed
    JSONL and another corpus)."""
    a = load_npz(path, "assignment", SIDECAR_DTYPES, SIDECAR_STRINGS, lambda a, size: [
        ("corpus_sha256", 32, 256), ("indptr", size["doc_ids"] + 1, len(a["data"])),
        ("indices", len(a["data"]), size["codes"])], (jsonl_path,), {"doc_ids": doc_ids})
    W, doc_ids = CSR(a["indptr"], a["indices"], a["data"]), a["doc_ids"]
    # rows in order with increasing columns: the row-major cells increase
    if not (np.isfinite(W.data).all() and (np.diff(W.rows() * len(a["codes"]) + W.indices) > 0).all()
            and all(map(lt, doc_ids, doc_ids[1:])) and all(map(lt, a["codes"], a["codes"][1:]))):
        raise ParseError(f"{path}: weights not finite or not in code order, or rows not in doc_id order")
    if a["system"] != [system]:
        raise ValidationError([f"{path}: holds {a['system']!r}, not {system!r} assignments"])
    if not doc_ids:
        raise ValidationError([f"{path}: no assignments found"])
    stored = a["corpus_sha256"].tobytes()
    if corpus_sha256 not in (None, stored):
        raise ValidationError([f"{path} was classified from another corpus"])
    return AssignmentSet(system, doc_ids, tuple(a["codes"]), W).normalized(), stored
