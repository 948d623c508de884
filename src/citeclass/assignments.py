"""Classification results and their JSONL serialization.

One line per document: {"doc_id": ..., "system": ..., "weights": {code: w}}.
Weight keys are sorted and values formatted at 12 significant digits so the
same result always serializes to the same bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator

from .corpus import ParseError, ValidationError, _load_jsonl
from .weights import CategoryVector

SYSTEM_ASJC = "ASJC-FRAC"
SYSTEM_U1 = "U1-F-0.8"
KNOWN_SYSTEMS = (SYSTEM_ASJC, SYSTEM_U1)


@dataclass(frozen=True, slots=True)
class Assignment:
    doc_id: str
    system: str
    weights: CategoryVector


class AssignmentSet:
    """All assignments of one system, keyed by doc_id."""

    def __init__(self, system: str, vectors: dict[str, CategoryVector] | None = None):
        if system not in KNOWN_SYSTEMS:
            raise ValidationError([f"unknown classification system {system!r}"])
        self.system = system
        self.vectors: dict[str, CategoryVector] = vectors if vectors is not None else {}

    def get(self, doc_id: str) -> CategoryVector:
        return self.vectors[doc_id]

    def __len__(self) -> int:
        return len(self.vectors)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self.vectors

    def __iter__(self) -> Iterator[str]:
        return iter(self.vectors)


def format_weights(weights: CategoryVector) -> str:
    parts = ",".join(
        f"{json.dumps(code)}:{w:.12g}" for code, w in sorted(weights.items())
    )
    return "{" + parts + "}"


def assignment_line(assignment: Assignment) -> str:
    return (
        f'{{"doc_id":{json.dumps(assignment.doc_id)},'
        f'"system":{json.dumps(assignment.system)},'
        f'"weights":{format_weights(assignment.weights)}}}'
    )


def write_assignments(path: str, aset: AssignmentSet) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for doc_id in sorted(aset.vectors):
            fh.write(assignment_line(Assignment(doc_id, aset.system, aset.vectors[doc_id])))
            fh.write("\n")


def iter_assignments(path: str) -> Iterator[Assignment]:
    """Stream assignments from a JSONL file without holding them all."""
    for line_no, obj in _load_jsonl(path):
        doc_id = obj.get("doc_id")
        system = obj.get("system")
        weights = obj.get("weights")
        if not isinstance(doc_id, str) or not isinstance(system, str) or not isinstance(weights, dict):
            raise ParseError(f"{path}: record {line_no}: malformed assignment")
        for k, v in weights.items():
            if not isinstance(k, str) or isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ParseError(f"{path}: record {line_no}: malformed weights")
        yield Assignment(doc_id, system, {k: float(v) for k, v in weights.items()})


def read_assignments(path: str, expect_system: str | None = None) -> AssignmentSet:
    """Load a whole assignment file. Documents with identical weight vectors
    share one dict (journals repeat across documents, so this bounds memory
    by the number of distinct vectors)."""
    system: str | None = expect_system
    vectors: dict[str, CategoryVector] = {}
    # sharing pays off only while vectors actually repeat, so give up on
    # files dominated by distinct vectors
    pool: dict[tuple, CategoryVector] | None = {}
    for a in iter_assignments(path):
        if system is None:
            system = a.system
        elif a.system != system:
            raise ValidationError([f"{path}: mixed systems {system!r} and {a.system!r}"])
        if a.doc_id in vectors:
            raise ValidationError([f"{path}: duplicate assignment for {a.doc_id!r}"])
        if pool is None:
            vectors[a.doc_id] = a.weights
        else:
            key = tuple(sorted(a.weights.items()))
            vectors[a.doc_id] = pool.setdefault(key, a.weights)
            if len(pool) > 100_000:
                pool = None
    if system is None:
        raise ValidationError([f"{path}: no assignments found"])
    return AssignmentSet(system, vectors)
