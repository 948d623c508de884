"""Journal-based fractional classification.

Every document inherits its journal's category profile: each code listed by
the journal gets weight 1/k. Weight on the multidisciplinary area code is
split equally over all non-misc categories of the scheme; weight on a misc
category is split equally over the non-misc categories of its own area. The
result is normalized and pruned.
"""

from __future__ import annotations

import numpy as np

from .assignments import AssignmentSet, SYSTEM_ASJC
from .corpus import Corpus, Journal, Scheme, ValidationError
from .weights import CategoryVector, PRUNE_EPS, normalize


def journal_base_weights(journal: Journal, scheme: Scheme) -> CategoryVector:
    """Raw journal profile: 1/k to each listed code, before redistribution."""
    codes = journal.asjc_codes
    if not codes:
        raise ValidationError([f"journal {journal.journal_id!r} has no codes"])
    for code in codes:
        if not scheme.is_assignable_code(code):
            raise ValidationError(
                [f"journal {journal.journal_id!r} carries unknown code {code!r}"]
            )
    w = 1.0 / len(codes)
    return {code: w for code in sorted(codes)}


def redistribute(vector: CategoryVector, scheme: Scheme) -> CategoryVector:
    """Resolve multidisciplinary and misc weight onto regular categories.

    A vector already free of such entries is returned as a pruned sorted
    copy with values untouched, so the operation is exactly idempotent.
    """
    multi_code = scheme.multi_area.code if scheme.multi_area is not None else None
    special = False
    for code in vector:
        if code == multi_code:
            special = True
        else:
            cat = scheme.category_by_code.get(code)
            if cat is None:
                raise ValidationError([f"cannot redistribute unknown code {code!r}"])
            if cat.is_misc:
                special = True
    if not special:
        return {k: v for k, v in sorted(vector.items()) if v >= PRUNE_EPS}

    acc: dict[str, float] = {}
    for code, w in vector.items():
        if code == multi_code:
            targets = scheme.non_misc_codes
            if not targets:
                raise ValidationError(["no non-misc categories to receive multidisciplinary weight"])
        else:
            cat = scheme.category_by_code[code]
            if cat.is_misc:
                targets = scheme.non_misc_by_area[cat.area_code]
                if not targets:
                    raise ValidationError(
                        [f"area {cat.area_code!r} has no non-misc categories for misc weight"]
                    )
            else:
                acc[code] = acc.get(code, 0.0) + w
                continue
        share = w / len(targets)
        for t in targets:
            acc[t] = acc.get(t, 0.0) + share
    return normalize(acc)


def journal_vector(journal: Journal, scheme: Scheme) -> CategoryVector:
    return redistribute(journal_base_weights(journal, scheme), scheme)


def classify_asjc(corpus: Corpus, scheme: Scheme) -> AssignmentSet:
    """Classify every document: each gets its journal's vector. The vectors
    of the journals that hold documents are the rows of one CSR, and the
    documents' rows are picked from it by journal."""
    present = np.unique(corpus.journal_index)
    journals = AssignmentSet.from_rows(SYSTEM_ASJC, (
        (jid, journal_vector(corpus.journals[jid], scheme))
        for jid in map(corpus.journal_ids.__getitem__, present.tolist())))
    rows = journals.weights[np.searchsorted(present, corpus.journal_index)]
    return AssignmentSet(SYSTEM_ASJC, corpus.doc_ids, journals.codes, rows)
