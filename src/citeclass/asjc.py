"""Journal-based fractional classification (ASJC-FRAC).

Every document inherits its journal's category profile: each code listed by
the journal gets weight 1/k. Weight on the multidisciplinary area code is
split equally over all non-misc categories of the scheme; weight on a misc
category is split equally over the non-misc categories of its own area. A
profile that had such weight is renormalized to an exact unit sum and
pruned; a profile of regular codes only keeps its weights of 1/k as they
are. The profiles of the journals that hold documents are one group-by
into a CSR, whose rows the documents pick by journal.
"""

from __future__ import annotations

import numpy as np

from .assignments import CSR, AssignmentSet, SYSTEM_ASJC
from .corpus import Corpus, Scheme, ValidationError
from .weights import PRUNE_EPS, row_fsum


def classify_asjc(corpus: Corpus, scheme: Scheme) -> AssignmentSet:
    """Classify every document: each gets its journal's vector."""
    present = np.unique(corpus.journal_index)
    # the categories each assignable code sends its weight to
    to = {c.code: scheme.non_misc_by_area[c.area_code] if c.is_misc else (c.code,) for c in scheme.categories}
    if scheme.multi_area is not None:
        to[scheme.multi_area.code] = scheme.non_misc_codes
    # one (journal row, target code, share) triple per share a code sends
    rows, targets, shares = [], [], []
    special = np.zeros(len(present), dtype=bool)
    for r, jid in enumerate(map(corpus.journal_ids.__getitem__, present.tolist())):
        codes = corpus.journals[jid].asjc_codes
        if not codes:
            raise ValidationError([f"journal {jid!r} has no codes"])
        for code in sorted(codes):
            if not to.get(code):
                raise ValidationError([f"journal {jid!r} carries code {code!r}, which the scheme cannot assign"])
            special[r] |= to[code] != (code,)
            rows += [r] * len(to[code])
            targets += to[code]
            shares += [1.0 / len(codes) / len(to[code])] * len(to[code])
    columns, cols = np.unique(np.array(targets, dtype=str), return_inverse=True)
    m = len(columns)
    # each cell adds its shares in the order above: codes in order, targets in scheme order
    cells, inv = np.unique(np.array(rows, dtype=np.int64) * m + cols, return_inverse=True)
    w = np.bincount(inv, weights=shares).astype(np.float64)  # an empty bincount is int
    row, col = np.divmod(cells, m)
    # a regular-only profile is left as it is: math.fsum([1/49] * 49) is not 1
    norm = special[row]
    w[norm] /= row_fsum(row[norm], w[norm], len(present))[row[norm]]
    keep = w >= PRUNE_EPS
    # the cells are unique and in (row, column) order, so they are the CSR's entries as they stand
    journals = CSR.from_entries(row[keep], col[keep], w[keep], len(present))
    rows_of_docs = journals.take(np.searchsorted(present, corpus.journal_index))
    return AssignmentSet(SYSTEM_ASJC, corpus.doc_ids, tuple(columns.tolist()), rows_of_docs)
