"""Item-level classification from the origin of citing documents (U1-F-0.8).

Each reference of a document gets a profile: the mean journal-based vector
of the documents citing that reference, excluding the document being
classified. A reference with no other citers falls back to its own journal
vector; a reference outside the corpus contributes nothing. The document's
aggregate (mean over non-empty reference profiles) is cut to the categories
within a relative threshold of the heaviest one, capped at a maximum
support size, and renormalized. Documents with too few references, or with
an empty aggregate, keep their journal-based vector bit for bit.

With a citer window w, only citers published at most w years after the
reference count (Corpus.in_window). classify_u1f08_all classifies a whole
corpus with numpy alone. For every reference r with n_r windowed citers
whose vectors sum to S_r, a citing document d sees o = n_r - 1 other citers
when it is one of them and o = n_r when the window leaves it out. With
o > 0 its profile of r is (S_r - A_d) / o or S_r / o; with o = 0 it is the
row of A at r, which is r's own journal vector.

Each sum adds its terms one at a time from 0, in the order of a row by
row sparse product, so every weight has the same bytes whatever the block
size (tests/test_citer.py pins them): S_r over r's citers in citing order;
then, for each document d and in reference order, the terms S_r * (1/o) of
its profiled references. From that sum d's own vector times the sum of the
1/o of the references whose citers include d is taken, and the sum of the
journal vectors of the references with o = 0 is added, each of the two
formed on its own first.
S is dense, one row of codes per document. All else is built one block of
documents at a time, BLOCK_CELLS (2^16) dense cells (documents x codes) a
block, so a block's working set does not grow with the number of codes;
at 20 codes a block is 3,276 documents and its dense arrays 512 KiB each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import asjc
from .assignments import CSR, AssignmentSet, SYSTEM_U1
from .corpus import Corpus, Scheme, ValidationError
from .weights import PRUNE_EPS, row_fsum

BLOCK_CELLS = 1 << 16  # dense cells (documents x codes) per block of classify_u1f08_all

@dataclass(frozen=True, slots=True)
class ThresholdPolicy:
    theta: float = 0.8
    max_categories: int = 5
    min_references: int = 3

    def __post_init__(self):
        errors = []
        if not (0.0 < self.theta <= 1.0):
            errors.append(f"theta must be in (0, 1], got {self.theta}")
        if self.max_categories < 1:
            errors.append(f"max_categories must be >= 1, got {self.max_categories}")
        if self.min_references < 0:
            errors.append(f"min_references must be >= 0, got {self.min_references}")
        if errors:
            raise ValidationError(errors)


def apply_threshold(agg: np.ndarray, policy: ThresholdPolicy) -> CSR:
    """Cut each row of the dense aggregate block agg to the categories with
    weight >= theta * the row's max weight, cap the support at the
    max_categories heaviest, and renormalize; a row with no entry above
    1e-15 comes back empty. Both the cut and the cap compare each weight's
    ratio to the max weight rounded to 12 decimals, so weights that differ
    only by float noise fall on the same side of the cut and tie under the
    cap, where the column (the code order) decides. The rule is
    scale-invariant, so the rows need not be normalized."""
    n = agg.shape[0]
    wmax = agg.max(axis=1, initial=0.0)
    theta = round(policy.theta, 12)
    # weights below this raw bound cannot round up to theta
    row, col = np.nonzero((agg > 1e-15) & (agg >= ((theta - 1e-9) * wmax)[:, None]))
    ratio = agg[row, col] / wmax[row]
    kept = ratio >= theta
    # only a ratio this close to theta can land on the other side once rounded
    near = np.flatnonzero(np.abs(ratio - theta) <= 1e-9)
    kept[near] = [round(x, 12) >= theta for x in ratio[near].tolist()]
    row, col, ratio = row[kept], col[kept], ratio[kept]
    # the cap ranks only the rows over it, by (-rounded ratio, column)
    over = np.flatnonzero(np.bincount(row, minlength=n)[row] > policy.max_categories)
    level = np.array([round(x, 12) for x in ratio[over].tolist()])
    order = over[np.lexsort((col[over], -level, row[over]))]
    drop = order[np.arange(len(over)) - np.searchsorted(row[over], row[over]) >= policy.max_categories]
    row, col = np.delete(row, drop), np.delete(col, drop)
    w = agg[row, col]
    w /= row_fsum(row, w, n)[row]
    keep = w >= PRUNE_EPS
    return CSR.from_entries(row[keep], col[keep], w[keep], n)


def classify_u1f08_all(
    corpus: Corpus,
    scheme: Scheme,
    policy: ThresholdPolicy = ThresholdPolicy(),
    citer_window: int | None = None,
) -> AssignmentSet:
    """Classify every document of a corpus from the ASJC-FRAC vectors of
    its citers' journals, split from the scheme as classify_asjc does."""
    n = len(corpus)
    asjc_set = asjc.classify_asjc(corpus, scheme)
    A, codes = asjc_set.weights, asjc_set.codes
    m = len(codes)
    ptr, cited = corpus.cited_indptr, corpus.cited
    window = corpus.in_window(citer_window)
    n_cit = np.bincount(cited[window], minlength=n)
    reclassified = (corpus.n_references >= policy.min_references) & (np.diff(ptr) > 0)
    rows = max(1, BLOCK_CELLS // max(m, 1))
    blocks = [(i0, min(i0 + rows, n)) for i0 in range(0, n, rows)]

    # S[r] adds the vectors of r's windowed citers in citing order, the order np.add.at keeps
    S = np.zeros(n * m)
    for i0, i1 in blocks:
        win = window[ptr[i0]:ptr[i1]]
        g = A.take(np.repeat(np.arange(i0, i1), np.diff(ptr[i0:i1 + 1]))[win])
        refs = cited[ptr[i0]:ptr[i1]][win].astype(np.int64)
        np.add.at(S, np.repeat(refs * m, np.diff(g.indptr)) + g.indices, g.data)
    S = S.reshape(n, m)

    cuts = []
    for i0, i1 in blocks:
        b = i1 - i0
        local = ptr[i0:i1 + 1] - ptr[i0]
        refs, win = cited[ptr[i0]:ptr[i1]], window[ptr[i0]:ptr[i1]]
        row = np.repeat(np.arange(b), np.diff(local))
        # each reference's windowed citers other than the citing document
        others = n_cit[refs] - win
        profiled = others > 0
        weight, prow, prefs = 1.0 / others[profiled], row[profiled], refs[profiled]
        # step p adds the p-th profiled reference of each row; rows longest first make its rows a prefix
        count = np.bincount(prow, minlength=b)
        order = np.argsort(-count)
        first = np.concatenate(([0], np.cumsum(count)))[order]
        by_length = np.zeros((b, m))
        for p, k in enumerate((b - np.cumsum(np.bincount(count))[:-1]).tolist()):
            e = first[:k] + p
            by_length[:k] += weight[e, None] * S[prefs[e]]
        dense = np.empty_like(by_length)
        dense[order] = by_length
        flat = dense.reshape(-1)
        # a citing document inside the window is one of the citers S summed
        sub = win[profiled]
        csub = np.bincount(prow[sub], weights=weight[sub], minlength=b)
        own = np.repeat(np.arange(b), np.diff(A.indptr[i0:i1 + 1]))
        lo, hi = A.indptr[i0], A.indptr[i1]
        flat[own * m + A.indices[lo:hi]] -= csub[own] * A.data[lo:hi]
        # a reference with no other citer adds its own journal vector
        g = A.take(refs[~profiled])
        flat += np.bincount(np.repeat(row[~profiled] * m, np.diff(g.indptr)) + g.indices, weights=g.data,
                            minlength=b * m)
        kc = np.diff(local).astype(np.float64)
        np.divide(dense, kc[:, None], out=dense, where=kc[:, None] > 0)
        np.maximum(dense, 0.0, out=dense)
        dense[~reclassified[i0:i1]] = 0.0
        cuts.append(apply_threshold(dense, policy))
    del S  # the largest array here: the merge below would otherwise set the peak on top of it

    # the cut rows, then A's; a row the cut left empty keeps its journal-based vector bit for bit
    length = np.concatenate([np.diff(c.indptr) for c in cuts] + [np.diff(A.indptr)])
    both = CSR(np.concatenate(([0], np.cumsum(length))), np.concatenate([c.indices for c in cuts] + [A.indices]),
               np.concatenate([c.data for c in cuts] + [A.data]))
    return AssignmentSet(SYSTEM_U1, corpus.doc_ids, codes,
                         both.take(np.where(length[:n] > 0, np.arange(n), np.arange(n) + n)))
