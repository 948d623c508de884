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
corpus through sparse matrix products over the citation CSR the corpus
stores. For every reference r with n_r windowed citers whose vectors sum to
S_r, a citing document d sees o = n_r - 1 other citers when it is one of
them and o = n_r when the window leaves it out. With o > 0 its profile of r
is (S_r - A_d) / o or S_r / o; with o = 0 it is the row of A at r, which is
r's own journal vector, summed in reference order. The documents are taken
CHUNK_SIZE at a time, and every per-edge array is built from the chunk's
slice of the citation CSR alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import asjc
from .assignments import CSR, AssignmentSet, SYSTEM_U1
from .corpus import Corpus, Scheme, ValidationError
from .weights import PRUNE_EPS, row_fsum

CHUNK_SIZE = 65536  # documents per dense aggregate block in classify_u1f08_all

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
    # scipy.sparse serves this kernel alone, so no other stage pays its import
    from scipy import sparse

    def kept(indptr: np.ndarray, indices: np.ndarray, mask: np.ndarray, data) -> sparse.csr_matrix:
        """The n columns of the entries of (indptr, indices) that mask keeps, in order, holding data."""
        kept_ptr = np.concatenate(([0], np.cumsum(mask)))[indptr]
        return sparse.csr_matrix((data, indices[mask], kept_ptr), shape=(len(indptr) - 1, n))

    n = len(corpus)
    asjc_set = asjc.classify_asjc(corpus, scheme)
    J, codes = asjc_set.weights, asjc_set.codes
    A = sparse.csr_matrix((J.data, J.indices, J.indptr), shape=(n, len(codes)))
    ptr, cited = corpus.cited_indptr, corpus.cited
    window = corpus.in_window(citer_window)
    n_cit = np.bincount(cited[window], minlength=n)
    # transposed once to CSR, so no chunk product converts it again
    S = kept(ptr, cited, window, np.ones(np.count_nonzero(window))).T.tocsr() @ A
    reclassified = (corpus.n_references >= policy.min_references) & (np.diff(ptr) > 0)

    blocks = []
    for i0 in range(0, n, CHUNK_SIZE):
        i1 = min(i0 + CHUNK_SIZE, n)
        local = ptr[i0:i1 + 1] - ptr[i0]
        refs, win = cited[ptr[i0]:ptr[i1]], window[ptr[i0]:ptr[i1]]
        # each reference's windowed citers other than the citing document
        others = n_cit[refs] - win
        profiled = others > 0
        weight = 1.0 / others[profiled]
        dense = (kept(local, refs, profiled, weight) @ S).toarray()
        # a citing document inside the window is one of the citers S summed
        sub = win[profiled]
        row = np.repeat(np.arange(i1 - i0), np.diff(local))[profiled]
        csub = np.bincount(row[sub], weights=weight[sub], minlength=i1 - i0)
        Ac = A[i0:i1]
        dense -= (sparse.diags(csub, dtype=np.float64) @ Ac).toarray()
        dense += (kept(local, refs, ~profiled, np.ones(len(refs) - len(weight))) @ A).toarray()
        kc = np.diff(local).astype(np.float64)
        np.divide(dense, kc[:, None], out=dense, where=kc[:, None] > 0)
        np.maximum(dense, 0.0, out=dense)
        dense[~reclassified[i0:i1]] = 0.0

        c = apply_threshold(dense, policy)
        cut = sparse.csr_matrix((c.data, c.indices, c.indptr), shape=dense.shape)
        # a row left empty keeps its journal-based vector bit for bit
        empty = sparse.diags((np.diff(c.indptr) == 0).astype(np.float64), format="csr")
        blocks.append((cut + empty @ Ac).sorted_indices())
    W = sparse.vstack(blocks, format="csr") if blocks else sparse.csr_matrix((0, len(codes)))
    return AssignmentSet(SYSTEM_U1, corpus.doc_ids, codes,
                         CSR(W.indptr.astype(np.int64), W.indices.astype(np.int32), W.data))
