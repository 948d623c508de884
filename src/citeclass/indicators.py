"""Field-normalized impact and excellence indicators.

Baselines are weighted mean citation counts per (doc_type, year, category)
cell. A document's normalized impact (NI) is the sum over its categories of
w_dc * cit(d) / mean(cell); cells with mean 0 contribute 0 and their hits
are counted. Excellence works at area level: per (doc_type, year, area) cell
the cut is the smallest integer t such that the weighted share of documents
with cit >= t is at most p; a document is excellent when it reaches the cut
in any area it has positive weight in.

Each indicator is a group-by over one system's WeightColumns and the
citation counts of build_citation_index. np.bincount adds a group's terms
in entry order, the order of a loop over the documents and their vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assignments import AssignmentSet
from .corpus import YEARS, Corpus, ValidationError, fmt, write_csv

Cell = tuple[str, int, str]


class WeightColumns:
    """One system's assignment weights as parallel arrays: entry k puts
    weight[k] of document doc[k] (its corpus position) in class
    classes[cls[k]] and cell cells[cell[k]], the sorted (doc_type, year,
    class) triples that hold an entry. Document i is in groups[group[i]]."""

    def __init__(self, corpus: Corpus, aset: AssignmentSet):
        """The columns of a set holding exactly the corpus documents, with
        the set's codes as classes: entries in corpus order and, within a
        document, in code order."""
        aset.require_docs(corpus.doc_ids)
        # doc_types is sorted and years lie in [0, YEARS), so the keys sort as the pairs do
        keys, self.group = np.unique(corpus.type_index.astype(np.int64) * YEARS + corpus.year,
                                     return_inverse=True)
        self.groups = [(corpus.doc_types[k // YEARS], k % YEARS) for k in keys.tolist()]
        W, m = aset.weights, len(aset.codes)
        self.classes, self.cls, self.weight = aset.codes, W.indices.astype(np.int64), W.data
        self.doc = np.repeat(np.arange(len(aset), dtype=np.int64), np.diff(W.indptr))
        keys, self.cell = np.unique(self.group[self.doc] * m + self.cls, return_inverse=True)
        self.cells: list[Cell] = [(*self.groups[k // m], self.classes[k % m]) for k in keys.tolist()]


@dataclass(slots=True)
class BaselineTable:
    """The weighted mean citations and the total weight of each cell of cells."""
    cells: list[Cell]
    mean_citations: np.ndarray
    cell_weight: np.ndarray


@dataclass(slots=True)
class OverlapRow:
    area: str
    pct_common: float
    pct_only_b: float
    pct_only_a: float


def category_baselines(cats: WeightColumns, cit: np.ndarray) -> BaselineTable:
    """Weighted mean citations per (doc_type, year, category) cell of cats."""
    sums = np.bincount(cats.cell, weights=cats.weight * cit[cats.doc])
    weights = np.bincount(cats.cell, weights=cats.weight)
    return BaselineTable(cats.cells, sums / weights, weights)


def ni_table(
    cats: WeightColumns, baselines: BaselineTable, cit: np.ndarray
) -> tuple[np.ndarray, dict[Cell, int]]:
    """NI of every corpus document under one system, and the documents hit
    per zero-mean cell (every document there is uncited). The baselines
    must be of the cells of cats."""
    if baselines.cells != cats.cells:
        raise ValidationError(["the baselines are of other cells than the columns"])
    mean = baselines.mean_citations[cats.cell]
    zero = mean == 0.0
    terms = np.where(zero, 0.0, cats.weight * cit[cats.doc] / np.where(zero, 1.0, mean))
    ni = np.bincount(cats.doc, weights=terms, minlength=len(cats.group))
    hits = np.bincount(cats.cell[zero], minlength=len(cats.cells))
    return ni, {cats.cells[i]: int(hits[i]) for i in np.flatnonzero(hits)}


def ni_abs_diff_series(ni_a: np.ndarray, ni_b: np.ndarray, corpus: Corpus,
                       drop_last_year: bool = False) -> list[tuple[int, float]]:
    """Per year, unweighted mean of |NI_A - NI_B| over all documents of the corpus."""
    years, inv = np.unique(corpus.year, return_inverse=True)
    means = np.bincount(inv, weights=np.abs(ni_a - ni_b)) / np.bincount(inv)
    series = list(zip(years.tolist(), means.tolist()))
    return series[:-1] if drop_last_year else series


def ni_std_by_area(ni: np.ndarray, areas: WeightColumns) -> list[tuple[str, float]]:
    """Per area, population standard deviation of document NI weighted by
    the document's area weight. Areas with zero weight are omitted."""
    value = ni[areas.doc]
    n = len(areas.classes)
    w_tot = np.bincount(areas.cls, weights=areas.weight, minlength=n)
    s1 = np.bincount(areas.cls, weights=areas.weight * value, minlength=n)
    s2 = np.bincount(areas.cls, weights=areas.weight * value * value, minlength=n)
    out = []
    for a in np.flatnonzero(w_tot > 0.0):
        mean = s1[a] / w_tot[a]
        out.append((areas.classes[a], math.sqrt(max(s2[a] / w_tot[a] - mean * mean, 0.0))))
    return out


def _cell_cut(value_weights: dict[int, float], p: float) -> int:
    """Smallest integer t with weighted share(cit >= t) <= p. The share and
    p are compared rounded to 12 decimals, so a share equal to p up to float
    noise counts as within it."""
    values = sorted(value_weights, reverse=True)
    total = math.fsum(value_weights.values())
    p = round(p, 12)
    cum = 0.0
    best = None  # index into values of the largest satisfying prefix
    for i, v in enumerate(values):
        cum += value_weights[v]
        if round(cum / total, 12) <= p:
            best = i
        else:
            break
    if best is None:
        return values[0] + 1
    if best == len(values) - 1:
        return 0
    return values[best + 1] + 1


def excellence_thresholds(areas: WeightColumns, cit: np.ndarray, p: float) -> np.ndarray:
    """The cut of every (doc_type, year, area) cell of areas, in the order of
    areas.cells, from the cell's weight per citation count."""
    if not (0.0 < p <= 1.0):
        raise ValidationError([f"p must be in (0, 1], got {p}"])
    # keyed by the rank of the citation count, not the count, so the key fits in int64
    values, rank = np.unique(cit[areas.doc], return_inverse=True)
    span, values = len(values), values.tolist()
    keys, inv = np.unique(areas.cell * span + rank, return_inverse=True)
    per_cell: list[dict[int, float]] = [{} for _ in areas.cells]
    for key, w in zip(keys.tolist(), np.bincount(inv, weights=areas.weight).tolist()):
        per_cell[key // span][values[key % span]] = w
    return np.array([_cell_cut(vw, p) for vw in per_cell], dtype=np.int64)


def excellence_flags(areas: WeightColumns, cuts: np.ndarray, cit: np.ndarray) -> np.ndarray:
    """Per corpus document: excellent in at least one area it has positive
    weight in. cuts holds the cut of each cell of areas, in its order."""
    if len(cuts) != len(areas.cells):
        raise ValidationError([f"{len(cuts)} excellence thresholds for {len(areas.cells)} cells"])
    cut = cuts[areas.cell]
    hit = (areas.weight > 0.0) & (cit[areas.doc] >= cut)
    flags = np.zeros(len(areas.group), dtype=bool)
    flags[areas.doc[hit]] = True
    return flags


def excellence_overlap(
    flags_a: np.ndarray, flags_b: np.ndarray, areas_b: WeightColumns
) -> list[OverlapRow]:
    """Per area: weight under system B (areas_b: its area-level columns) of
    documents excellent in both systems / only B / only A, as percentages of
    the area's B-size."""
    n = len(areas_b.classes)
    denom = np.bincount(areas_b.cls, weights=areas_b.weight, minlength=n)
    # per entry 0: in neither system, 1: only B, 2: only A, 3: both
    kind = 2 * flags_a[areas_b.doc] + flags_b[areas_b.doc]
    part = np.bincount(areas_b.cls * 4 + kind, weights=areas_b.weight, minlength=4 * n).reshape(n, 4)
    return [OverlapRow(areas_b.classes[a], *(100.0 * part[a, k] / denom[a] for k in (3, 1, 2)))
            for a in np.flatnonzero(denom > 0.0)]


def write_indicators_csv(path: str, corpus: Corpus,
                         per_system: list[tuple[str, np.ndarray, np.ndarray, np.ndarray]]) -> None:
    """Rows grouped by document, one row per system: doc_id,system,ni,exc10,exc1."""
    columns = [(system, ni.tolist(), exc10.tolist(), exc1.tolist())
               for system, ni, exc10, exc1 in per_system]
    write_csv(path, ["doc_id", "system", "ni", "exc10", "exc1"], (
        [doc_id, system, fmt(ni[i]), int(exc10[i]), int(exc1[i])]
        for i, doc_id in enumerate(corpus.doc_ids)
        for system, ni, exc10, exc1 in columns
    ))


def write_baselines_csv(path: str, baselines: BaselineTable) -> None:
    """One row per cell, in the sorted order of baselines.cells."""
    write_csv(path, ["doc_type", "year", "class", "mean_citations", "cell_weight"], [
        [*cell, fmt(mean), fmt(weight)]
        for cell, mean, weight in zip(baselines.cells, baselines.mean_citations.tolist(),
                                      baselines.cell_weight.tolist())
    ])


def write_overlap_csv(path: str, rows: list[OverlapRow]) -> None:
    write_csv(path, ["area", "pct_common", "pct_only_u1", "pct_only_asjc"], [
        [r.area, fmt(r.pct_common), fmt(r.pct_only_b), fmt(r.pct_only_a)]
        for r in sorted(rows, key=lambda r: r.area)
    ])
