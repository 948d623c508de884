"""Field-normalized impact and excellence indicators.

Baselines are weighted mean citation counts per (doc_type, year, category)
cell. A document's normalized impact (NI) is the sum over its categories of
w_dc * cit(d) / mean(cell); cells with mean 0 contribute 0 and are counted
in a diagnostics report. Excellence works at area level: per (doc_type,
year, area) cell the cut is the smallest integer t such that the weighted
share of documents with cit >= t is at most p; a document is excellent when
it reaches the cut in any area it has positive weight in. The area-level
functions take vectors the caller has collapsed (AssignmentSet.to_areas).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

from .assignments import AssignmentSet
from .corpus import CitationIndex, Corpus, Document, ValidationError, fmt, write_csv
from .weights import CategoryVector

Cell = tuple[str, int, str]


@dataclass(slots=True)
class BaselineTable:
    mean_citations: dict[Cell, float]
    cell_weight: dict[Cell, float]


@dataclass(slots=True)
class NIDiagnostics:
    """Hits on zero-mean baseline cells (every document there is uncited)."""

    zero_mean_hits: dict[Cell, int] = field(default_factory=dict)

    def record(self, cell: Cell) -> None:
        self.zero_mean_hits[cell] = self.zero_mean_hits.get(cell, 0) + 1

    def total(self) -> int:
        return sum(self.zero_mean_hits.values())


@dataclass(slots=True)
class ExcellenceThresholds:
    p: float
    cut: dict[Cell, int]


@dataclass(slots=True)
class OverlapRow:
    area: str
    pct_common: float
    pct_only_b: float
    pct_only_a: float


def _assigned(corpus: Corpus, aset: AssignmentSet) -> Iterator[tuple[Document, CategoryVector]]:
    """Each document of the corpus, in corpus order, with its vector."""
    for d in corpus.documents:
        vec = aset.vectors.get(d.doc_id)
        if vec is None:
            raise ValidationError([f"no assignment for document {d.doc_id!r}"])
        yield d, vec


def category_baselines(
    corpus: Corpus, aset: AssignmentSet, index: CitationIndex
) -> BaselineTable:
    """Weighted mean citations per (doc_type, year, category) cell."""
    sums: dict[Cell, float] = {}
    weights: dict[Cell, float] = {}
    for d, vec in _assigned(corpus, aset):
        cit = index.count(d.doc_id)
        for c, w in vec.items():
            cell = (d.doc_type, d.year, c)
            sums[cell] = sums.get(cell, 0.0) + w * cit
            weights[cell] = weights.get(cell, 0.0) + w
    means = {cell: sums[cell] / weights[cell] for cell in sorted(weights)}
    return BaselineTable(means, {cell: weights[cell] for cell in sorted(weights)})


def normalized_impact(
    doc: Document,
    vec: CategoryVector,
    baselines: BaselineTable,
    index: CitationIndex,
    diagnostics: NIDiagnostics | None = None,
) -> float:
    cit = index.count(doc.doc_id)
    total = 0.0
    for c in sorted(vec):
        cell = (doc.doc_type, doc.year, c)
        mean = baselines.mean_citations.get(cell)
        if mean is None:
            raise ValidationError([f"no baseline for cell {cell!r}"])
        if mean == 0.0:
            if diagnostics is not None:
                diagnostics.record(cell)
            continue
        total += vec[c] * cit / mean
    return total


def ni_table(
    corpus: Corpus,
    aset: AssignmentSet,
    baselines: BaselineTable,
    index: CitationIndex,
) -> tuple[dict[str, float], NIDiagnostics]:
    """NI for every document of the corpus under one system."""
    diagnostics = NIDiagnostics()
    ni = {d.doc_id: normalized_impact(d, vec, baselines, index, diagnostics)
          for d, vec in _assigned(corpus, aset)}
    return ni, diagnostics


def ni_abs_diff_series(
    ni_a: dict[str, float],
    ni_b: dict[str, float],
    corpus: Corpus,
    drop_last_year: bool = False,
) -> list[tuple[int, float]]:
    """Per year, unweighted mean of |NI_A - NI_B| over documents."""
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for d in corpus.documents:
        a = ni_a.get(d.doc_id)
        b = ni_b.get(d.doc_id)
        if a is None or b is None:
            raise ValidationError([f"NI tables do not cover document {d.doc_id!r}"])
        sums[d.year] = sums.get(d.year, 0.0) + abs(a - b)
        counts[d.year] = counts.get(d.year, 0) + 1
    years = sorted(counts)
    if drop_last_year and years:
        years = years[:-1]
    return [(y, sums[y] / counts[y]) for y in years]


def ni_std_by_area(ni: dict[str, float], areas: AssignmentSet) -> list[tuple[str, float]]:
    """Per area, population standard deviation of document NI weighted by
    the document's area weight (areas: area-level vectors, as from
    AssignmentSet.to_areas). Areas with zero weight are omitted."""
    w_tot: dict[str, float] = {}
    s1: dict[str, float] = {}
    s2: dict[str, float] = {}
    for doc_id, vec in areas.vectors.items():
        value = ni.get(doc_id)
        if value is None:
            raise ValidationError([f"no NI value for document {doc_id!r}"])
        for a, w in vec.items():
            w_tot[a] = w_tot.get(a, 0.0) + w
            s1[a] = s1.get(a, 0.0) + w * value
            s2[a] = s2.get(a, 0.0) + w * value * value
    out = []
    for a in sorted(w_tot):
        if w_tot[a] <= 0.0:
            continue
        mean = s1[a] / w_tot[a]
        var = max(s2[a] / w_tot[a] - mean * mean, 0.0)
        out.append((a, math.sqrt(var)))
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


def excellence_thresholds(
    corpus: Corpus,
    areas: AssignmentSet,
    index: CitationIndex,
    p: float,
) -> ExcellenceThresholds:
    """Cuts per (doc_type, year, area) cell; areas holds area-level vectors."""
    if not (0.0 < p <= 1.0):
        raise ValidationError([f"p must be in (0, 1], got {p}"])
    cells: dict[Cell, dict[int, float]] = {}
    for d, vec in _assigned(corpus, areas):
        cit = index.count(d.doc_id)
        for a, w in vec.items():
            vw = cells.setdefault((d.doc_type, d.year, a), {})
            vw[cit] = vw.get(cit, 0.0) + w
    cut = {cell: _cell_cut(cells[cell], p) for cell in sorted(cells)}
    return ExcellenceThresholds(p, cut)


def excellence_flags(
    corpus: Corpus,
    areas: AssignmentSet,
    thresholds: ExcellenceThresholds,
    index: CitationIndex,
) -> dict[str, bool]:
    """Document-level flags: excellent in at least one area it has positive
    weight in (areas: area-level vectors)."""
    out: dict[str, bool] = {}
    for d, vec in _assigned(corpus, areas):
        cit = index.count(d.doc_id)
        flag = False
        for a, w in vec.items():
            if w <= 0.0:
                continue
            cell_cut = thresholds.cut.get((d.doc_type, d.year, a))
            if cell_cut is None:
                raise ValidationError(
                    [f"no excellence threshold for cell {(d.doc_type, d.year, a)!r}"]
                )
            if cit >= cell_cut:
                flag = True
                break
        out[d.doc_id] = flag
    return out


def excellence_overlap(
    flags_a: dict[str, bool],
    flags_b: dict[str, bool],
    areas_b: AssignmentSet,
) -> list[OverlapRow]:
    """Per area: weight under system B (areas_b: its area-level vectors) of
    documents excellent in both systems / only B / only A, as percentages of
    the area's B-size."""
    denom: dict[str, float] = {}
    both: dict[str, float] = {}
    only_b: dict[str, float] = {}
    only_a: dict[str, float] = {}
    for doc_id, vec in areas_b.vectors.items():
        fa = flags_a.get(doc_id)
        fb = flags_b.get(doc_id)
        if fa is None or fb is None:
            raise ValidationError([f"excellence flags do not cover document {doc_id!r}"])
        for a, w in vec.items():
            denom[a] = denom.get(a, 0.0) + w
            if fa and fb:
                both[a] = both.get(a, 0.0) + w
            elif fb:
                only_b[a] = only_b.get(a, 0.0) + w
            elif fa:
                only_a[a] = only_a.get(a, 0.0) + w
    rows = []
    for a in sorted(denom):
        if denom[a] <= 0.0:
            continue
        rows.append(OverlapRow(
            a,
            100.0 * both.get(a, 0.0) / denom[a],
            100.0 * only_b.get(a, 0.0) / denom[a],
            100.0 * only_a.get(a, 0.0) / denom[a],
        ))
    return rows


def write_indicators_csv(
    path: str,
    corpus: Corpus,
    per_system: list[tuple[str, dict[str, float], dict[str, bool], dict[str, bool]]],
) -> None:
    """Rows grouped by document, one row per system:
    doc_id,system,ni,exc10,exc1."""
    write_csv(path, ["doc_id", "system", "ni", "exc10", "exc1"], (
        [d.doc_id, system, fmt(ni[d.doc_id]), int(exc10[d.doc_id]), int(exc1[d.doc_id])]
        for d in corpus.documents
        for system, ni, exc10, exc1 in per_system
    ))


def write_baselines_csv(path: str, baselines: BaselineTable) -> None:
    write_csv(path, ["doc_type", "year", "class", "mean_citations", "cell_weight"], [
        [*cell, fmt(baselines.mean_citations[cell]), fmt(baselines.cell_weight[cell])]
        for cell in sorted(baselines.mean_citations)
    ])


def write_overlap_csv(path: str, rows: list[OverlapRow]) -> None:
    write_csv(path, ["area", "pct_common", "pct_only_u1", "pct_only_asjc"], [
        [r.area, fmt(r.pct_common), fmt(r.pct_only_b), fmt(r.pct_only_a)]
        for r in sorted(rows, key=lambda r: r.area)
    ])
