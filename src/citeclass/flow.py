"""Weight flows between two classifications of the same documents.

For one document with normalized vectors wA (origin system) and wB (target
system): the common part is the pointwise minimum; the rest moves. Each
origin class with a deficit d_i = max(wA_i - wB_i, 0) sends weight to each
class with a surplus s_j = max(wB_j - wA_j, 0) proportionally:
move[i -> j] = d_i * s_j / T where T is the total deficit. Summed over
documents this yields a class-by-class flow matrix, at category level or
with vectors collapsed to areas first, and the per-class comparison tables
of that level.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass

from .assignments import AssignmentSet
from .corpus import ParseError, Scheme, ValidationError, fmt, write_csv
from .weights import NORMALIZATION_TOL, SUPPORT_EPS, CategoryVector, collapse_to_areas

LEVELS = ("category", "area")


@dataclass(slots=True)
class DocumentFlow:
    common: CategoryVector
    moves: dict[tuple[str, str], float]


@dataclass(slots=True)
class FlowMatrix:
    level: str
    n_docs: int
    size_a: dict[str, float]
    size_b: dict[str, float]
    common: dict[str, float]
    flow: dict[tuple[str, str], float]

    def classes(self) -> list[str]:
        seen = set(self.size_a) | set(self.size_b)
        return sorted(seen)


@dataclass(slots=True)
class ClassFlowStats:
    class_code: str
    size_a: float
    size_b: float
    common: float
    incoming: float
    outgoing: float
    pct_incoming: float | None
    pct_outgoing: float | None


@dataclass(slots=True)
class SummaryStats:
    n: int
    mean: float
    std: float
    cv_pct: float | None


def document_flow(from_vec: CategoryVector, to_vec: CategoryVector) -> DocumentFlow:
    """Proportional coupling between two normalized vectors of one document."""
    for name, vec in (("from", from_vec), ("to", to_vec)):
        total = math.fsum(vec.values())
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValidationError([f"{name} vector is not normalized (sum {total!r})"])
    common = {
        k: min(from_vec[k], to_vec[k])
        for k in sorted(from_vec.keys() & to_vec.keys())
        if min(from_vec[k], to_vec[k]) > 0.0
    }
    deficits = {k: v - to_vec.get(k, 0.0) for k, v in from_vec.items() if v > to_vec.get(k, 0.0)}
    surpluses = {k: v - from_vec.get(k, 0.0) for k, v in to_vec.items() if v > from_vec.get(k, 0.0)}
    total_deficit = math.fsum(deficits.values())
    if total_deficit <= 1e-15:
        return DocumentFlow(common, {})
    moves = {
        (i, j): d * s / total_deficit
        for i, d in sorted(deficits.items())
        for j, s in sorted(surpluses.items())
    }
    return DocumentFlow(common, moves)


class FlowAccumulator:
    """Streams document vector pairs into a FlowMatrix without holding them.
    Vectors must already be at the accumulator's level."""

    def __init__(self, level: str):
        if level not in LEVELS:
            raise ValidationError([f"unknown flow level {level!r}"])
        self.level = level
        self.n_docs = 0
        self.size_a: dict[str, float] = {}
        self.size_b: dict[str, float] = {}
        self.common: dict[str, float] = {}
        self.flow: dict[tuple[str, str], float] = {}

    def add(self, from_vec: CategoryVector, to_vec: CategoryVector) -> None:
        df = document_flow(from_vec, to_vec)
        self.n_docs += 1
        for k, w in from_vec.items():
            self.size_a[k] = self.size_a.get(k, 0.0) + w
        for k, w in to_vec.items():
            self.size_b[k] = self.size_b.get(k, 0.0) + w
        for k, w in df.common.items():
            self.common[k] = self.common.get(k, 0.0) + w
        for pair, w in df.moves.items():
            self.flow[pair] = self.flow.get(pair, 0.0) + w

    def finish(self) -> FlowMatrix:
        return FlowMatrix(
            self.level,
            self.n_docs,
            dict(sorted(self.size_a.items())),
            dict(sorted(self.size_b.items())),
            dict(sorted(self.common.items())),
            dict(sorted(self.flow.items())),
        )


def flow_matrix(
    set_a: AssignmentSet,
    set_b: AssignmentSet,
    level: str = "category",
    scheme: Scheme | None = None,
) -> FlowMatrix:
    """Flow matrix between two assignment sets over the same documents."""
    set_b.require_docs(set_a.doc_ids)
    if level == "area" and scheme is None:
        raise ValidationError(["area-level flows require a scheme"])
    acc = FlowAccumulator(level)
    for doc_id in set_a.doc_ids:
        vec_a, vec_b = set_a.get(doc_id), set_b.get(doc_id)
        if level == "area":
            vec_a, vec_b = collapse_to_areas(vec_a, scheme), collapse_to_areas(vec_b, scheme)
        acc.add(vec_a, vec_b)
    return acc.finish()


def class_flow_stats(matrix: FlowMatrix) -> list[ClassFlowStats]:
    """Per-class totals. Percentages are relative to the class size in the
    origin system and undefined (None) when that size is zero."""
    incoming: dict[str, float] = {}
    outgoing: dict[str, float] = {}
    for (i, j), w in matrix.flow.items():
        outgoing[i] = outgoing.get(i, 0.0) + w
        incoming[j] = incoming.get(j, 0.0) + w
    rows = []
    for code in matrix.classes():
        sa = matrix.size_a.get(code, 0.0)
        sb = matrix.size_b.get(code, 0.0)
        inc = incoming.get(code, 0.0)
        out = outgoing.get(code, 0.0)
        pct_in = 100.0 * inc / sa if sa > 0.0 else None
        pct_out = 100.0 * out / sa if sa > 0.0 else None
        rows.append(ClassFlowStats(code, sa, sb, matrix.common.get(code, 0.0), inc, out, pct_in, pct_out))
    return rows


def top_links(matrix: FlowMatrix, min_weight: float) -> list[tuple[str, str, float]]:
    """Flows of at least min_weight, heaviest first, ties by class pair."""
    links = [(i, j, w) for (i, j), w in matrix.flow.items() if w >= min_weight]
    links.sort(key=lambda t: (-t[2], t[0], t[1]))
    return links


def summary_stats(values: list[float]) -> SummaryStats:
    """Mean, population standard deviation, and coefficient of variation in
    percent (None when the mean is zero)."""
    if not values:
        raise ValidationError(["summary of an empty value list"])
    n = len(values)
    mean = math.fsum(values) / n
    var = math.fsum((v - mean) ** 2 for v in values) / n
    std = math.sqrt(var)
    cv = 100.0 * std / mean if mean != 0.0 else None
    return SummaryStats(n, mean, std, cv)


class SupportStats:
    """Per-class single-assignment counters for one system and level."""

    def __init__(self):
        self.n_pos: dict[str, int] = {}
        self.n_single: dict[str, int] = {}
        self.sum_w: dict[str, float] = {}

    def add(self, vec: CategoryVector) -> None:
        pos = [(c, w) for c, w in vec.items() if w > SUPPORT_EPS]
        for c, w in pos:
            self.n_pos[c] = self.n_pos.get(c, 0) + 1
            self.sum_w[c] = self.sum_w.get(c, 0.0) + w
        if len(pos) == 1:
            c = pos[0][0]
            self.n_single[c] = self.n_single.get(c, 0) + 1

    def pct_single(self) -> dict[str, float]:
        """Per class with positive weight somewhere: the percentage of those
        documents that carry it alone."""
        return {c: 100.0 * self.n_single.get(c, 0) / n for c, n in self.n_pos.items()}

    def mean_weight(self) -> dict[str, float]:
        """Per class with positive weight somewhere: its mean positive weight."""
        return {c: self.sum_w[c] / n for c, n in self.n_pos.items()}


def size_histogram_rows(stats: list[ClassFlowStats], bin_width: float) -> list[list]:
    """Class sizes of each system binned by bin_width, from zero up to the
    largest size's bin."""
    n = len(stats)
    counts_a = Counter(int(r.size_a // bin_width) for r in stats)
    counts_b = Counter(int(r.size_b // bin_width) for r in stats)
    return [
        [fmt(k * bin_width), fmt((k + 1) * bin_width),
         counts_a[k], fmt(100.0 * counts_a[k] / n), counts_b[k], fmt(100.0 * counts_b[k] / n)]
        for k in range(max(counts_a | counts_b, default=0) + 1)
    ]


def summary_rows(metrics: list[tuple[str, list[float]]]) -> list[list]:
    """One row per metric: n, mean, std and CV% over its values, or NA
    when it has none."""
    rows = []
    for name, values in metrics:
        if not values:
            rows.append([name, 0, "NA", "NA", "NA"])
            continue
        s = summary_stats(values)
        rows.append([name, s.n, fmt(s.mean), fmt(s.std), fmt(s.cv_pct)])
    return rows


def level_tables(
    stats: list[ClassFlowStats], st_a: SupportStats, st_b: SupportStats, bin_width: float
) -> dict[str, tuple[list[str], list[list]]]:
    """The comparison datasets of one level that derive from its class stats
    and support counters, keyed by dataset: (CSV header, rows)."""
    single = {
        "pct_single_asjc_frac": st_a.pct_single(), "mean_weight_asjc_frac": st_a.mean_weight(),
        "pct_single_u1_f08": st_b.pct_single(), "mean_weight_u1_f08": st_b.mean_weight(),
    }
    summary_header = ["metric", "n", "mean", "std", "cv_pct"]
    return {
        "common_unique": (["class", "common_weight", "only_asjc_frac", "only_u1_f08"], [
            [r.class_code, fmt(r.common), fmt(r.size_a - r.common), fmt(r.size_b - r.common)]
            for r in stats
        ]),
        "single_assignment": (["class", *single], [
            [r.class_code, *(fmt(col.get(r.class_code)) for col in single.values())] for r in stats
        ]),
        "size_histogram": ([
            "bin_low", "bin_high", "count_asjc_frac", "pct_asjc_frac", "count_u1_f08", "pct_u1_f08",
        ], size_histogram_rows(stats, bin_width)),
        "flow_summary": (summary_header, summary_rows([
            ("size_asjc_frac", [r.size_a for r in stats]),
            ("size_u1_f08", [r.size_b for r in stats]),
            ("incoming", [r.incoming for r in stats]),
            ("outgoing", [r.outgoing for r in stats]),
            ("pct_incoming", [r.pct_incoming for r in stats if r.pct_incoming is not None]),
            ("pct_outgoing", [r.pct_outgoing for r in stats if r.pct_outgoing is not None]),
        ])),
        "weight_summary": (summary_header, summary_rows(
            [(name, list(col.values())) for name, col in single.items()]
        )),
    }


def write_flow_csv(matrix: FlowMatrix, path: str) -> None:
    write_csv(path, ["from_class", "to_class", "weight"],
              ([i, j, fmt(w)] for (i, j), w in sorted(matrix.flow.items())))


def read_flow_csv(path: str, level: str) -> FlowMatrix:
    """Rebuild a flow matrix (flows only; sizes must come from class stats)."""
    flow: dict[tuple[str, str], float] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["from_class", "to_class", "weight"]:
            raise ParseError(f"{path}: expected flow CSV header")
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise ParseError(f"{path}: line {line_no}: expected 3 fields")
            try:
                flow[(row[0], row[1])] = float(row[2])
            except ValueError:
                raise ParseError(f"{path}: line {line_no}: bad weight {row[2]!r}") from None
    return FlowMatrix(level, 0, {}, {}, {}, dict(sorted(flow.items())))


def write_class_stats_csv(rows: list[ClassFlowStats], path: str) -> None:
    write_csv(path, [
        "class", "size_a", "size_b", "common",
        "incoming", "outgoing", "pct_incoming", "pct_outgoing",
    ], [
        [r.class_code, fmt(r.size_a), fmt(r.size_b), fmt(r.common),
         fmt(r.incoming), fmt(r.outgoing), fmt(r.pct_incoming), fmt(r.pct_outgoing)]
        for r in sorted(rows, key=lambda r: r.class_code)
    ])


def read_class_stats_csv(path: str) -> list[ClassFlowStats]:
    rows: list[ClassFlowStats] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:6] != ["class", "size_a", "size_b", "common", "incoming", "outgoing"]:
            raise ParseError(f"{path}: expected class stats CSV header")
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 8:
                raise ParseError(f"{path}: line {line_no}: expected 8 fields")
            try:
                pct_in = None if row[6] == "NA" else float(row[6])
                pct_out = None if row[7] == "NA" else float(row[7])
                rows.append(ClassFlowStats(
                    row[0], float(row[1]), float(row[2]), float(row[3]),
                    float(row[4]), float(row[5]), pct_in, pct_out,
                ))
            except ValueError:
                raise ParseError(f"{path}: line {line_no}: bad numeric field") from None
    return rows
