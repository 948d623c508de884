"""Weight flows between two classifications of the same documents.

For one document with normalized vectors wA (origin system) and wB (target
system): the common part is the pointwise minimum; the rest moves. Each
origin class with a deficit d_i = max(wA_i - wB_i, 0) sends weight to each
class with a surplus s_j = max(wB_j - wA_j, 0) proportionally:
move[i -> j] = d_i * s_j / T where T is the total deficit. Summed over
documents this yields a class-by-class flow matrix, at category level or
with vectors collapsed to areas first, and the per-class comparison tables
of that level. Both systems are AssignmentSets over the same rows, and every
sum is a np.bincount that adds its terms in document order.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .assignments import CSR, AssignmentSet, collapse_to_areas
from .corpus import ParseError, Scheme, ValidationError, fmt, read_lines, write_csv
from .weights import SUPPORT_EPS, row_fsum

LEVELS = ("category", "area")


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


def _on_codes(aset: AssignmentSet, col: dict[str, int]) -> CSR:
    """The set's weights with its codes in the columns col gives them, in the same order."""
    cols = np.array([col[c] for c in aset.codes], dtype=np.int32)
    return aset.weights._replace(indices=cols[aset.weights.indices])


def _difference(A: CSR, B: CSR, m: int) -> tuple[np.ndarray, ...]:
    """A - B on the union of the cells i * m + j that A or B holds, in row-major order,
    as int32 rows and columns and the values a - b, a or -b, exact zeros dropped; then
    the column and min(a, b) of each cell both hold, in the same order. Each cell of B
    is looked up among A's, and those only B holds go in before the next cell of A."""
    key_a, key_b = A.rows() * m + A.indices, B.rows() * m + B.indices
    at = np.searchsorted(key_a, key_b)
    both = at < len(key_a)
    both[both] = key_a[at[both]] == key_b[both]
    diff = A.data.copy()
    diff[at[both]] -= B.data[both]
    only_b = np.flatnonzero(~both)
    keys = np.insert(key_a, at[only_b], key_b[only_b])
    diff = np.insert(diff, at[only_b], -B.data[only_b])
    row, col = (x.astype(np.int32) for x in np.divmod(keys[diff != 0.0], m))
    return row, col, diff[diff != 0.0], (key_b[both] % m).astype(np.int32), np.minimum(A.data[at[both]], B.data[both])


class FlowAccumulator:
    """The flow kernel at one level. It is a class only so that
    bench/trace_shim.py can patch add by name."""

    def __init__(self, level: str):
        if level not in LEVELS:
            raise ValidationError([f"unknown flow level {level!r}"])
        self.level = level

    def add(self, set_a: AssignmentSet, set_b: AssignmentSet) -> FlowMatrix:
        """The flows from set_a to set_b, two sets of the same documents with
        vectors already at this level. Each dict is in key order."""
        set_b.require_docs(set_a.doc_ids)
        codes = sorted(set(set_a.codes) | set(set_b.codes))
        col = {c: i for i, c in enumerate(codes)}
        n, m = len(set_a), len(codes)
        A, B = _on_codes(set_a, col), _on_codes(set_b, col)
        row, col_k, diff, common_col, common = _difference(A, B, m)
        is_d, is_s = diff > 0.0, diff < 0.0
        d, row_d, col_d = diff[is_d], row[is_d], col_k[is_d]
        s, row_s, col_s = -diff[is_s], row[is_s], col_k[is_s]
        T = row_fsum(row_d, d, n)  # the total deficit of each row
        # one move d * s / T per (deficit, surplus) entry pair of a row with T > 1e-15,
        # summed into cell i * m + j of the class pair (i, j)
        reps = np.where(T[row_d] > 1e-15, np.bincount(row_s, minlength=n)[row_d], 0)
        pair_d = np.repeat(np.arange(len(d), dtype=np.int32), reps)
        pair_s = np.arange(len(pair_d)) + np.repeat(np.searchsorted(row_s, row_d) - np.cumsum(reps) + reps, reps)
        cell = col_d[pair_d].astype(np.int64) * m + col_s[pair_s]
        used = np.flatnonzero(np.bincount(cell, minlength=m * m))
        moved = np.bincount(cell, weights=d[pair_d] * s[pair_s] / T[row_d[pair_d]], minlength=m * m)[used]

        def by_code(cols: np.ndarray, data: np.ndarray) -> dict[str, float]:
            """Each held code's column sum; codes are sorted, so held is in key order."""
            held = np.flatnonzero(np.bincount(cols, minlength=m))
            return dict(zip([codes[k] for k in held.tolist()],
                            np.bincount(cols, weights=data, minlength=m)[held].tolist()))

        # cell k is the class pair (k // m, k % m), so used is in key order too
        flow = dict(zip([(codes[k // m], codes[k % m]) for k in used.tolist()], moved.tolist()))
        return FlowMatrix(self.level, n, by_code(A.indices, A.data), by_code(B.indices, B.data),
                          by_code(common_col, common), flow)


def flow_matrix(
    set_a: AssignmentSet,
    set_b: AssignmentSet,
    level: str = "category",
    scheme: Scheme | None = None,
) -> FlowMatrix:
    """Flow matrix between two category-level assignment sets over the same
    documents, at category level or collapsed to the scheme's areas."""
    acc = FlowAccumulator(level)
    if level == "area":
        if scheme is None:
            raise ValidationError(["area-level flows require a scheme"])
        set_a, set_b = collapse_to_areas(set_a, scheme), collapse_to_areas(set_b, scheme)
    return acc.add(set_a, set_b)


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
    """Per-class single-assignment counters of one assignment set, over its
    entries above SUPPORT_EPS. For each class that has one: pct_single, the
    percentage of its documents that carry it alone, and mean_weight, its
    mean weight."""

    def __init__(self, aset: AssignmentSet):
        W, m = aset.weights, len(aset.codes)
        pos = W.data > SUPPORT_EPS
        row = np.repeat(np.arange(len(aset), dtype=np.int32), np.diff(W.indptr))[pos]
        col = W.indices[pos]
        alone = np.bincount(row, minlength=len(aset))[row] == 1
        n_pos = np.bincount(col, minlength=m)
        held = np.flatnonzero(n_pos)
        n_pos, n_single = n_pos[held].tolist(), np.bincount(col[alone], minlength=m)[held].tolist()
        sum_w = np.bincount(col, weights=W.data[pos], minlength=m)[held].tolist()
        classes = [aset.codes[k] for k in held.tolist()]
        self.pct_single = {c: 100.0 * k / n for c, k, n in zip(classes, n_single, n_pos)}
        self.mean_weight = {c: w / n for c, w, n in zip(classes, sum_w, n_pos)}


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
        "pct_single_asjc_frac": st_a.pct_single, "mean_weight_asjc_frac": st_a.mean_weight,
        "pct_single_u1_f08": st_b.pct_single, "mean_weight_u1_f08": st_b.mean_weight,
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


FLOW_HEADER = ["from_class", "to_class", "weight"]
CLASS_STATS_HEADER = ["class", "size_a", "size_b", "common",
                      "incoming", "outgoing", "pct_incoming", "pct_outgoing"]


def _csv_rows(path: str, header: list[str], n_key: int) -> Iterator[tuple[int, list[str]]]:
    """The line number and fields of each row of a CSV with this header,
    whose first n_key fields name no other row."""
    reader = csv.reader(read_lines(path, newline=""))
    if next(reader, None) != header:
        raise ParseError(f"{path}: expected the header {','.join(header)}")
    seen = set()
    for line_no, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise ParseError(f"{path}: line {line_no}: expected {len(header)} fields")
        if (key := tuple(row[:n_key])) in seen:
            raise ParseError(f"{path}: line {line_no}: repeats the row of {','.join(key)}")
        seen.add(key)
        yield line_no, row


def _csv_number(path: str, line_no: int, text: str) -> float:
    """A CSV weight, size or percentage: not a finite number is malformed,
    a negative one invalid."""
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"{path}: line {line_no}: bad number {text!r}") from None
    if not math.isfinite(value):
        raise ParseError(f"{path}: line {line_no}: {text!r} is not a finite number")
    if value < 0.0:
        raise ValidationError([f"{path}: line {line_no}: negative value {text!r}"])
    return value


def write_flow_csv(matrix: FlowMatrix, path: str) -> None:
    write_csv(path, FLOW_HEADER, ([i, j, fmt(w)] for (i, j), w in sorted(matrix.flow.items())))


def read_flow_csv(path: str, level: str) -> FlowMatrix:
    """Rebuild a flow matrix (flows only; sizes must come from class stats)."""
    rows = _csv_rows(path, FLOW_HEADER, 2)
    flow = {(row[0], row[1]): _csv_number(path, line_no, row[2]) for line_no, row in rows}
    return FlowMatrix(level, 0, {}, {}, {}, dict(sorted(flow.items())))


def write_class_stats_csv(rows: list[ClassFlowStats], path: str) -> None:
    write_csv(path, CLASS_STATS_HEADER, [
        [r.class_code, fmt(r.size_a), fmt(r.size_b), fmt(r.common),
         fmt(r.incoming), fmt(r.outgoing), fmt(r.pct_incoming), fmt(r.pct_outgoing)]
        for r in sorted(rows, key=lambda r: r.class_code)
    ])


def read_class_stats_csv(path: str) -> list[ClassFlowStats]:
    return [ClassFlowStats(row[0], *(
        None if i >= 6 and row[i] == "NA" else _csv_number(path, line_no, row[i]) for i in range(1, 8)))
        for line_no, row in _csv_rows(path, CLASS_STATS_HEADER, 1)]
