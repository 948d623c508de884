"""Weight flows between two classifications of the same documents.

For one document with normalized vectors wA (origin system) and wB (target
system): the common part is the pointwise minimum; the rest moves. Each
origin class with a deficit d_i = max(wA_i - wB_i, 0) sends weight to each
class with a surplus s_j = max(wB_j - wA_j, 0) proportionally:
move[i -> j] = d_i * s_j / T where T is the total deficit. Summed over
documents this yields a class-by-class flow matrix, at category level or
with vectors collapsed to areas first, and the per-class comparison tables
of that level. Both systems are AssignmentSets over the same rows, and every
sum is a np.bincount that adds its terms in document order. A FlowMatrix
holds the result as arrays over its sorted classes and its flows in
(source, target) order, and every writer reads those columns.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .assignments import CSR, AssignmentSet, collapse_to_areas
from .corpus import ParseError, Scheme, ValidationError, fmt, read_lines, write_csv
from .weights import SUPPORT_EPS, row_fsum

LEVELS = ("category", "area")


@dataclass(slots=True)
class FlowMatrix:
    """The flows of one level. Per class of classes, the sorted codes that either system
    holds weight in: its size in each system, their common weight, its incoming and
    outgoing flow, and those two in percent of size_a (NaN where size_a is 0). Per flow,
    in (source, target) order: source and target as int32 indices into classes, flow."""
    level: str
    classes: list[str]
    size_a: np.ndarray
    size_b: np.ndarray
    common: np.ndarray
    incoming: np.ndarray
    outgoing: np.ndarray
    pct_incoming: np.ndarray
    pct_outgoing: np.ndarray
    source: np.ndarray
    target: np.ndarray
    flow: np.ndarray


def _on_codes(aset: AssignmentSet, col: dict[str, int]) -> CSR:
    """The set's weights with its codes in the columns col gives them; -1 for a code it holds no weight in."""
    cols = np.array([col.get(c, -1) for c in aset.codes], dtype=np.int32)
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
        vectors already at this level."""
        set_b.require_docs(set_a.doc_ids)
        # the codes either set holds weight in
        codes = sorted({c for aset in (set_a, set_b) for c, k in zip(
            aset.codes, np.bincount(aset.weights.indices, minlength=len(aset.codes)).tolist()) if k})
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
        # cell k is the class pair (k // m, k % m), so used is in (source, target) order
        source, target = (x.astype(np.int32) for x in np.divmod(used, m))
        size_a, size_b, common = (np.bincount(cols, weights=data, minlength=m) for cols, data in (
            (A.indices, A.data), (B.indices, B.data), (common_col, common)))
        incoming, outgoing = (np.bincount(end, weights=moved, minlength=m) for end in (target, source))
        pct_incoming, pct_outgoing = (np.divide(100.0 * x, size_a, out=np.full(m, np.nan), where=size_a > 0.0)
                                      for x in (incoming, outgoing))
        return FlowMatrix(self.level, codes, size_a, size_b, common, incoming, outgoing,
                          pct_incoming, pct_outgoing, source, target, moved)


def flow_matrix(set_a: AssignmentSet, set_b: AssignmentSet, level: str = "category",
                scheme: Scheme | None = None) -> FlowMatrix:
    """Flow matrix between two category-level assignment sets over the same
    documents, at category level or collapsed to the scheme's areas."""
    acc = FlowAccumulator(level)
    if level == "area":
        if scheme is None:
            raise ValidationError(["area-level flows require a scheme"])
        set_a, set_b = collapse_to_areas(set_a, scheme), collapse_to_areas(set_b, scheme)
    return acc.add(set_a, set_b)


def top_links(matrix: FlowMatrix, min_weight: float) -> np.ndarray:
    """The indices of the flows of at least min_weight, heaviest first, ties by class
    pair: a stable sort of the flows, which are in class pair order."""
    keep = np.flatnonzero(matrix.flow >= min_weight)
    return keep[np.argsort(-matrix.flow[keep], kind="stable")]


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


def size_histogram_rows(matrix: FlowMatrix, bin_width: float) -> list[list]:
    """Class sizes of each system binned by bin_width, from zero up to the
    largest size's bin."""
    n = len(matrix.classes)
    bins = [(x // bin_width).astype(np.int64) for x in (matrix.size_a, matrix.size_b)]
    n_bins = max(int(b.max()) for b in bins) + 1
    counts_a, counts_b = (np.bincount(b, minlength=n_bins).tolist() for b in bins)
    return [
        [fmt(k * bin_width), fmt((k + 1) * bin_width),
         counts_a[k], fmt(100.0 * counts_a[k] / n), counts_b[k], fmt(100.0 * counts_b[k] / n)]
        for k in range(n_bins)
    ]


def summary_rows(metrics: list[tuple[str, list[float]]]) -> list[list]:
    """One row per metric: n, mean, population std and CV% (NA when the
    mean is zero) over its values, or NA when it has none."""
    rows = []
    for name, values in metrics:
        if not values:
            rows.append([name, 0, "NA", "NA", "NA"])
            continue
        n = len(values)
        mean = math.fsum(values) / n
        std = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / n)
        rows.append([name, n, fmt(mean), fmt(std), fmt(100.0 * std / mean if mean != 0.0 else None)])
    return rows


def level_tables(
    matrix: FlowMatrix, st_a: SupportStats, st_b: SupportStats, bin_width: float
) -> dict[str, tuple[list[str], list[list]]]:
    """The comparison datasets of one level that derive from its flow matrix's
    class columns and support counters, keyed by dataset: (CSV header, rows)."""
    single = {
        "pct_single_asjc_frac": st_a.pct_single, "mean_weight_asjc_frac": st_a.mean_weight,
        "pct_single_u1_f08": st_b.pct_single, "mean_weight_u1_f08": st_b.mean_weight,
    }
    summary_header = ["metric", "n", "mean", "std", "cv_pct"]
    classes = matrix.classes
    return {
        "common_unique": (["class", "common_weight", "only_asjc_frac", "only_u1_f08"], [
            [c, fmt(com), fmt(sa - com), fmt(sb - com)]
            for c, sa, sb, com in zip(classes, matrix.size_a.tolist(), matrix.size_b.tolist(), matrix.common.tolist())
        ]),
        "single_assignment": (["class", *single], [
            [c, *(fmt(col.get(c)) for col in single.values())] for c in classes
        ]),
        "size_histogram": ([
            "bin_low", "bin_high", "count_asjc_frac", "pct_asjc_frac", "count_u1_f08", "pct_u1_f08",
        ], size_histogram_rows(matrix, bin_width)),
        "flow_summary": (summary_header, summary_rows([
            ("size_asjc_frac", matrix.size_a.tolist()), ("size_u1_f08", matrix.size_b.tolist()),
            ("incoming", matrix.incoming.tolist()), ("outgoing", matrix.outgoing.tolist()),
            # a percentage is undefined (NaN) where size_a is 0
            *((name, pct[matrix.size_a > 0.0].tolist()) for name, pct in (
                ("pct_incoming", matrix.pct_incoming), ("pct_outgoing", matrix.pct_outgoing))),
        ])),
        "weight_summary": (summary_header, summary_rows(
            [(name, list(col.values())) for name, col in single.items()]
        )),
    }


FLOW_HEADER = ["from_class", "to_class", "weight"]
CLASS_STATS_HEADER = ["class", "size_a", "size_b", "common",
                      "incoming", "outgoing", "pct_incoming", "pct_outgoing"]


def _csv_rows(path: str, header: list[str], n_key: int, codes: dict[str, int]) -> Iterator[tuple]:
    """The line number, fields and key of each row of a CSV with this header: its first n_key
    fields as indices into codes, which numbers each new code; no two rows have the same key."""
    reader = csv.reader(read_lines(path, newline=""))
    if next(reader, None) != header:
        raise ParseError(f"{path}: expected the header {','.join(header)}")
    seen = set()
    for line_no, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise ParseError(f"{path}: line {line_no}: expected {len(header)} fields")
        if (k := tuple(codes.setdefault(c, len(codes)) for c in row[:n_key])) in seen:
            raise ParseError(f"{path}: line {line_no}: repeats the row of {','.join(row[:n_key])}")
        seen.add(k)
        yield line_no, row, k


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


def flow_rows(matrix: FlowMatrix, keep: np.ndarray | slice = slice(None)) -> Iterator[list]:
    """The FLOW_HEADER rows of the flows that keep selects, in its order."""
    return ([matrix.classes[i], matrix.classes[j], fmt(w)] for i, j, w in zip(
        matrix.source[keep].tolist(), matrix.target[keep].tolist(), matrix.flow[keep].tolist()))


def write_flow_csv(matrix: FlowMatrix, path: str) -> None:
    write_csv(path, FLOW_HEADER, flow_rows(matrix))


def read_flow_csv(path: str) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """A flow CSV's flows in file order: (codes by first use, int32 source and target indices into them, weights)."""
    codes, ends, weight = {}, [], []
    for line_no, row, pair in _csv_rows(path, FLOW_HEADER, 2, codes):
        ends.extend(pair)
        weight.append(_csv_number(path, line_no, row[2]))
    return list(codes), *np.array(ends, dtype=np.int32).reshape(-1, 2).T, np.array(weight, dtype=float)


def write_class_stats_csv(matrix: FlowMatrix, path: str) -> None:
    """One row per class; the header names the matrix's columns, and NaN is NA."""
    columns = [getattr(matrix, name).tolist() for name in CLASS_STATS_HEADER[1:]]
    write_csv(path, CLASS_STATS_HEADER, ([c, *map(fmt, values)] for c, *values in zip(matrix.classes, *columns)))


def read_class_stats_csv(path: str) -> tuple[list[str], np.ndarray]:
    """A class stats CSV's classes in file order, and a float64 row per class of its seven
    numbers in header order; NA, which only the two percentages may be, is NaN."""
    classes, values = {}, []
    for line_no, row, _ in _csv_rows(path, CLASS_STATS_HEADER, 1, classes):
        values.extend(math.nan if i >= 6 and row[i] == "NA" else _csv_number(path, line_no, row[i])
                      for i in range(1, 8))
    return list(classes), np.array(values, dtype=float).reshape(-1, 7)
