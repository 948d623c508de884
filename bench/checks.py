"""Checks on what a stage chain wrote under ``--out``.

Each check returns problems keyed by the stage that wrote the artifact, so
the benchmark can count a failed operation per stage. A check reports a
problem instead of raising when an artifact is missing or malformed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

MANIFEST_BY_STAGE = {
    "compare": ("figure_1", "figure_2", "figure_4", "figure_5", "figure_6",
                "table_1", "table_2", "table_3", "table_4"),
    "indicators": ("figure_7", "figure_8", "figure_9", "figure_10"),
    "network": ("figure_3",),
}
ASSIGNMENTS_BY_STAGE = {
    "classify_asjc": "assignments_asjc-frac.jsonl",
    "classify_u1f08": "assignments_u1-f-0.8.jsonl",
}
CLASS_STATS = ("class_stats_category.csv", "class_stats_area.csv")

SUM_TOL = 1e-9
# size_a, size_b, incoming and outgoing are each rounded to 6 decimals
BALANCE_TOL = 4 * 0.5e-6 + 1e-12


def regular_categories(scheme_path: str) -> set[str]:
    """Category codes that are neither miscellaneous nor multidisciplinary."""
    with open(scheme_path, "r", encoding="utf-8", newline="") as fh:
        return {
            row["code"] for row in csv.DictReader(fh)
            if row["code"] and row["is_misc"] == "false" and row["is_multidisciplinary"] == "false"
        }


def check_manifest(out_dir: str, stages: list[str]) -> dict[str, list[str]]:
    try:
        with open(os.path.join(out_dir, "manifest.json"), "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as e:
        return {s: [f"manifest.json unreadable: {e}"] for s in stages if s in MANIFEST_BY_STAGE}
    problems: dict[str, list[str]] = {}
    for stage in stages:
        for key in MANIFEST_BY_STAGE.get(stage, ()):
            name = manifest.get(key)
            if name is None:
                problems.setdefault(stage, []).append(f"manifest lacks {key}")
            elif not os.path.isfile(os.path.join(out_dir, name)):
                problems.setdefault(stage, []).append(f"manifest {key} names missing {name}")
    return problems


def check_assignments(path: str, regular: set[str]) -> list[str]:
    """Every line's weights sum to 1 within SUM_TOL over regular categories."""
    problems: list[str] = []
    line_no = 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                weights = json.loads(line)["weights"]
                total = math.fsum(weights.values())
                if not abs(total - 1.0) <= SUM_TOL:
                    problems.append(f"{path}:{line_no}: weights sum to {total!r}")
                odd = sorted(set(weights) - regular)
                if odd:
                    problems.append(f"{path}:{line_no}: non-regular categories {odd}")
                if len(problems) >= 5:
                    break
        if line_no == 0:
            problems.append(f"{path}: no assignments")
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as e:
        problems.append(f"{path}: unreadable: {e!r}")
    return problems


def check_class_stats(path: str) -> list[str]:
    """Per class, size_a - size_b equals outgoing - incoming."""
    problems: list[str] = []
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if not rows:
            problems.append(f"{path}: no classes")
        for row in rows:
            gap = (float(row["size_a"]) - float(row["size_b"])) \
                - (float(row["outgoing"]) - float(row["incoming"]))
            if not abs(gap) <= BALANCE_TOL:
                problems.append(f"{path}: class {row['class']} is off balance by {gap!r}")
    except (OSError, ValueError, KeyError, TypeError) as e:
        problems.append(f"{path}: unreadable: {e!r}")
    return problems


def check_chain(out_dir: str, stages: list[str]) -> dict[str, list[str]]:
    """All output checks for the stages a chain ran, keyed by stage."""
    problems = check_manifest(out_dir, stages)
    try:
        regular = regular_categories(os.path.join(out_dir, "corpus", "scheme.csv"))
    except (OSError, KeyError) as e:
        regular = set()
        problems.setdefault(stages[0], []).append(f"scheme unreadable: {e!r}")
    for stage in stages:
        found: list[str] = []
        if stage in ASSIGNMENTS_BY_STAGE:
            found = check_assignments(os.path.join(out_dir, ASSIGNMENTS_BY_STAGE[stage]), regular)
        elif stage == "compare":
            for name in CLASS_STATS:
                found += check_class_stats(os.path.join(out_dir, name))
        if found:
            problems.setdefault(stage, []).extend(found)
    return problems


def tree_digest(root: str) -> str:
    """sha256 over every file's relative path and content, in sorted order."""
    h = hashlib.sha256()
    paths = sorted(
        os.path.relpath(os.path.join(d, f), root)
        for d, _, files in os.walk(root) for f in files
    )
    for rel in paths:
        h.update(rel.encode("utf-8") + b"\0")
        with open(os.path.join(root, rel), "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()
