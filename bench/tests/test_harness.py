"""Self-test of the benchmark harness at a tiny size (one tenth of each workload).

Run from the repository root:
    python -m pytest -q bench/tests
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402

TINY = "0.1"
SEED = 3


def bench(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace), "--scale", TINY],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced() -> dict:
    return {w: bench(w, 1) for w in run.WORKLOADS}


def test_workloads_match_spec(spec):
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_end_to_end_metrics_print_with_units(spec, workload):
    result = bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_per_layer_metrics_print_with_units(spec, traced):
    expected = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for result in traced.values():
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_count_metrics_repeat_exactly(traced):
    again = bench("c11", 1)
    first = traced["c11"]["metrics"]
    counts = {k for k, v in first.items() if v["unit"] in ("count", "bytes")}
    assert counts
    assert {k: first[k]["value"] for k in counts} == {k: again["metrics"][k]["value"] for k in counts}
    docs = run.scaled(run.WORKLOADS["c11"].docs, float(TINY))
    assert first["corpus.load_corpus.calls"]["value"] == 4
    assert first["flow.add.calls"]["value"] == 2 * docs
    assert first["weights.collapse_to_areas.calls"]["value"] == 16 * docs


def test_failed_stage_counts_in_fail_ratio():
    w = run.WORKLOADS["c11"]
    missing = dataclasses.replace(
        run.INGEST, argv=tuple(a.replace("documents.jsonl", "missing.jsonl") for a in run.INGEST.argv))
    broken = dataclasses.replace(w, name="c11-missing-input", chain=(missing,) + w.chain[1:])
    result = run.run_workload(broken, SEED, 0.0, False, float(TINY))
    assert not result["correct"]
    assert result["failed"] == run.MIN_REPS
    assert 0 < result["failed"] / result["attempted"] < 1
    record = json.loads((run.WORK / "results" / f"{broken.name}-s{SEED}-t0-x{TINY}.json").read_text())
    assert [[s["exit"] for s in c["stages"]] for c in record["chains"]] == [[2]] * run.MIN_REPS


def test_output_checks_reject_bad_artifacts(tmp_path):
    bad = tmp_path / "assignments.jsonl"
    bad.write_text('{"doc_id":"D1","system":"S","weights":{"C1":0.5,"C2":0.4}}\n'
                   '{"doc_id":"D2","system":"S","weights":{"M9":1}}\n')
    problems = checks.check_assignments(str(bad), {"C1", "C2"})
    assert len(problems) == 2
    stats = tmp_path / "class_stats.csv"
    stats.write_text("class,size_a,size_b,common,incoming,outgoing,pct_incoming,pct_outgoing\n"
                     "C1,2.000000,1.000000,1.000000,0.000000,1.000000,NA,NA\n"
                     "C2,1.000000,2.000000,1.000000,0.500000,0.000000,NA,NA\n")
    assert len(checks.check_class_stats(str(stats))) == 1
    # no manifest.json at all: the stage that should have added figure_3 fails
    assert list(checks.check_manifest(str(tmp_path), ["ingest", "network"])) == ["network"]
