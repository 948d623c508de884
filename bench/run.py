#!/usr/bin/env python3
"""Benchmark of the citeclass batch pipeline, run from outside.

Usage (from the repository root):
    python3 bench/run.py --workload c11 [--seed N] [--seconds S] [--trace 0|1] [--scale X]
    python3 bench/run.py --workload all

Every CLI stage runs as a child process, ``python -m citeclass <stage>``,
exactly as a user runs it; the benchmark times each child with ``os.wait4``
and checks what the chain wrote. With ``--trace 1`` the chain runs a second
time per repetition through ``bench/trace_shim.py``, which records spans
around the calls ``cli.py`` makes into each module, and the per-layer
metrics are printed instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The environment
record and every sample go to ``.bench_work/results/``. Metric names and
units are those of ``BENCHMARK.json``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SHIM = Path(__file__).resolve().parent / "trace_shim.py"
WORK = ROOT / ".bench_work"
SPEC = ROOT / "BENCHMARK.json"

SETUP_REPS = 3  # setup_s is the median of this many set-ups
MIN_REPS = 3  # timed chains per untraced run, at least
STARTUP_REPS = 3  # cli.startup_s is the median of this many `--help` runs
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Stage:
    name: str
    argv: tuple[str, ...]


INGEST = Stage("ingest", ("ingest", "--scheme", "{src}/scheme.csv",
                          "--journals", "{src}/journals.jsonl",
                          "--documents", "{src}/documents.jsonl"))
CLASSIFY_ASJC = Stage("classify_asjc", ("classify", "--system", "asjc-frac"))
C11_CHAIN = (
    INGEST,
    CLASSIFY_ASJC,
    Stage("classify_u1f08", ("classify", "--system", "u1f08")),
    Stage("compare", ("compare",)),
    Stage("indicators", ("indicators",)),
)
STAGES = ("ingest", "classify_asjc", "classify_u1f08", "compare", "indicators", "network")


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int  # default when --seed is not given
    docs: int
    journals: int
    syngen: tuple[str, ...]  # syngen flags besides sizes and seed
    prep: tuple[Stage, ...]  # untimed stages after syngen
    chain: tuple[Stage, ...]  # the timed stages


WORKLOADS = {w.name: w for w in (
    Workload(
        "c11", 7, 20_000, 400, ("--refs-min", "8", "--refs-max", "12"), (), C11_CHAIN),
    Workload(
        "wide285", 7, 6_000, 200,
        ("--n-areas", "15", "--cats-per-area", "19", "--multi-share", "0.1",
         "--journal-codes-max", "4"),
        (),
        C11_CHAIN + (Stage("network", ("network", "--level", "category", "--iterations", "100")),)),
    Workload(
        "reanalysis", 11, 20_000, 4_000, ("--refs-min", "0", "--refs-max", "6"),
        (INGEST, CLASSIFY_ASJC),
        (Stage("classify_u1f08", ("classify", "--system", "u1f08", "--theta", "0.9",
                                  "--citer-window", "2")),
         Stage("compare", ("compare",)),
         Stage("indicators", ("indicators", "--citation-window", "3", "--p10", "0.05")),
         Stage("network", ("network", "--level", "area")))),
)}

# Per-layer metrics. A span name <n> gives <n>_s, its total time; the names
# in LAYER_CALLS also give <n>.calls. LAYER_COUNTS are the shim's counts.
LAYER_SPANS = (
    "corpus.load_corpus", "corpus.validate", "corpus.write_corpus",
    "corpus.build_citation_index", "asjc.classify_asjc", "citer.classify_u1f08_all",
    "assignments.read_assignments", "assignments.iter_assignments",
    "assignments.write_assignments", "flow.add", "flow.write",
    "weights.collapse_to_areas", "indicators.baselines", "indicators.ni",
    "indicators.thresholds", "indicators.flags", "indicators.overlap", "indicators.std",
    "indicators.write", "netgraph.communities", "netgraph.layout",
)
LAYER_CALLS = ("corpus.load_corpus", "assignments.read_assignments", "flow.add",
               "weights.collapse_to_areas")
LAYER_COUNTS = (
    "corpus.bytes_parsed", "corpus.edges", "citer.low_ref_docs",
    "assignments.bytes_written", "flow.pairs_category", "indicators.cells",
    "netgraph.layout_iterations", "netgraph.nodes", "netgraph.edges",
)


def metric_units() -> dict[str, str]:
    """Unit of every end-to-end and per-layer metric, as BENCHMARK.json lists them."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# --- running stages -------------------------------------------------------

@dataclass
class StageRun:
    stage: str
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    trace_file: str | None = None


@dataclass
class ChainRun:
    traced: bool
    stages: list[StageRun]
    wall_s: float
    digest: str | None = None
    problems: dict[str, list[str]] = field(default_factory=dict)

    @property
    def completed(self) -> bool:
        return all(s.exit_code == 0 for s in self.stages)

    def failed_stages(self) -> set[str]:
        return {s.stage for s in self.stages if s.exit_code != 0} | set(self.problems)


class Runner:
    """Starts stage children one at a time and keeps the operation tally."""

    def __init__(self, run_dir: Path, env: dict[str, str]):
        self.run_dir = run_dir
        self.env = env
        self.attempted = 0
        self.failed = 0
        self.counter = 0

    def spawn(self, argv: list[str], log: Path) -> tuple[int, float, float, float]:
        """Run one child to completion: (exit code, wall s, cpu s, max RSS MB)."""
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=fh,
                                    stderr=subprocess.STDOUT, env=self.env, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                # interrupted: leave no child running
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        # ru_maxrss is in KiB on Linux
        return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0

    def stage(self, stage: Stage, out: Path, src: Path, traced: bool, run_id: str) -> StageRun:
        self.counter += 1
        argv = [a.replace("{src}", str(src)) for a in stage.argv] + ["--out", str(out)]
        tag = f"{self.counter:04d}-{stage.name}"
        trace_file = None
        if traced:
            trace_file = str(self.run_dir / "trace" / f"{tag}.json")
            cmd = [sys.executable, str(SHIM), trace_file, run_id, "--", *argv]
        else:
            cmd = [sys.executable, "-m", "citeclass", *argv]
        code, wall, cpu, rss = self.spawn(cmd, self.run_dir / "logs" / f"{tag}.log")
        self.attempted += 1
        return StageRun(stage.name, code, wall, cpu, rss, trace_file)

    def chain(self, stages: tuple[Stage, ...], out: Path, src: Path, traced: bool,
              run_id: str) -> ChainRun:
        """Run stages in order, stopping at the first nonzero exit."""
        runs: list[StageRun] = []
        start = time.perf_counter()
        for stage in stages:
            runs.append(self.stage(stage, out, src, traced, run_id))
            if runs[-1].exit_code != 0:
                break
        return ChainRun(traced, runs, time.perf_counter() - start)


@dataclass
class Setup:
    src: Path
    out: Path
    wall_s: float
    ok: bool
    syngen_trace: str | None


def run_setup(runner: Runner, w: Workload, seed: int, scale: float, rep: int,
              traced: bool) -> Setup:
    """syngen into <rep>/src, then the workload's untimed stages into <rep>/out.

    The output check of the untimed stages runs after the set-up is timed.
    """
    base = runner.run_dir / f"setup{rep}"
    src, out = base / "src", base / "out"
    out.mkdir(parents=True)
    syngen = Stage("syngen", ("syngen", "--seed", str(seed),
                              "--n-docs", str(scaled(w.docs, scale)),
                              "--n-journals", str(scaled(w.journals, scale)), *w.syngen))
    start = time.perf_counter()
    # syngen writes to --out, which is the source directory here
    gen = runner.stage(syngen, src, src, traced, f"setup{rep}")
    ok = gen.exit_code == 0
    if ok:
        chain = runner.chain(w.prep, out, src, traced, f"setup{rep}")
        ok = chain.completed
    wall = time.perf_counter() - start
    if not ok:
        runner.failed += 1
    elif w.prep:
        problems = checks.check_chain(str(out), [s.name for s in w.prep])
        for stage, found in sorted(problems.items()):
            for p in found:
                print(f"check failed [setup {stage}]: {p}", file=sys.stderr)
        runner.failed += len(problems)
        ok = not problems
    return Setup(src, out, wall, ok, gen.trace_file)


def scaled(n: int, scale: float) -> int:
    return max(1, round(n * scale))


# --- checks ---------------------------------------------------------------

DIGESTS = WORK / "digests.json"  # --out tree sha256 per workload, seed, scale and source


def stored_digest(key: str, digest: str) -> str | None:
    """Record the digest for key; return the stored one if it differs."""
    try:
        data = json.loads(DIGESTS.read_text())
    except (OSError, ValueError):
        data = {}
    if key in data:
        return None if data[key] == digest else data[key]
    data[key] = digest
    tmp = DIGESTS.with_suffix(".tmp")
    tmp.write_text(json.dumps(data, indent=1, sort_keys=True))
    os.replace(tmp, DIGESTS)
    return None


def check_chain_run(run: ChainRun, out: Path, key: str) -> None:
    """Fill run.problems and run.digest for a chain whose stages all exited 0."""
    if not run.completed:
        return
    run.problems = checks.check_chain(str(out), [s.stage for s in run.stages])
    run.digest = checks.tree_digest(str(out))
    previous = stored_digest(key, run.digest)
    if previous is not None:
        run.problems.setdefault(run.stages[-1].stage, []).append(
            f"--out tree sha256 {run.digest} differs from {previous} "
            "of an earlier run of this workload, seed and source")
    if run.traced:
        for s in run.stages:
            if load_trace(s.trace_file) is None:
                run.problems.setdefault(s.stage, []).append("the shim wrote no trace")


# --- metrics --------------------------------------------------------------

def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


def load_trace(path: str | None) -> dict | None:
    if path is None:
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


class LayerSample(NamedTuple):
    """What one traced chain recorded, summed over its stage processes."""
    times: dict[str, float]  # seconds per span name
    calls: dict[str, int]  # calls per span name
    counts: dict[str, int]  # the shim's work counts
    self_s: dict[str, float]  # per stage: wall minus its direct calls into modules


def layer_values(run: ChainRun) -> LayerSample:
    times: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for stage in run.stages:
        trace = load_trace(stage.trace_file)
        if trace is None:
            continue
        records = [(sid, name, parent, 1, end - start)
                   for sid, name, parent, start, end in trace["spans"]]
        records += [tuple(r) for r in trace["rollups"]]
        cli_ids = {sid for sid, name, parent, _, _ in records if name == "cli" and parent is None}
        covered = 0.0
        for sid, name, parent, n, total in records:
            times[name] = times.get(name, 0.0) + total
            calls[name] = calls.get(name, 0) + n
            if parent in cli_ids:
                covered += total
        self_s[stage.stage] = stage.wall_s - covered
        for name, n in trace["counts"].items():
            counts[name] = counts.get(name, 0) + n
    return LayerSample(times, calls, counts, self_s)


def layer_metrics(untraced: list[ChainRun], traced: list[ChainRun], setups: list[Setup],
                  startup: list[float]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metric values; also the count names that did not repeat."""
    values: dict[str, float] = {}
    per_rep = [layer_values(r) for r in traced]

    def med(xs: list[float]) -> float:
        return statistics.median(xs) if xs else 0.0

    values["cli.startup_s"] = med(startup)
    for stage in STAGES:
        runs = [s for r in untraced for s in r.stages if s.stage == stage]
        values[f"cli.{stage}.wall_s"] = med([s.wall_s for s in runs])
        values[f"cli.{stage}.cpu_s"] = med([s.cpu_s for s in runs])
        values[f"cli.{stage}.rss_mb"] = med([s.rss_mb for s in runs])
        values[f"cli.{stage}.self_s"] = med([p.self_s[stage] for p in per_rep if stage in p.self_s])
    for name in LAYER_SPANS:
        values[f"{name}_s"] = med([p.times.get(name, 0.0) for p in per_rep])
    unsteady = []
    for name in LAYER_CALLS:
        seen = {p.calls.get(name, 0) for p in per_rep}
        values[f"{name}.calls"] = min(seen) if seen else 0
        if len(seen) > 1:
            unsteady.append(f"{name}.calls")
    for name in LAYER_COUNTS:
        seen = {p.counts.get(name, 0) for p in per_rep}
        values[name] = min(seen) if seen else 0
        if len(seen) > 1:
            unsteady.append(name)
    gen = []
    for s in setups:
        trace = load_trace(s.syngen_trace)
        if trace is not None:
            gen += [end - start for _, name, _, start, end in trace["spans"]
                    if name == "syngen.generate"]
    values["syngen.generate_s"] = med(gen)
    values["trace.overhead_s"] = (med([r.wall_s for r in traced])
                                  - med([r.wall_s for r in untraced]))
    return values, unsteady


# --- environment ----------------------------------------------------------

def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    for var in THREAD_VARS:
        env[var] = str(nproc())
    return env


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "citeclass").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def package_version(name: str) -> str | None:
    try:
        return importlib.metadata.version(name)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment(env: dict[str, str]) -> dict:
    return {
        "nproc": nproc(),
        "ram_bytes": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"),
        "python": platform.python_version(),
        "numpy": package_version("numpy"),
        "scipy": package_version("scipy"),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "threads": {v: env[v] for v in THREAD_VARS},
    }


# --- one workload ---------------------------------------------------------

def run_workload(w: Workload, seed: int, seconds: float, trace: bool, scale: float) -> dict:
    """Set up, run timed chains for `seconds`, check outputs; return the result."""
    label = f"{w.name}-s{seed}-t{int(trace)}" + ("" if scale == 1 else f"-x{scale:g}")
    run_dir = WORK / label
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "logs").mkdir(parents=True)
    (run_dir / "trace").mkdir()
    env = child_env()
    runner = Runner(run_dir, env)
    key = f"{w.name}|scale={scale}|seed={seed}|src={source_digest()}"

    setups = [run_setup(runner, w, seed, scale, rep, trace) for rep in range(SETUP_REPS)]
    good = [s for s in setups if s.ok]
    if good:
        reference = checks.tree_digest(str(good[0].src.parent))
        for s in good[1:]:
            if checks.tree_digest(str(s.src.parent)) != reference:
                print(f"check failed [setup]: {s.src.parent} differs from the first set-up",
                      file=sys.stderr)
                runner.failed += 1

    startup: list[float] = []
    if trace:
        for i in range(STARTUP_REPS):
            code, wall, _, _ = runner.spawn([sys.executable, "-m", "citeclass", "--help"],
                                            run_dir / "logs" / f"startup{i}.log")
            runner.attempted += 1
            if code == 0:
                startup.append(wall)
            else:
                runner.failed += 1

    untraced: list[ChainRun] = []
    traced: list[ChainRun] = []
    rep = 0
    start = time.perf_counter()
    while good:
        modes = (False, True) if trace else (False,)
        for traced_mode in modes:
            out = run_dir / f"rep{rep}"
            if w.prep:
                shutil.copytree(good[0].out, out)
            else:
                out.mkdir()
            run = runner.chain(w.chain, out, good[0].src, traced_mode, f"rep{rep}")
            check_chain_run(run, out, key)
            runner.failed += len(run.failed_stages())
            for stage, problems in sorted(run.problems.items()):
                for p in problems:
                    print(f"check failed [{stage}]: {p}", file=sys.stderr)
            (traced if traced_mode else untraced).append(run)
            shutil.rmtree(out, ignore_errors=True)
            rep += 1
        # a traced run needs two traced chains for the count-repeat check
        if len(untraced) >= (2 if trace else MIN_REPS) and time.perf_counter() - start >= seconds:
            break
    complete = [r for r in untraced if r.completed]
    complete_traced = [r for r in traced if r.completed]

    metrics: dict[str, float] = {}
    unsteady: list[str] = []
    stats: dict[str, dict] = {}
    if trace:
        if complete and complete_traced:
            metrics, unsteady = layer_metrics(complete, complete_traced, good, startup)
            runner.failed += len(unsteady)
    else:
        if good:
            stats["setup_s"] = summary([s.wall_s for s in good])
        if complete:
            stats["pipeline_s"] = summary([r.wall_s for r in complete])
            stats["peak_rss_mb"] = summary([max(s.rss_mb for s in r.stages) for r in complete])
        metrics = {k: v["median"] for k, v in stats.items()}
    units = metric_units()

    result = {
        "correct": runner.failed == 0 and bool(metrics),
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
        "scale": scale, "docs": scaled(w.docs, scale), "journals": scaled(w.journals, scale),
        "environment": environment(env),
        "setup_s": [s.wall_s for s in setups],
        "chains": [
            {"traced": r.traced, "wall_s": r.wall_s, "digest": r.digest,
             "problems": r.problems,
             "stages": [{"stage": s.stage, "exit": s.exit_code, "wall_s": s.wall_s,
                         "cpu_s": s.cpu_s, "rss_mb": s.rss_mb} for s in r.stages]}
            for r in untraced + traced
        ],
        "summary": stats,
        "unsteady_counts": unsteady,
        "result": result,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record_path = results / f"{label}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    for s in setups:
        shutil.rmtree(s.src.parent, ignore_errors=True)

    print_table(w, seed, result, stats, record_path)
    return result


def print_table(w: Workload, seed: int, result: dict, stats: dict, record_path: Path) -> None:
    print(f"workload {w.name} (seed {seed})")
    for name, m in result["metrics"].items():
        line = f"  {name:34s} {m['value']:14.6f} {m['unit']}"
        if name in stats:
            s = stats[name]
            line += f"  (median of {s['n']}; quartiles {s['q1']:.6f} .. {s['q3']:.6f})"
        print(line)
    ratio = result["failed"] / result["attempted"]
    print(f"  {'fail_ratio':34s} {ratio:14.6f} ratio  "
          f"({result['failed']} failed of {result['attempted']} stage runs)")
    print(f"  record: {record_path.relative_to(ROOT)}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="Benchmark the citeclass pipeline end to end.")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, help="corpus seed (default: the workload's own)")
    p.add_argument("--seconds", type=float, default=25.0,
                   help="keep repeating the timed chain until this many seconds have passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run, print per-layer metrics")
    p.add_argument("--scale", type=float, default=1.0,
                   help="multiply documents and journals (5 gives the 100k c11 shape)")
    args = p.parse_args(argv)
    # on SIGTERM, unwind so that a running stage child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "citeclass" / "cli.py").is_file():
        print(f"error: no citeclass sources under {SRC}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        w = WORKLOADS[name]
        seed = w.seed if args.seed is None else args.seed
        results[name] = run_workload(w, seed, args.seconds, bool(args.trace), args.scale)
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
