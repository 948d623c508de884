"""Run four fixed CLI chains and print the sha256 of every file they write.

    python tools/pin_chains.py OUT_DIR

Each chain generates a corpus with ``syngen`` into OUT_DIR/<chain>/syn and
runs ingest, both classify systems, compare, indicators, the area network,
a short category network in GraphML, and report into OUT_DIR/<chain>/out,
each stage as ``python -m citeclass`` on the sources next to this script.
Chains named in JSON_NETWORK also write the short category network as JSON,
into OUT_DIR/<chain>/net from a copy of the two flow files it reads, so the
area network's JSON in out stays pinned beside it.
OUT_DIR must be new or empty. The output is one ``sha256  path`` line per
file, sorted by path relative to OUT_DIR, so the listings of two checkouts
can be compared with ``diff``. A refactor that must not change any output
keeps every line.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

C20K = ["--n-docs", "20000", "--n-journals", "400", "--seed", "3"]
# name -> (syngen flags, {stage: extra flags})
CHAINS = {
    "chain1": (C20K, {}),
    "chain2": (C20K, {"classify": ["--citer-window", "2"], "indicators": ["--citation-window", "3"]}),
    "chain3": (["--n-docs", "6000", "--n-journals", "300", "--n-areas", "19", "--cats-per-area", "14",
                "--seed", "5"], {}),
    "chain4": (["--n-docs", "8000", "--n-journals", "1500", "--refs-min", "0", "--refs-max", "6",
                "--seed", "11"],
               {"classify": ["--theta", "0.9", "--citer-window", "2"], "compare": ["--min-references", "2"],
                "indicators": ["--citation-window", "3", "--p10", "0.05"]}),
}
# chain3 has 266 categories: figure 3 in JSON at the width of a real scheme
JSON_NETWORK = {"chain3"}
CATEGORY_NETWORK = ["network", "--level", "category", "--iterations", "60"]


def run_chain(root: str, syngen: list[str], extra: dict[str, list[str]], json_network: bool) -> None:
    syn, out = os.path.join(root, "syn"), os.path.join(root, "out")
    stages = [
        ["syngen", *syngen, "--out", syn],
        ["ingest", "--scheme", os.path.join(syn, "scheme.csv"), "--journals", os.path.join(syn, "journals.jsonl"),
         "--documents", os.path.join(syn, "documents.jsonl")],
        ["classify", "--system", "asjc-frac"],
        ["classify", "--system", "u1f08"],
        ["compare"],
        ["indicators"],
        ["network", "--level", "area"],
        [*CATEGORY_NETWORK, "--format", "graphml"],
        ["report"],
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    for argv in stages:
        if argv[0] != "syngen":
            argv = [*argv, *extra.get(argv[0], []), "--out", out]
        subprocess.run([sys.executable, "-m", "citeclass", *argv], env=env, check=True,
                       stdout=subprocess.DEVNULL)
    if json_network:
        net = os.path.join(root, "net")
        os.makedirs(net)
        for name in ("flows_category.csv", "class_stats_category.csv"):
            shutil.copy(os.path.join(out, name), net)
        subprocess.run([sys.executable, "-m", "citeclass", *CATEGORY_NETWORK, *extra.get("network", []),
                        "--out", net], env=env, check=True, stdout=subprocess.DEVNULL)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/pin_chains.py OUT_DIR", file=sys.stderr)
        return 2
    out_dir = argv[0]
    if os.path.isdir(out_dir) and os.listdir(out_dir):
        print(f"error: {out_dir} is not empty", file=sys.stderr)
        return 2
    for name, (syngen, extra) in CHAINS.items():
        run_chain(os.path.join(out_dir, name), syngen, extra, name in JSON_NETWORK)
    lines = []
    for dirpath, _, files in os.walk(out_dir):
        for f in files:
            path = os.path.join(dirpath, f)
            with open(path, "rb") as fh:
                lines.append((os.path.relpath(path, out_dir), hashlib.sha256(fh.read()).hexdigest()))
    for rel, digest in sorted(lines):
        print(f"{digest}  {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
