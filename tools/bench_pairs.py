"""Alternating parent/change pairs of the benchmark, summarised in one file.

Usage, from the repository root:

    python3 tools/bench_pairs.py --out BENCH_N.json [--base COMMIT]
        [--workload NAME ...]

The parent side is the committed tree of ``--base`` (default ``HEAD``),
exported with ``git archive`` into a temporary directory; the change side
is the working tree.  For every workload of ``BENCHMARK.json``, or for
each one named by a repeated ``--workload`` (in ``BENCHMARK.json``'s
order; an unknown name exits 2), pair k
(k = 0 to 9) runs ``perfbench/run.py --seed <101 + k> --seconds <s>
--trace 0``, with s the ``run_seconds`` of ``BENCHMARK.json``, once on
each side, the parent first for even k and the change first for odd k.  Each side runs its own copy of
``perfbench/run.py`` against its own ``src/``.  The output records every
run's metrics, each side's median and quartiles per metric, how many
pairs the change won, the machine, the Python and numpy versions and the
``src/`` line count of both sides.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# ten pairs: the fewest in which a change can win nine tenths and lose one
PAIRS = 10
FIRST_SEED = 101


def parse_args(argv=None, workloads=()):
    """The options, with ``workload`` the names to run (default all of
    ``workloads``, the names of ``BENCHMARK.json``, in their order)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--workload", action="append", choices=workloads)
    args = parser.parse_args(argv)
    chosen = args.workload or workloads
    args.workload = [name for name in workloads if name in chosen]
    return args


def resolve_commit(base: str) -> str:
    """The full hash of a commit name such as ``HEAD``."""
    return subprocess.run(["git", "rev-parse", base], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export_commit(commit: str, into: Path) -> None:
    """The committed files of a commit, written under a directory."""
    archive = subprocess.run(["git", "archive", "--format=tar", commit],
                             cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # extraction filters exist from Python 3.10.12, 3.11.4 and 3.12 on
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:
            tar.extractall(into)


def src_lines(tree: Path) -> int:
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in sorted((tree / "src").rglob("*.py")))


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one benchmark run, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, check=True, capture_output=True,
                          text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"seed": seed, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: m["value"]
                        for name, m in result["metrics"].items()}}


def spread(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75]).tolist()
    return {"median": median, "q1": q1, "q3": q3}


def summarise(parent_runs: list[dict], change_runs: list[dict],
              lower_is_better: set[str]) -> dict:
    summary = {}
    for name in parent_runs[0]["metrics"]:
        before = [r["metrics"][name] for r in parent_runs]
        after = [r["metrics"][name] for r in change_runs]
        sign = -1.0 if name in lower_is_better else 1.0
        summary[name] = {
            "parent": spread(before),
            "change": spread(after),
            "pairs_change_better": sum(sign * (a - b) > 0.0
                                       for a, b in zip(after, before)),
            "pairs_change_worse": sum(sign * (a - b) < 0.0
                                      for a, b in zip(after, before)),
        }
    return summary


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    args = parse_args(argv, [w["name"] for w in declared["workloads"]])
    lower_is_better = {m["name"] for m in declared["end_to_end"]
                       if m["better"] == "lower"}
    seconds = declared["run_seconds"]
    base = resolve_commit(args.base)
    record = {
        "command": "perfbench/run.py --seconds %g --trace 0" % seconds,
        "base": base,
        "pairs": PAIRS,
        "order": "parent first on even pairs, change first on odd pairs",
        "machine": {"platform": platform.platform(),
                    "machine": platform.machine(),
                    "processor": platform.processor(),
                    "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent = Path(tmp)
        export_commit(base, parent)
        trees = {"parent": parent, "change": ROOT}
        record["src_lines"] = {side: src_lines(tree)
                               for side, tree in trees.items()}
        for workload in args.workload:
            runs = {"parent": [], "change": []}
            for k in range(PAIRS):
                seed = FIRST_SEED + k
                sides = ("parent", "change") if k % 2 == 0 else \
                    ("change", "parent")
                for side in sides:
                    runs[side].append(run_once(trees[side], workload, seed,
                                               seconds))
                    print(workload, seed, side,
                          json.dumps(runs[side][-1]["metrics"]),
                          file=sys.stderr, flush=True)
            record["workloads"][workload] = {
                "runs": runs,
                "summary": summarise(runs["parent"], runs["change"],
                                     lower_is_better),
            }
    args.out.write_text(json.dumps(record, indent=1) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
