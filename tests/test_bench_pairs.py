"""``tools/bench_pairs.py``: its options, and the record it writes, with the
benchmark runs replaced by a stub."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

DECLARED = [w["name"] for w in json.loads(
    (ROOT / "BENCHMARK.json").read_text("utf-8"))["workloads"]]
RECORD_KEYS = {"command", "base", "pairs", "order", "machine", "python",
               "numpy", "workloads", "src_lines"}


def test_every_declared_workload_runs_by_default():
    args = bench_pairs.parse_args(["--out", "b.json"], DECLARED)
    assert args.workload == DECLARED
    assert (args.out, args.base) == (Path("b.json"), "HEAD")


def test_a_repeated_workload_keeps_the_declared_order():
    argv = ["--out", "b.json", "--workload", DECLARED[-1],
            "--workload", DECLARED[0], "--workload", DECLARED[-1]]
    args = bench_pairs.parse_args(argv, DECLARED)
    assert args.workload == [DECLARED[0], DECLARED[-1]]


def test_an_unknown_workload_exits_2():
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.parse_args(["--out", "b.json", "--workload", "nope"],
                               DECLARED)
    assert exit_.value.code == 2


@pytest.mark.parametrize("chosen", [[], ["completion"]])
def test_the_record_holds_the_chosen_workloads_only(monkeypatch, tmp_path,
                                                     chosen):
    runs = []

    def run_once(tree, workload, seed, seconds):
        runs.append((workload, seed))
        return {"seed": seed, "correct": True, "attempted": 1, "failed": 0,
                "metrics": {"latency_p50_ms": float(seed)}}

    monkeypatch.setattr(bench_pairs, "export_commit",
                        lambda commit, into: None)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "b.json"
    argv = ["--out", str(out)] + [a for w in chosen for a in ("--workload", w)]
    assert bench_pairs.main(argv) == 0
    record = json.loads(out.read_text("utf-8"))
    names = chosen or DECLARED
    assert set(record) == RECORD_KEYS
    assert list(record["workloads"]) == names
    assert len(runs) == 2 * bench_pairs.PAIRS * len(names)
    summary = record["workloads"][names[0]]["summary"]["latency_p50_ms"]
    assert summary["pairs_change_better"] == summary["pairs_change_worse"] == 0
