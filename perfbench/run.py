"""quatflow benchmark: one workload, one seed, one run.

Usage, from the repository root:

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 30 --trace 0

Workloads: cli-mix, forces-warm, completion (see README.md next to this
file).  With ``--trace 0`` the run measures the end-to-end metrics with
tracing off; with ``--trace 1`` it measures half the time untraced and
half traced and reports the per-layer metrics.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the line before it records the run environment.  Full records,
including the traced spans, are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from calibration import factor, sample_after, spin

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Fresh interpreters started per run to time set-up; the median is reported.
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
# calibration samples taken around each set-up probe
PROBE_CALIBRATION = 10


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-mix", "forces-warm", "completion"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


# ----------------------------------------------------------------------
# set-up time
# ----------------------------------------------------------------------

def time_setup(workload: str, seed: int) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter until it is ready to serve,
    and the calibration factor measured around that probe."""
    calibration = []
    for _ in range(PROBE_CALIBRATION):
        calibration.append(spin())
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}): {line!r}")
    for _ in range(PROBE_CALIBRATION):
        calibration.append(spin())
    return elapsed, factor(calibration)


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------

class Loop:
    """Runs whole passes of a workload, one request at a time."""

    def __init__(self, workload):
        self.workload = workload
        self.next_pass = 0

    def run(self, budget_s: float, min_passes: int = 1,
            tracer=None) -> tuple[list, list]:
        """Outcomes of whole passes, and the calibration samples between.

        Runs at least ``min_passes`` passes, then starts another only
        while it is expected to end within ``budget_s``.
        """
        from workloads import Outcome

        wl = self.workload
        outcomes, calibration = [], []
        start = time.perf_counter()
        for passes in itertools.count(1):
            specs = wl.make_pass(self.next_pass)
            self.next_pass += 1
            pass_start = time.perf_counter()
            results, pass_outcomes = [], []
            for index, spec in enumerate(specs):
                if tracer is not None:
                    tracer.request = len(outcomes) + index
                    jets0 = tracer.count("jet_calls")
                    pool0 = tracer.count("pool_starts")
                error, result = "", None
                c0, t0 = time.process_time(), time.perf_counter()
                try:
                    result = wl.call(spec)
                except Exception as err:  # a failed request is counted
                    error = f"{type(err).__name__}: {err}"
                t1, c1 = time.perf_counter(), time.process_time()
                if not error:
                    try:
                        error = wl.check(spec, result)
                    except Exception as err:
                        error = f"check raised {type(err).__name__}: {err}"
                tags = wl.tags(spec)
                if tracer is not None:
                    tags["jets"] = tracer.count("jet_calls") - jets0
                    tags["pool_starts"] = tracer.count("pool_starts") - pool0
                results.append(result)
                pass_outcomes.append(Outcome(t1 - t0, c1 - c0, not error,
                                             error, tags))
                sample_after(t1 - t0, calibration)
            wl.end_of_pass(specs, results, pass_outcomes)
            outcomes += pass_outcomes
            pass_s = time.perf_counter() - pass_start
            if (passes >= min_passes
                    and time.perf_counter() - start + pass_s > budget_s):
                return outcomes, calibration


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines() -> int:
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def environment() -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "src_lines": src_lines(),
    }


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "quatflow" / "__init__.py").is_file():
        print(f"perfbench: no quatflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import metrics
    import workloads
    from tracing import Tracer

    probes = [time_setup(args.workload, args.seed)
              for _ in range(SETUP_PROBES)]

    wl = workloads.make_workload(args.workload)
    wl.setup(args.seed)
    loop = Loop(wl)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment()}

    if args.trace:
        untraced, cal_untraced = loop.run(args.seconds / 2.0)
        wl.reset_stats()
        tracer = Tracer()
        tracer.install()
        try:
            traced, cal_traced = loop.run(args.seconds / 2.0,
                                          tracer=tracer)
        finally:
            tracer.uninstall()
        extra = wl.stats()
        overhead = (metrics.throughput(untraced, factor(cal_untraced))
                    / metrics.throughput(traced, factor(cal_traced)))
        layer = metrics.per_layer(tracer, traced, untraced, extra, overhead)
        values, not_measured = metrics.finite_or_zero(layer)
        outcomes = untraced + traced
        units = {name: unit for name, unit, *_ in metrics.PER_LAYER}
        record["absent"] = tracer.absent
        record["not_measured"] = not_measured
        record["requests"] = {"untraced": len(untraced),
                              "traced": len(traced)}
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent",
                                  "request"],
                       "spans": tracer.spans,
                       "counts": {k: tracer.count(k) for k in
                                  list(tracer.counts) + ["products"]}}, fh)
    else:
        outcomes, calibration = loop.run(args.seconds, wl.min_passes)
        values, facts = metrics.end_to_end(
            outcomes, factor(calibration), probes,
            wl.min_passes * len(wl.make_pass(0)))
        units = {name: unit for name, unit, _ in metrics.END_TO_END}
        record.update(facts)

    failures = [o for o in outcomes if not o.ok]
    record["failures"] = [{"error": o.error, "tags": o.tags}
                          for o in failures[:20]]
    summary = dict(record, failures=record["failures"][:3])
    record["latencies_s"] = [o.latency_s for o in outcomes]
    record["metrics"] = values
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}"
              ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
