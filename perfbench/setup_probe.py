"""Set up one workload in a fresh interpreter, print "ready" and exit.

run.py times this script from process start to the "ready" line; that
interval is the workload's set-up time (interpreter start, ``import
quatflow``, input generation and warm-up).

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    wl = workloads.make_workload(workload)
    wl.setup(seed)
    wl.make_pass(0)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
