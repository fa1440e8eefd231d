"""Write ``tests/cli_corpus.json``: the recorded output of a fixed argv set.

Usage, from the repository root:

    PYTHONPATH=src python3 tools/make_cli_corpus.py

Each argv below runs through ``quatflow.cli.main`` in this process, and
its stdout, stderr and exit code are written with the platform key of
``tests/test_cli_corpus.py``, whose test compares later runs against
them.  The ``quatflow`` on the path is the one recorded, so a corpus can
be written from any tree by pointing ``PYTHONPATH`` at its ``src/``.
A change that alters any output regenerates the file in the same commit
and names the changed argvs.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from test_cli_corpus import CONFIG, CORPUS, platform_key, run  # noqa: E402

SCENARIOS = ("cylinder-uniform", "cylinder-vortex", "sphere-stream",
             "control-sphere-uniform", "control-box-uniform",
             "control-cylinder-uniform")
FORMATS = ([], ["--format", "csv"])
# A dipole near the +x face of the default box: every route agrees at
# every order, but order 4 is far from the resolved force.
NEAR_WALL_DIPOLE = {"name": "near-wall-dipole",
                    "potential": {"kind": "dipole", "coefficient": 0.3,
                                  "center": [0.35, 0.3, 0.2]},
                    "body": {"kind": "box"}}


def entries() -> list[tuple[list, dict | None]]:
    """(argv, config) of every recorded run, in order."""
    runs = [(["verify", "--order", order] + fmt, None)
            for fmt in FORMATS for order in ("8", "16", "32")]
    for name in SCENARIOS:
        for order in ("8", "17", "48"):
            for fmt in FORMATS:
                runs.append((["force", "--scenario", name, "--order", order]
                             + fmt, None))
                runs.append((["moment", "--scenario", name, "--order", order,
                              "--about", "0.3,-0.2,0.1", "--shift-to",
                              "1,2,3"] + fmt, None))
    runs += [(["convergence", "--scenario", name], None)
             for name in SCENARIOS]
    runs += [(["reduce2d"], None), (["reduce2d", "--about", "0.3,0"], None)]
    runs += [(["force", "--config", CONFIG, "--order", order],
              NEAR_WALL_DIPOLE) for order in ("4", "16", "64")]
    runs += [([command, "--threads", "2"], None) for command in
             ("verify", "force", "moment", "convergence", "reduce2d")]
    return runs


def main() -> None:
    records = []
    with tempfile.TemporaryDirectory() as directory:
        for argv, config in entries():
            code, out, err = run(argv, config, Path(directory))
            record = {"argv": argv, "exit": code, "stdout": out,
                      "stderr": err}
            if config is not None:
                record["config"] = config
            records.append(record)
    CORPUS.write_text(json.dumps({"platform": platform_key(),
                                  "runs": records}, indent=1) + "\n",
                      encoding="utf-8")
    print(f"{len(records)} runs written to {CORPUS.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
