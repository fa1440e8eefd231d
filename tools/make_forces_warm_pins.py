"""Write ``tests/forces_warm_pins.json``: the pinned forces-warm results.

Usage, from the repository root:

    PYTHONPATH=src python3 tools/make_forces_warm_pins.py

Each case of ``tests/test_arrays.py``'s ``PIN_CASES`` (body, potential
kind and order of the forces-warm benchmark) runs through that file's
``pin_results``, whose test compares later runs against the file bit for
bit.  The ``quatflow`` on the path is the one recorded, so the pins can
be written from any tree by pointing ``PYTHONPATH`` at its ``src/``.
A change that moves any bit regenerates the file in the same commit and
names the moved cases.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from test_arrays import PIN_CASES, PIN_FILE, pin_results  # noqa: E402


def main() -> None:
    pins = {}
    for case in PIN_CASES:
        body_name, kind, order = case.split("/")
        pins[case] = pin_results(body_name, kind, int(order))
    PIN_FILE.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
    print(f"{len(pins)} cases written to {PIN_FILE.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
