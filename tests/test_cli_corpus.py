"""The CLI byte corpus: recorded output of a fixed set of argvs, run again.

``tests/cli_corpus.json`` holds, for each argv, the stdout, stderr and
exit code of ``quatflow.cli.main`` run in process, and a header naming
the platform it was recorded on (``platform_key``).  It is written by
``tools/make_cli_corpus.py``, which imports ``run`` and ``platform_key``
from here so that both sides run an argv the same way.

Exit codes and stderr must always match exactly.  On the recorded
platform stdout must match byte for byte.  Elsewhere numpy's SIMD loops
(``**``, ``log``) may round a last bit differently from the recorded
machine's, so the text between numbers must match exactly and each
number must lie within ``REL_TOL * max(1, |recorded|)``; a number that
turns into ``null`` or ``nan`` is changed text and fails.
"""

import contextlib
import io
import itertools
import json
import platform
import re
from pathlib import Path

import numpy as np
import pytest

from quatflow import cli

CORPUS = Path(__file__).with_name("cli_corpus.json")
# The placeholder in a recorded argv for the path of the entry's config.
CONFIG = "{config}"
NUMBER = re.compile(r"(-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)")
REL_TOL = 1e-12


def platform_key() -> dict:
    """numpy's version and enabled SIMD dispatch targets, the machine and
    the C library: what decides the last bits of numpy's loops."""
    try:
        from numpy._core._multiarray_umath import (
            __cpu_dispatch__, __cpu_features__)
    except ImportError:   # numpy 1.x
        from numpy.core._multiarray_umath import (
            __cpu_dispatch__, __cpu_features__)
    return {"numpy": np.__version__,
            "dispatch": [target for target in __cpu_dispatch__
                         if __cpu_features__.get(target)],
            "machine": platform.machine(),
            "libc": list(platform.libc_ver())}


def run(argv: list, config, directory: Path) -> tuple:
    """(exit code, stdout, stderr) of ``cli.main(argv)`` in this process;
    a config is written under ``directory`` and its path replaces
    ``CONFIG`` in argv."""
    if config is not None:
        path = directory / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv = [str(path) if arg == CONFIG else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _same_line(recorded, got, exact: bool) -> bool:
    if exact or recorded is None or got is None:
        return recorded == got
    old, new = NUMBER.split(recorded), NUMBER.split(got)
    if len(old) != len(new) or old[::2] != new[::2]:
        return False
    return all(abs(float(b) - float(a)) <= REL_TOL * max(1.0, abs(float(a)))
               for a, b in zip(old[1::2], new[1::2]))


def first_difference(recorded: str, got: str, exact: bool):
    """None when ``got`` matches ``recorded``, byte for byte if ``exact``
    and within ``REL_TOL`` otherwise; else the first differing line."""
    lines = itertools.zip_longest(recorded.split("\n"), got.split("\n"))
    for number, (old, new) in enumerate(lines, 1):
        if not _same_line(old, new, exact):
            return f"line {number}: recorded {old!r}, got {new!r}"
    return None


def test_cli_output_matches_the_recorded_corpus(tmp_path):
    corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
    exact = corpus["platform"] == platform_key()
    path = "bytes" if exact else f"numbers within {REL_TOL:g}"
    for entry in corpus["runs"]:
        code, out, err = run(entry["argv"], entry.get("config"), tmp_path)
        where = "quatflow " + " ".join(entry["argv"])
        assert code == entry["exit"], where
        assert err == entry["stderr"], where
        difference = first_difference(entry["stdout"], out, exact)
        assert difference is None, f"{where} ({path}): {difference}"


RECORDED = ('{\n  "force": [\n    0.12345678901234566,\n    -2.5e-17\n'
            '  ],\n  "status": "pass"\n}\n')


@pytest.mark.parametrize("exact", [True, False])
def test_the_corpus_comparison_fails_on_changed_text_in_either_path(exact):
    assert first_difference(RECORDED, RECORDED, exact) is None
    for old, new, line in (('"force"', '"forse"', 2),
                           ('"pass"', '"fail"', 6),
                           ("-2.5e-17", "null", 4),
                           ("-2.5e-17", "nan", 4)):
        difference = first_difference(RECORDED, RECORDED.replace(old, new),
                                      exact)
        assert difference is not None and difference.startswith(
            f"line {line}: "), (old, new)
    assert first_difference(RECORDED, RECORDED + "{}\n", exact) is not None


def test_a_changed_last_digit_fails_bytes_and_passes_the_tolerance():
    changed = RECORDED.replace("0.12345678901234566", "0.12345678901234568")
    assert first_difference(RECORDED, changed, True) == (
        "line 3: recorded '    0.12345678901234566,', "
        "got '    0.12345678901234568,'")
    assert first_difference(RECORDED, changed, False) is None
    # beyond the tolerance the number fails the fallback path too
    wrong = RECORDED.replace("0.12345678901234566", "0.12345678902")
    assert first_difference(RECORDED, wrong, False) is not None
