"""Shared fixtures of the test suite."""

import json
import subprocess
import sys

import pytest

# The argvs whose reports must not depend on --threads, and the thread
# counts they are run at.
THREAD_ARGVS = (("verify",), ("force", "--scenario", "cylinder-vortex"))
THREAD_COUNTS = (1, 4, 8)

# Runs each argv of argv[1] (a JSON list) through quatflow.cli.main in
# this interpreter and prints [exit code, stdout, stderr] per argv as JSON.
CLI_RUNS = """
import contextlib, io, json, sys
from quatflow.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(runs))
"""


@pytest.fixture(scope="session")
def cli_thread_runs():
    """{argv: {threads: (exit code, stdout, stderr)}}.

    One fresh interpreter per thread count runs every argv of
    THREAD_ARGVS, so the session pays three interpreter starts however
    many tests read the runs.
    """
    by_argv = {argv: {} for argv in THREAD_ARGVS}
    for threads in THREAD_COUNTS:
        proc = subprocess.run(
            [sys.executable, "-c", CLI_RUNS, json.dumps(
                [[*argv, "--threads", str(threads)] for argv in THREAD_ARGVS])],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        runs = json.loads(proc.stdout)
        assert len(runs) == len(THREAD_ARGVS)
        for argv, run in zip(THREAD_ARGVS, runs):
            by_argv[argv][threads] = tuple(run)
    return by_argv
