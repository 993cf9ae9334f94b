"""The per-test time limit of tests/conftest.py, checked on a toy suite."""

import subprocess
import sys
import time
from pathlib import Path

TOY = """\
import itertools
import time


def test_sleeps():
    time.sleep(30)


def test_spins():
    # the signal lands on the loop's jump back, which has no line number
    for x in itertools.cycle([1, 2]):
        if x > 1:
            y = x


def test_fails():
    assert False
"""


def test_a_test_past_its_limit_fails_and_the_suite_runs_on(tmp_path):
    # the toy suite runs under this suite's conftest with a 1-s limit
    conftest = Path(__file__).with_name("conftest.py").read_text()
    assert conftest.count("\nLIMIT = 60\n") == 1
    (tmp_path / "conftest.py").write_text(conftest.replace("\nLIMIT = 60\n", "\nLIMIT = 1\n"))
    (tmp_path / "test_toy.py").write_text(TOY)
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=30,
    )
    elapsed = time.monotonic() - start
    assert proc.returncode == 1, proc.stderr
    summary = proc.stdout.strip().splitlines()[-1]
    assert "3 failed" in summary and "passed" not in summary
    failed = [line for line in proc.stdout.splitlines() if line.startswith("FAILED")]
    assert sum("TimeLimit" in line for line in failed) == 2
    assert elapsed < 10
