"""The test suite's own set-up: a failing property test stays one failure."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import curvecover

_TWO_TESTS = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_failing_property_test_does_not_abort_the_run(tmp_path):
    # under CI's warning flags, hypothesis's failure explanation imports libcst,
    # whose DeprecationWarning aborted the run with an INTERNALERROR before
    # test_passes ran; conftest.py imports that module once, warning ignored
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path)
    (tmp_path / "test_two.py").write_text(_TWO_TESTS)
    src = str(Path(curvecover.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning", "test_two.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout.splitlines()[-1]
