"""The test session's own configuration: a failing test is counted, and
the session runs on to the next test."""

import os
import subprocess
import sys
import textwrap

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "pyproject.toml")


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # on a failure hypothesis imports libcst to write a patch file, and the
    # warning that import raises ended the session with INTERNALERROR under
    # the project's filterwarnings, leaving the passing test unrun
    (tmp_path / "test_two.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st


        @given(st.integers())
        def test_fails(x):
            assert x < 0


        def test_passes():
            pass
    """))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", PYPROJECT, "-p", "no:cacheprovider", "-q", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
