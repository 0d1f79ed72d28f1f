"""Fresh interpreters for the checks that need one (start-up, import state,
per-process pins): ``python -c`` with this checkout's ``src`` ahead of any
``PYTHONPATH`` the session runs under, so numpy, scipy or hypothesis found
through ``PYTHONPATH`` stay found."""

import os
import subprocess
import sys

import singlab

SRC = os.path.dirname(os.path.dirname(os.path.abspath(singlab.__file__)))


def run_python(code: str, *args: str, check: bool = False, **env: str) -> subprocess.CompletedProcess:
    """``python -c code args`` in a fresh interpreter, its output captured as
    text, with the extra environment variables env."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=dict(os.environ, **env, PYTHONPATH=path),
                          capture_output=True, text=True, check=check)
