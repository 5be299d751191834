import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).parent / "src")
sys.path.insert(0, SRC)


def _fresh_python(code: str, **env) -> str:
    """stdout of code run in a fresh interpreter, with env added to its
    environment. The test process has already imported whatever the other
    tests pulled in, and BLAS reads its thread count once, at load."""
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip()


@pytest.fixture
def fresh_python():
    return _fresh_python
