"""One way to run a snippet in a fresh interpreter, for the tests that
need an empty ``sys.modules`` or their own ``PYTHONHASHSEED`` /
``REPRO_REFERENCE_PATH``.

The child imports ``repro`` from this checkout's ``src/`` and sees a
minimal environment plus the variables the caller names.
``PYTHONDONTWRITEBYTECODE`` is always set, so a test run leaves no
``.pyc`` files under ``src/``.
"""

import subprocess
import sys
from pathlib import Path

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_fresh(snippet: str, **env: str) -> str:
    """Run ``snippet`` with ``env`` added; its standard output.  A
    non-zero exit fails the calling test with the child's stderr."""
    proc = subprocess.run(
        [sys.executable, "-c", snippet],
        capture_output=True,
        text=True,
        env={
            "PYTHONPATH": REPO_SRC,
            "PATH": "/usr/bin:/bin",
            "PYTHONDONTWRITEBYTECODE": "1",
            **env,
        },
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
