"""The pins must hold on the oldest interpreter the package supports.

pyproject.toml declares ``requires-python = ">=3.10"``, but the suite runs on
one interpreter. This runs ``scripts/check_portable.py`` under the oldest
pyenv-installed Python at or above 3.10, so a newer-only idiom on the hot path
(``operator.call`` was one) fails here instead of on a user's machine.
"""

import os
import re
import subprocess
from pathlib import Path

import pytest

OLDEST_SUPPORTED = (3, 10)
SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_portable.py"


def oldest_supported_python() -> Path | None:
    versions = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    found = []
    for entry in versions.iterdir() if versions.is_dir() else ():
        match = re.fullmatch(r"(\d+)\.(\d+)\.(\d+)", entry.name)
        python = entry / "bin" / "python3"
        if match and python.is_file():
            version = tuple(int(part) for part in match.groups())
            if version[:2] >= OLDEST_SUPPORTED:
                found.append((version, python))
    return min(found)[1] if found else None


def test_pins_hold_on_the_oldest_supported_python():
    python = oldest_supported_python()
    if python is None:
        pytest.skip("no pyenv interpreter >= 3.10 installed (looked in $PYENV_ROOT/versions "
                    "or ~/.pyenv/versions)")
    proc = subprocess.run([str(python), str(SCRIPT)], capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
