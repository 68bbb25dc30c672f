"""The pins must hold on the oldest and the newest interpreter the package supports.

pyproject.toml declares ``requires-python = ">=3.10"``, but the suite runs on
one interpreter. This runs ``scripts/check_portable.py`` under the oldest
pyenv-installed Python at or above 3.10, so a newer-only idiom on the hot path
(``operator.call`` was one) fails here instead of on a user's machine. It
runs it under the newest one too: ``sum()`` of floats is compensated from
3.12 on, so the pins are also checked on the far side of that change.
"""

import os
import re
import subprocess
from pathlib import Path

import pytest

OLDEST_SUPPORTED = (3, 10)
SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_portable.py"


def supported_pythons() -> list[Path]:
    """Every pyenv-installed ``python3`` at or above OLDEST_SUPPORTED, oldest first."""
    versions = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    found = []
    for entry in versions.iterdir() if versions.is_dir() else ():
        match = re.fullmatch(r"(\d+)\.(\d+)\.(\d+)", entry.name)
        python = entry / "bin" / "python3"
        if match and python.is_file():
            version = tuple(int(part) for part in match.groups())
            if version[:2] >= OLDEST_SUPPORTED:
                found.append((version, python))
    return [python for _, python in sorted(found)]


def check_pins_under(python: Path) -> None:
    proc = subprocess.run([str(python), str(SCRIPT)], capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_pins_hold_on_the_oldest_supported_python():
    pythons = supported_pythons()
    if not pythons:
        pytest.skip("no pyenv interpreter >= 3.10 installed (looked in $PYENV_ROOT/versions "
                    "or ~/.pyenv/versions)")
    check_pins_under(pythons[0])


def test_pins_hold_on_the_newest_supported_python():
    pythons = supported_pythons()
    if len(pythons) < 2:
        pytest.skip("fewer than two pyenv interpreters >= 3.10 installed: the oldest "
                    "test covers the only one")
    check_pins_under(pythons[-1])
