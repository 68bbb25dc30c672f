"""Check the behaviour pins under whatever interpreter runs this script.

    python3 scripts/check_portable.py

Standard library only: the simulator is imported from ``src/`` next to this
directory, never from an installed copy, and neither pytest nor hypothesis is
needed. It reruns the pinned runs of ``tests/pinned_runs.py`` (state hash,
CSV row, decision trace and float state, each run also widened to keep
every node's rankings) and checks the medium's jitter
draw against ``randrange`` on the same stream, then one ``manetsim run`` and
one ``manetsim compare`` through the command line, each in a child process
of the same interpreter, and compares each CSV file's sha256 with its pin. It prints one line per check
and exits 0 when all of them hold, 1 otherwise.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(1, str(ROOT / "tests"))

import pinned_runs  # noqa: E402


def check_cli(command: str) -> tuple[bool, str]:
    """One pinned `manetsim <command>` in a child process; (matches pin, what was seen)."""
    args, pin = pinned_runs.CLI_PINS[command]
    with tempfile.TemporaryDirectory() as tmp:
        scenario, out = Path(tmp) / "scenario.ini", Path(tmp) / "result.csv"
        scenario.write_text(pinned_runs.CLI_SCENARIO)
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-m", "manetsim.cli", command, "--config", str(scenario),
             *args, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        if proc.returncode != 0:
            return False, f"exit {proc.returncode}: {proc.stderr.strip()}"
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
    return digest == pin, f"csv sha256 {digest[:12]}"


def main() -> int:
    print(f"python {platform.python_version()} ({sys.executable})")
    ok = True
    for name in sorted(pinned_runs.SCENARIOS):
        observed = pinned_runs.observe(name)
        held = observed == pinned_runs.PINS[name]
        ok = ok and held
        print(f"{'ok  ' if held else 'FAIL'} pin {name}: state_hash {observed[0][:12]}, "
              f"row sha256 {observed[1][:12]}, trace sha256 {observed[2][:12]}, "
              f"float sha256 {observed[3][:12]}")
        if not held:
            print(f"     saw {observed}")
    for span in pinned_runs.JITTER_SPANS:
        drawn, expected = pinned_runs.jitter_draws(span)
        held = drawn == expected
        ok = ok and held
        print(f"{'ok  ' if held else 'FAIL'} jitter draw over {span} values equals randrange")
    for command in pinned_runs.CLI_PINS:
        held, seen = check_cli(command)
        ok = ok and held
        print(f"{'ok  ' if held else 'FAIL'} cli {command}: {seen}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
