"""Count the source lines of each module in src/manetsim.

A line counts when it is neither blank nor a comment alone; docstrings count.
Prints one ``count  module`` line per module, then the total.

    python3 scripts/count_lines.py [PACKAGE_DIR]
"""

from __future__ import annotations

import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "manetsim"


def count_lines(path: Path) -> int:
    stripped = (line.strip() for line in path.read_text(encoding="utf-8").splitlines())
    return sum(1 for line in stripped if line and not line.startswith("#"))


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    total = 0
    for path in sorted(package.glob("*.py")):
        count = count_lines(path)
        total += count
        print(f"{count:5d}  {path.name}")
    print(f"{total:5d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
