"""Record the seed-oracle table: what the first tree of the simulator
(``8e5d264``) gives for each config that ``tests/seed_oracle.py`` draws.

    python3 scripts/record_seed_oracle.py

Draws the configs with the simulator in ``src/``, exports the first tree
with ``git archive`` into a temporary directory, runs each config there in a
child process, and writes ``tests/seed_oracle_table.json``: per row the
config, the run seed, the ``state_hash`` and the CSV-row sha256. It needs
git and this repository's history, so the tier-1 suite only reads the
table. An unchanged ``git diff`` of the table after a rerun shows that it
still matches the first tree.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT / "tests"))

import seed_oracle  # noqa: E402

SEED_REV = "8e5d264"

# Run in a child interpreter whose manetsim is the exported tree: reads the
# [(config keywords, run seed), ...] JSON on stdin, writes [[state_hash,
# row sha256], ...]. Only names the first tree already had are used.
CHILD = """
import json, sys
from manetsim.config import ScenarioConfig
from manetsim.simulation import simulate
from seed_oracle import observed
out = []
for keywords, seed in json.load(sys.stdin):
    config = ScenarioConfig(**keywords)
    out.append(observed(config, simulate(config, seed)))
json.dump(out, sys.stdout)
"""


def record() -> list[dict]:
    drawn = seed_oracle.draw_configs()
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", SEED_REV, "src"],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(tmp) / "src"),
                                                            str(ROOT / "tests")])}
        proc = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps(drawn),
                              env=env, capture_output=True, text=True, check=True)
    return [dict(config=keywords, seed=seed, state_hash=state_hash, row_sha256=row_sha256)
            for (keywords, seed), (state_hash, row_sha256) in zip(drawn, json.loads(proc.stdout))]


def main() -> int:
    seed_oracle.TABLE.write_text(seed_oracle.table_text(record()), encoding="utf-8")
    print(f"wrote {seed_oracle.ROWS} rows to {seed_oracle.TABLE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
