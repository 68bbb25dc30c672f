"""Set-up cost in a fresh interpreter, as ``manetsim run`` pays it.

Imports ``manetsim.cli``, parses the scenario text read from standard input,
and constructs the first ``Simulation`` for the seed given as the only
argument, without running any event. Then runs the calibration kernel, so
that the parent can convert to reference seconds. Prints one JSON object with the time of each step in seconds.

    python3 perfbench/setup_child.py SEED < scenario.txt
"""

import json
import sys
import time
from pathlib import Path

t_start = time.perf_counter()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
import manetsim.cli  # noqa: E402,F401  (the import itself is measured)

t_import = time.perf_counter()
from manetsim.config import parse_scenario_text  # noqa: E402

config = parse_scenario_text(sys.stdin.read(), "<stdin>")
t_parse = time.perf_counter()
from manetsim.simulation import Simulation  # noqa: E402

Simulation(config, int(sys.argv[1]))
t_construct = time.perf_counter()
sys.path.insert(0, str(HERE))
from hostclock import kernel_seconds  # noqa: E402

print(json.dumps({
    "import_s": t_import - t_start,
    "parse_s": t_parse - t_import,
    "construct_s": t_construct - t_parse,
    "kernel_s": kernel_seconds(),
}))
