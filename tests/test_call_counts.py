"""scripts/call_counts.py: its counts repeat exactly from one interpreter to the next."""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "call_counts.py"

# Counts one pass of a tiny two-call workload: both batch kinds, batmobile's
# score trend included.
CHILD = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("call_counts", sys.argv[1])
call_counts = importlib.util.module_from_spec(spec)
spec.loader.exec_module(call_counts)
from workloads import Call, Workload
text = ("[scenario]\\nnodes = 6\\narea_x = 150\\narea_y = 150\\n"
        "sim_time_s = 3\\nstream_start_s = 1\\n")
tiny = Workload("tiny", "", (Call("run_experiment", text + "protocol = batmobile\\n"),
                             Call("compare", text)), 1)
print(sorted(call_counts.count_calls(tiny, 1).items()))
"""


def count_in_fresh_interpreter():
    out = subprocess.run([sys.executable, "-c", CHILD, str(SCRIPT)], capture_output=True,
                         text=True, timeout=60, check=True).stdout
    return dict(ast.literal_eval(out))


def test_counts_repeat_exactly():
    first, second = count_in_fresh_interpreter(), count_in_fresh_interpreter()
    assert first == second
    modules = {path.name for path in (ROOT / "src" / "manetsim").glob("*.py")}
    assert set(first) - {"other"} <= modules
    assert first["simulation.py"] > 0 and first["routing.py"] > 0
