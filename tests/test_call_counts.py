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


def scenario_counts_in_fresh_interpreter(path):
    out = subprocess.run([sys.executable, str(SCRIPT), "--scenario", str(path), "--seeds", "1,2"],
                         capture_output=True, text=True, timeout=60, check=True).stdout
    return {name: int(calls) for calls, name in map(str.split, out.splitlines())}


def test_scenario_file_counts_repeat_exactly(tmp_path):
    path = tmp_path / "tiny.scenario"
    path.write_text("[scenario]\nnodes = 6\narea_x = 150\narea_y = 150\nsim_time_s = 3\n"
                    "stream_start_s = 1\nprotocol = batmobile\n")
    first = scenario_counts_in_fresh_interpreter(path)
    assert scenario_counts_in_fresh_interpreter(path) == first
    assert first["total"] == sum(calls for name, calls in first.items() if name != "total")
    assert first["routing.py"] > 0
