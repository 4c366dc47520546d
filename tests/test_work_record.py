"""The work record of ``scripts/bench_pair.py``: the bytecode instructions,
Python calls and C calls one ``Simulation.run`` executes."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_bench_pair():
    spec = importlib.util.spec_from_file_location(
        "bench_pair", ROOT / "scripts" / "bench_pair.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_work_count_is_one_number_across_runs():
    # Two fresh interpreters count the same 3 s of the seed-1 hccc_default
    # run (1% of its 300 s) and must agree exactly.
    bench_pair = load_bench_pair()
    first, second = (bench_pair.work_counts(str(ROOT), "hccc_default", 1, 0.01)
                     for _ in range(2))
    assert first == second
    assert first["duration_s"] == 3.0
    assert first["opcodes"] > first["calls"] > first["events"] > 0
    functions = first["functions"]
    # Python 3.10 names a function without its class.
    assert [calls for name, (_, calls) in functions.items()
            if name.endswith("run_until")] == [1]
    assert [sum(counts) for counts in zip(*functions.values())] == [
        first["opcodes"], first["calls"]]
    # The C calls are counted by name, the event queue's among them, and
    # two runs count the same calls of each.
    c_functions = first["c_functions"]
    assert c_functions == second["c_functions"]
    assert sum(c_functions.values()) == first["c_calls"] > 0
    assert {"_heapq.heappush", "_heapq.heappop", "list.sort"} <= set(c_functions)
