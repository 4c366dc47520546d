"""Time a base revision against the working tree with the benchmark command.

    python3 scripts/bench_pair.py --base HEAD~1 --out BENCH_21.json
    python3 scripts/bench_pair.py --base HEAD --workload hccc_default --pairs 1 --seconds 1

The base is unpacked with ``git archive`` beside the working tree, at a
path exactly as long as the working tree's: the path length moves
``peak_rss_mb``.  For each workload the script runs ``bench/run.py --trace
0`` once per side in alternating pairs, and the side that runs first
alternates from pair to pair, so a drift of the machine's speed during the
run does not favour one side.  Then it runs ``bench/run.py --trace 1`` once
per side for the per-layer counts and self times.  Last, it reads
``peak_rss_mb`` with bytecode cached: a 1 s warm-up run per side, then
``CACHED_RUNS`` measured ``--trace 0`` runs per side, the sides alternating
as in the pairs, with ``PYTHONDONTWRITEBYTECODE`` unset and
``PYTHONPYCACHEPREFIX`` set to a temporary directory of that side's, so
the reading does not move with the length of the source text and no
bytecode is written into either checkout.  Each side runs its own
``bench/`` and ``src/``.  The base copy is removed at the end, also when
the script is stopped by SIGTERM or SIGINT: each ``bench/run.py`` runs in
its own process group, and a stopped script kills that group, with the
``pipeline.py`` repetition it started, before it removes the copy.

The output file holds, per workload and end-to-end metric, each side's
median and quartiles over the pairs and the number of pairs the change
won, plus every side's digests, ``correct`` flags, per-layer values and
``peak_rss_mb_cached`` median and quartiles, the commit ids, the Python
version, the CPU count and ``PYTHONDONTWRITEBYTECODE``, and each side's
``src_code_lines``: the lines of ``src/hcccsim/*.py`` that hold code,
leaving out docstrings, comments and blank lines.  Two fields per workload
say whether the sides did the same work: ``same_digest`` (each side has one
digest, and they are equal) and ``counts_differ`` (the per-layer names
whose values differ, leaving out host times in s and
``trace.overhead_frac``); both are printed at the end.  A third, the work
record, says whether they executed the same code: per side, one run of
``WORK_FRACTION`` of the workload's simulated duration, in a fresh
interpreter, counts the bytecode instructions executed inside
``Simulation.run`` (``sys.settrace`` with ``f_trace_opcodes``) and the
Python function calls (``sys.setprofile``), per event, in all and per
function (``file:qualname``), and the calls of C functions (``c_call``
events) in all and per name (``module.qualname``, or the qualname of a
method, such as ``list.append``); ``work_differs`` is true when a total
of the Python work differs between the sides, ``work_functions_differ``
names the functions whose counts differ, and ``c_calls_differ`` is true
when a C function's count differs.  The script gates and bounds nothing: a
digest or count that differs is recorded, and ``bench/run.py`` with
``BENCHMARK.json`` keeps the bounds.
"""

import argparse
import ast
import datetime
import glob
import io
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "change")
CACHED_RUNS = 3     # measured runs per side with bytecode cached
WORK_FRACTION = 0.25    # of a workload's simulated duration, for the work record

# Run in a side's checkout: argv is workload, seed, fraction of the duration.
WORK_SCRIPT = r"""
import collections, dataclasses, json, os, sys
sys.path.insert(0, "bench")
import pipeline
from hcccsim.config import validate
cfg = pipeline.workload_config(pipeline.WORKLOADS[sys.argv[1]], int(sys.argv[2]), False)
cfg = validate(dataclasses.replace(cfg, duration=cfg.duration * float(sys.argv[3])))
sim = pipeline.build_simulation(cfg)
opcodes = collections.Counter()     # per code object
calls = collections.Counter()
c_calls = collections.Counter()     # per (module, qualname) of a C function
def trace(frame, event, arg):
    frame.f_trace_lines = False
    frame.f_trace_opcodes = True
    code = frame.f_code
    def count_opcode(frame, event, arg):
        if event == "opcode":
            opcodes[code] += 1
        return count_opcode
    return count_opcode
top = sys._getframe()    # its C calls set and clear the hooks
def count_call(frame, event, arg):
    if event == "call":
        calls[frame.f_code] += 1
    elif event == "c_call" and frame is not top:
        c_calls[getattr(arg, "__module__", None), arg.__qualname__] += 1
sys.setprofile(count_call)
sys.settrace(trace)
result = sim.run()
sys.settrace(None)
sys.setprofile(None)
functions = collections.defaultdict(lambda: [0, 0])
for i, counter in enumerate((opcodes, calls)):
    for code, n in counter.items():
        name = "%s:%s" % (os.path.basename(code.co_filename),
                          getattr(code, "co_qualname", code.co_name))
        functions[name][i] += n
c_functions = {name if module is None else "%s.%s" % (module, name): n
               for (module, name), n in c_calls.items()}
print(json.dumps({"duration_s": cfg.duration, "events": result.events_processed,
                  "opcodes": sum(opcodes.values()), "calls": sum(calls.values()),
                  "c_calls": sum(c_calls.values()),
                  "functions": dict(sorted(functions.items())),
                  "c_functions": dict(sorted(c_functions.items()))}))
"""


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


# Tokens that hold no code: a line made only of these is blank or a comment.
NO_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def src_code_lines(root):
    """Lines of ``src/hcccsim/*.py`` under root that hold a code token and
    are no part of a module, class or function docstring."""
    total = 0
    for path in sorted(glob.glob(os.path.join(root, "src", "hcccsim", "*.py"))):
        with open(path, "rb") as f:
            source = f.read()
        docstrings = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)) and node.body:
                first = node.body[0]
                if (isinstance(first, ast.Expr)
                        and isinstance(first.value, ast.Constant)
                        and isinstance(first.value.value, str)):
                    docstrings.update(range(first.lineno, first.end_lineno + 1))
        code = set()
        for tok in tokenize.tokenize(io.BytesIO(source).readline):
            if tok.type not in NO_CODE:
                code.update(range(tok.start[0], tok.end[0] + 1))
        total += len(code - docstrings)
    return total


def sibling_path():
    """A free path beside the working tree, as long as the working tree's."""
    parent, name = os.path.split(ROOT)
    for c in "abcdefghijklmnopqrstuvwxyz0123456789":
        path = os.path.join(parent, name[:-1] + c)
        if path != ROOT and not os.path.exists(path):
            return path
    raise SystemExit("bench_pair: no free sibling path; pass --worktree")


def run_bench(root, workload, seed, seconds, trace, env=None):
    """One ``bench/run.py`` run in a checkout: (last-line JSON, digest)."""
    cmd = [sys.executable, os.path.join(root, "bench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    with subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=env,
                          start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate()
        except BaseException:
            kill_group(proc)
            raise
    lines = stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit("bench_pair: %s gave no JSON line (exit %d):\n%s"
                         % (" ".join(cmd), proc.returncode, stderr[-2000:]))
    found = re.search(r"digest sha256=([0-9a-f]+)", stdout)
    return result, found.group(1) if found else None


def work_counts(root, workload, seed, fraction=WORK_FRACTION):
    """Bytecode instructions, Python calls and C calls executed inside one
    ``Simulation.run`` of a checkout, in all and per event.  The run lasts
    ``fraction`` of the workload's simulated duration, in a fresh
    interpreter that writes no bytecode and hashes strings with seed 0."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, "-c", WORK_SCRIPT, workload,
                           str(seed), repr(fraction)], cwd=root, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit("bench_pair: work count of %s in %s failed:\n%s"
                         % (workload, root, proc.stderr[-2000:]))
    work = json.loads(proc.stdout.splitlines()[-1])
    # A run has at least one event: the first sample at t = 0.
    work["opcodes_per_event"] = work["opcodes"] / work["events"]
    work["calls_per_event"] = work["calls"] / work["events"]
    work["c_calls_per_event"] = work["c_calls"] / work["events"]
    return work


def kill_group(proc):
    """Kill the process group a child leads and wait until it is empty."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    # The leader's children are not ours to wait for: poll for up to 5 s.
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def stop(signum, frame):
    """Turn SIGTERM and SIGINT into SystemExit, so that ``finally`` runs."""
    raise SystemExit(128 + signum)


def spread(values):
    """Median and quartiles of a sample."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr": q3 - q1}


def summarize(pairs, better):
    """Per metric: each side's spread and the pairs the change won."""
    out = {}
    for name in pairs[0]["change"]["metrics"]:
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                  for side in SIDES}
        lower = better.get(name, "lower") == "lower"
        won = sum(1 for b, c in zip(values["base"], values["change"])
                  if (c < b if lower else c > b))
        entry = {"unit": pairs[0]["change"]["metrics"][name]["unit"],
                 "better": "lower" if lower else "higher",
                 "pairs": len(pairs), "change_won": won}
        for side in SIDES:
            entry[side] = spread(values[side])
        base_median = entry["base"]["median"]
        entry["change_vs_base"] = (entry["change"]["median"] / base_median - 1.0
                                   if base_median else None)
        out[name] = entry
    return out


def cached_rss(roots, workload, args):
    """Per side, the spread of ``peak_rss_mb`` over CACHED_RUNS runs after
    a warm-up has cached the side's bytecode in a temporary directory."""
    envs = {}
    readings = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="bench_pair_pyc_") as prefix:
        for i, side in enumerate(SIDES):
            env = envs[side] = dict(os.environ)
            env.pop("PYTHONDONTWRITEBYTECODE", None)
            # Equal-length names: the prefix is part of every cached path.
            env["PYTHONPYCACHEPREFIX"] = os.path.join(prefix, str(i))
            run_bench(roots[side], workload, args.seed, 1, 0, env)
        for i in range(CACHED_RUNS):
            for side in (SIDES[i % 2], SIDES[1 - i % 2]):
                result, _ = run_bench(roots[side], workload, args.seed,
                                      args.seconds, 0, envs[side])
                readings[side].append(result["metrics"]["peak_rss_mb"]["value"])
    return {side: spread(readings[side]) for side in SIDES}


def measure(roots, workload, args, better):
    pairs = []
    for i in range(args.pairs):
        first = SIDES[i % 2]
        pair = {"first": first}
        for side in (first, SIDES[1 - i % 2]):
            result, digest = run_bench(roots[side], workload, args.seed,
                                       args.seconds, 0)
            pair[side] = dict(result, digest=digest)
        pairs.append(pair)
        print("%s pair %d/%d: frames_per_s base %.6g, change %.6g"
              % (workload, i + 1, args.pairs,
                 pair["base"]["metrics"]["frames_per_s"]["value"],
                 pair["change"]["metrics"]["frames_per_s"]["value"]),
              file=sys.stderr)
    traced = {side: run_bench(roots[side], workload, args.seed, args.seconds, 1)
              for side in SIDES}
    cached = cached_rss(roots, workload, args)
    work = {side: work_counts(roots[side], workload, args.seed) for side in SIDES}
    digests = {side: sorted({p[side]["digest"] for p in pairs}
                            | {traced[side][1]}, key=str)
               for side in SIDES}
    return {
        "end_to_end": summarize(pairs, better),
        "correct": {side: all(p[side]["correct"] for p in pairs)
                    and traced[side][0]["correct"] for side in SIDES},
        "digests": digests,
        "same_digest": (digests["base"] == digests["change"]
                        and len(digests["base"]) == 1
                        and digests["base"][0] is not None),
        "counts_differ": counts_differ(*(traced[side][0]["metrics"]
                                         for side in SIDES)),
        "per_layer": {side: {name: m["value"] for name, m
                             in traced[side][0]["metrics"].items()}
                      for side in SIDES},
        "peak_rss_mb_cached": cached,
        "work": work,
        "work_differs": any(work["base"][k] != work["change"][k]
                            for k in ("events", "opcodes", "calls")),
        "work_functions_differ": sorted(
            name for name in set(work["base"]["functions"])
            | set(work["change"]["functions"])
            if work["base"]["functions"].get(name)
            != work["change"]["functions"].get(name)),
        "c_calls_differ": (work["base"]["c_functions"]
                           != work["change"]["c_functions"]),
        "pairs": pairs,
    }


def counts_differ(base, change):
    """Per-layer names whose values differ between two traced runs, leaving
    out host times (unit s) and trace.overhead_frac, a ratio of host times."""
    missing = {"value": None, "unit": None}
    differ = []
    for name in sorted(set(base) | set(change)):
        b, c = base.get(name, missing), change.get(name, missing)
        if (name != "trace.overhead_frac" and "s" not in (b["unit"], c["unit"])
                and b["value"] != c["value"]):
            differ.append(name)
    return differ


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload in BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="seconds per bench/run.py run")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default="bench_pair.json", help="JSON file to write")
    parser.add_argument("--worktree", help="where to unpack the base; "
                        "default: beside the working tree")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    workloads = args.workload or [w["name"] for w in declared["workloads"]]
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    path = os.path.abspath(args.worktree) if args.worktree else sibling_path()
    if len(path) != len(ROOT):
        parser.error("--worktree %s is not as long as %s" % (path, ROOT))

    base = git("rev-parse", "--verify", args.base + "^{commit}")
    record = {
        "created": datetime.datetime.now(datetime.timezone.utc)
                   .isoformat(timespec="seconds"),
        "base": {"rev": args.base, "commit": base},
        "change": {"commit": git("rev-parse", "HEAD"),
                   "uncommitted": bool(git("status", "--porcelain", "--",
                                           "src", "bench"))},
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "workloads": {},
    }
    for side, rev in (("base", base), ("change", "HEAD")):
        record[side]["src_tree"] = git("rev-parse", rev + ":src")
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    os.mkdir(path)
    try:
        archive = subprocess.run(["git", "-C", ROOT, "archive", base],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", path], input=archive, check=True)
        roots = {"base": path, "change": ROOT}
        for side in SIDES:
            record[side]["src_code_lines"] = src_code_lines(roots[side])
        for workload in workloads:
            record["workloads"][workload] = measure(roots, workload, args, better)
    finally:
        shutil.rmtree(path)
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    print("src_code_lines: base %d, change %d" % (
        record["base"]["src_code_lines"], record["change"]["src_code_lines"]))
    for workload, w in record["workloads"].items():
        for name, m in w["end_to_end"].items():
            print("%s %s: base %.6g [%.6g, %.6g], change %.6g [%.6g, %.6g], "
                  "change won %d of %d" % (
                      workload, name, m["base"]["median"], m["base"]["q1"],
                      m["base"]["q3"], m["change"]["median"], m["change"]["q1"],
                      m["change"]["q3"], m["change_won"], m["pairs"]))
        cached = w["peak_rss_mb_cached"]
        print("%s peak_rss_mb_cached: base %.6g [%.6g, %.6g], change %.6g "
              "[%.6g, %.6g]" % (workload, *(cached[side][key] for side in SIDES
                                            for key in ("median", "q1", "q3"))))
        print("%s correct: base %s, change %s" % (
            workload, w["correct"]["base"], w["correct"]["change"]))
        print("%s same_digest: %s, counts_differ: %s" % (
            workload, w["same_digest"], ", ".join(w["counts_differ"]) or "none"))
        work = w["work"]
        print("%s work over %g s simulated: opcodes/event base %.6g, change "
              "%.6g; calls/event base %.6g, change %.6g; work_differs: %s" % (
                  workload, work["change"]["duration_s"],
                  *(work[side][key] for key in ("opcodes_per_event",
                                                "calls_per_event")
                    for side in SIDES), w["work_differs"]))
        print("%s work_functions_differ: %s" % (
            workload, ", ".join(w["work_functions_differ"]) or "none"))
        print("%s C calls/event base %.6g, change %.6g; c_calls_differ: %s" % (
            workload, *(work[side]["c_calls_per_event"] for side in SIDES),
            w["c_calls_differ"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
