"""rrpfermat benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload q-sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout.  Set-up is measured first: several fresh
interpreters each import rrpfermat.cli and run the workload's cheapest op.
Then the workload runs in one fresh child process (runner.py), alone, in a
closed loop with one client and no threads.  With --trace 0 the last line
of stdout is a JSON object with the end-to-end metrics; with --trace 1 the
child also runs traced passes and the object holds the per-layer metrics.
Metric names and units are read from BENCHMARK.json at the root.  The exit
code is 1 when any output check fails and 2 when the program or the
reference is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = ROOT / "BENCHMARK.json"
SETUP_PROBES = 11
# Time of a bare `python3 -c pass` on the quiet 2-vCPU VM where the benchmark
# was defined; setup_s is in that machine's units.
BARE_REF_S = 0.045
# The child runs whole passes until about --seconds (twice that at most, to
# reach the sample floor); this leaves room for warm-up and one more pass.
CHILD_MARGIN_S = 100

PROBE = "import sys\nfrom rrpfermat import cli\nsys.exit(cli.main(sys.argv[1:]))\n"


def timed_run(args: list[str], env: dict) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(args, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    return time.perf_counter() - start, proc


def measure_setup(workload: str, ref: dict) -> tuple[float, list[str]]:
    """Median time of fresh interpreters that import rrpfermat.cli and run
    one cheap op; the first probe, which may write bytecode, is dropped.

    Each probe is scaled by BARE_REF_S over the time of a bare interpreter
    (`python3 -c pass`) started just before it.  Process start-up slows with
    the host far more than the calibration kernel of runner.py does; the
    bare start slows with it, and nothing rrpfermat does changes it."""
    argv = workloads.TRIVIAL[workload]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times, problems = [], []
    for i in range(SETUP_PROBES + 1):
        bare_s, _ = timed_run([sys.executable, "-c", "pass"], env)
        elapsed, proc = timed_run([sys.executable, "-c", PROBE, *argv], env)
        if i:
            times.append(elapsed * BARE_REF_S / bare_s)
        if workloads.classify(argv, proc.returncode, proc.stdout, proc.stderr, ref) \
                != workloads.COMPLETED:
            problems.append(f"set-up probe {workloads.key(argv)}: exit {proc.returncode}")
    return statistics.median(times), problems[:1]


def metric_units(trace: int) -> dict:
    """Name -> unit of the metrics BENCHMARK.json lists for this kind of run."""
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    ref = workloads.load_reference()
    setup_s, problems = (None, []) if trace else measure_setup(workload, ref)
    proc = subprocess.run(
        [sys.executable, str(HERE / "runner.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=2 * seconds + CHILD_MARGIN_S)
    if proc.returncode != 0:
        raise RuntimeError(f"runner exited {proc.returncode}: {proc.stderr[-2000:]}")
    child = json.loads(proc.stdout.splitlines()[-1])
    child["setup_s"] = setup_s
    child["problems"] = problems + child["problems"]
    child["correct"] = child["correct"] and not problems
    child["failed"] += len(problems)
    return child


def report(workload: str, child: dict, units: dict, trace: int) -> dict:
    values = child["layer"] if trace else child
    if trace and set(values) != set(units):
        raise RuntimeError("traced metrics differ from per_layer in BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(units))}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(f"# {workload}: {child['attempted']} ops attempted in {child['passes']} passes, "
          f"{child['failed']} failed checks, {child['refused']} exited 70 as at seed "
          f"(not completed); latency percentiles over {child['samples']} completed ops")
    for name, m in metrics.items():
        print(f"{workload:10s} {name:34s} {m['value']!s:>24} {m['unit']}")
    for problem in child["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    return {"correct": child["correct"], "attempted": child["attempted"],
            "failed": child["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*workloads.OPS, "all"], required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rrpfermat" / "cli.py").is_file() or not workloads.REFERENCE.is_file():
        print("run.py: rrpfermat sources (src/rrpfermat) or the reference are missing",
              file=sys.stderr)
        return 2
    units = metric_units(args.trace)
    names = list(workloads.OPS) if args.workload == "all" else [args.workload]
    correct = True
    for workload in names:
        result = report(workload, run_workload(workload, args.seed, args.seconds, args.trace),
                        units, args.trace)
        correct = correct and result["correct"]
        print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
