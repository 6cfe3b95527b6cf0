"""Routing check: each workload still exercises the layers it was chosen for.

Runs every workload with --seconds 0 --trace 1 (one untraced and one traced
pass), twice, each time in a fresh process with the same seed, and checks
that

  * the two runs give identical counts (every per-layer metric that is not
    a time);
  * classnumber.maillet_calls is 44 per pass on q-sweep;
  * design.json defines exactly the end_to_end metrics of BENCHMARK.json,
    and its layer map names exactly the per_layer ones and holds on the
    traced pass: each metric is non-zero
    on every workload in its "on" list and zero on every workload in its
    "zero_on" list.  The zero_on lists carry the rest of the routing:
    maillet_calls is 0 outside q-sweep, intlinalg.lattice_calls and
    frey.coprimality_ms are 0 outside frey-desk, splitting.calls is 0 on
    frey-desk.

    python3 perfbench/routing_check.py

Exit code 0 when every check holds, 1 otherwise.  Takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import workloads
from tracing import LAYER_METRICS

HERE = Path(__file__).resolve().parent
SEED = 1
COUNTS = [m for m, (kind, _) in LAYER_METRICS.items() if kind != "ms"]


def traced_pass(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "runner.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: output check failed: {result['problems']}")
    return result["layer"]


def map_failures(layer_map: dict, workload: str, layer: dict) -> list[str]:
    failures = []
    for metric, entry in layer_map.items():
        if workload in entry["on"] and not layer[metric]:
            failures.append(f"{workload}: {metric} is 0 but the layer map lists it as on")
        if workload in entry.get("zero_on", []) and layer[metric]:
            failures.append(f"{workload}: {metric} = {layer[metric]}, expected 0")
    return failures


def main() -> int:
    design = json.loads((HERE / "design.json").read_text(encoding="utf-8"))
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    layer_map = design["layer_map"]
    failures = []
    for section, kind in (("end_to_end", "end_to_end"), ("layer_map", "per_layer")):
        names = {m["name"] for m in spec[kind]}
        if set(design[section]) != names:
            failures.append(f"design.json {section} and BENCHMARK.json {kind} differ: "
                            f"{sorted(set(design[section]) ^ names)}")
    for workload in workloads.OPS:
        first, second = (traced_pass(workload) for _ in range(2))
        for metric in COUNTS:
            if first[metric] != second[metric]:
                failures.append(f"{workload}: {metric} differs between runs: "
                                f"{first[metric]} vs {second[metric]}")
        if workload == "q-sweep" and first["classnumber.maillet_calls"] != 44:
            failures.append(f"q-sweep: classnumber.maillet_calls = "
                            f"{first['classnumber.maillet_calls']}, expected 44")
        failures += map_failures(layer_map, workload, first)
        print(f"{workload}: " + ", ".join(f"{m}={first[m]:g}" for m in COUNTS))
    for failure in failures:
        print(f"ROUTING CHECK FAILED: {failure}")
    if not failures:
        print("routing check passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
