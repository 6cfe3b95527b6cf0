"""Record the reference output of every benchmark op into reference.json.

For each op it stores the exit code and the SHA-256 of the JSON bytes on
stdout.  For a frey op that exits 70 it stores the stderr line and the
digest of the curve fields, computed by calling frey.frey_curve and
frey.invariants directly, so that a later fix of the conductor is checked
against them.  Run it only on a commit whose output is the accepted one:

    python3 perfbench/record.py
"""

from __future__ import annotations

import json
import sys

import workloads
from runner import ROOT, call_cli

sys.path.insert(0, str(ROOT / "src"))

from rrpfermat import cli, frey  # noqa: E402
from rrpfermat.cycfield import build_field  # noqa: E402


def curve_fields(argv: list[str]) -> dict:
    opt = dict(zip(argv[1::2], argv[2::2]))
    field = build_field(int(opt["--r"]))
    curve = frey.frey_curve(field, int(opt["--x"]), int(opt["--y"]), 0, 1, 2)
    inv = frey.invariants(curve)
    return {
        "A": list(curve.A.coeffs), "B": list(curve.B.coeffs), "C": list(curve.C.coeffs),
        "delta": list(inv.delta.coeffs), "c4": list(inv.c4.coeffs),
        "j_num": list(inv.j_num.coeffs), "j_den": list(inv.j_den.coeffs),
    }


def main() -> int:
    reference = {}
    for workload in workloads.OPS:
        for argv in workloads.ops(workload):
            code, out, err = call_cli(cli, argv)
            if code not in (0, 1, 2) and (code, argv[0]) != (70, "frey"):
                print(f"{workloads.key(argv)}: exit {code}: {err}", file=sys.stderr)
                return 1
            entry = {"exit": code, "stdout_sha256": workloads.sha256(out)}
            if code == 70:
                entry["stderr"] = err
                entry["fields_sha256"] = workloads.fields_digest(curve_fields(argv))
            reference[workloads.key(argv)] = entry
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                                   encoding="utf-8")
    print(f"wrote {len(reference)} ops to {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
