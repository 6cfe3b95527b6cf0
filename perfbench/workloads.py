"""The benchmark's workloads: the CLI argv of every op, the seeded op order,
and the check of one op's output against the reference recorded at seed.

The op lists are generated here without importing rrpfermat, so the program
under test receives only argv and no benchmark input goes through its code.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# Report fields that a frey op which exits 70 at seed must reproduce once the
# conductor stops refusing it; recorded through frey.frey_curve/invariants.
FREY_FIELDS = ("A", "B", "C", "delta", "c4", "j_num", "j_den")

COMPLETED, REFUSED, MISMATCH = "completed", "refused", "mismatch"


def _primes(lo: int, hi: int) -> list[int]:
    return [n for n in range(max(lo, 2), hi + 1)
            if all(n % p for p in range(2, math.isqrt(n) + 1))]


def _squarefree(n: int) -> bool:
    return all(n % (p * p) for p in range(2, math.isqrt(n) + 1))


R_PRIMES = _primes(5, 199)  # 44 primes, the domain of scan-q --max-r 200
QUAD_D = [d for d in range(2, 31) if _squarefree(d)]  # 18 values
FREY_R = (5, 7, 11, 13, 17, 19, 23)


def _q_sweep() -> list[list[str]]:
    return [["check-q", "--r", str(r), "--json"] for r in R_PRIMES]


def _quad_mix() -> list[list[str]]:
    ops = []
    for i, (d, r) in enumerate((d, r) for d in QUAD_D for r in R_PRIMES):
        argv = ["check-quad", "--d", str(d), "--r", str(r), "--json"]
        if i % 4 == 3:
            argv.insert(1, "--theorem")
        ops.append(argv)
    return ops


def _frey_desk() -> list[list[str]]:
    return [["frey", "--r", str(r), "--x", str(x), "--y", str(y), "--json"]
            for r in FREY_R for x in range(1, 6) for y in range(-5, 6)
            if y != 0 and x + y != 0 and math.gcd(x, y) == 1]


OPS = {"q-sweep": _q_sweep, "quad-mix": _quad_mix, "frey-desk": _frey_desk}

# The cheap op a fresh interpreter runs to measure set-up; each is also an op
# of its workload, so the reference covers it.
TRIVIAL = {
    "q-sweep": ["check-q", "--r", "5", "--json"],
    "quad-mix": ["check-quad", "--d", "2", "--r", "5", "--json"],
    "frey-desk": ["frey", "--r", "5", "--x", "1", "--y", "1", "--json"],
}


def ops(workload: str) -> list[list[str]]:
    """Every op of one pass, in grid order."""
    return OPS[workload]()


def passes(workload: str, seed: int):
    """Endless passes over the workload, each in a fresh order drawn from
    the seed; every pass runs every op exactly once."""
    rng = random.Random(seed)
    grid = ops(workload)
    while True:
        yield rng.sample(grid, len(grid))


def key(argv: list[str]) -> str:
    return " ".join(argv)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fields_digest(report: dict) -> str:
    return sha256(json.dumps({k: report[k] for k in FREY_FIELDS}, sort_keys=True))


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def classify(argv: list[str], code, out: str, err: str, ref: dict) -> str:
    """COMPLETED when the op gave a verdict or report equal to the reference,
    REFUSED when it exits 70 exactly as it did at seed, MISMATCH otherwise."""
    expect = ref[key(argv)]
    if code == 70 and expect["exit"] == 70:
        return REFUSED if err == expect["stderr"] else MISMATCH
    if code not in (0, 1, 2):
        return MISMATCH
    if argv[0] == "frey":
        try:
            report = json.loads(out)
            if any(report["A_plus_B_plus_C"]):
                return MISMATCH
            if expect["exit"] == 70:
                # Seed refused this op; a later fix is held to the curve fields.
                ok = fields_digest(report) == expect["fields_sha256"]
                return COMPLETED if ok else MISMATCH
        except (ValueError, KeyError, TypeError):
            return MISMATCH
    if code == expect["exit"] and sha256(out) == expect["stdout_sha256"]:
        return COMPLETED
    return MISMATCH
