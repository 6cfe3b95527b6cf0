"""Command-line front end.

Subcommands:
    check-q     one rational-base check for a prime r
    scan-q      range scan over primes, optional comparison with a list file
    check-quad  one quadratic-base check (corollary form, or the literal
                four-hypothesis form with --theorem; --theorem also accepts
                --d 0 for the rational base)
    frey        build the curve for (x, y), print exact invariants,
                coprimality report and conductor support

Exit codes (scripts can branch on the tri-state):
    0  pass          1  fail          2  undetermined
    64 usage error   70 internal/computation error
    74 output error: stdout was closed before the report was written
       (`rrpfermat check-q --r 199 --json | head -1`)

A usage error is bad input: an argument out of range (frey's --r, --x, --y
and --smoothness-bound among them), an --expect or --hplus-table file that
cannot be read or parsed, --hplus-table with --d 0, or a singular Frey model.
main is the only place that maps exceptions to exit codes.

JSON reports (--json) are deterministic: stable key order, no timestamps,
byte-identical for identical inputs and tool version.  Wall-clock timing is
printed only in the human-readable form.

Each subcommand imports only the modules it runs: check-q and scan-q load
the verdict engine (criteria), check-quad also the h+ table, and frey only
the curve and its field, so a frey process never loads the verdict engine.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from . import __version__
from .errors import (
    ConsistencyError,
    DegenerateCurveError,
    NotCoprimeError,
    TableError,
    UnfactoredCofactorError,
)
from .numutil import DEFAULT_SMOOTHNESS_BOUND, MAX_R, check_prime_r

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_UNDETERMINED = 2
EXIT_USAGE = 64
EXIT_INTERNAL = 70
EXIT_IOERR = 74  # sysexits EX_IOERR

# Largest --d accepted: squarefreeness is decided by trial division up to
# about d^(1/3) (numutil.is_squarefree), 10^4 divisions at this bound.
MAX_D = 10**12

# Largest --smoothness-bound accepted: the conductor support trial-divides
# |x + y| by odd numbers and Phi(x, y) only by the 1 + 2rt, both up to the
# bound, so at most bound/2r divisions of Phi.  On a 2-vCPU Xeon, a Phi with
# two prime factors just above the bound took 0.15 s at r = 5 and 0.03 s at
# r = 31 for 10^7, 1.8 s and 0.3 s for 10^8; the whole process at the frey
# corner below (a 120-digit Phi, no factor below the bound) took 0.2-0.4 s
# for 10^7 and 0.5-0.7 s for 10^8.
MAX_SMOOTHNESS_BOUND = 10**7

# Largest frey --r and |--x|, |--y| accepted.  Whole process, 2-vCPU Xeon
# (guards lifted past the caps): at x = 3, y = 2, r = 23 / 31 / 37 / 47 took
# 0.19 / 0.21-0.26 / 0.23-0.25 / 0.30-0.36 s; the corner r = 31, x = 10^4,
# y = 10^4 - 1 with --smoothness-bound 10^7 took 0.22-0.27 s, and x = 10^6
# took 0.28-0.29 s.  The coprimality check takes floor((r - 1)/4) + 1 lattice
# indices, one per Galois orbit of pairs (f_i, f_j).  Their Hermite bases are
# not reduced modulo anything: at r = 23 and x, y <= 5 the entries inside
# intlinalg._echelon reach about 1,270 bits, where Phi(x, y) has at most 54.
MAX_FREY_R = 31
MAX_FREY_XY = 10**4

# Keyed by criteria.PASS, FAIL and UNDETERMINED, spelled out so that
# importing the CLI does not load the verdict engine.
_VERDICT_EXIT = {"pass": EXIT_PASS, "fail": EXIT_FAIL, "undetermined": EXIT_UNDETERMINED}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="rrpfermat", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"rrpfermat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-q", help="rational-base check for one prime r")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check_q)

    p = sub.add_parser("scan-q", help="scan primes 5..max-r for full passes")
    p.add_argument("--max-r", type=int, required=True, dest="max_r")
    p.add_argument("--expect", type=str, default=None,
                   help="file with the expected list; exit 0 only on exact match")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_scan_q)

    p = sub.add_parser("check-quad", help="quadratic-base check for (d, r)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--hplus-table", type=str, default=None, dest="hplus_table")
    p.add_argument("--theorem", action="store_true",
                   help="check the literal four hypotheses instead of the corollary form")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check_quad)

    p = sub.add_parser("frey", help="curve data for integer x, y")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--k", type=str, default="0,1,2",
                   help="comma-separated distinct indices k1,k2,k3 (default 0,1,2)")
    p.add_argument("--smoothness-bound", type=int, default=DEFAULT_SMOOTHNESS_BOUND,
                   dest="smoothness_bound")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_frey)

    return parser


def _require_prime_r(r: int):
    # check_prime_r tests the bound before primality; its message says which
    # of the two refused r.
    try:
        check_prime_r(r)
    except ValueError as exc:
        if "exceeds MAX_R" in str(exc):
            raise UsageError(f"--r {r}: desk-scale guard is r <= {MAX_R}")
        raise UsageError(f"--r {r}: must be a prime >= 5")


def _print_json(args, body: dict) -> None:
    """Print the --json report: the envelope (tool, version, command and the
    parsed input), then the command's own keys in their given order."""
    echo = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "command", "json")}
    payload = {"tool": "rrpfermat", "version": __version__, "command": args.command,
               "input": echo, **body}
    print(json.dumps(payload, indent=2))


def _load_input(flag: str, path: str | None, load):
    """load(path) for an input file named on the command line (None when the
    flag is absent); an unreadable or malformed file (OSError, ValueError:
    decoding, integers, TableError) is a usage error that names the flag."""
    if path is None:
        return None
    try:
        return load(path)
    except (OSError, ValueError) as exc:
        raise UsageError(f"{flag} {path}: {exc}")


def _emit_verdict(verdict, args, extra: dict | None = None, elapsed: float = 0.0) -> int:
    if args.json:
        _print_json(args, {"verdict": verdict.to_dict(), **(extra or {})})
    else:
        print(f"target: {verdict.target}  base_d={verdict.base_d}  r={verdict.r}")
        for cond in verdict.conditions:
            ev = json.dumps(cond.evidence, sort_keys=True)
            print(f"  [{cond.status.upper():12s}] {cond.name:32s} {ev}")
        for key, value in verdict.diagnostics.items():
            print(f"  (diagnostic) {key} = {value}")
        if extra:
            for key, value in extra.items():
                print(f"  {key}: {value}")
        print(f"overall: {verdict.overall.upper()}")
        print(f"elapsed: {elapsed * 1000.0:.1f} ms")
    return _VERDICT_EXIT[verdict.overall]


def cmd_check_q(args) -> int:
    from . import criteria

    _require_prime_r(args.r)
    t0 = time.monotonic()
    verdict = criteria.check_corollary_Q(args.r)
    return _emit_verdict(verdict, args, elapsed=time.monotonic() - t0)


def cmd_scan_q(args) -> int:
    from . import criteria

    if args.max_r > MAX_R:
        raise UsageError(f"--max-r {args.max_r}: desk-scale guard is {MAX_R}")
    if args.max_r < 0:
        raise UsageError("--max-r must be nonnegative")
    expected = _load_input("--expect", args.expect, _read_int_list)
    t0 = time.monotonic()
    passing = criteria.scan_Q(args.max_r)
    elapsed = time.monotonic() - t0
    if args.json:
        body = {"passing_r": passing}
        if expected is not None:
            body.update(expected_r=expected, match=passing == expected)
        _print_json(args, body)
    else:
        print(" ".join(str(r) for r in passing))
        if expected is not None:
            print(f"expected match: {passing == expected}")
        print(f"elapsed: {elapsed * 1000.0:.1f} ms", file=sys.stderr)
    if expected is not None:
        return EXIT_PASS if passing == expected else EXIT_FAIL
    return EXIT_PASS


def _read_int_list(path: str) -> list[int]:
    """Whitespace-separated integers, # comments, UTF-8."""
    from pathlib import Path  # only scan-q --expect reads a list

    out = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0]
        out.extend(int(tok) for tok in line.split())
    return out


def shipped_q_list_path() -> str:
    from importlib import resources  # not needed by the other commands

    return str(resources.files("rrpfermat").joinpath("data/q_list.txt"))


def cmd_check_quad(args) -> int:
    from . import classnumber, criteria
    from .splitting import check_quadratic_d

    _require_prime_r(args.r)
    if args.d > MAX_D:
        raise UsageError(f"--d {args.d}: desk-scale guard is d <= {MAX_D}")
    if args.d == 0:
        # The rational-base parity comes from the Maillet determinant: no table.
        if not args.theorem:
            raise UsageError("--d 0 (rational base) is only meaningful with --theorem")
        if args.hplus_table is not None:
            raise UsageError(f"--hplus-table {args.hplus_table}: no table is read with --d 0")
        table = extra = None
    else:
        try:
            check_quadratic_d(args.d)
        except ValueError:
            raise UsageError(f"--d {args.d}: must be a squarefree integer > 1 (or 0 with --theorem)")
        table = (_load_input("--hplus-table", args.hplus_table, classnumber.load_hplus_table)
                 if args.hplus_table is not None else classnumber.load_hplus_table())
        extra = {"hplus_table_sha256": table.sha256}
    t0 = time.monotonic()
    if args.theorem:
        verdict = criteria.check_four_hypotheses(args.d, args.r, table)
    else:
        verdict = criteria.check_corollary_quad(args.d, args.r, table)
    code = _emit_verdict(verdict, args, extra=extra, elapsed=time.monotonic() - t0)
    if code == EXIT_UNDETERMINED and not args.json:
        for cond in verdict.conditions:
            missing = cond.evidence.get("missing_entry")
            if missing:
                print(f"missing h+ table entry: {missing}")
    return code


def cmd_frey(args) -> int:
    from . import frey
    from .cycfield import build_field

    _require_prime_r(args.r)
    if args.r > MAX_FREY_R:
        raise UsageError(f"--r {args.r}: frey's desk-scale guard is r <= {MAX_FREY_R}")
    for name, value in (("x", args.x), ("y", args.y)):
        if abs(value) > MAX_FREY_XY:
            raise UsageError(f"--{name} {value}: desk-scale guard is |{name}| <= {MAX_FREY_XY}")
    if math.gcd(args.x, args.y) != 1:
        raise UsageError(f"--x {args.x} --y {args.y}: gcd must be 1")
    try:
        k1, k2, k3 = (int(tok) for tok in args.k.split(","))
    except ValueError:
        raise UsageError(f"--k {args.k}: expected three comma-separated integers")
    if not 3 <= args.smoothness_bound <= MAX_SMOOTHNESS_BOUND:
        raise UsageError(f"--smoothness-bound {args.smoothness_bound}: "
                         f"must lie in 3..{MAX_SMOOTHNESS_BOUND}")
    field = build_field(args.r)
    t0 = time.monotonic()
    try:
        curve = frey.frey_curve(field, args.x, args.y, k1, k2, k3)
    except ValueError as exc:
        raise UsageError(str(exc))
    inv = frey.invariants(curve)
    cop = frey.coprimality_check(field, args.x, args.y)
    support = frey.conductor_support_outside_S(curve, args.smoothness_bound)
    elapsed = time.monotonic() - t0
    report = {
        "A": list(curve.A.coeffs),
        "B": list(curve.B.coeffs),
        "C": list(curve.C.coeffs),
        "A_plus_B_plus_C": list((curve.A + curve.B + curve.C).coeffs),
        "delta": list(inv.delta.coeffs),
        "c4": list(inv.c4.coeffs),
        "j_num": list(inv.j_num.coeffs),
        "j_den": list(inv.j_den.coeffs),
        "coprimality_ok": cop.ok,
        "coprimality_pairs": [list(p) for p in cop.pairs],
        "conductor_support_outside_S": list(support),
    }
    if args.json:
        _print_json(args, report)
    else:
        for key in ("A", "B", "C", "A_plus_B_plus_C", "delta", "c4", "j_num", "j_den"):
            print(f"{key}: {report[key]}")
        print(f"coprimality ok: {cop.ok}")
        print(f"conductor support outside {{2, {args.r}}}: {list(support)}")
        print(f"elapsed: {elapsed * 1000.0:.1f} ms")
    return EXIT_PASS


def _discard_stdout() -> None:
    """Point stdout's file descriptor, if it has one, at os.devnull, so that
    the flush at interpreter exit does not meet the closed pipe again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # no real file descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        _discard_stdout()
        return EXIT_IOERR
    except (UsageError, DegenerateCurveError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (UnfactoredCofactorError, NotCoprimeError, ConsistencyError, TableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
