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
cannot be read or parsed, --hplus-table with --d 0, a singular Frey model,
or inputs that must be coprime and are not (NotCoprimeError).  main is the
only place that maps exceptions to exit codes.

JSON reports (--json) are deterministic: stable key order, no timestamps,
byte-identical for identical inputs and tool version.  Wall-clock timing is
printed only in the human-readable form.  A report is written by a small
private writer (_json_text) whose bytes are those of
json.dumps(report, indent=2): on Python 3.10-3.12 json's C encoder ignores
indent, so json.dumps would run its pure-Python encoder on every report.
The writer's gain was measured on CPython 3.11 only.  On a later Python
whose C encoder honours indent, json.dumps may be the faster of the two;
that is unmeasured, and the choice would then go by sys.version_info.

Each subcommand imports only the modules it runs: check-q and scan-q load
the verdict engine (criteria), check-quad also the h+ table, and frey only
the curve and its field, so a frey process never loads the verdict engine.

frey builds the curve, then computes the conductor support, then the
invariants, then the coprimality certificate.  The conductor's trial
division (numutil.trial_factor) runs to min(--smoothness-bound, sqrt of
the leftover), so a leftover prime up to the square of the bound is proved
and reported; a larger leftover is first offered to strong Miller-Rabin,
which proves any prime below 3317044064679887385961981 (checked by a strong
Lucas test).  A leftover that neither step proves prime is an unfactored
conductor cofactor: it exits 70 before the invariants or any certificate
are computed, so a refused op prints nothing on stdout.  A
singular model (ABC = 0) is a usage error with one message, which the
conductor and the invariants share.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from json.encoder import encode_basestring_ascii as _json_str

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
# |x + y| by odd numbers and Phi(x, y) only by the 1 + 2rt, both up to
# min(bound, sqrt of the leftover), so at most bound/2r divisions of Phi,
# and a leftover below (bound + 1)^2 is proved prime on the way (a larger
# one is tried first by strong Miller-Rabin, at most 13 modular powers).  On a
# 2-vCPU Xeon, a Phi with two prime factors just above the bound took
# 0.15 s at r = 5 and 0.03 s at r = 31 for 10^7, 1.8 s and 0.3 s for 10^8;
# the whole process at the frey corner below (a 120-digit Phi, no factor
# below the bound) took 0.2-0.4 s for 10^7 and 0.5-0.7 s for 10^8.
MAX_SMOOTHNESS_BOUND = 10**7

# Largest frey --r and |--x|, |--y| accepted.  Whole process, 2-vCPU Xeon
# (guards lifted past the caps, three runs each): at x = 3, y = 2,
# r = 23 / 31 / 37 / 47 took 0.18 / 0.18-0.19 / 0.18 / 0.18-0.20 s; the corner
# r = 31, x = 10^4, y = 10^4 - 1 with --smoothness-bound 10^7 took
# 0.23 s, and x = 10^6 took 0.23-0.24 s.  In process, cli.main for r = 31 /
# 47 at x = 3, y = 2 takes 4.0 / 7.8 ms.  The coprimality check takes
# floor((r - 1)/4) + 1 lattice indices, one per Galois orbit of pairs
# (f_i, f_j), over Hermite bases in closed form whose entries stay below
# Phi(x, y).
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
    print(_json_text(payload, "\n"))


_int_text = int.__repr__


def _json_text(value, indent: str) -> str:
    r"""json.dumps(value, indent=2), byte for byte, for a value nested at the
    depth whose line break and indentation `indent` is ("\n" at the top).

    Types are tested in json's own order (str, None, bool, int, then lists
    or tuples, then dicts); strings go through json's ASCII escaper and ints
    through int.__repr__, as json does.  Anything else, a float or a dict
    with a key that is not a str among them, is handed to json.dumps
    itself, re-indented to its depth: json escapes every newline inside a
    string, so each "\n" of its text is a line break."""
    if isinstance(value, str):
        return _json_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return _int_text(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        # exact ints (no bool) are the common item: coefficient vectors
        items = [_int_text(v) if type(v) is int else _json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        try:
            items = [_json_str(k) + ": " + (_json_str(v) if type(v) is str else _json_text(v, inner))
                     for k, v in value.items()]
        except TypeError:  # a key that is not a str, or a value json refuses
            return json.dumps(value, indent=2).replace("\n", indent)
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    return json.dumps(value, indent=2).replace("\n", indent)


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
    """The shipped list of passing r <= 150, next to this module on disk."""
    return os.path.join(os.path.dirname(__file__), "data", "q_list.txt")


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
    # The conductor is the only step that refuses a valid input (exit 70), so
    # it runs before the invariants and the coprimality certificate, which a
    # refusal never prints.
    support = frey.conductor_support_outside_S(curve, args.smoothness_bound)
    inv = frey.invariants(curve)
    cop = frey.coprimality_check(curve)
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
    except (UsageError, DegenerateCurveError, NotCoprimeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (UnfactoredCofactorError, ConsistencyError, TableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
