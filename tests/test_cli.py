import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rrpfermat import classnumber, criteria, numutil
from rrpfermat.cli import (
    EXIT_FAIL,
    EXIT_INTERNAL,
    EXIT_IOERR,
    EXIT_PASS,
    EXIT_UNDETERMINED,
    EXIT_USAGE,
    main,
    shipped_q_list_path,
)
from rrpfermat.cycfield import build_field
from rrpfermat.errors import UnfactoredCofactorError
from rrpfermat.frey import frey_curve

import oracles
from fixtures import FREY_DESK


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_q_pass(capsys):
    code, out, _ = run(capsys, "check-q", "--r", "101")
    assert code == EXIT_PASS
    assert "overall: PASS" in out


def test_check_q_fail_names_condition(capsys):
    code, out, _ = run(capsys, "check-q", "--r", "17")
    assert code == EXIT_FAIL
    assert "r mod 8" in out and "FAIL" in out


def test_check_q_usage_errors(capsys):
    code, _, err = run(capsys, "check-q", "--r", "15")
    assert code == EXIT_USAGE and "prime" in err
    code, _, err = run(capsys, "check-q", "--r", "499")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "nonsense")
    assert code == EXIT_USAGE


def test_scan_q_prefix(capsys):
    code, out, _ = run(capsys, "scan-q", "--max-r", "13")
    assert code == EXIT_PASS
    assert out.strip().splitlines()[0] == "5 7 11 13"


def test_scan_q_expect_match(capsys):
    code, _, _ = run(
        capsys, "scan-q", "--max-r", "150", "--expect", shipped_q_list_path()
    )
    assert code == EXIT_PASS


def test_scan_q_expect_mismatch(tmp_path, capsys):
    wrong = tmp_path / "wrong.txt"
    wrong.write_text("5 7 11\n", encoding="utf-8")
    code, out, _ = run(capsys, "scan-q", "--max-r", "13", "--expect", str(wrong))
    assert code == EXIT_FAIL


def test_scan_q_guards(capsys):
    code, _, err = run(capsys, "scan-q", "--max-r", "300")
    assert code == EXIT_USAGE and "200" in err
    code, _, err = run(capsys, "scan-q", "--max-r", "13", "--expect", "/nonexistent")
    assert code == EXIT_USAGE


def test_check_quad_pass(capsys):
    code, _, _ = run(capsys, "check-quad", "--d", "2", "--r", "11")
    assert code == EXIT_PASS


def test_check_quad_fail_unique_prime(capsys):
    code, out, _ = run(capsys, "check-quad", "--d", "5", "--r", "5")
    assert code == EXIT_FAIL
    assert "unique prime above 2 in K+" in out


def test_check_quad_undetermined_names_missing_entry(capsys):
    code, out, _ = run(capsys, "check-quad", "--d", "7", "--r", "11")
    assert code == EXIT_UNDETERMINED
    assert "d=7 r=11" in out


def test_check_quad_usage(capsys):
    for d in ("1", "-5", "12"):
        code, _, err = run(capsys, "check-quad", "--d", d, "--r", "11")
        assert code == EXIT_USAGE and err.startswith(f"usage error: --d {d}: "), d
    code, _, _ = run(capsys, "check-quad", "--d", "0", "--r", "11")
    assert code == EXIT_USAGE  # d = 0 needs --theorem


@pytest.mark.parametrize("flag, argv, content", [
    ("--expect", ["scan-q", "--max-r", "13"], b"5 7 eleven 13\n"),
    ("--expect", ["scan-q", "--max-r", "13"], b"\xff\xfe 5 7\n"),
    ("--hplus-table", ["check-quad", "--d", "7", "--r", "11"], b"7 11 odd \xff\n"),
], ids=["expect-not-integer", "expect-not-utf8", "hplus-table-not-utf8"])
def test_malformed_input_file_is_usage_error(flag, argv, content, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(content)
    code, out, err = run(capsys, *argv, flag, str(bad), "--json")
    assert code == EXIT_USAGE and out == ""
    assert err.startswith(f"usage error: {flag} {bad}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_check_quad_theorem_mode(capsys):
    code, _, _ = run(capsys, "check-quad", "--theorem", "--d", "2", "--r", "5")
    assert code == EXIT_PASS
    code, _, _ = run(capsys, "check-quad", "--theorem", "--d", "0", "--r", "11")
    assert code == EXIT_PASS
    # r = 7: literal hypothesis (iv) fails over Q
    code, _, _ = run(capsys, "check-quad", "--theorem", "--d", "0", "--r", "7")
    assert code == EXIT_FAIL


def test_check_quad_rational_base_reads_no_table(tmp_path, monkeypatch, capsys):
    # --d 0 takes its parity from the Maillet determinant: no table is
    # loaded, no digest is printed, and naming a table is a usage error.
    def no_table(*_):
        raise AssertionError("h+ table loaded for --d 0")

    monkeypatch.setattr(classnumber, "load_hplus_table", no_table)
    code, out, _ = run(capsys, "check-quad", "--theorem", "--d", "0", "--r", "11", "--json")
    assert code == EXIT_PASS
    payload = json.loads(out)
    assert "hplus_table_sha256" not in payload
    assert list(payload) == ["tool", "version", "command", "input", "verdict"]
    table = tmp_path / "table.txt"
    table.write_text("7 11 odd local attestation\n", encoding="utf-8")
    code, out, err = run(capsys, "check-quad", "--theorem", "--d", "0", "--r", "11",
                         "--hplus-table", str(table), "--json")
    assert code == EXIT_USAGE and out == ""
    assert err == f"usage error: --hplus-table {table}: no table is read with --d 0\n"


def test_r_rule_is_shared(capsys):
    # One rule for "r is a prime >= 5": the CLI keeps its message, and the
    # library entry points raise the same ValueError where they build the field.
    for r in (-7, 0, 1, 2, 3, 4, 9, 15):
        code, out, err = run(capsys, "check-q", "--r", str(r))
        assert code == EXIT_USAGE and out == ""
        assert err == f"usage error: --r {r}: must be a prime >= 5\n"
        for call in (build_field, criteria.check_corollary_Q,
                     lambda r: criteria.check_four_hypotheses(2, r)):
            with pytest.raises(ValueError, match=f"^r = {r} must be a prime >= 5$"):
                call(r)


def test_check_quad_custom_table(tmp_path, capsys):
    table = tmp_path / "table.txt"
    table.write_text("7 11 odd local attestation\n", encoding="utf-8")
    code, _, _ = run(
        capsys, "check-quad", "--d", "7", "--r", "11", "--hplus-table", str(table)
    )
    assert code == EXIT_PASS
    bad = tmp_path / "bad.txt"
    bad.write_text("7 11 maybe x\n", encoding="utf-8")
    code, _, _ = run(
        capsys, "check-quad", "--d", "7", "--r", "11", "--hplus-table", str(bad)
    )
    assert code == EXIT_USAGE


def test_check_quad_reads_the_table_file_once(tmp_path, monkeypatch, capsys):
    table = tmp_path / "table.txt"
    table.write_text("7 11 odd local attestation\n", encoding="utf-8")
    reads = []
    for name in ("read_bytes", "read_text"):
        def counting(self, *args, _name=name, _original=getattr(Path, name), **kwargs):
            if Path(self) == table:
                reads.append(_name)
            return _original(self, *args, **kwargs)
        monkeypatch.setattr(Path, name, counting)
    code, _, _ = run(capsys, "check-quad", "--d", "7", "--r", "11",
                     "--hplus-table", str(table), "--json")
    assert code == EXIT_PASS
    assert len(reads) == 1, reads


def test_table_digest_names_the_parsed_bytes(tmp_path, monkeypatch, capsys):
    table = tmp_path / "table.txt"
    parsed = b"7 11 odd local attestation\n"
    table.write_bytes(parsed)
    original = criteria.check_corollary_quad

    def rewrite_mid_op(d, r, tbl=None):
        table.write_bytes(b"7 11 even another attestation\n")
        return original(d, r, tbl)

    monkeypatch.setattr(criteria, "check_corollary_quad", rewrite_mid_op)
    code, out, _ = run(capsys, "check-quad", "--d", "7", "--r", "11",
                       "--hplus-table", str(table), "--json")
    assert code == EXIT_PASS
    assert json.loads(out)["hplus_table_sha256"] == hashlib.sha256(parsed).hexdigest()


def test_frey_report(capsys):
    code, out, _ = run(capsys, "frey", "--r", "5", "--x", "2", "--y", "1", "--k", "0,1,2")
    assert code == EXIT_PASS
    assert "A_plus_B_plus_C: [0, 0]" in out
    assert "conductor support outside {2, 5}: [3, 11]" in out


def test_frey_guards(capsys):
    code, _, err = run(capsys, "frey", "--r", "5", "--x", "2", "--y", "2")
    assert code == EXIT_USAGE and "gcd" in err
    code, _, err = run(capsys, "frey", "--r", "5", "--x", "1", "--y", "0", "--k", "0,0,1")
    assert code == EXIT_USAGE and "distinct" in err
    code, _, err = run(capsys, "frey", "--r", "5", "--x", "1", "--y", "0", "--k", "0,1")
    assert code == EXIT_USAGE


def test_frey_non_coprime_is_usage_error(capsys):
    """frey_curve is the one gcd check; the CLI turns its NotCoprimeError
    into a usage error that names both flags."""
    code, out, err = run(capsys, "frey", "--r", "5", "--x", "6", "--y", "3", "--json")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "usage error: --x 6 --y 3: gcd must be 1\n"


def test_a_not_coprime_error_that_reaches_main_is_a_usage_error(monkeypatch, capsys):
    """NotCoprimeError is a ValueError about the input, so main maps it to
    64 like the other usage errors, not to the internal 70."""
    import rrpfermat.frey
    from rrpfermat.errors import NotCoprimeError

    def refuse(curve, bound):
        raise NotCoprimeError("x and y share a factor")

    monkeypatch.setattr(rrpfermat.frey, "conductor_support_outside_S", refuse)
    code, out, err = run(capsys, "frey", "--r", "5", "--x", "2", "--y", "1", "--json")
    assert (code, out, err) == (EXIT_USAGE, "", "usage error: x and y share a factor\n")


@pytest.mark.parametrize("argv, runs", [
    (("check-q", "--r", "199"), 2),
    (("check-quad", "--theorem", "--d", "5", "--r", "13"), 2),
    (("check-quad", "--theorem", "--d", "0", "--r", "31"), 2),
    (("check-quad", "--d", "2", "--r", "11"), 2),
    (("frey", "--r", "5", "--x", "2", "--y", "1"), 2),
    (("scan-q", "--max-r", "31"), 9),
])
def test_the_prime_rule_runs_once_per_call_path(monkeypatch, capsys, argv, runs):
    """The prime rule runs in the CLI's usage check and in the field's
    constructor, and in no function that takes the field: two runs per op,
    and on scan-q, which takes no --r, one per prime 5 <= r <= 31.  Only
    the rule calls numutil.is_prime, so its calls count the rule's runs."""
    calls = []
    real = numutil.is_prime
    monkeypatch.setattr(numutil, "is_prime", lambda n: calls.append(n) or real(n))
    code, _, _ = run(capsys, *argv)
    assert code in (EXIT_PASS, EXIT_FAIL)
    assert len(calls) == runs, calls


@pytest.mark.parametrize("argv, runs, moduli", [
    (("--d", "5", "--r", "13"), 2, []),
    (("--theorem", "--d", "5", "--r", "13"), 2, [32]),
    (("--theorem", "--d", "3", "--r", "7"), 2, [16]),
    (("--theorem", "--d", "0", "--r", "31"), 0, [32]),
])
def test_the_d_rule_runs_twice_per_check_quad_op(monkeypatch, capsys, argv, runs, moduli):
    """The d rule runs in the CLI's usage check and once in criteria, and
    in no layer below: not in splitting, and not in descent, whose residue
    system (mod 32 for d = 5 mod 8 and for d = 0 where 2 is not inert, mod
    16 for d = 2, 3 mod 4) each such --theorem op reaches.  Only the rule calls
    numutil.is_squarefree, so its calls count the rule's runs."""
    import rrpfermat.descent

    calls, reached = [], []
    real = numutil.is_squarefree
    monkeypatch.setattr(numutil, "is_squarefree", lambda n: calls.append(n) or real(n))
    real_system = rrpfermat.descent._brute_force_system
    monkeypatch.setattr(rrpfermat.descent, "_brute_force_system",
                        lambda modulus, check: reached.append(modulus) or real_system(modulus, check))
    code, _, err = run(capsys, "check-quad", *argv)
    assert code in (EXIT_PASS, EXIT_FAIL, EXIT_UNDETERMINED) and err == ""
    assert len(calls) == runs, calls
    assert reached == moduli


def test_frey_degenerate_is_usage_error(capsys):
    """ABC = 0 is refused by frey_curve, before any later step runs, and
    stdout stays empty."""
    for argv in (("--r", "5", "--x", "1", "--y", "-1"),
                 ("--r", "7", "--x", "1", "--y", "-1", "--k", "0,1,2", "--json")):
        code, out, err = run(capsys, "frey", *argv)
        assert code == EXIT_USAGE, argv
        assert err == "usage error: ABC = 0: singular model, j undefined\n"
        assert out == ""


def test_frey_with_x_plus_y_zero_and_no_f0_is_a_curve(capsys):
    """x + y = 0 makes f_0 zero, but with --k 1,2,3 f_0 is not on the curve:
    the model is nonsingular and the op reports it."""
    code, out, err = run(capsys, "frey", "--r", "7", "--x", "1", "--y", "-1",
                         "--k", "1,2,3", "--json")
    assert (code, err) == (EXIT_PASS, "")
    report = json.loads(out)
    assert report["A_plus_B_plus_C"] == [0, 0, 0]
    assert report["j_den"] != [0, 0, 0]
    assert report["coprimality_ok"] and report["conductor_support_outside_S"] == []


def test_frey_unfactored_cofactor(capsys):
    # Phi(1, -4) = 341 = 11 * 31 at r = 5: no candidate 1 + 10t up to the
    # bound 5, isqrt(341) = 18 exceeds it, and Miller-Rabin finds it composite.
    code, out, err = run(
        capsys, "frey", "--r", "5", "--x", "1", "--y", "-4", "--smoothness-bound", "5"
    )
    assert code == EXIT_INTERNAL and out == ""
    assert err == "error: cofactor 116281 has no prime factor <= 5\n"


def test_frey_reports_a_prime_above_the_bound_once_its_square_root_is_passed(capsys):
    """Trial division that passes the square root of the leftover has proved
    it prime: at r = 11, Phi(1, -5) = 12207031 has no factor 1 + 22t up to
    its isqrt, 3,493, so frey reports it although it exceeds the bound."""
    code, out, err = run(capsys, "frey", "--r", "11", "--x", "1", "--y", "-5", "--json")
    assert code == EXIT_PASS and err == ""
    payload = json.loads(out)
    assert payload["conductor_support_outside_S"] == [12207031]
    assert payload["coprimality_ok"] is True
    # Phi(2, 1) = 11 and x + y = 3 at r = 5: isqrt of each is at most 3.
    code, out, err = run(capsys, "frey", "--r", "5", "--x", "2", "--y", "1",
                         "--smoothness-bound", "3", "--json")
    assert code == EXIT_PASS and err == ""
    assert json.loads(out)["conductor_support_outside_S"] == [3, 11]


def test_every_completed_frey_desk_op_reports_the_primes_of_its_norm(capsys):
    """On the frey-desk grid (r <= 23, 1 <= x <= 5, -5 <= y <= 5) 249 ops
    complete and each reports exactly sympy's primes of Phi * |x + y| outside
    {2, r}; the other 10 refuse a composite cofactor."""
    import sympy

    completed = refused = 0
    for r, x, y in FREY_DESK:
        argv = ("frey", "--r", str(r), "--x", str(x), "--y", str(y), "--json")
        code, out, err = run(capsys, *argv)
        if code == EXIT_INTERNAL:
            assert out == "" and err.startswith("error: cofactor "), argv
            assert err.endswith(" has no prime factor <= 100000\n"), argv
            refused += 1
            continue
        assert code == EXIT_PASS, argv
        phi = (x**r + y**r) // (x + y)
        want = [q for q in sympy.primefactors(phi * abs(x + y)) if q not in (2, r)]
        assert json.loads(out)["conductor_support_outside_S"] == want, argv
        completed += 1
    assert (completed, refused) == (249, 10)


# Phi(1, -4) = (2^38 - 1)/3 = 174763 * 524287 at r = 19: no factor up to
# 100000, and Miller-Rabin finds it composite: refused, as the square that two
# nonzero k make of it.
REFUSAL_19_1_M4 = "error: cofactor 8395318191707174178361 has no prime factor <= 100000\n"


def test_frey_refuses_before_the_coprimality_certificate(monkeypatch, capsys):
    """An unfactored conductor cofactor exits 70 before the certificate is
    built, so a refusal does no certificate work and prints no report."""
    import rrpfermat.frey

    def never(curve):
        raise AssertionError("coprimality_check ran before the conductor refused")

    monkeypatch.setattr(rrpfermat.frey, "coprimality_check", never)
    code, out, err = run(capsys, "frey", "--r", "19", "--x", "1", "--y", "-4", "--json")
    assert code == EXIT_INTERNAL
    assert err == REFUSAL_19_1_M4
    assert out == ""


def test_frey_refuses_before_the_invariants(monkeypatch, capsys):
    """The conductor runs before the invariants: a refused op computes none
    and prints nothing, and a completed op computes them once."""
    import rrpfermat.frey

    real = rrpfermat.frey.invariants

    def never(curve):
        raise AssertionError("invariants ran before the conductor refused")

    monkeypatch.setattr(rrpfermat.frey, "invariants", never)
    code, out, err = run(capsys, "frey", "--r", "19", "--x", "1", "--y", "-4", "--json")
    assert code == EXIT_INTERNAL
    assert err == REFUSAL_19_1_M4
    assert out == ""

    calls = []

    def counted(curve):
        calls.append(curve)
        return real(curve)

    monkeypatch.setattr(rrpfermat.frey, "invariants", counted)
    code, out, _ = run(capsys, "frey", "--r", "5", "--x", "2", "--y", "1", "--json")
    assert code == EXIT_PASS and json.loads(out)["j_den"]
    assert len(calls) == 1


def test_a_completed_frey_op_computes_phi_once(monkeypatch, capsys):
    """frey_curve keeps Phi(x, y); the conductor and the coprimality
    certificate read it from the curve."""
    import rrpfermat.frey

    real = rrpfermat.frey._phi
    calls = []

    def counted(x, y, r):
        calls.append((x, y, r))
        return real(x, y, r)

    monkeypatch.setattr(rrpfermat.frey, "_phi", counted)
    code, out, _ = run(capsys, "frey", "--r", "7", "--x", "3", "--y", "2", "--json")
    assert code == EXIT_PASS and json.loads(out)["coprimality_ok"]
    assert calls == [(3, 2, 7)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.sampled_from([5, 7, 11, 13, 17, 19, 23]),
    st.tuples(st.integers(-30, 30), st.integers(-30, 30)).filter(
        lambda p: math.gcd(*p) == 1 and p[0] + p[1] != 0
    ),
    st.sampled_from([5, 100, 100000]),
)
@example(5, (2, 1), 100000)
@example(23, (3, 2), 100000)
@example(7, (1, 0), 5)
@example(11, (1, -5), 100000)
@example(17, (3, -4), 100000)
@example(19, (1, -4), 100000)
@example(5, (3, 1), 5)
@example(5, (1, -4), 5)
def test_frey_exit_matches_the_trial_division_conductor(r, xy, bound):
    """frey exits 70 with the oracle's message exactly when the oracle's odd
    trial division leaves a cofactor that is not one prime it proves
    (oracles.proven_leftover); otherwise it reports the oracle's support and
    a coprime family.  (x + y = 0 is the singular model, exit 64.)"""
    x, y = xy
    curve = frey_curve(build_field(r), x, y, 0, 1, 2)
    try:
        want = oracles.conductor_support_trial_division(curve, bound)
    except UnfactoredCofactorError as exc:
        want = exc
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["frey", "--r", str(r), "--x", str(x), "--y", str(y),
                     "--smoothness-bound", str(bound), "--json"])
    if isinstance(want, UnfactoredCofactorError):
        assert (code, out.getvalue(), err.getvalue()) == (EXIT_INTERNAL, "", f"error: {want}\n")
    else:
        assert code == EXIT_PASS and err.getvalue() == ""
        payload = json.loads(out.getvalue())
        assert payload["conductor_support_outside_S"] == list(want)
        assert payload["coprimality_ok"] is True


def test_json_reports_are_byte_identical_and_parse(capsys):
    code1, out1, _ = run(capsys, "check-q", "--r", "29", "--json")
    code2, out2, _ = run(capsys, "check-q", "--r", "29", "--json")
    assert code1 == code2 == EXIT_FAIL
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["verdict"]["overall"] == "fail"
    assert payload["version"]
    assert list(payload) == ["tool", "version", "command", "input", "verdict"]


def test_json_quad_contains_table_digest(capsys):
    code, out, _ = run(capsys, "check-quad", "--d", "2", "--r", "5", "--json")
    assert code == EXIT_PASS
    payload = json.loads(out)
    assert len(payload["hplus_table_sha256"]) == 64


def test_scan_q_json(capsys):
    code, out, _ = run(capsys, "scan-q", "--max-r", "13", "--json")
    assert code == EXIT_PASS
    payload = json.loads(out)
    assert payload["passing_r"] == [5, 7, 11, 13]


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_json_frey_roundtrip(capsys):
    code, out, _ = run(
        capsys, "frey", "--r", "5", "--x", "2", "--y", "1", "--json"
    )
    assert code == EXIT_PASS
    payload = json.loads(out)
    assert payload["A_plus_B_plus_C"] == [0, 0]
    assert payload["conductor_support_outside_S"] == [3, 11]
    code2, out2, _ = run(
        capsys, "frey", "--r", "5", "--x", "2", "--y", "1", "--json"
    )
    assert out == out2


def test_internal_cross_check_failure_exits_70(monkeypatch, capsys):
    import rrpfermat.frey

    original = rrpfermat.frey.alpha_beta_gamma

    def broken(field, k1, k2, k3):
        alpha, beta, gamma = original(field, k1, k2, k3)
        return alpha, beta, gamma + 1  # A + B + C no longer vanishes

    monkeypatch.setattr(rrpfermat.frey, "alpha_beta_gamma", broken)
    code, _, err = run(capsys, "frey", "--r", "5", "--x", "2", "--y", "1")
    assert code == EXIT_INTERNAL
    assert err.startswith("error:") and "A + B + C" in err


@pytest.mark.parametrize("argv", [
    ["check-q", "--r", "199", "--json"],
    ["scan-q", "--max-r", "30"],
])
def test_a_closed_stdout_pipe_exits_74_without_a_traceback(argv):
    # The read end of the pipe is closed before the child starts, so its
    # first write or flush fails with EPIPE, as under `| head -1`.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    try:
        proc = subprocess.run([sys.executable, "-m", "rrpfermat.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_IOERR == 74
    assert b"Traceback" not in proc.stderr and b"Exception ignored" not in proc.stderr
