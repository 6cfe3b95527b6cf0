"""Inputs the CLI refuses before doing unbounded work."""

import time

from rrpfermat.cli import (
    EXIT_INTERNAL,
    EXIT_PASS,
    EXIT_USAGE,
    MAX_D,
    MAX_FREY_R,
    MAX_FREY_XY,
    MAX_SMOOTHNESS_BOUND,
    main,
)
from rrpfermat.numutil import MAX_R


def test_check_quad_refuses_huge_d_quickly(capsys):
    for d in ("1000000000000000003", str(MAX_D + 1)):
        t0 = time.monotonic()
        code = main(["check-quad", "--d", d, "--r", "11"])
        elapsed = time.monotonic() - t0
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith(f"usage error: --d {d}: desk-scale guard")
        assert elapsed < 1.0


def test_frey_refuses_smoothness_bound_out_of_range_quickly(capsys):
    for bound in ("-1", "0", "2", str(MAX_SMOOTHNESS_BOUND + 1), str(10**12)):
        t0 = time.monotonic()
        code = main(["frey", "--r", "5", "--x", "2", "--y", "1", "--smoothness-bound", bound])
        elapsed = time.monotonic() - t0
        err = capsys.readouterr().err
        assert code == EXIT_USAGE, bound
        assert err.startswith(f"usage error: --smoothness-bound {bound}: "), err
        assert elapsed < 1.0


def test_huge_r_is_refused_before_the_primality_test(capsys, monkeypatch):
    # Trial division up to sqrt(r) never finishes on a 31-digit r; the bound
    # must be checked first, so is_prime is never reached.
    def no_trial_division(n):
        raise AssertionError(f"is_prime({n}) ran before the desk-scale guard")

    monkeypatch.setattr("rrpfermat.numutil.is_prime", no_trial_division)
    r = str(10**30 + 57)
    for argv in (["check-q"], ["check-quad", "--d", "2"], ["frey", "--x", "3", "--y", "2"]):
        t0 = time.monotonic()
        code = main([*argv, "--r", r])
        elapsed = time.monotonic() - t0
        assert code == EXIT_USAGE, argv
        assert capsys.readouterr().err == f"usage error: --r {r}: desk-scale guard is r <= {MAX_R}\n"
        assert elapsed < 1.0


def test_frey_smoothness_bound_3_still_refuses_the_cofactor(capsys):
    # Phi(1, -4) = 341 = 11 * 31 at r = 5 has no factor 1 + 10t up to 3, and
    # isqrt(341) = 18 exceeds 3; Miller-Rabin finds it composite, so its square
    # is refused.  At (2, 1) the same bound proves Phi = 11 prime
    # (isqrt(11) = 3).
    code = main(["frey", "--r", "5", "--x", "1", "--y", "-4", "--smoothness-bound", "3"])
    assert code == EXIT_INTERNAL
    assert capsys.readouterr().err == "error: cofactor 116281 has no prime factor <= 3\n"
    code = main(["frey", "--r", "5", "--x", "2", "--y", "1", "--smoothness-bound", "3"])
    assert code == EXIT_PASS
    assert "conductor support outside {2, 5}: [3, 11]\n" in capsys.readouterr().out


def test_frey_refuses_large_r_quickly(capsys):
    for r in ("37", "47", "199"):
        t0 = time.monotonic()
        code = main(["frey", "--r", r, "--x", "3", "--y", "2"])
        elapsed = time.monotonic() - t0
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"usage error: --r {r}: frey's desk-scale guard is r <= {MAX_FREY_R}\n")
        assert elapsed < 1.0


def test_frey_refuses_large_x_y_quickly(capsys):
    big = MAX_FREY_XY + 1
    for name, x, y, value in (("x", -big, 1, -big), ("y", 1, big, big)):
        t0 = time.monotonic()
        code = main(["frey", "--r", "5", "--x", str(x), "--y", str(y)])
        elapsed = time.monotonic() - t0
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"usage error: --{name} {value}: desk-scale guard is |{name}| <= {MAX_FREY_XY}\n")
        assert elapsed < 1.0


def test_frey_corner_finishes_in_bounded_time(capsys):
    # The largest accepted r, |x|, |y| and smoothness bound together: the
    # cofactor survives trial division, so the whole loop runs (about 3 s on
    # a 2-vCPU Xeon), and the op is refused rather than left running.
    t0 = time.monotonic()
    code = main(["frey", "--r", str(MAX_FREY_R), "--x", str(MAX_FREY_XY),
                 "--y", str(MAX_FREY_XY - 1), "--smoothness-bound", str(MAX_SMOOTHNESS_BOUND)])
    elapsed = time.monotonic() - t0
    assert code == EXIT_INTERNAL
    assert capsys.readouterr().err.endswith(f"has no prime factor <= {MAX_SMOOTHNESS_BOUND}\n")
    assert elapsed < 10.0
