"""Inputs the CLI refuses before doing unbounded work."""

import time

from rrpfermat.cli import EXIT_INTERNAL, EXIT_USAGE, MAX_D, MAX_SMOOTHNESS_BOUND, main


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


def test_frey_smoothness_bound_3_still_refuses_the_cofactor(capsys):
    code = main(["frey", "--r", "5", "--x", "2", "--y", "1", "--smoothness-bound", "3"])
    assert code == EXIT_INTERNAL
    assert capsys.readouterr().err == "error: cofactor 121 has no prime factor <= 3\n"
