"""Inputs the CLI refuses before doing unbounded work."""

import time

from rrpfermat.cli import EXIT_USAGE, MAX_D, main


def test_check_quad_refuses_huge_d_quickly(capsys):
    for d in ("1000000000000000003", str(MAX_D + 1)):
        t0 = time.monotonic()
        code = main(["check-quad", "--d", d, "--r", "11"])
        elapsed = time.monotonic() - t0
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith(f"usage error: --d {d}: desk-scale guard")
        assert elapsed < 1.0
