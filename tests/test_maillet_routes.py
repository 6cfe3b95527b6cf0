"""The two routes to h_r^-: Bareiss on the r-reduced Maillet matrix (the
implementation) against Bareiss on the full matrix (the oracle), and the
GF(2) parity check that maillet_h_minus runs on every call."""

import pytest

import rrpfermat.classnumber as classnumber
from rrpfermat.classnumber import maillet_h_minus
from rrpfermat.cli import EXIT_INTERNAL, main
from rrpfermat.errors import ConsistencyError
from rrpfermat.intlinalg import bareiss_det, gf2_det
from rrpfermat.numutil import primes_upto

import oracles

PRIMES = [r for r in primes_upto(199) if r >= 5]


@pytest.mark.parametrize("r", PRIMES)
def test_reduced_determinant_equals_full_maillet_determinant(r):
    full = oracles.maillet_matrix(r)
    res = maillet_h_minus(r)
    assert res.determinant == bareiss_det(full)
    assert gf2_det(oracles.packed_mod2(full)) == res.h_minus % 2


def test_gf2_disagreement_raises_and_exits_70(monkeypatch, capsys):
    monkeypatch.setattr(classnumber, "gf2_det", lambda rows: 1 - gf2_det(rows))
    with pytest.raises(ConsistencyError, match="GF\\(2\\)"):
        maillet_h_minus(29)
    code = main(["check-q", "--r", "29"])
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL
    assert captured.err.startswith("error:") and "GF(2)" in captured.err
