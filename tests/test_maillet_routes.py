"""The routes to h_r^-: the resultant of x^m + 1 and Qbar with the closed-form
sign (the implementation) against Bareiss on the full Maillet matrix (the
oracle), the GF(2) parity check that maillet_h_minus runs on every call, and
the Bareiss check of the signed value that it runs for r <= 61.  The
resultant by packed conjugates equals the subresultant reference on the
real Qbar at every prime."""

import pytest

import rrpfermat.classnumber as classnumber
from rrpfermat.classnumber import maillet_h_minus
from rrpfermat.cli import EXIT_INTERNAL, main
from rrpfermat.errors import ConsistencyError
from rrpfermat.intlinalg import bareiss_det, gf2_det, negacyclic_resultant
from rrpfermat.numutil import primes_upto

import oracles

PRIMES = [r for r in primes_upto(199) if r >= 5]


@pytest.mark.parametrize("r", PRIMES)
def test_reduced_determinant_equals_full_maillet_determinant(r):
    full = oracles.maillet_matrix(r)
    res = maillet_h_minus(r)
    assert res.determinant == bareiss_det(full)
    assert gf2_det(oracles.packed_mod2(full)) == res.h_minus % 2


@pytest.mark.parametrize("r", PRIMES)
def test_negacyclic_resultant_equals_the_subresultant_on_qbar(r):
    q_bar = oracles.maillet_qbar(r)
    m = len(q_bar)
    assert negacyclic_resultant(q_bar) == oracles.resultant([1] + [0] * (m - 1) + [1], q_bar)


def test_gf2_disagreement_raises_and_exits_70(monkeypatch, capsys):
    monkeypatch.setattr(classnumber, "gf2_det", lambda rows: 1 - gf2_det(rows))
    with pytest.raises(ConsistencyError, match="GF\\(2\\)"):
        maillet_h_minus(29)
    code = main(["check-q", "--r", "29"])
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL
    assert captured.err.startswith("error:") and "GF(2)" in captured.err


def test_wrong_resultant_raises_and_exits_70(monkeypatch, capsys):
    # Three times the true resultant still divides exactly and keeps the
    # parity of h^- = 8; the Bareiss check of the signed value catches it.
    monkeypatch.setattr(classnumber, "negacyclic_resultant", lambda q: 3 * negacyclic_resultant(q))
    with pytest.raises(ConsistencyError, match="Bareiss"):
        maillet_h_minus(29)
    code = main(["check-q", "--r", "29"])
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL
    assert captured.err.startswith("error:") and "Bareiss" in captured.err


def test_inexact_quotient_raises_past_the_bareiss_range(monkeypatch):
    # A resultant one larger in absolute value leaves a remainder; at r = 199
    # the floor of the quotient would still be h^-, with its parity, and no
    # Bareiss check runs, so only the exactness check can see it.
    def off_by_one(q):
        value = negacyclic_resultant(q)
        return value + (1 if value > 0 else -1)

    monkeypatch.setattr(classnumber, "negacyclic_resultant", off_by_one)
    with pytest.raises(ConsistencyError, match="not divisible"):
        maillet_h_minus(199)


def test_bareiss_disagreement_raises(monkeypatch):
    monkeypatch.setattr(classnumber, "bareiss_det", lambda rows: -bareiss_det(rows))
    with pytest.raises(ConsistencyError, match="Bareiss"):
        maillet_h_minus(29)


def test_bareiss_checks_only_up_to_its_bound(monkeypatch):
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return bareiss_det(rows)

    monkeypatch.setattr(classnumber, "bareiss_det", counted)
    for r in PRIMES:
        maillet_h_minus(r)
    assert len(calls) == 16 and max(calls) == 30
    calls.clear()
    assert maillet_h_minus(199).h_minus == 18844055286602530802019847012721555487
    assert calls == []
