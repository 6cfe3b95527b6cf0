import pytest

import rrpfermat.splitting as splitting
from rrpfermat.numutil import primes_upto
from rrpfermat.splitting import (
    SplittingReport,
    check_r_inert_in_quadratic,
    split_2_in_Kplus,
    split_2_in_Qplus,
    split_2_in_quadratic,
    split_r_in_Qplus,
)

import oracles


def test_report_invariant_enforced():
    with pytest.raises(ValueError):
        SplittingReport(2, 4, ((1, 1), (1, 2)))
    rep = SplittingReport(2, 4, ((1, 2), (1, 2)))
    assert not rep.unique and not rep.inert
    rep = SplittingReport(2, 4, ((1, 4),))
    assert rep.unique and rep.inert
    rep = SplittingReport(2, 4, ((2, 2),))
    assert rep.unique and not rep.inert


def test_split_2_in_Qplus_examples():
    rep = split_2_in_Qplus(5)
    assert rep.primes == ((1, 2),) and rep.inert
    rep = split_2_in_Qplus(7)
    assert rep.primes == ((1, 3),) and rep.inert
    rep = split_2_in_Qplus(31)
    assert rep.primes == ((1, 5), (1, 5), (1, 5)) and not rep.inert and not rep.unique


def test_split_2_in_Qplus_residue_degree_oracle():
    for r in primes_upto(150):
        if r < 5:
            continue
        rep = split_2_in_Qplus(r)
        f = rep.primes[0][1]
        assert all(e == 1 for e, _ in rep.primes), r
        assert all(fi == f for _, fi in rep.primes), r
        assert f == oracles.two_residue_degree(r), r
        assert sum(e * fi for e, fi in rep.primes) == (r - 1) // 2


def test_split_2_in_quadratic_table():
    assert split_2_in_quadratic(5).inert
    rep = split_2_in_quadratic(2)
    assert rep.primes == ((2, 1),) and rep.unique and not rep.inert
    rep = split_2_in_quadratic(17)
    assert rep.primes == ((1, 1), (1, 1)) and not rep.unique
    assert split_2_in_quadratic(3).primes == ((2, 1),)
    for bad in (0, -5, 1, 12, 18):
        with pytest.raises(ValueError):
            split_2_in_quadratic(bad)


def test_split_2_in_Kplus_examples():
    rep = split_2_in_Kplus(2, 5)
    assert rep.primes == ((2, 2),) and rep.unique
    rep = split_2_in_Kplus(5, 7)
    assert rep.primes == ((1, 6),) and rep.unique and rep.inert
    rep = split_2_in_Kplus(5, 5)
    assert rep.primes == ((1, 2), (1, 2)) and not rep.unique


def test_split_2_in_Kplus_degree_and_consistency():
    for d in (2, 3, 5, 6, 7, 10, 11, 13, 17):
        quad = split_2_in_quadratic(d)
        for r in (5, 7, 11, 13):
            base = split_2_in_Qplus(r)
            rep = split_2_in_Kplus(d, r)
            assert rep.field_degree == r - 1
            assert sum(e * f for e, f in rep.primes) == r - 1
            # If 2 already splits in the quadratic field or in Q+, the
            # compositum cannot have a unique prime.
            if not quad.unique or not base.unique:
                assert not rep.unique, (d, r)


def test_split_2_in_Kplus_against_global_oracle():
    checked = 0
    shapes = set()
    for d in (2, 3, 5, 6, 7, 10, 13, 17, 21, 29, 33):
        for r in (5, 7, 11):
            expected = oracles.quad_tower_splitting(d, r)
            if expected is None:
                continue  # no Dedekind certificate for this generator
            got = sorted(split_2_in_Kplus(d, r).primes)
            assert got == expected, (d, r, got, expected)
            checked += 1
            shapes.add(tuple(expected))
    assert checked >= 20
    # the certified set must exercise ramified, inert and split fibers
    assert any(e == 2 for shape in shapes for e, _ in shape)
    assert any(len(shape) == 1 and shape[0][0] == 1 for shape in shapes)
    assert any(len(shape) == 2 for shape in shapes)


def test_split_r_in_Qplus():
    rep = split_r_in_Qplus(5)
    assert rep.rational_prime == 5 and rep.primes == ((2, 1),) and rep.unique
    rep = split_r_in_Qplus(7)
    assert rep.primes == ((3, 1),)
    for r in [x for x in primes_upto(60) if x >= 5]:
        rep = split_r_in_Qplus(r)
        assert rep.primes == (((r - 1) // 2, 1),)
        assert sum(e * f for e, f in rep.primes) == (r - 1) // 2


def test_check_r_inert_in_quadratic():
    assert check_r_inert_in_quadratic(2, 5) is True  # (2|5) = -1
    assert check_r_inert_in_quadratic(2, 7) is False  # 2 = 3^2 mod 7
    assert check_r_inert_in_quadratic(5, 7) is True  # squares mod 7: {1,2,4}
    assert check_r_inert_in_quadratic(5, 5) is None  # r | d: r ramifies
    assert check_r_inert_in_quadratic(14, 7) is None


def test_check_r_inert_matches_legendre_oracle():
    # Exhaustive square tables as the independent route.
    for r in (5, 7, 11, 13):
        squares = {(x * x) % r for x in range(1, r)}
        for d in range(2, 40):
            if d % r == 0:
                continue
            assert check_r_inert_in_quadratic(d, r) == (d % r not in squares), (d, r)


@pytest.mark.parametrize("d", [2, 3, 5, 17])
def test_the_quadratic_fiber_is_computed_once_per_op(monkeypatch, d):
    # Every prime above 2 in Q+ has the same residue degree, so at r = 31
    # (three primes of degree 5) one fiber serves all three.
    calls = []
    real_fiber = splitting._quadratic_fiber
    monkeypatch.setattr(splitting, "_quadratic_fiber", lambda d, f: calls.append(f) or real_fiber(d, f))
    rep = split_2_in_Kplus(d, 31)
    assert calls == [5]
    assert rep.primes == tuple(sorted(real_fiber(d, 5) * 3))
