import pytest

from rrpfermat.cycfield import build_field
from rrpfermat.descent import norm_necessary_condition, signed_norm_of_pi_r
from rrpfermat.errors import NotCoprimeError
from rrpfermat.galoisring import is_square_pi_r
from rrpfermat.numutil import primes_upto
from rrpfermat.splitting import split_2_in_Qplus


def test_pi_plus_four_identity_small():
    # r = 5: s(2) = -theta - 1 and (-theta-1)^2 = theta + 2 = pi_5 + 4.
    f5 = build_field(5)
    s = f5.theta_power_sum(2)
    assert s.coeffs == (-1, -1)
    for f in (f5, build_field(7)):
        assert f.theta_power_sum(f.degree) ** 2 == f.pi_r() + 4


def test_pi_plus_four_identity_all_r():
    for r in primes_upto(150):
        if r < 5:
            continue
        f = build_field(r)
        assert f.theta_power_sum(f.degree) ** 2 == f.pi_r() + 4, r


def test_signed_norm():
    assert signed_norm_of_pi_r(5) == 5  # degree 2, even
    assert signed_norm_of_pi_r(7) == -7  # degree 3, odd
    assert signed_norm_of_pi_r(13) == 13
    for r in primes_upto(60):
        if r < 5:
            continue
        f = build_field(r)
        assert f.norm(f.pi_r()) == signed_norm_of_pi_r(r), r


def test_norm_necessary_condition_base_q():
    # Signed norms: -7 = 25 mod 32 is a square residue, so r = 7 survives;
    # 5 and 11 and 13 are ruled out; 17 = 1 mod 8 survives.
    assert norm_necessary_condition(0, 7) is True
    assert norm_necessary_condition(0, 5) is False
    assert norm_necessary_condition(0, 11) is False
    assert norm_necessary_condition(0, 13) is False
    assert norm_necessary_condition(0, 17) is True
    assert norm_necessary_condition(0, 23) is True  # -23 = 9 mod 32
    # closed form: survives exactly when r = +-1 mod 8
    for r in primes_upto(150):
        if r < 5:
            continue
        assert norm_necessary_condition(0, r) == (r % 8 in (1, 7)), r


def test_norm_necessary_condition_quadratic_examples():
    # d = 2, r = 13: 13 = 5 mod 8, neither 1 nor d mod 8: ruled out.
    assert norm_necessary_condition(2, 13) is False
    assert norm_necessary_condition(2, 5) is False
    # d = 2, r = 17: 17 = 1 mod 8 survives.
    assert norm_necessary_condition(2, 17) is True
    # d = 5, r = 13: signed norm +13 = 5 = d mod 8 survives.
    assert norm_necessary_condition(5, 13) is True


def test_norm_necessary_condition_guards():
    with pytest.raises(NotCoprimeError):
        norm_necessary_condition(5, 5)
    with pytest.raises(ValueError):
        norm_necessary_condition(17, 5)  # d = 1 mod 8: no unique prime
    with pytest.raises(ValueError):
        norm_necessary_condition(12, 5)  # not squarefree
    with pytest.raises(ValueError, match="squarefree integer > 1"):
        norm_necessary_condition(1, 5)  # refused by the d rule, not as 1 mod 8
    with pytest.raises(ValueError):
        norm_necessary_condition(0, 9)


def test_residue_system_agreement_grid():
    # Enumeration and closed form must agree for every pair (hard error
    # inside norm_necessary_condition otherwise).
    for d in (2, 3, 5, 6, 7, 10, 11, 13):
        for r in primes_upto(150):
            if r < 5 or d % r == 0 or d % 8 == 1:
                continue
            norm_necessary_condition(d, r)


def test_soundness_link_square_implies_norm_survives():
    for r in primes_upto(150):
        if r < 5 or not split_2_in_Qplus(r).inert:
            continue
        if is_square_pi_r(build_field(r)):
            assert norm_necessary_condition(0, r) is True, r
