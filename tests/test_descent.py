import pytest

from rrpfermat import descent
from rrpfermat.criteria import check_four_hypotheses
from rrpfermat.cycfield import build_field
from rrpfermat.descent import norm_necessary_condition, signed_norm_of_pi_r
from rrpfermat.errors import ConsistencyError, NotCoprimeError
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
    assert signed_norm_of_pi_r(build_field(5)) == 5  # degree 2, even
    assert signed_norm_of_pi_r(build_field(7)) == -7  # degree 3, odd
    assert signed_norm_of_pi_r(build_field(13)) == 13
    for r in primes_upto(60):
        if r < 5:
            continue
        f = build_field(r)
        assert f.norm(f.pi_r()) == signed_norm_of_pi_r(f), r


def test_norm_necessary_condition_base_q():
    # Signed norms: -7 = 25 mod 32 is a square residue, so r = 7 survives;
    # 5 and 11 and 13 are ruled out; 17 = 1 mod 8 survives.
    assert norm_necessary_condition(0, build_field(7)) is True
    assert norm_necessary_condition(0, build_field(5)) is False
    assert norm_necessary_condition(0, build_field(11)) is False
    assert norm_necessary_condition(0, build_field(13)) is False
    assert norm_necessary_condition(0, build_field(17)) is True
    assert norm_necessary_condition(0, build_field(23)) is True  # -23 = 9 mod 32
    # closed form: survives exactly when r = +-1 mod 8
    for r in primes_upto(150):
        if r < 5:
            continue
        assert norm_necessary_condition(0, build_field(r)) == (r % 8 in (1, 7)), r


def test_norm_necessary_condition_quadratic_examples():
    # d = 2, r = 13: 13 = 5 mod 8, neither 1 nor d mod 8: ruled out.
    assert norm_necessary_condition(2, build_field(13)) is False
    assert norm_necessary_condition(2, build_field(5)) is False
    # d = 2, r = 17: 17 = 1 mod 8 survives.
    assert norm_necessary_condition(2, build_field(17)) is True
    # d = 5, r = 13: signed norm +13 = 5 = d mod 8 survives.
    assert norm_necessary_condition(5, build_field(13)) is True


def test_norm_necessary_condition_guards():
    with pytest.raises(NotCoprimeError):
        norm_necessary_condition(5, build_field(5))
    with pytest.raises(ValueError, match="^d = 17 = 1 mod 8: 2 splits in the base field, no unique prime$"):
        norm_necessary_condition(17, build_field(5))
    # 2 splits in Q(sqrt(d)) only for d = 1 mod 8; a d divisible by 4 is no
    # checked base, and the refusal says so.
    for d in (12, 4):
        with pytest.raises(ValueError, match=f"^d = {d} is divisible by 4: not a squarefree base$"):
            norm_necessary_condition(d, build_field(5))
    # norm_necessary_condition takes a checked base_d: its only caller
    # refuses a d that is not a squarefree integer > 1, even 1 = 1 mod 8.
    for d in (12, 1):
        with pytest.raises(ValueError, match="squarefree integer > 1"):
            check_four_hypotheses(d, 5)
    with pytest.raises(ValueError):
        check_four_hypotheses(0, 9)  # its only caller refuses r where it builds the field


def test_residue_system_agreement_grid():
    # Enumeration and closed form must agree for every pair (hard error
    # inside norm_necessary_condition otherwise).
    for d in (2, 3, 5, 6, 7, 10, 11, 13):
        for r in primes_upto(150):
            if r < 5 or d % r == 0 or d % 8 == 1:
                continue
            norm_necessary_condition(d, build_field(r))


def test_an_enumeration_that_disagrees_with_the_closed_form_is_refused(monkeypatch):
    # Inverting the one enumerator breaks the residue-system route of every
    # base once: Q (mod 32), d = 5 mod 8 (mod 32) and d = 2, 3 mod 4 (mod 16).
    real = descent._brute_force_system
    monkeypatch.setattr(descent, "_brute_force_system", lambda modulus, check: not real(modulus, check))
    for d in (0, 5, 2, 3):
        with pytest.raises(ConsistencyError, match=f"^residue system \\(d={d}, r=13\\)"):
            norm_necessary_condition(d, build_field(13))


def test_soundness_link_square_implies_norm_survives():
    for r in primes_upto(150)[2:]:
        field = build_field(r)
        if split_2_in_Qplus(field).inert and is_square_pi_r(field):
            assert norm_necessary_condition(0, field) is True, r
