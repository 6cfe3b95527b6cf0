import random
from fractions import Fraction

import pytest

from rrpfermat.cycfield import build_field
from rrpfermat.descent import (
    CycFrac,
    descent_step,
    norm_necessary_condition,
    pi_plus_four_identity,
    signed_norm_of_pi_r,
)
from rrpfermat.errors import NotCoprimeError
from rrpfermat.galoisring import is_square_pi_r
from rrpfermat.numutil import primes_upto, two_adic_valuation
from rrpfermat.splitting import split_2_in_Qplus


def test_descent_step_rational_examples():
    pair = descent_step(3)
    assert pair.lam == Fraction(-1, 3) and pair.mu == Fraction(4, 3)
    pair = descent_step(Fraction(1, 3))
    assert pair.lam + pair.mu == 1
    for bad in (0, 1, -1, Fraction(1), Fraction(-1)):
        with pytest.raises(ValueError):
            descent_step(bad)


def test_descent_step_two_adic_growth_example():
    # tau = 17: lambda = 1 - tau^2 = -288 with v2 = 5 > 4, v2(1+tau) = 1;
    # the new lambda' = -256/68 has v2 = 2*4 - 2 = 6 > 5.
    pair = descent_step(17, val=two_adic_valuation)
    assert pair.v_lam == 6
    assert pair.lam + pair.mu == 1


def test_descent_step_sums_to_one_500_random():
    rng = random.Random(2718281)
    f5 = build_field(5)
    f7 = build_field(7)
    checked = 0
    while checked < 400:
        num = rng.randint(-50, 50)
        den = rng.randint(1, 50)
        tau = Fraction(num, den)
        if tau in (0, 1, -1):
            continue
        pair = descent_step(tau)
        assert pair.lam + pair.mu == 1
        checked += 1
    one5 = CycFrac(f5.one, f5.one)
    one7 = CycFrac(f7.one, f7.one)
    while checked < 500:
        f = f5 if checked % 2 else f7
        one = one5 if checked % 2 else one7
        num = f.element([rng.randint(-8, 8) for _ in range(f.degree)])
        den = f.element([rng.randint(-8, 8) for _ in range(f.degree)])
        if num.is_zero() or den.is_zero():
            continue
        tau = CycFrac(num, den)
        if tau == 0 or tau == one or tau == -one:
            continue
        pair = descent_step(tau)
        assert pair.lam + pair.mu == one
        checked += 1
    assert checked == 500


def test_descent_valuation_growth_engineered():
    # tau = (b + 2^k m)/b with b, m odd and k >= 4 gives v(lambda) = k + 1 > 4
    # and v(1 + tau) = 1; then v(lambda') = 2k - 2 > k + 1.
    rng = random.Random(11235)
    for i in range(200):
        b = rng.randrange(1, 200, 2)
        m = rng.randrange(1, 200, 2)
        k = rng.randint(4, 12)
        tau = Fraction(b + (1 << k) * m, b)
        negated = bool(i % 2)
        if negated:
            # symmetric sign choice: swaps v(1 - tau) and v(1 + tau), so the
            # deep valuation lands on mu' instead of lambda'
            tau = -tau
        lam_before = 1 - tau * tau
        v_before = two_adic_valuation(lam_before)
        assert v_before == k + 1
        pair = descent_step(tau, val=two_adic_valuation)
        deep, shallow = (pair.v_mu, pair.v_lam) if negated else (pair.v_lam, pair.v_mu)
        assert deep == 2 * k - 2
        assert deep > v_before
        assert shallow == 0


def test_pi_plus_four_identity_small():
    # r = 5: s(2) = -theta - 1 and (-theta-1)^2 = theta + 2 = pi_5 + 4.
    f5 = build_field(5)
    s = f5.theta_power_sum(2)
    assert s.coeffs == (-1, -1)
    assert pi_plus_four_identity(f5)
    assert pi_plus_four_identity(build_field(7))


def test_pi_plus_four_identity_all_r():
    for r in primes_upto(150):
        if r < 5:
            continue
        assert pi_plus_four_identity(build_field(r)), r


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
