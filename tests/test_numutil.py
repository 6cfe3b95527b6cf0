"""is_squarefree trial-divides only while p^3 <= m, m the cofactor left, and
finishes with a perfect-square test; checked against sympy.factorint.  The
least primitive root is checked against sympy.primitive_root on its domain,
the odd primes up to MAX_R."""

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from rrpfermat.cli import MAX_D
from rrpfermat.numutil import (
    MAX_R,
    is_squarefree,
    least_primitive_root,
    legendre_symbol,
    order_of_two_mod_pm1,
    primes_upto,
)
from rrpfermat.splitting import check_r_inert_in_quadratic


def _sympy_squarefree(n: int) -> bool:
    return all(e == 1 for e in sp.factorint(n).values())


_with_square_factor = st.builds(
    lambda a, b: a * a * b, st.integers(2, 10**6), st.integers(1, 10**4)
).filter(lambda n: n <= MAX_D)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(st.integers(1, MAX_D), _with_square_factor))
def test_is_squarefree_matches_factorint(n):
    assert is_squarefree(n) == _sympy_squarefree(n)


def test_is_squarefree_small_range_and_nonpositive():
    assert not is_squarefree(0) and not is_squarefree(-5)
    for n in range(1, 5000):
        assert is_squarefree(n) == _sympy_squarefree(n), n


def test_is_squarefree_cofactors_with_at_most_two_primes():
    # Near MAX_D the loop stops near p = 10^4 and leaves such cofactors.
    p = sp.prevprime(10**6)  # p^2 < MAX_D
    q = sp.prevprime(p)
    s = sp.prevprime(10**4)
    t = sp.prevprime(s)
    u = sp.prevprime(t)
    cases = [
        (p, True),
        (p * q, True),
        (p * p, False),
        (2 * sp.prevprime(7 * 10**5) ** 2, False),
        (s * s * t, False),
        (s**3, False),
        (s * t * u, True),
        (999999999989, True),  # prime, just below MAX_D
    ]
    for n, expected in cases:
        assert n <= MAX_D
        assert _sympy_squarefree(n) is expected, n
        assert is_squarefree(n) is expected, n


def test_least_primitive_root_matches_sympy():
    for p in primes_upto(MAX_R)[1:]:
        assert least_primitive_root(p) == sp.primitive_root(p), p
    for bad in (2, 9, 1, MAX_R + 1):
        with pytest.raises(ValueError):
            least_primitive_root(bad)


def test_order_of_two_mod_pm1_against_sympy_n_order():
    # The order of 2 mod ±1 is the order of 2 mod r, halved when that order
    # is even (then -1 is a power of 2 in the cyclic group (Z/r)^*).
    for r in primes_upto(MAX_R)[1:]:
        o = sp.n_order(2, r)
        assert order_of_two_mod_pm1(r) == (o // 2 if o % 2 == 0 else o), r
    for bad in (2, 9, 1, MAX_R + 1):
        with pytest.raises(ValueError):
            order_of_two_mod_pm1(bad)


def test_order_of_two_bound_checked_before_primality(monkeypatch):
    def no_primality_test(_):
        raise AssertionError("primality tested before the MAX_R bound")

    monkeypatch.setattr("rrpfermat.numutil.is_prime", no_primality_test)
    r = 10**30 + 57
    with pytest.raises(ValueError, match=f"r = {r} exceeds MAX_R = {MAX_R}"):
        order_of_two_mod_pm1(r)


@pytest.mark.parametrize("call", [
    lambda r: legendre_symbol(2, r),
    lambda r: check_r_inert_in_quadratic(2, r),
    least_primitive_root,
])
def test_legendre_bound_checked_before_primality(monkeypatch, call):
    # A huge r is refused by the bound alone, before any trial division.
    def no_primality_test(_):
        raise AssertionError("primality tested before the MAX_R bound")

    monkeypatch.setattr("rrpfermat.numutil.is_prime", no_primality_test)
    r = 10**30 + 57
    with pytest.raises(ValueError, match=f"p = {r} exceeds MAX_R = {MAX_R}"):
        call(r)


def test_legendre_symbol_against_squares():
    for p in primes_upto(MAX_R)[1:]:
        squares = {x * x % p for x in range(1, p)}
        for a in range(-p, 2 * p):
            expected = 0 if a % p == 0 else (1 if a % p in squares else -1)
            assert legendre_symbol(a, p) == expected, (a, p)
    for bad in (2, 9, 1, 0, -7, MAX_R + 1):
        with pytest.raises(ValueError):
            legendre_symbol(1, bad)
