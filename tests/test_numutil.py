"""is_squarefree trial-divides only while p^3 <= m, m the cofactor left, and
finishes with a perfect-square test; checked against sympy.factorint.  The
least primitive root is checked against sympy.primitive_root on its domain,
the odd primes up to MAX_R.  The packed-slot format, Slots, is checked value
by value: its round trips, its parity reader against ffpoly.f2_from_coeffs,
and its width at every array-type boundary."""

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from rrpfermat.cli import MAX_D
from rrpfermat.ffpoly import f2_from_coeffs
from rrpfermat.numutil import (
    MAX_R,
    Slots,
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


@st.composite
def slot_values(draw):
    """(bits, values): 1 to 40 values below 2^bits, at widths that reach
    every array type and the whole-byte slots past 64 bits."""
    bits = draw(st.sampled_from([1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 72, 100]))
    return bits, draw(st.lists(st.integers(0, (1 << bits) - 1), min_size=1, max_size=40))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(slot_values(), st.integers(0, 2**40 - 1))
def test_slots_round_trips_and_parity(case, low):
    bits, values = case
    slots = Slots(bits, len(values))
    packed = slots.pack(values)
    assert slots.unpack(packed) == values
    assert slots.residue(packed) == f2_from_coeffs(values)
    low &= (1 << len(values)) - 1
    lifted = slots.lift(low)
    assert slots.unpack(lifted) == [(low >> i) & 1 for i in range(len(values))]
    assert slots.residue(lifted) == low


@settings(max_examples=100, deadline=None, derandomize=True)
@given(slot_values(), st.integers(1, 5), st.integers(1, 7))
def test_slots_pack_strided_slices_of_a_tile(case, times, step):
    bits, values = case
    slots = Slots(bits)
    tiled = values * times
    chunk = slots.tile(values, times)[::step]
    assert slots.unpack(slots.pack(chunk), len(chunk)) == tiled[::step]


@pytest.mark.parametrize("bits, width, code", [
    (1, 8, "B"), (8, 8, "B"), (9, 16, "H"), (16, 16, "H"), (17, 32, "I"),
    (32, 32, "I"), (33, 64, "Q"), (64, 64, "Q"), (65, 72, None), (72, 72, None), (73, 80, None),
])
def test_slots_width_at_each_boundary(bits, width, code):
    # The narrowest array type at least `bits` wide, then whole bytes.
    assert (Slots(bits).bits, Slots(bits).code) == (width, code)


@pytest.mark.parametrize("r, width", [(127, 8), (131, 16)])
def test_parity_row_slots_switch_between_127_and_131(r, width):
    # classnumber.maillet_parity_rows packs residues mod r in
    # Slots(r.bit_length() + 1): a sum of two residues, below 2r, must fit a
    # slot, and the slot's top bit must lie above r.  Bytes hold that up to
    # r = 127; r = 131 takes 16-bit slots.
    bits = Slots(r.bit_length() + 1).bits
    assert bits == width
    assert 2 * r <= 1 << bits and r < 1 << (bits - 1)
    assert (r < 1 << 7) == (width == 8)
