"""trial_factor, the package's one trial-division factoriser, is checked
against sympy.factorint on the candidate sequences of its callers, and
is_prime, which factors through it, against sympy.isprime.
is_squarefree trial-divides only while p^3 <= m, m the cofactor left, and
finishes with a perfect-square test; checked against sympy.factorint.  The
least primitive root is checked against sympy.primitive_root on its domain,
the odd primes up to MAX_R.  The packed-slot format, Slots, is checked value
by value: its round trips, its parity reader against ffpoly.f2_from_coeffs,
and its width at every array-type boundary."""

import math

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rrpfermat.cli import EXIT_INTERNAL, MAX_D, main
from rrpfermat.errors import ConsistencyError
from rrpfermat.ffpoly import f2_from_coeffs
from rrpfermat.numutil import (
    MAX_R,
    _MR_BASES,
    Slots,
    _proves_prime,
    _strong_lucas,
    _strong_probable_prime,
    is_prime,
    is_squarefree,
    least_primitive_root,
    legendre_symbol,
    order_of_two_mod_pm1,
    primes_upto,
    trial_factor,
)
from rrpfermat.splitting import check_r_inert_in_quadratic

from oracles import MILLER_RABIN_LIMIT, proven_leftover


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


def _least_candidate_prime(m, start, step):
    """The least prime at least m among start, start + step, ..."""
    q = start + max(0, -((start - m) // step)) * step
    while not sp.isprime(q):
        q += step
    return q


@st.composite
def _trial_division_cases(draw):
    """(n, start, step, bound) with n a product of powers of candidate primes
    for one caller's sequence: every integer from 2 (is_prime and
    least_primitive_root), the odd numbers from 3 (|x + y| in the Frey
    conductor) or the 1 + 2rt of Phi; primes up to the bound, just above
    it, around (bound + 1)^2 and up to 10^11, so that what is left above the
    bound is 1, a prime on either side of (bound + 1)^2 or of
    MILLER_RABIN_LIMIT, a prime power or a product of primes."""
    start, step = draw(st.one_of(
        st.sampled_from([(2, 1), (3, 2)]),
        st.sampled_from([5, 7, 11, 13, 17, 19, 23, 31]).map(lambda r: (2 * r + 1, 2 * r)),
    ))
    bound = draw(st.one_of(st.sampled_from([3, 5, 100, 10**5]), st.integers(3, 10**5)))
    square = (bound + 1) ** 2
    near = st.one_of(st.integers(1, bound), st.integers(bound, 2 * bound + 50))
    far = st.one_of(st.integers(square - 4 * bound, square + 4 * bound), st.integers(1, 10**11),
                    st.integers(MILLER_RABIN_LIMIT - 10**6, MILLER_RABIN_LIMIT + 10**6))
    sizes = draw(st.lists(near, max_size=3)) + draw(st.lists(far, max_size=1))
    n = 1
    for m in sizes:
        n *= _least_candidate_prime(m, start, step) ** draw(st.integers(1, 3))
    return n, start, step, bound


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_trial_division_cases())
@example((12207031, 23, 22, 10**5))  # frey --r 11 --x 1 --y -5: proved prime
@example((17050729021, 35, 34, 10**5))  # frey --r 17 --x 3 --y -4: Miller-Rabin
@example((91625968981, 39, 38, 10**5))  # frey --r 19 --x 1 --y -4: refused
@example((3317044064679887385961981, 2, 1, 10**5))  # psi_13, no factor <= 10^5
@example((3317044064679887385962123, 3, 2, 3))  # the least prime above psi_13
@example((11, 11, 10, 3))
@example((61, 11, 10, 3))
@example((1, 3, 2, 3))
@example((198, 2, 1, 199))  # least_primitive_root(199)
@example((199, 2, 1, 199))  # is_prime(199)
@example((4, 2, 1, 4))
def test_trial_division_matches_sympy_factorint(case):
    """trial_factor finds the primes of n up to the bound, and what is left
    above the bound joins them exactly when sympy proves it prime and its
    isqrt is at most the bound or it is below MILLER_RABIN_LIMIT; otherwise
    it is returned unfactored."""
    n, start, step, bound = case
    factors = sp.factorint(n)
    found = sorted(q for q in factors if q <= bound)
    rest = math.prod(q**e for q, e in factors.items() if q > bound)
    if math.isqrt(rest) <= bound:
        assert rest == 1 or sp.isprime(rest), case
    if rest > 1 and proven_leftover(rest, bound):
        found, rest = found + [rest], 1
    assert trial_factor(n, start, step, bound) == (found, rest), case


def test_is_prime_matches_sympy_isprime():
    for n in range(-5, 10**4 + 1):
        assert is_prime(n) == sp.isprime(n), n


# Chernick's Carmichael numbers (6k + 1)(12k + 1)(18k + 1), for the k with
# all three factors prime: every coprime base is a Fermat liar for them.
_chernick = st.sampled_from([1, 6, 35, 45, 51, 55, 56, 100, 121, 195, 206, 216]).map(
    lambda k: (6 * k + 1) * (12 * k + 1) * (18 * k + 1))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.one_of(
    st.integers(-5, MILLER_RABIN_LIMIT - 1),
    st.integers(2, MILLER_RABIN_LIMIT - 10**4).map(sp.nextprime),
    st.builds(lambda a, b: sp.nextprime(a) * sp.nextprime(b),
              st.integers(2, 10**12), st.integers(2, 10**12)),
    _chernick,
))
def test_proves_prime_matches_sympy_isprime_below_the_limit(n):
    """Below MILLER_RABIN_LIMIT, _proves_prime is sympy.isprime: primes,
    products of two primes and Carmichael numbers among the draws."""
    assert n < MILLER_RABIN_LIMIT
    assert _proves_prime(n) == sp.isprime(n), n


@pytest.mark.parametrize("n", [
    3215031751,  # psi_4: strong pseudoprime to 2, 3, 5, 7
    3825123056546413051,  # psi_9 = psi_10 = psi_11: to 2, ..., 31
    318665857834031151167461,  # psi_12: to 2, ..., 37
    3317044064679887385961981,  # psi_13: to 2, ..., 41, the limit itself
])
def test_strong_pseudoprimes_are_never_proved(n):
    """The limit is psi_13 for exactly the first 13 prime bases, and each
    psi_k is a strong pseudoprime to the first k of them."""
    assert _MR_BASES == tuple(sp.primerange(2, 42))
    assert not sp.isprime(n)
    assert _proves_prime(n) is False


@pytest.mark.parametrize("n", [
    3317044064679887385962123,  # the least prime above the limit
    2**89 - 1,
    10**30 + 57,
])
def test_no_proof_at_or_above_the_limit(n):
    """A prime at or above the limit passes every base, but is not proved,
    so trial_factor returns it as the unfactored leftover."""
    assert sp.isprime(n) and n >= MILLER_RABIN_LIMIT
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    assert all(_strong_probable_prime(n, a, d, s) for a in _MR_BASES)
    assert _proves_prime(n) is False
    assert trial_factor(n, 2, 1, 100) == ([], n)


def test_strong_lucas_matches_sympy_on_odd_n():
    """The second route agrees with sympy's strong Lucas test (Selfridge's
    method A), pseudoprimes 5459, 5777, 10877, ... included."""
    from sympy.ntheory.primetest import is_strong_lucas_prp

    for n in range(3, 3 * 10**4, 2):
        assert _strong_lucas(n) == is_strong_lucas_prp(n), n
    assert _strong_lucas(5459) and not sp.isprime(5459)


def test_a_failed_lucas_check_is_a_consistency_error(monkeypatch, capsys):
    """A Miller-Rabin proof that the strong Lucas test rejects raises
    ConsistencyError, and the CLI exits 70 with error: on a frey op whose
    leftover Miller-Rabin proves."""
    monkeypatch.setattr("rrpfermat.numutil._strong_lucas", lambda n: False)
    with pytest.raises(ConsistencyError, match="^17050729021 passes Miller-Rabin"):
        _proves_prime(17050729021)
    assert _proves_prime(3215031751) is False  # psi_4 fails base 11: Lucas not run
    code = main(["frey", "--r", "17", "--x", "3", "--y", "-4", "--json"])
    out, err = capsys.readouterr()
    assert code == EXIT_INTERNAL and out == ""
    assert err.startswith("error: ") and "17050729021" in err


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
