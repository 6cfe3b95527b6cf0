import functools
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rrpfermat.ffpoly as ffpoly
from rrpfermat.cycfield import RealCyclotomicField, build_field
from rrpfermat.errors import ConsistencyError, NotSquarefreeError
from rrpfermat.ffpoly import (
    F2Field,
    _ben_or_irreducible,
    ddf_degrees,
    f2_degree,
    f2_derivative,
    f2_divmod,
    f2_from_coeffs,
    f2_gcd,
    f2_mod,
    f2_mul,
    f2_mulmod,
    least_irreducible,
)
from rrpfermat.intlinalg import gf2_pivots
from rrpfermat.numutil import is_prime, primes_upto

import oracles
from oracles import is_irreducible


def psi_bits(r: int) -> int:
    f = build_field(r)
    return sum((c & 1) << i for i, c in enumerate(f.psi))


def test_ddf_examples():
    assert ddf_degrees(psi_bits(5)) == [(2, 1)]  # x^2+x+1 irreducible
    assert ddf_degrees(psi_bits(31)) == [(5, 3)]  # three quintics
    assert ddf_degrees(0b110) == [(1, 2)]  # x(x+1)


def test_ddf_rejects_non_squarefree():
    with pytest.raises(NotSquarefreeError):
        ddf_degrees(0b100)  # x^2
    with pytest.raises(ValueError):
        ddf_degrees(1)


def test_ddf_degree_sum_random():
    rng = random.Random(4242)
    done = 0
    while done < 60:
        p = rng.getrandbits(rng.randint(2, 16)) | 1
        p |= 1 << rng.randint(1, 16)
        if f2_degree(p) < 1 or f2_gcd(p, f2_derivative(p)) != 1:
            continue
        shape = ddf_degrees(p)
        assert sum(d * c for d, c in shape) == f2_degree(p), bin(p)
        done += 1


def test_ddf_matches_sympy_factor_shape():
    for r in [x for x in primes_upto(31) if x >= 5]:
        f = build_field(r)
        assert ddf_degrees(psi_bits(r)) == oracles.gf2_factor_shape(f.psi), r


def test_ddf_psi_equal_degree_and_order_oracle():
    # All factors of psi_r mod 2 share one degree f, f * count = (r-1)/2,
    # and f is the order of 2 in (Z/r)^x modulo +-1.
    for r in primes_upto(150):
        if r < 5:
            continue
        shape = ddf_degrees(psi_bits(r))
        assert len(shape) == 1, (r, shape)
        deg, count = shape[0]
        assert deg * count == (r - 1) // 2
        assert deg == oracles.two_residue_degree(r), r


def test_least_irreducible_values():
    assert least_irreducible(1) == 0b10  # x
    assert least_irreducible(2) == 0b111  # x^2+x+1
    assert least_irreducible(3) == 0b1011  # x^3+x+1
    for f in range(1, 12):
        m = least_irreducible(f)
        assert f2_degree(m) == f and is_irreducible(m)


def _irreducible_count(n: int) -> int:
    """Number of monic irreducibles of degree n over GF(2), by Gauss's
    formula (1/n) * sum over squarefree d | n of mu(d) * 2^(n/d)."""
    total = 0
    for d in range(1, n + 1):
        if n % d:
            continue
        primes = [q for q in range(2, d + 1) if d % q == 0 and is_prime(q)]
        if any(d % (q * q) == 0 for q in primes):
            continue
        total += (-1) ** len(primes) * 2 ** (n // d)
    return total // n


def test_irreducibility_routes_agree_exhaustive_to_degree_12():
    counts = {}
    for p in range(2, 1 << 13):
        ben_or = _ben_or_irreducible(p)
        assert ben_or == is_irreducible(p) == oracles.gf2_is_irreducible(p), bin(p)
        counts[f2_degree(p)] = counts.get(f2_degree(p), 0) + ben_or
    assert counts == {n: _irreducible_count(n) for n in range(1, 13)}


_LEAST_60 = least_irreducible(60)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 120).flatmap(lambda n: st.integers(1 << n, (1 << (n + 1)) - 1)))
@example(least_irreducible(120))  # irreducible of the top degree
@example(1 << 120)  # x^120: even constant term, the factor x
@example((1 << 120) | 1)  # x^120 + 1: even number of terms, the factor x + 1
@example((1 << 120) | 0b111)  # x^120 + x^2 + x + 1 = (x + 1)(...): four terms
@example(f2_mul(_LEAST_60, _LEAST_60))  # smallest factor at i = n//2, n even
@example(f2_mul(least_irreducible(59), _LEAST_60))  # smallest factor at i = n//2, n odd
def test_irreducibility_routes_agree_on_sample(p):
    assert _ben_or_irreducible(p) == is_irreducible(p) == oracles.gf2_is_irreducible(p)


def test_least_irreducible_matches_rabin_scan_for_small_degrees():
    # The scan meets the bit test for x and x + 1 on three candidates in four.
    for f in range(1, 40):
        assert least_irreducible(f) == oracles.rabin_least_irreducible(f), f


def test_least_irreducible_matches_rabin_scan_at_every_residue_degree():
    degrees = sorted({oracles.two_residue_degree(r) for r in primes_upto(199) if r >= 5})
    assert len(degrees) == 37 and degrees[-1] == 99
    for f in degrees:
        assert least_irreducible(f) == oracles.rabin_least_irreducible(f), f


def test_f2_mul_divmod_roundtrip():
    rng = random.Random(17)
    for _ in range(200):
        a = rng.getrandbits(20)
        b = rng.getrandbits(12) | (1 << 12)
        q, rem = f2_divmod(a, b)
        assert f2_mul(q, b) ^ rem == a
        assert f2_degree(rem) < f2_degree(b)


# -- the kernel against the reference loops in oracles ----------------------

# Operands of every length up to 400 bits: 0 and 1 come up as the 0- and
# 1-bit draws.
_POLY = st.integers(0, 400).flatmap(lambda n: st.integers(0, (1 << n) - 1))
_LONG = (1 << 400) - 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_POLY, _POLY, _POLY.filter(bool), st.booleans())
@example(0, 0, 1, True)
@example(1, 1, 1, True)
@example(0, 0b1011, 0b1011, False)
@example(1, _LONG, 0b111, False)
@example(_LONG, 0, (1 << 400) | 1, True)  # square of a 400-bit operand
@example(0b101, 0b11, (1 << 400) | 1, False)  # dividend shorter than the divisor
def test_kernel_matches_reference_loops(a, b, m, square):
    if square:
        b = a
    prod = oracles.f2_mul_loop(a, b)
    assert f2_mul(a, b) == f2_mul(b, a) == prod
    q, rem = oracles.f2_divmod_loop(prod, m)
    assert f2_divmod(prod, m) == (q, rem)
    assert f2_mod(prod, m) == f2_mulmod(a, b, m) == rem
    q, rem = oracles.f2_divmod_loop(a, m)
    assert f2_divmod(a, m) == (q, rem) and f2_mod(a, m) == rem


def test_kernel_matches_reference_loops_exhaustive():
    for a in range(1 << 16):  # every byte of the squaring table, low and high
        assert f2_mul(a, a) == oracles.f2_mul_loop(a, a), a
    for a in range(1 << 7):
        for b in range(1 << 7):
            assert f2_mul(a, b) == oracles.f2_mul_loop(a, b), (a, b)
            if b:
                assert f2_divmod(a, b) == oracles.f2_divmod_loop(a, b), (a, b)
                assert f2_mod(a, b) == oracles.f2_divmod_loop(a, b)[1], (a, b)


def test_division_by_the_zero_polynomial_raises():
    for a in (0, 1, 0b1011, _LONG):
        for call in (f2_divmod, f2_mod, oracles.f2_divmod_loop):
            with pytest.raises(ZeroDivisionError):
                call(a, 0)
        with pytest.raises(ZeroDivisionError):
            f2_mulmod(a, a, 0)
        with pytest.raises(ZeroDivisionError):
            f2_mulmod(a, 1, 0)


def _lines_run(fn, *args) -> int:
    """Line events in fn's own frame while it runs on args: a count of the
    loop steps it takes, free of timing noise."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if frame.f_code is not fn.__code__:
            return None
        if event == "line":
            count += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return count


def test_f2_mul_squares_by_table():
    over_bits = _lines_run(f2_mul, _LONG, _LONG ^ 1)  # 399 set bits to loop over
    assert _lines_run(f2_mul, _LONG, _LONG) < over_bits // 2  # 50 bytes, not 400 bits


def test_trace_examples():
    gf8 = F2Field(3)
    assert gf8.trace(0) == 0
    assert gf8.trace(1) == 1  # trace of 1 is f mod 2
    gf4 = F2Field(2)
    assert gf4.trace(1) == 0
    # v^2 + v = 1 is solvable in GF(4): the roots of x^2+x+1
    sols = [v for v in range(4) if gf4.mul(v, v) ^ v == 1]
    assert len(sols) == 2


def test_trace_matches_artin_schreier_solvability_exhaustive():
    for f in range(1, 9):
        fld = F2Field(f)
        for c in range(1 << f):
            solvable = any(fld.mul(v, v) ^ v == c for v in range(1 << f)) if f <= 6 else None
            v = fld.artin_schreier(c)
            if fld.trace(c) == 0:
                assert v is not None and fld.mul(v, v) ^ v == c
                if solvable is not None:
                    assert solvable
            else:
                assert v is None
                if solvable is not None:
                    assert not solvable


def test_sqrt_exhaustive():
    for f in range(1, 9):
        fld = F2Field(f)
        for a in range(1 << f):
            s = fld.sqrt(a)
            assert fld.mul(s, s) == a
            assert fld.sqrt(fld.mul(a, a)) == a


def test_sqrt_example_gf4():
    gf4 = F2Field(2)  # t^2 = t + 1
    t = 0b10
    s = gf4.sqrt(t)
    assert s == gf4.mul(t, t) and gf4.mul(s, s) == t


def test_trace_is_additive():
    rng = random.Random(88)
    fld = F2Field(7)
    for _ in range(100):
        a = rng.getrandbits(7)
        b = rng.getrandbits(7)
        assert fld.trace(a ^ b) == fld.trace(a) ^ fld.trace(b)


# 2 is inert in Q(theta_r) exactly when psi_r mod 2 is irreducible, of
# degree f = (r - 1)/2; these are the residue fields gr_sqrt works in.
INERT_R = [r for r in primes_upto(199) if r >= 5 and oracles.two_residue_degree(r) == (r - 1) // 2]


@functools.cache
def psi_field(r: int) -> F2Field:
    return F2Field((r - 1) // 2, psi_bits(r))


def _field_and_two_elements():
    def pair(r):
        elem = st.integers(0, (1 << (r - 1) // 2) - 1)
        return st.tuples(st.just(r), elem, elem)
    return st.sampled_from(INERT_R).flatmap(pair)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_field_and_two_elements())
@example((199, (1 << 99) - 1, 1))
@example((5, 1, 0))
def test_f2field_arithmetic_on_psi_moduli(case):
    r, a, b = case
    assert len(INERT_R) == 30 and INERT_R[-1] == 199
    fld = psi_field(r)
    with pytest.raises(ZeroDivisionError):
        fld.inverse(0)
    if a:
        assert fld.mul(fld.inverse(a), a) == 1
    s = fld.sqrt(a)
    assert fld.mul(s, s) == a
    assert fld.trace(a ^ b) == fld.trace(a) ^ fld.trace(b)
    assert fld.trace(fld.mul(a, a)) == fld.trace(a)
    v = fld.artin_schreier(a)
    assert (v is not None) == (fld.trace(a) == 0)
    if v is not None:
        assert fld.mul(v, v) ^ v == a


@functools.cache
def least_field(f: int) -> F2Field:
    return F2Field(f)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 99).flatmap(lambda f: st.tuples(st.just(f), st.integers(1, (1 << f) - 1))))
@example((99, (1 << 99) - 1))
@example((99, 1 << 98))
@example((1, 1))
def test_f2field_inverse_matches_the_power_oracle(case):
    f, a = case
    fld = least_field(f)
    inv = fld.inverse(a)
    assert 0 < inv < (1 << f)
    assert inv == oracles.f2_inverse_by_power(a, fld.modulus)
    assert fld.mul(a, inv) == 1
    # An unreduced representative has the same inverse.
    assert fld.inverse(a ^ (fld.modulus << 3)) == inv
    with pytest.raises(ZeroDivisionError):
        fld.inverse(fld.modulus << 2)


def test_f2field_inverse_checks_its_result(monkeypatch):
    fld = F2Field(7)
    monkeypatch.setattr(F2Field, "mul", lambda self, a, b: 0)
    with pytest.raises(ConsistencyError, match="non-inverse"):
        fld.inverse(3)


# -- F2Field's Berlekamp-matrix kernels against the Frobenius loops -----------

IRREDUCIBLE_TO_10 = [p for p in range(2, 1 << 11) if oracles.gf2_is_irreducible(p)]


def test_kernels_match_the_frobenius_loops_on_every_element_to_degree_10():
    assert len(IRREDUCIBLE_TO_10) == sum(_irreducible_count(n) for n in range(1, 11)) == 226
    for m in IRREDUCIBLE_TO_10:
        fld = F2Field(f2_degree(m), m)
        for a in range(1 << fld.f):
            s = fld.sqrt(a)
            assert fld.mul(s, s) == a and s == oracles.frobenius_sqrt(fld, a), (bin(m), a)
            tr = fld.trace(a)
            assert tr == oracles.frobenius_trace(fld, a), (bin(m), a)
            assert (fld.artin_schreier(a) is None) == (tr == 1), (bin(m), a)


def test_f2field_rejects_every_reducible_modulus_to_degree_12():
    rejected = not_squarefree = 0
    for m in range(2, 1 << 13):
        f = f2_degree(m)
        if oracles.gf2_is_irreducible(m):
            assert F2Field(f, m).modulus == m
            continue
        with pytest.raises(ValueError, match="reducible"):
            F2Field(f, m)
        rejected += 1
        not_squarefree += f2_gcd(m, f2_derivative(m)) != 1
    assert rejected == (1 << 13) - 2 - sum(_irreducible_count(n) for n in range(1, 13))
    assert not_squarefree > 0


def test_the_rank_test_needs_squarefreeness():
    # (t + 1)^2 = t^2 + 1: the local algebra GF(2)[t]/(t + 1)^2 has only the
    # idempotents 0 and 1, so Q - I has rank f - 1 = 1 as for a field.
    m = 0b101
    cols = [f2_mulmod(1 << i, 1 << i, m) ^ (1 << i) for i in range(2)]
    assert len(gf2_pivots(cols)) == 1
    with pytest.raises(ValueError, match="not squarefree"):
        F2Field(2, m)


def test_f2field_guards():
    with pytest.raises(ValueError, match="degree"):
        F2Field(0, 1)
    with pytest.raises(ValueError, match="degree"):
        F2Field(3, 0b111)


# 2 is inert at these r past the cap too; their psi_r is built without the
# field, whose constructor refuses r > MAX_R.
PAST_CAP_R = [311, 419, 503]


@functools.cache
def minimal_polynomial_field(r: int) -> F2Field:
    psi = RealCyclotomicField._minimal_polynomial((r - 1) // 2)
    return F2Field((r - 1) // 2, f2_from_coeffs(psi))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(INERT_R + PAST_CAP_R).flatmap(
    lambda r: st.tuples(st.just(r), st.integers(0, (1 << (r - 1) // 2) - 1))))
@example((503, (1 << 251) - 1))
@example((503, 1 << 250))
@example((199, 1))
@example((5, 0))
def test_kernels_match_the_frobenius_loops_on_psi_moduli(case):
    r, a = case
    fld = minimal_polynomial_field(r)
    if r in INERT_R:
        assert fld.modulus == psi_field(r).modulus
    assert fld.sqrt(a) == oracles.frobenius_sqrt(fld, a)
    assert fld.trace(a) == oracles.frobenius_trace(fld, a)
    v, w = fld.artin_schreier(a), oracles.frobenius_artin_schreier(fld, a)
    assert (v is None) == (w is None) == (fld.trace(a) == 1)
    if v is not None:
        assert v in (w, w ^ 1)  # the solutions are w and w + 1
    # An unreduced representative of degree 2f has the same root and trace.
    unreduced = a ^ (fld.modulus << fld.f)
    assert fld.sqrt(unreduced) == fld.sqrt(a) and fld.trace(unreduced) == fld.trace(a)


# -- fault injection: each per-field check raises ----------------------------


@pytest.mark.parametrize("m", [0b1011, 0b100011011, least_irreducible(99)])
def test_a_flipped_bit_of_tau_raises(monkeypatch, m):
    f = f2_degree(m)
    true_divmod = ffpoly.f2_divmod
    for bit in range(f):
        def flipped(a, b, bit=bit):
            q, rem = true_divmod(a, b)
            return q ^ (1 << bit), rem

        monkeypatch.setattr(ffpoly, "f2_divmod", flipped)
        fld = F2Field(f, m)  # the trace vector waits for the first trace()
        with pytest.raises(ConsistencyError, match="trace vector"):
            fld.trace(1)
    monkeypatch.setattr(ffpoly, "f2_divmod", true_divmod)
    assert F2Field(f, m).trace(1) == f % 2


def test_a_wrong_sqrt_of_t_raises(monkeypatch):
    true_halves = ffpoly._halves
    monkeypatch.setattr(ffpoly, "_halves", lambda a: (true_halves(a)[0] ^ 1, true_halves(a)[1]))
    for m in (0b111, 0b1011, least_irreducible(99)):
        fld = F2Field(f2_degree(m), m)  # sqrt(t) waits for the first sqrt()
        with pytest.raises(ConsistencyError, match="sqrt\\(t\\)"):
            fld.sqrt(0b10)


def test_a_wrong_artin_schreier_solution_raises(monkeypatch):
    fld = F2Field(7)
    c = next(c for c in range(1, 1 << 7) if fld.trace(c) == 0)
    true_reduce = ffpoly.gf2_reduce
    monkeypatch.setattr(ffpoly, "gf2_reduce", lambda pivots, vec: (true_reduce(pivots, vec)[0], 0b10))
    with pytest.raises(ConsistencyError, match="non-solution"):
        fld.artin_schreier(c)
