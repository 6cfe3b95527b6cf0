"""Property tests of the polynomial-ring kernels against sympy: the
schoolbook `polyrem` / `polymulmod` over Z, and the packed Kronecker-Barrett
product over Z/2^n (`galoisring.PackedMulMod`), also against the schoolbook
Z/2^n oracle; and the packed slot-wise operations that gr_sqrt runs between
its products, against the same operations on coefficient lists."""

import random

import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rrpfermat.cycfield import build_field, polymulmod, polyrem
from rrpfermat.ffpoly import f2_from_coeffs
from rrpfermat.galoisring import PackedMulMod

import oracles

_x = sp.symbols("x")

coefficients = st.integers(-10**6, 10**6)


@st.composite
def monic_and_vectors(draw):
    degree = draw(st.integers(min_value=1, max_value=12))
    modulus = tuple(draw(st.lists(coefficients, min_size=degree, max_size=degree))) + (1,)
    vec = draw(st.lists(coefficients, min_size=1, max_size=2 * degree + 3))
    a = draw(st.lists(coefficients, min_size=1, max_size=degree + 2))
    b = draw(st.lists(coefficients, min_size=1, max_size=degree + 2))
    return modulus, vec, a, b


def sympy_rem(vec, modulus) -> tuple[int, ...]:
    """Remainder over ZZ, constant term first, padded to deg(modulus)."""
    d = len(modulus) - 1
    rem = sp.Poly(list(reversed(vec)), _x, domain=sp.ZZ).rem(
        sp.Poly(list(reversed(modulus)), _x, domain=sp.ZZ)
    )
    low_first = [int(c) for c in reversed(rem.all_coeffs())]
    return tuple(low_first + [0] * (d - len(low_first)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(monic_and_vectors())
def test_kernel_matches_sympy_over_z_and_mod_2n(case):
    modulus, vec, a, b = case
    rem = sympy_rem(vec, modulus)
    prod = sympy_rem(oracles.poly_mul(a, b), modulus)
    assert polyrem(vec, modulus) == rem
    assert polymulmod(a, b, modulus) == prod
    for n in range(1, 9):
        m = 1 << n
        # GaloisRing passes its modulus already reduced mod 2^n, reduces an
        # element over Z and then mod 2^n, and multiplies reduced vectors.
        reduced = tuple(c % m for c in modulus)
        assert tuple(c % m for c in polyrem(vec, reduced)) == tuple(c % m for c in rem)
        ra, rb = (tuple(c % m for c in polyrem(v, reduced)) for v in (a, b))
        assert PackedMulMod(reduced, n).mul(ra, rb) == tuple(c % m for c in prod)


@st.composite
def packed_cases(draw):
    """A monic modulus of degree 1..99 with coefficients mod 2^n, n from 1
    to 40 (past 64-bit slots once 2n + bit_length(degree) > 64), and two
    vectors of at most that degree with entries in [0, 2^n)."""
    degree = draw(st.integers(1, 99))
    n = draw(st.integers(1, 40))
    residues = st.integers(0, (1 << n) - 1)
    modulus = tuple(draw(st.lists(residues, min_size=degree, max_size=degree))) + (1,)
    a = draw(st.lists(residues, min_size=1, max_size=degree))
    b = draw(st.lists(residues, min_size=1, max_size=degree))
    return modulus, n, a, b


@settings(max_examples=200, deadline=None, derandomize=True)
@given(packed_cases())
@example(((1, 1), 1, [1], [1]))
@example(((3, 0, 1), 1, [1, 1], [1, 1]))
@example((tuple([(1 << 40) - 1] * 99) + (1,), 40, [(1 << 40) - 1] * 99, [(1 << 40) - 1] * 99))
@example((tuple([255] * 99) + (1,), 8, [255] * 99, [255] * 99))
def test_packed_mulmod_matches_sympy_and_schoolbook(case):
    modulus, n, a, b = case
    m = 1 << n
    expected = oracles.schoolbook_mulmod_2n(a, b, modulus, m)
    assert PackedMulMod(modulus, n).mul(a, b) == expected
    assert tuple(c % m for c in sympy_rem(oracles.poly_mul(a, b), modulus)) == expected


@settings(max_examples=200, deadline=None, derandomize=True)
@given(packed_cases(), st.integers(0, 2**99 - 1), st.integers(1, 40))
@example(((1, 1), 3, [7], [7]), 1, 2)  # 8-bit slots
@example((tuple([(1 << 40) - 1] * 99) + (1,), 40, [(1 << 40) - 1] * 99, [0] * 99), 2**99 - 1, 40)
def test_packed_slot_operations_match_coefficient_lists(case, bits, j):
    # add, sub, div_pow2, residue and lift on packed ints against the same
    # operation coefficient by coefficient, at every slot width that
    # packed_cases reaches (8 to 64 bits, then whole bytes).
    modulus, n, a, b = case
    f, m = len(modulus) - 1, 1 << n
    a, b = a + [0] * (f - len(a)), b + [0] * (f - len(b))
    kernel = PackedMulMod(modulus, n)
    pa, pb = kernel.pack(a), kernel.pack(b)
    assert kernel.unpack(pa) == a
    assert kernel.unpack(kernel.add(pa, pb)) == [(x + y) % m for x, y in zip(a, b)]
    assert kernel.unpack(kernel.sub(pa, pb)) == [(x - y) % m for x, y in zip(a, b)]
    assert kernel.unpack(kernel.mul_packed(pa, pb)) == list(kernel.mul(a, b))
    j = min(j, n)
    divisible = [x - x % (1 << j) for x in a]
    assert kernel.unpack(kernel.div_pow2(kernel.pack(divisible), j)) == [x >> j for x in divisible]
    assert (kernel.div_pow2(pa, j) is None) == any(x % (1 << j) for x in a)
    assert kernel.residue(pa) == f2_from_coeffs(a)
    low = bits & ((1 << f) - 1)
    assert kernel.unpack(kernel.lift(low)) == [(low >> i) & 1 for i in range(f)]


def test_packed_mulmod_slot_widths():
    # The slot is the narrowest array type holding 2n + bit_length(f) bits,
    # and whole bytes past 64 bits; each width multiplies like the oracle.
    rng = random.Random(64)
    for f, n, bits in ((3, 2, 8), (99, 4, 16), (99, 5, 32), (99, 28, 64), (99, 29, 72), (40, 40, 88)):
        modulus = tuple(rng.randrange(1 << n) for _ in range(f)) + (1,)
        kernel = PackedMulMod(modulus, n)
        assert kernel._slot_bits == bits, (f, n)
        a = [rng.randrange(1 << n) for _ in range(f)]
        b = [rng.randrange(1 << n) for _ in range(f)]
        assert kernel.mul(a, b) == oracles.schoolbook_mulmod_2n(a, b, modulus, 1 << n)


def test_cyc_mul_at_r_199_matches_schoolbook():
    field = build_field(199)
    rng = random.Random(199)
    a = field.element([rng.randint(-10**9, 10**9) for _ in range(field.degree)])
    b = field.element([rng.randint(-10**9, 10**9) for _ in range(field.degree)])
    assert (a * b).coeffs == oracles.schoolbook_cyc_mul(field, a, b)
    p = field.pi_r()
    s = field.theta_power_sum(150)
    assert (p * s).coeffs == oracles.schoolbook_cyc_mul(field, p, s)
