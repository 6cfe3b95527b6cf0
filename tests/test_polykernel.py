"""Property tests of the shared polynomial-ring kernel against sympy."""

import random

import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from rrpfermat.cycfield import build_field, polymulmod, polyrem

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
        # GaloisRing passes its modulus already reduced mod 2^n.
        reduced = tuple(c % m for c in modulus)
        assert polyrem(vec, reduced, m) == tuple(c % m for c in rem)
        assert polymulmod(a, b, reduced, m) == tuple(c % m for c in prod)


def test_cyc_mul_at_r_199_matches_schoolbook():
    field = build_field(199)
    rng = random.Random(199)
    a = field.element([rng.randint(-10**9, 10**9) for _ in range(field.degree)])
    b = field.element([rng.randint(-10**9, 10**9) for _ in range(field.degree)])
    assert (a * b).coeffs == oracles.schoolbook_cyc_mul(field, a, b)
    p = field.pi_r()
    s = field.theta_power_sum(150)
    assert (p * s).coeffs == oracles.schoolbook_cyc_mul(field, p, s)
