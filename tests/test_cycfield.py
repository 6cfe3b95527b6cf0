import random

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rrpfermat.criteria import check_corollary_quad, check_four_hypotheses
from rrpfermat.cycfield import alpha_beta_gamma, build_field, f_k_eval
from rrpfermat.galoisring import GaloisRing
from rrpfermat.numutil import MAX_R, primes_upto

import oracles

SMALL_PRIMES = [r for r in primes_upto(31) if r >= 5]


def test_build_field_rejects_bad_r():
    for bad in (0, 1, 2, 3, 4, 6, 9, 15, 21):
        with pytest.raises(ValueError):
            build_field(bad)


@pytest.mark.parametrize(
    "call",
    [build_field, lambda r: check_four_hypotheses(0, r), lambda r: check_corollary_quad(2, r)],
    ids=["build_field", "check_four_hypotheses", "check_corollary_quad"],
)
def test_r_bound_checked_before_primality(monkeypatch, call):
    # A huge r is refused by the bound alone, before any trial division: the
    # field refuses it for every verdict that builds one.
    def no_primality_test(_):
        raise AssertionError("primality tested before the MAX_R bound")

    monkeypatch.setattr("rrpfermat.numutil.is_prime", no_primality_test)
    r = 10**30 + 57
    with pytest.raises(ValueError, match=f"r = {r} exceeds MAX_R = {MAX_R}"):
        call(r)


@pytest.mark.parametrize("r", [r for r in primes_upto(MAX_R) if r >= 5])
def test_least_primitive_root_matches_sympy(r):
    assert build_field(r).least_primitive_root() == sp.primitive_root(r)


def test_minimal_polynomial_small_cases():
    assert build_field(5).psi == (-1, 1, 1)  # x^2 + x - 1
    assert build_field(7).psi == (-1, -2, 1, 1)  # x^3 + x^2 - 2x - 1


def test_closed_form_psi_matches_the_chebyshev_sum():
    for r in primes_upto(MAX_R):
        if r >= 5:
            assert build_field(r).psi == oracles.psi_by_chebyshev_sum((r - 1) // 2), r


def test_psi_vanishes_at_theta():
    # psi_5(theta) = theta^2 + theta - 1 = (1 - theta) + theta - 1 + ... = 0
    f = build_field(5)
    th = f.theta
    assert (th * th + th - 1).is_zero()


def test_folding_identity_all_r_up_to_150():
    for r in primes_upto(150):
        if r < 5:
            continue
        assert oracles.folded_psi_equals_cyclotomic(build_field(r)), r


def test_psi_irreducible_small_r():
    import sympy as sp

    for r in SMALL_PRIMES:
        assert oracles.psi_poly(build_field(r)).is_irreducible, r


def test_discriminant_odd():
    # gcd(psi, psi') = 1 over GF(2) for every r in range is the fast
    # equivalent; sympy discriminants cross-check the small cases.
    from rrpfermat.ffpoly import f2_degree, f2_derivative, f2_gcd

    for r in primes_upto(150):
        if r < 5:
            continue
        f = build_field(r)
        bits = sum((c & 1) << i for i, c in enumerate(f.psi))
        assert f2_gcd(bits, f2_derivative(bits)) == 1, r
    for r in SMALL_PRIMES:
        assert oracles.sympy_disc(build_field(r)) % 2 == 1, r


def test_theta_power_sum_examples():
    f5 = build_field(5)
    assert f5.theta_power_sum(0) == 2
    assert f5.theta_power_sum(2).coeffs == (-1, -1)  # -theta - 1
    f7 = build_field(7)
    assert f7.theta_power_sum(3).coeffs == (1, -1, -1)  # theta^3 - 3 theta reduced


def test_theta_power_sum_recurrence_symmetry_and_range():
    """The shift-and-reduce power sums equal the CycInt-product recurrence
    at every prime up to MAX_R, and s_k = s_(r-k)."""
    for r in [p for p in primes_upto(MAX_R) if p >= 5]:
        f = build_field(r)
        want = oracles.theta_power_sums_by_products(build_field(r))
        assert [f.theta_power_sum(k) for k in range(r)] == want, r
        for k in range(1, r):
            assert f.theta_power_sum(k) == f.theta_power_sum(r - k), (r, k)
    with pytest.raises(ValueError):
        build_field(5).theta_power_sum(5)
    with pytest.raises(ValueError):
        build_field(5).theta_power_sum(-1)


def test_product_to_sum_identity():
    # s(k) s(j) = s(k+j) + s(k-j), indices folded into range mod r.
    for r in (5, 7, 11, 13, 19):
        f = build_field(r)
        for k in range(r):
            for j in range(k + 1):
                lhs = f.theta_power_sum(k) * f.theta_power_sum(j)
                rhs = f.theta_power_sum((k + j) % r) + f.theta_power_sum(k - j)
                assert lhs == rhs, (r, k, j)


def test_pi_r_values_and_norm():
    f5, f7 = build_field(5), build_field(7)
    assert f5.pi_r().coeffs == (-2, 1)
    assert f7.pi_r().coeffs == (-2, 1, 0)
    for r in [x for x in primes_upto(60) if x >= 5]:
        f = build_field(r)
        assert abs(f.norm(f.pi_r())) == r, r


def test_norm_basics():
    f = build_field(7)
    assert f.norm(1) == 1
    assert f.norm(f.element(0)) == 0
    assert f.norm(2) == 2 ** f.degree


def test_norm_multiplicative_random():
    rng = random.Random(20240817)
    cases = 0
    for r in (5, 7, 11, 13):
        f = build_field(r)
        for _ in range(50):
            a = f.element([rng.randint(-10, 10) for _ in range(f.degree)])
            b = f.element([rng.randint(-10, 10) for _ in range(f.degree)])
            assert f.norm(a * b) == f.norm(a) * f.norm(b)
            cases += 1
    assert cases == 200


def test_norm_matches_sympy_resultant():
    rng = random.Random(7251)
    for r in (5, 7, 11):
        f = build_field(r)
        for _ in range(8):
            a = f.element([rng.randint(-9, 9) for _ in range(f.degree)])
            assert f.norm(a) == oracles.sympy_norm(f, a)


def test_f_k_eval_examples():
    f5 = build_field(5)
    assert f_k_eval(f5, 0, 1, 1) == 4
    for k in range(3):
        assert f_k_eval(f5, k, 1, 0) == 1
    prod = f_k_eval(f5, 0, 2, 1) * f_k_eval(f5, 1, 2, 1) * f_k_eval(f5, 2, 2, 1)
    assert prod == 99  # (2+1) * (2^5+1)
    with pytest.raises(ValueError):
        f_k_eval(f5, 3, 1, 1)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(-10**4, 10**4), st.integers(-10**4, 10**4))
@example(0, 0)
@example(10**4, -10**4)
def test_f_k_eval_argument_kinds_agree(x, y):
    """Rational x, y as ints, as field elements or one of each give the
    same f_k(x, y); the int route takes no Z[theta] product."""
    for r in SMALL_PRIMES:
        f = build_field(r)
        xe, ye = f.element(x), f.element(y)
        for k in range(f.degree + 1):
            want = f_k_eval(f, k, xe, ye)
            for args in ((x, y), (x, ye), (xe, y)):
                got = f_k_eval(f, k, *args)
                assert type(got) is type(want) and got == want, (r, k, args)


def test_phi_r_and_product_identities_random():
    rng = random.Random(555)
    for r in SMALL_PRIMES:
        f = build_field(r)
        for _ in range(100):
            x = rng.randint(-30, 30)
            y = rng.randint(-30, 30)
            xe, ye = f.element(x), f.element(y)
            prod = f_k_eval(f, 0, xe, ye)
            for k in range(1, f.degree + 1):
                prod = prod * f_k_eval(f, k, xe, ye)
            assert prod == (xe + ye) * (xe**r + ye**r), (r, x, y)


def test_product_identity_on_algebraic_points():
    # The factorization is a polynomial identity, so it holds for CycInt
    # arguments too, not only rational integers.
    rng = random.Random(99)
    f = build_field(7)
    for _ in range(20):
        x = f.element([rng.randint(-4, 4) for _ in range(f.degree)])
        y = f.element([rng.randint(-4, 4) for _ in range(f.degree)])
        prod = f_k_eval(f, 0, x, y)
        for k in range(1, f.degree + 1):
            prod = prod * f_k_eval(f, k, x, y)
        assert prod == (x + y) * (x**7 + y**7)


def test_alpha_beta_gamma_identity_all_triples():
    from itertools import combinations

    for r in SMALL_PRIMES:
        f = build_field(r)
        for k1, k2, k3 in combinations(range(f.degree + 1), 3):
            a, b, g = alpha_beta_gamma(f, k1, k2, k3)
            assert (a + b + g).is_zero()
            # alpha f_{k1} + beta f_{k2} + gamma f_{k3} = 0 as a polynomial
            # identity in x, y: the x^2 and y^2 coefficients are a+b+g and
            # the xy coefficient is a s(k1) + b s(k2) + g s(k3).
            xy = (
                a * f.theta_power_sum(k1)
                + b * f.theta_power_sum(k2)
                + g * f.theta_power_sum(k3)
            )
            assert xy.is_zero(), (r, k1, k2, k3)


def test_alpha_beta_gamma_numeric_instance():
    f7 = build_field(7)
    a, b, g = alpha_beta_gamma(f7, 1, 2, 3)
    x, y = f7.element(3), f7.element(2)
    total = (
        a * f_k_eval(f7, 1, x, y)
        + b * f_k_eval(f7, 2, x, y)
        + g * f_k_eval(f7, 3, x, y)
    )
    assert total.is_zero()


def test_alpha_beta_gamma_norms_power_of_r():
    from itertools import combinations

    from rrpfermat.numutil import strip_factor

    for r in SMALL_PRIMES:
        f = build_field(r)
        for triple in combinations(range(f.degree + 1), 3):
            for v in alpha_beta_gamma(f, *triple):
                assert strip_factor(f.norm(v), r) == 1, (r, triple)


def test_alpha_beta_gamma_rejects_bad_indices():
    f = build_field(5)
    with pytest.raises(ValueError):
        alpha_beta_gamma(f, 0, 0, 1)
    with pytest.raises(ValueError):
        alpha_beta_gamma(f, 0, 1, 3)


def test_reduce_mod_is_ring_hom():
    rng = random.Random(31337)
    f = build_field(11)
    for m in (2, 3, 8, 32):
        def residues(a):
            return tuple(c % m for c in a.coeffs)

        for _ in range(25):
            a = f.element([rng.randint(-50, 50) for _ in range(f.degree)])
            b = f.element([rng.randint(-50, 50) for _ in range(f.degree)])
            assert residues(a + b) == tuple(
                (u + v) % m for u, v in zip(residues(a), residues(b))
            )
            # multiplication commutes with reduction
            prod_red = residues(a * b)
            red_prod = residues(f.element(list(residues(a))) * f.element(list(residues(b))))
            assert prod_red == red_prod


def test_cycint_immutability_and_hash():
    f = build_field(5)
    a = f.theta
    with pytest.raises(AttributeError):
        a.coeffs = (0, 0)
    assert hash(f.theta) == hash(f.theta)
    assert f.theta != build_field(7).theta  # == across fields is just False
    with pytest.raises(ValueError):
        f.theta + build_field(7).theta


@st.composite
def _ring_and_values(draw):
    """A field Z[theta_r] (n = 0) or a ring GR(2^n, f) on the same psi_r
    (2 is inert at r = 5, 11, 13), and a few ints and elements with small
    coefficients, so that equal pairs turn up."""
    r = draw(st.sampled_from([5, 11, 13]))
    n = draw(st.sampled_from([0, 1, 3, 5]))
    field = build_field(r)
    ring = GaloisRing(n, field.psi, field.residue_field_at_2()) if n else field
    ints = st.integers(0, ring.m - 1) if n else st.integers(-3, 3)
    coeffs = st.lists(st.integers(-1, 1), min_size=1, max_size=ring.degree)
    value = st.one_of(ints, ints.map(ring.element), coeffs.map(ring.element))
    return ring, draw(st.lists(value, min_size=2, max_size=6))


_Q5 = build_field(5)
_GR5 = GaloisRing(5, _Q5.psi, _Q5.residue_field_at_2())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_ring_and_values())
@example((_Q5, [_Q5.element(3), 3]))
@example((_Q5, [_Q5.element(-2), -2]))
@example((_GR5, [_GR5.element(-1), 31]))
def test_equal_values_hash_alike(case):
    ring, values = case
    for a in values:
        for b in values:
            if a == b:
                assert hash(a) == hash(b), (ring, a, b)
    for c in (0, 1, ring.m - 1) if ring.m else (0, 1, -3):
        e = ring.element(c)
        assert e == c and hash(e) == hash(c)
        assert c in {e} and e in {c} and {e: 1}[c] == 1
