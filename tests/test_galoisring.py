import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrpfermat.cli import EXIT_INTERNAL, main
from rrpfermat.cycfield import build_field
from rrpfermat.errors import ConsistencyError, NonUnitError, NotInertError, PrecisionError
from rrpfermat.ffpoly import F2Field, least_irreducible
from rrpfermat.galoisring import GaloisRing, GaloisRingElem, PackedMulMod, gr_sqrt, is_square_pi_r
from rrpfermat.numutil import primes_upto
from rrpfermat.splitting import split_2_in_Qplus

import oracles

EXHAUSTIVE_SIZES = [(3, 1), (4, 1), (5, 1), (3, 2), (5, 2), (3, 3)]


def make_ring(n: int, f: int) -> GaloisRing:
    m = least_irreducible(f)
    coeffs = [(m >> i) & 1 for i in range(f + 1)]
    return GaloisRing(n, coeffs)


def test_ring_construction_guards():
    with pytest.raises(ValueError):
        GaloisRing(0, [1, 1])
    with pytest.raises(ValueError):
        GaloisRing(3, [1, 2])  # not monic mod 8
    with pytest.raises(ValueError):
        GaloisRing(3, [1, 0, 1])  # x^2+1 = (x+1)^2 reducible mod 2


def test_gr_sqrt_guards():
    ring = make_ring(5, 2)
    with pytest.raises(NonUnitError):
        gr_sqrt(ring.element([2, 0]))
    low = make_ring(2, 2)
    with pytest.raises(PrecisionError):
        gr_sqrt(low.one)


def test_odd_squares_mod_32():
    ring = make_ring(5, 1)  # Z/32
    squares = sorted(
        c[0] for c in oracles.gr_square_set(ring) if c[0] % 2
    )
    assert squares == [1, 9, 17, 25]
    detected = sorted(
        u for u in range(1, 32, 2) if gr_sqrt(ring.element(u)) is not None
    )
    assert detected == [1, 9, 17, 25]


def test_gr_sqrt_exhaustive_agreement():
    # gr_sqrt succeeds exactly on the brute-force square set, and returned
    # roots square back, for every unit of every listed ring.
    for n, f in EXHAUSTIVE_SIZES:
        ring = make_ring(n, f)
        squares = oracles.gr_square_set(ring)
        mismatches = 0
        for u in oracles.gr_units(ring):
            root = gr_sqrt(u)
            if (u.coeffs in squares) != (root is not None):
                mismatches += 1
            if root is not None:
                assert root * root == u
        assert mismatches == 0, (n, f)


def test_gr_sqrt_one_and_squares():
    ring = make_ring(5, 3)
    assert gr_sqrt(ring.one) == ring.one
    rng = random.Random(1234)
    for _ in range(50):
        w = ring.element([rng.randrange(32) for _ in range(3)])
        if not w.is_unit():
            continue
        root = gr_sqrt(w * w)
        assert root is not None and root * root == w * w


def test_square_multiplicativity():
    # u square  =>  u * w^2 square, for random units w.
    rng = random.Random(987)
    ring = make_ring(5, 2)
    count = 0
    while count < 100:
        u = ring.element([rng.randrange(32), rng.randrange(32)])
        w = ring.element([rng.randrange(32), rng.randrange(32)])
        if not (u.is_unit() and w.is_unit()):
            continue
        if gr_sqrt(u) is None:
            continue
        assert gr_sqrt(u * w * w) is not None
        count += 1


def test_is_square_pi_r_small():
    assert is_square_pi_r(build_field(5)) is False
    assert is_square_pi_r(build_field(11)) is False
    assert is_square_pi_r(build_field(13)) is False
    # r = 7: Norm(pi_7) = -7 = 25 mod 32 is a square residue, and pi_7 is
    # genuinely a square mod P^5 (verified exhaustively in char-2 brute
    # force); the sign of the norm decides, not |Norm| = r.
    assert is_square_pi_r(build_field(7)) is True


def test_pi_7_square_root_verifies():
    field = build_field(7)
    ring = GaloisRing(5, field.psi)
    u = ring.element(list(field.pi_r().coeffs))
    root = gr_sqrt(u)
    assert root is not None and root * root == u


def test_square_of_pi_r_is_square():
    field = build_field(5)
    ring = GaloisRing(5, field.psi)
    u = ring.element(list((field.pi_r() * field.pi_r()).coeffs))
    root = gr_sqrt(u)
    assert root is not None and root * root == u


def test_is_square_requires_inert():
    with pytest.raises(NotInertError):
        is_square_pi_r(build_field(31))


def test_a_modulus_of_degree_0_is_refused():
    # psi = 1: F2Field refuses degree 0, and no residue field has modulus 1.
    with pytest.raises(ValueError, match="degree"):
        GaloisRing(3, [1])
    with pytest.raises(ValueError, match="residue field"):
        GaloisRing(3, [1], build_field(7).residue_field_at_2())


def test_norm_compatibility_all_inert_r():
    # If pi_r is a square mod P^5 then its signed norm (-1)^((r-1)/2) r is a
    # square residue mod 32, i.e. in {1, 9, 17, 25}; empirically squareness
    # among inert r happens exactly for r = 7 mod 8.
    from rrpfermat.descent import signed_norm_of_pi_r

    for r in primes_upto(150):
        if r < 5 or not split_2_in_Qplus(r).inert:
            continue
        field = build_field(r)
        sq = is_square_pi_r(field)
        if sq:
            assert signed_norm_of_pi_r(r) % 32 in (1, 9, 17, 25), r
        assert sq == (r % 8 == 7), r


def test_gr_sqrt_larger_precision_roundtrip():
    rng = random.Random(5151)
    ring = make_ring(8, 3)
    for _ in range(30):
        w = ring.element([rng.getrandbits(8) for _ in range(3)])
        if not w.is_unit():
            continue
        u = w * w
        root = gr_sqrt(u)
        assert root is not None and root * root == u


# Irreducible polynomials mod 2 of degree 1..6, found by sympy.
IRREDUCIBLE_MOD_2 = {
    f: [p for p in range(1 << f, 2 << f) if oracles.gf2_is_irreducible(p)]
    for f in range(1, 7)
}


@st.composite
def ring_and_units(draw):
    """A random GR(2^n, f), 3 <= n <= 10, 1 <= f <= 6: an irreducible modulus
    mod 2 with random higher 2-adic digits, and two random units."""
    n = draw(st.integers(3, 10))
    f = draw(st.integers(1, 6))
    low = draw(st.sampled_from(IRREDUCIBLE_MOD_2[f]))
    lifts = draw(st.lists(st.integers(0, (1 << (n - 1)) - 1), min_size=f, max_size=f))
    ring = GaloisRing(n, [((low >> i) & 1) + 2 * c for i, c in enumerate(lifts)] + [1])

    def unit():
        coeffs = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=f, max_size=f))
        odd_at = draw(st.integers(0, f - 1))
        coeffs[odd_at] |= 1
        return ring.element(coeffs)

    return ring, unit(), unit()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ring_and_units())
def test_gr_sqrt_properties(case):
    ring, u, w = case
    root = gr_sqrt(w * w)
    assert root is not None and root * root == w * w
    u_root = gr_sqrt(u)
    assert (u_root is None) == (gr_sqrt(u * w * w) is None)
    if u_root is not None:
        assert u_root * u_root == u
    if ring.n * ring.degree <= 10:
        assert (u_root is not None) == (u.coeffs in oracles.gr_square_set(ring))


_LEAST_IRREDUCIBLE: dict[int, int] = {}


@st.composite
def wide_ring_and_unit(draw):
    """A unit of GR(2^n, f) for 1 <= f <= 99 and 3 <= n <= 12 over the least
    irreducible of degree f with random higher 2-adic digits: a random
    unit (mostly stopped by the mod-4 test), a square, or a square times
    1 + 4c (stopped or not by the trace of c at the mod-8 step)."""
    f = draw(st.integers(1, 99))
    n = draw(st.integers(3, 12))
    if f not in _LEAST_IRREDUCIBLE:
        _LEAST_IRREDUCIBLE[f] = least_irreducible(f)
    low = _LEAST_IRREDUCIBLE[f]
    lifts = draw(st.lists(st.integers(0, (1 << (n - 1)) - 1), min_size=f, max_size=f))
    ring = GaloisRing(n, [((low >> i) & 1) + 2 * c for i, c in enumerate(lifts)] + [1])
    coeffs = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=f, max_size=f))
    coeffs[draw(st.integers(0, f - 1))] |= 1
    u = ring.element(coeffs)
    kind = draw(st.sampled_from(["unit", "square", "mod8"]))
    if kind == "unit":
        return u
    if kind == "square":
        return u * u
    c = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=f, max_size=f))
    return u * u * (ring.one + 4 * ring.element(c))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(wide_ring_and_unit())
def test_packed_gr_sqrt_matches_the_elementwise_reference(u):
    root = gr_sqrt(u)
    assert root == oracles.gr_sqrt_elementwise(u)
    if root is not None:
        assert type(root) is GaloisRingElem and root * root == u


def test_packed_gr_sqrt_reaches_every_stage():
    # The three outcomes of gr_sqrt at f = 99, n = 12: stopped mod 4,
    # stopped by a trace-1 Artin-Schreier input mod 8, and a root.
    ring = make_ring(12, 99)
    rng = random.Random(99)
    w = ring.element([rng.randrange(1 << 12) | (i == 0) for i in range(99)])
    c = next(b for b in range(1, 1 << 8) if ring.residue_field.trace(b))
    cases = {
        "mod 4": w * w + 2,
        "mod 8": w * w * (ring.one + 4 * ring.element([(c >> i) & 1 for i in range(99)])),
        "root": w * w,
    }
    for name, u in cases.items():
        root = gr_sqrt(u)
        assert root == oracles.gr_sqrt_elementwise(u), name
        assert (root is None) == (name != "root"), name


INERT_R = [r for r in primes_upto(61) if r >= 5 and split_2_in_Qplus(r).inert]


@st.composite
def ring_and_cycints(draw):
    """An inert r <= 61, GR(2^n, (r-1)/2) for 3 <= n <= 8 with modulus psi_r,
    two random elements of Z[theta], an int and a small exponent."""
    field = build_field(draw(st.sampled_from(INERT_R)))
    ring = GaloisRing(draw(st.integers(3, 8)), field.psi)
    vector = st.lists(st.integers(-10**6, 10**6), min_size=field.degree, max_size=field.degree)
    a, b = field.element(draw(vector)), field.element(draw(vector))
    return ring, a, b, draw(st.integers(-10**6, 10**6)), draw(st.integers(0, 5))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ring_and_cycints())
def test_reduction_mod_2n_commutes_with_cycint_arithmetic(case):
    # GR(2^n, f) is Z[theta] reduced mod 2^n, so reading CycInts in the ring
    # is a ring homomorphism.
    ring, a, b, k, e = case

    def reduce(x):
        return ring.element(x.coeffs)

    ra, rb = reduce(a), reduce(b)
    assert reduce(a + b) == ra + rb
    assert reduce(a - b) == ra - rb
    assert reduce(-a) == -ra
    assert reduce(a * k) == ra * k == k * ra
    assert reduce(a * b) == ra * rb
    assert reduce(a**e) == ra**e
    assert ring.element(k) == k
    for x in (ra + rb, ra - rb, -ra, ra * k, ra * rb, ra**e):
        assert type(x) is GaloisRingElem and x.field == ring
        assert all(0 <= c < ring.m for c in x.coeffs)


def test_galois_ring_elements_do_not_mix():
    field = build_field(5)
    ring = GaloisRing(5, field.psi)
    u = ring.element([1, 2])
    for stranger in (field.element([1, 2]), GaloisRing(4, field.psi).element([1, 2])):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(ValueError, match="mixed fields"):
                op(u, stranger)
            with pytest.raises(ValueError, match="mixed fields"):
                op(stranger, u)
    with pytest.raises(AttributeError):
        u.coeffs = (0, 0)
    with pytest.raises(AttributeError):
        u.extra = 1


# -- fault injection in the residue-field steps of gr_sqrt --------------------


def test_a_residue_root_that_does_not_square_back_raises(monkeypatch):
    monkeypatch.setattr(F2Field, "sqrt", lambda self, a: a ^ 1)
    with pytest.raises(ConsistencyError, match="square back to residue"):
        is_square_pi_r(build_field(199))


@pytest.mark.parametrize("r", [7, 197, 199])  # a square, and a non-square at trace 1
def test_a_trace_that_disagrees_with_artin_schreier_raises_and_exits_70(monkeypatch, capsys, r):
    true_trace = F2Field.trace
    monkeypatch.setattr(F2Field, "trace", lambda self, a: 1 - true_trace(self, a))
    with pytest.raises(ConsistencyError, match="trace and Artin-Schreier"):
        is_square_pi_r(build_field(r))
    code = main(["check-q", "--r", str(r)])
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL
    assert captured.err.startswith("error:") and "Artin-Schreier" in captured.err


def test_a_root_that_does_not_square_back_raises(monkeypatch):
    # The packed stages end in one element product, s * s == u, which shares
    # only the kernel's product with them: a root corrupted on unpacking
    # (slot 0 off by 2) is caught there.
    ring = make_ring(5, 3)
    u = ring.element([3, 1, 2]) * ring.element([3, 1, 2])
    assert gr_sqrt(u) is not None
    true_unpack = PackedMulMod.unpack
    corrupted = []

    def unpack_once_wrong(self, x, count=None):
        slots = true_unpack(self, x, count)
        if not corrupted:
            corrupted.append(x)
            slots[0] = (slots[0] + 2) % 32
        return slots

    monkeypatch.setattr(PackedMulMod, "unpack", unpack_once_wrong)
    with pytest.raises(ConsistencyError, match="square back to u"):
        gr_sqrt(u)
    assert corrupted
