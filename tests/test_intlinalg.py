"""Property tests of the exact determinants, resultants, lattice indices and
Hermite bases against sympy.  The resultant of x^m + 1 by packed conjugates
is checked against the subresultant reference in oracles and against
sympy."""

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rrpfermat.intlinalg as intlinalg
from rrpfermat.intlinalg import (
    bareiss_det,
    fermat_fold,
    gf2_det,
    gf2_pivots,
    gf2_reduce,
    hermite_basis,
    negacyclic_resultant,
    row_lattice_index,
)
from rrpfermat.numutil import Slots

import oracles
from oracles import gf2_solve, resultant


@st.composite
def square_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    rows = draw(st.lists(st.lists(st.integers(-50, 50), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    # Zero the top of the first column often, so that Bareiss must swap rows
    # (or find the column empty).
    zeros = draw(st.integers(min_value=0, max_value=n))
    for i in range(zeros):
        rows[i][0] = 0
    return rows


@settings(max_examples=300, deadline=None, derandomize=True)
@given(square_matrices())
@example([[0, 1], [1, 0]])
@example([[0, 2, 3], [0, 5, 7], [4, 1, 1]])
@example([[0, 0], [0, 3]])
def test_bareiss_and_gf2_match_sympy(rows):
    expected = int(sp.Matrix(rows).det())
    assert bareiss_det(rows) == expected
    assert gf2_det(oracles.packed_mod2(rows)) == expected % 2


def test_gf2_det_rejects_non_square_rows():
    with pytest.raises(ValueError):
        gf2_det([0b100, 0b001])
    assert gf2_det([]) == 1


def test_gf2_pivots_rejects_negative_vectors():
    with pytest.raises(ValueError):
        gf2_pivots([0b1, -1])
    assert gf2_pivots([]) == {}


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 255), max_size=8), st.integers(0, 255))
@example([], 0)
@example([], 1)
@example([0b11, 0b01], 0b10)
@example([0b110, 0b011, 0b101], 0b111)
def test_gf2_solve_matches_brute_force(columns, target):
    def xor_of(mask):
        acc = 0
        for i, col in enumerate(columns):
            if mask >> i & 1:
                acc ^= col
        return acc

    reachable = any(xor_of(mask) == target for mask in range(1 << len(columns)))
    mask = gf2_solve(columns, target)
    if reachable:
        assert mask is not None and mask >> len(columns) == 0
        assert xor_of(mask) == target
    else:
        assert mask is None


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 255), max_size=8), st.integers(0, 255))
@example([], 1)
@example([0, 0b11, 0b11], 0b11)
@example([0b110, 0b011, 0b101], 0b111)
def test_gf2_pivots_and_reduce_match_brute_force(columns, target):
    def xor_of(mask):
        acc = 0
        for i, col in enumerate(columns):
            if mask >> i & 1:
                acc ^= col
        return acc

    span = {xor_of(mask) for mask in range(1 << len(columns))}
    pivots = gf2_pivots(columns)
    assert 1 << len(pivots) == len(span)  # the rank
    for top, (vec, combo) in pivots.items():
        assert vec.bit_length() - 1 == top and xor_of(combo) == vec
    kept = dict(pivots)
    rest, combo = gf2_reduce(pivots, target)
    assert pivots == kept
    assert (rest == 0) == (target in span) == (gf2_solve(columns, target) is not None)
    assert xor_of(combo) ^ rest == target
    assert rest == 0 or rest.bit_length() - 1 not in pivots


@st.composite
def integer_rows(draw):
    """A few short integer rows, often with zero rows and rank-deficient:
    some rows are multiples or sums of earlier ones."""
    dim = draw(st.integers(min_value=1, max_value=4))
    rows = draw(st.lists(st.lists(st.integers(-20, 20), min_size=dim, max_size=dim),
                         max_size=6))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        if rows:
            i = draw(st.integers(0, len(rows) - 1))
            j = draw(st.integers(0, len(rows) - 1))
            c = draw(st.integers(-3, 3))
            rows.append([a + c * b for a, b in zip(rows[i], rows[j])])
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * dim)
    return rows, dim


def _is_hermite(basis, dim) -> bool:
    leads = []
    for row in basis:
        if len(row) != dim or not any(row):
            return False
        leads.append(next(c for c, a in enumerate(row) if a))
    if leads != sorted(set(leads)):
        return False
    for i, col in enumerate(leads):
        p = basis[i][col]
        if p <= 0 or any(not 0 <= basis[k][col] < p for k in range(i)):
            return False
    return True


@settings(max_examples=300, deadline=None, derandomize=True)
@given(integer_rows())
@example(([], 2))
@example(([[0, 0], [0, 0]], 2))
@example(([[2, 4, 6], [1, 2, 3], [0, 0, 5]], 3))  # rank 2 in Z^3
@example(([[3, 0], [0, 5], [6, 10]], 2))
@example(([[-4, 7], [6, -9]], 2))  # negative pivots before normalisation
def test_lattice_index_and_hermite_basis_match_sympy(case):
    rows, dim = case
    assert row_lattice_index(rows, dim) == oracles.max_minor_gcd(rows, dim)
    basis = hermite_basis(rows)
    assert _is_hermite(basis, dim)
    assert basis == oracles.sympy_row_hnf(rows)
    assert row_lattice_index(basis, dim) == row_lattice_index(rows, dim)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(integer_rows(), integer_rows())
def test_index_of_two_hermite_bases_is_the_index_of_their_rows(first, second):
    rows_i, dim = first
    rows_j = [(row + [0] * dim)[:dim] for row in second[0]]
    h_i, h_j = hermite_basis(rows_i), hermite_basis(rows_j)
    assert row_lattice_index(h_i + h_j, dim) == row_lattice_index(rows_i + rows_j, dim)


_X = sp.symbols("x")


def _sympy_resultant(a, b) -> int:
    """sympy's resultant of two coefficient lists, constant term first.

    sympy 1.14 returns Res(b, a) when deg a < deg b (resultant(x - 2, x^3) is
    -8, where the Sylvester determinant is 8), so the larger degree goes
    first and Res(a, b) = (-1)^(deg a * deg b) Res(b, a) fixes the sign."""
    pa, pb = (sp.Poly(list(reversed(c)) or [0], _X) for c in (a, b))
    if not (pa.is_zero or pb.is_zero) and pa.degree() < pb.degree():
        return (-1) ** (pa.degree() * pb.degree()) * _sympy_resultant(b, a)
    return int(sp.resultant(pa.as_expr(), pb.as_expr(), _X))


def _sylvester_resultant(a, b) -> int:
    """Res(a, b) as the determinant of the Sylvester matrix, by definition."""
    a, b = [list(reversed(c)) for c in (a, b)]
    da, db = len(a) - 1, len(b) - 1
    rows = [[0] * i + a + [0] * (db - 1 - i) for i in range(db)]
    rows += [[0] * i + b + [0] * (da - 1 - i) for i in range(da)]
    return int(sp.Matrix(rows).det())


def test_resultant_sign_is_the_sylvester_determinant():
    for a, b in (([-2, 1], [0, 0, 0, 1]), ([-4, 5], [1, 2, 3, 4]), ([1, 2, 3, 4], [-4, 5]),
                 ([3, 0, -1, 2], [1, 1, 1, 1, 1, 1]), ([1, 1], [2, -1, 0, 4, 1])):
        assert resultant(a, b) == _sylvester_resultant(a, b) == _sympy_resultant(a, b)


_coeffs = st.lists(st.integers(-30, 30), max_size=13)  # degrees 0..12, or zero


@st.composite
def polynomial_pairs(draw):
    """Two signed coefficient lists of independent degrees, sometimes with
    leading zeros, a content other than 1, or a common factor of degree >= 1."""
    a, b = draw(_coeffs), draw(_coeffs)
    if draw(st.booleans()):
        a = a + [0] * draw(st.integers(1, 3))
    if draw(st.booleans()):
        c = draw(st.sampled_from([-6, 2, 3, 10]))
        b = [c * x for x in b]
    if draw(st.integers(0, 3)) == 0:
        common = draw(st.lists(st.integers(-5, 5), min_size=2, max_size=4))
        if common[-1] == 0:
            common[-1] = 1
        a, b = oracles.poly_mul(a or [0], common), oracles.poly_mul(b or [0], common)
    return a, b


@settings(max_examples=300, deadline=None, derandomize=True)
@given(polynomial_pairs())
@example(([], [1, 2, 3]))  # the zero polynomial
@example(([0, 0], [5]))
@example(([7], [-3]))  # two constants
@example(([1, 0, 1], [4]))  # deg b = 0 < deg a
@example(([4], [1, 0, 1]))  # deg a = 0 < deg b
@example(([1, 2, 3], [-4, 0, 5]))  # equal degrees
@example(([1, 2, 3, 4], [-4, 5]))  # both swaps of odd degrees
@example(([-4, 5], [1, 2, 3, 4]))
@example(([6, 4, 2], [9, 0, 3, 0, 0]))  # contents 2 and 3, leading zeros
@example(([-1, 0, 1], [1, 1]))  # common factor x + 1, so 0
@example(([3, 11, -2, 8], [-6, 2, 17, -7, 14]))  # common factor 2x^2 - x + 3
@example(([1] + [0] * 11 + [1], [1, -1, 1, 1, -1, -1, 1, 1, -1, 1, 1, -1]))
def test_resultant_matches_sympy(pair):
    a, b = pair
    assert resultant(a, b) == _sympy_resultant(a, b)


def _negacyclic(q) -> list[int]:
    """x^m + 1 for m = len(q), as a coefficient list."""
    return [1] + [0] * (len(q) - 1) + [1]


@st.composite
def negacyclic_operands(draw):
    """m from 1 to 120 coefficients of up to 70 bits: the slot width that
    the kernel picks runs through all four array types and the byte-wise
    path."""
    m = draw(st.integers(min_value=1, max_value=120))
    bits = draw(st.integers(min_value=0, max_value=70))
    q = draw(st.lists(st.integers(-(1 << bits), 1 << bits), min_size=m, max_size=m))
    if not any(q):
        q[draw(st.integers(0, m - 1))] = draw(st.sampled_from([-1, 1]))
    return q


@settings(max_examples=40, deadline=None, derandomize=True)
@given(negacyclic_operands())
@example([5])  # m = 1: Res(x + 1, 5)
@example([0])  # the zero polynomial
@example([0] * 12)
@example([1, 1, 0])  # 1 + x vanishes at -1, a root of x^3 + 1
@example([1, 1] + [0] * 97)
@example([1, 0, 1, 0, 0, 0])  # 1 + x^2 divides x^6 + 1
@example([1, -1, 1, 0, 0, 0])  # 1 - x + x^2 = Phi_6 divides x^3 + 1, not x^6 + 1
@example([3, -2**70, 2**70 - 5, 7] + [0] * 116)  # byte-wise slots, m = 120
def test_negacyclic_resultant_matches_the_subresultant_and_sympy(q):
    expected = resultant(_negacyclic(q), q)
    assert negacyclic_resultant(q) == expected == _sympy_resultant(_negacyclic(q), q)


@pytest.mark.parametrize("weight, code", [
    (127, "B"), (128, "H"), (2**15 - 1, "H"), (2**15, "I"),
    (2**31 - 1, "I"), (2**31, "Q"), (2**63 - 1, "Q"), (2**63, None),
])
@pytest.mark.parametrize("m", [1, 6, 15, 16])
def test_negacyclic_resultant_at_each_slot_width_boundary(weight, code, m):
    # sum |q_i| = weight is the largest (or smallest) that fits the slot
    # width; q = weight * x^(m-1) makes every conjugate as large as it can be.
    for q in ([0] * (m - 1) + [weight], [weight - m + 1] + [(-1) ** i for i in range(m - 1)]):
        assert sum(map(abs, q)) == weight
        assert Slots((2 * weight).bit_length()).code == code
        assert negacyclic_resultant(q) == resultant(_negacyclic(q), q)


# Widths hL of the Fermat modulus 2^(hL) + 1 at each slot width L of
# numutil.Slots (8, 16, 32 and 64 bits, then whole bytes), for the
# h = 1, 2, 3 and 8 that small m give.
FOLD_WIDTHS = [h * bits for bits in (8, 16, 32, 64, 72) for h in (1, 2, 3, 8)]


def _fold_edges(n):
    """Inputs at the edges of fermat_fold's domain |value| <= 2^(2n) and of
    each of its three branches, with F = 2^n + 1."""
    F = (1 << n) + 1
    top = 1 << (2 * n)
    edges = {0, 1, 2, F - 2, F - 1, F, F + 1, 2 * F - 1, 2 * F, 1 << n, (1 << n) - 1,
             top, top - 1, top - F, (F - 1) * (F - 1), (F - 2) * ((1 << n) - 1)}
    return sorted(edges | {-e for e in edges})


@pytest.mark.parametrize("n", FOLD_WIDTHS)
def test_fermat_fold_at_the_edges_of_each_width(n):
    F = (1 << n) + 1
    for value in _fold_edges(n):
        assert fermat_fold(value, n) == value % F, (n, value)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(FOLD_WIDTHS), st.data())
def test_fermat_fold_is_the_remainder_on_its_whole_domain(n, data):
    top = 1 << (2 * n)
    value = data.draw(st.integers(-top, top))
    assert fermat_fold(value, n) == value % ((1 << n) + 1)


@pytest.mark.parametrize("m", [1, 2, 3, 6, 15, 16])
def test_negacyclic_resultant_at_norms_zero_and_unit(m):
    # q = 0 and q = 1 + x at odd m (x = -1 is a root of x^m + 1) give 0;
    # +-1 and +-x^(m-1) are units, so their conjugates multiply to -1 = F - 1
    # and to the other +-2^k mod F at the top of the fold's range.
    cases = [[0] * m, [1] + [0] * (m - 1), [-1] + [0] * (m - 1),
             [0] * (m - 1) + [1], [0] * (m - 1) + [-1]]
    if m % 2 and m > 1:
        cases.append([1, 1] + [0] * (m - 2))
    for q in cases:
        expected = resultant(_negacyclic(q), q)
        assert expected in (0, 1, -1)
        assert negacyclic_resultant(q) == expected, q


def test_every_product_fed_to_the_fold_lies_in_its_domain(monkeypatch):
    # negacyclic_resultant's docstring bounds each product by 2^(2hL); run
    # the 44 Maillet resultants and the slot-width boundary cases through a
    # fold that checks the bound and records which fix-up branch it took.
    branches = set()

    def checked_fold(value, n):
        assert abs(value) <= 1 << (2 * n)
        x = (value & ((1 << n) - 1)) - (value >> n)
        branches.add(-1 if x < 0 else int(x > 1 << n))  # add F, keep, subtract F
        return fermat_fold(value, n)

    monkeypatch.setattr(intlinalg, "fermat_fold", checked_fold)
    from rrpfermat.numutil import primes_upto

    qs = [oracles.maillet_qbar(r) for r in primes_upto(199) if r >= 5]
    for weight in (127, 128, 2**15, 2**31, 2**63 - 1, 2**63):
        qs += [[weight] + [0] * 5, [0] * 5 + [-weight], [weight - 5] + [(-1) ** i for i in range(5)]]
    for q in qs:
        assert negacyclic_resultant(q) == resultant(_negacyclic(q), q)
    assert branches == {-1, 0, 1}


def test_negacyclic_resultant_needs_a_coefficient():
    with pytest.raises(ValueError):
        negacyclic_resultant([])
