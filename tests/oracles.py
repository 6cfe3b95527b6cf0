"""Independent oracles for the test suite.

Everything here recomputes expected values through a route different from
the implementation under test: plain integer polynomial arithmetic, sympy
resultants/factorization, exhaustive enumeration, or the analytic class
number formula evaluated exactly over cyclotomic rationals.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product

import sympy as sp
from sympy.matrices.normalforms import hermite_normal_form
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p

from rrpfermat.cycfield import CycInt, RealCyclotomicField
from rrpfermat.errors import (
    ConsistencyError,
    DegenerateCurveError,
    NonUnitError,
    PrecisionError,
    UnfactoredCofactorError,
)
from rrpfermat.ffpoly import X, F2Field, f2_from_coeffs, f2_gcd, f2_mod, f2_mulmod
from rrpfermat.galoisring import GaloisRing
from rrpfermat.intlinalg import _echelon, row_lattice_index
from rrpfermat.numutil import strip_factor

_x = sp.symbols("x")
_y = sp.symbols("y")


def galois_ring(n: int, modulus_coeffs) -> GaloisRing:
    """GR(2^n, f) on a monic modulus of degree f, with the residue field
    GF(2)[t]/(psi mod 2) that GaloisRing requires built here (F2Field raises
    ValueError when psi is reducible mod 2).  For psi_r the field's own
    residue_field_at_2() is the one to pass."""
    f = len(modulus_coeffs) - 1
    return GaloisRing(n, modulus_coeffs, F2Field(f, f2_from_coeffs(modulus_coeffs)))


# -- plain integer polynomial helpers (low coefficient first) ----------------


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def schoolbook_cyc_mul(field: RealCyclotomicField, a: CycInt, b: CycInt) -> tuple[int, ...]:
    """Coefficients of a*b by the schoolbook product and a term-by-term
    reduction modulo psi_r, the CycInt multiply before the shared kernel."""
    d = field.degree
    prod = [0] * (2 * d - 1)
    for i, ai in enumerate(a.coeffs):
        if ai:
            for j, bj in enumerate(b.coeffs):
                if bj:
                    prod[i + j] += ai * bj
    for i in range(len(prod) - 1, d - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(d):
                prod[i - d + j] -= c * field.psi[j]
    return tuple(prod[:d])


def schoolbook_mulmod_2n(a, b, modulus, m: int) -> tuple[int, ...]:
    """a * b reduced mod the monic `modulus` over Z/m by the schoolbook
    product and a term-by-term reduction that reduces only the coefficient
    being eliminated, the Galois-ring product before the packed kernel."""
    d = len(modulus) - 1
    v = poly_mul(a, b)
    for i in range(len(v) - 1, d - 1, -1):
        c = v[i] % m
        if c:
            for j in range(d):
                v[i - d + j] -= c * modulus[j]
    v = [x % m for x in v[:d]]
    return tuple(v + [0] * (d - len(v)))


def psi_by_chebyshev_sum(d: int) -> tuple[int, ...]:
    """psi_r = 1 + V_1 + ... + V_d for d = (r-1)/2, by the recurrence
    V_0 = 2, V_1 = x, V_k = x*V_{k-1} - V_{k-2}: the minimal polynomial
    before its closed form."""
    acc = [1] + [0] * d
    v_prev = [2]
    v_cur = [0, 1]
    for _ in range(d):
        for i, c in enumerate(v_cur):
            acc[i] += c
        v_next = [0] + v_cur  # x * V_k
        for i, c in enumerate(v_prev):
            v_next[i] -= c
        v_prev, v_cur = v_cur, v_next
    return tuple(acc)


def theta_power_sums_by_products(field: RealCyclotomicField) -> list[CycInt]:
    """s_0, ..., s_(r-1), s_k = zeta^k + zeta^-k, by the recurrence
    s_k = theta * s_(k-1) - s_(k-2) with each product a CycInt product (the
    power sums before their shift-and-reduce step)."""
    sums = [field.element(2), field.theta]
    while len(sums) < field.r:
        sums.append(field.theta * sums[-1] - sums[-2])
    return sums


def poly_add(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]


def poly_pow(a, n):
    out = [1]
    for _ in range(n):
        out = poly_mul(out, a)
    return out


def folded_psi_equals_cyclotomic(field: RealCyclotomicField) -> bool:
    """x^d * psi(x + 1/x) == 1 + x + ... + x^(r-1), as integer polynomials."""
    d = field.degree
    acc = [0]
    for j, c in enumerate(field.psi):
        # c * x^(d-j) * (x^2+1)^j
        term = poly_pow([1, 0, 1], j)
        term = [0] * (d - j) + term
        acc = poly_add(acc, [c * t for t in term])
    return acc == [1] * field.r


# -- subresultant resultant ---------------------------------------------------


def _trim(poly) -> list[int]:
    """The coefficient list without its leading zeros."""
    poly = list(poly)
    while poly and not poly[-1]:
        poly.pop()
    return poly


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """The remainder of lc(b)^(deg a - deg b + 1) * a divided by b, trimmed;
    each of the deg a - deg b + 1 steps scales the running remainder by
    lc(b) and cancels its leading term."""
    rem, lead, db = list(a), b[-1], len(b) - 1
    for k in range(len(a) - 1, db - 1, -1):
        c = rem.pop()
        rem = [x * lead for x in rem]
        for j in range(db):
            rem[k - db + j] -= c * b[j]
    return _trim(rem)


def resultant(a, b) -> int:
    """Res(a, b) of two integer polynomials given as coefficient lists,
    constant term first, by the subresultant algorithm (Cohen, GTM 138,
    Alg. 3.3.7): the reference for intlinalg.negacyclic_resultant, which
    replaced it in classnumber.maillet_h_minus.  Leading zeros are ignored;
    a zero polynomial gives 0 and two nonzero constants give 1, as in sympy.

    The contents are taken out first and put back as t.  Each pseudo-
    remainder is divided by g * h^delta and each new h is g^delta /
    h^(delta - 1); both divisions are exact, so the coefficients stay the
    size of the subresultants and the cost is O(deg a * deg b) steps."""
    a, b = _trim(a), _trim(b)
    if not a or not b:
        return 0
    ca, cb = math.gcd(*a), math.gcd(*b)
    t = ca ** (len(b) - 1) * cb ** (len(a) - 1)
    a = [x // ca for x in a]
    b = [x // cb for x in b]
    s = 1
    if len(a) < len(b):
        a, b = b, a
        if (len(a) - 1) & (len(b) - 1) & 1:
            s = -1
    if len(a) == 1:
        return t
    g = h = 1
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da & db & 1:
            s = -s
        rem = _pseudo_remainder(a, b)
        div = g * h**delta
        a, b = b, [x // div for x in rem]
        g = a[-1]
        if delta:
            h = g**delta // h ** (delta - 1)
    if not b:
        return 0
    da = len(a) - 1
    return s * t * (b[0] ** da // h ** (da - 1))


# -- GF(2)[x], bit-packed (bit i is the coefficient of x^i) --------------------


def f2_mul_loop(a: int, b: int) -> int:
    """Shift-and-add over every bit of b, the ffpoly product before the
    set-bit loop and the squaring table."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def f2_inverse_by_power(a: int, modulus: int) -> int:
    """a^(2^f - 2) mod the irreducible modulus of degree f, by
    square-and-multiply on the shift-and-add product and the long division
    below: the GF(2^f) inverse before the extended Euclid."""
    f = modulus.bit_length() - 1
    e, acc, a = (1 << f) - 2, 1, f2_divmod_loop(a, modulus)[1]
    while e:
        if e & 1:
            acc = f2_divmod_loop(f2_mul_loop(acc, a), modulus)[1]
        a = f2_divmod_loop(f2_mul_loop(a, a), modulus)[1]
        e >>= 1
    return acc


def f2_divmod_loop(a: int, b: int) -> tuple[int, int]:
    """Long division reading the degree afresh at every step, the ffpoly
    division before the bit_length reduce loop."""
    if b == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    db = b.bit_length() - 1
    q = 0
    while a.bit_length() - 1 >= db:
        shift = a.bit_length() - 1 - db
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def is_irreducible(p: int) -> bool:
    """Rabin's test: x^(2^n) = x mod p, and x^(2^(n/q)) - x coprime to p for
    each prime q | n.  F2Field ran it on every modulus before the rank of
    the Berlekamp matrix replaced it."""
    n = p.bit_length() - 1
    if n <= 0:
        return False
    if n == 1:
        return True
    h = X
    for _ in range(n):
        h = f2_mulmod(h, h, p)
    if h != f2_mod(X, p):
        return False
    for q in _prime_divisors(n):
        h = X
        for _ in range(n // q):
            h = f2_mulmod(h, h, p)
        if f2_gcd(p, h ^ X) != 1:
            return False
    return True


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def gf2_solve(columns, target: int) -> int | None:
    """A bitmask of columns (bit i for columns[i], each a nonnegative int
    read as a GF(2) vector) whose XOR is target, or None when target is not
    in their span: Gaussian elimination on (vector, bitmask) pairs kept in
    order of decreasing leading bit, apart from intlinalg's eliminator."""
    if target < 0 or any(col < 0 for col in columns):
        raise ValueError("GF(2) vectors must be nonnegative ints")
    basis: list[tuple[int, int]] = []

    def reduce(vec: int, mask: int) -> tuple[int, int]:
        for bvec, bmask in basis:
            if vec >> (bvec.bit_length() - 1) & 1:
                vec ^= bvec
                mask ^= bmask
        return vec, mask

    for i, col in enumerate(columns):
        vec, mask = reduce(col, 1 << i)
        if vec:
            basis.append((vec, mask))
            basis.sort(key=lambda pair: pair[0].bit_length(), reverse=True)
    rest, mask = reduce(target, 0)
    return None if rest else mask


# The GF(2^f) kernels of ffpoly.F2Field before its Berlekamp matrix: each
# loops over the Frobenius map on every call.


def frobenius_sqrt(fld, a: int) -> int:
    """a^(2^(f-1)), the inverse of squaring, by f - 1 squarings."""
    for _ in range(fld.f - 1):
        a = fld.mul(a, a)
    return a


def frobenius_trace(fld, a: int) -> int:
    """a + a^2 + ... + a^(2^(f-1)), by f squarings; must land in {0, 1}."""
    acc = 0
    for _ in range(fld.f):
        acc ^= a
        a = fld.mul(a, a)
    if acc not in (0, 1):
        raise AssertionError("trace landed outside the prime field")
    return acc


def frobenius_artin_schreier(fld, c: int) -> int | None:
    """Some v with v^2 + v = c, or None: gf2_solve over the images
    t^(2i) + t^i of the basis, f products to build them."""
    cols = [fld.mul(1 << i, 1 << i) ^ (1 << i) for i in range(fld.f)]
    return gf2_solve(cols, c)


# -- sympy-backed oracles -----------------------------------------------------


def psi_poly(field: RealCyclotomicField):
    return sp.Poly(list(reversed(field.psi)), _x)


def sympy_norm(field: RealCyclotomicField, a: CycInt) -> int:
    """Norm as resultant(psi, a(x)); psi is monic so no lc normalization."""
    apoly = sp.Poly(list(reversed(a.coeffs)), _x)
    if apoly.is_zero:
        return 0
    return int(sp.resultant(psi_poly(field), apoly))


def sympy_disc(field: RealCyclotomicField) -> int:
    return int(psi_poly(field).discriminant())


def gf2_factor_shape(coeffs_low_first) -> list[tuple[int, int]]:
    """(degree, count) multiset of the distinct irreducible factors over
    GF(2), via sympy; squarefree inputs only (count is per distinct factor)."""
    poly = sp.Poly(list(reversed([c % 2 for c in coeffs_low_first])), _x, modulus=2)
    shape: dict[int, int] = {}
    for fac, exp in poly.factor_list()[1]:
        assert exp == 1, "oracle expects squarefree input"
        deg = fac.degree()
        shape[deg] = shape.get(deg, 0) + 1
    return sorted(shape.items())


def two_residue_degree(r: int) -> int:
    """The residue degree of 2 in Q(zeta_r + 1/zeta_r), the order of 2 in
    (Z/r)^*/{±1}, via sympy's n_order: the order of 2 mod r, halved when it
    is even (then -1 is a power of 2 in the cyclic group (Z/r)^*)."""
    o = sp.n_order(2, r)
    return o // 2 if o % 2 == 0 else o


def gf2_is_irreducible(p: int) -> bool:
    """sympy's irreducibility test over GF(2) on the bit-packed polynomial p
    (the routine behind sympy.Poly(..., modulus=2).is_irreducible, called on
    the dense coefficient list to skip building a Poly)."""
    return bool(gf_irreducible_p([int(b) for b in bin(p)[2:]], 2, ZZ))


def rabin_least_irreducible(f: int) -> int:
    """The least bit-packed irreducible of degree f, scanned with Rabin's test
    alone, the route that least_irreducible's search does not use."""
    for cand in range(1 << f, 1 << (f + 1)):
        if is_irreducible(cand):
            return cand
    raise AssertionError(f"no irreducible of degree {f}")


def weierstrass_c4_delta(A: CycInt, B: CycInt) -> tuple[CycInt, CycInt]:
    """c4 and Delta of Y^2 = X(X-A)(X+B) from the generic b-invariant
    formulas (a2 = B - A, a4 = -AB, other a_i = 0)."""
    b2 = 4 * (B - A)
    b4 = -2 * (A * B)
    b8 = -(A * A * B * B)
    c4 = b2 * b2 - 24 * b4
    delta = -(b2 * b2 * b8) - 8 * (b4 * b4 * b4)
    return c4, delta


# -- integer lattices and the Frey layer ---------------------------------------


def max_minor_gcd(rows, dim: int) -> int:
    """gcd of the dim x dim minors of the integer rows, by sympy
    determinants: the index of their row lattice in Z^dim, 0 when it has
    rank < dim."""
    g = 0
    for pick in combinations(range(len(rows)), dim):
        g = math.gcd(g, int(sp.Matrix([rows[i] for i in pick]).det()))
    return g


def sympy_row_hnf(rows) -> list[list[int]]:
    """Row-style Hermite basis (upper triangular, positive pivots, entries
    above a pivot in [0, pivot)) from sympy's column-style HNF, which puts
    its pivots at the bottom right: reversing the coordinates and the order
    of the columns maps one convention onto the other."""
    if not any(any(row) for row in rows):
        return []
    reversed_rows = [list(row[::-1]) for row in rows]
    hnf = hermite_normal_form(sp.Matrix(reversed_rows).T)
    cols = [[int(v) for v in hnf.col(j)][::-1] for j in range(hnf.cols)]
    return cols[::-1]


def hermite_basis(rows) -> list[list[int]]:
    """The Hermite normal form of the lattice spanned by the integer rows
    (Cohen, GTM 138, Sec. 2.4, in upper-triangular orientation): one row per
    pivot, in pivot order, each pivot positive, and every entry above a
    pivot reduced into [0, pivot), by elimination (`intlinalg._echelon`).
    frey builds the bases of its principal ideals in closed form; this is
    their reference.  Rows are reduced from the last pivot up, so a row
    is only ever reduced by rows that are reduced already; top-down, the
    unreduced entries of each new row would multiply into every row above."""
    pivots = _echelon(rows)
    reduced: list[tuple[int, list[int]]] = []  # (pivot column, row), in pivot order
    for col in sorted(pivots, reverse=True):
        tail = pivots[col]
        if tail[0] < 0:
            tail = [-a for a in tail]
        row = [0] * col + tail
        for c, below in reduced:
            q = row[c] // below[c]
            if q:
                row = [a - q * b for a, b in zip(row, below)]
        reduced.insert(0, (col, row))
    return [row for _, row in reduced]


def ideal_norm(field: RealCyclotomicField, gens: list[CycInt]) -> int:
    """|O / (g_1, ..., g_k)| through the row lattice spanned by theta^i*g_j,
    all rows at once (the coprimality check before Hermite bases)."""
    rows = []
    for g in gens:
        if not g.is_zero():
            rows += field.multiplication_rows(g)
    if not rows:
        raise ValueError("all generators are zero")
    return row_lattice_index(rows, field.degree)


# The least strong pseudoprime to the 13 prime bases 2, ..., 41 (psi_13;
# Sorenson and Webster, arXiv:1509.00864): below it, strong Miller-Rabin on
# those bases is a proof of primality, which numutil.trial_factor uses.
MILLER_RABIN_LIMIT = 3317044064679887385961981


def proven_leftover(rest: int, bound: int) -> bool:
    """The factoriser's contract for a leftover rest > 1 with no prime
    factor up to the bound: it is reported as a prime exactly when sympy
    proves it prime and either trial division to the bound reaches isqrt(rest)
    or rest is below MILLER_RABIN_LIMIT."""
    return sp.isprime(rest) and (math.isqrt(rest) <= bound or rest < MILLER_RABIN_LIMIT)


def conductor_support_trial_division(curve, smoothness_bound: int) -> tuple[int, ...]:
    """Conductor support outside {2, r} from the Bareiss norms of A, B and C
    alone (the conductor before the closed-form factors), with sympy as the
    primality route.  Each norm, stripped of 2 and r, is trial-divided by
    every odd number up to the bound, or until sympy finds what is left
    prime.  That leftover is rest^e, with e = r - 1 for the element built
    on f_0 = (x + y)^2 and e = 1 for the others (N(f_k) = Phi for k >= 1).
    rest joins the support exactly when proven_leftover holds, the
    conductor's contract; otherwise raises UnfactoredCofactorError with the
    product of the leftovers, as the conductor does."""
    field, r = curve.field, curve.field.r
    norms = [abs(field.norm(e)) for e in (curve.A, curve.B, curve.C)]
    if 0 in norms:
        raise DegenerateCurveError("ABC = 0: singular model, j undefined")
    support, cofactor = set(), 1
    for k, n in zip(curve.k, norms):
        n = strip_factor(strip_factor(n, 2), r)
        p, prime = 3, sp.isprime(n)
        while p <= smoothness_bound and n > 1 and not prime:
            if n % p == 0:
                support.add(p)
                while n % p == 0:
                    n //= p
                prime = sp.isprime(n)
            p += 2
        rest, exact = sp.integer_nthroot(n, r - 1 if k == 0 else 1)
        assert exact, (k, n)
        if rest > 1 and proven_leftover(rest, smoothness_bound):
            support.add(int(rest))
        else:
            cofactor *= n
    if cofactor > 1:
        raise UnfactoredCofactorError(f"cofactor {cofactor} has no prime factor <= {smoothness_bound}")
    return tuple(sorted(support))


# -- analytic relative class number -------------------------------------------


def h_minus_analytic(r: int) -> int:
    """h_r^- by the analytic formula 2r * prod_{chi odd} (-B_{1,chi}/2),
    evaluated exactly in Q(zeta_{r-1}) with Fraction arithmetic."""
    m = r - 1
    phi = sp.Poly(sp.cyclotomic_poly(m, _x), _x)
    phic = [Fraction(int(c)) for c in reversed(phi.all_coeffs())]
    deg = len(phic) - 1

    def reduce_mod_phi(vec):
        v = list(vec) + [Fraction(0)] * max(0, deg - len(vec))
        for i in range(len(v) - 1, deg - 1, -1):
            c = v[i]
            if c:
                v[i] = Fraction(0)
                for j in range(deg):
                    v[i - deg + j] -= c * phic[j]
        return v[:deg]

    def mul(a, b):
        prod = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        return reduce_mod_phi(prod)

    g = int(sp.primitive_root(r))
    ind = {}
    val = 1
    for k in range(m):
        ind[val] = k
        val = val * g % r
    acc = [Fraction(0)] * deg
    acc[0] = Fraction(2 * r)
    for j in range(1, m, 2):  # chi_j odd exactly for odd j
        bern = [Fraction(0)] * m
        for a in range(1, r):
            bern[(j * ind[a]) % m] += Fraction(a, r)
        bern = reduce_mod_phi(bern)
        acc = mul(acc, [-(c / 2) for c in bern])
    assert all(c == 0 for c in acc[1:]), "product did not land in Q"
    assert acc[0].denominator == 1, "h^- came out non-integral"
    return int(acc[0])


# -- full Maillet matrix -------------------------------------------------------


def maillet_qbar(r: int) -> list[int]:
    """Qbar = sum_{i<m} (2 floor(g a_i / r) - (g - 1)) x^i for any odd prime
    r, with m = (r-1)/2, g = sympy's least primitive root and a_i = g^i mod
    r: the polynomial whose resultant with x^m + 1 gives h_r^-."""
    g = int(sp.primitive_root(r))
    return [2 * (g * pow(g, i, r) // r) - (g - 1) for i in range((r - 1) // 2)]


def maillet_matrix(r: int) -> list[list[int]]:
    """The unreduced Maillet matrix M[a][b] = a * b^-1 mod r, 1 <= a, b <= m,
    entry by entry; det M = +- r^((r-3)/2) * h_r^- (Carlitz-Olson)."""
    m = (r - 1) // 2
    return [[a * pow(b, -1, r) % r for b in range(1, m + 1)] for a in range(1, m + 1)]


def packed_mod2(matrix) -> list[int]:
    """Rows of an integer matrix mod 2 as ints, column j in bit j."""
    return [sum((x & 1) << j for j, x in enumerate(row)) for row in matrix]


# -- Galois-ring squares -------------------------------------------------------


def gr_elements(ring):
    """All 2^(n*f) elements of a small GR(2^n, f), one per coefficient vector."""
    return map(ring.element, product(range(ring.m), repeat=ring.degree))


def gr_units(ring):
    return (v for v in gr_elements(ring) if v.is_unit())


def gr_square_set(ring) -> frozenset:
    """Coefficient tuples of every square in a small GR(2^n, f), found by
    squaring each of its elements."""
    return frozenset((v * v).coeffs for v in gr_elements(ring))


def gr_sqrt_elementwise(u):
    """The element-wise galoisring.gr_sqrt that the packed one replaced,
    kept as its reference: the same stages (residue root, mod-4 test,
    Artin-Schreier step in the residue field, Hensel steps) on GaloisRingElem
    coefficient tuples, one element product and one tuple comprehension per
    step, with residue, lift and the exact division by 2^k written out."""
    ring = u.field
    fld = ring.residue_field
    if ring.n < 3:
        raise PrecisionError("square obstructions need precision n >= 3")
    if not u.is_unit():
        raise NonUnitError("gr_sqrt needs a unit")

    def residue(a):
        return f2_from_coeffs(a.coeffs)

    def lift(b):
        return ring.element([(b >> i) & 1 for i in range(ring.degree)])

    def exact_div_pow2(a, k):
        if any(c % (1 << k) for c in a.coeffs):
            raise ConsistencyError("coefficient not divisible by 2^k")
        return ring.element([c >> k for c in a.coeffs])

    residue_u = residue(u)
    root = fld.sqrt(residue_u)
    if fld.mul(root, root) != residue_u:
        raise ConsistencyError("residue-field root does not square back to residue(u)")
    root_inv = fld.inverse(root)
    s = lift(root)
    diff = u - s * s
    if any(c % 4 for c in diff.coeffs):
        return None
    c = fld.mul(fld.mul(residue(exact_div_pow2(diff, 2)), root_inv), root_inv)
    v = fld.artin_schreier(c)
    if (v is None) != (fld.trace(c) == 1):
        raise ConsistencyError("trace and Artin-Schreier reduction disagree")
    if v is None:
        return None
    s = s * (ring.one + 2 * lift(v))
    for k in range(3, ring.n):
        rem = exact_div_pow2(u - s * s, k)
        t = fld.mul(residue(rem), root_inv)
        s = s + (1 << (k - 1)) * lift(t)
    if not (s * s == u):
        raise ConsistencyError("lifted root does not square back to u")
    return s


# -- global splitting oracle for the quadratic tower --------------------------


def quadratic_fiber_by_least_irreducible(d: int, f: int) -> tuple[tuple[int, int], ...]:
    """The fiber of x^2 - d over the unramified 2-adic field of residue
    degree f, d = 1 mod 4, by the trace of c = (d - 1)/4 mod 2 in a fresh
    F2Field(f) on the least irreducible modulus: the route that
    splitting._quadratic_fiber took before it read the trace in the field's
    residue_field_at_2() where 2 is inert."""
    from rrpfermat.ffpoly import F2Field

    assert d % 4 == 1
    if F2Field(f).trace(((d - 1) // 4) & 1) == 0:
        return ((1, f), (1, f))
    return ((1, 2 * f),)


def quad_tower_splitting(d: int, r: int) -> list[tuple[int, int]] | None:
    """Splitting of 2 in Q(sqrt(d), theta_r) read from the factorization of
    the minimal polynomial of theta + w mod 2 (w = sqrt(d), or (1+sqrt(d))/2
    when d = 1 mod 4 so that the order has a chance of being 2-maximal),
    certified by Dedekind's criterion at 2.  Returns None when the
    certificate does not apply (reducible minimal polynomial or 2 dividing
    the index)."""
    from rrpfermat.cycfield import build_field

    field = build_field(r)
    psi_y = sp.Poly(list(reversed(field.psi)), _y)
    if d % 4 == 1:
        # w = (1 + sqrt(d))/2 has minimal polynomial z^2 - z + (1-d)/4
        quad = (_x - _y) ** 2 - (_x - _y) + (1 - d) // 4
    else:
        quad = (_x - _y) ** 2 - d
    # P(x) = Res_y(psi(y), quad(x - y)) = prod_i quad evaluated at theta_i
    P = sp.Poly(sp.resultant(psi_y.as_expr(), quad, _y), _x)
    if P.LC() < 0:
        P = -P
    assert P.degree() == r - 1
    if not P.is_irreducible:
        return None
    Pbar = sp.Poly(P, _x, modulus=2)
    factors = Pbar.factor_list()[1]
    # Dedekind at 2: with Pbar = prod gbar_i^e_i, g = prod g_i, h = P/g lifted,
    # F = (g*h - P)/2; 2 does not divide the index iff gcd(Fbar, gbar, hbar) = 1.
    gbar = sp.Poly(1, _x, modulus=2)
    hbar = sp.Poly(1, _x, modulus=2)
    for fac, exp in factors:
        gbar = gbar * fac
        hbar = hbar * fac ** (exp - 1)
    g_lift = sp.Poly(gbar.all_coeffs(), _x)
    h_lift = sp.Poly(hbar.all_coeffs(), _x)
    F2 = g_lift * h_lift - P
    F = sp.Poly([c // 2 for c in F2.all_coeffs()] or [0], _x)
    assert (2 * F - F2).is_zero
    Fbar = sp.Poly(F, _x, modulus=2)
    gcd_all = sp.gcd(sp.gcd(Fbar, gbar), hbar)
    if gcd_all.degree() > 0:
        return None
    return sorted((exp, fac.degree()) for fac, exp in factors)
