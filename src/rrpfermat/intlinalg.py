"""Exact integer linear algebra: fraction-free determinants, the resultant
of x^m + 1 with an integer polynomial, row-lattice indices, Hermite bases
and determinants over GF(2).  Exactness is the only requirement, and the
matrices stay small: Bareiss serves norms in Z[theta] (at most 15x15 at the
frey caps) and the 30x30 Maillet check at r <= 61, so the classical cubic
algorithms are plenty.  `negacyclic_resultant` gives h_r^- at every
r <= 199: Res(x^m + 1, q) is the product, over the cyclotomic factors
Phi_d of x^m + 1, of the norm of q(zeta_d), and each norm is the product of
the phi(d) conjugates of q, each a strided slice of one tile of slots packed
into one int (numutil.Slots), taken in Z/(2^(dL/2) + 1) and lifted exactly;
m conjugates in all, each product reduced by `fermat_fold` (a mask, a shift
and a subtraction, with one sign fix-up) in place of a long division.  The
quadratic subresultant algorithm that it replaced is the reference in
tests/oracles.py.  One row-echelon eliminator over Z, `_echelon`, serves
`row_lattice_index` and `hermite_basis`.  GF(2) vectors are bit-packed
ints, and one XOR eliminator, `gf2_reduce`, serves `gf2_det` (the Maillet
parity) and `gf2_pivots`, whose pivots ffpoly.F2Field keeps to solve
Artin-Schreier equations by one reduction each."""

from __future__ import annotations

import math

from .numutil import Slots


def bareiss_det(rows) -> int:
    """Determinant of an integer matrix by Bareiss fraction-free elimination.

    All intermediate divisions are exact, so the result is the exact
    determinant over Z regardless of entry size.
    """
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    for r in a:
        if len(r) != n:
            raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i, row_k = a[i], a[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pk - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pk
    return sign * a[n - 1][n - 1]


def negacyclic_resultant(q) -> int:
    """Res(x^m + 1, q) for the integer polynomial q given as its m >= 1
    coefficients, constant term first: a product of norms, each the product
    of the Galois conjugates of q at a root of unity, evaluated exactly in
    packed integers (Kronecker substitution; von zur Gathen and Gerhard,
    Modern Computer Algebra, sections 8.4 and 6.11).

    1. Split.  The roots of x^m + 1 are the zeta with zeta^(2m) = 1 and
       zeta^m != 1, so x^m + 1 = prod Phi_d over the d | 2m that do not
       divide m; with m = 2^a o, o odd, these are d = 2^(a+1) e for e | o.
       x^m + 1 is monic, so Res(x^m + 1, q) is the product of q over its
       roots, prod_d Res(Phi_d, q), and Res(Phi_d, q) is the norm
       N_d = prod_{j in (Z/d)^*} q(zeta^j), zeta = exp(2 pi i / d).  Each d is
       even, and with h = d/2, zeta^h = -1, so q(zeta^j) = c(zeta^j) for
       c = q mod x^h + 1: coefficient i of q goes to slot i mod h with sign
       (-1)^floor(i/h).
    2. Pack.  Let C_t = c_t and C_(t+h) = -c_t for 0 <= t < h, so that
       C_(t+h) = -C_t with t read mod d.  A unit j of Z/d is odd, hence
       prime to h, and k -> kj mod h permutes the slots, so in
       Z[x]/(x^h + 1), where x^(t+h) = -x^t, c(x^j) reduces to
       P_j = sum_{s<h} C_(su) x^s with u = j^-1 mod d.  With U the list of B + C_t for
       t < d (B = 2^(L-1)) tiled h times, the slice U[: h u : u] is
       B + C_(su mod d) for s < h: read as one int in L-bit slots, less
       B * sum_{s<h} 2^(Ls), it is P_j(2^L).  As j runs over (Z/d)^*, so
       does u, so the slices for all units u give every conjugate once.
    3. Lift.  P_j(zeta) = c(zeta^j), so prod_j P_j - N_d vanishes at zeta
       and is a multiple of the monic Phi_d in Z[x].  x -> 2^L maps
       Z[x]/(x^h + 1) into Z/(2^(hL) + 1), and Phi_d, a factor of x^h + 1,
       to M = Phi_d(2^L), a divisor of 2^(hL) + 1; so the product of the
       packed conjugates mod 2^(hL) + 1, reduced mod M, is N_d mod M.  As
       x^h + 1 = prod Phi_(2^(a+1) f) over f | e, M is 2^(hL) + 1 divided by
       the M of every proper divisor f of e, each found before e.  Let
       A = sum |q_i|, so |C_t| <= A and |N_d| <= A^phi(d).  L is the slot
       width of numutil.Slots for (2A).bit_length() bits, so
       2^L >= 2A + 1: every B + C_t lies in [0, 2^L), and
       M = prod |2^L - w| over the primitive d-th roots w of unity exceeds
       (2^L - 1)^phi(d) >= (2A)^phi(d) >= 2 A^phi(d) >= 2 |N_d|.  So N_d is
       the residue of least absolute value mod M.

    4. Fold.  Each running product is reduced mod F = 2^(hL) + 1 by
       fermat_fold, a mask, a shift and a subtraction in place of a long
       division: the running product stays in [0, F), and each packed
       conjugate less the offset lies in (-2^(hL), 2^(hL)), so every
       product fed to the fold has absolute value below 2^(2hL).

    U is one Slots.tile, and all m conjugates cost one slice, one
    Slots.pack, one product and one fold each."""
    m = len(q)
    if not m:
        raise ValueError("q must have at least one coefficient")
    slots = Slots((2 * sum(map(abs, q))).bit_length())
    bits = slots.bits
    base = 1 << (bits - 1)
    two_part, odd = 2, m
    while odd % 2 == 0:
        two_part, odd = 2 * two_part, odd // 2
    res, moduli = 1, {}
    for e in range(1, odd + 1):
        if odd % e:
            continue
        d = two_part * e
        h = d // 2
        folded = [sum(q[s :: d]) - sum(q[s + h :: d]) for s in range(h)]
        tiles = slots.tile([base + c for c in folded] + [base - c for c in folded], h)
        width_f = h * bits
        fermat = (1 << width_f) + 1
        offset = base * ((fermat - 2) // ((1 << bits) - 1))
        norm = 1
        for u in range(1, d, 2):
            if math.gcd(u, d) == 1:
                packed = slots.pack(tiles[: h * u : u])
                norm = fermat_fold(norm * (packed - offset), width_f)
        modulus = moduli[e] = fermat // math.prod(v for f, v in moduli.items() if e % f == 0)
        norm %= modulus
        res *= norm - modulus if 2 * norm > modulus else norm
    return res


def fermat_fold(value: int, n: int) -> int:
    """value mod F = 2^n + 1 in [0, F), for |value| <= 2^(2n), without a
    division.

    Write value = hi 2^n + lo with lo = value & (2^n - 1) in [0, 2^n) and
    hi = value >> n (a floor, so also for value < 0).  As 2^n = -1 mod F,
    value = lo - hi mod F.  |value| <= 2^(2n) gives -2^n <= hi <= 2^n, so
    x = lo - hi lies in [-2^n, 2^(n+1) - 1] = [1 - F, 2F - 3]: one addition
    of F when x < 0, or one subtraction when x >= F, brings it into
    [0, F)."""
    mask = (1 << n) - 1
    x = (value & mask) - (value >> n)
    if x < 0:
        return x + mask + 2
    if x > mask + 1:
        return x - mask - 2
    return x


def gf2_reduce(pivots: dict, vec: int, combo: int = 0) -> tuple[int, int]:
    """Reduce vec by XOR against the pivots ({highest set bit: (vector,
    combo)}, as gf2_pivots builds them), where combo is the bitmask of inputs
    whose XOR is the vector, until its leading bit has no pivot.  Returns
    the reduced (vec, combo): vec is 0 exactly when the input lay in the
    pivots' span, and then the XOR of the inputs in combo is the input.
    The pivots are left as they are."""
    while vec:
        pivot = pivots.get(vec.bit_length() - 1)
        if pivot is None:
            break
        vec ^= pivot[0]
        combo ^= pivot[1]
    return vec, combo


def gf2_pivots(vectors) -> dict:
    """Echelon pivots of the span of the vectors (nonnegative ints read as
    GF(2) vectors), {highest set bit: (vector, combo)} with combo the
    bitmask of the inputs (bit i for vectors[i]) whose XOR is the vector.
    Each input is reduced by gf2_reduce and kept if anything is left, so
    the rank is the number of pivots."""
    pivots: dict = {}
    for i, vec in enumerate(vectors):
        if vec < 0:
            raise ValueError("GF(2) vectors must be nonnegative ints")
        vec, combo = gf2_reduce(pivots, vec, 1 << i)
        if vec:
            pivots[vec.bit_length() - 1] = (vec, combo)
    return pivots


def gf2_det(rows) -> int:
    """Determinant over GF(2) (0 or 1) of the square matrix whose row i is
    the int rows[i], bit j holding the entry in column j: 1 exactly when
    every row leaves a new pivot, i.e. the rows are independent."""
    n = len(rows)
    pivots: dict = {}
    for row in rows:
        if row < 0 or row >> n:
            raise ValueError("matrix must be square: row bits must lie in columns 0..n-1")
        row = gf2_reduce(pivots, row)[0]
        if not row:
            return 0
        pivots[row.bit_length() - 1] = (row, 0)
    return 1


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, rem = divmod(a, b)
        a, b = b, rem
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


def _echelon(rows) -> dict[int, list[int]]:
    """Row-echelon form of the lattice spanned by the integer rows, as
    {pivot column c: the pivot row's entries from column c on}.

    Rows are inserted one at a time.  A row meeting a pivot in its leading
    column is combined with it by the unimodular 2x2 transform of the
    extended gcd of the two leading entries (one row operation when the
    pivot divides), so the span is kept: the gcd row stays as the pivot and
    the other row, now zero there, is inserted further right.  A row already
    in echelon position costs only the scan to its leading entry."""
    pivots: dict[int, list[int]] = {}
    for row in rows:
        row = list(row)
        col = 0
        while True:
            skip = 0
            while skip < len(row) and not row[skip]:
                skip += 1
            if skip == len(row):
                break
            del row[:skip]
            col += skip
            piv = pivots.get(col)
            if piv is None:
                pivots[col] = row
                break
            a, b = piv[0], row[0]
            if b % a == 0:
                q = b // a
                row = [y - q * x for x, y in zip(piv, row)]
            else:
                g, s, t = _xgcd(a, b)
                a, b = a // g, b // g
                pivots[col] = [s * x + t * y for x, y in zip(piv, row)]
                row = [a * y - b * x for x, y in zip(piv, row)]
    return pivots


def row_lattice_index(rows, dim: int) -> int:
    """|Z^dim / L| for the lattice L spanned by the given integer rows.

    Returns 0 when the rows do not span a finite-index sublattice (rank
    deficient).  Triangularizes by integer row operations (`_echelon`); the
    index is the product of the pivots.
    """
    pivots = _echelon(rows)
    if len(pivots) < dim:
        return 0
    index = 1
    for row in pivots.values():
        index *= row[0]
    return abs(index)


def hermite_basis(rows) -> list[list[int]]:
    """The Hermite normal form of the lattice spanned by the integer rows
    (Cohen, GTM 138, Sec. 2.4, in upper-triangular orientation): one row per
    pivot, in pivot order, each pivot positive, and every entry above a
    pivot reduced into [0, pivot).  It spans the same lattice as the rows and
    is unique for it, so it is a short, small-entried input for
    `row_lattice_index`.  Rows are reduced from the last pivot up, so a row
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
