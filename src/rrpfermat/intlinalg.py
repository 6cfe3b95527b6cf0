"""Exact integer linear algebra: fraction-free determinants, resultants,
row-lattice indices, Hermite bases and determinants over GF(2).  Exactness
is the only requirement, and the matrices stay small: Bareiss serves norms
in Z[theta] (at most 15x15 at the frey caps) and the 30x30 Maillet check at
r <= 61, so the classical cubic algorithms are plenty.  `resultant` is the
quadratic subresultant algorithm; it gives h_r^- at every r <= 199.  One
row-echelon eliminator over Z, `_echelon`, serves `row_lattice_index` and
`hermite_basis`.  GF(2) vectors are bit-packed ints, and one XOR eliminator,
`_gf2_insert`, serves `gf2_det` (the Maillet parity) and `gf2_solve` (the
Artin-Schreier equation in ffpoly)."""

from __future__ import annotations

import math


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
    Alg. 3.3.7).  Leading zeros are ignored; a zero polynomial gives 0 and
    two nonzero constants give 1, as in sympy.

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


def _gf2_insert(pivots: dict, vec: int, combo: int) -> tuple[int, int]:
    """Reduce vec by XOR against the pivots ({highest set bit: (vector,
    combo)}), where combo is the bitmask of inputs whose XOR is the vector.
    A nonzero remainder becomes a new pivot.  Returns the reduced (vec,
    combo): vec is 0 exactly when the input lay in the pivots' span."""
    while vec:
        top = vec.bit_length() - 1
        pivot = pivots.get(top)
        if pivot is None:
            pivots[top] = (vec, combo)
            break
        vec ^= pivot[0]
        combo ^= pivot[1]
    return vec, combo


def gf2_det(rows) -> int:
    """Determinant over GF(2) (0 or 1) of the square matrix whose row i is
    the int rows[i], bit j holding the entry in column j: 1 exactly when
    every row leaves a new pivot, i.e. the rows are independent."""
    n = len(rows)
    pivots: dict = {}
    for row in rows:
        if row < 0 or row >> n:
            raise ValueError("matrix must be square: row bits must lie in columns 0..n-1")
        if not _gf2_insert(pivots, row, 0)[0]:
            return 0
    return 1


def gf2_solve(columns, target: int) -> int | None:
    """A bitmask of columns (bit i for columns[i], each a nonnegative int
    read as a GF(2) vector) whose XOR is target, or None when target is not
    in their span."""
    if target < 0 or any(col < 0 for col in columns):
        raise ValueError("GF(2) vectors must be nonnegative ints")
    pivots: dict = {}
    for i, col in enumerate(columns):
        _gf2_insert(pivots, col, 1 << i)
    rest, combo = _gf2_insert(pivots, target, 0)
    return None if rest else combo


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
