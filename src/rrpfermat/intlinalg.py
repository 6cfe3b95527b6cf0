"""Exact integer linear algebra: fraction-free determinants, row-lattice
indices and determinants over GF(2).  Matrices here stay small (at most
99x99, the Maillet matrix at r = 199), so the classical cubic algorithms are
plenty; exactness is the only requirement.  GF(2) vectors are bit-packed
ints, and one XOR eliminator, `_gf2_insert`, serves `gf2_det` (the Maillet
parity) and `gf2_solve` (the Artin-Schreier equation in ffpoly)."""

from __future__ import annotations


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


def row_lattice_index(rows, dim: int) -> int:
    """|Z^dim / L| for the lattice L spanned by the given integer rows.

    Returns 0 when the rows do not span a finite-index sublattice (rank
    deficient).  Triangularizes by integer row operations (Euclid within
    each column); the index is the product of the pivots.
    """
    mat = [list(r) for r in rows if any(r)]
    top = 0
    index = 1
    for col in range(dim):
        while True:
            nz = [i for i in range(top, len(mat)) if mat[i][col]]
            if not nz:
                return 0
            if len(nz) == 1:
                piv = nz[0]
                break
            nz.sort(key=lambda i: abs(mat[i][col]))
            base = nz[0]
            for i in nz[1:]:
                q = mat[i][col] // mat[base][col]
                if q:
                    mat[i] = [x - q * y for x, y in zip(mat[i], mat[base])]
        mat[top], mat[piv] = mat[piv], mat[top]
        index *= abs(mat[top][col])
        top += 1
    return index
