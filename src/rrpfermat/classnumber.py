"""Parity of the narrow class number obstruction through the relative class
number h_r^- of Q(zeta_r).

For K = Q the chain is classical: h+ of Q(theta_r) divides h of Q(zeta_r),
and the latter is odd exactly when h_r^- is odd (Hasse), so oddness of h_r^-
certifies 2 not dividing h+.

h_r^- comes from the analytic class number formula as a resultant
(Washington, GTM 83, Thm 4.17): h_r^- = 2r prod_{chi odd} (-B_{1,chi}/2).
Let m = (r-1)/2, g the least primitive root mod r and a_i = g^i mod r.  The
odd characters send g to the roots zeta of x^m + 1, and with
F = sum_{i<m} (2 a_i - r) x^i, r B_{1,chi} = F(zeta), so

    Res(x^m + 1, F) = +-(2r)^(m-1) h_r^-.

F has coefficients up to r; a smaller polynomial does the same work.  With
Qbar = sum_{i<m} (2 floor(g a_i / r) - (g - 1)) x^i, whose coefficients lie
below g in absolute value, (g x - 1) F = r x Qbar (mod x^m + 1), and
Res(x^m + 1, g x - 1) = +-(1 + g^m), hence

    h_r^- = r |Res(x^m + 1, Qbar)| / ((1 + g^m) 2^(m-1)).

The resultant is intlinalg.negacyclic_resultant, a product of norms:
x^m + 1 is the product of the cyclotomic Phi_d over the d | 2m that do not
divide m, and Res(Phi_d, Qbar) is the norm of Qbar(zeta_d), the product of
its phi(d) Galois conjugates.  Each conjugate is Qbar folded mod
x^(d/2) + 1 with its slots permuted, a strided slice of one tile of
numutil.Slots, evaluated at zeta_d = 2^L in Z/(2^(dL/2) + 1); the product,
reduced mod Phi_d(2^L) > 2 |norm|, lifts to the norm itself.  That is m
packed products in all, in place of the O(m^2) steps of a subresultant.  A
division that leaves a remainder, or a quotient below 1, is a hard internal
error (ConsistencyError).  The signed Maillet/Carlitz-Olson determinant
follows in closed form (Carlitz and Olson, Proc. AMS 6, 1955): with
c_b = b^-1 mod r and M[a][b] the least positive residue of a * c_b mod r
(1 <= a, b <= m),

    det M = (-r)^((r-3)/2) * h_r^-.

Two independent routes check the result:

- the parity, which gates the verdict, at every r: r is odd, so
  det M = h_r^- (mod 2), and the GF(2) determinant of M mod 2 must equal the
  parity of h_r^-.  The bit rows of M mod 2 are built one from the other,
  row a + 1 = row a + (c_b) mod r, on whole ints that hold every column in
  a slot of one numutil.Slots (maillet_parity_rows);
- the signed value, for r <= BAREISS_CHECK_MAX_R: row 1 of M is (c_b), and
  row_a - a * row_1 = -r * (a * c_b // r), so the r-reduced matrix M'' with
  row 1 equal to (c_b) and row a >= 2 equal to (-(a * c_b // r)) has
  det M = r^((r-3)/2) det M''; Bareiss over Z must give
  det M'' = (-1)^((r-3)/2) h_r^-.

A mismatch in either is a ConsistencyError.

For quadratic base fields no desk-scale algorithm is implemented; parity of
h+ for the compositum is read from an attested external table shipped as
data (see data/hplus_parity.txt), and a missing entry is reported as
undetermined rather than assumed.  load_hplus_table reads a table file once
and records the SHA-256 of exactly the bytes it parsed.
"""

from __future__ import annotations

import os
from typing import NamedTuple

from .errors import ConsistencyError, TableError
from .intlinalg import bareiss_det, gf2_det, negacyclic_resultant
from .numutil import Slots, check_prime_r, least_primitive_root

ODD = "odd"
EVEN = "even"
UNDETERMINED = "undetermined"

# Largest r whose signed value is checked by Bareiss on the 30x30 M'' (about
# 1 ms); past it Bareiss grows as m^3 (51 ms at r = 199) and the parity check
# alone guards the result.
BAREISS_CHECK_MAX_R = 61


class HMinusResult(NamedTuple):
    r: int
    h_minus: int
    parity: str
    determinant: int
    scaling_exponent: int


class HPlusTableEntry(NamedTuple):
    base_d: int
    r: int
    parity: str
    source: str


def maillet_h_minus(r: int) -> HMinusResult:
    """Exact h_r^- for a prime 5 <= r <= MAX_R as r |Res(x^m + 1, Qbar)| /
    ((1 + g^m) 2^(m-1)), with its parity checked against the GF(2)
    determinant of M mod 2 and, for r <= BAREISS_CHECK_MAX_R, its signed
    Maillet determinant against Bareiss on M'' (see the module docstring)."""
    check_prime_r(r)
    m = (r - 1) // 2
    g = least_primitive_root(r)
    q_bar, a = [], 1
    for _ in range(m):
        q_bar.append(2 * (g * a // r) - (g - 1))
        a = g * a % r
    res = negacyclic_resultant(q_bar)
    h_minus, rest = divmod(r * abs(res), (1 + g**m) << (m - 1))
    if rest:
        raise ConsistencyError(
            f"r * Res(x^m + 1, Qbar) = {r * res} for r = {r} is not divisible "
            f"by (1 + g^m) * 2^(m-1) with g = {g}"
        )
    if h_minus < 1:
        raise ConsistencyError(f"h^- computed as {h_minus} < 1 for r = {r}")
    inverses = [pow(b, -1, r) for b in range(1, m + 1)]
    if gf2_det(maillet_parity_rows(r, inverses)) != h_minus % 2:
        raise ConsistencyError(
            f"GF(2) determinant of the Maillet matrix for r = {r} disagrees "
            f"with the parity of h^- = {h_minus}"
        )
    exponent = (r - 3) // 2
    if r <= BAREISS_CHECK_MAX_R:
        reduced = [inverses]
        reduced += [[-(a * c // r) for c in inverses] for a in range(2, m + 1)]
        det_reduced = bareiss_det(reduced)
        if det_reduced != (-1) ** exponent * h_minus:
            raise ConsistencyError(
                f"Bareiss gives det M'' = {det_reduced} for r = {r}, not "
                f"(-1)^{exponent} * h^- with h^- = {h_minus}"
            )
    return HMinusResult(
        r=r,
        h_minus=h_minus,
        parity=ODD if h_minus % 2 else EVEN,
        determinant=(-r) ** exponent * h_minus,
        scaling_exponent=exponent,
    )


def maillet_parity_rows(r: int, inverses: list[int]) -> list[int]:
    """The rows of M mod 2 as ints, column j in bit j, with M[a][b] =
    a * c_b mod r and inverses = [c_1, ..., c_m].

    Row a + 1 is row a plus (c_b) mod r, so each row comes from the one
    before with whole-int operations.  Column b sits in a slot of a
    numutil.Slots for r.bit_length() + 1 bits, k bits wide with r < 2^(k-1):
    a sum of two residues stays below 2r < 2^k, and adding 2^(k-1) - r to
    every slot sets a slot's top bit exactly where the sum reached r, so
    those slots get r taken off.  Slots.residue reads each row mod 2."""
    check_prime_r(r)
    slots = Slots(r.bit_length() + 1, len(inverses))
    top = slots.bits - 1
    step = slots.pack(inverses)
    ones = slots.pack([1] * slots.count)
    offset = ((1 << top) - r) * ones
    tops = ones << top
    row, rows = step, []
    for _ in inverses:
        rows.append(slots.residue(row))
        row += step
        row -= (((row + offset) & tops) >> top) * r
    return rows


# -- external h+ parity table ----------------------------------------------


class HPlusTable(dict):
    """(d, r) -> HPlusTableEntry; `sha256` digests the bytes parsed."""

    __slots__ = ("sha256",)


def load_hplus_table(path: str | os.PathLike | None = None) -> HPlusTable:
    """Parse a parity table, the shipped one by default: lines of `d r parity
    source...`, # comments, UTF-8.  Duplicate (d, r) keys are an error."""
    from pathlib import Path  # only check-quad reads a table

    if path is None:
        from importlib import resources

        path = resources.files("rrpfermat").joinpath("data/hplus_parity.txt")
    src = Path(str(path))
    data = src.read_bytes()
    table = HPlusTable()
    table.sha256 = table_digest(data)
    for lineno, raw in enumerate(data.decode("utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) < 4:
            raise TableError(f"{src}:{lineno}: expected `d r parity source...`")
        try:
            d, r = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise TableError(f"{src}:{lineno}: bad integers") from exc
        parity = parts[2]
        if parity not in (ODD, EVEN):
            raise TableError(f"{src}:{lineno}: parity must be odd|even")
        if (d, r) in table:
            raise TableError(f"{src}:{lineno}: duplicate entry for ({d}, {r})")
        table[(d, r)] = HPlusTableEntry(d, r, parity, " ".join(parts[3:]))
    return table


def table_digest(data: bytes) -> str:
    import hashlib  # only a table load hashes; the other commands never load it

    return hashlib.sha256(data).hexdigest()


def h_plus_parity(base_d: int, r: int, table: HPlusTable | None = None) -> tuple[str, dict]:
    """Parity of h+ of the real field attached to (base_d, r), plus evidence.

    base_d = 0 means the rational base: the parity is that of h_r^- from the
    Maillet determinant.  Other bases are looked up in the table (the shipped
    one when none is given); a missing entry yields ("undetermined", ...) so
    that no criterion can silently treat absence of data as a pass.
    """
    check_prime_r(r)
    if base_d == 0:
        res = maillet_h_minus(r)
        return res.parity, {
            "method": "maillet-h-minus",
            "h_minus": str(res.h_minus),
            "scaling_exponent": res.scaling_exponent,
        }
    if table is None:
        table = load_hplus_table()
    entry = table.get((base_d, r))
    if entry is None:
        return UNDETERMINED, {
            "method": "external-table",
            "missing_entry": f"d={base_d} r={r}",
        }
    return entry.parity, {"method": "external-table", "source": entry.source}
