"""Parity of the narrow class number obstruction through the relative class
number h_r^- of Q(zeta_r).

For K = Q the chain is classical: h+ of Q(theta_r) divides h of Q(zeta_r),
and the latter is odd exactly when h_r^- is odd (Hasse), so oddness of h_r^-
certifies 2 not dividing h+.  h_r^- itself comes from the Maillet/Carlitz-
Olson determinant: with m = (r-1)/2, c_b = b^-1 mod r and M[a][b] the least
positive residue of a * c_b mod r (1 <= a, b <= m),

    det M = +- r^((r-3)/2) * h_r^-.

The factor r^((r-3)/2) is taken out of the matrix before elimination: row 1
of M is (c_b), and row_a - a * row_1 = -r * (a * c_b // r), so the r-reduced
matrix M'' with row 1 equal to (c_b) and row a >= 2 equal to
(-(a * c_b // r)) satisfies

    det M = r^((r-3)/2) * det M''    (sign included),

hence h_r^- = |det M''|.  det M'' is computed by Bareiss fraction-free
elimination over Z; its entries are below r in absolute value.  A second,
independent route checks the bit that gates the verdict: r is odd, so
det M = h_r^- (mod 2), and the GF(2) determinant of the unreduced M mod 2
must equal the parity of h_r^-.  A mismatch, or h_r^- < 1, is a hard
internal error (ConsistencyError).

For quadratic base fields no desk-scale algorithm is implemented; parity of
h+ for the compositum is read from an attested external table shipped as
data (see data/hplus_parity.txt), and a missing entry is reported as
undetermined rather than assumed.  load_hplus_table reads a table file once
and records the SHA-256 of exactly the bytes it parsed.
"""

from __future__ import annotations

import hashlib
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from .cycfield import check_prime_r
from .errors import ConsistencyError, TableError
from .intlinalg import bareiss_det, gf2_det

ODD = "odd"
EVEN = "even"
UNDETERMINED = "undetermined"

# Largest r for which the exact Maillet determinant is computed; every range
# and CLI guard on r refers to this bound.
MAX_R = 200


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
    """Exact h_r^- for a prime 5 <= r <= MAX_R via the r-reduced Maillet
    determinant, with its parity checked against GF(2) elimination of M."""
    if r > MAX_R:
        raise ValueError(f"r = {r} exceeds MAX_R = {MAX_R}")
    check_prime_r(r)
    m = (r - 1) // 2
    inverses = [pow(b, -1, r) for b in range(1, m + 1)]
    reduced = [inverses]
    reduced += [[-(a * c // r) for c in inverses] for a in range(2, m + 1)]
    det_reduced = bareiss_det(reduced)
    h_minus = abs(det_reduced)
    if h_minus < 1:
        raise ConsistencyError(f"h^- computed as {h_minus} < 1 for r = {r}")
    mod2_rows = [
        sum(((a * c) % r & 1) << j for j, c in enumerate(inverses))
        for a in range(1, m + 1)
    ]
    if gf2_det(mod2_rows) != h_minus % 2:
        raise ConsistencyError(
            f"GF(2) determinant of the Maillet matrix for r = {r} disagrees "
            f"with the parity of h^- = {h_minus}"
        )
    exponent = (r - 3) // 2
    return HMinusResult(
        r=r,
        h_minus=h_minus,
        parity=ODD if h_minus % 2 else EVEN,
        determinant=r**exponent * det_reduced,
        scaling_exponent=exponent,
    )


# -- external h+ parity table ----------------------------------------------


class HPlusTable(dict):
    """(d, r) -> HPlusTableEntry; `sha256` digests the bytes parsed."""

    __slots__ = ("sha256",)


def load_hplus_table(path: str | Path | None = None) -> HPlusTable:
    """Parse a parity table, the shipped one by default: lines of `d r parity
    source...`, # comments, UTF-8.  Duplicate (d, r) keys are an error."""
    if path is None:
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
    return hashlib.sha256(data).hexdigest()


def h_plus_parity(base_d: int, r: int, table: HPlusTable | None = None) -> tuple[str, dict]:
    """Parity of h+ of the real field attached to (base_d, r), plus evidence.

    base_d = 0 means the rational base: the parity is that of h_r^- from the
    Maillet determinant.  Other bases are looked up in the table (the shipped
    one when none is given); a missing entry yields ("undetermined", ...) so
    that no criterion can silently treat absence of data as a pass.
    """
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
