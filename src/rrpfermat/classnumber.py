"""Parity of the narrow class number obstruction through the relative class
number h_r^- of Q(zeta_r).

For K = Q the chain is classical: h+ of Q(theta_r) divides h of Q(zeta_r),
and the latter is odd exactly when h_r^- is odd (Hasse), so oddness of h_r^-
certifies 2 not dividing h+.  h_r^- itself comes from the Maillet/Carlitz-
Olson determinant: with m = (r-1)/2 and M[a][b] the least positive residue
of a * b^-1 mod r (1 <= a, b <= m),

    det M = +- r^((r-3)/2) * h_r^-,

an identity this module enforces by exact division (a remainder is a hard
internal error, never rounded away).  The determinant is computed by Bareiss
fraction-free elimination over Z.

For quadratic base fields no desk-scale algorithm is implemented; parity of
h+ for the compositum is read from an attested external table shipped as
data (see data/hplus_parity.txt), and a missing entry is reported as
undetermined rather than assumed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import ConsistencyError, TableError
from .intlinalg import bareiss_det
from .numutil import is_prime

ODD = "odd"
EVEN = "even"
UNDETERMINED = "undetermined"

# Largest r for which the exact Maillet determinant is computed; every range
# and CLI guard on r refers to this bound.
MAX_R = 200


@dataclass(frozen=True)
class HMinusResult:
    r: int
    h_minus: int
    parity: str
    determinant: int
    scaling_exponent: int


@dataclass(frozen=True)
class HPlusTableEntry:
    base_d: int
    r: int
    parity: str
    source: str


def maillet_h_minus(r: int) -> HMinusResult:
    """Exact h_r^- for a prime 5 <= r <= MAX_R via the Maillet determinant."""
    if not is_prime(r) or not 5 <= r <= MAX_R:
        raise ValueError(f"r = {r} must be a prime with 5 <= r <= {MAX_R}")
    m = (r - 1) // 2
    matrix = []
    for a in range(1, m + 1):
        row = []
        for b in range(1, m + 1):
            b_inv = pow(b, -1, r)
            row.append((a * b_inv) % r)
        matrix.append(row)
    det = bareiss_det(matrix)
    exponent = (r - 3) // 2
    scale = r**exponent
    quotient, remainder = divmod(abs(det), scale)
    if remainder != 0:
        raise ConsistencyError(
            f"Maillet determinant for r = {r} is not divisible by r^{exponent}"
        )
    if quotient < 1:
        raise ConsistencyError(f"h^- computed as {quotient} < 1 for r = {r}")
    return HMinusResult(
        r=r,
        h_minus=quotient,
        parity=ODD if quotient % 2 else EVEN,
        determinant=det,
        scaling_exponent=exponent,
    )


# -- external h+ parity table ----------------------------------------------


def shipped_table_path() -> Path:
    return Path(str(resources.files("rrpfermat").joinpath("data/hplus_parity.txt")))


def load_hplus_table(path: str | Path | None = None) -> dict[tuple[int, int], HPlusTableEntry]:
    """Parse a parity table: lines of `d r parity source...`, # comments,
    UTF-8.  Duplicate (d, r) keys are an error."""
    src = Path(path) if path is not None else shipped_table_path()
    table: dict[tuple[int, int], HPlusTableEntry] = {}
    for lineno, raw in enumerate(src.read_text(encoding="utf-8").splitlines(), 1):
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


def table_digest(path: str | Path | None = None) -> str:
    src = Path(path) if path is not None else shipped_table_path()
    return hashlib.sha256(src.read_bytes()).hexdigest()


def h_plus_parity(
    base_d: int,
    r: int,
    table: dict[tuple[int, int], HPlusTableEntry] | None = None,
) -> tuple[str, dict]:
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
