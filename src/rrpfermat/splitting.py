"""Decomposition of 2 and r in Q+ = Q(theta) and in the compositum
K+ = Q(sqrt(d), theta).

The decomposition of 2 in Q+ is read off the order of 2 in (Z/r)^*/{±1},
with the factorization of psi_r mod 2 as the second route (valid because
disc(psi_r) is odd, so 2 is unramified and Z[theta] is 2-maximal).  For
quadratic base fields the compositum is never analyzed through a global
integral basis; instead each prime q of Q+ above 2 contributes a fiber
computed locally: q has an unramified local field of
residue degree f, and the quadratic x^2 - d splits, stays inert, or ramifies
over it according to the 2-adic square-class of d, decided with the same
mod-4 / mod-8 (trace) obstructions used by the Galois-ring square root.
The trace is read in a GF(2^f): where 2 is inert in Q+, f = (r-1)/2 and
that is the field's own residue_field_at_2(), which two_shape() has already
built, so check-quad builds one GF(2^f) per op; only where 2 splits and
d = 1 mod 4 is a GF(2^f) of the least irreducible modulus built.  Its
second route is the closed form Tr(c) = c*f mod 2 for the constant c.

The tower rule computes the splitting in the degree-(r-1) etale algebra
Q(sqrt(d)) (x) Q+.  That coincides with the field K+ whenever sqrt(d) is not
already in Q+, i.e. except for d = r = 1 mod 4, a case every criterion below
excludes through r not dividing d.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .cycfield import RealCyclotomicField, build_field
from .errors import ConsistencyError
from .ffpoly import F2Field
from .numutil import is_squarefree, legendre_symbol


class _SplittingFields(NamedTuple):
    rational_prime: int
    field_degree: int
    primes: tuple[tuple[int, int], ...]


class SplittingReport(_SplittingFields):
    """Splitting type of a rational prime in a field of given degree.

    primes is a tuple of (ramification index e_i, residue degree f_i);
    the fundamental identity sum(e_i * f_i) = field_degree is enforced on
    construction, and the unique/inert flags are derived, not supplied.
    """

    __slots__ = ()

    def __new__(cls, rational_prime: int, field_degree: int, primes: tuple[tuple[int, int], ...]):
        total = sum(e * f for e, f in primes)
        if total != field_degree:
            raise ValueError(f"sum(e*f) = {total} != field degree {field_degree}")
        return super().__new__(cls, rational_prime, field_degree, primes)

    @property
    def unique(self) -> bool:
        return len(self.primes) == 1

    @property
    def inert(self) -> bool:
        return self.unique and self.primes[0] == (1, self.field_degree)

    def to_dict(self) -> dict:
        return {
            "rational_prime": self.rational_prime,
            "field_degree": self.field_degree,
            "primes": [list(p) for p in self.primes],
            "unique": self.unique,
            "inert": self.inert,
        }


def _as_field(r) -> RealCyclotomicField:
    return r if isinstance(r, RealCyclotomicField) else build_field(r)


def split_2_in_Qplus(r) -> SplittingReport:
    """Decomposition of 2 in Q(theta_r): unramified, (r-1)/(2f) primes of
    residue degree f, the order of 2 in (Z/r)^*/{±1}, read off the field's
    memoized two_shape(), which checks it against the Berlekamp rank of
    psi_r mod 2 where 2 is inert and against its distinct-degree shape
    where 2 splits."""
    fld = _as_field(r)
    primes = []
    for deg, count in fld.two_shape():
        primes.extend([(1, deg)] * count)
    return SplittingReport(2, fld.degree, tuple(sorted(primes)))


def check_quadratic_d(d: int):
    """The one rule for a real quadratic base Q(sqrt(d)): d must be a
    squarefree integer > 1 (ValueError otherwise)."""
    if d <= 1 or not is_squarefree(d):
        raise ValueError(f"d = {d} must be a squarefree integer > 1")


def split_2_in_quadratic(d: int) -> SplittingReport:
    """Decomposition of 2 in Q(sqrt(d)) by the classical residue table."""
    check_quadratic_d(d)
    if d % 8 == 1:
        primes = ((1, 1), (1, 1))
    elif d % 8 == 5:
        primes = ((1, 2),)
    else:  # d = 2, 3 mod 4
        primes = ((2, 1),)
    return SplittingReport(2, 2, primes)


def _quadratic_fiber(
    d: int, f: int, residue_field: Callable[[], F2Field]
) -> tuple[tuple[int, int], ...]:
    """Splitting of x^2 - d over the unramified 2-adic field of residue
    degree f, as (e, residue degree) pairs relative to that base.

    residue_field() returns a GF(2^f); it is called only for d = 1 mod 4,
    where the fiber is the trace of c = (d - 1)/4 mod 2 read in it.  The
    constant c lies in GF(2), where the trace is multiplication by f, so
    Tr(c) = c*f mod 2 in every model of GF(2^f): that is the second route,
    and a disagreement raises ConsistencyError."""
    if d % 4 != 1:
        # Ramified regardless of the residue field: for d even, v(d) = 1;
        # for d = 3 mod 4, the square of any lift of sqrt(d mod 2) = 1 is
        # 1 mod 4 != d, so the mod-4 obstruction fails for d and for every
        # unit multiple of a square.
        return ((2, f),)
    # d = 1 mod 4: unramified extension; square vs inert by the trace of
    # c = (d - 1)/4 mod 2 in GF(2^f).
    c = ((d - 1) // 4) & 1
    trace = residue_field().trace(c)
    if trace != c * f % 2:
        raise ConsistencyError(f"d = {d}: Tr({c}) = {trace} in GF(2^{f}), but c*f mod 2 = {c * f % 2}")
    if trace == 0:
        return ((1, f), (1, f))
    return ((1, 2 * f),)


def split_2_in_Kplus(d: int, r) -> SplittingReport:
    """Decomposition of 2 in K+ = Q(sqrt(d), theta_r) by the local tower
    rule: base step in Q+ (unramified, residue degree f per prime), then the
    quadratic fiber over each of those primes.  Every prime above 2 in the
    Galois extension Q+ has the same residue degree f, so the fiber is
    computed once and repeated.

    The fiber's GF(2^f) is the field's residue_field_at_2() where 2 is inert
    (f = (r-1)/2; two_shape() has built and rank-checked it already), and
    F2Field(f), built only if the fiber asks for it, where 2 splits."""
    check_quadratic_d(d)
    fld = _as_field(r)
    base = split_2_in_Qplus(fld)
    f = base.primes[0][1]
    residue_field = fld.residue_field_at_2 if f == fld.degree else lambda: F2Field(f)
    primes = _quadratic_fiber(d, f, residue_field) * len(base.primes)
    return SplittingReport(2, 2 * fld.degree, tuple(sorted(primes)))


def split_r_in_Qplus(r) -> SplittingReport:
    """r is totally ramified in Q(theta_r) with uniformizer pi_r = theta - 2;
    cross-checked here through |Norm(pi_r)| = |psi_r(2)| = r."""
    fld = _as_field(r)
    norm_pi = 0
    # psi_r(2) evaluated by Horner equals +-Norm(theta - 2).
    for c in reversed(fld.psi):
        norm_pi = norm_pi * 2 + c
    if abs(norm_pi) != fld.r:
        raise ConsistencyError(f"|psi_r(2)| = {abs(norm_pi)} != r = {fld.r}")
    return SplittingReport(fld.r, fld.degree, ((fld.degree, 1),))


def check_r_inert_in_quadratic(d: int, r: int) -> bool | None:
    """Whether r stays prime in Q(sqrt(d)): true exactly when d is a
    quadratic non-residue mod r, and None when r divides d (the symbol 0:
    r ramifies).  legendre_symbol refuses an r that is not an odd prime
    <= MAX_R with ValueError, testing the bound before primality."""
    symbol = legendre_symbol(d, r)
    return None if symbol == 0 else symbol == -1
