"""Galois rings GR(2^n, f) = (Z/2^n)[t]/(m(t)), m irreducible mod 2.

These model O/P^n at an unramified prime P above 2 (residue degree f).  The
main operation is the unit square root: in an unramified 2-adic ring a unit
u is a square exactly when two finite obstructions vanish, one mod 4 and one
mod 8 (an Artin-Schreier trace condition); beyond mod 8 Hensel lifting is
unobstructed.  That yields an exact decision procedure for congruences
u = v^2 mod P^n once n >= 3.  The mod-8 obstruction is read in the residue
field GF(2^f): `residue` and `lift` move between the ring and its
`residue_field`, an ffpoly.F2Field whose elements are bit-packed ints, and
the only inverse taken is that of the residue root.

For the field Q(zeta_r + 1/zeta_r) with 2 inert, O/2^n O is GR(2^n, (r-1)/2)
with modulus psi_r mod 2^n; this identification uses that Z[theta] is the
full ring of integers (odd discriminant), which holds for every prime r here.
A GaloisRing is a view of Z[theta]'s arithmetic mod 2^n: its elements are
cycfield.CycInt coefficient vectors reduced mod m = 2^n, and GaloisRingElem
adds only `is_unit`, its repr and its own name for the product.
"""

from __future__ import annotations

from .cycfield import CycInt, RealCyclotomicField, polyrem
from .errors import ConsistencyError, NonUnitError, PrecisionError
from .ffpoly import F2Field, f2_from_coeffs

# Precision n of O/P^n for hypothesis (iv): the mod-P^(4e+1) level, e = 1.
PI_R_PRECISION = 5


class GaloisRing:
    """GR(2^n, f) with a fixed monic modulus `psi` of degree f, irreducible
    mod 2.  It owns its elements the way a RealCyclotomicField does: `degree`
    is f, `psi` the modulus mod 2^n and `m` = 2^n."""

    __slots__ = ("n", "degree", "psi", "m", "residue_field")

    def __init__(self, n: int, modulus_coeffs) -> None:
        if n < 1:
            raise ValueError("precision exponent n must be >= 1")
        psi = [c % (1 << n) for c in modulus_coeffs]
        if not psi or psi[-1] != 1:
            raise ValueError("modulus must be monic")
        f = len(psi) - 1
        if f < 1:
            raise ValueError("modulus must have degree >= 1")
        self.residue_field = F2Field(f, f2_from_coeffs(psi))  # raises if reducible mod 2
        self.n = n
        self.degree = f
        self.psi = tuple(psi)
        self.m = 1 << n

    # -- element plumbing --------------------------------------------------

    def element(self, coeffs) -> "GaloisRingElem":
        if isinstance(coeffs, int):
            coeffs = [coeffs]
        return GaloisRingElem(self, polyrem(coeffs, self.psi, self.m))

    @property
    def one(self) -> "GaloisRingElem":
        return self.element(1)

    def residue(self, a: "GaloisRingElem") -> int:
        """a mod 2, as an element of residue_field (a bit-packed int)."""
        return f2_from_coeffs(a.coeffs)

    def lift(self, b: int) -> "GaloisRingElem":
        """The lift of the residue-field element b with 0/1 coefficients."""
        return self.element([(b >> i) & 1 for i in range(self.degree)])

    def exact_div_pow2(self, a: "GaloisRingElem", k: int) -> "GaloisRingElem":
        """Divide every coefficient by 2^k; the division must be exact."""
        out = []
        for c in a.coeffs:
            if c % (1 << k):
                raise ConsistencyError("coefficient not divisible by 2^k")
            out.append(c >> k)
        return self.element(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, GaloisRing) and other.n == self.n and other.psi == self.psi

    def __hash__(self) -> int:
        return hash(("GaloisRing", self.n, self.psi))

    def __repr__(self) -> str:
        return f"GaloisRing(n={self.n}, f={self.degree})"


class GaloisRingElem(CycInt):
    """An element of a GaloisRing: CycInt's arithmetic over Z/2^n.  Its own
    binding of `__mul__` lets ring products be counted apart from products
    in Z[theta]."""

    __slots__ = ()
    __mul__ = CycInt.__mul__
    __rmul__ = __mul__

    def is_unit(self) -> bool:
        return any(c & 1 for c in self.coeffs)

    def __repr__(self) -> str:
        return f"GaloisRingElem({list(self.coeffs)} mod 2^{self.field.n})"


def gr_sqrt(u: GaloisRingElem) -> GaloisRingElem | None:
    """Some v with v^2 = u in GR(2^n, f), or None exactly when u is not a
    square.  Requires a unit u and precision n >= 3.

    Stages: unique residue-field root; mod-4 obstruction (the square of any
    lift s of the residue root is well defined mod 4); mod-8 Artin-Schreier
    obstruction trace(c) = 0 with c = (u/s^2 - 1)/4 mod P, computed in the
    residue field as residue((u - s^2)/4) / root^2; then linear Hensel steps,
    which never obstruct once k >= 3.  The residue root is inverted once and
    no Galois-ring inverse is taken.
    """
    ring = u.field
    fld = ring.residue_field
    if ring.n < 3:
        raise PrecisionError("square obstructions need precision n >= 3")
    if not u.is_unit():
        raise NonUnitError("gr_sqrt needs a unit")

    root = fld.sqrt(ring.residue(u))
    root_inv = fld.inverse(root)
    s = ring.lift(root)
    diff = u - s * s
    if any(c % 4 for c in diff.coeffs):
        return None

    # (u/s^2 - 1)/4 = (u - s^2)/4 * s^-2, and s = root mod 2.
    c = fld.mul(fld.mul(ring.residue(ring.exact_div_pow2(diff, 2)), root_inv), root_inv)
    if fld.trace(c) == 1:
        return None
    v = fld.artin_schreier(c)
    if v is None:
        raise ConsistencyError("trace 0 but no Artin-Schreier solution")
    s = s * (ring.one + 2 * ring.lift(v))  # now s^2 = u mod 8

    # s = lift(root) mod 2 throughout, so root_inv inverts every residue of s.
    for k in range(3, ring.n):
        rem = ring.exact_div_pow2(u - s * s, k)
        t = fld.mul(ring.residue(rem), root_inv)
        s = s + (1 << (k - 1)) * ring.lift(t)
    if not (s * s == u):
        raise ConsistencyError("lifted root does not square back to u")
    return s


def is_square_pi_r(field: RealCyclotomicField) -> bool:
    """Whether pi_r = theta - 2 is a square in O/P^PI_R_PRECISION at the
    inert prime P above 2.

    Requires 2 inert in Q(theta) (NotInertError otherwise); when 2 is not
    inert the quotient at a single prime above 2 is not this Galois ring and
    the caller must fall back to the norm-residue criterion instead.
    """
    field.require_two_inert()
    ring = GaloisRing(PI_R_PRECISION, field.psi)
    u = ring.element(field.pi_r().coeffs)
    return gr_sqrt(u) is not None
