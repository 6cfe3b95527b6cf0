"""Galois rings GR(2^n, f) = (Z/2^n)[t]/(m(t)), m irreducible mod 2.

These model O/P^n at an unramified prime P above 2 (residue degree f).  The
main operation is the unit square root: in an unramified 2-adic ring a unit
u is a square exactly when two finite obstructions vanish, one mod 4 and one
mod 8 (an Artin-Schreier trace condition); beyond mod 8 Hensel lifting is
unobstructed.  That yields an exact decision procedure for congruences
u = v^2 mod P^n once n >= 3.  The mod-8 obstruction is read in the residue
field GF(2^f), the ring's `residue_field`, an ffpoly.F2Field whose elements
are bit-packed ints, and the only inverse taken is that of the residue root,
one extended Euclid in GF(2^f) (F2Field.inverse) per square root.  The
residue field comes from the Berlekamp matrix of psi mod 2, whose rank
proves psi irreducible mod 2: for psi_r, RealCyclotomicField builds it once
as the second route of two_shape (the first is the order of 2 in
(Z/r)^*/{±1}) and is_square_pi_r hands that same field to the ring, which
checks its modulus.  That build is is_square_pi_r's one check that 2 is
inert (NotInertError otherwise).  The residue field's square root, trace
and Artin-Schreier solver then cost one product, one AND and one reduction
per call.  gr_sqrt works on the ring's packed ints throughout: it packs u
once, moves between the ring and the residue field by byte translation
(numutil.Slots.residue and lift) and unpacks only the root.

For the field Q(zeta_r + 1/zeta_r) with 2 inert, O/2^n O is GR(2^n, (r-1)/2)
with modulus psi_r mod 2^n; this identification uses that Z[theta] is the
full ring of integers (odd discriminant), which holds for every prime r here.
A GaloisRing is a view of Z[theta]'s arithmetic mod 2^n: its elements are
cycfield.CycInt coefficient vectors reduced mod m = 2^n.  The ring is its
own whole-int kernel: GaloisRing extends PackedMulMod, which packs a vector
into the slots of a numutil.Slots and multiplies by one Kronecker product
and a Barrett reduction, a few big-int multiplies in place of f^2
coefficient products.  GaloisRingElem adds only `is_unit`, its repr and its
own name for the product.
"""

from __future__ import annotations

from .cycfield import CycInt, RealCyclotomicField, polyrem
from .errors import ConsistencyError, NonUnitError, PrecisionError
from .ffpoly import F2Field, f2_from_coeffs
from .numutil import Slots

# Precision n of O/P^n for hypothesis (iv): the mod-P^(4e+1) level, e = 1.
PI_R_PRECISION = 5


class PackedMulMod(Slots):
    """Coefficient vectors mod a monic polynomial `psi` of degree f over
    Z/2^n, each packed into one int (a numutil.Slots of f slots), and their
    products by a Kronecker substitution with a Barrett reduction (von zur
    Gathen and Gerhard, Modern Computer Algebra, sections 8.4 and 9.1).

    Every operand is masked to [0, 2^n) per slot, so a product of vectors
    with at most f slots holds less than f * 2^(2n) in a slot; slots of
    k >= 2n + bit_length(f) bits keep that below 2^k, no slot carries into
    the next, and shifts and masks are exact polynomial operations.  Since
    k > n + 1, a sum or a difference offset by 2^n stays inside its slot
    too, so `add`, `sub`, `div_pow2` and the inherited `residue` and `lift`
    work on the packed int as a whole."""

    __slots__ = ("_mask", "_mask_q", "_mask_r", "_mu", "_neg_psi", "_ones", "_top")

    def __init__(self, psi, n: int) -> None:
        """psi: the monic modulus, constant term first, coefficients in
        [0, 2^n)."""
        f = len(psi) - 1
        super().__init__(2 * n + f.bit_length(), f)
        k, m = self.bits, 1 << n
        # m - 1 in each of the 2f - 1 slots of a product; the top f - 1 slots
        # hold a quotient, the bottom f a remainder.
        self._mask = self.pack([m - 1] * (2 * f - 1))
        self._mask_q = self._mask >> (k * f)
        self._mask_r = self._mask >> (k * (f - 1))
        self._mu = self._barrett_constant(psi, m)
        self._neg_psi = self.pack([-c % m for c in psi[:f]])
        # 1 and 2^n in each of the f slots of a vector.
        self._ones = self.pack([1] * f)
        self._top = self._ones << n

    def _barrett_constant(self, psi, m: int) -> int:
        """mu = floor(x^(2f-2) / psi) mod 2^n, packed.  Its reversal is the
        inverse of the reversal of psi mod x^(f-1), a power series with
        constant term 1 since psi is monic; Newton's step
        g <- g + g(1 - rev(psi) g) doubles the precision of g, and every
        step stays mod 2^n."""
        f, k = self.count, self.bits
        size = f - 1
        if size < 1:
            return 0  # f = 1: a product of constants needs no reduction
        m_each = self.pack([m] * size)
        rev_psi = self.pack(psi[f:1:-1])
        g, prec = 1, 1
        while prec < size:
            prec = min(2 * prec, size)
            low = self._mask_q >> (k * (size - prec))
            e = (rev_psi * g) & low
            # (m_each + 1 - e) & low is 1 - e mod 2^n in each slot
            g = (g + g * ((m_each + 1 - e) & low)) & low
        return self.pack(self.unpack(g, size)[::-1])

    def mul(self, a, b) -> tuple[int, ...]:
        """a * b mod (psi, 2^n) for coefficient vectors a, b of length at
        most f with entries in [0, 2^n), by mul_packed."""
        return tuple(self.unpack(self.mul_packed(self.pack(a), self.pack(b))))

    def mul_packed(self, a: int, b: int) -> int:
        """a * b mod (psi, 2^n) for packed vectors a, b of at most f slots,
        each in [0, 2^n); the result is packed the same way.  With p the
        product and p_hi its terms of degree >= f shifted down, the quotient
        by psi is floor(p_hi * mu / x^(f-2)) and the remainder
        p - quotient * psi; both are read mod 2^n."""
        k, f = self.bits, self.count
        p = (a * b) & self._mask
        high = p >> (k * f)
        if high:
            q = ((high * self._mu) >> (k * (f - 2))) & self._mask_q
            # Slots at and above f are garbage here and masked away.
            p = (p + q * self._neg_psi) & self._mask_r
        return p

    def add(self, a: int, b: int) -> int:
        """a + b mod 2^n slot by slot: each sum is below 2^(n+1) < 2^k."""
        return (a + b) & self._mask_r

    def sub(self, a: int, b: int) -> int:
        """a - b mod 2^n slot by slot: 2^n + a_i - b_i lies in (0, 2^(n+1)),
        so no slot borrows from the next."""
        return ((a | self._top) - b) & self._mask_r

    def div_pow2(self, a: int, j: int) -> int | None:
        """a / 2^j slot by slot, or None when some slot is not divisible: a
        mask test of the low j bits of every slot, then one shift, which
        moves no bit across a slot boundary once those bits are 0."""
        if a & (self._ones * ((1 << j) - 1)):
            return None
        return a >> j


class GaloisRing(PackedMulMod):
    """GR(2^n, f) with a fixed monic modulus `psi` of degree f, irreducible
    mod 2.  It owns its elements the way a RealCyclotomicField does:
    `degree` is f (its slot count), `psi` the modulus mod 2^n, `m` = 2^n,
    and `mul_coeffs` its own packed product, PackedMulMod.mul."""

    __slots__ = ("n", "psi", "m", "residue_field")

    mul_coeffs = PackedMulMod.mul

    def __init__(self, n: int, modulus_coeffs, residue_field: F2Field | None = None) -> None:
        """residue_field: GF(2)[t]/(psi mod 2) when the caller has built it
        already (RealCyclotomicField.residue_field_at_2); its modulus must be
        psi mod 2 (ValueError otherwise).  Without it the ring builds one,
        whose Berlekamp rank test raises ValueError if psi is reducible
        mod 2.  Either way a modulus of degree 0 is refused with ValueError:
        F2Field refuses degree 0, and no residue field has modulus 1."""
        if n < 1:
            raise ValueError("precision exponent n must be >= 1")
        psi = [c % (1 << n) for c in modulus_coeffs]
        if not psi or psi[-1] != 1:
            raise ValueError("modulus must be monic")
        f = len(psi) - 1
        if residue_field is None:
            residue_field = F2Field(f, f2_from_coeffs(psi))
        elif residue_field.modulus != f2_from_coeffs(psi):
            raise ValueError("the residue field's modulus is not psi mod 2")
        self.residue_field = residue_field
        self.n = n
        self.psi = tuple(psi)
        self.m = 1 << n
        super().__init__(self.psi, n)

    @property
    def degree(self) -> int:
        return self.count

    # -- element plumbing --------------------------------------------------

    def element(self, coeffs) -> "GaloisRingElem":
        if isinstance(coeffs, int):
            coeffs = [coeffs]
        m = self.m
        return GaloisRingElem(self, tuple([c % m for c in polyrem(coeffs, self.psi)]))

    @property
    def one(self) -> "GaloisRingElem":
        return self.element(1)

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

    Stages: unique residue-field root, checked by squaring it back; mod-4
    obstruction (the square of any lift s of the residue root is well
    defined mod 4); mod-8 Artin-Schreier obstruction trace(c) = 0 with
    c = (u/s^2 - 1)/4 mod P, computed in the residue field as
    residue((u - s^2)/4) / root^2 and decided twice: by the trace vector and
    by the reduction of c against the residue field's pivots, which must
    leave a remainder exactly when the trace is 1; then linear Hensel steps,
    which never obstruct once k >= 3.  The residue root is inverted once and
    no Galois-ring inverse is taken.  Each residue-field step is one product
    or one reduction (ffpoly.F2Field), with no loop over the Frobenius map.

    u is packed once (the ring is a PackedMulMod) and everything up to the
    root stays a packed int: products by mul_packed, u - s^2 by sub, the
    exact divisions by 2^k by div_pow2, residue and lift by byte
    translation.  The root is unpacked once and checked by one element
    product, s * s == u, which shares only the ring's packed product with
    the steps it checks.
    """
    ring = u.field
    fld = ring.residue_field
    if ring.n < 3:
        raise PrecisionError("square obstructions need precision n >= 3")
    if not u.is_unit():
        raise NonUnitError("gr_sqrt needs a unit")
    packed_u = ring.pack(u.coeffs)

    residue_u = ring.residue(packed_u)
    root = fld.sqrt(residue_u)
    if fld.mul(root, root) != residue_u:
        raise ConsistencyError("residue-field root does not square back to residue(u)")
    root_inv = fld.inverse(root)
    s = ring.lift(root)
    quarter = ring.div_pow2(ring.sub(packed_u, ring.mul_packed(s, s)), 2)
    if quarter is None:
        return None

    # (u/s^2 - 1)/4 = (u - s^2)/4 * s^-2, and s = root mod 2.
    c = fld.mul(fld.mul(ring.residue(quarter), root_inv), root_inv)
    v = fld.artin_schreier(c)
    if (v is None) != (fld.trace(c) == 1):
        raise ConsistencyError("trace and Artin-Schreier reduction disagree")
    if v is None:
        return None
    s = ring.mul_packed(s, 1 + (ring.lift(v) << 1))  # s (1 + 2 lift(v)): s^2 = u mod 8

    # s = lift(root) mod 2 throughout, so root_inv inverts every residue of s.
    for k in range(3, ring.n):
        rem = ring.div_pow2(ring.sub(packed_u, ring.mul_packed(s, s)), k)
        if rem is None:
            raise ConsistencyError("u - s^2 is not divisible by 2^k")
        t = fld.mul(ring.residue(rem), root_inv)
        s = ring.add(s, ring.lift(t) << (k - 1))
    root_elem = GaloisRingElem(ring, tuple(ring.unpack(s)))
    if not (root_elem * root_elem == u):
        raise ConsistencyError("lifted root does not square back to u")
    return root_elem


def is_square_pi_r(field: RealCyclotomicField) -> bool:
    """Whether pi_r = theta - 2 is a square in O/P^PI_R_PRECISION at the
    inert prime P above 2.

    Requires 2 inert in Q(theta): field.residue_field_at_2() raises
    NotInertError otherwise.  When 2 is not inert the quotient at a single
    prime above 2 is not this Galois ring and the caller must fall back to
    the norm-residue criterion instead.
    """
    ring = GaloisRing(PI_R_PRECISION, field.psi, field.residue_field_at_2())
    u = ring.element(field.pi_r().coeffs)
    return gr_sqrt(u) is not None
