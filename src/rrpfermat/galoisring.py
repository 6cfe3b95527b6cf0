"""Galois rings GR(2^n, f) = (Z/2^n)[t]/(m(t)), m irreducible mod 2.

These model O/P^n at an unramified prime P above 2 (residue degree f).  The
main operation is the unit square root: in an unramified 2-adic ring a unit
u is a square exactly when two finite obstructions vanish, one mod 4 and one
mod 8 (an Artin-Schreier trace condition); beyond mod 8 Hensel lifting is
unobstructed.  That yields an exact decision procedure for congruences
u = v^2 mod P^n once n >= 3.  The mod-8 obstruction is read in the residue
field GF(2^f): `residue` and `lift` move between the ring and its
`residue_field`, an ffpoly.F2Field whose elements are bit-packed ints, and
the only inverse taken is that of the residue root, one extended Euclid in
GF(2^f) (F2Field.inverse) per square root.  The residue field is built once
per ring from the Berlekamp matrix of psi mod 2, whose rank is the second
test that 2 is inert (the first is the DDF of
RealCyclotomicField.two_shape); its square root, trace and Artin-Schreier
solver then cost one product, one AND and one reduction per call.

For the field Q(zeta_r + 1/zeta_r) with 2 inert, O/2^n O is GR(2^n, (r-1)/2)
with modulus psi_r mod 2^n; this identification uses that Z[theta] is the
full ring of integers (odd discriminant), which holds for every prime r here.
A GaloisRing is a view of Z[theta]'s arithmetic mod 2^n: its elements are
cycfield.CycInt coefficient vectors reduced mod m = 2^n, multiplied by the
ring's own whole-int kernel (`GaloisRing.mul_coeffs`: one Kronecker product
and a Barrett reduction, a few big-int multiplies in place of f^2
coefficient products), and GaloisRingElem adds only `is_unit`, its repr and
its own name for the product.
"""

from __future__ import annotations

from array import array

from .cycfield import CycInt, RealCyclotomicField, polyrem
from .errors import ConsistencyError, NonUnitError, PrecisionError
from .ffpoly import F2Field, f2_from_coeffs
from .numutil import slot_layout

# Precision n of O/P^n for hypothesis (iv): the mod-P^(4e+1) level, e = 1.
PI_R_PRECISION = 5


class PackedMulMod:
    """Products of coefficient vectors mod a monic polynomial `psi` of
    degree f over Z/2^n, by a Kronecker substitution with a Barrett reduction
    (von zur Gathen and Gerhard, Modern Computer Algebra, sections 8.4 and
    9.1).

    A vector with coefficients in [0, 2^n) is packed into one int,
    coefficient i in the k-bit slot i.  Every operand is masked to [0, 2^n)
    per slot, so a product of vectors with at most f slots holds less than
    f * 2^(2n) in a slot; k >= 2n + bit_length(f) keeps that below 2^k, no
    slot carries into the next, and shifts and masks are exact polynomial
    operations.  k is the narrowest array type that fits, or whole bytes
    past 64 bits (numutil.slot_layout)."""

    __slots__ = ("_f", "_typecode", "_slot_bytes", "_slot_bits",
                 "_mask", "_mask_q", "_mask_r", "_mu", "_neg_psi")

    def __init__(self, psi, n: int) -> None:
        """psi: the monic modulus, constant term first, coefficients in
        [0, 2^n)."""
        f = self._f = len(psi) - 1
        m = 1 << n
        self._typecode, self._slot_bytes = slot_layout(2 * n + f.bit_length())
        k = self._slot_bits = 8 * self._slot_bytes
        # m - 1 in each of the 2f - 1 slots of a product; the top f - 1 slots
        # hold a quotient, the bottom f a remainder.
        self._mask = self._pack([m - 1] * (2 * f - 1))
        self._mask_q = self._mask >> (k * f)
        self._mask_r = self._mask >> (k * (f - 1))
        self._mu = self._barrett_constant(psi, m)
        self._neg_psi = self._pack([-c % m for c in psi[:f]])

    def _pack(self, coeffs) -> int:
        """Coefficients in [0, 2^k) as one int, coefficient i in slot i."""
        if self._typecode:
            return int.from_bytes(array(self._typecode, coeffs).tobytes(), "little")
        w = self._slot_bytes
        return int.from_bytes(b"".join([c.to_bytes(w, "little") for c in coeffs]), "little")

    def _unpack(self, x: int, count: int) -> list[int]:
        """The low `count` slots of x, slot 0 first."""
        buf = x.to_bytes(count * self._slot_bytes, "little")
        if self._typecode:
            return array(self._typecode, buf).tolist()
        w = self._slot_bytes
        return [int.from_bytes(buf[i : i + w], "little") for i in range(0, len(buf), w)]

    def _barrett_constant(self, psi, m: int) -> int:
        """mu = floor(x^(2f-2) / psi) mod 2^n, packed.  Its reversal is the
        inverse of the reversal of psi mod x^(f-1), a power series with
        constant term 1 since psi is monic; Newton's step
        g <- g + g(1 - rev(psi) g) doubles the precision of g, and every
        step stays mod 2^n."""
        f, k = self._f, self._slot_bits
        size = f - 1
        if size < 1:
            return 0  # f = 1: a product of constants needs no reduction
        m_each = self._pack([m] * size)
        rev_psi = self._pack(psi[f:1:-1])
        g, prec = 1, 1
        while prec < size:
            prec = min(2 * prec, size)
            low = self._mask_q >> (k * (size - prec))
            e = (rev_psi * g) & low
            # (m_each + 1 - e) & low is 1 - e mod 2^n in each slot
            g = (g + g * ((m_each + 1 - e) & low)) & low
        return self._pack(self._unpack(g, size)[::-1])

    def mul(self, a, b) -> tuple[int, ...]:
        """a * b mod (psi, 2^n) for coefficient vectors a, b of length at
        most f with entries in [0, 2^n).  With p the product and p_hi its
        terms of degree >= f shifted down, the quotient by psi is
        floor(p_hi * mu / x^(f-2)) and the remainder p - quotient * psi;
        both are read mod 2^n."""
        k, f = self._slot_bits, self._f
        p = (self._pack(a) * self._pack(b)) & self._mask
        high = p >> (k * f)
        if high:
            q = ((high * self._mu) >> (k * (f - 2))) & self._mask_q
            # Slots at and above f are garbage here and masked away.
            p = (p + q * self._neg_psi) & self._mask_r
        return tuple(self._unpack(p, f))


class GaloisRing:
    """GR(2^n, f) with a fixed monic modulus `psi` of degree f, irreducible
    mod 2.  It owns its elements the way a RealCyclotomicField does: `degree`
    is f, `psi` the modulus mod 2^n, `m` = 2^n and `mul_coeffs` the product,
    a PackedMulMod built once per ring."""

    __slots__ = ("n", "degree", "psi", "m", "residue_field", "mul_coeffs")

    def __init__(self, n: int, modulus_coeffs) -> None:
        if n < 1:
            raise ValueError("precision exponent n must be >= 1")
        psi = [c % (1 << n) for c in modulus_coeffs]
        if not psi or psi[-1] != 1:
            raise ValueError("modulus must be monic")
        f = len(psi) - 1
        if f < 1:
            raise ValueError("modulus must have degree >= 1")
        # Berlekamp's rank test: raises if psi is reducible mod 2.
        self.residue_field = F2Field(f, f2_from_coeffs(psi))
        self.n = n
        self.degree = f
        self.psi = tuple(psi)
        self.m = 1 << n
        self.mul_coeffs = PackedMulMod(self.psi, n).mul

    # -- element plumbing --------------------------------------------------

    def element(self, coeffs) -> "GaloisRingElem":
        if isinstance(coeffs, int):
            coeffs = [coeffs]
        m = self.m
        return GaloisRingElem(self, tuple([c % m for c in polyrem(coeffs, self.psi)]))

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
    """
    ring = u.field
    fld = ring.residue_field
    if ring.n < 3:
        raise PrecisionError("square obstructions need precision n >= 3")
    if not u.is_unit():
        raise NonUnitError("gr_sqrt needs a unit")

    residue_u = ring.residue(u)
    root = fld.sqrt(residue_u)
    if fld.mul(root, root) != residue_u:
        raise ConsistencyError("residue-field root does not square back to residue(u)")
    root_inv = fld.inverse(root)
    s = ring.lift(root)
    diff = u - s * s
    if any(c % 4 for c in diff.coeffs):
        return None

    # (u/s^2 - 1)/4 = (u - s^2)/4 * s^-2, and s = root mod 2.
    c = fld.mul(fld.mul(ring.residue(ring.exact_div_pow2(diff, 2)), root_inv), root_inv)
    v = fld.artin_schreier(c)
    if (v is None) != (fld.trace(c) == 1):
        raise ConsistencyError("trace and Artin-Schreier reduction disagree")
    if v is None:
        return None
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
