"""Exact arithmetic in the real cyclotomic field Q(theta), theta = zeta_r + 1/zeta_r.

For an odd prime r >= 5, theta = zeta_r + zeta_r^-1 generates the maximal
totally real subfield of the r-th cyclotomic field; its minimal polynomial
psi_r is monic of degree d = (r-1)/2.  Writing V_k for the Chebyshev-style
polynomials with V_k(theta) = zeta_r^k + zeta_r^-k (V_0 = 2, V_1 = x,
V_k = x*V_{k-1} - V_{k-2}), folding the identity zeta^-d * Phi_r(zeta) = 0
gives

    psi_r(x) = 1 + V_1(x) + V_2(x) + ... + V_d(x),

and collecting the sum gives each coefficient in closed form: the
coefficient of x^(d-k) is (-1)^floor(k/2) * C(d - ceil(k/2), floor(k/2)).
Elements are integer coefficient vectors on the power basis 1, theta, ...,
theta^(d-1).  Z[theta] is the full ring of integers here (disc(psi_r) is
odd, a power of r), so this basis is an integral basis and all reductions
are canonical.

One element class, CycInt, holds a coefficient vector modulo its owner's
monic polynomial, over Z (m = 0) or over Z/m, and multiplies through its
owner's `mul_coeffs`.  Over Z the owner is a RealCyclotomicField and psi_r,
and the product is the schoolbook kernel `polymulmod` with its reduction
`polyrem`: at the degrees frey uses (d <= 15) a packed Kronecker product of
signed coefficients was slower.  Over Z/2^n the owner is galoisring's
GR(2^n, f), whose GaloisRingElem is CycInt under its own name and whose
product packs each vector into one int (Kronecker substitution with a
Barrett reduction).

Everything is immutable after construction and every operation is a pure
function, so values can be shared freely across threads.  Memoized field
data (power sums, the splitting shape of 2, the residue field at 2) is a
function of r alone, so a racing first computation stores an equal value.
"""

from __future__ import annotations

from math import comb
from typing import TYPE_CHECKING

from .errors import ConsistencyError, NotInertError
from .intlinalg import bareiss_det
from .numutil import check_prime_r, order_of_two_mod_pm1

if TYPE_CHECKING:
    from .ffpoly import F2Field


def polyrem(vec, modulus) -> tuple[int, ...]:
    """Remainder over Z of the coefficient vector `vec` modulo the monic
    polynomial `modulus` (both constant term first), as deg(modulus)
    coefficients."""
    d = len(modulus) - 1
    v = list(vec)
    for i in range(len(v) - 1, d - 1, -1):
        c = v[i]
        if c:
            base = i - d
            for j in range(d):
                v[base + j] -= c * modulus[j]
    v = v[:d]
    v += [0] * (d - len(v))
    return tuple(v)


def polymulmod(a, b, modulus) -> tuple[int, ...]:
    """Schoolbook product over Z of the coefficient vectors a and b, reduced
    by `polyrem`."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] += ai * bj
    return polyrem(prod, modulus)


class RealCyclotomicField:
    """The field Q(theta) for a fixed odd prime r >= 5.

    Attributes:
        r: the prime.
        degree: d = (r-1)/2.
        psi: minimal polynomial of theta as a tuple of d+1 integers,
             constant term first, leading coefficient 1.
        m: 0, the coefficient ring of its elements is Z.
    """

    __slots__ = ("r", "degree", "psi", "_power_sums", "_two_shape", "_residue_field")
    m = 0

    def __init__(self, r: int):
        check_prime_r(r)
        self.r = r
        self.degree = (r - 1) // 2
        self.psi = self._minimal_polynomial(self.degree)
        # zeta^k + zeta^-k in the theta basis, grown on demand (append-only).
        self._power_sums: list[CycInt] = []
        self._two_shape: tuple[tuple[int, int], ...] | None = None
        self._residue_field: F2Field | None = None

    @staticmethod
    def _minimal_polynomial(d: int) -> tuple[int, ...]:
        """psi_r, constant term first: the coefficient of x^(d-k) is
        (-1)^floor(k/2) * C(d - ceil(k/2), floor(k/2))."""
        return tuple(
            (-1) ** (k // 2) * comb(d - (k + 1) // 2, k // 2) for k in range(d, -1, -1)
        )

    # -- element constructors ------------------------------------------------

    def element(self, coeffs) -> "CycInt":
        """CycInt from an int or any iterable of ints (reduced mod psi if
        longer than the degree)."""
        if isinstance(coeffs, CycInt):
            if coeffs.field != self:
                raise ValueError("element belongs to a different field")
            return coeffs
        if isinstance(coeffs, int):
            coeffs = [coeffs]
        vec = list(coeffs)
        if any(not isinstance(c, int) for c in vec):
            raise TypeError("coefficients must be integers")
        return CycInt(self, polyrem(vec, self.psi))

    def mul_coeffs(self, a, b) -> tuple[int, ...]:
        """The product of two coefficient vectors reduced mod psi, by the
        schoolbook `polymulmod`."""
        return polymulmod(a, b, self.psi)

    @property
    def one(self) -> "CycInt":
        return self.element(1)

    @property
    def theta(self) -> "CycInt":
        return self.element([0, 1])

    def theta_power_sum(self, k: int) -> "CycInt":
        """zeta_r^k + zeta_r^-k in the theta basis, 0 <= k <= r-1.

        Uses the three-term recurrence s(k) = theta*s(k-1) - s(k-2) with
        s(0) = 2, s(1) = theta, where the product by theta is the shift and
        reduction of `multiplication_rows`, polyrem((0,) + s(k-1), psi), not
        a CycInt product; results are memoized per field.
        """
        if not 0 <= k <= self.r - 1:
            raise ValueError(f"k = {k} out of range 0..{self.r - 1}")
        memo = self._power_sums
        if not memo:
            memo += [self.element(2), self.theta]
        while len(memo) <= k:
            shifted = polyrem((0,) + memo[-1].coeffs, self.psi)
            memo.append(CycInt(self, tuple([a - b for a, b in zip(shifted, memo[-2].coeffs)])))
        return memo[k]

    def two_shape(self) -> tuple[tuple[int, int], ...]:
        """The splitting of 2 in Q(theta) as sorted (residue degree, count)
        pairs: ((f, d/f),) with f the order of 2 in (Z/r)^*/{±1}
        (numutil.order_of_two_mod_pm1).  Memoized per field.

        Why: 2 is unramified in Q(zeta_r), and its Frobenius in
        Gal(Q(zeta_r)/Q) = (Z/r)^* is 2 itself.  Q(theta) is the fixed field
        of {±1}, so the Frobenius of 2 in its abelian Galois group
        (Z/r)^*/{±1} is the class of 2, whose order f is the residue degree
        of every prime above 2; there are d/f of them.

        Second route, with ConsistencyError on any disagreement.  Where
        f = d (2 inert), residue_field_at_2() must build: its Berlekamp rank
        proves psi_r mod 2 irreducible, the same GF(2^d) that
        galoisring.is_square_pi_r then hands to its Galois ring, so one
        Berlekamp matrix is built per field, and its NotInertError (a
        ValueError) becomes the ConsistencyError.  Where 2 splits, the
        distinct-degree shape of psi_r mod 2 must be ((f, d/f),); it is the
        splitting of 2 because disc(psi_r) is odd (a power of r), so
        Z[theta] is 2-maximal and Dedekind's criterion applies."""
        if self._two_shape is None:
            from . import ffpoly  # GF(2) code, which a frey process never runs

            f = order_of_two_mod_pm1(self.r)
            shape = ((f, self.degree // f),)
            if f == self.degree:
                try:
                    self.residue_field_at_2()
                except ValueError as exc:
                    raise ConsistencyError(
                        f"r = {self.r}: 2 has order {f} = (r-1)/2 in (Z/r)^*/{{±1}}, "
                        f"but the Berlekamp rank of psi_r mod 2 disagrees ({exc})"
                    ) from exc
            else:
                ddf = tuple(ffpoly.ddf_degrees(ffpoly.f2_from_coeffs(self.psi)))
                if ddf != shape:
                    raise ConsistencyError(
                        f"r = {self.r}: the order of 2 gives the shape {list(shape)}, "
                        f"the DDF of psi_r mod 2 {list(ddf)}"
                    )
            self._two_shape = shape
        return self._two_shape

    def residue_field_at_2(self) -> F2Field:
        """GF(2^d) = GF(2)[t]/(psi_r mod 2), the residue field of the inert
        prime above 2, built once per field.  This is the one inertness
        check at 2: when psi_r mod 2 is reducible, that is when 2 is not
        inert, its Berlekamp rank's ValueError is raised as NotInertError."""
        if self._residue_field is None:
            from . import ffpoly

            try:
                self._residue_field = ffpoly.F2Field(self.degree, ffpoly.f2_from_coeffs(self.psi))
            except ValueError as exc:
                raise NotInertError(f"2 is not inert for r = {self.r}: {exc}") from exc
        return self._residue_field

    def pi_r(self) -> "CycInt":
        """theta - 2, the uniformizer of the unique (totally ramified) prime
        above r."""
        return self.theta - 2

    def multiplication_rows(self, a: "CycInt") -> list[tuple[int, ...]]:
        """The rows a, a*theta, ..., a*theta^(d-1) on the power basis: the
        matrix of multiplication by a, and a Z-basis of the ideal (a)."""
        rows = [a.coeffs]
        for _ in range(self.degree - 1):
            # times theta: shift up one place, then reduce
            rows.append(polyrem((0,) + rows[-1], self.psi))
        return rows

    def norm(self, a) -> int:
        """Norm from Q(theta) down to Q, as the exact determinant of the
        multiplication-by-a matrix on the power basis.  Multiplicative."""
        a = self.element(a)
        if a.is_zero():
            return 0
        return bareiss_det(self.multiplication_rows(a))

    def __repr__(self) -> str:
        return f"RealCyclotomicField(r={self.r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, RealCyclotomicField) and other.r == self.r

    def __hash__(self) -> int:
        return hash(("RealCyclotomicField", self.r))


class CycInt:
    """A coefficient vector on the power basis 1, theta, ..., theta^(d-1),
    taken modulo its owner's monic polynomial `psi`, over Z when the owner's
    `m` is 0 and over Z/m otherwise.  The owner (`field`) is a
    RealCyclotomicField, for the algebraic integers of Q(theta), or a
    galoisring.GaloisRing; CycInt reads only its `degree`, `psi`, `m`,
    `element()`, `one` and `mul_coeffs()`, which returns the reduced product
    of two coefficient vectors.  Immutable and hashable."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs: tuple[int, ...]):
        if len(coeffs) != field.degree:
            raise ValueError("coefficient vector has wrong length")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _new(self, coeffs) -> "CycInt":
        """An element of the same ring, each coefficient reduced mod m when
        m is set.  Callers pass a list or tuple, never a generator: tuple()
        of a generator allocates ten slots and resizes, which leaves idle
        tuples of every other length on the interpreter's free lists."""
        m = self.field.m
        return type(self)(self.field, tuple([c % m for c in coeffs] if m else coeffs))

    def _coerce(self, other) -> "CycInt | None":
        if isinstance(other, CycInt):
            if other.field != self.field:
                raise ValueError("mixed fields")
            return other
        if isinstance(other, int):
            return self.field.element(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._new([a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._new([a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o - self

    def __neg__(self):
        return self._new([-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return self._new([a * other for a in self.coeffs])
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        field = self.field
        return type(self)(field, field.mul_coeffs(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self.field.element(other)
        if not isinstance(other, CycInt):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        """Equal elements hash alike, and a constant c hashes as the int
        coeffs[0].  Over Z (m = 0) that is c itself, so an element and an int
        that compare equal hash alike.  Over Z/m a constant equals every int
        congruent to it mod m but hashes only as its residue in [0, m), so
        in a set or dict it meets the int key in [0, m) and no other."""
        c = self.coeffs
        if not any(c[1:]):
            return hash(c[0])
        return hash((self.field, c))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __repr__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(f"{c}")
            else:
                unit = "theta" if i == 1 else f"theta^{i}"
                if c == 1:
                    terms.append(unit)
                elif c == -1:
                    terms.append(f"-{unit}")
                else:
                    terms.append(f"{c}*{unit}")
        body = " + ".join(terms).replace("+ -", "- ") if terms else "0"
        return f"CycInt({body})"


# -- module-level operations -------------------------------------------------


def build_field(r: int) -> RealCyclotomicField:
    """Field of theta = zeta_r + zeta_r^-1 for a prime 5 <= r <= MAX_R."""
    return RealCyclotomicField(r)


def f_k_eval(field: RealCyclotomicField, k: int, x, y) -> CycInt:
    """The quadratic form f_k(x, y) = x^2 + (zeta^k + zeta^-k) x y + y^2 for
    1 <= k <= (r-1)/2, and f_0(x, y) = (x + y)^2.

    These are the degree-two factors of x^r + y^r over Q(theta):
    f_0 * prod_{k>=1} f_k = (x + y) * (x^r + y^r).

    x and y are used as given when they are ints, and coerced through
    field.element otherwise, so for rational x, y the value is one scalar
    multiple of s_k = theta_power_sum(k), s_k * (xy) + (x^2 + y^2), and no
    product in Z[theta]; either way the result is a CycInt of the field.
    """
    if not isinstance(x, int):
        x = field.element(x)
    if not isinstance(y, int):
        y = field.element(y)
    if k == 0:
        s = x + y
        return field.element(s * s)
    if not 1 <= k <= field.degree:
        raise ValueError(f"k = {k} out of range 0..{field.degree}")
    return field.theta_power_sum(k) * (x * y) + (x * x + y * y)


def alpha_beta_gamma(field: RealCyclotomicField, k1: int, k2: int, k3: int):
    """Coefficients (alpha, beta, gamma) with
    alpha*f_{k1} + beta*f_{k2} + gamma*f_{k3} = 0 identically in x, y.

    With s(k) = zeta^k + zeta^-k these are the symmetric differences
    alpha = s(k3) - s(k2), beta = s(k1) - s(k3), gamma = s(k2) - s(k1);
    they telescope to alpha + beta + gamma = 0 and each has norm equal to
    plus or minus a power of r.
    """
    ks = (k1, k2, k3)
    if len(set(ks)) != 3:
        raise ValueError(f"indices {ks} must be distinct")
    for k in ks:
        if not 0 <= k <= field.degree:
            raise ValueError(f"index {k} out of range 0..{field.degree}")
    s1, s2, s3 = (field.theta_power_sum(k) for k in ks)
    return (s3 - s2, s1 - s3, s2 - s1)
