"""S-unit descent mechanics and norm-residue obstructions.

Three independent pieces, all exact:

* descent_step: from a solution (lambda, mu) = (1 - tau^2, tau^2) of
  lambda + mu = 1 with mu a square, produce the next solution
  (lambda', mu') = (-(1-tau)^2/(4 tau), (1+tau)^2/(4 tau)).  When a
  designated prime P has v(lambda) > 4 v(2) and v(1 + tau) = v(2), the new
  pair satisfies v(lambda') > v(lambda), which is the strictly increasing
  step behind the S-unit valuation bound.

* pi_plus_four_identity: (zeta^((r-1)/2) + zeta^(-(r-1)/2))^2 = pi_r + 4,
  the square identity that pins the unit part of pi_r-power S-units.

* norm_necessary_condition: the residue systems that a square pi_r mod
  P^(4e+1) forces on the norm down to the base field.  The norm of pi_r
  down to the base is the SIGNED value n = (-1)^((r-1)/2) * r (the product
  of the (r-1)/2 conjugates of theta - 2, all negative reals), and the sign
  matters: for r = 7 mod 8 the value -r is a square residue mod 32 and the
  obstruction vanishes; indeed pi_7 really is a square mod P^5, verified
  exhaustively.  Base Q: n must be an odd square mod 32, i.e. n = 1 mod 8.
  Base Q(sqrt(d)): a two-equation system over (Z/32)^2 (d = 5 mod 8, where
  2 is inert in the base) or (Z/16)^2 (d = 2, 3 mod 4, where 2 ramifies in
  the base), with the same signed right-hand side.  Both the exhaustive
  enumeration and the closed-form congruence are evaluated and must agree;
  disagreement is an internal hard error.  The moduli 32 and 16 are the
  levels at which the two base-field cases are actually decided.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .cycfield import CycInt, RealCyclotomicField, check_prime_r
from .errors import ConsistencyError, NotCoprimeError
from .splitting import check_quadratic_d


class CycFrac:
    """Exact quotient of two CycInt values (denominator nonzero).

    No canonical reduction is attempted (Z[theta] is not a PID in general);
    equality is decided by cross-multiplication, which is valid because the
    ring is an integral domain.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: CycInt, den: CycInt):
        if den.is_zero():
            raise ZeroDivisionError("CycFrac with zero denominator")
        if num.field != den.field:
            raise ValueError("mixed fields")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *_):
        raise AttributeError("CycFrac is immutable")

    @property
    def field(self) -> RealCyclotomicField:
        return self.num.field

    @classmethod
    def from_value(cls, field: RealCyclotomicField, value) -> "CycFrac":
        if isinstance(value, CycFrac):
            return value
        if isinstance(value, Fraction):
            return cls(field.element(value.numerator), field.element(value.denominator))
        return cls(field.element(value), field.one)

    def _coerce(self, other) -> "CycFrac | None":
        if isinstance(other, CycFrac):
            return other
        if isinstance(other, (int, CycInt, Fraction)):
            return CycFrac.from_value(self.field, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycFrac(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycFrac(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o - self

    def __mul__(self, other):
        if isinstance(other, int):
            return CycFrac(self.num * other, self.den)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycFrac(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.num.is_zero():
            raise ZeroDivisionError("division by zero CycFrac")
        return CycFrac(self.num * o.den, self.den * o.num)

    def __neg__(self):
        return CycFrac(-self.num, self.den)

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num * o.den == o.num * self.den

    def __hash__(self):
        raise TypeError("CycFrac is not hashable (no canonical form)")

    def __repr__(self) -> str:
        return f"CycFrac({self.num!r} / {self.den!r})"


class DescentPair(NamedTuple):
    """A solution (lambda, mu) of lambda + mu = 1, with optional valuations
    at the designated prime when the caller supplies a functional."""

    lam: object
    mu: object
    v_lam: int | None = None
    v_mu: int | None = None


def descent_step(tau, val=None) -> DescentPair:
    """One valuation-increasing rewrite of the unit equation.

    tau may be an int, a Fraction, or a CycFrac; the arithmetic is exact in
    all cases and the output pair always sums to 1 exactly.  tau in
    {0, 1, -1} is rejected (the rewrite divides by 4*tau and by 1 -+ tau).
    """
    if isinstance(tau, int):
        tau = Fraction(tau)
    if isinstance(tau, Fraction):
        one = Fraction(1)
    elif isinstance(tau, CycFrac):
        one = CycFrac(tau.field.one, tau.field.one)
    else:
        raise TypeError(f"unsupported tau type: {type(tau).__name__}")
    if tau == 0 or tau == one or tau == -one:
        raise ValueError("tau must avoid 0 and +-1")
    lam1 = one - tau
    lam2 = one + tau
    denom = 4 * tau
    lam = -(lam1 * lam1) / denom
    mu = (lam2 * lam2) / denom
    if not (lam + mu == one):
        raise ConsistencyError("descent output does not sum to 1")
    return DescentPair(
        lam,
        mu,
        None if val is None else val(lam),
        None if val is None else val(mu),
    )


def pi_plus_four_identity(field: RealCyclotomicField) -> bool:
    """Whether (zeta^d + zeta^-d)^2 = pi_r + 4 for d = (r-1)/2; this is an
    identity of the field and must hold for every r."""
    s = field.theta_power_sum(field.degree)
    return s * s == field.pi_r() + 4


def _brute_force_system(modulus: int, check) -> bool:
    return any(
        check(a, b) for a in range(modulus) for b in range(modulus)
    )


def signed_norm_of_pi_r(r: int) -> int:
    """Norm of pi_r = theta - 2 down to the base field's rationals:
    (-1)^((r-1)/2) * r.  Each of the (r-1)/2 conjugates theta_i - 2 is a
    negative real, so the sign alternates with the parity of the degree.
    The relative norm from K+ to a quadratic base K equals the absolute one
    from Q+ to Q whenever sqrt(d) is not in Q+ (always, under r not
    dividing d)."""
    return r if ((r - 1) // 2) % 2 == 0 else -r


def norm_necessary_condition(base_d: int, r: int) -> bool:
    """Whether the norm-residue necessary condition for pi_r to be a square
    mod P^(4e+1) survives.

    True means the criterion fails to rule squareness out; False means
    squareness is ruled out.  The right-hand side of each residue system is
    the signed norm n = (-1)^((r-1)/2) * r; dropping the sign would wrongly
    rule out every r = 7 mod 8 (for which pi_r can be, and for r = 7 is, an
    actual square mod P^5).  Verdicts are computed twice, by exhaustive
    enumeration of the residue system and by the closed-form congruence, and
    any disagreement raises ConsistencyError.
    """
    check_prime_r(r)
    n = signed_norm_of_pi_r(r)
    if base_d == 0:
        # The norm of a square is an odd square mod 2^5, and the odd squares
        # mod 32 are exactly {1, 9, 17, 25}, the residues = 1 mod 8.
        brute = any((v * v - n) % 32 == 0 for v in range(32))
        closed = n % 8 == 1
        if brute != closed:
            raise ConsistencyError("mod-32 square set disagrees with n mod 8")
        return brute
    check_quadratic_d(base_d)
    if base_d % r == 0:
        raise NotCoprimeError(f"r = {r} divides d = {base_d}")
    d = base_d
    if d % 8 == 5:
        # 2 inert in the base; v = a + b(1+sqrt(d))/2, norms taken mod 32.
        half = (d - 1) // 4
        brute = _brute_force_system(
            32,
            lambda a, b: (b * b + 2 * a * b) % 32 == 0
            and (a * a + b * b * half - n) % 32 == 0,
        )
        closed = n % 8 == 1 or n % 8 == d % 8
    elif d % 4 in (2, 3):
        # 2 totally ramified in the base; v = a + b sqrt(d), norms mod 16.
        brute = _brute_force_system(
            16,
            lambda a, b: (2 * a * b) % 16 == 0
            and (a * a + b * b * d - n) % 16 == 0,
        )
        closed = n % 8 == 1 or n % 8 == d % 8
    else:
        raise ValueError(
            f"d = {d} = 1 mod 8: 2 splits in the base field, no unique prime"
        )
    if brute != closed:
        raise ConsistencyError(
            f"residue system (d={d}, r={r}): enumeration {brute} vs closed form {closed}"
        )
    return brute
