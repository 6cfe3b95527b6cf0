"""The Frey curve Y^2 = X (X - A) (X + B) attached to a pair (x, y).

A = alpha * f_{k1}(x, y), B = beta * f_{k2}(x, y), C = gamma * f_{k3}(x, y)
with (alpha, beta, gamma) the telescoping coefficients from cycfield, so
A + B + C = 0 identically.  x and y are coprime rational integers, the
inputs of Freitas's recipe over Q; the curve is built for every such pair,
not only for genuine solutions of x^r + y^r = z^p: the algebraic identities
(A + B + C = 0, the invariant formulas, pairwise coprimality of the f_k
outside r) hold for every coprime pair, which is what can be exercised at
desk scale.  frey_curve checks x and y once, and the conductor, the
coprimality certificate and the invariants read the curve it returns.

The conductor support outside {2, r} comes from trial division
(numutil.trial_factor, the package's one integer factoriser) of the
closed-form factors of Norm(ABC) by their only possible prime factors, up
to the smoothness bound or the square root of what is left, whichever comes
first: a leftover prime below (bound + 1)^2 is proved and reported, a
larger leftover below 3317044064679887385961981 is proved prime or composite
by strong Miller-Rabin (checked by a strong Lucas test), and a leftover
that is not proved prime is refused (UnfactoredCofactorError).

Invariants of the model (standard b-invariant expansion of the right side
X^3 + (B - A) X^2 - AB X):

    Delta = 2^4 (ABC)^2
    c4    = 2^4 (A^2 + AB + B^2)   ( = -2^4 (AB + BC + CA) = -2^4 (AB - C^2) )
    j     = -2^8 (AB + BC + CA)^3 / (ABC)^2

stored with j as an exact numerator/denominator pair and tied together by
the cross-multiplied identity c4^3 * j_den = j_num * Delta.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .cycfield import CycInt, RealCyclotomicField, alpha_beta_gamma, f_k_eval
from .errors import (
    ConsistencyError,
    DegenerateCurveError,
    NotCoprimeError,
    UnfactoredCofactorError,
)
from .intlinalg import row_lattice_index
from .numutil import DEFAULT_SMOOTHNESS_BOUND, strip_factor, trial_factor


# ABC = 0 (N(ABC) = 0): raised by both invariants and the conductor, so the
# CLI prints the same usage error whichever of them meets it first.
SINGULAR_MODEL = "ABC = 0: singular model, j undefined"


class FreyCurve(NamedTuple):
    """The one record of a rational Frey input: x, y as checked by
    frey_curve, and what the later steps read of them."""
    field: RealCyclotomicField
    k: tuple[int, int, int]
    x: int
    y: int
    A: CycInt
    B: CycInt
    C: CycInt
    # Phi(x, y), read by the conductor and the coprimality certificate, and
    # A * B and A * B * C, read by the conductor's norm and the invariants
    phi: int
    AB: CycInt
    ABC: CycInt


class FreyInvariants(NamedTuple):
    delta: CycInt
    c4: CycInt
    j_num: CycInt
    j_den: CycInt


def frey_curve(field: RealCyclotomicField, x: int, y: int, k1: int, k2: int, k3: int) -> FreyCurve:
    """The curve for coprime rational integers x, y.  The inputs are checked
    here and nowhere after: TypeError unless both are int, ValueError when
    both are 0, NotCoprimeError when gcd(x, y) != 1, then the k checks of
    alpha_beta_gamma.  The curve keeps Phi(x, y), A * B and A * B * C, so
    each is computed once per curve."""
    if not isinstance(x, int) or not isinstance(y, int):
        raise TypeError("the Frey curve takes rational integers x, y")
    if x == 0 and y == 0:
        raise ValueError("x and y cannot both be zero")
    if math.gcd(x, y) != 1:
        raise NotCoprimeError(f"gcd({x}, {y}) != 1")
    alpha, beta, gamma = alpha_beta_gamma(field, k1, k2, k3)
    a = alpha * f_k_eval(field, k1, x, y)
    b = beta * f_k_eval(field, k2, x, y)
    c = gamma * f_k_eval(field, k3, x, y)
    if not (a + b + c).is_zero():
        raise ConsistencyError("A + B + C != 0; construction is broken")
    ab = a * b
    return FreyCurve(field, (k1, k2, k3), x, y, a, b, c, _phi(x, y, field.r), ab, ab * c)


def invariants(curve: FreyCurve) -> FreyInvariants:
    """The invariants of a built curve, from the products it keeps.  As
    A + B + C = 0 (checked by frey_curve), AB + BC + CA = AB - C^2."""
    abc = curve.ABC
    if abc.is_zero():
        raise DegenerateCurveError(SINGULAR_MODEL)
    s = curve.AB - curve.C * curve.C
    j_den = abc * abc
    delta = 16 * j_den
    c4 = -16 * s
    j_num = -256 * s * s * s
    if not (c4 * c4 * c4 * j_den == j_num * delta):
        raise ConsistencyError("c4^3 != j * Delta; invariant computation broken")
    return FreyInvariants(delta=delta, c4=c4, j_num=j_num, j_den=j_den)


# -- coprimality of the quadratic factors ------------------------------------


class CoprimalityReport(NamedTuple):
    # (i, j, ideal norm of (f_i, f_j) with all factors of r removed)
    pairs: tuple[tuple[int, int, int], ...]

    @property
    def ok(self) -> bool:
        return all(n == 1 for _, _, n in self.pairs)


def _fold(t: int, r: int) -> int:
    """The index k in 0..(r-1)/2 with zeta^k + zeta^-k = zeta^t + zeta^-t."""
    t %= r
    return min(t, r - t)


def _orbit_representative(i: int, j: int, r: int) -> tuple[int, int]:
    """The least pair in the Galois orbit of {f_i, f_j}, for 0 <= i < j.

    sigma_a (zeta -> zeta^a) maps f_k to f_fold(a k), and fold(0) = 0, so
    every (0, j) is in the orbit of (0, 1).  For 1 <= i < j the pairs of the
    orbit that contain f_1 are the images under a = i^-1 and a = j^-1, that
    is (1, fold(j/i)) and (1, fold(i/j)); the lesser is the representative.
    """
    if i == 0:
        return 0, 1
    j_over_i = j * pow(i, -1, r) % r
    return 1, min(_fold(j_over_i, r), _fold(pow(j_over_i, -1, r), r))


def coprimality_check(curve: FreyCurve) -> CoprimalityReport:
    """Certify that the f_k(x, y) of a built curve are pairwise coprime
    outside r, for every k (not only the curve's three).

    For each pair i < j the norm of the ideal (f_i(x,y), f_j(x,y)) is
    computed exactly and stripped of its r-part; a leftover > 1 names an
    offending pair.  (Coprimality of ideals is strictly stronger than
    coprimality of element norms: conjugate factors share their norm without
    sharing any prime, so norm gcds would flag false positives.)

    The residue map.  Let Phi = (x^r + y^r)/(x + y), the full value the
    curve keeps (2 and r not stripped).  For k >= 1 and coprime x, y, xy is
    prime to Phi and x^r = -y^r mod Phi, so t = (-x/y)^(k^-1 mod r) has
    t^r = 1 mod Phi, and theta -> a_k = t + t^-1 is a ring map
    Z[theta] -> Z/Phi that sends f_k to 0 (`_residue_root`).  Before it is
    used, `_residue_basis` checks psi_r(a_k) = 0 and
    x^2 + s_k(a_k) xy + y^2 = 0 mod Phi, with s_k the field's
    theta_power_sum(k), and raises ConsistencyError otherwise.  The map is
    onto, so its kernel has index Phi and contains (f_k), whose index
    is |N(f_k)| = Phi: the two ideals are equal, and the Hermite basis of
    (f_k) (Cohen, GTM 138, Sec. 2.4, upper triangular) is that of the kernel,
    in closed form: e_i + c_i e_(d-1) with c_i = -a_k^i a_k^-(d-1) mod Phi
    for i < d - 1, then Phi e_(d-1).  (f_0) = ((x + y)^2) has the basis
    (x + y)^2 I_d, and none when x + y = 0.

    Two routes per index.  One is the index of the lattice spanned by the
    two Hermite bases.  The other is a gcd from the residue map.  For (0, j)
    it is gcd((x + y)^2, Phi), as Z[theta]/(f_j) = Z/Phi.  For 1 <= i < j,
    f_j - f_i = (s_j - s_i) xy with xy a unit mod Phi, so the index is
    gcd(Phi, s_j(a_i) - s_i(a_i)), and that equals gcd(Phi, a_i - a_j): at
    a prime p != r of Phi, -x/y has order r, so both differences are units
    mod p (i != +-j mod r); r divides Phi exactly when it divides x + y, and
    then only once, and both differences are 0 mod r.  A disagreement raises
    ConsistencyError.

    The index is computed once per Galois orbit of pairs.  For rational x, y
    the automorphism sigma_a of Q(theta) (zeta -> zeta^a, a prime to r) sends
    f_k(x, y) to f_fold(a k)(x, y), hence the ideal (f_i, f_j) to
    (f_fold(a i), f_fold(a j)), and automorphisms keep ideal norms.  Each
    orbit has a representative (0, 1) or (1, m) (`_orbit_representative`):
    floor(d/2) + 1 indices per call, and residue maps only for the f_k that
    a representative names.
    """
    field, x, y, phi = curve.field, curve.x, curve.y, curve.phi
    r, d = field.r, field.degree
    reps = {(i, j): _orbit_representative(i, j, r)
            for i in range(d + 1) for j in range(i + 1, d + 1)}
    square = (x + y) ** 2
    named = {k for rep in reps.values() for k in rep}
    roots = {k: _residue_root(k, x, y, r, phi) for k in named if k}
    bases = {k: _residue_basis(field, k, a, x, y, phi) for k, a in roots.items()}
    bases[0] = _scalar_basis(square, d)
    norms = {}
    for i, j in set(reps.values()):
        index = row_lattice_index(bases[i] + bases[j], d)
        residue = math.gcd(phi, roots[i] - roots[j]) if i else math.gcd(square, phi)
        if index != residue:
            raise ConsistencyError(
                f"(f_{i}, f_{j}) at ({x}, {y}): lattice index {index}, residue map {residue}"
            )
        norms[i, j] = strip_factor(index, r)
    return CoprimalityReport(tuple((i, j, norms[rep]) for (i, j), rep in reps.items()))


def _phi(x: int, y: int, r: int) -> int:
    """Phi(x, y) = (x^r + y^r)/(x + y) as the alternating sum, which also
    holds at x + y = 0."""
    return sum((-1) ** i * x ** (r - 1 - i) * y**i for i in range(r))


def _residue_root(k: int, x: int, y: int, r: int, phi: int) -> int:
    """a_k = t + t^-1 mod Phi, t = (-x/y)^(k^-1 mod r): the image of theta
    in Z[theta]/(f_k(x, y)) = Z/Phi, for 1 <= k <= (r-1)/2."""
    t = pow(-x * pow(y, -1, phi), pow(k, -1, r), phi)
    return (t + pow(t, -1, phi)) % phi


def _residue_basis(field: RealCyclotomicField, k: int, a: int, x: int, y: int,
                   phi: int) -> list[list[int]]:
    """The Hermite basis of (f_k(x, y)), k >= 1, from its residue map
    theta -> a mod Phi, once the map is checked to send psi_r and f_k to 0
    (ConsistencyError otherwise; see `coprimality_check`)."""
    s_k = _evaluate(field.theta_power_sum(k).coeffs, a, phi)
    if _evaluate(field.psi, a, phi) or (x * x + s_k * x * y + y * y) % phi:
        raise ConsistencyError(
            f"theta -> {a} mod {phi} does not send psi_r and f_{k}({x}, {y}) to 0"
        )
    d = field.degree
    powers = [1]
    for _ in range(d - 1):
        powers.append(powers[-1] * a % phi)
    scale = -pow(powers[-1], -1, phi)
    rows = [[0] * d for _ in range(d)]
    for i, power in enumerate(powers[:-1]):
        rows[i][i] = 1
        rows[i][-1] = power * scale % phi
    rows[-1][-1] = phi
    return rows


def _scalar_basis(c: int, d: int) -> list[list[int]]:
    """The Hermite basis of the principal ideal (c) for a rational integer
    c >= 0: c I_d, and no rows for c = 0."""
    return [[c if i == j else 0 for j in range(d)] for i in range(d)] if c else []


def _evaluate(coeffs, a: int, m: int) -> int:
    """The polynomial with the given coefficients (constant term first) at
    a, mod m, by Horner's rule."""
    value = 0
    for c in reversed(coeffs):
        value = (value * a + c) % m
    return value


# -- conductor support --------------------------------------------------------


def conductor_support_outside_S(curve: FreyCurve, smoothness_bound: int = DEFAULT_SMOOTHNESS_BOUND) -> tuple[int, ...]:
    """Rational primes q outside {2, r} dividing Norm(ABC): the support of
    the semistable part of the conductor of a built curve, whose x, y
    frey_curve checked to be coprime rational integers.

    Two routes give the norm.  One is the exact determinant of ABC, the
    product the curve keeps (curve.ABC).  The other is the closed form:
    N(f_0) = (x + y)^(r-1), N(f_k) = Phi(x, y) = (x^r + y^r)/(x + y)
    (curve.phi) for k >= 1, and N(alpha), N(beta), N(gamma) are +-powers of
    r; outside {2, r} the two must agree.  The closed-form factors are then
    trial-divided by numutil.trial_factor: |x + y| by odd numbers, Phi only
    by 1 + 2rt, since every prime of Phi other than r is 1 mod 2r (-x/y has
    order r modulo it).  Each scan runs to min(smoothness_bound, sqrt of
    what is left), so a leftover whose square root is at most the bound is
    proved prime and joins the support, even above the bound.  A leftover
    whose square root exceeds the bound joins it when strong Miller-Rabin
    proves it prime (below numutil._MR_LIMIT, before any scan of it).  Any
    other leftover is the unfactored cofactor, and raises
    UnfactoredCofactorError (with the product of the leftovers, each to its
    power in Norm(ABC)) instead of passing silently.

    A singular model, N(ABC) = 0, raises DegenerateCurveError with the
    message `invariants` gives it (SINGULAR_MODEL): the CLI runs this step
    before the invariants, and the exit-64 text names the condition, not
    the step that met it."""
    field, r = curve.field, curve.field.r
    n = abs(field.norm(curve.ABC))
    if n == 0:
        raise DegenerateCurveError(SINGULAR_MODEL)
    x_plus_y = _outside_2_r(curve.x + curve.y, r)
    phi = _outside_2_r(curve.phi, r)
    e0 = r - 1 if 0 in curve.k else 0
    m = sum(1 for k in curve.k if k)
    if _outside_2_r(n, r) != x_plus_y**e0 * phi**m:
        raise ConsistencyError("Norm(ABC) disagrees with |x + y|^e0 * Phi^m outside {2, r}")
    support, rest = trial_factor(phi, 2 * r + 1, 2 * r, smoothness_bound)
    cofactor = rest**m
    if e0:
        found, rest = trial_factor(x_plus_y, 3, 2, smoothness_bound)
        support += found
        cofactor *= rest**e0
    if cofactor > 1:
        raise UnfactoredCofactorError(
            f"cofactor {cofactor} has no prime factor <= {smoothness_bound}"
        )
    return tuple(sorted(set(support)))


def _outside_2_r(n: int, r: int) -> int:
    return strip_factor(strip_factor(n, 2), r)
