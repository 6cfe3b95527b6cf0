"""Polynomials over GF(2) and the fields GF(2^f), as bit-packed integers.

A polynomial is an int whose bit i is the coefficient of x^i.  Only the
distinct-degree stage of factorization is implemented: splitting types need
factor degrees and counts, never the factors themselves.  An element of
GF(2^f) is such an int of degree < f; F2Field's methods (mul, inverse,
sqrt, trace, artin_schreier) are the one home of its arithmetic.  The
inverse is the extended Euclidean algorithm on these ints: about 2f steps of
a shift and an XOR on whole ints, and one product to check the result.

The kernel follows Hankerson, Menezes and Vanstone, Guide to Elliptic Curve
Cryptography, section 2.3: f2_divmod and f2_mod clear the leading bit of the
dividend at each step, read off bit_length, and f2_mod builds no quotient; a
square is spread a byte at a time through a 256-entry table; any other product
loops over the set bits of its second operand.  f2_mulmod is the one
product-mod entry point, and f2_mulmod(a, a, m) squares by the table.

Irreducibility has two routes.  least_irreducible searches with Ben-Or's
test, which rejects a reducible candidate at the degree of its smallest
factor (most candidates go after one squaring: x or x + 1 divides them).
is_irreducible is Rabin's test, and F2Field re-runs it on every modulus, so
the modulus the search returns is checked by the other route.
"""

from __future__ import annotations

from .errors import ConsistencyError, NotSquarefreeError
from .intlinalg import gf2_solve

X = 0b10  # the polynomial x


def f2_degree(p: int) -> int:
    """Degree; -1 for the zero polynomial."""
    return p.bit_length() - 1


def f2_from_coeffs(coeffs) -> int:
    """Reduce integer coefficients (constant term first) mod 2 into the
    bit-packed form."""
    bits = 0
    for i, c in enumerate(coeffs):
        if c & 1:
            bits |= 1 << i
    return bits


# Squares of the bytes 0..255: squaring in characteristic 2 spreads the bits,
# coefficient i moving to 2i; "0".join interleaves the binary digits with 0s.
_SPREAD = tuple(int("0".join(f"{i:b}"), 2) for i in range(256))


def f2_mul(a: int, b: int) -> int:
    """Product; a square is spread a byte at a time through _SPREAD, any
    other product loops over the set bits of b."""
    if a == b:
        acc = shift = 0
        while a:
            acc |= _SPREAD[a & 0xFF] << shift
            a >>= 8
            shift += 16
        return acc
    acc = 0
    while b:
        low = b & -b
        acc ^= a << (low.bit_length() - 1)
        b ^= low
    return acc


def f2_divmod(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder; each step clears the leading bit of a, read
    off bit_length."""
    if b == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    nb = b.bit_length()
    q = 0
    shift = a.bit_length() - nb
    while shift >= 0:
        q ^= 1 << shift
        a ^= b << shift
        shift = a.bit_length() - nb
    return q, a


def f2_mod(a: int, b: int) -> int:
    """The remainder of f2_divmod, without building the quotient."""
    if b == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    nb = b.bit_length()
    shift = a.bit_length() - nb
    while shift >= 0:
        a ^= b << shift
        shift = a.bit_length() - nb
    return a


def f2_mulmod(a: int, b: int, m: int) -> int:
    """a * b mod m: the one product-mod entry point of this module."""
    return f2_mod(f2_mul(a, b), m)


def f2_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, f2_mod(a, b)
    return a


def f2_derivative(p: int) -> int:
    """Formal derivative in characteristic 2: only odd-degree terms survive."""
    d = 0
    i = 1
    while p >> i:
        if (p >> i) & 1:
            d |= 1 << (i - 1)
        i += 2
    return d


def is_irreducible(p: int) -> bool:
    """Rabin's test: x^(2^n) = x mod p, and x^(2^(n/q)) - x coprime to p for
    each prime q | n."""
    n = f2_degree(p)
    if n <= 0:
        return False
    if n == 1:
        return True
    h = X
    for _ in range(n):
        h = f2_mulmod(h, h, p)
    if h != f2_mod(X, p):
        return False
    for q in _prime_divisors(n):
        h = X
        for _ in range(n // q):
            h = f2_mulmod(h, h, p)
        if f2_gcd(p, h ^ X) != 1:
            return False
    return True


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _ben_or_irreducible(p: int) -> bool:
    """Ben-Or's test: p of degree n is irreducible exactly when
    gcd(p, x^(2^i) - x) = 1 for i = 1..n//2.  A reducible p has a factor of
    some degree i <= n//2, which divides x^(2^i) - x, so the loop stops there.
    Past degree 1, an even constant term (the factor x) or an even number of
    terms (p(1) = 0, the factor x + 1) rejects p before any gcd."""
    n = f2_degree(p)
    if n <= 0:
        return False
    if n >= 2 and (not p & 1 or p.bit_count() % 2 == 0):
        return False
    h = X
    for _ in range(n // 2):
        h = f2_mulmod(h, h, p)
        if f2_gcd(p, h ^ X) != 1:
            return False
    return True


def least_irreducible(f: int) -> int:
    """The irreducible monic degree-f polynomial with the smallest bit
    encoding; deterministic so residue-field reports are reproducible.
    Searched with Ben-Or's test; F2Field checks the result with Rabin's."""
    if f < 1:
        raise ValueError("degree must be >= 1")
    for cand in range(1 << f, 1 << (f + 1)):
        if _ben_or_irreducible(cand):
            return cand
    raise ConsistencyError("unreachable: irreducibles exist in every degree")


def ddf_degrees(p: int) -> list[tuple[int, int]]:
    """Distinct-degree factorization shape of a squarefree p over GF(2).

    Returns a sorted list of (degree, count) pairs: p has `count` distinct
    irreducible factors of each listed degree, and sum(degree * count)
    equals deg p.  Raises NotSquarefreeError when gcd(p, p') != 1.
    """
    if f2_degree(p) < 1:
        raise ValueError("polynomial must have degree >= 1")
    if f2_gcd(p, f2_derivative(p)) != 1:
        raise NotSquarefreeError("input polynomial is not squarefree over GF(2)")
    out = []
    rest = p
    h = f2_mod(X, rest)
    i = 1
    while f2_degree(rest) >= 2 * i:
        h = f2_mulmod(h, h, rest)  # h = x^(2^i) mod rest
        g = f2_gcd(rest, h ^ f2_mod(X, rest))
        if g != 1:
            out.append((i, f2_degree(g) // i))
            rest = f2_divmod(rest, g)[0]
            h = f2_mod(h, rest)
        i += 1
    if f2_degree(rest) > 0:
        out.append((f2_degree(rest), 1))
    return sorted(out)


# -- GF(2^f) -------------------------------------------------------------


class F2Field:
    """GF(2^f) = GF(2)[t]/(m), m irreducible of degree f.

    Elements are bit-packed ints of degree < f, like every polynomial in this
    module; the methods take and return them.  When no modulus is given the
    deterministic least_irreducible(f) is used.
    """

    __slots__ = ("f", "modulus")

    def __init__(self, f: int, modulus: int | None = None):
        if modulus is None:
            modulus = least_irreducible(f)
        if f2_degree(modulus) != f:
            raise ValueError("modulus degree mismatch")
        if not is_irreducible(modulus):
            raise ValueError("modulus is reducible over GF(2)")
        self.f = f
        self.modulus = modulus

    def mul(self, a: int, b: int) -> int:
        return f2_mulmod(a, b, self.modulus)

    def inverse(self, a: int) -> int:
        """a^-1 by the extended Euclidean algorithm on bit-packed ints
        (Hankerson, Menezes and Vanstone, Algorithm 2.48): g * a = u and
        h * a = v mod the modulus throughout, and each step clears the
        leading bit of the longer of u, v with a shift and an XOR, until
        u = 1.  The result is checked with one product."""
        a = f2_mod(a, self.modulus)
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(2^f)")
        u, v, g, h = a, self.modulus, 1, 0
        while u > 1:
            j = u.bit_length() - v.bit_length()
            if j < 0:
                u, v, g, h = v, u, h, g
                j = -j
            u ^= v << j
            g ^= h << j
        if u != 1 or self.mul(a, g) != 1:
            raise ConsistencyError("extended Euclid produced a non-inverse")
        return g

    def sqrt(self, a: int) -> int:
        """The unique square root: squaring is a bijection in characteristic
        2, with inverse a -> a^(2^(f-1))."""
        for _ in range(self.f - 1):
            a = self.mul(a, a)
        return a

    def trace(self, a: int) -> int:
        """Absolute trace over GF(2), as 0 or 1.

        v^2 + v = c is solvable exactly when trace(c) = 0.
        """
        acc = 0
        for _ in range(self.f):
            acc ^= a
            a = self.mul(a, a)
        if acc not in (0, 1):
            raise ConsistencyError("trace landed outside the prime field")
        return acc

    def artin_schreier(self, c: int) -> int | None:
        """Some v with v^2 + v = c, or None when there is none (trace 1).

        The map v -> v^2 + v is GF(2)-linear with kernel {0, 1}: v is the XOR
        of the basis elements t^i whose images t^(2i) + t^i add up to c,
        found by intlinalg.gf2_solve.
        """
        cols = [self.mul(1 << i, 1 << i) ^ (1 << i) for i in range(self.f)]
        v = gf2_solve(cols, c)
        if v is not None and self.mul(v, v) ^ v != c:
            raise ConsistencyError("linear solve produced a non-solution")
        return v

    def __repr__(self) -> str:
        return f"F2Field(f={self.f}, modulus={bin(self.modulus)})"
