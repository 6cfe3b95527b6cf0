"""Polynomials over GF(2) and the fields GF(2^f), as bit-packed integers.

A polynomial is an int whose bit i is the coefficient of x^i.  Only the
distinct-degree stage of factorization is implemented: splitting types need
factor degrees and counts, never the factors themselves.  An element of
GF(2^f) is such an int of degree < f; F2Field's methods (mul, inverse,
sqrt, trace, artin_schreier) are the one home of its arithmetic.  The
inverse is the extended Euclidean algorithm on these ints: about 2f steps of
a shift and an XOR on whole ints, and one product to check the result.  A
square root is one product with the field's sqrt(t), a trace one AND and a
popcount with its trace vector, and an Artin-Schreier equation one
reduction against its stored pivots; all three come once per field from
its Berlekamp matrix, the pivots at construction and the trace vector
and sqrt(t) at their first use (Fong, Hankerson, Lopez and Menezes, "Field
inversion and point halving revisited", IEEE Trans. Computers 53(8), 2004,
for the square root and the trace).

The kernel follows Hankerson, Menezes and Vanstone, Guide to Elliptic Curve
Cryptography, section 2.3: f2_divmod and f2_mod clear the leading bit of the
dividend at each step, read off bit_length, and f2_mod builds no quotient; a
square is spread a byte at a time through a 256-entry table; any other product
loops over the set bits of its second operand.  f2_mulmod is the one
product-mod entry point, and f2_mulmod(a, a, m) squares by the table.

Irreducibility has two routes.  least_irreducible searches with Ben-Or's
test, which rejects a reducible candidate at the degree of its smallest
factor (most candidates go after one squaring: x or x + 1 divides them).
F2Field checks every modulus another way, by the rank of its Berlekamp
matrix, which it builds anyway: the same matrix gives the field its square
root, trace and Artin-Schreier solver, so no method of F2Field loops over
the Frobenius map per call.
"""

from __future__ import annotations

from .errors import ConsistencyError, NotSquarefreeError
from .intlinalg import gf2_pivots, gf2_reduce

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
    Searched with Ben-Or's test; F2Field checks the result by the rank of its
    Berlekamp matrix."""
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


def _halves(a: int) -> tuple[int, int]:
    """(E, O) with a(t) = E(t)^2 + t O(t)^2 over GF(2): E holds the
    even-indexed bits of a and O the odd-indexed ones, each packed down to
    consecutive bits.  Read off the binary string padded to an even length,
    most significant digit first: its odd positions are the even bits."""
    digits = format(a, "b")
    if len(digits) & 1:
        digits = "0" + digits
    return int(digits[1::2], 2), int(digits[::2], 2)


class F2Field:
    """GF(2^f) = GF(2)[t]/(m), m irreducible of degree f.

    Elements are bit-packed ints of degree < f, like every polynomial in this
    module; the methods take and return them (an element of degree >= f is
    reduced first).  When no modulus is given the deterministic
    least_irreducible(f) is used.

    Everything past mul and inverse is built once per field from the
    Berlekamp matrix Q of m (Berlekamp, "Factoring polynomials over finite
    fields", Bell Syst. Tech. J. 46, 1967), whose column i is
    S_i = t^(2i) mod m, so Q is the matrix of the Frobenius map a -> a^2:

    1. Irreducibility.  For a squarefree m with k irreducible factors, the
       algebra GF(2)[t]/(m) is a product of k fields (CRT), and a^2 = a
       holds in a field only for a in {0, 1}: the kernel of Q - I has
       dimension k.  So a squarefree m is irreducible exactly when
       rank(Q - I) = f - 1 (column 0 of Q - I is always 0, as 1^2 = 1).
       Squarefreeness, gcd(m, m') = 1, is tested first: (t + 1)^2 has the
       local algebra GF(2)[t]/(t + 1)^2, whose only idempotents are 0 and 1,
       and so passes the rank test.
    2. Trace.  tau_i = Tr(t^i) is the power sum of the i-th powers of the
       roots of m, and m'/m = sum_k tau_k x^(-k-1), so tau_0, ..., tau_(f-1)
       are the coefficients of the polynomial part of x^f m'/m (the quotient
       of x^f m' by m) read from the top; tau_0 = f mod 2.  Then
       Tr(a) = popcount(a & tau) mod 2.  The check: a -> popcount(a & tau)
       mod 2 is a GF(2)-linear functional L; L(a^2) = L(a) for all a exactly
       when L(S_i) = tau_i for every i; every functional is a -> Tr(b a) for
       one b, and Tr(b a^2) = Tr(sqrt(b) a), so a Frobenius-invariant one
       has sqrt(b) = b, b in {0, 1}.  A nonzero tau that passes is the trace.
    3. Square root.  Writing m = E(t)^2 + t O(t)^2 (_halves), m = 0 gives
       t = (E/O)^2, with O != 0 of degree < f as m is squarefree.  So
       sqrt(t) = E * O^-1, checked by squaring it, and for any a = E_a^2 +
       t O_a^2, sqrt(a) = E_a + sqrt(t) * O_a: one product per root.
    4. Artin-Schreier.  v -> v^2 + v is the GF(2)-linear map Q - I, with
       column i = S_i + t^i and kernel {0, 1}.  The pivots of its columns,
       kept from step 1 (intlinalg.gf2_pivots), solve v^2 + v = c by one
       reduction of c (intlinalg.gf2_reduce): a remainder means c is not in
       the image, which is the kernel of the trace; otherwise the columns
       that reduced c away add up to v.

    __init__ runs steps 1 and 4, the squarefree test and the rank with the
    pivots, and keeps the columns S_i.  Steps 2 and 3 wait for the first
    trace() and the first sqrt(), each with its check.  So a field whose
    caller reads only its rank (two_shape's second route) builds neither,
    and one whose caller only takes traces (check-quad's fiber) builds no
    sqrt(t).
    """

    __slots__ = ("f", "modulus", "_squares", "_pivots", "_tau", "_sqrt_t")

    def __init__(self, f: int, modulus: int | None = None):
        if modulus is None:
            modulus = least_irreducible(f)
        if f < 1 or f2_degree(modulus) != f:
            raise ValueError("modulus degree mismatch")
        if f2_gcd(modulus, f2_derivative(modulus)) != 1:
            raise ValueError("modulus is reducible over GF(2) (not squarefree)")
        self.f = f
        self.modulus = modulus
        self._squares = squares = self._frobenius_columns()
        self._pivots = gf2_pivots([s ^ (1 << i) for i, s in enumerate(squares)])
        if len(self._pivots) != f - 1:
            raise ValueError("modulus is reducible over GF(2)")
        self._tau = self._sqrt_t = None  # built by the first trace() and sqrt()

    def _frobenius_columns(self) -> list[int]:
        """The columns S_i = t^(2i) mod m of Q, i < f: each is the one
        before times t^2, a shift by 2 that clears at most two bits (f + 1,
        then f) with the modulus."""
        m, f = self.modulus, self.f
        high, low = 1 << (f + 1), 1 << f
        col, cols = 1, []
        for _ in range(f):
            cols.append(col)
            col <<= 2
            if col & high:
                col ^= m << 1
            if col & low:
                col ^= m
        return cols

    def _trace_vector(self) -> int:
        """tau, bit i = Tr(t^i), from x^f m'/m and checked against the
        columns of Q (step 2 of the class docstring)."""
        f = self.f
        quotient = f2_divmod(f2_derivative(self.modulus) << f, self.modulus)[0]
        tau = int(format(quotient, f"0{f}b")[::-1], 2)
        if not tau or any(((s & tau).bit_count() ^ (tau >> i)) & 1
                          for i, s in enumerate(self._squares)):
            raise ConsistencyError("trace vector is not Frobenius-invariant")
        return tau

    def _root_of_t(self) -> int:
        """sqrt(t) = E * O^-1 for m = E^2 + t O^2, checked by squaring it
        (step 3 of the class docstring)."""
        even, odd = _halves(self.modulus)
        root = self.mul(even, self.inverse(odd))
        if self.mul(root, root) != f2_mod(X, self.modulus):
            raise ConsistencyError("sqrt(t) does not square back to t")
        return root

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
        """The unique square root (squaring is a bijection in characteristic
        2): E_a + sqrt(t) * O_a for a = E_a^2 + t O_a^2, one product."""
        if a >> self.f:
            a = f2_mod(a, self.modulus)
        if self._sqrt_t is None:
            self._sqrt_t = self._root_of_t()
        even, odd = _halves(a)
        return even ^ self.mul(self._sqrt_t, odd)

    def trace(self, a: int) -> int:
        """Absolute trace over GF(2), as 0 or 1: the parity of a & tau.

        v^2 + v = c is solvable exactly when trace(c) = 0.
        """
        if a >> self.f:
            a = f2_mod(a, self.modulus)
        if self._tau is None:
            self._tau = self._trace_vector()
        return (a & self._tau).bit_count() & 1

    def artin_schreier(self, c: int) -> int | None:
        """Some v with v^2 + v = c, or None when there is none (trace 1):
        one reduction of c against the kept pivots of Q - I, whose combo is
        v as a bitmask of the basis elements t^i.  The solution is checked
        with one product."""
        rest, v = gf2_reduce(self._pivots, c)
        if rest:
            return None
        if self.mul(v, v) ^ v != c:
            raise ConsistencyError("linear solve produced a non-solution")
        return v

    def __repr__(self) -> str:
        return f"F2Field(f={self.f}, modulus={bin(self.modulus)})"
