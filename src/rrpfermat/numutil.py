"""Small integer-arithmetic helpers used throughout the package."""

from __future__ import annotations

import math
from array import array

# Largest r the package accepts (the exact h_r^- is computed up to it); every
# range and guard on r refers to this bound.
MAX_R = 200

# Default bound up to which frey.conductor_support_outside_S trial-divides
# the closed-form factors of Norm(ABC), and the CLI's --smoothness-bound
# default: defined here so that building the CLI parser imports no frey.
DEFAULT_SMOOTHNESS_BOUND = 100_000


def is_prime(n: int) -> bool:
    """Deterministic trial division; inputs here are desk scale."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _check_bounded_prime(name: str, n: int, least: int) -> None:
    """The one rule for a prime parameter: n a prime with least <= n <=
    MAX_R (ValueError naming the parameter otherwise).  The bound comes
    first: the primality test trial-divides up to sqrt(n)."""
    if n > MAX_R:
        raise ValueError(f"{name} = {n} exceeds MAX_R = {MAX_R}")
    if n < least or not is_prime(n):
        kind = "an odd prime" if least == 3 else f"a prime >= {least}"
        raise ValueError(f"{name} = {n} must be {kind}")


def check_prime_r(r: int) -> None:
    """The rule for the exponent r: a prime with 5 <= r <= MAX_R."""
    _check_bounded_prime("r", r, 5)


def least_primitive_root(p: int) -> int:
    """The least g >= 2 that generates (Z/p)^* for an odd prime p <= MAX_R:
    g^((p-1)/q) is not 1 mod p for any prime q dividing p - 1."""
    _check_bounded_prime("p", p, 3)
    n, q, quotients = p - 1, 2, []
    while q * q <= n:
        if n % q == 0:
            quotients.append((p - 1) // q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        quotients.append((p - 1) // n)
    g = 2
    while any(pow(g, e, p) == 1 for e in quotients):
        g += 1
    return g


def order_of_two_mod_pm1(r: int) -> int:
    """The order of 2 in (Z/r)^*/{±1} for an odd prime r <= MAX_R: the least
    f >= 1 with 2^f = ±1 mod r, found by stepping 2^f mod r, at most
    (r - 1)/2 multiplications."""
    _check_bounded_prime("r", r, 3)
    x, f = 2, 1
    while x != 1 and x != r - 1:
        x = 2 * x % r
        f += 1
    return f


def primes_upto(n: int) -> list[int]:
    """All primes <= n by sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, b in enumerate(sieve) if b]


def is_squarefree(n: int) -> bool:
    """Trial division while p^3 <= m, m the cofactor left: from then on every
    prime factor of m exceeds m^(1/3), so m has at most two and is squarefree
    unless it is the square of a prime.  Costs about n^(1/3) divisions."""
    if n <= 0:
        return False
    m = n
    p = 2
    while p * p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return False
        p += 1 if p == 2 else 2
    s = math.isqrt(m)
    return m == 1 or s * s != m


def legendre_symbol(a: int, p: int) -> int:
    """(a|p) in {-1, 0, 1} for an odd prime p <= MAX_R, by Euler's
    criterion."""
    _check_bounded_prime("p", p, 3)
    ls = pow(a % p, (p - 1) // 2, p)
    return -1 if ls == p - 1 else ls


# (width in bits, array type code) of the array slots, narrowest first.
_SLOT_TYPES = sorted((array(code).itemsize * 8, code) for code in "BHIQ")

# Byte b -> ASCII "0" or "1", the low bit of b, and back: a slot's low byte
# becomes the binary digit of its parity, and a digit the byte 0 or 1.
_PARITY_DIGIT = bytes(0x30 | (b & 1) for b in range(256))
_DIGIT_BIT = bytes.maketrans(b"01", b"\x00\x01")


class Slots:
    """The packed-slot format of the whole-int kernels (Kronecker
    substitution; von zur Gathen and Gerhard, Modern Computer Algebra, 8.4):
    nonnegative values below 2^bits as one int, value i in bits
    [i * self.bits, (i + 1) * self.bits).  The slot is the narrowest array
    type at least `bits` wide (`code`), or whole bytes past 64 bits (code
    None).  `count` is the number of slots unpack, residue and lift read."""

    __slots__ = ("bits", "code", "count")

    def __init__(self, bits: int, count: int = 0) -> None:
        self.bits, self.code = next(
            ((w, c) for w, c in _SLOT_TYPES if bits <= w), (8 * -(-bits // 8), None))
        self.count = count

    def pack(self, values) -> int:
        """The values (a list, or a slice of a tile) as one int."""
        if self.code:
            if type(values) is not array:
                values = array(self.code, values)
            return int.from_bytes(values.tobytes(), "little")
        w = self.bits // 8
        return int.from_bytes(b"".join([v.to_bytes(w, "little") for v in values]), "little")

    def unpack(self, x: int, count: int | None = None) -> list[int]:
        """The low `count` slots of x (self.count by default), slot 0 first."""
        w = self.bits // 8
        buf = x.to_bytes((self.count if count is None else count) * w, "little")
        if self.code:
            return array(self.code, buf).tolist()
        return [int.from_bytes(buf[i : i + w], "little") for i in range(0, len(buf), w)]

    def tile(self, values, times: int):
        """The values repeated `times` times, as a sequence whose slices
        pack: an array, or a list past 64 bits."""
        return (array(self.code, values) if self.code else list(values)) * times

    def residue(self, x: int) -> int:
        """The `count` slots of x mod 2 as one int, bit i the parity of slot
        i: the low byte of each slot, read big-endian (slot count - 1 first),
        is translated to the ASCII digit of its low bit."""
        w = self.bits // 8
        return int(x.to_bytes(self.count * w, "big")[w - 1 :: w].translate(_PARITY_DIGIT), 2)

    def lift(self, b: int) -> int:
        """The packed int with slot i the bit i of b (below 2^count), the
        inverse of residue on slots 0 and 1: the binary digits of b, most
        significant first, translated to the bytes 0 and 1 and placed in the
        low byte of each slot of a big-endian buffer."""
        count, w = self.count, self.bits // 8
        buf = bytearray(count * w)
        buf[w - 1 :: w] = format(b, f"0{count}b").encode().translate(_DIGIT_BIT)
        return int.from_bytes(buf, "big")


def strip_factor(n: int, p: int) -> int:
    """Remove every factor of p from |n|."""
    n = abs(n)
    while n and n % p == 0:
        n //= p
    return n
