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


# Byte b -> ASCII "0" or "1", the low bit of b: translating the low byte of
# each packed slot and reading the digits in base 2 gives the slots mod 2.
LOW_BIT_DIGIT = bytes(0x30 | (b & 1) for b in range(256))


# (width in bits, array type code) for packing values into the slots of one
# int, narrowest first.
_SLOT_TYPES = sorted((array(code).itemsize * 8, code) for code in "BHIQ")


def slot_layout(bits: int) -> tuple[str | None, int]:
    """(array type code, bytes per slot) for packing values below 2^bits
    into one int, a slot per value: the narrowest array type at least `bits`
    wide, or no type code and whole bytes past 64 bits."""
    for width, code in _SLOT_TYPES:
        if bits <= width:
            return code, width // 8
    return None, -(-bits // 8)


def strip_factor(n: int, p: int) -> int:
    """Remove every factor of p from |n|."""
    n = abs(n)
    while n and n % p == 0:
        n //= p
    return n
