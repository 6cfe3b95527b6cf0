"""Small integer-arithmetic helpers used throughout the package.

check_prime_r and check_quadratic_d are the one rules for the exponent r
and a quadratic base d, each testing its bound first.  Only the field
(cycfield.RealCyclotomicField) and the CLI run the r rule, only the verdict
engine and the CLI the d rule: every function below takes checked values.

trial_factor is the package's one integer factoriser: the Frey conductor,
is_prime and the field's least primitive root all factor through it.  It
trial-divides, and where the scan could not reach the square root of what is
left, it first tries to prove that leftover prime by strong Miller-Rabin on
the first 13 prime bases, deterministic below 3317044064679887385961981
(Sorenson and Webster, arXiv:1509.00864).  Every such proof is checked by a
strong Lucas test (the Lucas half of BPSW; Baillie and Wagstaff, Math. Comp.
35, 1980), and a disagreement raises ConsistencyError.  is_squarefree keeps
its own scan, which stops at the cube root of what is left."""

from __future__ import annotations

import math
from array import array

from .errors import ConsistencyError

# Largest r the package accepts (the exact h_r^- is computed up to it); every
# range and guard on r refers to this bound.
MAX_R = 200

# Largest quadratic base d accepted: squarefreeness is decided by trial
# division up to about d^(1/3) (is_squarefree), 10^4 divisions at this bound.
MAX_D = 10**12

# Default bound up to which frey.conductor_support_outside_S trial-divides
# the closed-form factors of Norm(ABC), and the CLI's --smoothness-bound
# default: defined here so that building the CLI parser imports no frey.
DEFAULT_SMOOTHNESS_BOUND = 100_000


# Strong Miller-Rabin on these bases proves every prime below the limit: the
# limit is the least strong pseudoprime to all of them (psi_13).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def trial_factor(n: int, start: int, step: int, bound: int) -> tuple[list[int], int]:
    """Factor n > 0 by the candidates start, start + step, ..., where every
    prime factor of n is a candidate.  Each scan stops at min(bound,
    isqrt(n)), and starts again past each factor found, on what is left.  A
    leftover n > 1 that no candidate up to isqrt(n) divides is prime, so it
    is reported whenever isqrt(n) <= bound, even when n itself exceeds bound.
    Where isqrt(n) exceeds bound, n is first offered to _proves_prime, and a
    proven n is reported with no scan.  Returns the prime factors found, in
    increasing order, and the part of n left: 1, or a composite, or a number
    at least _MR_LIMIT, whose prime factors all exceed bound and whose
    square root does too."""
    found = []
    while n > 1:
        root = math.isqrt(n)
        if root > bound and _proves_prime(n):
            found.append(n)
            n = 1
            break
        for q in range(start, min(bound, root) + 1, step):
            if n % q == 0:
                break
        else:
            if root <= bound:
                found.append(n)
                n = 1
            break
        found.append(q)
        n = strip_factor(n, q)
        start = q + step
    return found, n


def _proves_prime(n: int) -> bool:
    """True when n is proved prime: n < _MR_LIMIT and n passes strong
    Miller-Rabin to every base in _MR_BASES.  False means composite, or not
    proven (n >= _MR_LIMIT).  Every proof is checked by _strong_lucas, and
    ConsistencyError is raised if it disagrees."""
    if not 2 <= n < _MR_LIMIT:
        return False
    if any(n % a == 0 for a in _MR_BASES):
        proved = n in _MR_BASES
    else:
        d, s = n - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        proved = all(_strong_probable_prime(n, a, d, s) for a in _MR_BASES)
    if proved and not _strong_lucas(n):
        raise ConsistencyError(f"{n} passes Miller-Rabin but fails the strong Lucas test")
    return proved


def _strong_probable_prime(n: int, a: int, d: int, s: int) -> bool:
    """n - 1 = d * 2^s with d odd: a^d = 1, or a^(d 2^i) = -1 mod n for
    some 0 <= i < s."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge's parameters (method
    A): D the first of 5, -7, 9, -11, ... with Jacobi(D/n) = -1, P = 1,
    Q = (1 - D)/4; n + 1 = d * 2^s with d odd, and n passes when U_d = 0 or
    V_(d 2^i) = 0 mod n for some 0 <= i < s.  Lucas sequences by the binary
    ladder on (U_k, V_k, Q^k)."""
    if n % 2 == 0 or math.isqrt(n) ** 2 == n:
        return n == 2
    D = 5
    while True:
        g = math.gcd(D, n)
        if 1 < g < n:
            return False
        if _jacobi(D, n) == -1:
            break
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    half = (n + 1) // 2  # the inverse of 2 mod n
    u, v, qk = 1, 1, Q % n  # k = 1: U_1 = 1, V_1 = P = 1
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v = (u + v) * half % n, (D * u + v) * half % n
            qk = qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def is_prime(n: int) -> bool:
    """n is its own only prime factor; inputs here are desk scale."""
    return n > 1 and trial_factor(n, 2, 1, n) == ([n], 1)


def check_prime_r(r: int) -> None:
    """The one rule for the exponent r: a prime with 5 <= r <= MAX_R
    (ValueError otherwise).  The bound comes first: the primality test
    trial-divides up to sqrt(r)."""
    if r > MAX_R:
        raise ValueError(f"r = {r} exceeds MAX_R = {MAX_R}")
    if r < 5 or not is_prime(r):
        raise ValueError(f"r = {r} must be a prime >= 5")


def check_quadratic_d(d: int) -> None:
    """The one rule for a real quadratic base Q(sqrt(d)): a squarefree
    integer 1 < d <= MAX_D, the bound tested first (ValueError otherwise)."""
    if d > MAX_D:
        raise ValueError(f"d = {d} exceeds MAX_D = {MAX_D}")
    if d <= 1 or not is_squarefree(d):
        raise ValueError(f"d = {d} must be a squarefree integer > 1")


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
