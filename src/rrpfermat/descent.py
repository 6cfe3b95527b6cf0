"""Norm-residue obstructions to pi_r being a square in the S-unit descent.

norm_necessary_condition gives the residue systems that a square pi_r mod
P^(4e+1) forces on the norm down to the base field, exactly.  The norm of
pi_r down to the base is the SIGNED value n = (-1)^((r-1)/2) * r (the
product of the (r-1)/2 conjugates of theta - 2, all negative reals), and the
sign matters: for r = 7 mod 8 the value -r is a square residue mod 32 and
the obstruction vanishes; indeed pi_7 really is a square mod P^5, verified
exhaustively.  Base Q: n must be an odd square mod 32, i.e. n = 1 mod 8.
Base Q(sqrt(d)): a two-equation system over (Z/32)^2 (d = 5 mod 8, where 2
is inert in the base) or (Z/16)^2 (d = 2, 3 mod 4, where 2 ramifies in the
base), with the same signed right-hand side.  Both the exhaustive
enumeration and the closed-form congruence are evaluated and must agree;
disagreement is an internal hard error.  The moduli 32 and 16 are the
levels at which the two base-field cases are actually decided.
"""

from __future__ import annotations

from .errors import ConsistencyError, NotCoprimeError
from .numutil import check_prime_r
from .splitting import check_quadratic_d


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
    check_prime_r(r)
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
    any disagreement raises ConsistencyError.  signed_norm_of_pi_r refuses
    an r that numutil.check_prime_r refuses.
    """
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
