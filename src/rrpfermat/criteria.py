"""Verdict engine: assembles the arithmetic modules into the decision
procedures for the asymptotic criteria over Q and over real quadratic bases.

Every check returns a Verdict listing each hypothesis with a tri-state
status and machine-readable evidence sufficient to recompute it.  The
"undetermined" status is first class: a missing external table entry, or a
condition for which only a necessary criterion is computable, never turns
into a pass.  Checks are pure functions of their inputs, so identical calls
yield identical verdicts and range scans can run in any order.
"""

from __future__ import annotations

from typing import NamedTuple

from . import classnumber, galoisring, splitting
from .cycfield import build_field
from .numutil import MAX_R, primes_upto

PASS = "pass"
FAIL = "fail"
UNDETERMINED = "undetermined"


class Condition(NamedTuple):
    name: str
    status: str
    evidence: dict

    def to_dict(self) -> dict:
        return {"name": self.name, "status": self.status, "evidence": self.evidence}


class Verdict(NamedTuple):
    target: str
    base_d: int
    r: int
    conditions: tuple[Condition, ...]
    diagnostics: dict

    @property
    def overall(self) -> str:
        statuses = [c.status for c in self.conditions]
        if FAIL in statuses:
            return FAIL
        if UNDETERMINED in statuses:
            return UNDETERMINED
        return PASS

    def condition(self, name: str) -> Condition:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "base_d": self.base_d,
            "r": self.r,
            "overall": self.overall,
            "conditions": [c.to_dict() for c in self.conditions],
            "diagnostics": self.diagnostics,
        }


def _parity_condition(base_d: int, r: int, table) -> Condition:
    parity, evidence = classnumber.h_plus_parity(base_d, r, table)
    if parity == classnumber.ODD:
        status = PASS
    elif parity == classnumber.EVEN:
        status = FAIL
    else:
        status = UNDETERMINED
    evidence = dict(evidence)
    evidence["parity"] = parity
    return Condition("h+ parity", status, evidence)


def _unique_prime_above_2(report) -> Condition:
    return Condition(
        "unique prime above 2 in K+",
        PASS if report.unique else FAIL,
        {"splitting": report.to_dict()},
    )


def check_corollary_Q(r: int) -> Verdict:
    """The three rational-base hypotheses: r not 1 mod 8, 2 inert in
    Q(theta_r), h+ odd.  The corollary form does not gate on (iv): when 2 is
    inert, the direct Galois-ring test of the pi_r square condition is
    recorded as a diagnostic, not gated.  The gates do not imply it: at 9 of
    the 27 passing r <= 199 (7, 23, 47, 71, 79, 103, 167, 191 and 199, all
    7 mod 8) pi_r is a square mod P^5."""
    field = build_field(r)
    conditions = []

    conditions.append(
        Condition(
            "r mod 8",
            PASS if r % 8 != 1 else FAIL,
            {"r_mod_8": r % 8, "requirement": "r mod 8 != 1"},
        )
    )

    report = splitting.split_2_in_Qplus(field)
    conditions.append(
        Condition(
            "2 inert in Q+",
            PASS if report.inert else FAIL,
            {"splitting": report.to_dict()},
        )
    )

    conditions.append(_parity_condition(0, r, None))

    diagnostics = {}
    if report.inert:
        is_sq = galoisring.is_square_pi_r(field)
        diagnostics[f"pi_r_square_mod_P{galoisring.PI_R_PRECISION}"] = is_sq
    return Verdict("corollary-Q", 0, r, tuple(conditions), diagnostics)


def check_corollary_quad(d: int, r: int, table=None) -> Verdict:
    """Quadratic-base hypotheses: r coprime to d with r not 1 or d mod 8,
    a unique prime above 2 in the compositum, and odd h+ (table-attested).
    The Legendre-symbol inertness of r in Q(sqrt(d)) is recorded as a
    diagnostic; it is not one of the gates."""
    # split_2_in_Kplus refuses a d that is not a squarefree integer > 1.
    report = splitting.split_2_in_Kplus(d, build_field(r))
    conditions = []

    conditions.append(
        Condition(
            "r does not divide d",
            PASS if d % r != 0 else FAIL,
            {"d_mod_r": d % r},
        )
    )
    conditions.append(
        Condition(
            "r mod 8",
            PASS if (r % 8 != 1 and r % 8 != d % 8) else FAIL,
            {"r_mod_8": r % 8, "d_mod_8": d % 8, "requirement": "r mod 8 not in {1, d mod 8}"},
        )
    )
    conditions.append(_unique_prime_above_2(report))
    conditions.append(_parity_condition(d, r, table))

    inert = splitting.check_r_inert_in_quadratic(d, r)
    diagnostics = {"r_inert_in_K": "r divides d" if inert is None else inert}
    if inert is False:
        diagnostics["r_inert_note"] = (
            "r splits in Q(sqrt(d)) despite r not dividing d; recorded, not gated"
        )
    return Verdict("corollary-quad", d, r, tuple(conditions), diagnostics)


def _condition_iv(base_d: int, field, report) -> Condition:
    """(iv): exact by the Galois-ring square root when the base is Q and 2
    is inert, otherwise by the norm-residue necessary condition."""
    name = "pi_r nonsquare mod P^(4e+1)"
    if base_d == 0 and report.inert:
        is_sq = galoisring.is_square_pi_r(field)
        return Condition(
            name,
            FAIL if is_sq else PASS,
            {"method": "galois-ring", "precision": galoisring.PI_R_PRECISION, "is_square": is_sq},
        )
    from . import descent  # only the literal four-hypothesis form reaches it

    try:
        survives = descent.norm_necessary_condition(base_d, field.r)
    except ValueError as exc:
        return Condition(
            name, UNDETERMINED, {"method": "norm-residue", "unavailable": str(exc)}
        )
    if survives:
        return Condition(
            name,
            UNDETERMINED,
            {"method": "norm-residue", "ruled_out": False,
             "note": "necessary condition only; survival does not prove a square"},
        )
    return Condition(name, PASS, {"method": "norm-residue", "ruled_out": True})


def check_four_hypotheses(base_d: int, r: int, table=None) -> Verdict:
    """The four hypotheses taken literally: (i) r inert in the base,
    (ii) a unique prime P above 2 in K+, (iii) odd h+, (iv) pi_r not a
    square mod P^(4e+1).

    (iv) is decided exactly by the Galois-ring square root when the local
    ring at 2 is the unramified one over Q; otherwise only the norm-residue
    necessary condition is available, and its survival reports undetermined
    rather than pass."""
    field = build_field(r)
    if base_d == 0:
        r_inert = Condition("r inert in K", PASS, {"base": "Q", "note": "trivial for K = Q"})
        report = splitting.split_2_in_Qplus(field)
    else:
        # split_2_in_Kplus refuses a base_d that is not a squarefree integer > 1.
        report = splitting.split_2_in_Kplus(base_d, field)
        inert = splitting.check_r_inert_in_quadratic(base_d, r)
        if inert is None:
            r_inert = Condition("r inert in K", FAIL, {"reason": "r divides d"})
        else:
            r_inert = Condition(
                "r inert in K",
                PASS if inert else FAIL,
                {"legendre_d_mod_r": -1 if inert else 1},
            )
    conditions = (
        r_inert,
        _unique_prime_above_2(report),
        _parity_condition(base_d, r, table),
        _condition_iv(base_d, field, report),
    )
    return Verdict("four-hypotheses", base_d, r, conditions, {})


def scan_Q(r_max: int) -> list[int]:
    """All primes 5 <= r <= r_max whose rational-base verdict is a full
    pass, in increasing order.  r_max is capped at numutil.MAX_R (the
    class-number engine's guard)."""
    if r_max > MAX_R:
        raise ValueError(f"r_max = {r_max} exceeds the supported bound {MAX_R}")
    out = []
    for r in primes_upto(r_max):
        if r < 5:
            continue
        if check_corollary_Q(r).overall == PASS:
            out.append(r)
    return out
