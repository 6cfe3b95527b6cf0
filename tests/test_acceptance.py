"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured runtime.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
import time
from itertools import combinations

import pytest

from rrpfermat.classnumber import load_hplus_table, maillet_h_minus
from rrpfermat.criteria import (
    FAIL,
    PASS,
    UNDETERMINED,
    check_corollary_Q,
    check_corollary_quad,
    check_four_hypotheses,
    scan_Q,
)
from rrpfermat.cycfield import alpha_beta_gamma, build_field
from rrpfermat.descent import norm_necessary_condition
from rrpfermat.ffpoly import ddf_degrees, least_irreducible
from rrpfermat.frey import frey_curve, invariants
from rrpfermat.galoisring import gr_sqrt
from rrpfermat.numutil import primes_upto

import oracles
from fixtures import FAIL_H_PARITY, FAIL_INERT, FAIL_R_MOD_8, H_MINUS, Q_LIST
from test_ffpoly import psi_bits


def _report(n: int, ok: bool, detail: str, elapsed: float):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n} {status}: {detail} ({elapsed:.2f}s)")
    assert ok, f"acceptance criterion {n}: {detail}"


def test_criterion_1_q_list_reproduction():
    t0 = time.monotonic()
    got = scan_Q(150)
    elapsed = time.monotonic() - t0
    _report(1, got == Q_LIST and elapsed < 60.0,
            f"scan_Q(150) == 21-prime list, runtime < 60 s", elapsed)


def test_criterion_2_named_exclusions():
    t0 = time.monotonic()
    ok = True
    for r in FAIL_R_MOD_8:
        v = check_corollary_Q(r)
        ok &= v.overall == FAIL and v.condition("r mod 8").status == FAIL
    for r in FAIL_H_PARITY:
        v = check_corollary_Q(r)
        ok &= v.overall == FAIL
        ok &= v.condition("h+ parity").status == FAIL
        ok &= v.condition("r mod 8").status == PASS
        ok &= v.condition("2 inert in Q+").status == PASS
        h_minus = maillet_h_minus(build_field(r))
        ok &= h_minus % 2 == 0 and h_minus == oracles.h_minus_analytic(r)
    for r, shape in FAIL_INERT.items():
        v = check_corollary_Q(r)
        ok &= v.overall == FAIL and v.condition("2 inert in Q+").status == FAIL
        ok &= v.condition("r mod 8").status == PASS
        ok &= v.condition("h+ parity").status == PASS
        ok &= ddf_degrees(psi_bits(r)) == shape
        ok &= shape[0][0] == oracles.two_residue_degree(r)
    _report(2, ok, "exclusions 17,41,73,89,97,113,137 (r mod 8); 29 (h- even, "
            "oracle-confirmed); 31,43 (DDF 5x3 / 7x3, order-confirmed)",
            time.monotonic() - t0)


def test_criterion_3_quadratic_examples():
    t0 = time.monotonic()
    table = load_hplus_table()
    ok = True
    for d, rs in ((2, (5, 7, 11, 13)), (5, (7, 11))):
        for r in rs:
            ok &= check_corollary_quad(d, r, table).overall == PASS
    v = check_corollary_quad(5, 5, table)
    ok &= v.overall == FAIL and v.condition("unique prime above 2 in K+").status == FAIL
    v = check_corollary_quad(5, 13, table)
    ok &= v.overall == FAIL and v.condition("r mod 8").status == FAIL
    elapsed = time.monotonic() - t0
    _report(3, ok and elapsed < 10.0,
            "quadratic passes (d=2: r=5,7,11,13; d=5: r=7,11); (5,5) fails "
            "uniqueness; (5,13) fails r mod 8; runtime < 10 s", elapsed)


def test_criterion_4_galois_ring_soundness():
    t0 = time.monotonic()
    mismatches = 0
    for n, f in ((3, 1), (4, 1), (5, 1), (3, 2), (5, 2), (3, 3)):
        m = least_irreducible(f)
        ring = oracles.galois_ring(n, [(m >> i) & 1 for i in range(f + 1)])
        squares = oracles.gr_square_set(ring)
        for u in oracles.gr_units(ring):
            root = gr_sqrt(u)
            if (root is not None) != (u.coeffs in squares):
                mismatches += 1
            if root is not None and root * root != u:
                mismatches += 1
    ring32 = oracles.galois_ring(5, [1, 1])
    odd_squares = sorted(
        u for u in range(1, 32, 2) if gr_sqrt(ring32.element(u)) is not None
    )
    elapsed = time.monotonic() - t0
    _report(4, mismatches == 0 and odd_squares == [1, 9, 17, 25] and elapsed < 5.0,
            "gr_sqrt == brute-force squaring on GR(2^n,f) for six sizes; odd "
            "squares mod 32 = {1,9,17,25}; runtime < 5 s", elapsed)


def test_criterion_5_class_number_engine():
    t0 = time.monotonic()
    ok = True
    for r in primes_upto(150):
        if r < 5:
            continue
        # raises unless r * Res divides exactly, h^- >= 1 and the GF(2)
        # parity agrees (and, for r <= 61, Bareiss on M'')
        ok &= maillet_h_minus(build_field(r)) >= 1
    for r, expected in H_MINUS.items():
        ok &= maillet_h_minus(build_field(r)) == expected
    ok &= H_MINUS[23] == 3 and H_MINUS[29] == 8
    ok &= all(H_MINUS[r] == 1 for r in (5, 7, 11, 13, 17, 19))
    for r in Q_LIST:
        ok &= maillet_h_minus(build_field(r)) % 2 == 1
    elapsed = time.monotonic() - t0
    _report(5, ok and elapsed < 30.0,
            "exact division, h- >= 1 and GF(2) parity for all r <= 150; h- fixtures r <= 60; "
            "odd parity on the passing list; runtime < 30 s", elapsed)


def test_criterion_6_frey_algebra():
    t0 = time.monotonic()
    rng = random.Random(600)
    failures = 0
    for r in [x for x in primes_upto(31) if x >= 5]:
        field = build_field(r)
        idx = list(range(field.degree + 1))
        for triple in combinations(idx, 3):
            a, b, g = alpha_beta_gamma(field, *triple)
            if not (a + b + g).is_zero():
                failures += 1
            xy = (
                a * field.theta_power_sum(triple[0])
                + b * field.theta_power_sum(triple[1])
                + g * field.theta_power_sum(triple[2])
            )
            if not xy.is_zero():
                failures += 1
        done = 0
        while done < 100:
            import math

            x = rng.randint(-30, 30)
            y = rng.randint(-30, 30)
            if (x, y) == (0, 0) or math.gcd(x, y) != 1:
                continue
            ks = rng.sample(idx, 3)
            cur = frey_curve(field, x, y, *ks)
            if not (cur.A + cur.B + cur.C).is_zero():
                failures += 1
            if (cur.A * cur.B * cur.C).is_zero():
                continue
            inv = invariants(cur)
            c4_o, delta_o = oracles.weierstrass_c4_delta(cur.A, cur.B)
            s = cur.A * cur.B + cur.B * cur.C + cur.C * cur.A
            abc = cur.A * cur.B * cur.C
            if inv.delta != 16 * abc * abc or inv.delta != delta_o:
                failures += 1
            # c4 display with the sign that satisfies c4^3 = j Delta and the
            # generic Weierstrass expansion: c4 = -2^4 (AB+BC+CA).
            if inv.c4 != -16 * s or inv.c4 != c4_o:
                failures += 1
            if inv.c4**3 * inv.j_den != inv.j_num * inv.delta:
                failures += 1
            done += 1
    elapsed = time.monotonic() - t0
    _report(6, failures == 0 and elapsed < 60.0,
            "alpha/beta/gamma identity symbolically for every triple, r <= 31; "
            "A+B+C = 0, Delta = 2^4(ABC)^2, c4 = -2^4(AB+BC+CA) (= generic "
            "Weierstrass c4), c4^3 = j*Delta on 100 random coprime pairs per r; "
            "runtime < 60 s", elapsed)


def test_criterion_7_descent_mechanics():
    t0 = time.monotonic()
    ok = True
    for r in primes_upto(150):
        if r < 5:
            continue
        field = build_field(r)
        ok &= field.theta_power_sum(field.degree) ** 2 == field.pi_r() + 4
    for d in (2, 3, 5, 6, 7, 10, 11, 13):
        for r in primes_upto(150):
            if r < 5 or d % r == 0 or d % 8 == 1:
                continue
            norm_necessary_condition(d, build_field(r))  # raises on brute/closed mismatch
    _report(7, ok, "pi_r + 4 square identity for all r <= 150; residue "
            "systems agree with closed forms on the full (d, r) grid",
            time.monotonic() - t0)


def test_criterion_8_tri_state_contract():
    t0 = time.monotonic()
    ok = True
    # Forced undetermined: missing h+ table entry is never a pass, and the
    # CLI maps it to its own exit code.
    v = check_corollary_quad(7, 11)
    ok &= v.overall == UNDETERMINED and v.overall != PASS
    from rrpfermat.cli import EXIT_UNDETERMINED, main

    ok &= main(["check-quad", "--d", "7", "--r", "11"]) == EXIT_UNDETERMINED
    # Forced necessary-condition-only path: survival reports undetermined.
    v = check_four_hypotheses(5, 13, load_hplus_table())
    cond = v.condition("pi_r nonsquare mod P^(4e+1)")
    ok &= cond.status == UNDETERMINED and cond.evidence["ruled_out"] is False
    # The corollary gates are sound against the exact local computation:
    # whenever the corollary passes, hypotheses (i)-(iii) hold, and the
    # recorded pi_r diagnostic equals the exact Galois-ring decision.
    for r in Q_LIST:
        cor = check_corollary_Q(r)
        strict = check_four_hypotheses(0, r)
        for name in ("r inert in K", "unique prime above 2 in K+", "h+ parity"):
            ok &= strict.condition(name).status == PASS
        iv = strict.condition("pi_r nonsquare mod P^(4e+1)")
        ok &= iv.status == (FAIL if cor.diagnostics["pi_r_square_mod_P5"] else PASS)
    _report(8, ok, "undetermined never reported as pass (forced table and "
            "necessary-condition paths); corollary/theorem cross-check over "
            "the full list", time.monotonic() - t0)
