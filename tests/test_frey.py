import math
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrpfermat.cycfield import RealCyclotomicField, alpha_beta_gamma, build_field, f_k_eval
from rrpfermat.errors import (
    ConsistencyError,
    DegenerateCurveError,
    NotCoprimeError,
    UnfactoredCofactorError,
)
from rrpfermat import cli, frey
from rrpfermat.frey import (
    DEFAULT_SMOOTHNESS_BOUND,
    _orbit_representative,
    conductor_support_outside_S,
    coprimality_check,
    frey_curve,
    invariants,
)
from rrpfermat.intlinalg import row_lattice_index
from rrpfermat.numutil import primes_upto, strip_factor

import oracles
from fixtures import FREY_DESK

SMALL_PRIMES = [r for r in primes_upto(31) if r >= 5]


def random_coprime_pair(rng):
    while True:
        x = rng.randint(-40, 40)
        y = rng.randint(-40, 40)
        if (x, y) != (0, 0) and math.gcd(x, y) == 1:
            return x, y


def test_unit_evaluation_gives_alpha_beta_gamma():
    f5 = build_field(5)
    cur = frey_curve(f5, 1, 0, 0, 1, 2)
    a, b, g = alpha_beta_gamma(f5, 0, 1, 2)
    assert cur.A == a and cur.B == b and cur.C == g


def test_scaled_evaluation():
    f5 = build_field(5)
    cur = frey_curve(f5, 1, 1, 0, 1, 2)
    a, _, _ = alpha_beta_gamma(f5, 0, 1, 2)
    assert cur.A == a * 4  # f_0(1,1) = 4


def test_construction_guards():
    f5 = build_field(5)
    with pytest.raises(ValueError):
        frey_curve(f5, 0, 0, 0, 1, 2)
    with pytest.raises(ValueError):
        frey_curve(f5, 1, 0, 0, 0, 1)
    with pytest.raises(ValueError):
        frey_curve(f5, 1, 0, 0, 1, 3)


def test_sum_zero_numeric():
    f7 = build_field(7)
    cur = frey_curve(f7, 3, 2, 1, 2, 3)
    assert (cur.A + cur.B + cur.C).is_zero()


def test_invariants_against_weierstrass_oracle_random():
    rng = random.Random(1212)
    for r in SMALL_PRIMES:
        f = build_field(r)
        idx = list(range(f.degree + 1))
        for _ in range(12):
            x, y = random_coprime_pair(rng)
            ks = rng.sample(idx, 3)
            cur = frey_curve(f, x, y, *ks)
            if (cur.A * cur.B * cur.C).is_zero():
                continue
            inv = invariants(cur)
            c4_o, delta_o = oracles.weierstrass_c4_delta(cur.A, cur.B)
            assert inv.c4 == c4_o, (r, x, y, ks)
            assert inv.delta == delta_o
            assert inv.delta == 16 * (cur.A * cur.B * cur.C) ** 2
            s = cur.A * cur.B + cur.B * cur.C + cur.C * cur.A
            assert inv.c4 == -16 * s
            assert inv.c4**3 * inv.j_den == inv.j_num * inv.delta


def test_degenerate_curve():
    # x = 1, y = -1 sends f_0 to 0, so A = 0.  The conductor and the
    # invariants raise with one message, so the CLI's exit-64 text does not
    # depend on which of them runs first.
    for r in (5, 7):
        cur = frey_curve(build_field(r), 1, -1, 0, 1, 2)
        for step in (conductor_support_outside_S, invariants):
            with pytest.raises(DegenerateCurveError) as exc:
                step(cur)
            assert str(exc.value) == "ABC = 0: singular model, j undefined", (r, step)


def test_a_curve_multiplies_A_B_C_once(monkeypatch):
    # frey_curve keeps A * B and A * B * C; the conductor's norm and the
    # invariants read them and multiply neither again.
    field = build_field(11)
    curve = frey_curve(field, 3, 2, 0, 1, 2)
    assert curve.AB == curve.A * curve.B and curve.ABC == curve.AB * curve.C
    c4_o, delta_o = oracles.weierstrass_c4_delta(curve.A, curve.B)
    s = curve.A * curve.B + curve.B * curve.C + curve.C * curve.A
    products = []
    real_mul = type(curve.A).__mul__
    monkeypatch.setattr(type(curve.A), "__mul__", lambda a, b: products.append((a, b)) or real_mul(a, b))
    conductor_support_outside_S(curve)
    inv = invariants(curve)
    again = [(a, b) for a, b in products if not isinstance(b, int)
             and ((a == curve.A and b == curve.B) or (a == curve.AB and b == curve.C))]
    assert products and not again
    assert inv.c4 == c4_o == -16 * s and inv.delta == delta_o


def test_frey_curve_requires_A_B_C_to_sum_to_zero(monkeypatch):
    # The telescoping check in frey_curve is the only A + B + C = 0 guard.
    monkeypatch.setattr(frey, "alpha_beta_gamma", lambda field, *ks: (field.one,) * 3)
    with pytest.raises(ConsistencyError, match="A \\+ B \\+ C != 0"):
        frey_curve(build_field(5), 2, 1, 0, 1, 2)


def test_coprimality_examples():
    f5 = build_field(5)
    rep = coprimality_check(frey_curve(f5, 2, 1, 0, 1, 2))
    assert rep.ok and all(n == 1 for _, _, n in rep.pairs)
    rep = coprimality_check(frey_curve(build_field(7), 3, 2, 0, 1, 2))
    assert rep.ok
    rep = coprimality_check(frey_curve(f5, 1, 0, 0, 1, 2))
    assert rep.ok  # every f_k = 1: vacuous


def test_coprimality_random_pairs():
    rng = random.Random(4321)
    for r in (5, 7, 11, 13):
        f = build_field(r)
        for _ in range(50):
            x, y = random_coprime_pair(rng)
            assert coprimality_check(frey_curve(f, x, y, 0, 1, 2)).ok, (r, x, y)


def test_coprimality_pairs_match_the_all_rows_ideal_norm():
    rng = random.Random(2024)
    for r in (5, 7, 11, 13, 17, 19, 23):
        f = build_field(r)
        # (1, -1) makes f_0 zero, which then adds no rows; (1, 0) makes every
        # f_k a unit; ((r + 1)/2, (r - 1)/2) has r | x + y, so every f_k lies
        # in the prime above r.
        cases = [(1, -1), (1, 0), (2, 1), (3, -2), ((r + 1) // 2, (r - 1) // 2)]
        cases += [random_coprime_pair(rng) for _ in range(6)]
        for x, y in cases:
            values = [f_k_eval(f, k, x, y) for k in range(f.degree + 1)]
            expected = [
                (i, j, strip_factor(oracles.ideal_norm(f, [values[i], values[j]]), r))
                for i, j in combinations(range(len(values)), 2)
            ]
            report = coprimality_check(frey_curve(f, x, y, 0, 1, 2))
            assert list(report.pairs) == expected, (r, x, y)


def _fold(t, r):
    return min(t % r, r - t % r)


@pytest.mark.parametrize("r", SMALL_PRIMES)
def test_orbit_representative_is_the_least_pair_of_its_galois_orbit(r):
    d = (r - 1) // 2
    for i, j in combinations(range(d + 1), 2):
        orbit = {tuple(sorted((_fold(a * i, r), _fold(a * j, r)))) for a in range(1, r)}
        assert _orbit_representative(i, j, r) == min(orbit), (r, i, j)


@pytest.mark.parametrize("r", [5, 7, 11, 13, 17, 19, 23])
def test_coprimality_takes_one_lattice_index_per_galois_orbit(r, monkeypatch):
    calls = []

    def counting_index(rows, dim):
        calls.append(len(rows))
        return row_lattice_index(rows, dim)

    monkeypatch.setattr(frey, "row_lattice_index", counting_index)
    f = build_field(r)
    for x, y in [(1, -1), (1, 0), (3, 2), ((r + 1) // 2, (r - 1) // 2)]:
        calls.clear()
        coprimality_check(frey_curve(f, x, y, 0, 1, 2))
        assert len(calls) == f.degree // 2 + 1, (r, x, y)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.tuples(st.integers(-50, 50), st.integers(-50, 50)).filter(lambda p: math.gcd(*p) == 1))
def test_galois_automorphisms_permute_the_quadratic_factors(xy):
    """sigma_a: theta -> zeta^a + zeta^-a, applied to the coefficients of
    f_k(x, y), gives f_fold(a k)(x, y): the rule the coprimality orbits use."""
    x, y = xy
    for r in (5, 7, 11, 13, 17, 19, 23):
        f = build_field(r)
        values = [f_k_eval(f, k, x, y) for k in range(f.degree + 1)]
        for a in range(1, f.degree + 1):
            theta_powers = [f.one]
            for _ in range(f.degree - 1):
                theta_powers.append(theta_powers[-1] * f.theta_power_sum(a))
            for k, value in enumerate(values):
                image = f.element(0)
                for c, power in zip(value.coeffs, theta_powers):
                    image = image + power * c
                assert image == f_k_eval(f, _fold(a * k, r), x, y), (r, a, k, x, y)


def _support_or_message(route, curve, bound):
    try:
        return route(curve, bound)
    except UnfactoredCofactorError as exc:
        return str(exc)


@pytest.mark.parametrize("ks", [(0, 1, 2), (1, 2, 3)])
def test_conductor_matches_odd_trial_division_on_the_desk_grid(ks):
    """The conductor and the oracle agree on every desk op and bound.  The
    grid refuses some op at each bound, and it also proves primes above the
    bound at each of them."""
    fields = {}
    refused, above = Counter(), Counter()
    for r, x, y in FREY_DESK:
        f = fields.setdefault(r, build_field(r))
        if max(ks) > f.degree:
            continue
        cur = frey_curve(f, x, y, *ks)
        for bound in (5, 100, DEFAULT_SMOOTHNESS_BOUND):
            got = _support_or_message(conductor_support_outside_S, cur, bound)
            want = _support_or_message(oracles.conductor_support_trial_division, cur, bound)
            assert got == want, (r, x, y, ks, bound)
            if isinstance(got, str):
                refused[bound] += 1
            elif got and got[-1] > bound:
                above[bound] += 1
    assert all(refused[bound] for bound in (5, 100, DEFAULT_SMOOTHNESS_BOUND)), refused
    assert all(above[bound] for bound in (5, 100, DEFAULT_SMOOTHNESS_BOUND)), above
    if ks == (0, 1, 2):
        # frey-desk: 10 of its 259 ops refuse at the default bound.
        assert refused[DEFAULT_SMOOTHNESS_BOUND] == 10


def test_conductor_checks_the_norm_against_the_closed_form(monkeypatch):
    cur = frey_curve(build_field(7), 3, 2, 0, 1, 2)
    assert conductor_support_outside_S(cur) == conductor_support_outside_S(cur, 10**6)
    norm = RealCyclotomicField.norm
    monkeypatch.setattr(RealCyclotomicField, "norm", lambda self, a: 3 * norm(self, a))
    with pytest.raises(ConsistencyError):
        conductor_support_outside_S(cur)


def test_frey_curve_takes_coprime_rational_integers():
    # The curve gates its inputs once, in this order; the conductor and the
    # coprimality certificate read them from the curve.
    f5 = build_field(5)
    for x in (f5.theta, f5.one):
        with pytest.raises(TypeError):
            frey_curve(f5, x, 1, 0, 1, 2)
    with pytest.raises(TypeError):
        frey_curve(f5, 0, f5.theta, 0, 0, 1)
    with pytest.raises(ValueError, match="both be zero"):
        frey_curve(f5, 0, 0, 0, 0, 1)
    for x, y in ((6, 3), (2, 2), (0, 2)):
        with pytest.raises(NotCoprimeError, match=f"gcd\\({x}, {y}\\) != 1"):
            frey_curve(f5, x, y, 0, 0, 1)


def test_conductor_support_examples():
    f5 = build_field(5)
    cur = frey_curve(f5, 1, 0, 0, 1, 2)
    assert conductor_support_outside_S(cur) == ()  # A, B, C are r-units
    cur = frey_curve(f5, 2, 1, 0, 1, 2)
    assert conductor_support_outside_S(cur) == (3, 11)
    # Phi = 11 and x + y = 3: isqrt of each is at most 3, so both are proved
    # prime with no candidate tried.
    assert conductor_support_outside_S(cur, smoothness_bound=3) == (3, 11)
    # Phi = 61 and isqrt(61) = 7 > 3: trial division cannot prove it at
    # bound 3, and Miller-Rabin does.
    cur = frey_curve(f5, 3, 1, 0, 1, 2)
    assert conductor_support_outside_S(cur) == (61,)
    assert conductor_support_outside_S(cur, smoothness_bound=3) == (61,)
    # Phi = 341 = 11 * 31 is composite: refused at bound 3.
    cur = frey_curve(f5, 1, -4, 0, 1, 2)
    assert conductor_support_outside_S(cur) == (3, 11, 31)
    with pytest.raises(UnfactoredCofactorError, match="^cofactor 116281 has no prime factor <= 3$"):
        conductor_support_outside_S(cur, smoothness_bound=3)


def test_conductor_valuation_divisibility_shape():
    # At a support prime q not in {2, r}, v_q(Delta) = 2 v_q(ABC): check the
    # shape numerically through the norm.
    f5 = build_field(5)
    cur = frey_curve(f5, 2, 1, 0, 1, 2)
    inv = invariants(cur)
    n_delta = abs(f5.norm(inv.delta))
    n_abc = abs(f5.norm(cur.A * cur.B * cur.C))
    assert strip_factor(n_delta, 2) == strip_factor(n_abc, 2) ** 2


def test_norm_alpha_beta_gamma_power_of_r_all_triples():
    for r in SMALL_PRIMES:
        f = build_field(r)
        for triple in combinations(range(f.degree + 1), 3):
            a, b, g = alpha_beta_gamma(f, *triple)
            assert strip_factor(f.norm(a * b * g), r) == 1, (r, triple)


# -- the residue map of each (f_k) -------------------------------------------


def _closed_form_basis(f, k, x, y):
    phi = frey._phi(x, y, f.r)
    if k == 0:
        return frey._scalar_basis((x + y) ** 2, f.degree)
    return frey._residue_basis(f, k, frey._residue_root(k, x, y, f.r, phi), x, y, phi)


def _eliminated_basis(f, k, x, y):
    return oracles.hermite_basis(f.multiplication_rows(f_k_eval(f, k, x, y)))


def test_closed_form_bases_equal_the_eliminated_ones_on_the_desk_grid():
    fields = {}
    for r, x, y in FREY_DESK:
        f = fields.setdefault(r, build_field(r))
        for k in range(f.degree + 1):
            assert _closed_form_basis(f, k, x, y) == _eliminated_basis(f, k, x, y), (r, x, y, k)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.sampled_from([5, 7, 11, 13, 17, 19, 23]),
    st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)).filter(
        lambda p: math.gcd(*p) == 1
    ),
    st.integers(0, 11),
)
def test_closed_form_bases_equal_the_eliminated_ones(r, xy, k):
    f = build_field(r)
    k %= f.degree + 1
    assert _closed_form_basis(f, k, *xy) == _eliminated_basis(f, k, *xy)


@pytest.mark.parametrize("xy", [(1, -1), (1, 0), (0, 1), (1, 1), (-1, 1)])
def test_closed_form_bases_at_the_degenerate_values(xy):
    # x + y = 0 leaves f_0 = 0 (no rows) and Phi = r; Phi = 1 leaves I_d.
    for r in SMALL_PRIMES:
        f = build_field(r)
        for k in range(f.degree + 1):
            assert _closed_form_basis(f, k, *xy) == _eliminated_basis(f, k, *xy), (r, xy, k)


@pytest.mark.parametrize("r", SMALL_PRIMES)
def test_the_residue_gcd_is_the_lattice_index_at_every_orbit(r):
    # Each representative pair's index from all the rows of both generators
    # at once (no Hermite basis) against the gcd that the residue map gives.
    f = build_field(r)
    grid = [(x, y) for x in range(-4, 5) for y in range(-4, 5) if math.gcd(x, y) == 1]
    grid.append(((r + 1) // 2, (r - 1) // 2))  # r | x + y
    reps = {_orbit_representative(i, j, r) for i, j in combinations(range(f.degree + 1), 2)}
    for x, y in grid:
        phi = frey._phi(x, y, r)
        roots = {k: frey._residue_root(k, x, y, r, phi) for k in range(1, f.degree + 1)}
        for i, j in reps:
            gens = [g for g in (f_k_eval(f, i, x, y), f_k_eval(f, j, x, y)) if not g.is_zero()]
            want = oracles.ideal_norm(f, gens)
            got = math.gcd(phi, roots[i] - roots[j]) if i else math.gcd((x + y) ** 2, phi)
            assert got == want, (r, x, y, i, j)


def test_a_wrong_residue_root_fails_the_certificate_and_exits_70(monkeypatch, capsys):
    real_root = frey._residue_root
    monkeypatch.setattr(frey, "_residue_root", lambda *args: real_root(*args) + 1)
    with pytest.raises(ConsistencyError, match="does not send psi_r"):
        coprimality_check(frey_curve(build_field(7), 3, 2, 0, 1, 2))
    code = cli.main(["frey", "--r", "7", "--x", "3", "--y", "2", "--json"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL
    assert captured.err.startswith("error:") and "does not send psi_r" in captured.err


def test_each_half_of_the_certificate_refuses_a_wrong_root():
    # At r = 11, (x, y) = (3, 2): -a_2 is a root of f_2 (s_2 is even) but not
    # of psi_r, and a_2 is a root of psi_r but not of f_1.
    f, x, y = build_field(11), 3, 2
    phi = frey._phi(x, y, 11)
    a_2 = frey._residue_root(2, x, y, 11, phi)
    with pytest.raises(ConsistencyError, match="does not send psi_r"):
        frey._residue_basis(f, 2, -a_2 % phi, x, y, phi)
    with pytest.raises(ConsistencyError, match="does not send psi_r"):
        frey._residue_basis(f, 1, a_2, x, y, phi)


def test_a_lattice_index_that_disagrees_with_the_residue_gcd_exits_70(monkeypatch, capsys):
    tripled = lambda rows, dim: 3 * row_lattice_index(rows, dim)  # noqa: E731
    monkeypatch.setattr(frey, "row_lattice_index", tripled)
    with pytest.raises(ConsistencyError, match="residue map"):
        coprimality_check(frey_curve(build_field(11), 3, 2, 0, 1, 2))
    code = cli.main(["frey", "--r", "11", "--x", "3", "--y", "2"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL
    assert "lattice index" in captured.err
