import pytest

import rrpfermat.ffpoly as ffpoly
import rrpfermat.splitting as splitting
from rrpfermat.cli import EXIT_INTERNAL, main
from rrpfermat.cycfield import build_field
from rrpfermat.errors import ConsistencyError
from rrpfermat.ffpoly import F2Field
from rrpfermat.numutil import is_squarefree, primes_upto
from rrpfermat.splitting import (
    SplittingReport,
    check_r_inert_in_quadratic,
    split_2_in_Kplus,
    split_2_in_Qplus,
    split_2_in_quadratic,
    split_r_in_Qplus,
)

import oracles


def test_report_invariant_enforced():
    with pytest.raises(ValueError):
        SplittingReport(2, 4, ((1, 1), (1, 2)))
    rep = SplittingReport(2, 4, ((1, 2), (1, 2)))
    assert not rep.unique and not rep.inert
    rep = SplittingReport(2, 4, ((1, 4),))
    assert rep.unique and rep.inert
    rep = SplittingReport(2, 4, ((2, 2),))
    assert rep.unique and not rep.inert


def test_split_2_in_Qplus_examples():
    rep = split_2_in_Qplus(5)
    assert rep.primes == ((1, 2),) and rep.inert
    rep = split_2_in_Qplus(7)
    assert rep.primes == ((1, 3),) and rep.inert
    rep = split_2_in_Qplus(31)
    assert rep.primes == ((1, 5), (1, 5), (1, 5)) and not rep.inert and not rep.unique


def test_split_2_in_Qplus_residue_degree_oracle():
    for r in primes_upto(150):
        if r < 5:
            continue
        rep = split_2_in_Qplus(r)
        f = rep.primes[0][1]
        assert all(e == 1 for e, _ in rep.primes), r
        assert all(fi == f for _, fi in rep.primes), r
        assert f == oracles.two_residue_degree(r), r
        assert sum(e * fi for e, fi in rep.primes) == (r - 1) // 2


def test_split_2_in_quadratic_table():
    assert split_2_in_quadratic(5).inert
    rep = split_2_in_quadratic(2)
    assert rep.primes == ((2, 1),) and rep.unique and not rep.inert
    rep = split_2_in_quadratic(17)
    assert rep.primes == ((1, 1), (1, 1)) and not rep.unique
    assert split_2_in_quadratic(3).primes == ((2, 1),)
    for bad in (0, -5, 1, 12, 18):
        with pytest.raises(ValueError):
            split_2_in_quadratic(bad)


def test_split_2_in_Kplus_examples():
    rep = split_2_in_Kplus(2, 5)
    assert rep.primes == ((2, 2),) and rep.unique
    rep = split_2_in_Kplus(5, 7)
    assert rep.primes == ((1, 6),) and rep.unique and rep.inert
    rep = split_2_in_Kplus(5, 5)
    assert rep.primes == ((1, 2), (1, 2)) and not rep.unique


def test_split_2_in_Kplus_degree_and_consistency():
    for d in (2, 3, 5, 6, 7, 10, 11, 13, 17):
        quad = split_2_in_quadratic(d)
        for r in (5, 7, 11, 13):
            base = split_2_in_Qplus(r)
            rep = split_2_in_Kplus(d, r)
            assert rep.field_degree == r - 1
            assert sum(e * f for e, f in rep.primes) == r - 1
            # If 2 already splits in the quadratic field or in Q+, the
            # compositum cannot have a unique prime.
            if not quad.unique or not base.unique:
                assert not rep.unique, (d, r)


def test_split_2_in_Kplus_against_global_oracle():
    checked = 0
    shapes = set()
    for d in (2, 3, 5, 6, 7, 10, 13, 17, 21, 29, 33):
        for r in (5, 7, 11):
            expected = oracles.quad_tower_splitting(d, r)
            if expected is None:
                continue  # no Dedekind certificate for this generator
            got = sorted(split_2_in_Kplus(d, r).primes)
            assert got == expected, (d, r, got, expected)
            checked += 1
            shapes.add(tuple(expected))
    assert checked >= 20
    # the certified set must exercise ramified, inert and split fibers
    assert any(e == 2 for shape in shapes for e, _ in shape)
    assert any(len(shape) == 1 and shape[0][0] == 1 for shape in shapes)
    assert any(len(shape) == 2 for shape in shapes)


def test_split_r_in_Qplus():
    rep = split_r_in_Qplus(5)
    assert rep.rational_prime == 5 and rep.primes == ((2, 1),) and rep.unique
    rep = split_r_in_Qplus(7)
    assert rep.primes == ((3, 1),)
    for r in [x for x in primes_upto(60) if x >= 5]:
        rep = split_r_in_Qplus(r)
        assert rep.primes == (((r - 1) // 2, 1),)
        assert sum(e * f for e, f in rep.primes) == (r - 1) // 2


def test_check_r_inert_in_quadratic():
    assert check_r_inert_in_quadratic(2, 5) is True  # (2|5) = -1
    assert check_r_inert_in_quadratic(2, 7) is False  # 2 = 3^2 mod 7
    assert check_r_inert_in_quadratic(5, 7) is True  # squares mod 7: {1,2,4}
    assert check_r_inert_in_quadratic(5, 5) is None  # r | d: r ramifies
    assert check_r_inert_in_quadratic(14, 7) is None


def test_check_r_inert_matches_legendre_oracle():
    # Exhaustive square tables as the independent route.
    for r in (5, 7, 11, 13):
        squares = {(x * x) % r for x in range(1, r)}
        for d in range(2, 40):
            if d % r == 0:
                continue
            assert check_r_inert_in_quadratic(d, r) == (d % r not in squares), (d, r)


@pytest.mark.parametrize("d", [2, 3, 5, 17])
def test_the_quadratic_fiber_is_computed_once_per_op(monkeypatch, d):
    # Every prime above 2 in Q+ has the same residue degree, so at r = 31
    # (three primes of degree 5) one fiber serves all three.
    calls = []
    real_fiber = splitting._quadratic_fiber

    def counting(d, f, residue_field):
        calls.append(f)
        return real_fiber(d, f, residue_field)

    monkeypatch.setattr(splitting, "_quadratic_fiber", counting)
    rep = split_2_in_Kplus(d, 31)
    assert calls == [5]
    assert rep.primes == tuple(sorted(real_fiber(d, 5, lambda: F2Field(5)) * 3))


@pytest.mark.parametrize("r", [7, 199])
@pytest.mark.parametrize("d", [5, 17])
def test_an_inert_r_reads_the_fiber_in_the_residue_field(monkeypatch, r, d):
    # Where 2 is inert in Q+, the fiber's GF(2^f) is the field's own
    # residue_field_at_2() (modulus psi_r mod 2): no least irreducible is
    # searched and no second field is built.
    built = []
    real_f2field = ffpoly.F2Field

    def counting(*args):
        built.append(args)
        return real_f2field(*args)

    monkeypatch.setattr(ffpoly, "least_irreducible", lambda f: pytest.fail("least_irreducible ran"))
    monkeypatch.setattr(ffpoly, "F2Field", counting)
    monkeypatch.setattr(splitting, "F2Field", counting)
    field = build_field(r)
    rep = split_2_in_Kplus(d, field)
    assert len(built) == 1 and built[0][0] == field.degree
    assert field.residue_field_at_2().modulus == ffpoly.f2_from_coeffs(field.psi)
    assert len(rep.primes) == (1 if d % 8 == 5 else 2)


def test_a_split_r_builds_its_fiber_field_only_for_d_1_mod_4(monkeypatch):
    # r = 31: 2 splits into three primes of degree 5; d = 2, 3 mod 4 ramify
    # without a trace, and d = 5 reads its trace in one F2Field(5).
    built = []
    real_f2field = splitting.F2Field
    monkeypatch.setattr(splitting, "F2Field", lambda f: built.append(f) or real_f2field(f))
    for d in (2, 3, 6, 7):
        assert split_2_in_Kplus(d, 31).primes == ((2, 5),) * 3
    assert built == []
    assert split_2_in_Kplus(5, 31).primes == ((1, 10),) * 3
    assert built == [5]


_D_1_MOD_4 = [d for d in range(5, 60, 4) if is_squarefree(d)]


@pytest.mark.parametrize("r", [r for r in primes_upto(199) if r >= 5])
def test_the_fiber_equals_the_least_irreducible_route_and_c_f_mod_2(r):
    field = build_field(r)
    (_, f), *_ = split_2_in_Qplus(field).primes
    count = field.degree // f
    for d in _D_1_MOD_4:
        c = ((d - 1) // 4) & 1
        closed = ((1, f), (1, f)) if c * f % 2 == 0 else ((1, 2 * f),)
        old = oracles.quadratic_fiber_by_least_irreducible(d, f)
        assert old == closed, (d, r)
        assert split_2_in_Kplus(d, field).primes == tuple(sorted(old * count)), (d, r)


def test_a_trace_that_disagrees_with_c_f_mod_2_raises_and_exits_70(monkeypatch, capsys):
    # r = 199: 2 is inert, f = 99, and d = 5 gives c = 1, so Tr(1) = 1.
    real_trace = ffpoly.F2Field.trace
    monkeypatch.setattr(ffpoly.F2Field, "trace", lambda self, a: real_trace(self, a) ^ 1)
    with pytest.raises(ConsistencyError, match="c\\*f mod 2"):
        split_2_in_Kplus(5, build_field(199))
    code = main(["check-quad", "--d", "5", "--r", "199"])
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL
    assert captured.err.startswith("error:") and "c*f mod 2" in captured.err
