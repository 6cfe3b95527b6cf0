"""The splitting of 2 in Q(theta_r) is decided on one route,
RealCyclotomicField.two_shape(), from the order of 2 in (Z/r)^*/{±1}; every
consumer must agree with sympy's factorization of psi_r mod 2 for each prime
5 <= r <= 199.  Its second route (the Berlekamp rank where 2 is inert, the
DDF where 2 splits) raises ConsistencyError on any disagreement, and
check-q then exits 70."""

import json

import pytest

import rrpfermat.ffpoly as ffpoly
from rrpfermat.cli import EXIT_FAIL, EXIT_INTERNAL, EXIT_PASS, EXIT_UNDETERMINED, main
from rrpfermat.cycfield import RealCyclotomicField, build_field
from rrpfermat.errors import ConsistencyError, NotInertError
from rrpfermat.galoisring import GaloisRing, is_square_pi_r
from rrpfermat.numutil import primes_upto
from rrpfermat.splitting import split_2_in_Qplus

import oracles

PRIMES = [r for r in primes_upto(199) if r >= 5]


@pytest.mark.parametrize("r", PRIMES)
def test_two_shape_matches_sympy_factorization(r):
    field = build_field(r)
    shape = oracles.gf2_factor_shape(field.psi)
    assert list(field.two_shape()) == shape
    assert field.two_shape() is field.two_shape()  # memoized
    (f, count), = shape
    assert split_2_in_Qplus(field).primes == ((1, f),) * count


@pytest.mark.parametrize("r", PRIMES)
def test_inert_consumers_raise_exactly_when_two_splits(r):
    field = build_field(r)
    inert = oracles.gf2_factor_shape(field.psi) == [(field.degree, 1)]
    consumers = [
        lambda: is_square_pi_r(field),
        field.residue_field_at_2,
    ]
    for call in consumers:
        if inert:
            call()
        else:
            with pytest.raises(NotInertError):
                call()


def test_is_square_pi_r_reads_inertness_from_the_residue_field_alone(monkeypatch):
    # r = 31: 2 splits into three primes of degree 5.  With two_shape out of
    # reach, the Berlekamp rank of psi_31 mod 2 still refuses, chained.
    monkeypatch.setattr(RealCyclotomicField, "two_shape", lambda self: pytest.fail("two_shape ran"))
    with pytest.raises(NotInertError, match="^2 is not inert for r = 31: ") as info:
        is_square_pi_r(build_field(31))
    assert type(info.value.__cause__) is ValueError


def test_one_residue_field_per_inert_r(monkeypatch):
    # two_shape's Berlekamp route builds the GF(2^d) that is_square_pi_r
    # hands to its Galois ring: one F2Field per field, none from the DDF.
    built = []
    real_f2field = ffpoly.F2Field

    def counting(*args):
        built.append(args)
        return real_f2field(*args)

    monkeypatch.setattr(ffpoly, "F2Field", counting)
    monkeypatch.setattr(ffpoly, "ddf_degrees", lambda p: pytest.fail("DDF ran at an inert r"))
    field = build_field(199)
    field.two_shape()
    is_square_pi_r(field)
    is_square_pi_r(field)
    assert len(built) == 1
    assert field.residue_field_at_2() is field.residue_field_at_2()


def test_the_ddf_runs_where_two_splits(monkeypatch):
    calls = []
    real_ddf = ffpoly.ddf_degrees
    monkeypatch.setattr(ffpoly, "ddf_degrees", lambda p: calls.append(p) or real_ddf(p))
    assert build_field(193).two_shape() == ((48, 2),)
    assert len(calls) == 1


def test_a_ddf_that_disagrees_raises_and_exits_70(monkeypatch, capsys):
    # r = 193: 2 splits into two primes of degree 48; a DDF that reads it
    # as four primes of degree 24 contradicts the order of 2.
    monkeypatch.setattr(ffpoly, "ddf_degrees", lambda p: [(24, 4)])
    with pytest.raises(ConsistencyError, match="DDF"):
        build_field(193).two_shape()
    code = main(["check-q", "--r", "193"])
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL
    assert captured.err.startswith("error:") and "DDF" in captured.err


def test_a_failed_berlekamp_rank_raises_and_exits_70(monkeypatch, capsys):
    # r = 199: 2 is inert; a rank of Q - I one short of f - 1 would mean
    # psi_r mod 2 has two factors, which contradicts the order of 2.
    real_pivots = ffpoly.gf2_pivots

    def one_pivot_short(vectors):
        pivots = real_pivots(vectors)
        pivots.pop(max(pivots))
        return pivots

    monkeypatch.setattr(ffpoly, "gf2_pivots", one_pivot_short)
    with pytest.raises(ConsistencyError, match="Berlekamp"):
        build_field(199).two_shape()
    code = main(["check-q", "--r", "199"])
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL
    assert captured.err.startswith("error:") and "Berlekamp" in captured.err


def test_a_galois_ring_refuses_a_residue_field_of_another_modulus():
    f7, f11 = build_field(7), build_field(11)  # both inert, degrees 3 and 5
    with pytest.raises(ValueError, match="residue field"):
        GaloisRing(5, f7.psi, f11.residue_field_at_2())
    with pytest.raises(ValueError, match="residue field"):
        # same degree, another modulus: x^3 + x + 1, while psi_7 = x^3 + x^2 + 1 mod 2
        GaloisRing(5, [1, 1, 0, 1], f7.residue_field_at_2())
    ring = GaloisRing(5, f7.psi, f7.residue_field_at_2())
    assert ring.residue_field is f7.residue_field_at_2()


# -- the residue field's trace vector and sqrt(t) wait for first use ---------


def _count_first_uses(monkeypatch) -> dict:
    counts = {"_trace_vector": 0, "_root_of_t": 0}
    for name in counts:
        def counting(self, _name=name, _real=getattr(ffpoly.F2Field, name)):
            counts[_name] += 1
            return _real(self)

        monkeypatch.setattr(ffpoly.F2Field, name, counting)
    return counts


@pytest.mark.parametrize("theorem, code", [(True, EXIT_FAIL), (False, EXIT_UNDETERMINED)])
def test_check_quad_d_2_needs_neither_the_trace_vector_nor_sqrt_t(monkeypatch, capsys, theorem, code):
    # d = 2 ramifies in the fiber: check-quad reads only the rank of GF(2^99)
    # that two_shape() builds at r = 199.  Without --theorem the missing h+
    # entry leaves the verdict undetermined; with it, r splits in Q(sqrt(2)).
    argv = ["check-quad", "--d", "2", "--r", "199", "--json"] + ["--theorem"] * theorem
    assert main(argv) == code
    reference = capsys.readouterr().out
    for name in ("_trace_vector", "_root_of_t"):
        monkeypatch.setattr(ffpoly.F2Field, name, lambda self, _name=name: pytest.fail(f"{_name} ran"))
    assert main(argv) == code
    assert capsys.readouterr().out == reference
    assert json.loads(reference)["verdict"]["overall"] == ("fail" if theorem else "undetermined")


def test_check_quad_d_5_builds_the_trace_vector_once_and_no_sqrt_t(monkeypatch, capsys):
    counts = _count_first_uses(monkeypatch)
    assert main(["check-quad", "--d", "5", "--r", "199", "--json"]) == EXIT_UNDETERMINED
    assert counts == {"_trace_vector": 1, "_root_of_t": 0}


def test_check_q_builds_both_for_the_galois_ring_square_root(monkeypatch, capsys):
    counts = _count_first_uses(monkeypatch)
    assert main(["check-q", "--r", "199", "--json"]) == EXIT_PASS
    assert '"pi_r_square_mod_P5": true' in capsys.readouterr().out
    assert counts == {"_trace_vector": 1, "_root_of_t": 1}
