import hashlib
from importlib import resources

import pytest

from rrpfermat.classnumber import (
    EVEN,
    ODD,
    UNDETERMINED,
    h_plus_parity,
    load_hplus_table,
    maillet_h_minus,
    maillet_parity_rows,
    table_digest,
)
from rrpfermat.criteria import check_four_hypotheses
from rrpfermat.cycfield import build_field
from rrpfermat.errors import TableError
from rrpfermat.numutil import MAX_R, primes_upto

import oracles
from fixtures import H_MINUS, Q_LIST


def test_maillet_small_values():
    res = maillet_h_minus(build_field(5))
    assert res.h_minus == 1 and res.determinant in (5, -5)
    assert res.scaling_exponent == 1
    res = maillet_h_minus(build_field(7))
    assert res.h_minus == 1 and abs(res.determinant) == 49


def test_maillet_guards():
    # maillet_h_minus takes a field: the rational-base verdict that reaches
    # it refuses a bad r where it builds the field.
    for bad in (3, 4, 9, 211, 1000):
        with pytest.raises(ValueError):
            check_four_hypotheses(0, bad)


def test_packed_parity_rows_match_the_maillet_matrix():
    primes = [r for r in primes_upto(MAX_R) if r >= 5]
    assert len(primes) == 44
    for r in primes:
        m = (r - 1) // 2
        inverses = [pow(b, -1, r) for b in range(1, m + 1)]
        rows = maillet_parity_rows(build_field(r), inverses)
        assert rows == oracles.packed_mod2(oracles.maillet_matrix(r)), r


def test_maillet_matches_frozen_fixtures():
    for r, expected in H_MINUS.items():
        res = maillet_h_minus(build_field(r))
        assert res.h_minus == expected, r
        assert res.parity == (ODD if expected % 2 else EVEN)


def test_analytic_oracle_matches_fixtures_live():
    for r in primes_upto(60):
        if r < 5:
            continue
        assert oracles.h_minus_analytic(r) == H_MINUS[r], r


def test_exact_scaling_divides_for_all_r():
    # The Maillet determinant is r^((r-3)/2) * h^- up to sign for every prime
    # r <= 150; the scaling holds by construction of the r-reduced matrix.
    for r in primes_upto(150):
        if r < 5:
            continue
        res = maillet_h_minus(build_field(r))
        assert abs(res.determinant) == r**res.scaling_exponent * res.h_minus, r


def test_parity_odd_on_the_passing_list():
    for r in Q_LIST:
        assert maillet_h_minus(build_field(r)).parity == ODD, r


def test_h29_even():
    res = maillet_h_minus(build_field(29))
    assert res.h_minus == 8 and res.parity == EVEN


def test_h_plus_parity_rational_base():
    parity, ev = h_plus_parity(0, build_field(37))
    assert parity == ODD and ev["method"] == "maillet-h-minus"
    parity, _ = h_plus_parity(0, build_field(29))
    assert parity == EVEN


def test_h_plus_parity_table_paths():
    table = load_hplus_table()
    assert table[(2, 5)].parity == ODD
    assert {(2, 5), (2, 7), (2, 11), (2, 13), (5, 7), (5, 11)} == set(table)
    parity, ev = h_plus_parity(2, build_field(5), table)
    assert parity == ODD and "source" in ev
    parity, ev = h_plus_parity(7, build_field(11), table)
    assert parity == UNDETERMINED and ev["missing_entry"] == "d=7 r=11"


def test_table_parsing_errors(tmp_path):
    bad = tmp_path / "t1.txt"
    bad.write_text("2 5 odd src\n2 5 even src\n", encoding="utf-8")
    with pytest.raises(TableError):
        load_hplus_table(bad)
    bad.write_text("2 5 maybe src\n", encoding="utf-8")
    with pytest.raises(TableError):
        load_hplus_table(bad)
    bad.write_text("2 5 odd\n", encoding="utf-8")
    with pytest.raises(TableError):
        load_hplus_table(bad)
    ok = tmp_path / "t2.txt"
    ok.write_text("# comment\n\n3 7 even some source text\n", encoding="utf-8")
    table = load_hplus_table(ok)
    assert table[(3, 7)].parity == EVEN
    assert table[(3, 7)].source == "some source text"


def test_the_shipped_paths_are_the_package_resources():
    # The package builds its data paths from __file__; importlib.resources,
    # which it no longer imports, must name the same files.
    from rrpfermat import classnumber
    from rrpfermat.cli import shipped_q_list_path

    package = resources.files("rrpfermat")
    assert classnumber._SHIPPED_TABLE == str(package.joinpath("data/hplus_parity.txt"))
    assert shipped_q_list_path() == str(package.joinpath("data/q_list.txt"))


def test_table_digest_stable():
    shipped = resources.files("rrpfermat").joinpath("data/hplus_parity.txt").read_bytes()
    digest = load_hplus_table().sha256
    assert digest == load_hplus_table().sha256 == table_digest(shipped)
    assert digest == hashlib.sha256(shipped).hexdigest()
    assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")
