import hashlib
from importlib import resources

import pytest

from rrpfermat.classnumber import (
    EVEN,
    ODD,
    load_hplus_table,
    maillet_h_minus,
    maillet_parity_rows,
    table_digest,
)
from rrpfermat.criteria import FAIL, PASS, UNDETERMINED, check_corollary_quad, check_four_hypotheses
from rrpfermat.cycfield import build_field
from rrpfermat.errors import TableError
from rrpfermat.numutil import MAX_R, primes_upto

import oracles
from fixtures import H_MINUS, Q_LIST


def test_maillet_small_values():
    assert maillet_h_minus(build_field(5)) == 1
    assert maillet_h_minus(build_field(7)) == 1


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
        assert maillet_h_minus(build_field(r)) == expected, r


def test_analytic_oracle_matches_fixtures_live():
    for r in primes_upto(60):
        if r < 5:
            continue
        assert oracles.h_minus_analytic(r) == H_MINUS[r], r


def test_parity_odd_on_the_passing_list():
    for r in Q_LIST:
        assert maillet_h_minus(build_field(r)) % 2 == 1, r


def test_h29_even():
    assert maillet_h_minus(build_field(29)) == 8


def test_h_plus_parity_rational_base():
    cond = check_four_hypotheses(0, 37).condition("h+ parity")
    assert cond.status == PASS and cond.evidence["parity"] == ODD
    assert cond.evidence["method"] == "maillet-h-minus"
    assert list(cond.evidence) == ["method", "h_minus", "scaling_exponent", "parity"]
    cond = check_four_hypotheses(0, 29).condition("h+ parity")
    assert cond.status == FAIL and cond.evidence["parity"] == EVEN
    assert cond.evidence["h_minus"] == "8" and cond.evidence["scaling_exponent"] == 13


def test_h_plus_parity_table_paths():
    table = load_hplus_table()
    assert table[(2, 5)].parity == ODD
    assert {(2, 5), (2, 7), (2, 11), (2, 13), (5, 7), (5, 11)} == set(table)
    cond = check_corollary_quad(2, 5, table).condition("h+ parity")
    assert cond.status == PASS and cond.evidence["parity"] == ODD
    assert list(cond.evidence) == ["method", "source", "parity"]
    cond = check_corollary_quad(7, 11, table).condition("h+ parity")
    assert cond.status == UNDETERMINED and cond.evidence == {
        "method": "external-table", "missing_entry": "d=7 r=11", "parity": "undetermined"}


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
