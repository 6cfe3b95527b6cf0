import pytest

from rrpfermat.classnumber import load_hplus_table
from rrpfermat.criteria import (
    FAIL,
    PASS,
    UNDETERMINED,
    Condition,
    Verdict,
    check_corollary_Q,
    check_corollary_quad,
    check_four_hypotheses,
    scan_Q,
)
from rrpfermat.numutil import primes_upto

from fixtures import FAIL_H_PARITY, FAIL_INERT, FAIL_R_MOD_8, Q_LIST, QUAD_PASS


def test_overall_is_strict_conjunction():
    mk = lambda statuses: Verdict(
        "t", 0, 5,
        tuple(Condition(f"c{i}", s, {}) for i, s in enumerate(statuses)),
        {},
    )
    assert mk([PASS, PASS]).overall == PASS
    assert mk([PASS, FAIL]).overall == FAIL
    assert mk([PASS, UNDETERMINED]).overall == UNDETERMINED
    assert mk([UNDETERMINED, FAIL]).overall == FAIL
    assert mk([]).overall == PASS


def test_corollary_q_pass_cases():
    v = check_corollary_Q(101)
    assert v.overall == PASS
    assert [c.status for c in v.conditions] == [PASS, PASS, PASS]
    assert v.diagnostics["pi_r_square_mod_P5"] is False
    assert check_corollary_Q(5).overall == PASS


def test_corollary_q_fail_cases():
    v = check_corollary_Q(17)
    assert v.overall == FAIL
    assert v.condition("r mod 8").status == FAIL
    v = check_corollary_Q(29)
    assert v.overall == FAIL
    assert v.condition("h+ parity").status == FAIL
    assert v.condition("r mod 8").status == PASS
    assert v.condition("2 inert in Q+").status == PASS
    v = check_corollary_Q(31)
    assert v.overall == FAIL
    assert v.condition("2 inert in Q+").status == FAIL
    assert v.condition("r mod 8").status == PASS
    assert v.condition("h+ parity").status == PASS


def test_corollary_q_rejects_bad_r():
    for bad in (4, 6, 15):
        with pytest.raises(ValueError):
            check_corollary_Q(bad)


def test_corollary_q_deterministic():
    assert check_corollary_Q(23) == check_corollary_Q(23)


def test_scan_q_matches_list():
    assert scan_Q(150) == Q_LIST
    assert scan_Q(13) == [5, 7, 11, 13]
    assert scan_Q(4) == []
    with pytest.raises(ValueError):
        scan_Q(300)


def test_scan_q_named_exclusions():
    got = set(scan_Q(150))
    for r in FAIL_R_MOD_8 + FAIL_H_PARITY + list(FAIL_INERT):
        assert r not in got, r


def test_corollary_quad_pass_cases():
    table = load_hplus_table()
    for d, r in QUAD_PASS:
        v = check_corollary_quad(d, r, table)
        assert v.overall == PASS, (d, r, v.to_dict())


def test_corollary_quad_fail_cases():
    table = load_hplus_table()
    v = check_corollary_quad(5, 5, table)
    assert v.overall == FAIL
    assert v.condition("unique prime above 2 in K+").status == FAIL
    assert v.condition("r does not divide d").status == FAIL
    v = check_corollary_quad(5, 13, table)
    assert v.overall == FAIL
    assert v.condition("r mod 8").status == FAIL  # 13 = 5 = d mod 8


def test_corollary_quad_undetermined_without_table_entry():
    v = check_corollary_quad(7, 11)
    assert v.overall == UNDETERMINED
    cond = v.condition("h+ parity")
    assert cond.status == UNDETERMINED
    assert cond.evidence["missing_entry"] == "d=7 r=11"
    # every other condition passes, so the undetermined entry is what blocks
    assert all(
        c.status == PASS for c in v.conditions if c.name != "h+ parity"
    )


def test_corollary_quad_records_inertness_diagnostic():
    v = check_corollary_quad(2, 7)
    # (2|7) = 1: r splits in Q(sqrt(2)); the corollary form still passes all
    # gates (the shipped table has (2,7)), with the divergence recorded.
    assert v.diagnostics["r_inert_in_K"] is False
    assert "r_inert_note" in v.diagnostics
    assert v.overall == PASS


def test_four_hypotheses_base_q():
    v = check_four_hypotheses(0, 11)
    assert v.overall == PASS
    assert v.condition("pi_r nonsquare mod P^(4e+1)").evidence["method"] == "galois-ring"
    # r = 7: hypotheses (i)-(iii) hold but the congruence pi_7 = nu^2 mod P^5
    # is solvable (signed norm -7 is a square residue), so (iv) fails.
    v = check_four_hypotheses(0, 7)
    assert [c.status for c in v.conditions] == [PASS, PASS, PASS, FAIL]
    assert v.condition("pi_r nonsquare mod P^(4e+1)").evidence["is_square"] is True
    v = check_four_hypotheses(0, 17)
    assert v.overall == FAIL
    assert v.condition("unique prime above 2 in K+").status == FAIL
    assert v.condition("pi_r nonsquare mod P^(4e+1)").status == UNDETERMINED


def test_four_hypotheses_quadratic():
    table = load_hplus_table()
    v = check_four_hypotheses(2, 5, table)
    assert v.overall == PASS
    cond = v.condition("pi_r nonsquare mod P^(4e+1)")
    assert cond.status == PASS and cond.evidence["method"] == "norm-residue"
    # literal hypothesis (i) fails for (2, 7): r splits in Q(sqrt(2)),
    # although the corollary form passes (recorded divergence).
    v = check_four_hypotheses(2, 7, table)
    assert v.condition("r inert in K").status == FAIL
    v = check_four_hypotheses(5, 5, table)
    assert v.condition("r inert in K").status == FAIL
    assert v.condition("pi_r nonsquare mod P^(4e+1)").status == UNDETERMINED


@pytest.mark.parametrize("d", [-5, 1, 12, 18])
@pytest.mark.parametrize("r", [5, 11])
def test_quadratic_checks_refuse_bad_d(d, r):
    with pytest.raises(ValueError):
        check_corollary_quad(d, r)
    with pytest.raises(ValueError):
        check_four_hypotheses(d, r)


def test_four_hypotheses_d_1_mod_8_gives_undetermined_iv():
    v = check_four_hypotheses(17, 5)
    assert v.condition("unique prime above 2 in K+").status == FAIL
    assert v.condition("pi_r nonsquare mod P^(4e+1)").status == UNDETERMINED


def test_cross_consistency_corollary_vs_theorem():
    # Whenever the corollary form passes, the literal hypotheses (i)-(iii)
    # pass too, and (iv) agrees with the direct Galois-ring decision: it
    # fails exactly when pi_r really is a square mod P^5 (r = 7 mod 8).
    for r in primes_upto(150):
        if r < 5:
            continue
        cor = check_corollary_Q(r)
        if cor.overall != PASS:
            continue
        strict = check_four_hypotheses(0, r)
        names = ["r inert in K", "unique prime above 2 in K+", "h+ parity"]
        assert all(strict.condition(n).status == PASS for n in names), r
        iv = strict.condition("pi_r nonsquare mod P^(4e+1)")
        expected_square = cor.diagnostics["pi_r_square_mod_P5"]
        assert iv.status == (FAIL if expected_square else PASS), r
        assert expected_square == (r % 8 == 7), r


def test_verdict_serialization_roundtrip():
    import json

    v = check_corollary_quad(2, 11)
    blob = json.dumps(v.to_dict())
    assert json.loads(blob) == v.to_dict()
    assert [c["name"] for c in v.to_dict()["conditions"]] == [
        "r does not divide d",
        "r mod 8",
        "unique prime above 2 in K+",
        "h+ parity",
    ]
