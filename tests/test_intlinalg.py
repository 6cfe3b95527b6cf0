"""Property tests of the exact determinants against sympy."""

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rrpfermat.intlinalg import bareiss_det, gf2_det, gf2_solve

import oracles


@st.composite
def square_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    rows = draw(st.lists(st.lists(st.integers(-50, 50), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    # Zero the top of the first column often, so that Bareiss must swap rows
    # (or find the column empty).
    zeros = draw(st.integers(min_value=0, max_value=n))
    for i in range(zeros):
        rows[i][0] = 0
    return rows


@settings(max_examples=300, deadline=None, derandomize=True)
@given(square_matrices())
@example([[0, 1], [1, 0]])
@example([[0, 2, 3], [0, 5, 7], [4, 1, 1]])
@example([[0, 0], [0, 3]])
def test_bareiss_and_gf2_match_sympy(rows):
    expected = int(sp.Matrix(rows).det())
    assert bareiss_det(rows) == expected
    assert gf2_det(oracles.packed_mod2(rows)) == expected % 2


def test_gf2_det_rejects_non_square_rows():
    with pytest.raises(ValueError):
        gf2_det([0b100, 0b001])
    assert gf2_det([]) == 1


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 255), max_size=8), st.integers(0, 255))
@example([], 0)
@example([], 1)
@example([0b11, 0b01], 0b10)
@example([0b110, 0b011, 0b101], 0b111)
def test_gf2_solve_matches_brute_force(columns, target):
    def xor_of(mask):
        acc = 0
        for i, col in enumerate(columns):
            if mask >> i & 1:
                acc ^= col
        return acc

    reachable = any(xor_of(mask) == target for mask in range(1 << len(columns)))
    mask = gf2_solve(columns, target)
    if reachable:
        assert mask is not None and mask >> len(columns) == 0
        assert xor_of(mask) == target
    else:
        assert mask is None
