"""Frozen expected values shared by the test modules.

H_MINUS was produced by the analytic-formula oracle in oracles.py
(h_minus_analytic) and cross-checked against the classical tables; the
tests both compare the implementation against these frozen numbers and
re-run the oracle live.
"""

import math

# Relative class numbers h_r^- for primes 5 <= r <= 60.
H_MINUS = {
    5: 1,
    7: 1,
    11: 1,
    13: 1,
    17: 1,
    19: 1,
    23: 3,
    29: 8,
    31: 9,
    37: 37,
    41: 121,
    43: 211,
    47: 695,
    53: 4889,
    59: 41241,
}

# Primes r <= 150 passing all three rational-base gates
# (r not 1 mod 8, 2 inert in Q+, h_r^- odd).
Q_LIST = [5, 7, 11, 13, 19, 23, 37, 47, 53, 59, 61, 67, 71, 79, 83,
          101, 103, 107, 131, 139, 149]

# Exclusions with the condition that rules each out.
FAIL_R_MOD_8 = [17, 41, 73, 89, 97, 113, 137]
FAIL_H_PARITY = [29]
FAIL_INERT = {31: [(5, 3)], 43: [(7, 3)]}

# Quadratic examples: (d, r) -> expected overall verdict of the corollary
# form with the shipped h+ table.
QUAD_PASS = [(2, 5), (2, 7), (2, 11), (2, 13), (5, 7), (5, 11)]


# The frey-desk inputs (r, x, y) of the benchmark: r <= 23, 1 <= x <= 5,
# -5 <= y <= 5, with y != 0, x + y != 0 and gcd(x, y) = 1; 259 in all.
FREY_DESK = [(r, x, y) for r in (5, 7, 11, 13, 17, 19, 23) for x in range(1, 6)
             for y in range(-5, 6) if y != 0 and x + y != 0 and math.gcd(x, y) == 1]
