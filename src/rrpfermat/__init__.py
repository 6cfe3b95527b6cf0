"""Exact-arithmetic criteria checker for x^r + y^r = z^p over Q and real
quadratic fields.

Everything here is computed over the integers (or explicit residue rings);
there is no floating point anywhere on a decision path.  Importing the
package loads no submodule: library callers import what they use from the
modules themselves (`from rrpfermat.criteria import check_corollary_Q`,
`from rrpfermat.cycfield import build_field`), and each CLI subcommand loads
only the modules it runs.  The modules are:

    numutil      primes, the r <= MAX_R bound, small integer helpers
    intlinalg    exact integer and GF(2) linear algebra, resultants
    cycfield     exact arithmetic in Q(zeta_r + 1/zeta_r)
    ffpoly       GF(2)[x] and GF(2^f), distinct-degree factorization
    galoisring   GR(2^n, f) and the exact 2-adic unit square root
    splitting    decomposition of 2 and r in Q+ and in Q(sqrt(d), theta)
    classnumber  Maillet-determinant h^- parity, external h+ table
    frey         the curve Y^2 = X(X-A)(X+B), invariants, coprimality, conductor
    descent      norm-residue obstructions to pi_r being a square
    criteria     tri-state verdict engine and range scans
    errors       the package's exception types
    cli          command-line front end
"""

__version__ = "0.1.0"
