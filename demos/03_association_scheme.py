"""
Association schemes: where the 6-point core succeeds and the 16-point
tables fail
=====================================================================

A d-class association scheme partitions the off-diagonal pairs so that
the triple count p[h][i][j] depends only on the classes involved, never
on the particular pair. The 6-point core extracted from the biplane
passes all four axioms. The four 16-point tables are honest PBIBDs with
the same concurrence pattern, but their pair classification is not a
scheme, and this script prints the exact witness. Each table is the
core of the order-9 biplane b9e (k=11) under a stored permutation of
its labels 3..10, so extracting b9e itself reports "scheme": null too.
The one-line reason: A1 (concurrence-1 pairs) is four 4-cycles, so
A1^2 is 2 on the concurrence-0 pairs opposite in a 4-cycle and 0 on
the others. No 16-point table with class sizes (11, 2, 2) can be a
scheme at all (tests/test_scheme.py sweeps every cycle type).
"""

import numpy as np

from biplane_schemes import (
    CORES_16,
    NotASchemeError,
    assemble_b4c,
    bose_mesner_check,
    classify,
    extract_design,
    from_relation_matrix,
)

# -- the good case: 6 points ------------------------------------------------

scheme = extract_design(assemble_b4c()).scheme
print("6-point relation matrix:")
print(np.asarray(scheme.relation))
print("valencies n_i:", scheme.n)
print("tensor slice p[2]:")
print(scheme.p[2])
print("algebra checks:", bose_mesner_check(scheme))
print()

# closure means A_i A_j is an exact integer combination of the A_h.
# bose_mesner_check recomputes every product in float64, which is exact:
# each entry is a count of at most v terms 0 or 1.

# -- the bad case: 16 points ------------------------------------------------

for index, table in enumerate(CORES_16, start=1):
    c = classify(table)
    print(f"table {index}: lambda {c.lambdas}, class sizes {c.n}", end=", ")
    try:
        from_relation_matrix(c.relation)
        print("scheme: yes")
    except NotASchemeError as err:
        w = err.witness()
        print(
            "scheme: no, p[%d][%d][%d] is %d for pair %s but %d for pair %s"
            % (
                w["h"], w["i"], w["j"],
                w["count_a"], tuple(w["pair_a"]),
                w["count_b"], tuple(w["pair_b"]),
            )
        )
