"""
Exhaustive search for symmetric canonical biplane matrices
==========================================================

The search fixes the forced canonical head, keeps the diagonal all
ones, and places whole tail rows: the free ones of each tail row form a
2-factor on the labels outside its pair, so its candidates are those
2-factors. Each unplaced row keeps the candidates that agree with the
entries placed rows fixed by symmetry and meet every placed row exactly
twice, and the row keeping the fewest is placed next. Each filter is
exact, so the search needs no pruning rule, counts only the rows it
places (its nodes), and an exhausted run is a proof of nonexistence
for that block size.

Orders 2 and 3 (k = 4, 5) admit no such matrix. Order 4 (k = 6) has
exactly one, and it is the matrix assembled in demo 01.
"""

from biplane_schemes import (
    SearchConfig,
    assemble_b4c,
    format_matrix,
    search_symmetric_canonical,
)

for k in (3, 4, 5, 6, 7):
    outcome = search_symmetric_canonical(SearchConfig(k=k))
    print(
        f"k={k}: v={outcome.v}, solutions={len(outcome.solutions)},"
        f" exhausted={outcome.exhausted}, nodes={outcome.nodes_visited},"
        f" {outcome.elapsed_seconds:.3f}s"
    )

# the unique k = 6 solution is the biplane matrix itself, bit for bit
outcome = search_symmetric_canonical(SearchConfig(k=6))
solution = outcome.solutions[0]
print()
print("unique k=6 solution equals the assembled matrix:",
      solution == assemble_b4c())
print(format_matrix(solution))
