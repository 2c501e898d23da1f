"""
Pulling the 6-point design out of the biplane
=============================================

Inside any symmetric canonical biplane matrix with full trace, the
principal submatrix on rows and columns k+2 .. 3k-5 (1-based) has all
line sums 3 and classifies as a 3-class partially balanced design. At
k = 6 those are positions 8..13 and the core is 6 by 6.
"""

from biplane_schemes import (
    assemble_b4c,
    doubled,
    extract_design,
    format_matrix,
)

m = assemble_b4c()
report = extract_design(m)

print("extraction window (1-based):", [i + 1 for i in report.indices])
print("core:")
print(format_matrix(report.core))

# line sums are forced to 3 by a counting argument on the head rows
print("row sums   :", report.core.row_sums())
print("col sums   :", report.core.col_sums())
print("symmetric  :", report.core.is_symmetric())

# the classification splits the 15 point pairs into three concurrence
# classes: never together, once together, twice together
print("parameters :", report.pbibd["parameters"])
print("lambda     :", report.pbibd["lambda"])
print("class sizes:", report.pbibd["n"])

# the core is the doubled matrix [[I, L], [L, I]] up to permutation;
# the witness pair of permutations is part of the report
row_perm, col_perm = report.d_equivalence
print("doubled(3) witness rows:", row_perm)
print("doubled(3) witness cols:", col_perm)
print("witness checks:", report.core.permute(row_perm, col_perm) == doubled(3))
