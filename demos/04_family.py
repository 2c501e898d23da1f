"""
The doubled family: one 3-class design for every even size from 6 up
====================================================================

doubled(m) is the 2m by 2m block matrix [[I, L], [L, I]] where L is the
path-with-end-loops matrix. Every member is a symmetric PBIBD(3) with
concurrences (0, 1, 2) and class sizes (2m-5, 2, 2).
"""

from biplane_schemes import family_generate, format_matrix

# the smallest member, printed in full
matrix, info = family_generate(3)
print("doubled(3):")
print(format_matrix(matrix))

# a parameter sweep; the weighted concurrence sum is always 6 = r(k-1)
print(f"{'m':>3} {'v=b':>4} {'r=k':>4} {'lambda':>9} {'n':>12} {'sum':>4}")
for m in range(3, 21):
    _, info = family_generate(m)
    weighted = sum(n * l for n, l in zip(info["n"], info["lambda"]))
    print(
        f"{m:>3} {info['v']:>4} {info['r']:>4}"
        f" {str(tuple(info['lambda'])):>9} {str(tuple(info['n'])):>12}"
        f" {weighted:>4}"
    )
