"""Workload inputs for the biplane-schemes benchmark.

Run as a script in a fresh interpreter, so that its wall time is the
benchmark's set-up time: starting Python, importing the package and
writing the workload's input files.

    PYTHONPATH=src python3 perfbench/inputs.py WORKLOAD SEED OUTDIR M

M sizes the large matrix doubled(M), which has v = 2M points.

The seed only relabels inputs whose verdict is invariant under
relabeling: the 12- and 16-point tables checked by `verify`, the
6-point relation table (a valid scheme under any labeling), and the
v=1000 matrix checked by `verify`. The b4c matrix stays canonical, and
the not-a-scheme relation tables keep their labeling, because the
witness the scheme check reports depends on it.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import sys

import numpy as np

from biplane_schemes import cli
from biplane_schemes.binmat import doubled, format_matrix
from biplane_schemes.fixtures import ASSOC_16, CORES_12, CORES_16, RELATION_6
from biplane_schemes.incidence import IncidenceStructure
from biplane_schemes.pbibd import classify
from biplane_schemes.scheme import format_relation

# verify tables, relabeled by the seed: file name -> matrix
VERIFY_TABLES = {
    **{f"core16_{i}": m for i, m in enumerate(CORES_16, start=1)},
    "core12_regular": CORES_12[0],
    "core12_boundary": CORES_12[1],
}
NOT_A_SCHEME_TABLES = ("relation16", "core16_rel1", "core16_rel2", "core16_rel3",
                       "core16_rel4")


def _perm(rng: random.Random, n: int) -> list[int]:
    p = list(range(n))
    rng.shuffle(p)
    return p


def _relabel_relation(rel: np.ndarray, perm: list[int]) -> np.ndarray:
    out = np.empty_like(rel)
    out[np.ix_(perm, perm)] = rel
    return out


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def pipeline_inputs(outdir: str, rng: random.Random) -> None:
    fixdir = os.path.join(outdir, "fixtures")
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["fixtures", "--out", fixdir])
    if rc != 0:
        raise RuntimeError(f"fixtures --out exited {rc}")
    for name, m in VERIFY_TABLES.items():
        p = _perm(rng, m.rows)
        _write(os.path.join(outdir, f"{name}.txt"), format_matrix(m.permute(p, p)))
    _write(os.path.join(outdir, "relation6.txt"),
           format_relation(_relabel_relation(RELATION_6, _perm(rng, 6))))
    relation16 = sum(h * a.to_numpy() for h, a in enumerate(ASSOC_16))
    _write(os.path.join(outdir, "relation16.txt"), format_relation(relation16))
    for i, core in enumerate(CORES_16, start=1):
        rel = classify(IncidenceStructure(core)).relation
        _write(os.path.join(outdir, f"core16_rel{i}.txt"), format_relation(rel))


def large_verify_inputs(outdir: str, rng: random.Random, m: int) -> None:
    d = doubled(m)
    relabeled = d.permute(_perm(rng, d.rows), _perm(rng, d.cols))
    _write(os.path.join(outdir, "large.txt"), format_matrix(relabeled))


def make_inputs(workload: str, seed: int, outdir: str, m: int) -> None:
    """Write the inputs of one workload; m sizes the large matrix."""
    rng = random.Random(seed)
    os.makedirs(outdir, exist_ok=True)
    # every workload's cold runs use the fixture files
    pipeline_inputs(outdir, rng)
    if workload == "large-structure":
        large_verify_inputs(outdir, rng, m)


if __name__ == "__main__":
    make_inputs(sys.argv[1], int(sys.argv[2]), sys.argv[3], int(sys.argv[4]))
