"""Fixed reference work, timed beside the program to cancel the host's speed.

The shared host this benchmark runs on changes speed by up to 1.7x, in
spells that last from seconds to several minutes, so the raw time of
a call mostly reads the host. Each run therefore also times a kernel
of its own in batches between calls, and divides each call's time by
the kernel's time in the batches just before and after it. The kernel
never calls the program, so a change to the program moves only the
numerator.

Cold CLI runs are likewise divided by the time of a fresh interpreter
that only imports numpy, which the CLI also imports at start-up.

The kernel mixes the kinds of work the program does: a backtracking
search in pure Python (like the biplane search), formatting and parsing
a 0/1 grid as text and JSON (like the CLI and binmat), and an int64
matrix product (like pbibd.concurrence).
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import numpy as np

GRID = [[(i * 7 + j * 3) % 2 for j in range(120)] for i in range(120)]
SQUARE = (np.arange(300 * 300).reshape(300, 300) % 3 == 0).astype(np.int64)
QUEENS = 8
QUEENS_SOLUTIONS = 92


def queens(n: int) -> int:
    """Number of ways to place n non-attacking queens on an n x n board."""
    count = 0

    def place(row: int, cols: set, up: set, down: set) -> None:
        nonlocal count
        if row == n:
            count += 1
            return
        for c in range(n):
            if c not in cols and row + c not in up and row - c not in down:
                cols.add(c)
                up.add(row + c)
                down.add(row - c)
                place(row + 1, cols, up, down)
                cols.remove(c)
                up.remove(row + c)
                down.remove(row - c)

    place(0, set(), set(), set())
    return count


def kernel() -> float:
    """Seconds one pass of the reference work takes; raises if it computes wrongly."""
    start = time.perf_counter()
    solutions = queens(QUEENS)
    text = "\n".join(" ".join(str(x) for x in row) for row in GRID)
    rows = [[int(t) for t in line.split()] for line in text.splitlines()]
    rows = json.loads(json.dumps({"rows": rows}))["rows"]
    product = SQUARE @ SQUARE.T
    elapsed = time.perf_counter() - start
    if solutions != QUEENS_SOLUTIONS or rows != GRID or int(product[0, 0]) != 100:
        raise RuntimeError("the reference kernel computed a wrong answer")
    return elapsed


def cold_start() -> float:
    """Seconds a fresh interpreter takes to start and import numpy."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, capture_output=True,
                   timeout=120)
    return time.perf_counter() - start
