"""Per-node views of a `Graph`'s edge set, for checks only."""

import numpy as np


def neighbors(g, i: int) -> list:
    return sorted({b for a, b in g.edges if a == i} | {a for a, b in g.edges if b == i})


def degree(g, i: int) -> int:
    return len(neighbors(g, i))


def adjacency(g) -> np.ndarray:
    a = np.zeros((g.n, g.n), dtype=bool)
    for i, j in g.edges:
        a[i, j] = a[j, i] = True
    return a
