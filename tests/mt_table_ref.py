"""The game table of the mt semantics as it was first built, kept as the
test oracle for rankarg.semantics._mt_game_table: the per-set tables grow
by doubling, one argument at a time, the distinct signatures are taken
from the 2|A| counts, and the rewards are computed entry by entry on the
whole table.  Same inputs, same budget checks; it must give the same rows
and a bit-identical table.  The distinct rows come from np.unique, as they
first did."""

import numpy as np

from rankarg.framework import ArgFramework
from rankarg.semantics import _MT_LIVE_ARRAYS, _check_mt_budget


def mt_game_table(framework: ArgFramework) -> tuple[np.ndarray, np.ndarray]:
    """(rows, table): every conflict-free proponent set as a bit mask over
    sorted(arguments), and its reward against every opponent signature.

    The reward of proponent set P against opponent set O is 0 when P
    conflicts, 1 when O lands no attack on P, and otherwise
    (1 + f(|P -> O|) - f(|O -> P|)) / 2 with f(x) = x / (x + 1).  Both counts
    are sums over i in P of |out(i) & O| and |in(i) & O|, so O enters only
    through its signature of those 2|A| counts, and opponent sets with equal
    signatures give equal columns; the table keeps one column per distinct
    signature.  Conflicting sets are left out: their rows are zero, every
    other row is positive, and rewards lie in [0, 1], so those rows are
    weakly dominated and leave every game value unchanged.
    """
    names = sorted(framework.arguments)
    n = len(names)
    index = {a: i for i, a in enumerate(names)}
    _check_mt_budget("opponent pass", 24 * 2 * n << n)
    # Row j of incidence is what member j adds to a set's signature: 1 at
    # column i when j is in out(i), and at column n + i when j is in in(i).
    incidence = np.zeros((n, 2 * n), dtype=np.uint8)
    neighbours = [0] * n
    for a, b in framework.attacks:
        incidence[index[b], index[a]] = 1
        incidence[index[a], n + index[b]] = 1
        neighbours[index[a]] |= 1 << index[b]
        neighbours[index[b]] |= 1 << index[a]
    # Build both per-set tables by doubling: the sets whose highest member is
    # k are the sets below 2^k with k added.
    masks = np.arange(1 << n, dtype=np.int64)
    counts = np.zeros((1 << n, 2 * n), dtype=np.uint8)
    free = np.ones(1 << n, dtype=bool)
    for k in range(n):
        low, high = slice(0, 1 << k), slice(1 << k, 2 << k)
        counts[high] = counts[low] + incidence[k]
        self_attacking = neighbours[k] >> k & 1
        free[high] = False if self_attacking else free[low] & ((masks[low] & neighbours[k]) == 0)
    rows = masks[free][1:]  # the empty set holds no argument
    signatures = _distinct_rows(counts).T.astype(np.float64)  # (2n, S)
    del masks, counts, free
    _check_mt_budget(f"game table ({len(rows)} conflict-free sets x {signatures.shape[1]} signatures)",
                     8 * _MT_LIVE_ARRAYS * len(rows) * signatures.shape[1])

    members = ((rows[:, None] >> np.arange(n)) & 1).astype(np.float64)  # (R, n)
    into = members @ signatures[n:]  # |O -> P|
    table = members @ signatures[:n]  # |P -> O|
    unattacked = into == 0
    table /= table + 1.0
    into /= into + 1.0
    table += 1.0
    table -= into
    table *= 0.5
    table[unattacked] = 1.0
    return rows, table


def _distinct_rows(matrix: np.ndarray) -> np.ndarray:
    """The rows of ``matrix`` in order, each exact duplicate after the first
    dropped.  Rows are compared as bytes, which matches float equality on
    the game tables: their entries are finite and never -0.0."""
    matrix = np.ascontiguousarray(matrix)
    keys = matrix.view(np.dtype((np.void, matrix.shape[1] * matrix.itemsize))).ravel()
    first = np.unique(keys, return_index=True)[1]
    return matrix[np.sort(first)]
