"""The dense reward matrix of the mt game, kept as the test oracle for the
reduced game that rankarg.semantics builds.  It allocates 2^(n-1) x 2^n
floats several times over, so use it for n <= 8 only."""

import numpy as np

from rankarg.framework import ArgFramework


def mt_reward_matrix(framework: ArgFramework, name: str):
    """Reward matrix of the proponent/opponent subset game for one argument.

    Rows: subsets containing the argument.  Columns: all subsets.  Reward is
    0 for internally conflicting proponent sets, 1 when the opponent lands no
    attack, otherwise the acceptability degree built from attack counts.

    Vectorised:  #attacks(X -> Y) = sum over i in X of popcount(out[i] & Y)
    decomposes into an indicator-times-contribution matrix product.
    """
    framework._require(name)
    args = sorted(framework.arguments)
    n = len(args)
    idx = {a: i for i, a in enumerate(args)}
    out_bits = np.zeros(n, dtype=np.int64)
    for src, dst in framework.attacks:
        out_bits[idx[src]] |= 1 << idx[dst]

    full = 1 << n
    masks = np.arange(full, dtype=np.int64)
    popcount = np.zeros(full, dtype=np.int64)
    for bit in range(n):
        popcount += (masks >> bit) & 1
    member_of = ((masks[:, None] >> np.arange(n)) & 1).astype(np.float64)  # (2^n, n)
    # hits[i, m] = popcount(out[i] & m): attacks argument i lands inside mask m
    hits = popcount[np.bitwise_and(out_bits[:, None], masks[None, :])].astype(np.float64)

    rows = masks[(masks >> idx[name]) & 1 == 1]
    row_members = member_of[rows]                      # (R, n)
    attacks_into_cols = row_members @ hits             # (R, 2^n): |O <- P|
    attacks_into_rows = (member_of @ hits[:, rows]).T  # (R, 2^n): |P <- O|
    conflict = (row_members * hits[:, rows].T).sum(axis=1) > 0

    f_out = attacks_into_cols / (attacks_into_cols + 1.0)
    f_in = attacks_into_rows / (attacks_into_rows + 1.0)
    matrix = 0.5 * (1.0 + f_out - f_in)
    matrix[attacks_into_rows == 0] = 1.0
    matrix[conflict, :] = 0.0
    return matrix
