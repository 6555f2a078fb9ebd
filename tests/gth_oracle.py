"""GTH elimination: the tests' subtraction-free reference on stiff lines.

Grassmann, Taksar & Heyman (Oper. Res. 33(5), 1985) eliminate the states
of a generator one at a time, the last first. Each pivot is the sum of the
state's rates to the states still left, and the diagonal is never read, so
no step subtracts and every entry of pi keeps a small relative error
however far apart the rates are. pi is built unnormalised from the first
state up, so it overflows when the stationary probabilities span more than
a double's range: use it only on lines pinned for the purpose, small
enough for a dense generator.
"""

from __future__ import annotations

import numpy as np


def gth(A) -> np.ndarray:
    """pi A = 0, pi e = 1 for an irreducible generator, by GTH elimination."""
    Q = np.array(A.toarray() if hasattr(A, "toarray") else A, dtype=float)
    n = len(Q)
    for k in range(n - 1, 0, -1):
        # the chain watched on states 0..k-1: k's rates out become detours
        Q[:k, :k] += np.outer(Q[:k, k], Q[k, :k] / Q[k, :k].sum())
    pi = np.ones(n)
    for k in range(1, n):
        pi[k] = pi[:k] @ Q[:k, k] / Q[k, :k].sum()
    return pi / pi.sum()
