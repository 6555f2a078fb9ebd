"""Sparse LU by SuperLU: the tests' reference for the level-reduction solver.

Until the level reduction replaced it, this was the package's solver for
lines above 250 phases with at most 4.5 nonzeros per row. It solves A^T
with its last equation replaced by the normalisation, a system that none
of the package's solvers now factors (level reduction pins one phase's
share instead, GMRES keeps the row of ones but iterates), so a test can
check both of them against an independent factorisation well above the
sizes where a dense solve is affordable.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from tandemqbd import SingularSystemError


def sparse_lu(A: sparse.csr_matrix) -> np.ndarray:
    """The one-level system, A^T with its last row replaced by ones,
    factored by SuperLU.

    Minimum-degree ordering on the pattern of system + system^T, with
    pivots kept on the diagonal where they are within a factor 10 of the
    column's largest, suits a generator whose pattern is near-symmetric.
    """
    n = A.shape[0]
    ones = sparse.csr_matrix(np.ones((1, n)))
    system = sparse.vstack([A.T.tocsr()[:-1], ones], format="csr")
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        lu = splu(
            system.tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.1,
            options=dict(SymmetricMode=True),
        )
    except RuntimeError as exc:  # SuperLU reports an exactly zero pivot
        raise SingularSystemError(f"stationary system is singular: {exc}") from exc
    return lu.solve(rhs)
