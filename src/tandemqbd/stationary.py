"""Stationary phase distribution of the arrival-free generator.

The phase marginal solves pi A = 0, pi e = 1 where A is the entrywise sum
of the level blocks (the arrival terms cancel between the diagonal blocks,
so they never appear). One equation of pi A = 0 is redundant; the one for
the highest-indexed phase is replaced by the normalization. The system is
factored by sparse LU (SuperLU, minimum-degree ordering) above
SPARSE_MIN_PHASES phases, and by dense LU with partial pivoting at or below
it, where SuperLU's fixed cost outweighs what it saves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .errors import NonPositiveSolutionError, SingularSystemError
from .generator import QbdBlocks

# residual bound relative to the largest |A| entry; worse means model bug
RESIDUAL_RTOL = 1e-10
# entries at or below this are treated as genuinely negative, not roundoff
NEGATIVE_ENTRY_TOL = -1e-9
# lines with more phases than this are solved by sparse LU
SPARSE_MIN_PHASES = 250


@dataclass(frozen=True)
class StationaryVector:
    """Solved phase distribution and the residual of the solve.

    ``pi`` sums to one; ``residual`` is the max-norm of pi A achieved by
    the returned (pre-clamping) solution.
    """

    pi: np.ndarray
    residual: float


def phase_generator(blocks: QbdBlocks) -> sparse.csr_matrix:
    """Sparse generator of the phase marginal: level_same + level_down."""
    return blocks.level_same + blocks.level_down


def solve_stationary(A: np.ndarray | sparse.spmatrix) -> StationaryVector:
    """Solve pi A = 0, pi e = 1 for an irreducible generator A.

    A may be dense or sparse; the phase count alone picks the factorization.
    Raises SingularSystemError when the factorization fails or the residual
    is not finite or exceeds RESIDUAL_RTOL relative to max|A| (rank
    deficiency beyond the expected one-dimensional null space), and
    NonPositiveSolutionError when the solution carries an entry below
    NEGATIVE_ENTRY_TOL (reducibility or numerical failure). Roundoff-scale
    negatives are clamped to zero and the vector renormalized.
    """
    shape = np.shape(A)
    n = shape[0]
    if shape != (n, n):
        raise ValueError("generator must be square")
    if n > SPARSE_MIN_PHASES:
        return _checked(*_solve_sparse(sparse.csr_matrix(A, dtype=float)))

    A = np.asarray(A.toarray() if sparse.issparse(A) else A, dtype=float)
    system = A.T.copy()
    system[-1, :] = 1.0  # replace the last phase's equation with pi e = 1
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        pi = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"stationary system is singular: {exc}") from exc

    scale = float(np.max(np.abs(A)))
    residual = float(np.max(np.abs(pi @ A)))
    return _checked(pi, residual, scale)


def _solve_sparse(A: sparse.csr_matrix) -> tuple[np.ndarray, float, float]:
    """The dense branch's system factored by SuperLU; (pi, residual, scale).

    Minimum-degree ordering on the pattern of system + system^T, with
    pivots kept on the diagonal where they are within a factor 10 of the
    column's largest, suits a generator whose pattern is near-symmetric.
    """
    n = A.shape[0]
    ones = sparse.csr_matrix(np.ones((1, n)))
    system = sparse.vstack([A.T.tocsr()[:-1], ones], format="csc")
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        lu = splu(
            system,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.1,
            options=dict(SymmetricMode=True),
        )
    except RuntimeError as exc:  # SuperLU reports an exactly zero pivot
        raise SingularSystemError(f"stationary system is singular: {exc}") from exc
    pi = lu.solve(rhs)
    scale = float(np.max(np.abs(A.data), initial=0.0))
    residual = float(np.max(np.abs(A.T @ pi)))
    return pi, residual, scale


def _checked(pi: np.ndarray, residual: float, scale: float) -> StationaryVector:
    """Gate a solution on its residual and sign, then clamp and renormalize."""
    if not math.isfinite(residual) or residual > RESIDUAL_RTOL * scale:
        raise SingularSystemError(
            f"stationary residual {residual:.3e} is not within {RESIDUAL_RTOL:.0e} "
            f"of max|A| = {scale:.3e}"
        )
    if np.min(pi) < NEGATIVE_ENTRY_TOL:
        raise NonPositiveSolutionError(
            f"stationary vector has entry {np.min(pi):.3e} < {NEGATIVE_ENTRY_TOL:.0e}"
        )
    pi = np.where(pi < 0.0, 0.0, pi)
    pi /= pi.sum()
    return StationaryVector(pi=pi, residual=residual)
