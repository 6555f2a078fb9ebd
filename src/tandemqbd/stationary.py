"""Stationary phase distribution of the arrival-free generator.

The phase marginal solves pi A = 0, pi e = 1 where A is the entrywise sum
of the level blocks (the arrival terms cancel between the diagonal blocks,
so they never appear). One equation of pi A = 0 is redundant; the one for
the highest-indexed phase is replaced by the normalization. The shape of A
picks one of three solvers for that system:

- dense LU with partial pivoting at or below SPARSE_MIN_PHASES phases,
  where a sparse solver's fixed cost outweighs what it saves;
- restarted GMRES with a symmetric Gauss-Seidel preconditioner above
  ITERATIVE_MIN_PHASES phases when A has more than ITERATIVE_MIN_ROW_NNZ
  nonzeros per row on average: its memory is O(nnz), where the fill of a
  sparse LU grows fast with the number of servers. Lines of four or more
  servers usually qualify; a line of three or fewer never does, and
  neither does a longer line whose buffers are mostly zero;
- sparse LU (SuperLU, minimum-degree ordering) otherwise, on which the
  preconditioned GMRES converges slowly or not at all. Its fill can grow
  with the square of the phase count (on a line with one long buffer and
  the rest short), so it refuses lines above SPARSE_LU_MAX_PHASES phases
  unless the caller raises that cap.

Every solver's answer passes the same residual and sign gate.

scipy is imported inside the functions that use it, not here: scipy.sparse
and scipy.sparse.linalg take about 0.2 s to import, a simulation needs
neither, and a line at or below SPARSE_MIN_PHASES never needs the second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    NonPositiveSolutionError,
    NumericalError,
    SingularSystemError,
    StateSpaceTooLargeError,
)
from .generator import QbdBlocks

if TYPE_CHECKING:
    from scipy import sparse

# residual bound relative to the largest |A| entry; worse means model bug
RESIDUAL_RTOL = 1e-10
# entries at or below this are treated as genuinely negative, not roundoff
NEGATIVE_ENTRY_TOL = -1e-9
# lines with more phases than this are solved by sparse LU or GMRES
SPARSE_MIN_PHASES = 250
# GMRES takes lines above this many phases whose generator has more than
# ITERATIVE_MIN_ROW_NNZ nonzeros per row: a line of three or fewer servers
# has at most 4, lines of four or more servers above 2,000 phases usually
# 4.5-5.9, but [1]*4, B=[0,0,2000] (mostly zero buffers) has 3.75
ITERATIVE_MIN_PHASES = 2_000
ITERATIVE_MIN_ROW_NNZ = 4
# default cap of the sparse-LU tier, the phase cap that held before the
# GMRES tier. Its peak RSS reached 1.0 GB for [1,1], B=10000 (10,003
# phases, 830x fill) and 2.0 GB for B=14000, and [1]*4, B=[0,0,24000]
# (192,021 phases) was killed for lack of memory on a 7 GB host
SPARSE_LU_MAX_PHASES = 50_000
# GMRES stops at a residual of GMRES_RTOL relative to |rhs| = 1, or after
# GMRES_MAXITER restarts of GMRES_RESTART inner iterations each
GMRES_RTOL = 1e-14
GMRES_RESTART = 50
GMRES_MAXITER = 200


@dataclass(frozen=True)
class StationaryVector:
    """Solved phase distribution, the residual and the solver that ran.

    ``pi`` sums to one; ``residual`` is the max-norm of pi A achieved by
    the returned (pre-clamping) solution. ``solver`` is ``"dense-lu"``,
    ``"sparse-lu"`` or ``"gmres-sgs"``; ``iterations`` counts GMRES inner
    iterations and is 0 for LU.
    """

    pi: np.ndarray
    residual: float
    solver: str
    iterations: int


def phase_generator(blocks: QbdBlocks) -> sparse.csr_matrix:
    """Sparse generator of the phase marginal: level_same + level_down."""
    return blocks.level_same + blocks.level_down


def solve_stationary(
    A: np.ndarray | sparse.spmatrix, max_lu_phases: int = SPARSE_LU_MAX_PHASES
) -> StationaryVector:
    """Solve pi A = 0, pi e = 1 for an irreducible generator A.

    A may be dense or sparse; its phase count and nonzeros per row pick the
    solver (see the module docstring). Raises StateSpaceTooLargeError when
    sparse LU would take more than ``max_lu_phases`` phases;
    SingularSystemError when A has a non-finite entry, when a factorization
    fails, or when the residual is not finite or exceeds RESIDUAL_RTOL
    relative to max|A| (rank deficiency beyond the expected one-dimensional
    null space); NumericalError when GMRES does not converge; and
    NonPositiveSolutionError when the solution carries an entry below
    NEGATIVE_ENTRY_TOL (reducibility or numerical failure). Roundoff-scale
    negatives are clamped to zero and the vector renormalized.
    """
    from scipy import sparse

    shape = np.shape(A)
    n = shape[0]
    if shape != (n, n):
        raise ValueError("generator must be square")
    if n > SPARSE_MIN_PHASES:
        A = sparse.csr_matrix(A, dtype=float)
        _require_finite(A.data)
        if n > ITERATIVE_MIN_PHASES and A.nnz > ITERATIVE_MIN_ROW_NNZ * n:
            pi, iterations = _solve_gmres(A)
            solver = "gmres-sgs"
        elif n > max_lu_phases:
            raise StateSpaceTooLargeError(
                f"line has {n} phases, above the cap of {max_lu_phases} for sparse "
                "LU, whose fill can grow with the square of the phase count; raise "
                "max_phases (--max-states on the command line) to solve it"
            )
        else:
            pi, iterations = _solve_sparse(A), 0
            solver = "sparse-lu"
        scale = float(np.max(np.abs(A.data), initial=0.0))
        residual = float(np.max(np.abs(A.T @ pi)))
        return _checked(pi, residual, scale, solver, iterations)

    A = np.asarray(A.toarray() if sparse.issparse(A) else A, dtype=float)
    _require_finite(A)
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
    return _checked(pi, residual, scale, "dense-lu", 0)


def _require_finite(values: np.ndarray) -> None:
    """Refuse a generator with an inf or nan entry before any solver runs."""
    if not np.isfinite(values).all():
        raise SingularSystemError("generator has a non-finite entry")


def _normalised_system(A: sparse.csr_matrix) -> tuple[sparse.csr_matrix, np.ndarray]:
    """A^T with its last row replaced by ones, in CSR, and the rhs e_n."""
    from scipy import sparse

    n = A.shape[0]
    ones = sparse.csr_matrix(np.ones((1, n)))
    system = sparse.vstack([A.T.tocsr()[:-1], ones], format="csr")
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    return system, rhs


def _solve_sparse(A: sparse.csr_matrix) -> np.ndarray:
    """The dense branch's system factored by SuperLU.

    Minimum-degree ordering on the pattern of system + system^T, with
    pivots kept on the diagonal where they are within a factor 10 of the
    column's largest, suits a generator whose pattern is near-symmetric.
    """
    from scipy.sparse.linalg import splu

    system, rhs = _normalised_system(A)
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


def _triangle_solver(T: sparse.spmatrix):
    """Solve with a triangular matrix by a fill-free SuperLU factor.

    The natural ordering with diagonal pivots leaves a triangle as it is,
    so the factor holds the triangle's own entries and the solve runs in
    compiled code.
    """
    from scipy.sparse.linalg import splu

    try:
        return splu(
            T.tocsc(),
            permc_spec="NATURAL",
            diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True),
        ).solve
    except RuntimeError as exc:  # a zero on the diagonal
        raise SingularSystemError(f"stationary system is singular: {exc}") from exc


def _solve_gmres(A: sparse.csr_matrix) -> tuple[np.ndarray, int]:
    """The same system by restarted GMRES, preconditioned by one symmetric
    Gauss-Seidel sweep v -> (D+U)^-1 D (D+L)^-1 v; (pi, inner iterations).

    A is first divided by its largest |entry|, which leaves pi as it is and
    puts the rows of A^T on the scale of the row of ones, so GMRES_RTOL
    asks the same of every rate scale. Raises NumericalError when GMRES
    stops short of GMRES_RTOL; the last iterate is never returned.
    """
    from scipy import sparse
    from scipy.sparse.linalg import LinearOperator, gmres

    n = A.shape[0]
    system, rhs = _normalised_system(A / np.max(np.abs(A.data)))
    forward = _triangle_solver(sparse.tril(system))
    backward = _triangle_solver(sparse.triu(system))
    diagonal = system.diagonal()
    sgs = LinearOperator(
        (n, n), matvec=lambda v: backward(diagonal * forward(v)), dtype=float
    )
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    pi, info = gmres(
        system,
        rhs,
        x0=np.full(n, 1.0 / n),
        M=sgs,
        rtol=GMRES_RTOL,
        atol=0.0,
        restart=GMRES_RESTART,
        maxiter=GMRES_MAXITER,
        callback=count,
        callback_type="pr_norm",
    )
    if info != 0:
        reached = float(np.linalg.norm(rhs - system @ pi))
        raise NumericalError(
            f"GMRES did not converge: residual {reached:.3e} after {iterations} "
            f"inner iterations, wanted {GMRES_RTOL:.0e}"
        )
    return pi, iterations


def _checked(
    pi: np.ndarray, residual: float, scale: float, solver: str, iterations: int
) -> StationaryVector:
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
    return StationaryVector(pi=pi, residual=residual, solver=solver, iterations=iterations)
