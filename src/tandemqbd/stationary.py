"""Stationary phase distribution of the arrival-free generator.

The phase marginal solves pi A = 0, pi e = 1 where A is the entrywise sum
of the level blocks (the arrival terms cancel between the diagonal blocks,
so they never appear). The form of A, as :func:`phase_generator` makes
it, and the density of a sparse A pick one of two solvers:

- restarted GMRES with a symmetric Gauss-Seidel preconditioner when A is
  CSR with more than ITERATIVE_MIN_ROW_NNZ nonzeros per row on average,
  at any size: its memory is O(nnz), and on such lines, mostly of five or
  more servers, it is faster than eliminating A by levels (nearly twice
  as fast on the paper's 780-phase grid lines, about eighty times at
  6,765 phases). The system is renumbered into flow order (descending,
  the last station's coordinate most significant), which lines the
  Gauss-Seidel sweeps up with the flow of customers and about halves the
  iterations that the lexicographic order takes. The GMRES loop is this
  module's own, with scipy's stopping rule: scipy's loop spent about half
  of each solve in Python overhead;
- linear level reduction otherwise, of which one dense solve of the
  whole of A is the one-level case. A transition moves the number of
  customers downstream of the first station by at most one, so grouping
  the phases by that headcount makes A block tridiagonal: a
  level-dependent QBD inside the phase space. A dense A is one level. The
  blocks are eliminated from the lowest level up (Gaver, Jacobs &
  Latouche, Adv. Appl. Prob. 16, 1984), each Schur complement's diagonal
  rebuilt from its off-diagonal row sums (Grassmann, Taksar & Heyman,
  Oper. Res. 33(5), 1985). The top level is solved by the same step: one
  phase's share is fixed at 1 and the others follow from an M-matrix
  solve with a non-negative right-hand side, so no system carries a row
  of ones in place of an equation. Its memory is that of the stored
  multipliers, the sum of the products of neighbouring level sizes; no
  CSR generator is densified whole.

:func:`solve_stationary` takes A in the two forms that
:func:`phase_generator` makes, and refuses any other. A dense array, a
line of at most SPARSE_MIN_PHASES phases, is solved directly as one
level: the top level's step runs on A as it stands, max|A| is read from
A's largest and smallest entries and the residual is the product pi A, so
no n x n temporary is made. A CSR matrix, a larger line, comes with its
phases, which give the headcount levels and the flow order. It is read as
its entries, grouped by row: the choice of solver counts them, level
reduction scatters them into its levels, and the residual is summed from
them; GMRES alone takes A as a CSR matrix. Every answer passes the same
residual and sign gate.

scipy is imported inside the functions that use it, not here: scipy.sparse
and scipy.sparse.linalg take about 0.2 s to import. Level reduction needs
neither, so an analysis of a line of at most SPARSE_MIN_PHASES phases
loads no scipy at all; above that :func:`phase_generator` builds CSR, and
only GMRES loads scipy.sparse.linalg.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import NonPositiveSolutionError, NumericalError, SingularSystemError
from .generator import QbdBlocks

if TYPE_CHECKING:
    from scipy import sparse

# residual bound relative to the largest |A| entry; worse means model bug
RESIDUAL_RTOL = 1e-10
# entries at or below this are treated as genuinely negative, not roundoff
NEGATIVE_ENTRY_TOL = -1e-9
# phase_generator gives a line of at most this many phases as a dense
# array, which is one level, the whole generator, and never goes to GMRES
SPARSE_MIN_PHASES = 250
# GMRES takes the lines above SPARSE_MIN_PHASES, given as CSR, whose
# generator has more than this many nonzeros per row, level reduction the
# rest. A line of three or fewer servers has at most 4. Solve only, best
# of up to 20 on a 2-vCPU host, GMRES from zero: at or below 4.5 GMRES
# took 1.1-3.5 times as long as level reduction ([1]*4, B=[5,5,5]: 496
# phases, 4.30, 1.7 ms against 0.9 ms; [1]*5, B=[0,0,0,300]: 6,355
# phases, 4.19, 14 ms in 32 iterations against 11 ms). From 4.8 up GMRES
# took 0.01-0.66 of the time (1.7 ms against 3.1 ms on the 780-phase grid
# lines, 8.4 ms against 0.67 s at 6,765 phases); between 4.5 and 4.7 it
# took 0.7-2.8 times as long ([1]*7, B=0: 377 phases, 4.53, 0.9 ms
# against 1.1 ms; [1]*4, B=[5,5,100]: 6,481, 4.51, 40 ms in 95
# iterations, 414 from the uniform vector, against 14 ms)
ITERATIVE_MIN_ROW_NNZ = 4.5
# GMRES stops at a residual of GMRES_RTOL relative to |rhs| = 1, or after
# GMRES_MAXITER restarts of GMRES_RESTART inner iterations each
GMRES_RTOL = 1e-14
GMRES_RESTART = 50
GMRES_MAXITER = 200


@dataclass(frozen=True)
class StationaryVector:
    """Solved phase distribution, the residual and the solver that ran.

    ``pi`` sums to one; ``residual`` is the max-norm of pi A achieved by
    the returned (pre-clamping) solution. ``solver`` is ``"block-lu"``
    (level reduction, of which one dense solve of the whole generator is
    the one-level case) or ``"gmres-sgs"``;
    ``iterations`` counts GMRES inner iterations and is 0 for block-lu.
    """

    pi: np.ndarray
    residual: float
    solver: str
    iterations: int


def phase_generator(blocks: QbdBlocks) -> np.ndarray | sparse.csr_matrix:
    """Generator of the phase marginal, the entrywise sum level_same + level_down.

    At or below SPARSE_MIN_PHASES phases, the size at which the solver
    takes the whole generator as one dense level, it is a dense array,
    built by one ``bincount`` of the rate entries, so an entry that shares
    its place with the diagonal (the one completion of a one-server line)
    is summed with it. Above, it is canonical CSR built from the entries.
    """
    n = blocks.num_phases
    if n > SPARSE_MIN_PHASES:
        return blocks.csr()
    at = blocks.rows * n + blocks.cols
    return np.bincount(at, blocks.rates, minlength=n * n).reshape(n, n)


def solve_stationary(
    A: np.ndarray | sparse.csr_matrix, phases: np.ndarray | None = None
) -> StationaryVector:
    """Solve pi A = 0, pi e = 1 for an irreducible generator A.

    A comes in one of the two forms that :func:`phase_generator` makes,
    and its form picks the route. A dense ndarray is one level, solved
    whole. A CSR matrix comes with ``phases``, the (M, K) phase array that
    A's rows and columns follow: its entries, grouped by row, are counted
    to pick the solver (see the module docstring), the phases' headcounts
    are level reduction's levels, and their flow order is the order of
    GMRES's sweeps. pi comes back in A's order either way. Raises
    ValueError when A is neither form (a CSR matrix without its phases
    included), when A is not square, ``phases`` has not one row per phase,
    or a transition of A moves the level by more than one;
    SingularSystemError when A has a non-finite entry, when a
    factorization fails, when a level's share of pi is not positive and
    finite, or when the residual is not finite or exceeds RESIDUAL_RTOL
    relative to max|A| (rank deficiency beyond the expected
    one-dimensional null space); NumericalError when GMRES does not
    converge; and NonPositiveSolutionError when the solution carries an
    entry below NEGATIVE_ENTRY_TOL (reducibility or numerical failure).
    Roundoff-scale negatives are clamped to zero and the vector
    renormalized.
    """
    shape = np.shape(A)
    n = shape[0]
    if shape != (n, n):
        raise ValueError("generator must be square")
    if phases is not None and len(phases) != n:
        raise ValueError(f"{len(phases)} phases for a generator of {n}")
    if isinstance(A, np.ndarray):
        scale = _entry_scale(max(A.max(), -A.min()))
        pi, solver, iterations = _solve_top(A), "block-lu", 0
        residual = float(abs(pi @ A).max())
    elif getattr(A, "format", None) == "csr" and phases is not None:
        counts, cols, rates = np.diff(A.indptr), A.indices, A.data
        scale = _entry_scale(np.abs(rates).max(initial=0.0))
        if len(rates) > ITERATIVE_MIN_ROW_NNZ * n:
            order = np.lexsort(phases.T)[::-1]
            (pi, iterations), solver = _solve_gmres(A, order), "gmres-sgs"
        else:
            level = np.minimum(phases, phases.max(axis=0) - 1).sum(axis=1)
            levels = _reduce_levels(np.arange(n).repeat(counts), cols, rates, level)
            pi, solver, iterations = _solve_levels(*levels), "block-lu", 0
        flow = np.bincount(cols, pi.repeat(counts) * rates, minlength=n)
        residual = float(abs(flow).max())
    else:
        raise ValueError(
            "generator must be a dense ndarray, or a CSR matrix with its phases, "
            f"got {type(A).__name__}" + (" without phases" if phases is None else "")
        )
    if not math.isfinite(residual) or residual > RESIDUAL_RTOL * scale:
        raise SingularSystemError(
            f"stationary residual {residual:.3e} is not within {RESIDUAL_RTOL:.0e} "
            f"of max|A| = {scale:.3e}"
        )
    if pi.min() < NEGATIVE_ENTRY_TOL:
        raise NonPositiveSolutionError(
            f"stationary vector has entry {pi.min():.3e} < {NEGATIVE_ENTRY_TOL:.0e}"
        )
    pi = np.where(pi < 0.0, 0.0, pi)
    pi /= pi.sum()
    return StationaryVector(pi=pi, residual=residual, solver=solver, iterations=iterations)


def _entry_scale(largest: float) -> float:
    """max|A| as a float; SingularSystemError when it is not finite."""
    scale = float(largest)
    if not math.isfinite(scale):
        raise SingularSystemError("generator has a non-finite entry")
    return scale


def _solve_top(S: np.ndarray) -> np.ndarray:
    """The shares of the top level's phases, summing to one, from S, the
    level's block of the chain watched on that level alone (on a line of
    one level, A itself); S is read and never written.

    The share of S's last phase j is fixed at 1 and the others' are pi_o
    = S_jo (-S_oo)^-1, an M-matrix solve with a non-negative right-hand
    side. Where pi spans past a double's range those shares overflow
    against an unlikely j, or come back as a wrong multiple with a
    negative sum; then the likeliest phase found is rolled last and
    pinned instead, and the shares are rolled back ([1, 1e6], B=50
    overflows with its blocked phase pinned; no line of 4,000 stiff ones
    of at most 250 phases needed a second retry). Raises
    SingularSystemError when the solve is exactly singular or no phase
    gives a positive, finite sum.
    """
    rolled = 0  # S rolled this far
    for _ in range(len(S)):
        try:
            x = np.append(np.linalg.solve(S[:-1, :-1].T, -S[-1, :-1]), 1.0)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"stationary system is singular: {exc}") from exc
        mass = float(x.sum())
        if 0.0 < mass < math.inf:
            break
        # an overflow or a negative mass: the last phase is far less likely
        # than the likeliest found, which is rolled last to be pinned instead
        shift = len(S) - 1 - int(np.nan_to_num(abs(x)).argmax())
        S, rolled = np.roll(S, shift, (0, 1)), rolled + shift
    else:
        raise SingularSystemError(f"a level of the stationary vector has mass {mass:.3e}")
    return (np.roll(x, -rolled) if rolled else x) / mass


def _solve_levels(S: np.ndarray, multipliers: list[np.ndarray], order: np.ndarray) -> np.ndarray:
    """pi A = 0, pi e = 1 by linear level reduction, given S of the top
    level and the multipliers R_l of the levels below, reduced by
    :func:`_reduce_levels`, and ``order``, A's phases level by level; pi
    in A's order.

    The top level is solved by :func:`_solve_top`, the step that reduced
    the levels below. The rest is back-substituted, pi_l = pi_{l+1} R_l,
    each level normalised as it comes with its log scale carried along:
    the mass of a level can fall below the smallest double many levels
    down ([1]*4, B=[0,0,2000] gives NaN without it).

    Raises SingularSystemError when the top level's solve is exactly
    singular or a level's mass is not positive and finite.
    """
    parts, log_scales = [_solve_top(S)], [0.0]
    for R in reversed(multipliers):
        x = parts[-1] @ R
        mass = float(x.sum())
        if not 0.0 < mass < math.inf:
            raise SingularSystemError(f"a level of the stationary vector has mass {mass:.3e}")
        parts.append(x / mass)
        log_scales.append(log_scales[-1] + math.log(mass))
    top = max(log_scales)
    weights = [math.exp(s - top) for s in log_scales]
    total = sum(weights)
    pi = np.empty(len(order))
    pi[order] = np.concatenate([p * (w / total) for p, w in zip(parts[::-1], weights[::-1])])
    return pi


def _reduce_levels(
    rows: np.ndarray, cols: np.ndarray, rates: np.ndarray, level: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """The levels of the n x n generator A whose entries are (rows, cols,
    rates), a (row, col) pair given more than once counting as the sum,
    reduced from the bottom up: (S of the top level, the multipliers R_l
    from level 0 up, the phases' order level by level), the arguments of
    :func:`_solve_levels`.

    ``level`` holds each of the n phases' level, from 0 up. For
    :func:`solve_stationary` it is the phase's number of customers
    downstream of the first station, a blocking sentinel B_i + 2 counting
    as the B_i + 1 it holds. A completion moves one customer one station,
    perhaps into the downstream stations or out of the line, so it moves
    that headcount by at most one, and A is block tridiagonal in its
    levels. The cost is about the sum of the cubes of the level sizes.
    Each level's rows are scattered from the entries into one dense band,
    duplicates summed. Reducing from the bottom, S_0 = A_00, R_l =
    A_{l+1,l} (-S_l)^-1 and S_{l+1} = A_{l+1,l+1} + R_l A_{l,l+1}: S_l is
    the level-l block of the chain watched only on levels l and up, so
    S_l e + A_{l,l+1} e = 0. Its off-diagonal entries are sums of
    non-negative terms, and its diagonal is reset to minus their row sum
    and the row sum of A_{l,l+1} (the GTH rule), which keeps each row's
    balance free of cancellation.

    Raises ValueError when a transition of A moves the level by more than
    one, and SingularSystemError when a level's elimination is exactly
    singular.
    """
    n = len(level)
    if abs(level[cols] - level[rows]).max(initial=0) > 1:
        raise ValueError("a transition moves the level by more than one")
    # in level order, level l spans edges[l + 1] to edges[l + 2], its band edges[l] to edges[l + 3]
    sizes = np.bincount(level)
    edges = np.concatenate(([0, 0], np.add.accumulate(sizes), [n]))
    starts, first, widths = edges[1:-2], edges[:-3], edges[3:] - edges[:-3]
    order = level.argsort(kind="stable")  # level by level, A's order within
    rank = np.empty(n, dtype=np.intp)  # each phase's position in that order
    rank[order] = np.arange(n)
    offset = (rank - starts[level]) * widths[level] - first[level]
    row_level = level[rows]
    by_level = row_level.argsort(kind="stable")
    flat, rates = (offset[rows] + rank[cols])[by_level], rates[by_level]
    bounds = [0, *np.add.accumulate(np.bincount(row_level, minlength=len(sizes))).tolist()]
    sizes, widths, below = sizes.tolist(), widths.tolist(), (starts - first).tolist()

    def band(l: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(A_{l,l-1}, A_{l,l}, A_{l,l+1}) as views of one dense band."""
        at = slice(bounds[l], bounds[l + 1])
        s, w, b = sizes[l], widths[l], below[l]
        out = np.bincount(flat[at], rates[at], minlength=s * w).reshape(s, w)
        return out[:, :b], out[:, b : b + s], out[:, b + s :]

    (_, S, up), multipliers = band(0), []
    for l in range(1, len(sizes)):
        down, same, next_up = band(l)
        try:
            R = np.linalg.solve(-S.T, down.T).T
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(
                f"stationary system is singular at level {l - 1}: {exc}"
            ) from exc
        S, up = same + R @ up, next_up
        np.fill_diagonal(S, 0.0)
        np.fill_diagonal(S, -(S.sum(axis=1) + up.sum(axis=1)))
        multipliers.append(R)
    return S, multipliers, order


def _triangle_solver(T: sparse.spmatrix):
    """Solve with a triangular matrix by a fill-free SuperLU factor.

    The natural ordering with diagonal pivots leaves a triangle as it is,
    so the factor holds the triangle's own entries and the solve runs in
    compiled code. A panel of one column gives the same factor as the
    default of ten, two to three times faster and without a dense M x 10
    work panel: about 8 MB of transient workspace on each triangle at
    151,316 phases instead of 28 MB.
    """
    from scipy.sparse.linalg import splu

    try:
        return splu(
            T.tocsc(),
            permc_spec="NATURAL",
            diag_pivot_thresh=0.0,
            panel_size=1,
            options=dict(SymmetricMode=True),
        ).solve
    except RuntimeError as exc:  # a zero on the diagonal
        raise SingularSystemError(f"stationary system is singular: {exc}") from exc


def _solve_gmres(A: sparse.csr_matrix, order: np.ndarray) -> tuple[np.ndarray, int]:
    """The same system by restarted GMRES, preconditioned by one symmetric
    Gauss-Seidel sweep v -> (D+U)^-1 D (D+L)^-1 v; (pi, inner iterations).

    The system is renumbered so that phase order[k] is unknown k. For
    :func:`solve_stationary` that is the flow order of the (M, K) phase
    array, ``np.lexsort(phases.T)[::-1]``: descending, the last station's
    coordinate most significant. Customers move down the line, and
    Gauss-Seidel on a Markov chain converges in far fewer sweeps when its
    order follows the flow (Stewart, Introduction to the Numerical
    Solution of Markov Chains, 1994, ch. 3). The lexicographic order,
    ``np.arange(n)``, the first station most significant and ascending,
    runs against it: on the four benchmark lines of 2,911-6,765 phases it
    takes 39-51 inner iterations where the flow order takes 15-27, and 97
    where it takes 43 at 151,316 phases.

    The loop starts from zero, not from the uniform vector: where pi spans
    decades the uniform vector is off by orders of magnitude, its residual
    fills every balance equation, and GMRES spends iterations undoing it.
    From zero the residual is the row of ones alone, and one sweep of it
    already has pi's shape. On the four benchmark lines of 2,911-6,765
    phases the uniform vector took 26-33 inner iterations, and on lines
    with a long last buffer it exhausted GMRES_MAXITER where zero
    converges ([1]*6, B=[0,0,0,0,400]: 22,144 phases, 19 iterations).

    A is divided by its largest |entry|, which leaves pi as it is and puts
    the rows of A^T on the scale of the row of ones, so GMRES_RTOL asks
    the same of every rate scale. The two triangles of the sweep are
    factored once by SuperLU. The iteration is :func:`_gmres`, this
    module's own loop: scipy's spent as long in Python as in the
    triangular solves. pi comes back in A's order. Raises NumericalError
    when GMRES stops short of GMRES_RTOL; the last iterate is never
    returned.
    """
    n = A.shape[0]
    system, lower, upper = _permuted_system(A, order)
    forward, backward = _triangle_solver(lower), _triangle_solver(upper)
    del lower, upper  # SuperLU holds its own copies
    diagonal = system.diagonal()
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    x, iterations = _gmres(system, rhs, lambda v: backward(diagonal * forward(v)))
    pi = np.empty(n)
    pi[order] = x
    return pi, iterations


def _permuted_system(
    A: sparse.csr_matrix, order: np.ndarray
) -> tuple[sparse.csc_matrix, sparse.csc_matrix, sparse.csc_matrix]:
    """(system, lower, upper): the normalised system of A / max|A| with
    phase order[k] as unknown k, and its two triangles, all three in CSC.

    Column k of A^T is row order[k] of A, so A's rows taken in that order,
    with their column indices renumbered, are the system's columns. Their
    entries in the last equation give way to the ones of pi e = 1. Rows
    within a column stay unsorted: the product does not depend on their
    order, and SuperLU sorts the triangles it factors.
    """
    from scipy import sparse

    n = A.shape[0]
    rank = np.empty(n, dtype=A.indices.dtype)
    rank[order] = np.arange(n, dtype=rank.dtype)
    taken = A[order]
    rows = rank[taken.indices]
    values = taken.data * (1.0 / np.max(np.abs(A.data)))
    last = np.flatnonzero(rows == n - 1)  # at most one in a column
    indptr = taken.indptr - np.searchsorted(last, taken.indptr).astype(rank.dtype)
    del taken
    feet = indptr[1:]  # a one at the foot of every column
    rows = np.insert(np.delete(rows, last), feet, n - 1)
    values = np.insert(np.delete(values, last), feet, 1.0)
    indptr = indptr + np.arange(n + 1, dtype=rank.dtype)
    cols = np.repeat(np.arange(n, dtype=rank.dtype), np.diff(indptr))

    def triangle(keep: np.ndarray) -> sparse.csc_matrix:
        at = np.flatnonzero(keep)
        start = np.searchsorted(at, indptr).astype(rank.dtype)
        return sparse.csc_matrix((values[at], rows[at], start), shape=(n, n))

    lower, upper = triangle(rows >= cols), triangle(rows <= cols)
    return sparse.csc_matrix((values, rows, indptr), shape=(n, n)), lower, upper


def _gmres(system, rhs, precondition) -> tuple[np.ndarray, int]:
    """Left-preconditioned GMRES from x = 0, restarted every GMRES_RESTART
    iterations for at most GMRES_MAXITER cycles; (x, inner iterations).

    The stopping rule is scipy's (gmres, 1.12 and later, with x0 left at
    zero), kept exactly: the run ends when the true residual reaches
    GMRES_RTOL |rhs|, checked at the start and after each cycle, and a
    cycle ends when its rotated, preconditioned residual reaches ptol, a
    bound adapted after every cycle (scipy gh-8400). From zero the first
    residual is rhs itself, and its preconditioned vector both sets the
    first ptol and starts the first basis. Another inner stop changes the
    iteration count and the answer: one relative to each cycle's start
    took 82 iterations instead of 45 on [1.25]+[1]*6, B=1. What differs
    from scipy is the Python overhead: where its modified Gram-Schmidt
    makes one dot and one axpy per basis vector, Arnoldi here applies
    classical Gram-Schmidt twice, as two products with the whole basis,
    and the small Hessenberg problem is rotated and solved on Python
    floats, not through fancy indices. Raises NumericalError, naming the
    residual reached, if the run ends short of GMRES_RTOL.
    """
    eps = float(np.finfo(float).eps)
    n, restart = len(rhs), min(GMRES_RESTART, len(rhs))
    x = np.zeros(n)
    rnorm = bnorm = np.linalg.norm(rhs)
    atol = GMRES_RTOL * bnorm
    ptol_factor = 1.0
    v = precondition(rhs)  # the first residual, rhs - system @ 0, preconditioned
    ptol = np.linalg.norm(v) * min(ptol_factor, atol / bnorm)
    basis = np.empty((restart + 1, n))
    iterations = 0
    for _ in range(GMRES_MAXITER if rnorm > atol else 0):
        beta = np.linalg.norm(v)
        basis[0] = v * (1.0 / beta)
        g = [beta]  # beta e_1, rotated along with the Hessenberg columns
        triangle, rotations = [], []  # R by columns; Givens pairs (c, s)
        for j in range(restart):
            w = precondition(system @ basis[j])
            wnorm = np.linalg.norm(w)
            V = basis[: j + 1]
            h = V @ w
            w -= h @ V
            again = V @ w
            w -= again @ V
            h_next = np.linalg.norm(w)
            breakdown = h_next <= eps * wnorm  # x is exact in this Krylov space
            if not breakdown:
                basis[j + 1] = w * (1.0 / h_next)
            col = (h + again).tolist() + [0.0 if breakdown else float(h_next)]
            for k, (c, s) in enumerate(rotations):
                a, b = col[k], col[k + 1]
                col[k], col[k + 1] = c * a + s * b, c * b - s * a
            d = math.hypot(col[j], col[j + 1])
            c, s = (col[j] / d, col[j + 1] / d) if d else (1.0, 0.0)
            rotations.append((c, s))
            triangle.append(col[:j] + [d])
            g[j], g_next = c * g[j], -s * g[j]
            g.append(g_next)
            presid = abs(g_next)  # the rotated residual
            iterations += 1
            if presid <= ptol or breakdown:
                break
        y = g[: j + 1]  # back-substitution; a zero pivot zeroes its unknown
        for k in range(j, -1, -1):
            y[k] = y[k] / triangle[k][k] if triangle[k][k] else 0.0
            for i in range(k):
                y[i] -= y[k] * triangle[k][i]
        x = x + np.array(y) @ basis[: j + 1]
        r = rhs - system @ x
        rnorm = np.linalg.norm(r)
        if rnorm <= atol or breakdown:
            break
        if presid <= ptol:  # the cycle met ptol, the true residual did not
            ptol_factor = max(eps, 0.25 * ptol_factor)
        else:
            ptol_factor = min(1.0, 1.5 * ptol_factor)
        ptol = presid * min(ptol_factor, atol / rnorm)
        v = precondition(r)
    if rnorm > atol:
        raise NumericalError(
            f"GMRES did not converge: residual {rnorm:.3e} after {iterations} "
            f"inner iterations, wanted {GMRES_RTOL:.0e}"
        )
    return x, iterations
