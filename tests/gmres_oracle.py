"""scipy's restarted GMRES: the tests' reference for the package's own loop.

``tandemqbd.stationary._gmres`` keeps scipy's stopping rule and changes only
how the Arnoldi basis is orthogonalised and how the small Hessenberg
problem is solved. :func:`scipy_gmres` takes the same arguments and returns
the same pair, so a test can swap it in behind ``_solve_gmres`` and compare
the two on one system with one preconditioner.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from tandemqbd import NumericalError, stationary


def scipy_gmres(system, rhs, precondition) -> tuple[np.ndarray, int]:
    """scipy's gmres with the package's settings, from its default x0 of
    zero; (x, inner iterations)."""
    n = len(rhs)
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    x, info = gmres(
        system,
        rhs,
        M=LinearOperator((n, n), matvec=precondition, dtype=float),
        rtol=stationary.GMRES_RTOL,
        atol=0.0,
        restart=stationary.GMRES_RESTART,
        maxiter=stationary.GMRES_MAXITER,
        callback=count,
        callback_type="pr_norm",
    )
    if info != 0:
        raise NumericalError(f"scipy's gmres did not converge: info {info}")
    return x, iterations
