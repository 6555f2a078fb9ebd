"""Stationary solve: exactness, residuals, and the power-method oracle."""

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

from gmres_oracle import scipy_gmres
from tandemqbd import (
    NonPositiveSolutionError,
    NumericalError,
    SingularSystemError,
    StateSpaceTooLargeError,
    TandemConfig,
    build_blocks,
    enumerate_phases,
    lambda_max,
    phase_generator,
    solve_stationary,
    validate_config,
)
from tandemqbd import stationary
from tandemqbd.stationary import SPARSE_MIN_PHASES, _solve_gmres, _solve_sparse


def generator_for(rates, buffers):
    cfg = validate_config(rates, buffers)
    return phase_generator(build_blocks(cfg, enumerate_phases(cfg))).toarray()


def power_method_pi(A, tol=1e-13, max_iter=2_000_000):
    """Oracle: uniformize the generator and iterate the jump chain."""
    q = 1.01 * np.max(-np.diag(A))
    P = np.eye(len(A)) + A / q
    pi = np.full(len(A), 1.0 / len(A))
    for _ in range(max_iter):
        nxt = pi @ P
        nxt /= nxt.sum()
        if np.max(np.abs(nxt - pi)) < tol:
            return nxt
        pi = nxt
    raise AssertionError("power method did not converge")


def test_generator_rows_sum_to_zero():
    A = generator_for([0.8, 1.0, 1.0], [1, 1])
    np.testing.assert_allclose(A.sum(axis=1), 0.0, atol=1e-12)


def test_generator_is_entrywise_block_sum():
    # balanced two-server line: a birth-death generator with unit rates
    A = generator_for([1.0, 1.0], [2])
    want = np.zeros((5, 5))
    for j in range(4):
        want[j, j + 1] = want[j + 1, j] = 1.0
    want -= np.diag(want.sum(axis=1))
    np.testing.assert_allclose(A, want, atol=1e-15)


def test_generator_single_server_is_one_by_one_zero():
    # the sole empty phase gains and loses at the same rate
    A = generator_for([1.7], [])
    np.testing.assert_allclose(A, np.zeros((1, 1)), atol=1e-15)
    np.testing.assert_array_equal(solve_stationary(A).pi, [1.0])


def test_degenerate_single_phase():
    result = solve_stationary(np.zeros((1, 1)))
    np.testing.assert_array_equal(result.pi, [1.0])
    assert result.residual == 0.0


def test_two_state_symmetric():
    A = np.array([[-1.0, 1.0], [1.0, -1.0]])
    result = solve_stationary(A)
    np.testing.assert_allclose(result.pi, [0.5, 0.5], atol=1e-15)


def test_balanced_two_server_chain_is_uniform():
    A = generator_for([1.0, 1.0], [2])
    result = solve_stationary(A)
    np.testing.assert_allclose(result.pi, np.full(5, 0.2), atol=1e-14)


def test_unbalanced_two_server_chain_is_geometric():
    # birth-death detailed balance: weights are powers of the rate ratio
    A = generator_for([2.0, 1.0], [2])
    result = solve_stationary(A)
    want = np.array([1.0, 2.0, 4.0, 8.0, 16.0]) / 31.0
    np.testing.assert_allclose(result.pi, want, atol=1e-14)


CONFIGS = [
    ([1.0, 1.0], [2]),
    ([2.0, 0.5], [0]),
    ([0.8, 1.0, 1.0], [1, 1]),
    ([1.5, 0.7, 1.1, 0.9], [2, 0, 1]),
    ([0.8, 1.0, 1.0, 1.0, 1.0, 1.0], [1, 1, 1, 1, 1]),  # 780 phases
]
# 2,911 phases, well above SPARSE_MIN_PHASES; a seven-server line goes to GMRES
LARGE = ([1.25] + [1.0] * 6, [1] * 6)


@pytest.mark.parametrize("rates,buffers", CONFIGS + [LARGE])
def test_residual_bound(rates, buffers):
    A = generator_for(rates, buffers)
    result = solve_stationary(A)
    assert result.residual <= 1e-10 * np.max(np.abs(A))
    assert abs(result.pi.sum() - 1.0) <= 1e-12
    assert result.pi.min() >= 0.0


@pytest.mark.parametrize("scale", [10.0, 0.1, 1e6, 1e-6])
def test_scale_invariance(scale):
    # a dense-LU line and a GMRES line (whose stopping test is absolute)
    for rates, buffers in [([0.8, 1.0, 1.3], [1, 2]), LARGE]:
        base = solve_stationary(generator_for(rates, buffers)).pi
        scaled = solve_stationary(
            generator_for([scale * r for r in rates], buffers)
        ).pi
        np.testing.assert_allclose(scaled, base, atol=1e-12)


def test_sparse_lu_cap():
    # sparse LU refuses a line above its cap; GMRES and dense LU ignore it
    A = generator_for(*CONFIGS[-1])  # 780 phases, sparse LU
    with pytest.raises(StateSpaceTooLargeError, match="sparse LU"):
        solve_stationary(A, max_lu_phases=779)
    assert solve_stationary(A, max_lu_phases=780).solver == "sparse-lu"
    assert solve_stationary(generator_for(*LARGE), max_lu_phases=1).solver == "gmres-sgs"
    assert solve_stationary(generator_for(*CONFIGS[0]), max_lu_phases=1).solver == "dense-lu"


@pytest.mark.parametrize("rates,buffers", CONFIGS)
def test_agrees_with_power_method(rates, buffers):
    A = generator_for(rates, buffers)
    direct = solve_stationary(A).pi
    iterated = power_method_pi(A)
    np.testing.assert_allclose(direct, iterated, atol=1e-8)


def test_sparse_solve_matches_dense_lu():
    # the same normalised system, factored densely, folds to the same rate;
    # 780 phases on six servers lie between the dense and the GMRES tier
    cfg = validate_config([0.8] + [1.0] * 5, [1] * 5)
    blocks = build_blocks(cfg, enumerate_phases(cfg))
    A = phase_generator(blocks).toarray()
    assert len(A) > SPARSE_MIN_PHASES
    system = A.T.copy()
    system[-1, :] = 1.0
    rhs = np.zeros(len(A))
    rhs[-1] = 1.0
    pi = np.linalg.solve(system, rhs)
    dense = pi @ np.asarray(blocks.level_down.sum(axis=1)).ravel()
    report = lambda_max(cfg)
    assert report.solver == "sparse-lu"
    assert abs(report.lambda_max - dense) <= 1e-12


# on these lines a looser inner stop than scipy's left the rate about ten
# times further from LU, yet inside the 1e-12 relative they are held to
# here; test_gmres_matches_scipy is what tells the two stopping rules apart
STIFF = ([1e-3, 1.0, 1.0, 1e3, 1.0, 1.0, 1.0], [2] * 6)  # 12,649 phases
UNEVEN = ([3.0, 1.0, 2.0, 1.0, 3.0], [4, 0, 4, 0])  # 379 phases


@pytest.mark.parametrize(
    "rates,buffers",
    [
        LARGE,  # 2,911 phases
        ([1e-3, 1.0, 1.0, 1e3, 1.0, 1.0, 1.0], [1] * 6),  # 2,911, stiff
        ([1.0, 1000.0] * 3, [2] * 5),  # 2,640, stiff
        ([1.0] + [30.0] * 6, [1] * 6),  # 2,911
        STIFF,
        UNEVEN,
    ],
)
def test_gmres_matches_sparse_lu(rates, buffers):
    # both tiers on the same generator fold to the same rate
    cfg = validate_config(rates, buffers)
    blocks = build_blocks(cfg, enumerate_phases(cfg))
    A = phase_generator(blocks)
    down = np.asarray(blocks.level_down.sum(axis=1)).ravel()
    lu_rate = _solve_sparse(A) @ down
    it_pi, iterations = _solve_gmres(A)
    assert 0 < iterations < stationary.GMRES_RESTART * stationary.GMRES_MAXITER
    assert abs(lu_rate - it_pi @ down) <= 1e-10
    if (rates, buffers) in (STIFF, UNEVEN):
        assert abs(lu_rate - it_pi @ down) <= 1e-12 * lu_rate


@pytest.mark.parametrize(
    "rates,buffers",
    [
        LARGE,  # the four large benchmark lines: 2,911 phases
        ([0.9, 1.0, 1.1, 1.0, 1.0, 1.0, 1.0], [2, 0, 3, 1, 0, 2]),  # 3,833
        ([1.0, 1.0, 1.0, 1.0, 1.1, 1.0, 0.9], [2, 0, 1, 3, 0, 2]),  # 3,833
        ([1.0] * 10, [0] * 9),  # 6,765
        ([0.8] + [1.0] * 5, [1] * 5),  # 780, a grid line
    ],
)
def test_gmres_matches_scipy(rates, buffers, monkeypatch):
    # the package's loop and scipy's, on the same preconditioned system,
    # stop after the same number of iterations at the same vector
    cfg = validate_config(rates, buffers)
    A = phase_generator(build_blocks(cfg, enumerate_phases(cfg)))
    pi, iterations = _solve_gmres(A)
    monkeypatch.setattr(stationary, "_gmres", scipy_gmres)
    want, want_iterations = _solve_gmres(A)
    assert iterations == want_iterations
    np.testing.assert_allclose(pi, want, rtol=0.0, atol=1e-13)


def test_gmres_that_does_not_converge_raises(monkeypatch):
    # one cycle of five iterations cannot reach GMRES_RTOL; the run reports
    # how far it got, and its last iterate is dropped
    monkeypatch.setattr(stationary, "GMRES_RESTART", 5)
    monkeypatch.setattr(stationary, "GMRES_MAXITER", 1)
    A = generator_for(*LARGE)
    with pytest.raises(
        NumericalError,
        match=r"did not converge: residual \d\.\d{3}e[-+]\d+ after 5 inner iterations",
    ):
        solve_stationary(A)


def test_long_buffers_before_fast_servers():
    # 10,608 phases; the slow first server is the bottleneck, buffers ample
    report = lambda_max(validate_config([1.0, 30.0, 30.0], [100, 100]))
    assert report.num_phases == 10_608
    assert report.solver == "sparse-lu"  # GMRES converges poorly here
    assert np.isfinite(report.lambda_max)
    assert abs(report.lambda_max - 1.0) <= 1e-9


@pytest.mark.parametrize(
    "rates,buffers",
    [([1e308] * 3, [0, 0]), ([1e308] * 7, [1] * 6)],  # dense and GMRES branch
)
def test_non_finite_generator_is_singular(rates, buffers, monkeypatch):
    # the exit rates overflow to inf; the generator is refused before any
    # solver runs. validate_config refuses such rates, so the config is
    # built directly
    cfg = TandemConfig(tuple(rates), tuple(buffers))
    A = phase_generator(build_blocks(cfg, enumerate_phases(cfg)))

    def unreachable(*args, **kwargs):
        raise AssertionError("a solver ran on a non-finite generator")

    monkeypatch.setattr(stationary, "_gmres", unreachable)
    monkeypatch.setattr(sparse_linalg, "splu", unreachable)
    monkeypatch.setattr(np.linalg, "solve", unreachable)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(SingularSystemError):
            solve_stationary(A)


def test_all_zero_generator_is_singular():
    with pytest.raises(SingularSystemError):
        solve_stationary(np.zeros((2, 2)))


def test_disconnected_generator_is_singular():
    # two components -> two-dimensional null space
    A = np.zeros((4, 4))
    A[:2, :2] = [[-1.0, 1.0], [1.0, -1.0]]
    A[2:, 2:] = [[-2.0, 2.0], [2.0, -2.0]]
    with pytest.raises(SingularSystemError):
        solve_stationary(A)


def test_disconnected_sparse_generator_is_singular():
    # two rings, together above SPARSE_MIN_PHASES: the sparse branch runs
    h = SPARSE_MIN_PHASES // 2 + 1
    ring = sparse.eye(h, k=1) + sparse.eye(h, k=1 - h) - sparse.eye(h)
    A = sparse.block_diag([ring, 2.0 * ring], format="csr")
    with pytest.raises(SingularSystemError):
        solve_stationary(A)


def test_sign_indefinite_solution_is_rejected():
    # zero-row-sum matrix (not a rate matrix) whose unique normalized left
    # null vector has a clearly negative entry
    rng = np.random.default_rng(123)
    B = rng.normal(0.0, 1.0, (3, 3))
    A = B - np.diag(B.sum(axis=1))
    with pytest.raises(NonPositiveSolutionError):
        solve_stationary(A)
