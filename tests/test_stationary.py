"""Stationary solve: exactness, residuals, and the power-method oracle."""

import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

from gmres_oracle import scipy_gmres
from gth_oracle import gth
from lu_oracle import sparse_lu
from tandemqbd import (
    NonPositiveSolutionError,
    NumericalError,
    SingularSystemError,
    TandemConfig,
    build_blocks,
    closed_form_two_server,
    enumerate_phases,
    lambda_max,
    phase_generator,
    solve_stationary,
    validate_config,
)
from tandemqbd import stationary
from tandemqbd.stationary import SPARSE_MIN_PHASES, _reduce_levels, _solve_gmres, _solve_levels


def generator_and_phases(rates, buffers):
    """(phase_generator's A, the phase array), the arguments lambda_max
    hands solve_stationary."""
    cfg = validate_config(rates, buffers)
    space = enumerate_phases(cfg)
    return phase_generator(build_blocks(cfg, space)), space.phases


def dense(A):
    """A as a dense array; phase_generator gives one up to SPARSE_MIN_PHASES
    phases and CSR above."""
    return A if isinstance(A, np.ndarray) else A.toarray()


def generator_for(rates, buffers):
    """The phase generator as a dense array."""
    return dense(generator_and_phases(rates, buffers)[0])


def flow_order(phases):
    """The order of GMRES's sweeps in lambda_max."""
    return np.lexsort(phases.T)[::-1]


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
    ([0.8, 1.0, 1.0, 1.0, 1.0, 1.0], [1, 1, 1, 1, 1]),  # 780 phases, GMRES
]
# 2,911 phases, well above SPARSE_MIN_PHASES; a seven-server line goes to GMRES
LARGE = ([1.25] + [1.0] * 6, [1] * 6)
# 496 phases at 4.30 nonzeros per row: four servers, short buffers, level reduction
SPARSE = ([1.0] * 4, [5] * 3)


@pytest.mark.parametrize("rates,buffers", CONFIGS + [LARGE])
def test_residual_bound(rates, buffers):
    A, phases = generator_and_phases(rates, buffers)
    result = solve_stationary(A, phases=phases)
    assert result.residual <= 1e-10 * abs(A).max()
    assert abs(result.pi.sum() - 1.0) <= 1e-12
    assert result.pi.min() >= 0.0


@pytest.mark.parametrize("scale", [10.0, 0.1, 1e6, 1e-6])
def test_scale_invariance(scale):
    # a one-level line, a multi-level line and a GMRES line (whose stopping
    # test is absolute)
    for rates, buffers in [([0.8, 1.0, 1.3], [1, 2]), SPARSE, LARGE]:
        A, phases = generator_and_phases(rates, buffers)
        base = solve_stationary(A, phases=phases).pi
        A, phases = generator_and_phases([scale * r for r in rates], buffers)
        scaled = solve_stationary(A, phases=phases).pi
        np.testing.assert_allclose(scaled, base, atol=1e-12)


@pytest.mark.parametrize("rates,buffers", CONFIGS)
def test_agrees_with_power_method(rates, buffers):
    A, phases = generator_and_phases(rates, buffers)
    direct = solve_stationary(A, phases=phases).pi
    iterated = power_method_pi(dense(A))
    np.testing.assert_allclose(direct, iterated, atol=1e-8)


def test_sparse_solve_matches_dense_lu():
    # the same normalised system, factored densely, folds to the same rate
    # on both tiers above SPARSE_MIN_PHASES: 496 phases on four servers
    # (level reduction) and a 780-phase grid line on six (GMRES)
    for (rates, buffers), solver in [
        (SPARSE, "block-lu"),
        (([0.8] + [1.0] * 5, [1] * 5), "gmres-sgs"),
    ]:
        cfg = validate_config(rates, buffers)
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
        assert report.solver == solver
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
        ([1.0] * 7, [0] * 6),  # 377, the smallest GMRES line tried
        ([1.0] * 8, [0] * 7),  # 987
    ],
)
def test_gmres_matches_sparse_lu(rates, buffers):
    # GMRES and the SuperLU oracle on the same generator fold to the same
    # rate, with the sweeps in the flow order that lambda_max uses and in
    # A's own order
    cfg = validate_config(rates, buffers)
    space = enumerate_phases(cfg)
    blocks = build_blocks(cfg, space)
    A = phase_generator(blocks)
    down = np.asarray(blocks.level_down.sum(axis=1)).ravel()
    lu_rate = sparse_lu(A) @ down
    for order in (flow_order(space.phases), np.arange(len(space.phases))):
        it_pi, iterations = _solve_gmres(A, order)
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
    # end their first cycle after the same number of iterations and stop
    # at the same vector, in flow order and in A's own order. Their totals
    # agree too, save on a tie: both first-cycle residuals within 10% of
    # GMRES_RTOL, on opposite sides of it, where one loop stops and the
    # other runs a second cycle (the 3,833-phase line in flow order: 23
    # iterations to 1.081e-14 here, to 9.93e-15 in scipy, then 27 here)
    cfg = validate_config(rates, buffers)
    space = enumerate_phases(cfg)
    A = phase_generator(build_blocks(cfg, space))
    for order in (flow_order(space.phases), np.arange(len(space.phases))):
        pi, iterations = _solve_gmres(A, order)
        first, residual = first_cycle(stationary._gmres, A, order, monkeypatch)
        want_first, want_residual = first_cycle(scipy_gmres, A, order, monkeypatch)
        with monkeypatch.context() as m:
            m.setattr(stationary, "_gmres", scipy_gmres)
            want, want_iterations = _solve_gmres(A, order)
        assert first == want_first
        atol = stationary.GMRES_RTOL
        near = max(abs(residual - atol), abs(want_residual - atol)) <= 0.1 * atol
        straddle = (residual - atol) * (want_residual - atol) < 0
        assert iterations == want_iterations or (near and straddle)
        np.testing.assert_allclose(pi, want, rtol=0.0, atol=1e-13)


def first_cycle(loop, A, order, monkeypatch):
    """(inner iterations, true residual) at the end of the first cycle of
    ``loop``, a GMRES loop with _gmres's arguments, on the system that
    _solve_gmres makes of A in ``order``.

    From x = 0 neither loop multiplies by the system before its first
    cycle, so the cycle's products number its inner iterations and one
    more, the last the product with the cycle's iterate.
    """
    products, residuals = [], []

    class Counted:
        """The system, its products with vectors kept."""

        def __init__(self, system):
            self.system, self.shape, self.dtype = system, system.shape, system.dtype

        def matvec(self, v):
            products.append(self.system @ v)
            return products[-1]

        __matmul__ = matvec

    def one_cycle(system, rhs, precondition):
        try:
            loop(Counted(system), rhs, precondition)
        except NumericalError:  # the cycle stopped short of GMRES_RTOL
            pass
        residuals.append(float(np.linalg.norm(rhs - products[-1])))
        return np.zeros(len(rhs)), 0

    with monkeypatch.context() as m:
        m.setattr(stationary, "GMRES_MAXITER", 1)
        m.setattr(stationary, "_gmres", one_cycle)
        _solve_gmres(A, order)
    return len(products) - 1, residuals[0]


def test_gmres_returns_pi_in_phase_order():
    # the flow-ordered solve hands back pi indexed like the phase space
    cfg = validate_config(*LARGE)
    space = enumerate_phases(cfg)
    A = phase_generator(build_blocks(cfg, space))
    result = solve_stationary(A, phases=space.phases)
    assert result.solver == "gmres-sgs"
    lu = sparse_lu(A)
    np.testing.assert_allclose(result.pi, lu / lu.sum(), rtol=0.0, atol=1e-12)


def test_phases_must_match_the_generator():
    cfg = validate_config(*CONFIGS[0])
    space = enumerate_phases(cfg)
    A = phase_generator(build_blocks(cfg, space))
    with pytest.raises(ValueError, match="4 phases for a generator of 5"):
        solve_stationary(A, phases=space.phases[:-1])


def test_flow_order_iteration_ceiling():
    # 6,765 phases: 15 inner iterations in flow order, 40 in A's own order;
    # a solve that loses the flow order fails the floor, one that starts
    # from the uniform vector again (26) the ceiling
    cfg = validate_config([1.0] * 10, [0] * 9)
    report = lambda_max(cfg)
    assert report.solver == "gmres-sgs"
    assert report.iterations <= 20
    assert _solve_gmres(phase_generator(report.blocks), np.arange(report.num_phases))[1] > 35


def test_gmres_that_does_not_converge_raises(monkeypatch):
    # one cycle of five iterations cannot reach GMRES_RTOL; the run reports
    # how far it got, and its last iterate is dropped
    monkeypatch.setattr(stationary, "GMRES_RESTART", 5)
    monkeypatch.setattr(stationary, "GMRES_MAXITER", 1)
    A, phases = generator_and_phases(*LARGE)
    with pytest.raises(
        NumericalError,
        match=r"did not converge: residual \d\.\d{3}e[-+]\d+ after 5 inner iterations",
    ):
        solve_stationary(A, phases=phases)


def test_long_buffers_before_fast_servers():
    # 10,608 phases; the slow first server is the bottleneck, buffers ample
    report = lambda_max(validate_config([1.0, 30.0, 30.0], [100, 100]))
    assert report.num_phases == 10_608
    assert report.solver == "block-lu"  # GMRES converges poorly here
    assert np.isfinite(report.lambda_max)
    assert abs(report.lambda_max - 1.0) <= 1e-9


def test_long_last_buffer_decouples_the_last_server():
    # 6,355 phases at 4.19 nonzeros per row: level reduction solves it,
    # and a 300-slot last buffer leaves the first four servers to set the
    # rate, as a four-server zero-buffer line
    report = lambda_max(validate_config([1.0] * 5, [0, 0, 0, 300]))
    assert report.num_phases == 6_355
    assert report.solver == "block-lu"
    shorter = lambda_max(validate_config([1.0] * 4, [0, 0, 0]))
    assert abs(report.lambda_max - shorter.lambda_max) <= 1e-12


def test_long_last_buffer_by_gmres():
    # 22,144 phases above ITERATIVE_MIN_ROW_NNZ: GMRES from the uniform
    # vector ran out of cycles here (10,000 inner iterations), from zero it
    # takes 19; a 400-slot last buffer leaves the rate of [1]*5, B=0
    report = lambda_max(validate_config([1.0] * 6, [0, 0, 0, 0, 400]))
    assert report.num_phases == 22_144
    assert report.solver == "gmres-sgs"
    shorter = lambda_max(validate_config([1.0] * 5, [0, 0, 0, 0]))
    assert abs(report.lambda_max - shorter.lambda_max) <= 1e-12


@pytest.mark.parametrize(
    "rates,buffers",
    [
        ([1.0] * 4, [1, 1, 200]),  # 3,041 phases, 4.06 nonzeros per row
        ([1.0] * 5, [0, 0, 0, 30]),  # 685
        ([1.0] * 5, [0, 0, 0, 100]),  # 2,155
        ([1.0] * 5, [0, 0, 0, 300]),  # 6,355
        ([1.0] * 4, [2, 2, 300]),  # 7,267
        UNEVEN,  # 379
        SPARSE,  # 496
        ([1.0] * 4, [3, 3, 50]),  # 1,849
        ([1.0] * 4, [6] * 3),  # 711
        ([1.0] * 4, [8] * 3),  # 1,309, 4.48 nonzeros per row
        ([1.0] * 5, [0, 5, 0, 50]),  # 3,475, 4.49
        # a slow last server: with one station's coordinate as the level,
        # cancellation left a level of these with negative mass
        ([1.0, 1.0, 0.1], [50, 50]),  # 2,808
        ([1.0, 1.0, 1e-3], [20, 20]),  # 528
        ([1e-3, 1e-3, 1e-6], [50, 50]),  # 2,808
    ],
)
def test_levels_match_lu_oracle(rates, buffers):
    # level reduction and SuperLU fold to the same rate on the lines that
    # the density rule keeps from GMRES
    cfg = validate_config(rates, buffers)
    space = enumerate_phases(cfg)
    blocks = build_blocks(cfg, space)
    A = phase_generator(blocks)
    assert A.nnz <= stationary.ITERATIVE_MIN_ROW_NNZ * A.shape[0]
    down = np.asarray(blocks.level_down.sum(axis=1)).ravel()
    lu_rate = sparse_lu(A) @ down
    result = solve_stationary(A, phases=space.phases)
    assert result.solver == "block-lu"
    assert abs(result.pi @ down - lu_rate) <= 1e-12 * lu_rate


# each of these lost its answer when a step of the level reduction was
# left out: without the GTH diagonal the solve raised or drifted, without
# the rescaling of each level the vector overflowed to NaN
def rate(rates, buffers):
    return lambda_max(validate_config(rates, buffers)).lambda_max


def test_levels_stiff_two_server_line():
    # 3,003 levels of one phase; the rate ratio 1e-3 makes pi geometric
    got = rate([1e-3, 1.0], [3000])
    want = closed_form_two_server(1e-3, 1.0, 3000)
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize(
    "rates,buffers", [([1e-3, 1e3, 1.0], [2, 3000]), ([1.0, 1e3, 1e-3], [3000, 2])]
)
def test_levels_stiff_three_server_line(rates, buffers):
    # the slow server is the bottleneck and the long buffer keeps it busy
    assert abs(rate(rates, buffers) - 1e-3) <= 1e-12 * 1e-3


def test_levels_long_last_buffer():
    # 16,021 phases; the 2,000-slot last buffer decouples the last server,
    # and the mass of the levels spans far more than a double's range
    assert abs(rate([1.0] * 4, [0, 0, 2000]) - rate([1.0] * 3, [0, 0])) <= 1e-12


def test_levels_long_buffer_reversal():
    # 15,008 phases, the long buffer first or last
    assert abs(rate([1.0] * 3, [0, 5000]) - rate([1.0] * 3, [5000, 0])) <= 1e-12


@pytest.mark.parametrize(
    "rates,buffers,num_phases",
    [
        ([1.5314603117327834e-06, 0.06434238954645739, 250.36188433577004, 607313.637727663],
         [2, 0, 3], 79),
        ([0.0003926248954085768, 47.95471986564687, 0.001772867672267385, 524.2966051333192,
          42297.615275756936], [0, 0, 0, 3], 118),
        ([1.2147045521836355e-06, 0.0004960843181690926, 631.952398796647, 35204.82516656103],
         [3, 0, 10], 215),
    ],
)
def test_one_level_stiff_lines_match_gth(rates, buffers, num_phases):
    # at or below SPARSE_MIN_PHASES the whole generator is one level: on
    # these stiff lines that is within 5e-16 of GTH, where the headcount
    # levels leave a level of pi with negative mass and raise
    cfg = validate_config(rates, buffers)
    blocks = build_blocks(cfg, enumerate_phases(cfg))
    down = np.asarray(blocks.level_down.sum(axis=1)).ravel()
    want = gth(phase_generator(blocks)) @ down
    report = lambda_max(cfg)
    assert report.num_phases == num_phases <= SPARSE_MIN_PHASES
    assert report.solver == "block-lu"
    assert abs(report.lambda_max - want) <= 1e-12 * want


@pytest.mark.parametrize(
    "rates,buffers",
    [
        ([1.0, 1e-9], [50]),
        ([0.9183959987893575, 7.709616084063756e-12], [50]),
        ([0.8916916828499185, 5.788554154048015e-08, 1.7309159953030457], [1, 0]),
    ],
)
def test_stiff_top_level_matches_its_reference(rates, buffers):
    # rates 9 to 11 decades apart on one level, the whole generator: a row
    # of ones in place of one equation mixes those scales and misses these
    # references by 3.0e-7, 6.1e-5 and 1.3e-9; the pinned M-matrix solve
    # stays within an ulp or two
    cfg = validate_config(rates, buffers)
    if len(rates) == 2:
        want = closed_form_two_server(*rates, *buffers)
    else:
        blocks = build_blocks(cfg, enumerate_phases(cfg))
        down = np.asarray(blocks.level_down.sum(axis=1)).ravel()
        want = gth(phase_generator(blocks)) @ down
        assert want == 5.7885541540480086e-08
    assert abs(rate(rates, buffers) - want) <= 1e-13 * want


def test_top_level_pins_its_likeliest_phase_above_other_levels():
    # a birth-death chain of 340 phases in levels of 99 consecutive phases,
    # the bandwidth that one edge of negligible rate gives it, so the top
    # level holds phases 297-339. pi rises tenfold a phase up to phase 300
    # and falls 1e10-fold a phase after it: pinned, the top level's last
    # phase leaves the others' shares past the largest double, so phase 300
    # is pinned instead, and the levels below must follow the top level's
    # own order
    n, peak = 340, 300
    up = np.where(np.arange(n - 1) < peak, 10.0, 1.0)  # rate of k -> k + 1
    down = np.where(np.arange(1, n) <= peak, 1.0, 1e10)  # rate of k + 1 -> k
    A = sparse.diags([down, up], [-1, 1], format="lil")
    A[0, 99] = 1e-300
    A = sparse.csr_matrix(A - sparse.diags(np.asarray(A.sum(axis=1)).ravel()))
    log_pi = np.concatenate([[0.0], np.cumsum(np.log10(up / down))])
    want = 10.0 ** (log_pi - log_pi.max())
    want /= want.sum()
    coo = A.tocoo()
    pi = _solve_levels(*_reduce_levels(coo.row, coo.col, coo.data, np.arange(n) // 99))
    assert want[-1] == 0.0 and pi[-1] == 0.0  # about 10^-390 of phase 300's share
    seen = want > 1e-300
    np.testing.assert_allclose(pi[seen], want[seen], rtol=1e-12, atol=0.0)


def test_one_level_solve_allocates_no_square_array():
    # 209 phases: the generator is 349,448 bytes; reading it as a list of
    # entries peaked at 51,193, the direct solve at 5,360 when measured
    A = generator_for([1.0] * 5, [1] * 4)
    assert A.shape == (209, 209)
    solve_stationary(A)
    tracemalloc.start()
    try:
        solve_stationary(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5_900


def test_one_input_form():
    # a dense A is solved as it stands, and left as it was
    A = generator_for([0.8, 1.0, 1.3], [1, 2])
    before = A.copy()
    solve_stationary(A)
    np.testing.assert_array_equal(A, before)


@pytest.mark.parametrize(
    "form,with_phases",
    [
        (sparse.csc_matrix, True),
        (sparse.coo_matrix, True),
        (lambda A: A.toarray().tolist(), True),
        (sparse.csr_matrix, False),
    ],
    ids=["csc", "coo", "list", "csr-without-phases"],
)
def test_other_forms_are_refused(form, with_phases):
    # a dense ndarray, or CSR with its phases: phase_generator makes no other
    A, phases = generator_and_phases(*SPARSE)
    with pytest.raises(ValueError, match="a dense ndarray, or a CSR matrix with its phases"):
        solve_stationary(form(A), phases=phases if with_phases else None)


@pytest.mark.parametrize(
    "rates,buffers",
    [([1e308] * 3, [0, 0]), ([1e308] * 7, [1] * 6)],  # one level and GMRES
)
def test_non_finite_generator_is_singular(rates, buffers, monkeypatch):
    # the exit rates overflow to inf; the generator is refused before any
    # solver runs. validate_config refuses such rates, so the config is
    # built directly
    cfg = TandemConfig(tuple(rates), tuple(buffers))
    space = enumerate_phases(cfg)
    A = phase_generator(build_blocks(cfg, space))

    def unreachable(*args, **kwargs):
        raise AssertionError("a solver ran on a non-finite generator")

    monkeypatch.setattr(stationary, "_gmres", unreachable)
    monkeypatch.setattr(sparse_linalg, "splu", unreachable)
    monkeypatch.setattr(np.linalg, "solve", unreachable)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(SingularSystemError):
            solve_stationary(A, phases=space.phases)


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
    # two rings, together above SPARSE_MIN_PHASES, in levels of 125 phases
    h = SPARSE_MIN_PHASES // 2 + 1
    ring = sparse.eye(h, k=1) + sparse.eye(h, k=1 - h) - sparse.eye(h)
    A = sparse.block_diag([ring, 2.0 * ring], format="csr")
    with pytest.raises(SingularSystemError):
        solve_stationary(A, phases=(np.arange(2 * h) // 125)[:, None])


@pytest.mark.parametrize(
    "cut_up,match",
    [(True, "singular at level 149"), (False, "has mass 0")],
    ids=["two-closed-classes", "transient-levels"],
)
def test_reducible_multi_level_generator_is_singular(cut_up, match):
    # one phase per level, the chain cut between levels 149 and 150: an
    # exactly singular elimination or a level without mass is refused as
    # singular, not left to numpy or math.log
    n = SPARSE_MIN_PHASES + 50
    up, down = np.ones(n - 1), np.ones(n - 1)
    down[149] = 0.0
    if cut_up:
        up[149] = 0.0
    A = sparse.diags([down, up], [-1, 1], format="csr")  # a birth-death chain
    A = A - sparse.diags(np.asarray(A.sum(axis=1)).ravel())
    with pytest.raises(SingularSystemError, match=match):
        solve_stationary(A, phases=np.arange(n)[:, None])


def test_sign_indefinite_solution_is_rejected():
    # zero-row-sum matrix (not a rate matrix) whose unique normalized left
    # null vector has a clearly negative entry
    rng = np.random.default_rng(123)
    B = rng.normal(0.0, 1.0, (3, 3))
    A = B - np.diag(B.sum(axis=1))
    with pytest.raises(NonPositiveSolutionError):
        solve_stationary(A)
