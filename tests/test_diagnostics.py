"""Equilibrium verification tools."""

import math
import warnings

import numpy as np
import pytest

import gnepsolve as G
from gnepsolve.core import BlockLayout, GameInstance, IterateState, PlayerDualState, PlayerProblem, SimpleSet, initial_state
from gnepsolve.lagrangian import PenaltyParams
from gnepsolve import diagnostics
from gnepsolve.diagnostics import (
    best_response_gap,
    diagnose,
    kkt_residual,
    projected_gradient_blocks,
    saddle_check,
    solve_best_response,
)
from gnepsolve import library
from conftest import ad_start, dense_objective, fast_config


def quadratic_single(minimizer):
    n = len(minimizer)
    m0 = np.asarray(minimizer, dtype=float)
    return GameInstance((PlayerProblem(
        objective=lambda x: float((x - m0) @ (x - m0)),
        gradient=lambda x: 2.0 * (x - m0),
        constraints=lambda x: np.zeros(0),
        constraint_jacobian=lambda x: np.zeros((0, n)),
        private_set=SimpleSet.free(n), m=0,
    ),), BlockLayout((n,)), "single-quadratic")


# ---------------------------------------------------------------------------
# KKT residuals
# ---------------------------------------------------------------------------


def test_kkt_zero_at_unconstrained_minimizer():
    game = quadratic_single([1.0, -2.0])
    triple = kkt_residual(game, np.array([1.0, -2.0]), [np.zeros(0)])[0]
    assert triple == (0.0, 0.0, 0.0)


def test_kkt_small_at_tight_solution(ex3_game, ex3_tight):
    triples = kkt_residual(ex3_game, ex3_tight.state.x,
                           [d.lam for d in ex3_tight.state.duals])
    for stat, comp, feas in triples:
        assert stat <= 1e-3 and comp <= 1e-3 and feas <= 1e-3


def test_kkt_feasibility_reports_violation():
    layout = BlockLayout((1,))
    p = PlayerProblem(
        objective=lambda x: 0.0, gradient=lambda x: np.zeros(1),
        constraints=lambda x: np.array([0.5]),
        constraint_jacobian=lambda x: np.zeros((1, 1)),
        private_set=SimpleSet.free(1), m=1)
    game = GameInstance((p,), layout, "infeasible")
    stat, comp, feas = kkt_residual(game, np.zeros(1), [np.zeros(1)])[0]
    assert feas == pytest.approx(0.5)
    assert comp == 0.0


# ---------------------------------------------------------------------------
# best-response gap
# ---------------------------------------------------------------------------


def test_gap_equals_suboptimality_for_single_player():
    game = quadratic_single([0.0, 0.0])
    x = np.array([0.5, 0.5])
    gap = best_response_gap(game, x, 0)
    assert gap == pytest.approx(0.5, abs=1e-8)


def test_constructed_profitable_deviation_reports_half():
    # player 0 sits at sqrt(0.5) away from its optimum: gap 0.5; the rival is
    # at its optimum: gap 0
    layout = BlockLayout((1, 1))
    players = []
    for i in range(2):
        def obj(x, i=i):
            return float(x[i] ** 2)

        def grad(x, i=i):
            g = np.zeros(2)
            g[i] = 2.0 * x[i]
            return g
        players.append(PlayerProblem(
            objective=obj, gradient=grad,
            constraints=lambda x: np.zeros(0),
            constraint_jacobian=lambda x: np.zeros((0, 2)),
            private_set=SimpleSet.free(1), m=0))
    game = GameInstance(tuple(players), layout, "axis-split")
    x = np.array([math.sqrt(0.5), 0.0])
    assert best_response_gap(game, x, 0) == pytest.approx(0.5, abs=1e-8)
    assert best_response_gap(game, x, 1) == pytest.approx(0.0, abs=1e-10)


def _br_bits(info):
    return (info.block.tobytes(), info.multipliers.tobytes(),
            np.float64(info.objective).tobytes(), np.array(info.kkt).tobytes(),
            info.iterations, info.certified)


def _one_qp(game, x, i):
    """A strictly convex quadratic player's rivals-fixed QP, built from its
    oracles and solved once by the dual active-set method: the exact best
    response, projected and certified as :func:`solve_best_response` does."""
    p = game.players[i]
    sl = game.layout.block_slice(i)
    base = np.array(x, dtype=float, copy=True)
    own = base[sl]
    H = dense_objective(game.quadratic, i)[sl, sl]
    q = p.gradient(base)[sl] - H @ own
    g = p.constraints(base)
    relax = np.maximum(g, 0.0)
    J = p.constraint_jacobian(base)[:, sl]
    eye = np.eye(p.private_set.dim)
    rows = np.vstack([J, -eye, eye])
    rhs = np.concatenate([relax - g + J @ own, -p.private_set.lower, p.private_set.upper])
    u, lam, changes = diagnostics._dual_active_set(np.linalg.cholesky(H), q, rows, rhs)
    u = p.private_set.project(u)
    base[sl] = u
    mu = lam[:p.m]
    triple = diagnostics._single_kkt(game, i, base, mu, relax)
    return diagnostics.BestResponseInfo(u, float(p.objective(base)), mu, triple, changes,
                                        max(triple) <= 1e-8, relax)


def _sampled_deviations_never_win(game, x, i, info, rng, samples=200):
    """Points of the private set near the best response (and on the segment
    back to the queried block) that satisfy the relaxed constraints never
    beat its objective by more than 1e-9; returns how many were feasible."""
    p = game.players[i]
    sl = game.layout.block_slice(i)
    dev = np.array(x, dtype=float, copy=True)
    feasible = 0
    for k in range(samples):
        if k % 4 == 3:
            u = info.block + rng.uniform() * (x[sl] - info.block)
        else:
            scale = 10.0 ** rng.integers(-4, 1)
            u = p.private_set.project(info.block + scale * rng.standard_normal(info.block.shape))
        dev[sl] = u
        if p.m and np.any(p.constraints(dev) - info.relaxation > 0.0):
            continue
        feasible += 1
        assert p.objective(dev) >= info.objective - 1e-9
    return feasible


def test_best_responses_certify_and_no_sampled_deviation_beats_them(quad_suite):
    # every quad-suite player is strictly convex with affine constraints on a
    # box, so one QP step is the exact best response; plant + 3 violates
    # constraints, so relax > 0 there
    rng = np.random.default_rng(0)
    relaxed = feasible = 0
    for game, plant, res in quad_suite:
        for x in (res.state.x, plant + 3.0):
            for i in range(game.num_players):
                info = solve_best_response(game, x, i)
                assert info.certified and info.iterations <= 10
                assert _br_bits(info) == _br_bits(_one_qp(game, x, i))
                base = x.copy()
                base[game.layout.block_slice(i)] = info.block
                assert max(diagnostics._single_kkt(game, i, base, info.multipliers,
                                                   info.relaxation)) <= 1e-8
                relaxed += bool(np.any(info.relaxation > 0.0))
                feasible += _sampled_deviations_never_win(game, x, i, info, rng)
    assert relaxed > 0 and feasible > 1000


def test_every_player_of_the_library_games_certifies(ex3_game, a18_game, ad_game):
    # quadratic constraints (example3), a singular own block (a18), curved
    # budgets and balls and a simplex (Arrow-Debreu), non-quadratic (power)
    power = library.builtin_instance("power")
    for game in (ex3_game, a18_game, ad_game, power):
        x = game.project_private(np.full(game.n, 0.5))
        for i in range(game.num_players):
            info = solve_best_response(game, x, i)
            assert info.certified and max(info.kkt) <= 1e-8, (game.name, i)


@pytest.mark.parametrize("value", [0.0, 0.5, 20.0])
def test_a18_best_responses_certify_from_any_start(a18_game, value):
    # a18's own blocks are singular: proximal steps on the QP certify both
    # players, without warnings, from the origin as from the other starts
    x = np.full(a18_game.n, value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        infos = [solve_best_response(a18_game, x, i) for i in range(2)]
    rng = np.random.default_rng(1)
    for i, info in enumerate(infos):
        assert info.certified and max(info.kkt) <= 1e-8
        assert info.objective <= a18_game.players[i].objective(x) + 1e-9
        assert _sampled_deviations_never_win(a18_game, x, i, info, rng) > 0
    # the two companies are symmetric, and so is the origin
    if value == 0.0:
        assert infos[0].objective == pytest.approx(infos[1].objective, rel=1e-12)


def _ball_game(D, m0, stacked):
    """One player minimizing (u - m)'D(u - m) over the nonnegative unit
    ball, with stacked quadratic data or with oracles only."""
    ball = SimpleSet.ball(2, 1.0)
    if stacked:
        # (u - m)'D(u - m) less its constant m'Dm
        return library.QuadraticGnepSpec(BlockLayout((2,)), [library.QuadraticPlayerSpec(
            2.0 * D, -2.0 * D @ m0, ball)], "ball-quadratic").to_game()
    return GameInstance((PlayerProblem(
        objective=lambda x: float((x - m0) @ D @ (x - m0)),
        gradient=lambda x: 2.0 * D @ (x - m0),
        constraints=lambda x: np.zeros(0),
        constraint_jacobian=lambda x: np.zeros((0, 2)),
        private_set=ball, m=0,
    ),), BlockLayout((2,)), "ball-quadratic")


@pytest.mark.parametrize("stacked", [True, False])
@pytest.mark.parametrize("target", [(2.0, 1.0), (3.0, -1.0)])
def test_best_response_on_a_ball_is_the_projection(stacked, target):
    # min (u - m)'(u - m) over the nonnegative unit ball with m outside it:
    # the best response is the projection of m, with the stacked Hessian or
    # the finite-difference one
    m0 = np.array(target)
    info = solve_best_response(_ball_game(np.eye(2), m0, stacked), np.zeros(2), 0)
    assert info.certified
    np.testing.assert_allclose(info.block, SimpleSet.ball(2, 1.0).project(m0), atol=1e-10)


@pytest.mark.parametrize("stacked", [True, False])
def test_best_response_on_a_ball_with_an_anisotropic_objective(stacked):
    # here the projection of the unconstrained minimizer is not the answer:
    # the linearised ball row and its curvature carry the steps to the
    # boundary point that no point of a fine grid on the arc beats
    D, m0 = np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([3.0, 2.0])
    info = solve_best_response(_ball_game(D, m0, stacked), np.zeros(2), 0)
    assert info.certified
    assert np.linalg.norm(info.block) == pytest.approx(1.0, abs=1e-12)
    t = np.linspace(0.0, 0.5 * np.pi, 20001)
    arc = np.stack([np.cos(t), np.sin(t)], axis=1) - m0
    value = (info.block - m0) @ D @ (info.block - m0)
    assert value <= np.min(np.einsum("ki,ij,kj->k", arc, D, arc)) + 1e-12


def test_best_response_takes_its_curvature_from_a_curved_constraint():
    # a linear objective on the unit disk, as a quadratic coupling row: the
    # model Hessian's only curvature is mu_j A_j[sl, sl]; with it the steps
    # reach the boundary point along -b, without it they end uncertified
    box = SimpleSet.box(np.full(2, -10.0), np.full(2, 10.0))
    game = library.QuadraticGnepSpec(BlockLayout((2,)), [library.QuadraticPlayerSpec(
        np.zeros((2, 2)), np.array([-1.0, -2.0]), box, [(2.0 * np.eye(2), np.zeros(2), -1.0)])],
        "disk-linear").to_game()
    assert list(game.quadratic.hessians) == [0]
    info = solve_best_response(game, np.zeros(2), 0)
    assert info.certified
    np.testing.assert_allclose(info.block, np.array([1.0, 2.0]) / math.sqrt(5.0), atol=1e-10)


def test_market_player_simplex_rows_certify(ad_game, monkeypatch):
    # the simplex's sum(u) = 1 is two rows, each dependent on the other: the
    # active-set loop must end certified, not in its dependent-row exit
    results = []
    solve_qp = diagnostics._dual_active_set

    def recording(*args):
        results.append(solve_qp(*args))
        return results[-1]

    monkeypatch.setattr(diagnostics, "_dual_active_set", recording)
    market = ad_game.num_players - 1
    for x in (ad_game.project_private(np.full(ad_game.n, 0.5)), ad_start(ad_game)):
        results.clear()
        info = solve_best_response(ad_game, x, market)
        assert info.certified and results and all(r is not None for r in results)
        assert info.block.sum() == pytest.approx(1.0, abs=1e-12) and np.all(info.block >= 0.0)


def test_exact_best_response_on_nonneg_and_free_sets():
    # min (u - m)'(u - m) on the orthant and on R^2 under u0 + u1 <= 1
    m0 = np.array([2.0, 0.0])
    for pset, want in ((SimpleSet.nonneg(2), [1.0, 0.0]), (SimpleSet.free(2), [1.5, -0.5])):
        # (u - m)'(u - m) less its constant m'm
        game = library.QuadraticGnepSpec(BlockLayout((2,)), [library.QuadraticPlayerSpec(
            2.0 * np.eye(2), -2.0 * m0, pset, [(np.zeros((2, 2)), np.ones(2), -1.0)])],
            "orthant-quadratic").to_game()
        info = solve_best_response(game, np.zeros(2), 0)
        assert info.certified
        np.testing.assert_allclose(info.block, want, atol=1e-14)
        assert info.multipliers[0] > 0.0


def test_gap_nonnegative_at_equilibrium(quad_suite):
    game, _, res = quad_suite[5]
    for i in range(game.num_players):
        gap = best_response_gap(game, res.state.x, i)
        assert gap >= -1e-8
        assert gap <= 1e-3


# ---------------------------------------------------------------------------
# saddle sampling
# ---------------------------------------------------------------------------


def test_saddle_no_violations_at_tight_solution(ex3_game, ex3_tight):
    pen = PenaltyParams()
    assert saddle_check(ex3_game, ex3_tight.state, pen, samples=1000, seed=0) == 0


def test_saddle_detects_perturbed_multiplier(ex3_game, ex3_tight):
    pen = PenaltyParams()
    bad = ex3_tight.state.copy()
    # push the active-constraint multiplier up by one: the dual side of the
    # saddle inequality must now fail for samples near the true multiplier
    bad.duals[0].lam += 1.0
    bad.duals[0].mu += 1.0
    assert saddle_check(ex3_game, bad, pen, samples=500, seed=1) > 0


def test_saddle_z_deviation_never_violates_dual_side(ex3_game, ex3_tight):
    # with lam == mu the perturbation terms are alpha/2 ||z||^2 >= 0, so pure
    # z-deviations cannot drop below the center value
    pen = PenaltyParams()
    state = ex3_tight.state
    rng = np.random.default_rng(2)
    for i, p in enumerate(ex3_game.players):
        d = state.duals[i]
        theta = p.objective(state.x)
        g = p.constraints(state.x)
        center = theta + float(d.lam @ (g - d.z)) + float(d.mu @ d.z) \
            + 5.0 * float(d.z @ d.z) - 0.5 * float((d.lam - d.mu) @ (d.lam - d.mu))
        for _ in range(200):
            z = d.z + rng.standard_normal(p.m)
            val = theta + float(d.lam @ (g - z)) + float(d.mu @ z) + 5.0 * float(z @ z)
            assert val >= center - 1e-9


# ---------------------------------------------------------------------------
# projected gradient blocks
# ---------------------------------------------------------------------------


def test_projected_gradient_blocks_vanish_after_dual_steps(ex3_runs, ex3_game):
    pen = PenaltyParams()
    for res in ex3_runs.values():
        blocks = projected_gradient_blocks(ex3_game, res.state, pen)
        for b in blocks:
            assert b["qz"] == 0.0
            assert b["qmu"] == 0.0


def test_projected_gradient_positive_away_from_solution(ex3_game):
    pen = PenaltyParams()
    state = initial_state(ex3_game, np.array([2.5, 2.5]))
    state.duals[0].lam[:] = 0.7
    state.duals[0].mu[:] = 0.2
    state.duals[1].z[:] = 0.3
    assert diagnose(ex3_game, state, pen, with_best_response=False).projected_gradient_total > 0.1


def test_diagnose_report_round_trip(ex3_game, ex3_tight):
    pen = PenaltyParams()
    rep = diagnose(ex3_game, ex3_tight.state, pen)
    d = rep.as_dict()
    assert saddle_check(ex3_game, ex3_tight.state, pen, samples=100) == 0
    assert max(d["stationarity"]) <= 1e-3
    assert rep.worst() <= 1e-3
