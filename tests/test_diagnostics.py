"""Equilibrium verification tools."""

import math
import warnings

import numpy as np
import pytest

import gnepsolve as G
from gnepsolve.core import BlockLayout, GameInstance, IterateState, PlayerDualState, PlayerProblem, SimpleSet, initial_state
from gnepsolve.lagrangian import PenaltyParams
from gnepsolve.diagnostics import (
    best_response_gap,
    diagnose,
    kkt_residual,
    projected_gradient_blocks,
    projected_gradient_norm,
    saddle_check,
    solve_best_response,
    _exact_best_response,
    _penalty_best_response,
)
from gnepsolve import library
from conftest import fast_config


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


def test_best_response_constant_jacobian_path_is_bit_identical():
    # the penalty routine builds an affine player's own-block Jacobian once
    # per call; the same players without the stacked quadratic data take the
    # per-call Jacobian path instead
    game, plant = library.gen_random_quadratic_with_plant(2, 3, 2, seed=101)
    per_call = GameInstance(game.players, game.layout, game.name)
    relaxed = False
    for player in range(game.num_players):
        assert game.constant_jacobian(player) and not per_call.constant_jacobian(player)
        for x in (plant, plant + 3.0):
            info = _penalty_best_response(game, x, player)
            assert info.certified
            relaxed |= bool(np.any(info.relaxation > 0.0))
            assert _br_bits(info) == _br_bits(_penalty_best_response(per_call, x, player))
    assert relaxed   # the shifted point violates a constraint: relax > 0


@pytest.mark.parametrize("player", [0, 1])
def test_penalty_best_response_stops_where_its_iterates_diverge(player):
    # a18's own blocks are singular, so its players take the penalty routine;
    # from x = 0.5 the polish's fixed steps diverge for player 1 within 2,000
    # iterations. No overflow warning escapes, and the best finite iterate
    # comes back, uncertified
    game = library.make_a18_electricity()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        info = _penalty_best_response(game, np.full(12, 0.5), player, budget=2_000)
    assert not info.certified
    assert info.iterations <= 2_000
    assert np.all(np.isfinite(info.block)) and np.all(np.isfinite(info.multipliers))
    assert math.isfinite(info.objective) and all(math.isfinite(v) for v in info.kkt)


def test_exact_and_penalty_best_responses_agree(quad_suite):
    # every quad-suite player is strictly convex with affine constraints on a
    # box; plant + 3 violates constraints, so relax > 0 there
    relaxed = exact_only = 0
    for game, plant, res in quad_suite:
        for shifted, x in ((False, res.state.x), (True, plant + 3.0)):
            for i in range(game.num_players):
                exact = solve_best_response(game, x, i)
                assert exact.certified and exact.iterations <= 10
                assert _br_bits(exact) == _br_bits(_exact_best_response(game, x, i, 1e-8))
                relaxed += bool(np.any(exact.relaxation > 0.0))
                penalty = _penalty_best_response(game, x, i)
                assert penalty.iterations <= 400_000   # the default budget
                if (game.name, i, shifted) == ("randquad-2x3x2-s109", 0, True):
                    # the penalty routine runs out its budget with comp just
                    # above 1e-8; the exact solve certifies
                    assert not penalty.certified and penalty.iterations >= 400_000
                    assert max(exact.kkt) <= 1e-12
                    exact_only += 1
                    continue
                assert penalty.certified
                assert exact.objective == pytest.approx(penalty.objective, abs=1e-7)
                np.testing.assert_allclose(exact.block, penalty.block, atol=1e-5)
    assert relaxed > 0 and exact_only == 1


def test_players_outside_the_qp_class_take_the_penalty_path(ex3_game, a18_game, ad_game):
    # quadratic constraints (example3), a singular own block (a18), curved
    # budgets, balls and a simplex (Arrow-Debreu), non-quadratic (power)
    # at this point a18's penalty iterates can overflow; only the agreement
    # of the two calls is tested here
    power = library.builtin_instance("power")
    for game in (ex3_game, a18_game, ad_game, power):
        x = game.project_private(np.full(game.n, 0.5))
        for i in range(game.num_players):
            assert _exact_best_response(game, x, i, 1e-8) is None
            with np.errstate(over="ignore", invalid="ignore"):
                assert (_br_bits(solve_best_response(game, x, i, budget=2_000))
                        == _br_bits(_penalty_best_response(game, x, i, budget=2_000)))


def test_exact_best_response_on_nonneg_and_free_sets():
    # min (u - m)'(u - m) on the orthant and on R^2 under u0 + u1 <= 1
    m0 = np.array([2.0, 0.0])
    for pset, want in ((SimpleSet.nonneg(2), [1.0, 0.0]), (SimpleSet.free(2), [1.5, -0.5])):
        # (u - m)'(u - m) less its constant m'm
        game = library.QuadraticGnepSpec(BlockLayout((2,)), [library.QuadraticPlayerSpec(
            2.0 * np.eye(2), -2.0 * m0, pset, [(np.zeros((2, 2)), np.ones(2), -1.0)])],
            "orthant-quadratic").to_game()
        info = _exact_best_response(game, np.zeros(2), 0, 1e-8)
        assert info is not None and info.certified
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
    pen = PenaltyParams.uniform(2)
    assert saddle_check(ex3_game, ex3_tight.state, pen, samples=1000, seed=0) == 0


def test_saddle_detects_perturbed_multiplier(ex3_game, ex3_tight):
    pen = PenaltyParams.uniform(2)
    bad = ex3_tight.state.copy()
    # push the active-constraint multiplier up by one: the dual side of the
    # saddle inequality must now fail for samples near the true multiplier
    bad.duals[0].lam += 1.0
    bad.duals[0].mu += 1.0
    assert saddle_check(ex3_game, bad, pen, samples=500, seed=1) > 0


def test_saddle_z_deviation_never_violates_dual_side(ex3_game, ex3_tight):
    # with lam == mu the perturbation terms are alpha/2 ||z||^2 >= 0, so pure
    # z-deviations cannot drop below the center value
    pen = PenaltyParams.uniform(2)
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
    pen = PenaltyParams.uniform(2)
    for res in ex3_runs.values():
        blocks = projected_gradient_blocks(ex3_game, res.state, pen)
        for b in blocks:
            assert b["qz"] == 0.0
            assert b["qmu"] == 0.0


def test_projected_gradient_positive_away_from_solution(ex3_game):
    pen = PenaltyParams.uniform(2)
    state = initial_state(ex3_game, np.array([2.5, 2.5]))
    state.duals[0].lam[:] = 0.7
    state.duals[0].mu[:] = 0.2
    state.duals[1].z[:] = 0.3
    assert projected_gradient_norm(ex3_game, state, pen) > 0.1


def test_diagnose_report_round_trip(ex3_game, ex3_tight):
    pen = PenaltyParams.uniform(2)
    rep = diagnose(ex3_game, ex3_tight.state, pen, saddle_samples=100)
    d = rep.as_dict()
    assert d["saddle_violations"] == 0
    assert max(d["stationarity"]) <= 1e-3
    assert rep.worst() <= 1e-3
