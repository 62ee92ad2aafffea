"""Estimation, step-size policies, inner projection, and the exact dual steps."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gnepsolve as G
from gnepsolve.core import (BlockLayout, GameInstance, PlayerDualState, PlayerProblem, SimpleSet,
                            initial_state)
from gnepsolve.lagrangian import (PenaltyParams, PointEval, build_anchor, evaluate_point,
                                   lagrangian_value, lagrangian_values)
from gnepsolve.solver import (
    GammaPolicy,
    LipschitzEstimator,
    SigmaSchedule,
    SolverConfig,
    choose_gamma,
    choose_sigma,
    contraction_factor,
    inner_residual,
    inner_step,
    sigma_cap,
    solve_inner,
    spectral_norms,
    step_duals,
)
from gnepsolve import library
from conftest import spectral_norm_reference, stopping_residual


def single_player_quadratic(n=2, lo=-10.0, hi=10.0):
    return library.QuadraticGnepSpec(BlockLayout((n,)), [library.QuadraticPlayerSpec(
        np.eye(n), np.zeros(n), SimpleSet.box(np.full(n, lo), np.full(n, hi)))],
        "half-norm-squared").to_game()


# ---------------------------------------------------------------------------
# Lipschitz estimation
# ---------------------------------------------------------------------------


def test_estimate_identity_quadratic():
    game = single_player_quadratic()
    est = LipschitzEstimator(game).estimate(np.zeros(2), np.zeros(0))
    assert est.L_theta[0] == pytest.approx(1.0, rel=1e-8)
    assert est.L[0] == pytest.approx(1.0, rel=1e-8)


def test_estimate_example3_constraint_curvature():
    game = library.make_example3()
    est = LipschitzEstimator(game).estimate(np.zeros(2), np.zeros(2))
    # each disk constraint has constant Hessian 2 I; one row per player
    np.testing.assert_allclose(est.grad_g_lip, [2.0, 2.0], rtol=1e-8)


def test_sampled_estimates_scale_with_inflation(monkeypatch):
    game = library.gen_power_allocation(2, 2, 1.0, 0.3162, seed=4)
    state = initial_state(game, np.full(game.n, 1.0))
    monkeypatch.setattr(G.solver, "_INFLATION", 1.0)
    e1 = LipschitzEstimator(game, seed=0).estimate(state.x, state.duals.lam)
    monkeypatch.setattr(G.solver, "_INFLATION", 2.0)
    e2 = LipschitzEstimator(game, seed=0).estimate(state.x, state.duals.lam)
    np.testing.assert_allclose(e2.L_theta, 2.0 * e1.L_theta, rtol=1e-12)
    np.testing.assert_allclose(e2.grad_g_lip, 2.0 * e1.grad_g_lip, rtol=1e-12)


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 6), st.integers(1, 5), st.integers(1, 9),
       st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6),
       st.lists(st.booleans(), min_size=6, max_size=6), st.integers(0, 10**6))
def test_spectral_norms_match_per_matrix_formula_and_svd(k, w, d, log_scales, zero, seed):
    # one-row and one-column members in closed form, the rest from one stacked
    # eigvalsh: the bits of the per-matrix formula, and the top singular value
    mats = np.random.default_rng(seed).standard_normal((k, w, d))
    mats *= 10.0 ** np.array(log_scales[:k])[:, None, None]
    mats[np.array(zero[:k])] = 0.0
    got = spectral_norms(mats)
    assert got.tobytes() == np.array([spectral_norm_reference(m) for m in mats]).tobytes()
    np.testing.assert_allclose(got, np.linalg.svd(mats, compute_uv=False)[:, 0], rtol=1e-10, atol=0)


@settings(deadline=None, max_examples=100)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(1, 4)), min_size=1, max_size=6),
       st.integers(0, 10**6))
def test_jac_norms_match_the_formula_on_each_players_slices(shapes, seed):
    # batched per run of one shape, own-block columns viewed at the row stride
    # of J[s, sl]: a strided column's dot product rounds differently from a
    # contiguous one's
    players = tuple(PlayerProblem(None, None, None, None, SimpleSet.free(d), m) for m, d in shapes)
    game = GameInstance(players, BlockLayout(tuple(d for _, d in shapes)))
    J = np.random.default_rng(seed).standard_normal((game.total_constraints, game.n))
    point = PointEval(np.zeros(game.n), np.zeros(len(players)), np.zeros((len(players), game.n)),
                      np.zeros(game.total_constraints), J)
    full, own = G.solver._jac_norms(point, game.constrained_runs)
    blocks = [J[a:b] for a, b in zip(game.rows.bounds, game.rows.bounds[1:])]
    assert full.tobytes() == np.array([spectral_norm_reference(B) for B in blocks]).tobytes()
    assert own.tobytes() == np.array([spectral_norm_reference(B[:, sl]) for B, sl
                                      in zip(blocks, game.layout.slices)]).tobytes()


# ---------------------------------------------------------------------------
# gamma / sigma policies
# ---------------------------------------------------------------------------


def _est(L, L_gfun):
    from gnepsolve.solver import LipschitzEstimates
    L = np.atleast_1d(np.asarray(L, float))
    return LipschitzEstimates(
        L_theta=L.copy(), grad_g_lip=np.zeros(0), L=L.copy(),
        L_gfun=np.atleast_1d(np.asarray(L_gfun, float)),
        M_g_own=np.zeros(L.shape[0]))


def test_choose_gamma_constraint_free():
    pen = PenaltyParams(10.0, 1.0)
    gamma, warn = choose_gamma(_est([1.0], [0.0]), pen, GammaPolicy.auto(1.0))
    assert gamma[0] == pytest.approx(1.0)
    assert warn == []


def test_choose_gamma_formula():
    pen = PenaltyParams(10.0, 1.0)
    gamma, _ = choose_gamma(_est([2.0], [2.0]), pen, GammaPolicy.auto(1.0))
    assert gamma[0] == pytest.approx(14.0)   # 2 + 3 * 4 / 1


def test_choose_gamma_fixed_below_bound_warns():
    pen = PenaltyParams(10.0, 1.0)
    gamma, warn = choose_gamma(_est([2.0], [2.0]), pen, GammaPolicy.fixed([1.0]))
    assert gamma[0] == pytest.approx(1.0)
    assert len(warn) == 1 and "below" in warn[0]


def test_sigma_cap_value():
    assert sigma_cap(1.0, 1.0) == pytest.approx(1.8)


def test_sigma_schedule_diminishes_and_tau_below_one():
    est = _est([1.0, 1.0], [0.0, 0.0])
    cfg = SolverConfig(sigma=SigmaSchedule.diminishing(sigma0=1.0, decay=10.0))
    gamma = np.array([1.0, 1.0])
    s0 = choose_sigma(est, cfg, 0, gamma=gamma)
    s100 = choose_sigma(est, cfg, 100, gamma=gamma)
    assert s100[0] < s0[0] / 5
    # at the cap itself the stacked contraction factor stays below one
    cap = sigma_cap(1.0, 1.0)
    assert contraction_factor(1.0, 1.0, cap) < 1.0
    assert est.tau < 1.0


# ---------------------------------------------------------------------------
# inner projection
# ---------------------------------------------------------------------------


def _anchor_for(game, x, lam, gamma):
    point = evaluate_point(game, x)
    return build_anchor(game, lam, gamma, point, lagrangian_values(point, lam, game.rows))


def test_inner_step_fixed_point_and_determinism():
    game = single_player_quadratic()
    x = np.array([2.0, -1.0])
    anchor = _anchor_for(game, x, np.zeros(0), np.array([2.0]))
    sigma = np.array([0.3])
    # closed form: one sweep contracts toward the model minimizer y - grad/gamma
    target = x - anchor.grads[0] / 2.0
    u = x.copy()
    for _ in range(200):
        u = inner_step(u, anchor, sigma, game)
    np.testing.assert_allclose(u, target, atol=1e-12)
    np.testing.assert_array_equal(inner_step(u, anchor, sigma, game),
                                  inner_step(u, anchor, sigma, game))
    assert inner_residual(u, anchor, sigma, game) <= 1e-12


def test_inner_residual_geometric_decrease():
    game, plant = library.gen_random_quadratic_with_plant(2, 2, 1, seed=3)
    pen = PenaltyParams()
    state = initial_state(game, plant)
    est = LipschitzEstimator(game, seed=0).estimate(state.x, state.duals.lam)
    gamma, _ = choose_gamma(est, pen, GammaPolicy.auto())
    cfg = SolverConfig(sigma=SigmaSchedule.constant(0.5 * sigma_cap(float(gamma.min()), float(gamma.max()))))
    sigma = choose_sigma(est, cfg, 0, gamma=gamma)
    anchor = _anchor_for(game, state.x, state.duals.lam, gamma)
    u = state.x + 1.0
    res = []
    for _ in range(60):
        res.append(inner_residual(u, anchor, sigma, game))
        u = inner_step(u, anchor, sigma, game)
    res = np.array(res)
    assert np.all(res[1:] <= res[:-1] * (est.tau + 1e-9) + 1e-15)
    # a point outside the boxes still has a finite residual after one step
    far = np.full(game.n, 50.0)
    assert np.isfinite(inner_residual(inner_step(far, anchor, sigma, game), anchor, sigma, game))


def test_solve_inner_matches_projected_model_minimizer():
    # one player, box-constrained quadratic: the block update must land on
    # the projection of the model minimizer
    game = single_player_quadratic(lo=-0.5, hi=0.5)
    x = np.array([0.4, -0.3])
    gamma = np.array([2.0])
    anchor = _anchor_for(game, x, np.zeros(0), gamma)
    cfg = SolverConfig(sigma=SigmaSchedule.constant())
    result = solve_inner(game, anchor, cfg)
    target = game.players[0].private_set.project(x - anchor.grads[0] / gamma[0])
    np.testing.assert_allclose(result.x_next, target, atol=1e-8)
    assert result.exit_kind != "stall"


def _coupled_player(rng, s, n):
    """A player on private set ``s`` with a quadratic objective and one
    affine constraint, both in the whole joint vector of length ``n``."""
    c = rng.uniform(-5.0, 5.0, n)
    Q = rng.uniform(-1.0, 1.0, (n, n))
    Q = Q + Q.T
    a = rng.uniform(-1.0, 1.0, n)
    b = float(rng.uniform(-1.0, 1.0))
    return PlayerProblem(objective=lambda x: float(c @ x + 0.5 * x @ Q @ x),
                         gradient=lambda x: c + Q @ x,
                         constraints=lambda x: np.array([a @ x - b]),
                         constraint_jacobian=lambda x: a[None, :].copy(),
                         private_set=s, m=1)


def _random_set(rng, kind, dim):
    if kind == "box":
        lo = rng.uniform(-3.0, 1.0, dim)
        return SimpleSet.box(lo, lo + rng.uniform(0.0, 3.0, dim))
    if kind == "ball":
        return SimpleSet.ball(dim, float(rng.uniform(0.1, 3.0)))
    return SimpleSet(kind, dim)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.tuples(st.sampled_from(("box", "nonneg", "simplex", "ball")),
                          st.integers(1, 4)), min_size=1, max_size=4),
       st.integers(0, 2**32 - 1))
def test_solve_inner_is_the_fixed_point_of_the_reference_sweep(blocks, seed):
    # the closed-form block update against the point repeated reference
    # sweeps (with choose_sigma steps) settle on, from random anchors
    rng = np.random.default_rng(seed)
    sets = [_random_set(rng, kind, dim) for kind, dim in blocks]
    n = sum(dim for _, dim in blocks)
    game = GameInstance(tuple(_coupled_player(rng, s, n) for s in sets),
                        BlockLayout(tuple(dim for _, dim in blocks)))
    N = game.num_players
    lam = rng.uniform(0.0, 3.0, N)   # one constraint row per player
    gamma = rng.uniform(0.5, 50.0, N)
    anchor = _anchor_for(game, game.project_private(rng.uniform(-5.0, 5.0, n)), lam, gamma)
    cfg = SolverConfig(sigma=SigmaSchedule.constant())
    sigma = choose_sigma(_est(gamma, np.zeros(N)), cfg, 0, gamma=gamma)
    u = anchor.y
    for _ in range(500):
        u, prev = inner_step(u, anchor, sigma, game), u
        if np.array_equal(u, prev):
            break
    result = solve_inner(game, anchor, cfg)
    np.testing.assert_allclose(result.x_next, u, rtol=0, atol=1e-10)
    assert result.exit_kind in ("descent", "true", "forced", "stall")


def test_solve_inner_stalls_at_stationary_anchor():
    game = single_player_quadratic()
    x = np.zeros(2)   # already the minimizer: no strict descent exists
    anchor = _anchor_for(game, x, np.zeros(0), np.array([2.0]))
    cfg = SolverConfig(sigma=SigmaSchedule.constant())
    result = solve_inner(game, anchor, cfg)
    assert result.exit_kind == "stall"
    np.testing.assert_allclose(result.x_next, x, atol=1e-10)


def test_solve_inner_descent_on_example3_value_never_rises():
    # every accepted block update keeps both players' anchored values from
    # rising; strict descent holds for the player that actually moves
    game = library.make_example3()
    res = G.solve(game, np.zeros(2), SolverConfig(sigma=SigmaSchedule.constant()))
    assert res.status == "converged"
    assert res.trace.violations["x-descent"] == []
    strict = sum(1 for r in res.trace.rows if r.exit_kind == "descent")
    assert strict >= 1


# ---------------------------------------------------------------------------
# exact dual steps
# ---------------------------------------------------------------------------


def test_step_duals_examples():
    # clamp at zero: lam=0, g=-1 -> lam=0
    np.testing.assert_array_equal(step_duals(np.zeros(1), np.array([-1.0]), 1.0), [0.0])
    # direct arithmetic: lam=0.5, g=0.25, beta=1 -> lam=0.75
    np.testing.assert_allclose(step_duals(np.array([0.5]), np.array([0.25]), 1.0), [0.75])


def test_step_duals_maximizes_value():
    # the step maximizes the general Lagrangian over lam at z = 0 and mu the
    # old multipliers, which is where the solver takes it
    game = library.make_example3()
    pen = PenaltyParams()
    x = np.array([0.9, 0.1])
    old = np.array([1.2])
    new = step_duals(old, np.asarray(game.players[0].constraints(x), dtype=float), pen.beta)
    z = np.zeros(1)
    base = lagrangian_value(game, 0, x, PlayerDualState(z, new, old), pen)
    for delta in (1e-3, -1e-3):
        lam_p = np.maximum(new + delta, 0.0)
        if np.array_equal(lam_p, new):
            continue
        v = lagrangian_value(game, 0, x, PlayerDualState(z, lam_p, old), pen)
        assert v < base


_DUAL_VECTORS = st.integers(1, 4).flatmap(lambda m: st.tuples(
    *[st.lists(st.floats(lo, 10.0), min_size=m, max_size=m) for lo in (0.0, -10.0)]))


@settings(deadline=None, max_examples=100)
@given(_DUAL_VECTORS, st.floats(0.01, 100.0))
def test_dual_steps_from_unequal_multipliers(vectors, beta):
    # the general multiplier step from a proximal centre mu is
    # max(mu + g / beta, 0), whatever lam is on entry; step_duals takes it
    # from the multipliers it is handed, exactly, without writing them, and
    # its result is nonnegative
    mu, g = (np.array(v) for v in vectors)
    kept = mu.copy()
    out = step_duals(mu, g, beta)
    np.testing.assert_array_equal(out, np.maximum(kept + g / beta, 0.0))
    np.testing.assert_array_equal(mu, kept)
    assert np.all(out >= 0.0)


# ---------------------------------------------------------------------------
# stopping residual
# ---------------------------------------------------------------------------


def test_stopping_residual_cases():
    game = library.make_example3()
    a = initial_state(game, np.array([1.0, 2.0]))
    b = a.copy()
    assert stopping_residual(a, b) == 0.0
    b.duals[1].lam += 0.3
    assert stopping_residual(a, b) == pytest.approx(0.3)
    assert stopping_residual(b, a) == pytest.approx(0.3)
