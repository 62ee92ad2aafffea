"""Estimation, step-size policies, inner projection, and the exact dual steps."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gnepsolve as G
from gnepsolve.core import (BlockLayout, GameInstance, PlayerDualState, PlayerProblem, SimpleSet,
                            initial_state, max_abs, row_dots)
from gnepsolve.lagrangian import PenaltyParams, evaluate_point, lagrangian_value, lagrangian_values
from gnepsolve.solver import (
    GammaPolicy,
    LipschitzEstimator,
    SigmaSchedule,
    SolverConfig,
    _exit_labels,
    choose_gamma,
    spectral_norms,
)
from gnepsolve import library
from reference import (QuadraticAnchor, build_anchor, choose_sigma, contraction_factor,
                       draw_point, inner_residual, inner_step, sigma_cap, solve_inner, step_duals)
from conftest import sampled_user_game, spectral_norm_reference, stopping_residual


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


def per_pair_resample(est, x):
    """The sampler one player and one point pair at a time, with each
    player's own oracles: the reference for ``LipschitzEstimator._resample``."""
    est._box_center, est._box_halfwidth = np.array(x, copy=True), 2.0 + 0.25 * np.abs(x)
    game = est.game
    for attempt in range(2):
        pts_a = [draw_point(est) for _ in range(G.solver._SAMPLE_PAIRS)]
        pts_b = [draw_point(est) for _ in range(G.solver._SAMPLE_PAIRS)]
        good = [(a, b, dist) for a, b in zip(pts_a, pts_b)
                if (dist := float(np.linalg.norm(a - b))) > 1e-10]
        if good:
            break
        est._box_halfwidth = 2.0 * est._box_halfwidth
    L_theta, ggs, jac_maxes = [], [], []
    for i, p in enumerate(game.players):
        lt, gg, jac_max = 0.0, np.zeros(p.m), 0.0
        for a, b, dist in good:
            ratio = float(np.linalg.norm(p.gradient(a) - p.gradient(b))) / dist
            if not np.isfinite(ratio):
                raise G.OracleFailure(
                    f"player {i}: non-finite gradient while sampling smoothness", player=i)
            lt = max(lt, ratio)
            if p.m:
                Ja = np.asarray(p.constraint_jacobian(a), dtype=float)
                Jb = np.asarray(p.constraint_jacobian(b), dtype=float)
                if not (np.all(np.isfinite(Ja)) and np.all(np.isfinite(Jb))):
                    raise G.OracleFailure(
                        f"player {i}: non-finite Jacobian while sampling smoothness", player=i)
                gg = np.maximum(gg, np.linalg.norm(Ja - Jb, axis=1) / dist)
                jac_max = max(jac_max, float(spectral_norms(np.stack([Ja, Jb])).max()))
        L_theta.append(G.solver._INFLATION * lt)
        ggs.append(G.solver._INFLATION * gg)
        jac_maxes.append(jac_max)
    est._bind(np.array(L_theta), ggs)
    est._jac_max = np.array(jac_maxes)


def sampled_constants(est):
    return [est._L_theta.tobytes(), est._gg.tobytes(), est._M_g_own.tobytes(),
            est._jac_max.tobytes(), est._box_halfwidth.tobytes(),
            str(est.rng.bit_generator.state)]


@pytest.mark.parametrize("make_game, start", [
    (lambda: library.builtin_instance("power"), 0.0),
    (lambda: library.builtin_instance("power"), 5.0),
    (sampled_user_game, 0.5),
], ids=["power-const0", "power-const5", "user-game"])
def test_batched_sampler_matches_the_per_pair_reference(make_game, start):
    # the batched sampler (one raw sweep per chunk of point pairs, reductions
    # over all pairs at once) gives the per-pair loop's constants bit for bit, over
    # successive resamples of one estimator (the draws continue the same
    # stream): at the start, at a solve's iterate and at the start again
    game = make_game()
    x0 = initial_state(game, np.full(game.n, start)).x
    x_run = G.solve(game, x0, SolverConfig(max_outer=200)).state.x
    batched, reference = LipschitzEstimator(game, seed=3), LipschitzEstimator(game, seed=3)
    for x in (x0, x_run, x0):
        batched._resample(x)
        per_pair_resample(reference, x)
        assert sampled_constants(batched) == sampled_constants(reference)
    assert np.count_nonzero(batched._jac_max) == sum(p.m > 0 for p in game.players)


def test_a_power_resample_sweeps_each_chunk_of_pairs_in_one_batched_call(monkeypatch):
    # the sampler stacks a chunk's points and sweeps them in one call of
    # power's batched oracle. A pair's fields are 2 * 8 * (N + M) * (n + 1) =
    # 1248 bytes, so all 200 pairs fit _CHUNK_BYTES: one call per resample;
    # with room for 32 pairs a chunk, ceil(200 / 32) = 7 calls
    game = library.builtin_instance("power")
    calls, oracle = [], game.batched_oracle
    object.__setattr__(game, "batched_oracle", lambda x: (calls.append(x.shape), oracle(x))[1])
    LipschitzEstimator(game, seed=0)._resample(np.zeros(game.n))
    pairs = G.solver._SAMPLE_PAIRS
    assert calls == [(2, pairs, game.n)]
    calls.clear()
    monkeypatch.setattr(G.solver, "_CHUNK_BYTES", 32 * 1248 + 1247)
    LipschitzEstimator(game, seed=0)._resample(np.zeros(game.n))
    assert calls == [(2, min(32, pairs - start), game.n) for start in range(0, pairs, 32)]


def _always(x):
    return True


@pytest.mark.parametrize("bad, message", [
    # an earlier player's failure at a later pair comes first
    ({(2, "gradient"): _always, (0, "jacobian"): lambda x: x[0] > 1.5},
     "player 0: non-finite Jacobian while sampling smoothness"),
    # ... also when it is drawn only at pair 158, in a later chunk of pairs
    ({(2, "gradient"): _always, (0, "jacobian"): lambda x: x[5] > 2.58},
     "player 0: non-finite Jacobian while sampling smoothness"),
    ({(3, "gradient"): _always, (2, "jacobian"): _always},
     "player 2: non-finite Jacobian while sampling smoothness"),
    # both at one pair: the gradient first
    ({(2, "gradient"): lambda x: x[0] > 0.5, (2, "jacobian"): lambda x: x[0] > 0.5},
     "player 2: non-finite gradient while sampling smoothness"),
    # one player, disjoint regions: the region the draws reach first (x[0] < -1)
    ({(2, "gradient"): lambda x: x[0] > 1.0, (2, "jacobian"): lambda x: x[0] < -1.0},
     "player 2: non-finite Jacobian while sampling smoothness"),
    ({(2, "gradient"): lambda x: x[0] < -1.0, (2, "jacobian"): lambda x: x[0] > 1.0},
     "player 2: non-finite gradient while sampling smoothness"),
    ({(1, "gradient"): lambda x: x[0] > 1.9},
     "player 1: non-finite gradient while sampling smoothness"),
])
def test_batched_sampler_names_the_first_failing_player_and_pair(bad, message):
    # injected NaN gradients or inf Jacobians: the first failing (player,
    # pair), the gradient before the Jacobian, is reported as the per-pair
    # loop reports it; the raw sweeps raise no warning
    game = sampled_user_game(bad)
    x = np.full(game.n, 0.5)
    failures = []
    for resample in (LipschitzEstimator._resample, per_pair_resample):
        with pytest.raises(G.OracleFailure) as err:
            resample(LipschitzEstimator(game, seed=3), x)
        failures.append((str(err.value), err.value.player))
    assert failures[0] == failures[1] == (message, int(message.split()[1][:-1]))


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
    full = G.solver._jac_norms(game, J)
    own = G.solver._own_jac_norms(game, J)
    blocks = [J[a:b] for a, b in zip(game.rows.bounds, game.rows.bounds[1:])]
    assert full.tobytes() == np.array([spectral_norm_reference(B) for B in blocks]).tobytes()
    assert own.tobytes() == np.array([spectral_norm_reference(B[:, sl]) for B, sl
                                      in zip(blocks, game.layout.slices)]).tobytes()
    # full and own-block norms over a leading axis of stacked Jacobians: each
    # row's bits are the one-point norms
    stacked = np.stack([J, np.random.default_rng(seed + 1).standard_normal(J.shape), J[::-1]])
    for norms in (G.solver._jac_norms, G.solver._own_jac_norms):
        rows = norms(game, stacked)
        assert rows.shape == (3, len(players))
        for Jr, row in zip(stacked, rows):
            assert row.tobytes() == norms(game, np.ascontiguousarray(Jr)).tobytes()


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
    # one message per player below its bound, in player order; a broadcast value
    est = _est([2.0, 0.5, 1.0 / 3.0], [2.0, 0.0, 0.0])
    gamma, warn = choose_gamma(est, pen, GammaPolicy.fixed([1.0, 1.0, 0.25]))
    assert warn == ["player 0: fixed gamma 1 below decrease bound 14",
                    "player 2: fixed gamma 0.25 below decrease bound 0.333333"]
    gamma, warn = choose_gamma(est, pen, GammaPolicy.fixed(0.4))
    assert gamma.tolist() == [0.4] * 3 and [w[:9] for w in warn] == ["player 0:", "player 1:"]


def test_choose_gamma_names_the_first_nan_weight():
    # a NaN smoothness estimate or Jacobian-norm bound makes a NaN auto
    # weight, which raises naming the first such player; a fixed weight is
    # never NaN, whatever its bound
    pen = PenaltyParams(10.0, 1.0)
    for L, L_gfun, i in [([1.0, np.nan, np.nan], [0.0, 0.0, 1.0], 1),
                         ([1.0, 2.0, 3.0], [0.0, 1.0, np.nan], 2)]:
        with pytest.raises(G.OracleFailure) as err:
            choose_gamma(_est(L, L_gfun), pen, GammaPolicy.auto())
        assert err.value.player == i
        assert str(err.value) == (f"player {i}: NaN proximal weight from smoothness estimate "
                                  f"{L[i]:.6g} and constraint-Jacobian norm bound "
                                  f"{L_gfun[i]:.6g}")
    gamma, warn = choose_gamma(_est([1.0, np.nan], [0.0, 0.0]), pen, GammaPolicy.fixed(2.0))
    assert gamma.tolist() == [2.0, 2.0] and warn == []


def test_sigma_cap_value():
    assert sigma_cap(1.0, 1.0) == pytest.approx(1.8)


def test_sigma_schedule_diminishes_and_tau_below_one():
    cfg = SolverConfig(sigma=SigmaSchedule.diminishing(sigma0=1.0, decay=10.0))
    gamma = np.array([1.0, 1.0])
    s0, _ = choose_sigma(cfg, 0, gamma)
    s100, tau = choose_sigma(cfg, 100, gamma)
    assert s100[0] < s0[0] / 5
    # at the cap itself the stacked contraction factor stays below one
    cap = sigma_cap(1.0, 1.0)
    assert contraction_factor(1.0, 1.0, cap) < 1.0
    assert tau < 1.0


# ---------------------------------------------------------------------------
# inner projection
# ---------------------------------------------------------------------------


def _anchor_for(game, x, lam, gamma):
    return build_anchor(game, lam, gamma, evaluate_point(game, x))


def _label(anchor, values, u, true_values, stall_tol):
    """The exit label of the block update ``u`` from ``anchor``, whose values
    are ``values`` and whose true values at ``u`` are ``true_values``: the
    label function on one row."""
    d = u - anchor.y
    return _exit_labels(values[None], true_values[None], row_dots(anchor.grads, d)[None],
                        anchor.gamma[None], np.array([d @ d]), np.array([max_abs(d)]),
                        stall_tol)[0]


def _step_label(game, anchor, result, stall_tol):
    """The exit label of ``solve_inner``'s step ``result`` from ``anchor``,
    judged on fresh Lagrangian values at the anchor's multipliers."""
    def values_at(point):
        return lagrangian_values(point.theta, point.g_values, anchor.lam, game.rows)

    return _label(anchor, values_at(evaluate_point(game, anchor.y)), result.x_next,
                  values_at(result.point), stall_tol)


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
    sigma, tau = choose_sigma(cfg, 0, gamma)
    anchor = _anchor_for(game, state.x, state.duals.lam, gamma)
    u = state.x + 1.0
    res = []
    for _ in range(60):
        res.append(inner_residual(u, anchor, sigma, game))
        u = inner_step(u, anchor, sigma, game)
    res = np.array(res)
    assert np.all(res[1:] <= res[:-1] * (tau + 1e-9) + 1e-15)
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
    assert _step_label(game, anchor, result, cfg.outer_tol) != "stall"


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
    sigma, _ = choose_sigma(cfg, 0, gamma)
    u = anchor.y
    for _ in range(500):
        u, prev = inner_step(u, anchor, sigma, game), u
        if np.array_equal(u, prev):
            break
    result = solve_inner(game, anchor, cfg)
    np.testing.assert_allclose(result.x_next, u, rtol=0, atol=1e-10)
    assert _step_label(game, anchor, result, cfg.outer_tol) in (
        "descent", "true", "forced", "stall")


def test_solve_inner_stalls_at_stationary_anchor():
    game = single_player_quadratic()
    x = np.zeros(2)   # already the minimizer: no strict descent exists
    anchor = _anchor_for(game, x, np.zeros(0), np.array([2.0]))
    cfg = SolverConfig(sigma=SigmaSchedule.constant())
    result = solve_inner(game, anchor, cfg)
    assert _step_label(game, anchor, result, cfg.outer_tol) == "stall"
    np.testing.assert_allclose(result.x_next, x, atol=1e-10)


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 4), st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**31), st.data())
def test_a_players_step_reads_only_its_own_data(N, n_per, m_per, seed, data):
    # the distributed claim: player nu's projection reads the broadcast x,
    # its own oracles, rows and multipliers, and its multiplier step reads
    # the broadcast new point and its own rows. Every rival's objective
    # rows, constraint rows and box are redrawn, with x, lam, nu's data,
    # every shape (so the batching by runs and its rounding) and the fixed
    # gamma kept: nu's entries of u, and of the new lam at the same
    # broadcast point, keep their bits
    nu = data.draw(st.integers(0, N - 1))
    spec, _ = library.random_quadratic_spec(N, n_per, m_per, seed)
    rivals, _ = library.random_quadratic_spec(N, n_per, m_per, seed + 1)
    rng = np.random.default_rng(seed)
    for p in rivals.players:
        lo = rng.uniform(-3.0, 0.0, n_per)
        p.private_set = SimpleSet.box(lo, lo + rng.uniform(0.5, 4.0, n_per))
    rivals.players[nu] = spec.players[nu]
    x, lam = rng.uniform(-2.0, 2.0, spec.layout.n), rng.uniform(0.0, 3.0, N * m_per)
    assert_step_reads_only_own_data(spec.to_game(), rivals.to_game(), nu, x, lam,
                                    GammaPolicy.fixed(rng.uniform(0.5, 50.0, N)))


@settings(deadline=None, max_examples=25)
@given(st.integers(2, 4), st.integers(1, 4), st.integers(0, 2**31), st.data())
def test_a_links_step_reads_only_its_own_data_on_power(N, C, seed, data):
    # the same claim on the power game, whose smoothness constants are
    # sampled from every link's data, so under a fixed gamma: every rival's
    # target and gain row gains[mu] are redrawn, link nu's kept
    assert_links_step_reads_only_its_own_data(N, C, seed, data.draw(st.integers(0, N - 1)))


def test_a_links_step_reads_only_its_own_data_when_the_rivals_clip_alike():
    # a draw whose rival link projects to the same point in both games (0 in
    # one coordinate, 1.766 in the other): the rivals' unprojected steps
    # still differ, and link nu's bits are kept
    assert_links_step_reads_only_its_own_data(N=2, C=1, seed=97, nu=1)


def assert_links_step_reads_only_its_own_data(N, C, seed, nu):
    """Link ``nu``'s step on a power game of ``N`` links and ``C`` channels
    drawn from ``seed``, against the same game with every rival's target
    and gain row redrawn."""
    rng = np.random.default_rng(seed)
    gains, rival_gains = np.exp(rng.uniform(np.log(1e-2), 0.0, (2, N, N, C)))
    targets, rival_targets = rng.uniform(0.5, 2.0, (2, N))
    rival_gains[nu], rival_targets[nu] = gains[nu], targets[nu]
    game, other = (library.gen_power_allocation(N, C, t, 0.3162, gains=g)
                   for g, t in ((gains, targets), (rival_gains, rival_targets)))
    assert_step_reads_only_own_data(game, other, nu, rng.uniform(0.0, 2.0, N * C),
                                    rng.uniform(0.0, 3.0, N),
                                    GammaPolicy.fixed(rng.uniform(0.5, 50.0, N)))


def assert_step_reads_only_own_data(game, other, nu, x, lam, policy):
    """Player ``nu``'s step from ``(x, lam)`` under the fixed-gamma ``policy``
    is the same in ``game`` and in ``other``, which differs only in the
    rivals' data: nu's entries of u keep their bits, and so do its entries
    of the new lam at the same broadcast point (the rivals' steps move it).
    The rivals' steps before the projection must differ, or nothing was
    tested; after it they may not (a box can clip both to one corner)."""
    cfg, anchors, steps = SolverConfig(), [], []
    for g in (game, other):
        gamma, _ = choose_gamma(LipschitzEstimator(g).estimate(x, lam), cfg.penalty(), policy)
        anchors.append(build_anchor(g, lam, gamma, evaluate_point(g, x)))
        steps.append(solve_inner(g, anchors[-1], cfg))
    own, moved = steps
    sl, rows = game.layout.block_slice(nu), slice(*game.rows.bounds[nu:nu + 2])
    unprojected = [a.y - a.own_grad / a.gamma_by_coord for a in anchors]
    assert not np.array_equal(*unprojected)   # the rivals' steps did change
    assert own.x_next[sl].tobytes() == moved.x_next[sl].tobytes()
    lam_other = step_duals(lam, evaluate_point(other, own.x_next).g_values, cfg.beta)
    assert own.lam[rows].tobytes() == lam_other[rows].tobytes()


def _margin_anchor(margin, t):
    """A hand-built anchor of two one-variable players at ``y = 0`` whose
    surrogate margins at ``u = (t, 0)``, for a power of two ``t``, are
    exactly ``margin`` for player 0 (zero gradient) and negative for player 1,
    from the anchor values zero."""
    gamma = np.full(2, 2.0 * margin / t ** 2)
    return QuadraticAnchor(np.zeros(2), np.array([[0.0, 0.0], [-1.0, 0.0]]), gamma, np.zeros(2),
                           gamma.copy(), np.zeros(0))


def test_exit_labels_at_their_edges():
    # the label's conditions in order: descent when every margin is
    # negative; else stall when a failing margin is at most 1e-14 and the
    # step is within the tolerance; else true or forced by the true values
    t = 2.0 ** -10
    u = np.array([t, 0.0])
    values, kept, risen = np.zeros(2), np.zeros(2), np.array([1e-3, 0.0])
    anchor = _margin_anchor(1e-14, t)
    margins = anchor.model_values(u, values) - values
    assert margins[0] == 1e-14 and margins[1] < 0.0 and max_abs(u - anchor.y) == t
    for true_values in (kept, risen):
        assert _label(anchor, values, u, true_values, t) == "stall"
    below = np.nextafter(t, 0.0)   # the step is one ulp above this tolerance
    assert _label(anchor, values, u, kept, below) == "true"
    assert _label(anchor, values, u, risen, below) == "forced"
    anchor = _margin_anchor(2e-14, t)
    assert (anchor.model_values(u, values) - values)[0] == 2e-14
    assert _label(anchor, values, u, kept, t) == "true"
    assert _label(anchor, values, u, risen, t) == "forced"
    anchor.grads[0, 0] = -1.0
    assert np.all(anchor.model_values(u, values) - values < 0.0)
    for true_values in (kept, risen):
        assert _label(anchor, values, u, true_values, t) == "descent"


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
