"""End-to-end solver behavior on small games."""

import copy
import csv
import json
import warnings

import numpy as np
import pytest

import gnepsolve as G
from gnepsolve import cli
from gnepsolve.core import BlockLayout, SimpleSet
from gnepsolve.diagnostics import kkt_residual, projected_gradient_blocks
from gnepsolve.library import QuadraticGnepSpec, QuadraticPlayerSpec
from conftest import fast_config, spectral_norm_reference, stopping_residual


def test_example3_converges_from_all_starts(ex3_runs):
    for x0, res in ex3_runs.items():
        assert res.status == "converged", x0
        np.testing.assert_allclose(res.state.x, [1.0, 0.0], atol=1e-3)


def test_dual_identities_exact(ex3_runs, a18_run, quad_suite):
    # the exported duals: every z is +0.0 and mu holds lam's bytes
    results = list(ex3_runs.values()) + [a18_run] + [r for _, _, r in quad_suite]
    for res in results:
        assert res.trace.violations["dual-identity"] == []
        d = res.state.duals
        assert d.z.tobytes() == bytes(d.z.nbytes)
        assert d.mu.tobytes() == d.lam.tobytes()


def test_trace_row_count_matches_outer_iterations(ex3_runs):
    for res in ex3_runs.values():
        assert len(res.trace.rows) == res.outer_iterations


def test_converged_status_implies_residual_below_tol(ex3_runs):
    for res in ex3_runs.values():
        assert res.final_residual <= G.SolverConfig().outer_tol


def test_oracle_failure_status():
    layout = BlockLayout((1,))

    def objective(x):
        return float("nan") if x[0] > 0.5 else float(x[0] ** 2 - x[0])

    player = G.PlayerProblem(
        objective=objective,
        gradient=lambda x: np.array([2 * x[0] - 1.0]) if x[0] <= 0.5 else np.array([np.nan]),
        constraints=lambda x: np.zeros(0),
        constraint_jacobian=lambda x: np.zeros((0, 1)),
        private_set=SimpleSet.free(1), m=0)
    game = G.GameInstance((player,), layout, "nan-beyond-half")
    res = G.solve(game, np.zeros(1), fast_config(max_outer=50))
    assert res.status == "oracle-failure"
    assert "non-finite" in res.message


def fresh_jacobian_norms(game, x):
    """Each player's constraint-Jacobian norm and own-block norm at ``x``,
    one oracle call and one per-matrix formula each."""
    jacs = [p.constraint_jacobian(x) for p in game.players]
    return (np.array([spectral_norm_reference(J) for J in jacs]),
            np.array([spectral_norm_reference(J[:, sl]) for J, sl in zip(jacs, game.layout.slices)]))


def test_fixed_jacobian_norms_match_fresh_norms():
    # affine players compute their Jacobian norms once per run; every trace
    # row must carry exactly the bits a fresh computation gives
    game, plant = G.library.gen_random_quadratic_with_plant(3, 2, 2, seed=4)
    assert all(game.constant_jacobian(i) for i in range(game.num_players))
    res = G.solve(game, plant, fast_config(max_outer=200))
    assert len(res.trace.rows) > 10
    for x in (plant, res.state.x):
        full, own = fresh_jacobian_norms(game, x)
        for norms, fresh in ((res.trace.initial_jac_norm, full),
                             (res.trace.initial_jac_own_norm, own)):
            assert norms.tobytes() == fresh.tobytes()
        for r in res.trace.rows:
            assert r.jac_norm.tobytes() == full.tobytes()
            assert r.jac_own_norm.tobytes() == own.tobytes()


def test_varying_jacobian_norms_match_fresh_norms(monkeypatch):
    # power's Jacobians change with x: each row's norms, computed stacked by
    # shape, and each resample's largest norm over its sampled points,
    # computed one sampled pair at a time, are the bits of the per-matrix formula.
    # A k-capped run ends at the state its last row describes.
    game = G.library.builtin_instance("power")
    x0 = np.full(game.n, 5.0)
    drawn, resamples = [], []
    draw, resample = G.LipschitzEstimator._draw_point, G.LipschitzEstimator._resample

    def recording_draw(self):
        drawn.append(draw(self))
        return drawn[-1]

    def recording_resample(self, x):
        drawn.clear()
        resample(self, x)
        resamples.append((drawn[-2 * G.solver._SAMPLE_PAIRS:], self._jac_max))

    monkeypatch.setattr(G.LipschitzEstimator, "_draw_point", recording_draw)
    monkeypatch.setattr(G.LipschitzEstimator, "_resample", recording_resample)
    for K in (1, 150, 400):
        before = len(resamples)
        res = G.solve(game, x0, G.SolverConfig(max_outer=K))
        assert res.outer_iterations == K
        full, own = fresh_jacobian_norms(game, res.state.x)
        assert res.trace.rows[-1].jac_norm.tobytes() == full.tobytes()
        assert res.trace.rows[-1].jac_own_norm.tobytes() == own.tobytes()
    assert len(resamples) - before >= 3   # the 400-iteration run resamples
    full, own = fresh_jacobian_norms(game, G.initial_state(game, x0).x)
    assert res.trace.initial_jac_norm.tobytes() == full.tobytes()
    assert res.trace.initial_jac_own_norm.tobytes() == own.tobytes()
    P = G.solver._SAMPLE_PAIRS
    for points, jac_max in resamples:
        pairs = [(a, b) for a, b in zip(points[:P], points[P:]) if np.linalg.norm(a - b) > 1e-10]
        want = [max(max(spectral_norm_reference(p.constraint_jacobian(a)),
                        spectral_norm_reference(p.constraint_jacobian(b))) for a, b in pairs)
                for p in game.players]
        assert jac_max.tobytes() == np.array(want).tobytes()


def mixed_run_game():
    """Three players of one shape (two variables, two constraint rows), so
    one run: the middle one's rows are curved (a disk in its own block plus
    an affine part), the outer two's affine."""
    layout, rng = BlockLayout((2, 2, 2)), np.random.default_rng(7)
    n, players = layout.n, []
    for i, sl in enumerate(layout.slices):
        Q = np.zeros((n, n))
        B = rng.standard_normal((2, 2))
        Q[sl, sl] = B @ B.T + np.eye(2)
        A = np.zeros((n, n))
        A[sl, sl] = 2.0 * np.eye(2) * (i == 1)
        cons = [(A, rng.standard_normal(n), -1.0 - j) for j in range(2)]
        players.append(QuadraticPlayerSpec(Q, rng.standard_normal(n),
                                           SimpleSet.box(np.full(2, -2.0), np.full(2, 2.0)), cons))
    return QuadraticGnepSpec(layout, players, "mixed-run").to_game()


def test_run_mixing_affine_and_curved_players_matches_fresh_norms(monkeypatch):
    # a run holding a varying Jacobian has all its norms recomputed, those of
    # its constant players too; every row must carry, for every player, the
    # bits of a fresh per-player computation at that row's iterate
    game = mixed_run_game()
    assert len(game.constrained_runs) == 1
    assert [game.constant_jacobian(i) for i in range(3)] == [True, False, True]
    iterates, solve_inner = [], G.solver.solve_inner

    def recording_inner(*args):
        iterates.append(solve_inner(*args))
        return iterates[-1]

    monkeypatch.setattr(G.solver, "solve_inner", recording_inner)
    res = G.solve(game, np.zeros(game.n), G.SolverConfig(max_outer=40))
    assert len(res.trace.rows) == len(iterates) > 10
    for row, inner in zip(res.trace.rows, iterates):
        full, own = fresh_jacobian_norms(game, inner.x_next)
        assert row.jac_norm.tobytes() == full.tobytes()
        assert row.jac_own_norm.tobytes() == own.tobytes()
    assert len({row.jac_own_norm[1] for row in res.trace.rows}) > 10   # the curved player's moved


def test_trace_quantities_match_their_single_implementations(a18_game):
    # the trace's Lagrangian values, projected-gradient blocks, feasibility
    # and stopping residual are the quantities the public functions compute,
    # bit for bit; the state after k iterations is the state of a k-capped run
    K = 20
    x0 = np.zeros(a18_game.n)
    pen = fast_config().penalty()
    res = G.solve(a18_game, x0, fast_config(max_outer=K))
    assert res.status == "max_outer" and len(res.trace.rows) == K
    states = [G.initial_state(a18_game, x0)]
    states += [G.solve(a18_game, x0, fast_config(max_outer=k)).state for k in range(1, K)]
    states.append(res.state)

    def values(st):
        return np.array([G.lagrangian_value(a18_game, i, st.x, d, pen)
                         for i, d in enumerate(st.duals)])

    assert res.trace.initial_L.tobytes() == values(states[0]).tobytes()
    for row, st in zip(res.trace.rows, states[1:]):
        assert row.L_values.tobytes() == values(st).tobytes()
    last = res.trace.rows[-1]
    blocks = projected_gradient_blocks(a18_game, res.state, pen)
    for key in ("qx", "qlam"):
        assert getattr(last, key).tobytes() == np.array([b[key] for b in blocks]).tobytes()
    assert np.any(last.qlam > 0)
    kkt = kkt_residual(a18_game, res.state.x, [d.lam for d in res.state.duals])
    assert last.feas > 0 and last.feas == max(feas for _, _, feas in kkt)
    assert res.final_residual == stopping_residual(states[-2], res.state)
    assert res.final_residual == max(last.dx_inf, last.dlambda_inf)


def test_rows_keep_the_constants_of_their_iteration(monkeypatch):
    # the rows hold the estimator's and choose_gamma's arrays uncopied: a
    # resample must bind new arrays, not write into the ones earlier rows
    # hold. power from 5 resamples its sampled constants several times.
    produced = []
    estimate, choose_gamma = G.LipschitzEstimator.estimate, G.solver.choose_gamma

    def recording_estimate(self, *args, **kwargs):
        est = estimate(self, *args, **kwargs)
        produced.append([est.M_g_own.tobytes(), est.L_theta.tobytes()])
        return est

    def recording_gamma(*args, **kwargs):
        gamma, warnings = choose_gamma(*args, **kwargs)
        produced[-1].append(gamma.tobytes())
        return gamma, warnings

    monkeypatch.setattr(G.LipschitzEstimator, "estimate", recording_estimate)
    monkeypatch.setattr(G.solver, "choose_gamma", recording_gamma)
    game = G.library.builtin_instance("power")
    res = G.solve(game, np.full(game.n, 5.0), G.SolverConfig(max_outer=400))
    assert res.outer_iterations == len(produced) == 400
    assert len({m for m, _, _ in produced}) >= 3
    assert [[r.M_g_own.tobytes(), r.M_theta_own.tobytes(), r.gamma.tobytes()]
            for r in res.trace.rows] == produced


def test_one_block_update_per_outer_iteration(tmp_path):
    # result/1 keeps total_inner_iterations and the CSV's inner_iters column:
    # one block update per outer iteration
    out, trace = tmp_path / "doc.json", tmp_path / "trace.csv"
    code = cli.main(["solve", "--problem", "example3", "--x0", "const:0",
                       "--skip-diagnostics", "--out", str(out), "--trace", str(trace)])
    assert code == 0
    summary = json.loads(out.read_text())["summary"]
    assert summary["total_inner_iterations"] == summary["outer_iterations"] > 0
    with trace.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == summary["outer_iterations"]
    assert {r["inner_iters"] for r in rows} == {"1"}


def shared_constraint_game():
    """Two quadratic players coupled by the same affine budget row."""
    layout = BlockLayout((1, 1))
    q1 = QuadraticPlayerSpec(
        Q=np.array([[2.0, 0.2], [0.2, 0.0]]), b=np.array([-2.0, 0.0]),
        private_set=SimpleSet.free(1),
        constraints=[(np.zeros((2, 2)), np.array([1.0, 1.0]), -2.0)])
    q2 = QuadraticPlayerSpec(
        Q=np.array([[0.0, 0.1], [0.1, 2.0]]), b=np.array([0.0, -3.0]),
        private_set=SimpleSet.free(1),
        constraints=[(np.zeros((2, 2)), np.array([1.0, 1.0]), -2.0)])
    return QuadraticGnepSpec(layout, [q1, q2], "shared-budget").to_game()


def equilibrium_by_multiplier_grid():
    """Independent reference: exact best responses on a fine multiplier grid.

    For a common multiplier ``lam`` the joint stationarity system is linear;
    scan ``lam`` for the complementarity sign change, refine on the grid, and
    return the primal point.
    """
    def x_of(lam):
        # 2 x1 - 2 + 0.2 x2 + lam = 0 ;  0.1 x1 + 2 x2 - 3 + lam = 0
        A = np.array([[2.0, 0.2], [0.1, 2.0]])
        b = np.array([2.0 - lam, 3.0 - lam])
        return np.linalg.solve(A, b)

    lam_grid = np.linspace(0.0, 2.0, 2_000_001)
    xg = np.array([x_of(l) for l in (0.0, 1.0)])
    # constraint value is affine in lam: interpolate exactly from two samples
    c0 = xg[0].sum() - 2.0
    c1 = xg[1].sum() - 2.0
    lam_star = c0 / (c0 - c1)  # root of the affine function through (0,c0),(1,c1)
    if lam_star < 0:
        lam_star = 0.0
    # snap to the fine grid as an honest grid method would
    lam_star = lam_grid[np.argmin(np.abs(lam_grid - lam_star))]
    return x_of(lam_star), lam_star


def _run_bounds_one_at_a_time(trace, game, cfg, duals):
    """verify_run_bounds as one loop per row and player, the reference for
    its whole-array form."""
    out = {"decrease": [], "x-descent": [], "dual-identity": [],
           "multiplier-coupling": [], "projected-gradient": []}
    for i, d in enumerate(duals):
        for j in range(d.lam.shape[0]):
            z, lam, mu = d.z[j:j + 1], d.lam[j:j + 1], d.mu[j:j + 1]
            if z.tobytes() != bytes(8) or mu.tobytes() != lam.tobytes():
                out["dual-identity"].append(f"player={i} row={j}: z {float(z[0])!r}, "
                                            f"lam {float(lam[0])!r}, mu {float(mu[0])!r}")
    rows, N = trace.rows, game.num_players
    beta, slack = cfg.beta, 1e-9
    prev_L = trace.initial_L
    for r in rows:
        for i in range(N):
            if r.L_values[i] > prev_L[i] + slack:
                out["decrease"].append(
                    f"k={r.k} player={i}: L rose {prev_L[i]:.12g} -> {r.L_values[i]:.12g}")
            if r.exit_kind in ("descent", "true") and r.L_x_step[i] > prev_L[i] + slack:
                out["x-descent"].append(
                    f"k={r.k} player={i}: accepted block update raised L "
                    f"{prev_L[i]:.12g} -> {r.L_x_step[i]:.12g}")
        prev_L = r.L_values
    jac_own_max = np.maximum(trace.initial_jac_own_norm,
                             np.max([r.jac_own_norm for r in rows], axis=0))
    jac_run_max = np.maximum(trace.initial_jac_norm, np.max([r.jac_norm for r in rows], axis=0))
    m_theta_max = np.max([r.M_theta_own for r in rows], axis=0)
    m_g_max = np.max([r.M_g_own for r in rows], axis=0)
    lam_run_max = np.max([r.lam_norm2 for r in rows], axis=0)
    jac_prev = trace.initial_jac_norm
    for r in rows:
        if r.k < 2:
            jac_prev = r.jac_norm
            continue
        lg = np.maximum(jac_prev, r.jac_norm)
        for i in range(N):
            bound = (lg[i] / beta) * r.dx_2 + slack
            if r.dlam_2[i] > bound:
                out["multiplier-coupling"].append(
                    f"k={r.k} player={i}: |dlam| {r.dlam_2[i]:.3e} > {bound:.3e}")
            C = (2.0 + r.gamma[i] + m_theta_max[i] + m_g_max[i] * lam_run_max[i]
                 + jac_own_max[i] * jac_run_max[i] / beta + jac_run_max[i])
            pg = r.qx[i] + r.qlam[i]
            if pg > C * r.dx_2 + slack:
                out["projected-gradient"].append(
                    f"k={r.k} player={i}: |pg| {pg:.3e} > C*dx {C * r.dx_2:.3e}")
        jac_prev = r.jac_norm
    return out


@pytest.mark.parametrize("run", ["a18_run", "ex3_tight"])
def test_run_bounds_match_the_one_at_a_time_checks(request, run):
    # the recorded run, and a damaged copy that trips every check across the
    # blocks of rows that verify_run_bounds compares at once, with exported
    # duals that break the identities by a sign bit and by one ulp;
    # example3's Jacobian norms change from row to row
    game = request.getfixturevalue("a18_game" if run == "a18_run" else "ex3_game")
    result = request.getfixturevalue(run)
    cfg = fast_config()
    damaged = copy.deepcopy(result.trace)
    for j, r in enumerate(damaged.rows):
        if j % 3 == 0:
            r.L_values = r.L_values + 1e-3 * (1 + j % 5)
        if j % 4 == 1:
            r.L_x_step = r.L_x_step + 1e-2
        if j % 5 == 2:
            r.dlam_2 = r.dlam_2 * 1e6 + 1.0
        if j % 6 == 4:
            r.qx = r.qx + 1e3
    damaged_duals = result.state.duals.copy()
    damaged_duals.z[0] = -0.0
    damaged_duals.mu[-1] = np.nextafter(damaged_duals.lam[-1], np.inf)
    assert len(damaged.rows) > G.solver._BOUND_ROWS
    for trace, duals in ((result.trace, result.state.duals), (damaged, damaged_duals)):
        got, counts = G.verify_run_bounds(trace, cfg, duals)
        want = _run_bounds_one_at_a_time(trace, game, cfg, duals)
        # the first 20 messages of each bound, and every violation counted
        assert got == {kind: messages[:20] for kind, messages in want.items()}
        assert counts == {kind: len(messages) for kind, messages in want.items()}
    assert all(counts.values())
    assert max(counts.values()) > 20


def test_diverging_run_ends_in_the_oracle_check_without_warnings():
    # a fixed gamma far below the decrease bound makes example3 diverge; the
    # overflow in the anchor, the dual steps, the monitor and the run bounds
    # leaves non-finite values for the next oracle sweep to report, and no
    # NumPy RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = G.solve(G.library.make_example3(), np.zeros(2),
                      G.SolverConfig(gamma=G.GammaPolicy.fixed(0.5), max_outer=200))
    assert res.status == "oracle-failure" and res.outer_iterations == 6
    assert res.message == "player 0: non-finite objective value"


def test_shared_constraint_game_matches_grid_reference():
    game = shared_constraint_game()
    x_ref, lam_ref = equilibrium_by_multiplier_grid()
    assert lam_ref > 0
    res = G.solve(game, np.zeros(2), fast_config(outer_tol=1e-6, max_outer=20000))
    assert res.status == "converged"
    np.testing.assert_allclose(res.state.x, x_ref, atol=1e-4)
    for d in res.state.duals:
        np.testing.assert_allclose(d.lam, [lam_ref], atol=1e-4)


def test_multiplier_plateau_despite_degenerate_constraints(ex3_runs):
    # the disk game has an unbounded multiplier set at the solution; the
    # recorded multiplier trace must still level off instead of ramping
    for x0, res in ex3_runs.items():
        rows = res.trace.rows
        window = rows[-min(100, len(rows)):]
        lam_inf = np.array([np.max(r.lam_norm_inf) for r in window])
        rise = float(lam_inf[-1] - lam_inf[0])
        # a diverging multiplier gains O(1) per iteration; a plateau gains a
        # vanishing fraction of its level over a hundred iterations
        assert rise <= max(0.1, 0.05 * lam_inf[-1]), (x0, rise)
        assert np.isfinite(lam_inf[-1])


def test_pinned_primal_with_drifting_multipliers_ends_stalled_stationary():
    # from the origin the first block is pinned at its box corner while the
    # multipliers keep drifting: after 100 stalled inner exits in a row whose
    # drift neither decays nor drains, the run gives up
    game = G.library.builtin_instance("random-quadratic")
    res = G.solve(game, np.zeros(game.n), G.SolverConfig())
    kinds = [r.exit_kind for r in res.trace.rows]
    assert res.status == "stalled-stationary"
    assert res.outer_iterations == 297
    assert kinds[-100:] == ["stall"] * 100
    assert kinds[-101] != "stall"
    assert res.message == ("primal blocks pinned at a fixed point while the "
                           "multiplier drift is not decaying")


def test_x0_outside_private_sets_is_projected():
    game, plant = G.library.gen_random_quadratic_with_plant(2, 2, 1, seed=9)
    res = G.solve(game, np.full(game.n, 99.0), fast_config(max_outer=4000))
    # box bounds are [-10, 10]: every iterate stays inside
    assert np.all(np.abs(res.state.x) <= 10.0 + 1e-12)


def test_serial_reruns_bitwise_identical(ex3_game):
    r1 = G.solve(ex3_game, np.zeros(2), fast_config())
    r2 = G.solve(ex3_game, np.zeros(2), fast_config())
    np.testing.assert_array_equal(r1.state.x, r2.state.x)
    assert r1.outer_iterations == r2.outer_iterations
    assert [r.exit_kind for r in r1.trace.rows] == [r.exit_kind for r in r2.trace.rows]
