"""End-to-end solver behavior on small games."""

import copy
import csv
import json
import tracemalloc
import warnings
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

import gnepsolve as G
from gnepsolve import cli
from gnepsolve.core import BlockLayout, SimpleSet, constraint_violation
from gnepsolve.diagnostics import kkt_residual, projected_gradient_blocks
from gnepsolve.lagrangian import QUIET, evaluate_point, lagrangian_values
from gnepsolve.library import QuadraticGnepSpec, QuadraticPlayerSpec
import reference
from conftest import (ad_start, block_rows, blocks_of, detach_batched_oracle, fast_config,
                      free_affine_game, record_blocks, row_states, sampled_user_game,
                      spectral_norm_reference, stopping_residual)


def test_example3_converges_from_all_starts(ex3_runs):
    for x0, res in ex3_runs.items():
        assert res.status == "converged", x0
        np.testing.assert_allclose(res.state.x, [1.0, 0.0], atol=1e-3)


@pytest.mark.xfail(
    strict=True,
    reason="far starts on power (ROADMAP items 8 and 15): from const:1e20 every step "
    "is below the float spacing of x, so the run stops 'converged' after 1 iteration "
    "at residual 0.0 with x still 1e20, where the best-response gaps read 0 for the "
    "same reason; from const:1e6 (as from 1e10, 1e13, 1e14 and 1e15) it reaches a "
    "3,000 cap at residual 100.0 with every gap uncertified")
def test_power_from_far_starts_converges_to_the_equilibrium_from_zero():
    # the abstract's claim (i), no bounded iterates needed: a converged run
    # from a far start ends near the equilibrium const:0 reaches
    game = G.library.builtin_instance("power")
    want = G.solve(game, np.zeros(game.n), G.SolverConfig()).state.x
    ends = {s: G.solve(game, np.full(game.n, s), G.SolverConfig(max_outer=3000))
            for s in (1e6, 1e20)}
    assert all(res.status == "converged" and np.max(np.abs(res.state.x - want)) <= 1e-2
               for res in ends.values()), {s: res.status for s, res in ends.items()}


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


BOUND_KINDS = ("decrease", "x-descent", "dual-identity", "multiplier-coupling",
               "projected-gradient")


def start_failure_game():
    """One player with one constraint row whose objective is not finite
    anywhere, so the oracle sweep at the start point fails."""
    player = G.PlayerProblem(
        objective=lambda x: float("nan"),
        gradient=lambda x: np.array([1.0]),
        constraints=lambda x: np.array([x[0] - 1.0]),
        constraint_jacobian=lambda x: np.ones((1, 1)),
        private_set=SimpleSet.free(1), m=1)
    return G.GameInstance((player,), BlockLayout((1,)), "nan-at-start")


def test_start_point_oracle_failure_reports_every_bound():
    # a run that fails before its first iteration still checks every
    # monitored bound: on no rows and zero duals, none is violated
    res = G.solve(start_failure_game(), np.zeros(1), fast_config())
    assert res.status == "oracle-failure" and "non-finite" in res.message
    assert res.outer_iterations == 0
    assert all(len(col) == 0 for col in res.trace.columns.values())
    assert res.final_residual == np.inf
    assert res.trace.violations == {kind: [] for kind in BOUND_KINDS}
    assert res.trace.violation_counts == dict.fromkeys(BOUND_KINDS, 0)


def one_point_game(bound):
    """One player whose private set is the single point x = 1, with the
    non-quadratic objective (x - 3)^2 and the constraint x - bound <= 0:
    its smoothness constants are sampled, and no sampled pair is apart."""
    player = G.PlayerProblem(
        objective=lambda x: float((x[0] - 3.0) ** 2),
        gradient=lambda x: np.array([2.0 * (x[0] - 3.0)]),
        constraints=lambda x: np.array([x[0] - bound]),
        constraint_jacobian=lambda x: np.array([[1.0]]),
        private_set=SimpleSet.box([1.0], [1.0]), m=1)
    return G.GameInstance((player,), BlockLayout((1,)), f"one-point-{bound}")


def test_one_point_private_set_with_slack_constraint_converges():
    # the sampler finds no pair of points apart; the run binds zero sampled
    # constants and goes on, where it raised a bare RuntimeError before
    res = G.solve(one_point_game(2.0), np.zeros(1))
    assert res.status == "converged" and res.state.x.tolist() == [1.0]
    assert res.state.duals.lam.tolist() == [0.0]


def test_one_point_private_set_with_violated_constraint_stalls():
    # x is pinned at 1, where x - 0.5 <= 0 fails: the multiplier grows by
    # 0.5 per iteration and the run ends stalled-stationary, not in a traceback
    res = G.solve(one_point_game(0.5), np.zeros(1))
    assert res.status == "stalled-stationary" and res.state.x.tolist() == [1.0]
    assert [r.exit_kind for r in res.trace.rows] == ["stall"] * res.outer_iterations
    assert res.state.duals.lam.tolist() == [0.5 * res.outer_iterations]


def test_overflowed_multiplier_ends_in_an_oracle_failure_without_a_warning():
    # the constraint value 1e308 over beta = 1e-3, and example3's value 3
    # over beta = 1e-308, overflow player 0's multiplier to inf in the first
    # step at a finite x: the run names the multiplier and ends at its start,
    # with no NumPy warning on the way
    runs = [(one_point_game(-1e308), 1e-3, [0.0]), (G.library.make_example3(), 1e-308, [0.0, 0.0])]
    for game, beta, lam in runs:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = G.solve(game, np.zeros(game.n), G.SolverConfig(beta=beta))
        assert res.status == "oracle-failure"
        assert res.message == "player 0: non-finite multiplier"
        assert res.outer_iterations == 0 and res.state.duals.lam.tolist() == lam


def test_estimate_of_an_overflowed_multiplier_runs_under_the_callers_error_state():
    # estimate called on its own: the sampled (zero) bound times the
    # overflowed multiplier is NaN, quietly under solve's error state, and
    # the caller's own error state decides what else happens
    def estimate():
        return G.LipschitzEstimator(one_point_game(-1e308)).estimate(
            np.ones(1), np.array([np.inf]), jac_norms=np.ones(1))

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with np.errstate(**QUIET):
            est = estimate()
        with np.errstate(invalid="warn"), pytest.raises(RuntimeWarning, match="invalid value"):
            estimate()
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        estimate()
    assert est.L_theta.tolist() == [0.0] and np.isnan(est.L).tolist() == [True]


def test_start_point_overflow_ends_in_an_oracle_failure_without_a_warning():
    # the Jacobian 1e200 * 2 * (x - 0.5) is finite at the start 0.9, but its
    # squared norm overflows: the sampled bound inf times the zero multiplier
    # makes the smoothness estimate NaN, and the run ends naming it and the
    # Jacobian norm bound after 0 iterations, with no NumPy warning on the way
    player = G.PlayerProblem(
        objective=lambda x: float(x[0]),
        gradient=lambda x: np.array([1.0]),
        constraints=lambda x: np.array([1e200 * (x[0] - 0.5) ** 2 - 1.0]),
        constraint_jacobian=lambda x: np.array([[1e200 * (2.0 * (x[0] - 0.5))]]),
        private_set=SimpleSet.box([0.0], [1.0]), m=1)
    game = G.GameInstance((player,), BlockLayout((1,)), "overflowing-norm")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = G.solve(game, np.array([0.9]))
    assert res.status == "oracle-failure"
    assert res.message == ("player 0: NaN proximal weight from smoothness estimate nan "
                           "and constraint-Jacobian norm bound inf")
    assert res.outer_iterations == 0
    assert all(len(col) == 0 for col in res.trace.columns.values())
    assert res.trace.initial_jac_norm.tolist() == [np.inf]


def test_runs_ending_mid_block_keep_every_row(monkeypatch):
    # solve builds its trace rows in blocks (of 64 rows here) and the rest
    # when the loop ends: a converged run and an oracle failure, both past
    # one block and short of the next, keep one row per completed iteration
    B = blocks_of(monkeypatch, 64)
    game, _ = G.library.gen_random_quadratic_with_plant(2, 3, 2, seed=102)
    converged = G.solve(game, np.zeros(game.n), fast_config())
    failing = G.solve(*nan_past_a_block())
    assert converged.status == "converged" and failing.status == "oracle-failure"
    assert failing.outer_iterations == B + 6
    for res in (converged, failing):
        assert B < res.outer_iterations < 2 * B
        assert len(res.trace.rows) == res.outer_iterations
        assert [r.k for r in res.trace.rows] == list(range(1, res.outer_iterations + 1))
    assert failing.state.x.tolist() == [B + 6.0]
    assert [r.dx_2 for r in failing.trace.rows] == [1.0] * (B + 6)


def test_trace_rows_are_views_of_the_columns(monkeypatch):
    # the trace holds one column per TraceRow field, one row per completed
    # iteration, over a run past one block (of 64 rows), a stalled run and a
    # mid-block oracle failure; trace.rows builds each row from the columns'
    # entries
    blocks_of(monkeypatch, 64)
    quad, _ = G.library.gen_random_quadratic_with_plant(2, 3, 2, seed=102)
    for game, x0, cfg, status in [(quad, np.zeros(quad.n), fast_config(), "converged"),
                                  (one_point_game(0.5), np.zeros(1), G.SolverConfig(),
                                   "stalled-stationary"),
                                  (*nan_past_a_block(), "oracle-failure")]:
        res = G.solve(game, x0, cfg)
        assert res.status == status and res.outer_iterations > G.solver._BOUND_ROWS, game.name
        cols, rows = res.trace.columns, res.trace.rows
        assert list(cols) == [f.name for f in fields(G.solver.TraceRow)]
        assert {len(col) for col in cols.values()} == {len(rows)} == {res.outer_iterations}
        for j, row in enumerate(rows):
            for f, col in cols.items():
                assert np.asarray(getattr(row, f)).tobytes() == np.asarray(col[j]).tobytes()
            assert np.shares_memory(row.L_values, cols["L_values"])
        assert rows[-1].k == res.outer_iterations
        assert [r.k for r in rows[-3:]] == cols["k"][-3:].tolist()


def test_reading_the_rows_holds_one_row_at_a_time(a18_run):
    # a row is built when it is read: walking every row of a long trace
    # allocates a small fraction of what its columns hold (a list of every
    # row would take about seven times their bytes)
    nbytes = sum(col.nbytes for col in a18_run.trace.columns.values())
    assert a18_run.outer_iterations >= 1000
    tracemalloc.start()
    try:
        census = Counter(row.exit_kind for row in a18_run.trace.rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(census.values()) == a18_run.outer_iterations
    assert peak < nbytes / 10, (peak, nbytes)


def nan_past_a_block():
    """``(game, x0, config)`` of a run whose oracle sweep fails at iteration
    ``_BOUND_ROWS + 7``: x moves up by 1 per iteration (gradient -1, gamma
    1), and the objective is not finite from x = _BOUND_ROWS + 7 on."""
    B = G.solver._BOUND_ROWS
    player = G.PlayerProblem(
        objective=lambda x: float("nan") if x[0] > B + 6.5 else -float(x[0]),
        gradient=lambda x: np.array([-1.0]),
        constraints=lambda x: np.zeros(0),
        constraint_jacobian=lambda x: np.zeros((0, 1)),
        private_set=SimpleSet.free(1), m=0)
    return (G.GameInstance((player,), BlockLayout((1,)), "nan-past-a-block"), np.zeros(1),
            fast_config(gamma=G.GammaPolicy.fixed(1.0), max_outer=10 * B))


def test_block_rows_are_the_one_row_rows(monkeypatch):
    # every trace row, its exit label, L_values and L_x_step among its
    # fields, is bit for bit what the block pass gives on that row alone,
    # judged against the previous row's values: a quad-suite run past one
    # block, random-quadratic's default run (its last 100 rows stall), an
    # oracle failure in mid-block and a power run past one block, whose
    # own-block Jacobian norms the block pass takes from the stacked J;
    # blocks of 64 rows
    B = blocks_of(monkeypatch, 64)
    quad, _ = G.library.gen_random_quadratic_with_plant(2, 3, 2, seed=102)
    rq = G.library.builtin_instance("random-quadratic")
    power = G.library.builtin_instance("power")
    kinds, trace_rows = set(), G.solver._trace_rows
    blocks = record_blocks(monkeypatch)
    for game, x0, cfg, status in [(quad, np.zeros(quad.n), fast_config(), "converged"),
                                  (rq, np.zeros(rq.n), G.SolverConfig(), "stalled-stationary"),
                                  (*nan_past_a_block(), "oracle-failure"),
                                  (power, np.zeros(power.n), G.SolverConfig(max_outer=2 * B + 9),
                                   "max_outer")]:
        blocks.clear()
        res = G.solve(game, x0, cfg)
        assert res.status == status and res.outer_iterations > B, game.name
        for f, col in res.trace.columns.items():   # the trace is the blocks, stacked, to its end
            stacked = np.concatenate([built[f] for _, built in blocks])[:len(col)]
            assert stacked.shape == col.shape and stacked.tobytes() == col.tobytes()
        if game is power:   # moving data: no fixed own-block norms, J stacked per block
            assert block_sizes(blocks) == [B, B, 9]
            assert all(constants is None for (*_, constants, _), _ in blocks)
        for (game_, anchor, store, rows, constants, stall_tol), built in blocks:
            for j in range(rows):
                alone = trace_rows(game_, anchor, block_rows(store, j), 1, constants, stall_tol)
                assert alone["exit_kind"][0] == built["exit_kind"][j]
                for f in fields(G.solver.TraceRow):
                    assert (np.asarray(alone[f.name][0]).tobytes()
                            == np.asarray(built[f.name][j]).tobytes()), (game.name, f.name)
                # the next row's anchor: this row's k and values (its state,
                # J and objective data are the store's row before the next)
                anchor = (built["k"][j], built["L_values"][j])
        kinds.update(res.trace.columns["exit_kind"].tolist())
        if game is rq:
            assert res.outer_iterations == 297 and block_sizes(blocks) == [B] * 5   # 23 dropped
            assert res.trace.columns["exit_kind"][-101:].tolist() == ["forced"] + ["stall"] * 100
    assert kinds == {"descent", "true", "forced", "stall"}


def test_values_and_labels_are_computed_once_per_block(monkeypatch):
    # a run that never stalls evaluates the Lagrangian and the segment sums
    # once per block of trace rows (64 here), not once per iteration: run
    # lengths with the same number of blocks make the same calls
    B = blocks_of(monkeypatch, 64)
    game, _ = G.library.gen_random_quadratic_with_plant(2, 3, 2, seed=102)
    calls = {}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(G.solver, "lagrangian_values",
                        counting("lagrangian_values", G.solver.lagrangian_values))
    monkeypatch.setattr(G.solver, "_exit_labels", counting("_exit_labels", G.solver._exit_labels))
    monkeypatch.setattr(G.core.Segments, "dot", counting("dot", G.core.Segments.dot))
    counts = {}
    for rows in (B - 7, B, B + 1, B + 40):
        calls.update(lagrangian_values=0, _exit_labels=0, dot=0)
        res = G.solve(game, np.zeros(game.n), fast_config(max_outer=rows))
        assert res.status == "max_outer" and res.outer_iterations == rows
        blocks = -(-rows // B)
        assert calls["lagrangian_values"] == 1 + blocks   # initial_L, then one per block
        assert calls["_exit_labels"] == blocks            # no iteration labelled its own step
        counts[rows] = (blocks, calls["dot"])
    assert counts[B - 7] == counts[B] and counts[B + 1] == counts[B + 40]
    per_block = counts[B + 1][1] - counts[B][1]
    assert 0 < per_block < B and counts[B][1] - per_block < B
    # a converging tail whose steps could stall (dx_inf <= tol < dlambda_inf)
    # and never do: still one label pass per block, none per iteration
    game, plant = G.library.gen_random_quadratic_with_plant(3, 2, 1, seed=103)
    calls.update(lagrangian_values=0, _exit_labels=0)
    res = G.solve(game, plant, fast_config(outer_tol=1e-6, max_outer=30000))
    blocks = -(-res.outer_iterations // B)
    assert res.status == "converged" and res.outer_iterations == 1605
    assert sum(r.dx_inf <= 1e-6 < r.dlambda_inf for r in res.trace.rows) == 376
    assert "stall" not in {r.exit_kind for r in res.trace.rows}
    assert calls["lagrangian_values"] == 1 + blocks and calls["_exit_labels"] == blocks


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


def test_fixed_run_constants_are_stored_once(monkeypatch):
    # data that cannot move gives its per-run columns one row each: every
    # row of gamma, M_theta_own, M_g_own and the Jacobian norms is a read-only
    # view of that row, past one block of rows (64 here) too
    blocks_of(monkeypatch, 64)
    game, plant = G.library.gen_random_quadratic_with_plant(3, 2, 2, seed=4)
    res = G.solve(game, plant, fast_config(max_outer=200))
    assert res.outer_iterations > G.solver._BOUND_ROWS
    for f in ("gamma", "M_theta_own", "M_g_own", "jac_norm", "jac_own_norm"):
        col = res.trace.columns[f]
        assert col.shape == (res.outer_iterations, game.num_players), f
        assert col.strides[0] == 0 and not col.flags.writeable, f
        assert col.tobytes() == np.tile(col[0], (len(col), 1)).tobytes(), f


def test_varying_jacobian_norms_match_fresh_norms(monkeypatch):
    # power's Jacobians change with x: each row's norms, computed stacked by
    # shape, and each resample's largest norm over the points its batched
    # draw gave, computed one sampled pair at a time, are the bits of the
    # per-matrix formula.
    # A k-capped run ends at the state its last row describes, and every row
    # carries the fresh norms at its own iterate.
    game = G.library.builtin_instance("power")
    x0 = np.full(game.n, 5.0)
    drawn, resamples, iterates = [], [], []
    draw, resample = G.LipschitzEstimator._draw_pairs, G.LipschitzEstimator._resample
    step = G.solver._step

    def recording_step(game, store, r, *args):
        move = step(game, store, r, *args)
        iterates.append(store["z"][r + 1, :game.n].copy())   # the new point
        return move

    def recording_draw(self):
        drawn.append(draw(self))
        return drawn[-1]

    def recording_resample(self, x):
        drawn.clear()
        resample(self, x)
        resamples.append((drawn[-1], self._jac_max))

    monkeypatch.setattr(G.LipschitzEstimator, "_draw_pairs", recording_draw)
    monkeypatch.setattr(G.LipschitzEstimator, "_resample", recording_resample)
    monkeypatch.setattr(G.solver, "_step", recording_step)
    for K in (1, 150, 400):
        before = len(resamples)
        iterates.clear()
        res = G.solve(game, x0, G.SolverConfig(max_outer=K))
        assert res.outer_iterations == K
        full, own = fresh_jacobian_norms(game, res.state.x)
        assert res.trace.rows[-1].jac_norm.tobytes() == full.tobytes()
        assert res.trace.rows[-1].jac_own_norm.tobytes() == own.tobytes()
        assert len(iterates) == K
        for row, x in zip(res.trace.rows, iterates):
            full, own = fresh_jacobian_norms(game, x)
            assert row.jac_norm.tobytes() == full.tobytes()
            assert row.jac_own_norm.tobytes() == own.tobytes()
    assert len(resamples) - before >= 3   # the 400-iteration run resamples
    full, own = fresh_jacobian_norms(game, G.initial_state(game, x0).x)
    assert res.trace.initial_jac_norm.tobytes() == full.tobytes()
    assert res.trace.initial_jac_own_norm.tobytes() == own.tobytes()
    for points, jac_max in resamples:
        assert points.shape == (2, G.solver._SAMPLE_PAIRS, game.n)
        pairs = [(a, b) for a, b in zip(*points) if np.linalg.norm(a - b) > 1e-10]
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
    # bits of a fresh per-player computation at that row's iterate (its x in
    # the trace)
    game = mixed_run_game()
    assert len(game.constrained_runs) == 1
    assert [game.constant_jacobian(i) for i in range(3)] == [True, False, True]
    blocks = record_blocks(monkeypatch)
    res = G.solve(game, np.zeros(game.n), G.SolverConfig(max_outer=40))
    iterates = [x for _, (x, _) in row_states(blocks, res.outer_iterations)]
    assert len(res.trace.rows) == len(iterates) > 10
    for row, x in zip(res.trace.rows, iterates):
        full, own = fresh_jacobian_norms(game, x)
        assert row.jac_norm.tobytes() == full.tobytes()
        assert row.jac_own_norm.tobytes() == own.tobytes()
    assert len({row.jac_own_norm[1] for row in res.trace.rows}) > 10   # the curved player's moved


def test_trace_quantities_match_their_single_implementations(monkeypatch, a18_game, ad_game):
    # the trace's Lagrangian values (after each iteration and at its primal
    # step), multiplier norms, projected-gradient blocks, feasibility and
    # stopping residual are the quantities the public functions compute, bit
    # for bit; the state after k iterations is the state of a k-capped run.
    # a18; an affine quad-suite game, whose gamma is computed once per run,
    # from the origin, where its rows are active, run past the first block of
    # trace rows that solve builds at once (64 here); Arrow-Debreu, curved
    blocks_of(monkeypatch, 64)
    quad, _ = G.library.gen_random_quadratic_with_plant(2, 3, 2, seed=102)
    ad_gamma = G.GammaPolicy.fixed(np.array([30.0] * 5 + [260.0] * 2 + [300.0]))
    for game, x0, cfg, K in [(a18_game, np.zeros(a18_game.n), {}, 20),
                             (quad, np.zeros(quad.n), {"outer_tol": 1e-6},
                              G.solver._BOUND_ROWS + 6),
                             (ad_game, ad_start(ad_game), {"gamma": ad_gamma}, 20)]:
        check_trace_quantities(game, x0, cfg, K)


def check_trace_quantities(game, x0, cfg, K):
    pen, rows = fast_config().penalty(), game.rows
    res = G.solve(game, x0, fast_config(max_outer=K, **cfg))
    assert res.status == "max_outer" and len(res.trace.rows) == K, game.name
    states = [G.initial_state(game, x0)]
    states += [G.solve(game, x0, fast_config(max_outer=k, **cfg)).state for k in range(1, K)]
    states.append(res.state)

    def values(st):
        return np.array([G.lagrangian_value(game, i, st.x, d, pen)
                         for i, d in enumerate(st.duals)])

    assert res.trace.initial_L.tobytes() == values(states[0]).tobytes()
    for row, prev, st in zip(res.trace.rows, states, states[1:]):
        assert row.L_values.tobytes() == values(st).tobytes()
        at = evaluate_point(game, st.x)
        at_step = lagrangian_values(at.theta, at.g_values, prev.duals.lam, rows)
        assert row.L_x_step.tobytes() == at_step.tobytes()
        assert row.dlam_2.tobytes() == rows.norm(st.duals.lam - prev.duals.lam).tobytes()
        assert row.lam_norm2.tobytes() == rows.norm(st.duals.lam).tobytes()
        # the rows' monitor-only quantities, built by solve over blocks of rows
        blocks = projected_gradient_blocks(game, st, pen)
        for key in ("qx", "qlam"):
            assert getattr(row, key).tobytes() == np.array([b[key] for b in blocks]).tobytes()
        feas = constraint_violation(evaluate_point(game, st.x).g_values)
        assert np.array([row.feas, row.dx_2]).tobytes() == np.array(
            [feas, np.linalg.norm(st.x - prev.x)]).tobytes()
        assert row.lam_norm_inf.tobytes() == rows.max_abs(st.duals.lam).tobytes()
    assert any(np.any(row.dlam_2 > 0) for row in res.trace.rows), game.name
    last = res.trace.rows[-1]
    blocks = projected_gradient_blocks(game, res.state, pen)
    for key in ("qx", "qlam"):
        assert getattr(last, key).tobytes() == np.array([b[key] for b in blocks]).tobytes()
    assert np.any(last.qlam > 0), game.name
    kkt = kkt_residual(game, res.state.x, [d.lam for d in res.state.duals])
    assert last.feas > 0 and last.feas == max(feas for _, _, feas in kkt), game.name
    assert res.final_residual == stopping_residual(states[-2], res.state)
    assert res.final_residual == max(last.dx_inf, last.dlambda_inf)


def test_rows_keep_the_constants_of_their_iteration(monkeypatch):
    # every row's gamma and smoothness constants are what a fresh estimator
    # gives at that iteration's anchor (x_k, lam_k), row k's x and lam in the
    # trace, estimating at every anchor in turn (so it resamples where the
    # run did and draws the same stream), and its Jacobian norms the fresh
    # norms at its point: the rows keep the estimator's arrays, and a
    # resample binds new ones rather than writing into those earlier rows
    # hold. power (with and without its batched oracle) from 5 resamples
    # several times; a user-built game samples too, example3 does not.
    blocks = record_blocks(monkeypatch)
    cfg = G.SolverConfig(max_outer=400)
    pen = cfg.penalty()
    for game, start in [(G.library.builtin_instance("power"), 5.0),
                        (detach_batched_oracle(G.library.builtin_instance("power")), 5.0),
                        (sampled_user_game(), 0.5), (G.library.make_example3(), 0.0)]:
        blocks.clear()
        res = G.solve(game, np.full(game.n, start), cfg)
        states = row_states(blocks, res.outer_iterations)
        assert len(states) == res.outer_iterations > 100, game.name
        reference_estimator = G.LipschitzEstimator(game, seed=cfg.seed)
        for row, ((y, lam), (x_next, _)) in zip(res.trace.rows, states):
            est = reference_estimator.estimate(y, lam)
            gamma, _ = G.choose_gamma(est, pen, cfg.gamma)
            assert row.gamma.tobytes() == gamma.tobytes()
            assert row.M_theta_own.tobytes() == est.L_theta.tobytes()
            assert row.M_g_own.tobytes() == est.M_g_own.tobytes()
            assert row.jac_norm.tobytes() == fresh_jacobian_norms(game, x_next)[0].tobytes()
        if game.name.startswith("power"):
            assert len({row.M_g_own.tobytes() for row in res.trace.rows}) >= 3


def test_affine_quadratic_rows_take_the_constants_of_one_estimate(monkeypatch):
    # stacked quadratic data with no curved player fixes the estimate: solve
    # takes it, gamma and gamma's repeat over the blocks once per run, and
    # every row's gamma is still what a fresh estimate at that iteration's
    # anchor (x_k, lam_k), row k's x and lam in the trace, gives; the row's
    # step is the reference step from that anchor with that gamma repeated
    # over the blocks. A curved game (example3) estimates every iteration.
    calls = []
    estimate = G.LipschitzEstimator.estimate

    def counting_estimate(self, *args, **kwargs):
        calls.append(self.game.name)
        return estimate(self, *args, **kwargs)

    monkeypatch.setattr(G.LipschitzEstimator, "estimate", counting_estimate)
    blocks = record_blocks(monkeypatch)
    game, _ = G.library.gen_random_quadratic_with_plant(2, 3, 2, seed=102)
    assert G.LipschitzEstimator(game).fixed
    cfg = fast_config()
    res = G.solve(game, np.zeros(game.n), cfg)
    states = row_states(blocks, res.outer_iterations)
    assert calls == [game.name] and len(states) == res.outer_iterations > 100
    assert len({lam.tobytes() for (_, lam), _ in states}) > 100   # lam_k moves
    pen = cfg.penalty()
    for row, ((y, lam), (x_next, lam_next)) in zip(res.trace.rows, states):
        gamma, _ = G.choose_gamma(estimate(G.LipschitzEstimator(game), y, lam),
                                  pen, G.GammaPolicy.auto())
        assert row.gamma.tobytes() == gamma.tobytes()
        anchor = reference.build_anchor(game, lam, gamma, evaluate_point(game, y),
                                        game.layout.segments.repeat(gamma))
        step = reference.solve_inner(game, anchor, cfg)
        assert step.x_next.tobytes() == x_next.tobytes()
        assert step.lam.tobytes() == lam_next.tobytes()
    calls.clear()
    ex3 = G.library.make_example3()
    assert not G.LipschitzEstimator(ex3).fixed
    res = G.solve(ex3, np.zeros(2), fast_config(max_outer=50))
    assert len(calls) == res.outer_iterations > 1


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
    out = {kind: [] for kind in BOUND_KINDS}
    for i, d in enumerate(duals):
        for j in range(d.lam.shape[0]):
            z, lam, mu = d.z[j:j + 1], d.lam[j:j + 1], d.mu[j:j + 1]
            if z.tobytes() != bytes(8) or mu.tobytes() != lam.tobytes():
                out["dual-identity"].append(f"player={i} row={j}: z {float(z[0])!r}, "
                                            f"lam {float(lam[0])!r}, mu {float(mu[0])!r}")
    rows, N = trace.rows, game.num_players
    if not rows:
        return out
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
    # the recorded run, and a damaged copy that trips every check over
    # more rows than solve builds at once, with exported duals that break
    # the identities by a sign bit and by one ulp; example3's Jacobian norms
    # change from row to row. Then the edge traces: one row, and none (an
    # oracle failure at the start point), each also damaged.
    game = request.getfixturevalue("a18_game" if run == "a18_run" else "ex3_game")
    result = request.getfixturevalue(run)
    cfg = fast_config()
    # a18 is a fixed run: its constant columns are one row that every row
    # views, which the bounds reduce as that row; the damaged copy's are not
    constant = ("gamma", "M_theta_own", "M_g_own", "jac_norm", "jac_own_norm")
    assert (G.LipschitzEstimator(game).fixed == (run == "a18_run")
            == all(result.trace.columns[f].strides[0] == 0 for f in constant))

    def check(trace, game, duals):
        got, counts = G.verify_run_bounds(trace, cfg, duals)
        want = _run_bounds_one_at_a_time(trace, game, cfg, duals)
        # the first 20 messages of each bound, and every violation counted
        assert got == {kind: messages[:20] for kind, messages in want.items()}
        assert counts == {kind: len(messages) for kind, messages in want.items()}
        return counts

    damaged = copy.deepcopy(result.trace)
    cols = damaged.columns
    assert all(cols[f].strides[0] != 0 for f in constant)
    for j in range(len(cols["k"])):
        if j % 3 == 0:
            cols["L_values"][j] = cols["L_values"][j] + 1e-3 * (1 + j % 5)
        if j % 4 == 1:
            cols["L_x_step"][j] = cols["L_x_step"][j] + 1e-2
        if j % 5 == 2:
            cols["dlam_2"][j] = cols["dlam_2"][j] * 1e6 + 1.0
        if j % 6 == 4:
            cols["qx"][j] = cols["qx"][j] + 1e3
    damaged_duals = result.state.duals.copy()
    damaged_duals.z[0] = -0.0
    damaged_duals.mu[-1] = np.nextafter(damaged_duals.lam[-1], np.inf)
    assert len(cols["k"]) > G.solver._BOUND_ROWS
    for trace, duals in ((result.trace, result.state.duals), (damaged, damaged_duals)):
        counts = check(trace, game, duals)
    assert all(counts.values())
    assert max(counts.values()) > 20
    bad_start = start_failure_game()
    for g, res in ((game, G.solve(game, np.zeros(game.n), fast_config(max_outer=1))),
                   (bad_start, G.solve(bad_start, np.zeros(1), cfg))):
        assert len(res.trace.rows) == res.outer_iterations == (g is game)
        damaged = copy.deepcopy(res.trace)
        damaged.columns["L_values"][:] = damaged.initial_L + 1.0
        damaged_duals = res.state.duals.copy()
        damaged_duals.z[0] = -0.0
        check(res.trace, g, res.state.duals)
        counts = check(damaged, g, damaged_duals)
        assert counts["dual-identity"] == 1
        assert counts["decrease"] == len(damaged.columns["k"]) * g.num_players


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


def test_a_failure_the_block_pass_finds_ends_the_run_at_its_iteration(monkeypatch):
    # player 0's objective value overflows at iteration 138 while every
    # gradient stays finite, so the loop runs on, and the block pass that
    # builds the rows after the second block finds it: the run ends as an
    # oracle failure at iteration 138 would, with the 137 rows and the state
    # before it, the rows the loop ran past it dropped and no NumPy warning;
    # blocks of 64 rows
    B = blocks_of(monkeypatch, 64)
    blocks = record_blocks(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = G.solve(free_affine_game(), np.ones(2),
                      G.SolverConfig(gamma=G.GammaPolicy.fixed(0.1)))
    assert res.status == "oracle-failure"
    assert res.message == "player 0: non-finite objective value"
    assert res.outer_iterations == len(res.trace.rows) == 137 == 2 * B + 9
    assert res.state.x.tobytes() == np.array([-2.499792023329836e+153,
                                              -1.0770944519017236e+131]).tobytes()
    assert res.state.duals.lam.tobytes() == np.zeros(1).tobytes()
    assert res.final_residual == max(res.trace.rows[-1].dx_inf, res.trace.rows[-1].dlambda_inf)
    (_, _, _, rows, *_), built = blocks[-1]
    assert len(built["k"]) == 9 < rows


def constraint_overflow_game():
    """Two players with free one-variable blocks minimizing ``0.5 x1^2 + x1``
    and ``0.5 x2^2 + x2``; player 1 has the curved row ``-1e100 x1^2 - 1 <=
    0``, never active (its multiplier stays zero) and concave only in its
    rival's block. Under a fixed gamma of 0.1 each step overshoots ninefold,
    and from ``(1, 1)`` the row's value overflows to -inf at iteration 109,
    while the objective values, the gradients and the Jacobian are still
    finite."""
    A = np.zeros((2, 2))
    A[0, 0] = -2e100
    players = [QuadraticPlayerSpec(np.diag([1.0, 0.0]), np.array([1.0, 0.0]), SimpleSet.free(1)),
               QuadraticPlayerSpec(np.diag([0.0, 1.0]), np.array([0.0, 1.0]), SimpleSet.free(1),
                                   [(A, np.zeros(2), -1.0)])]
    return QuadraticGnepSpec(BlockLayout((1, 1)), players, "constraint-overflow").to_game()


def test_a_constraint_value_that_turns_non_finite_ends_the_run_before_it(monkeypatch):
    # the loop runs past iteration 109, whose constraint value is -inf, to
    # the end of its 64-row block; the block pass finds it there, and the run
    # ends as the per-iteration check ended it: 108 rows, their last state,
    # and the full sweep's message at iteration 109, with no NumPy warning
    B = blocks_of(monkeypatch, 64)
    blocks = record_blocks(monkeypatch)
    game = constraint_overflow_game()
    assert not G.LipschitzEstimator(game).fixed
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = G.solve(game, np.ones(2), G.SolverConfig(gamma=G.GammaPolicy.fixed(0.1)))
    assert res.status == "oracle-failure"
    assert res.message == "player 1: non-finite constraint value"
    assert res.outer_iterations == len(res.trace.rows) == 108 == B + 44
    assert res.state.x.tobytes() == np.full(2, 2.2867622545673627e+103).tobytes()
    assert res.state.duals.lam.tobytes() == np.zeros(1).tobytes()
    assert res.final_residual == 2.540846949519292e+103
    (_, _, store, rows, *_), built = blocks[-1]
    assert len(built["k"]) == 44 < rows
    x, g = store["z"][45, :game.n], store["g"][44]   # iteration 109
    point = G.lagrangian.raw_sweep(game, x)
    assert np.isfinite(point[0]).all() and np.isfinite(point[1]).all()
    assert np.isfinite(point[3]).all() and g.tolist() == [-np.inf]


def test_a_diverging_game_with_a_simplex_player_ends_in_an_oracle_failure():
    # player 0 (free) overshoots 99-fold per step and drags the simplex
    # player's gradient with it; the loop runs past the row whose objective
    # value overflows, projecting the simplex block of huge and then
    # non-finite steps, which raises nothing: the run ends before that row
    # (an IndexError out of the simplex projection before)
    Q1, Q2 = np.zeros((3, 3)), np.zeros((3, 3))
    Q1[0, 0] = 1.0
    Q2[1:, 1:], Q2[1, 0], Q2[0, 1] = np.eye(2), 0.5, 0.5
    players = [QuadraticPlayerSpec(Q1, np.array([1.0, 0.0, 0.0]), SimpleSet.free(1)),
               QuadraticPlayerSpec(Q2, np.zeros(3), SimpleSet.simplex(2))]
    game = QuadraticGnepSpec(BlockLayout((1, 2)), players, "simplex-diverging").to_game()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = G.solve(game, np.array([1.0, 0.5, 0.5]),
                      G.SolverConfig(gamma=G.GammaPolicy.fixed(0.01)))
    assert res.status == "oracle-failure"
    assert res.message == "player 0: non-finite objective value"
    assert res.outer_iterations == 77 and res.state.x[1:].tolist() == [0.0, 1.0]


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


def test_a_stall_stop_ends_the_run_before_a_later_oracle_failure(monkeypatch):
    # the one-point game stops at row 100, inside a 256-row block; its
    # oracle turns NaN at the 150th objective call, so the loop runs on
    # until that sweep fails and the block is built only then: the run still
    # ends at the stop's row, with its state, the rows past it dropped
    blocks_of(monkeypatch, 256)
    want = G.solve(one_point_game(0.5), np.zeros(1))
    game, calls = one_point_game(0.5), []
    player = game.players[0]

    def objective(x):
        calls.append(None)
        return float("nan") if len(calls) >= 150 else player.objective(x)

    game = G.GameInstance((replace(player, objective=objective),), game.layout, game.name)
    res = G.solve(game, np.zeros(1))
    assert len(calls) == 150   # the start's sweep and 149 iterations' sweeps
    assert want.status == res.status == "stalled-stationary"
    assert res.message == ("primal blocks pinned at a fixed point while the "
                           "multiplier drift is not decaying")
    assert want.outer_iterations == res.outer_iterations == len(res.trace.rows) == 100
    assert res.state.x.tobytes() == want.state.x.tobytes()
    assert res.state.duals.lam.tobytes() == want.state.duals.lam.tobytes()
    for f, col in want.trace.columns.items():
        assert res.trace.columns[f].tobytes() == col.tobytes(), f


def stall_columns(steps):
    """Trace columns of ``(exit label, residual, max |lam|)`` steps, as the
    stall stop reads them: the residual as ``dlambda_inf`` (``dx_inf`` is
    zero) and ``max |lam|`` spread over two players."""
    kinds, residuals, lam_infs = zip(*steps)
    return {"exit_kind": np.array(kinds), "dx_inf": np.zeros(len(steps)),
            "dlambda_inf": np.array(residuals),
            "lam_norm_inf": np.array([[lam_inf, 0.5 * lam_inf] for lam_inf in lam_infs])}


def fed_until_stop(watch, columns):
    """The number of rows ``watch`` reads, one row per block, before it
    stops; None if it never does."""
    for j in range(len(columns["exit_kind"])):
        if watch.stops({f: col[j:j + 1] for f, col in columns.items()}) is not None:
            return j + 1
    return None


def test_stall_stop_reads_the_drift_of_a_run_of_stalls():
    P, tol = G.solver._STALL_PATIENCE, 1e-4
    # drift that neither decays nor drains: the 100th stall in a row stops,
    # counted from the last other label
    growing = [("forced", 1.0, 0.0)] + [("stall", 1.0, 0.5 * j) for j in range(2 * P)]
    assert fed_until_stop(G.solver._StallWatch(tol), stall_columns(growing)) == 1 + P
    interrupted = growing[:P] + [("true", 1.0, 0.0)] + growing[P:]
    assert fed_until_stop(G.solver._StallWatch(tol), stall_columns(interrupted)) == 2 * P + 1
    # a residual down by 2% over the run resets the streak, and the run goes
    # on; a fall just short of 2% does not
    for last, stops in ((0.98, None), (np.nextafter(0.98, 1.0), P)):
        steps = [("stall", 1.0, 1.0)] * (P - 1) + [("stall", last, 1.0)]
        watch = G.solver._StallWatch(tol)
        assert fed_until_stop(watch, stall_columns(steps)) == stops
        if stops is None:
            assert watch.streak == 0
            # the next run of 100 starts from the step after the reset
            assert fed_until_stop(watch, stall_columns([("stall", last, 1.0)] * P)) == P
    # multipliers draining by 0.25 * 100 * tol over the run reset it too
    drop = 0.25 * P * tol
    for end, stops in ((5.0 - drop, None), (np.nextafter(5.0 - drop, 6.0), P)):
        steps = [("stall", 1.0, 5.0)] * (P - 1) + [("stall", 1.0, end)]
        assert fed_until_stop(G.solver._StallWatch(tol), stall_columns(steps)) == stops


@pytest.mark.parametrize("block", [1, 7, 64, 100, 128, 256, 1000, None],
                         ids=lambda b: "default" if b is None else str(b))
def test_stall_stop_does_not_depend_on_the_block_size(monkeypatch, block):
    # the stop reads the labels of each built block, and the run ends at the
    # row that stops it, the rows the loop ran past it dropped: whatever the
    # block size (the default byte-sized blocks, 256 rows and blocks of up to
    # 1000 rows, past the stop's 100 among them), each run stops where it
    # does when every row is built alone, with the same bytes
    def runs():
        rq = G.library.builtin_instance("random-quadratic")
        rows4, plant = G.library.gen_random_quadratic_with_plant(3, 1, 4, seed=101)
        return [(rq, np.zeros(rq.n), G.SolverConfig()),
                (one_point_game(0.5), np.zeros(1), G.SolverConfig()),
                (rows4, plant, fast_config(outer_tol=1e-6, max_outer=30000))]

    blocks_of(monkeypatch, 1)
    expected = [G.solve(*run) for run in runs()]
    monkeypatch.undo()
    blocks = record_blocks(monkeypatch)
    if block is not None:
        blocks_of(monkeypatch, block)
    for want, run in zip(expected, runs()):
        got = G.solve(*run)
        assert got.status == want.status == "stalled-stationary", run[0].name
        assert got.outer_iterations == want.outer_iterations
        assert got.state.x.tobytes() == want.state.x.tobytes()
        assert got.state.duals.lam.tobytes() == want.state.duals.lam.tobytes()
        for f, col in want.trace.columns.items():
            assert got.trace.columns[f].tobytes() == col.tobytes(), f
    assert [r.outer_iterations for r in expected] == [297, 100, 1042]
    # every run stops inside a block that the loop filled: no block ends early
    assert set(block_sizes(blocks)) == {block or G.solver._BOUND_ROWS}


def block_sizes(blocks):
    return [rows for (_, _, _, rows, *_), _ in blocks]


def test_trace_blocks_fit_the_byte_budget(monkeypatch):
    # a block holds as many rows as the arrays they hold fit in the byte
    # budget, at most 256: each row of quad-wide's 40x4x2 game holds x and
    # G @ x (n floats each), lam and g (M each), and no J (every row's is
    # the start's), so its blocks take the rows that fit the budget, fewer
    # than 256, one row more would not; a small planted game's blocks take
    # 256 rows
    blocks = record_blocks(monkeypatch)
    wide, plant = G.library.gen_random_quadratic_with_plant(40, 4, 2, seed=1)
    res = G.solve(wide, plant, fast_config(outer_tol=1e-6, max_outer=300))
    assert res.outer_iterations == 300
    sizes, row_bytes = block_sizes(blocks), 8 * (2 * wide.n + 2 * wide.total_constraints)
    B = sizes[0]
    assert sizes == [B] * (300 // B) + [300 % B]
    assert B < G.solver._BOUND_ROWS and B * row_bytes <= G.solver._BLOCK_BYTES < (B + 1) * row_bytes
    blocks.clear()
    small, plant = G.library.gen_random_quadratic_with_plant(2, 2, 1, seed=9)
    res = G.solve(small, plant, fast_config(max_outer=600))
    assert res.outer_iterations == 600 and block_sizes(blocks) == [256, 256, 88]


def test_blocks_are_full_except_the_last(monkeypatch):
    # s116's 3,417 rows (a quad-certify game): blocks are sized by bytes
    # alone, so every block but the last holds 256 rows, and the stall stop
    # is fed every row but the converged one
    blocks = record_blocks(monkeypatch)
    fed, stops = [], G.solver._StallWatch.stops
    monkeypatch.setattr(G.solver._StallWatch, "stops",
                        lambda watch, block: (fed.append(len(block["k"])), stops(watch, block))[1])
    game, plant = G.library.gen_random_quadratic_with_plant(2, 3, 2, seed=116)
    res = G.solve(game, plant, fast_config(outer_tol=1e-6, max_outer=30000))
    assert res.status == "converged" and res.outer_iterations == 3417
    assert block_sizes(blocks) == [256] * 13 + [89]
    assert fed == [256] * 13 + [88]


def block_size_runs():
    """A planted game that converges past one 256-row block, and power over
    1,500 iterations, whose estimator resamples inside blocks."""
    quad, plant = G.library.gen_random_quadratic_with_plant(2, 2, 1, seed=9)
    power = G.library.builtin_instance("power")
    return [(quad, plant, fast_config(outer_tol=1e-6, max_outer=30000), "converged"),
            (power, np.zeros(power.n), G.SolverConfig(max_outer=1500), "max_outer")]


def test_the_block_pass_reads_views_of_the_one_row_store(monkeypatch):
    # every step of a run writes into one row store, and the trace block
    # pass reads views of it (the rows' points, multipliers, constraint
    # values, objective data and, for moving data, Jacobians and oracle
    # values): no row is held twice and no block stacks its rows; no trace
    # column and neither half of the final state is a view of the store,
    # which the next block overwrites
    stores, reads = [], []
    step, objective_rows = G.solver._step, G.solver._objective_rows
    monkeypatch.setattr(G.solver, "_step",
                        lambda game, store, *args: (stores.append(store),
                                                    step(game, store, *args))[1])
    monkeypatch.setattr(G.solver, "_objective_rows",
                        lambda *args: (reads.append(args), objective_rows(*args))[1])
    for game, x0, cfg, status in block_size_runs():
        stores.clear()
        reads.clear()
        res = G.solve(game, x0, cfg)
        assert res.status == status and len(reads) > 1, game.name
        store = stores[0]
        assert len(stores) == res.outer_iterations and all(s is store for s in stores)
        for _, (x_a, lam_a, J_a, obj_a), x, lam, g, J, _, obj, theta in reads:
            pairs = [(x_a, "z"), (lam_a, "z"), (x, "z"), (lam, "z"), (g, "g"), (obj_a, "obj"),
                     (obj, "obj"), (J_a, "J"), (J, "J")]
            pairs += [] if theta is None else [(theta, "theta")]
            assert all(np.shares_memory(a, store[f]) for a, f in pairs), game.name
        held = [a for a in store.values() if a.flags.writeable]
        for a in [res.state.x, res.state.duals.lam, *res.trace.columns.values()]:
            assert not any(np.shares_memory(a, b) for b in held)


@pytest.mark.parametrize("rows", [1, 7, 256])
def test_trace_and_state_are_the_same_at_every_block_size(monkeypatch, rows):
    # the store's rows are written, read and carried from block to block:
    # at blocks of 1, 7 and 256 rows the trace columns, status and final
    # state are the bytes of the default blocks
    expected = [G.solve(game, x0, cfg) for game, x0, cfg, _ in block_size_runs()]
    blocks_of(monkeypatch, rows)
    for want, (game, x0, cfg, status) in zip(expected, block_size_runs()):
        got = G.solve(game, x0, cfg)
        assert got.status == want.status == status, game.name
        assert got.outer_iterations == want.outer_iterations > 256
        assert got.state.x.tobytes() == want.state.x.tobytes()
        assert got.state.duals.lam.tobytes() == want.state.duals.lam.tobytes()
        assert got.final_residual == want.final_residual
        for f, col in want.trace.columns.items():
            assert got.trace.columns[f].tobytes() == col.tobytes(), (game.name, f)
        if game.name == "power":   # its estimator resampled, inside blocks of 7 and 256
            assert len({row.M_g_own.tobytes() for row in got.trace.rows}) >= 3


@pytest.mark.parametrize("name", ["power", "example3"])
@pytest.mark.parametrize("beta", [4.0, 16.0])
def test_stop_bounds_the_dual_move_in_the_problems_units(name, beta):
    # solve stops on max(dx_inf, beta * dlambda_inf): a dual move of about g
    # / beta then bounds the constraint violation by the tolerance at every
    # beta (power at beta = 16 stopped infeasible by 1.6e-3 at tol 1e-4 on
    # max(dx_inf, dlambda_inf)); the final residual is taken the same way
    # from the trace's unscaled columns
    game = G.library.builtin_instance(name)
    cfg = G.SolverConfig(beta=beta)
    res = G.solve(game, np.zeros(game.n), cfg)
    cols = res.trace.columns
    scaled = np.maximum(cols["dx_inf"], beta * cols["dlambda_inf"])
    assert res.status == "converged"
    assert res.final_residual == scaled[-1] <= cfg.outer_tol < scaled[:-1].min()
    assert constraint_violation(evaluate_point(game, res.state.x).g_values) <= cfg.outer_tol


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
