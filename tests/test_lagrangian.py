"""Value, reduced form, gradients, and the anchored quadratic model."""

import warnings

import numpy as np
import pytest

import gnepsolve as G
from gnepsolve.core import BlockLayout, PlayerDualState, SimpleSet
from gnepsolve.lagrangian import (
    PenaltyParams,
    build_anchor,
    evaluate_point,
    lagrangian_value,
    lagrangian_values,
)
from gnepsolve.core import central_gradient
from gnepsolve import library
from gnepsolve.library import QuadraticGnepSpec, QuadraticPlayerSpec
from conftest import record_blocks, row_states


def two_circle_game():
    """Two players with unit-disk constraints centered at 0 and (2,0).

    Player 1 carries the disk at the origin here; handy because several hand
    arithmetic checks below were worked out for that orientation.
    """
    layout = BlockLayout((1, 1))
    eye2 = 2.0 * np.eye(2)
    p1 = QuadraticPlayerSpec(np.diag([2.0, 0.0]), np.zeros(2), SimpleSet.free(1),
                             [(eye2.copy(), np.zeros(2), -1.0)])
    p2 = QuadraticPlayerSpec(np.diag([0.0, 2.0]), np.zeros(2), SimpleSet.free(1),
                             [(eye2.copy(), np.array([-4.0, 0.0]), 3.0)])
    return QuadraticGnepSpec(layout, [p1, p2], "two-circle-literal").to_game()


@pytest.fixture(scope="module")
def pen2():
    return PenaltyParams(alpha=10.0, beta=1.0)


def dual(z, lam, mu):
    return PlayerDualState(np.atleast_1d(np.asarray(z, float)),
                           np.atleast_1d(np.asarray(lam, float)),
                           np.atleast_1d(np.asarray(mu, float)))


# ---------------------------------------------------------------------------
# value
# ---------------------------------------------------------------------------


def test_value_reduces_to_objective_with_zero_duals(pen2):
    game = two_circle_game()
    x = np.array([0.3, -0.7])
    v = lagrangian_value(game, 0, x, dual([0.0], [0.0], [0.0]), pen2)
    assert v == pytest.approx(game.players[0].objective(x), abs=0)


def test_value_with_equal_multipliers_is_objective_plus_weighted_constraint(pen2):
    game = two_circle_game()
    x = np.array([0.5, 0.25])
    lam = np.array([1.7])
    v = lagrangian_value(game, 0, x, dual([0.0], lam, lam), pen2)
    expected = game.players[0].objective(x) + lam @ game.players[0].constraints(x)
    assert v == pytest.approx(expected, rel=1e-15)


def test_value_hand_arithmetic(pen2):
    # player 1 of the two-circle game at (1,0): theta=1 and g=0, so the value
    # is 1 + 2*(0-0.2) + 0 + 5*0.04 - 0.5*4 = -1.2
    game = two_circle_game()
    v = lagrangian_value(game, 0, np.array([1.0, 0.0]),
                         dual([0.2], [2.0], [0.0]), pen2)
    assert v == pytest.approx(-1.2, abs=1e-12)


def test_value_rejects_negative_multiplier(pen2):
    game = two_circle_game()
    with pytest.raises(ValueError):
        lagrangian_value(game, 0, np.zeros(2), dual([0.0], [-1.0], [0.0]), pen2)


def test_value_raises_on_nonfinite_oracle(pen2):
    layout = BlockLayout((1, 1))
    bad = G.PlayerProblem(
        objective=lambda x: float("inf"),
        gradient=lambda x: np.zeros(2),
        constraints=lambda x: np.zeros(0),
        constraint_jacobian=lambda x: np.zeros((0, 2)),
        private_set=SimpleSet.free(1), m=0)
    ok = G.PlayerProblem(
        objective=lambda x: 0.0,
        gradient=lambda x: np.zeros(2),
        constraints=lambda x: np.zeros(0),
        constraint_jacobian=lambda x: np.zeros((0, 2)),
        private_set=SimpleSet.free(1), m=0)
    game = G.GameInstance((bad, ok), layout, "bad")
    with pytest.raises(G.OracleFailure) as err:
        lagrangian_value(game, 0, np.zeros(2), dual([], [], []), PenaltyParams())
    assert err.value.player == 0


@pytest.mark.parametrize("field, message", [
    ("objective", "player 1: non-finite objective value"),
    ("gradient", "player 1: non-finite objective gradient"),
    ("constraints", "player 1: non-finite constraint value"),
    ("jacobian", "player 1: non-finite constraint Jacobian"),
])
def test_evaluate_point_names_the_first_nonfinite_field(field, message):
    # player 1's named field and every later one are non-finite (NaN objective,
    # inf gradient, NaN constraint value, NaN Jacobian), and all of player 2's:
    # the first bad field of the first bad player is reported
    fields = ["objective", "gradient", "constraints", "jacobian"]

    def player(bad):
        return G.PlayerProblem(
            objective=lambda x: float("nan") if "objective" in bad else 0.0,
            gradient=lambda x: np.full(3, np.inf if "gradient" in bad else 0.0),
            constraints=lambda x: np.array([np.nan if "constraints" in bad else -1.0]),
            constraint_jacobian=lambda x: np.full((1, 3), np.nan if "jacobian" in bad else 1.0),
            private_set=SimpleSet.free(1), m=1)

    game = G.GameInstance((player([]), player(fields[fields.index(field):]), player(fields)),
                          BlockLayout((1, 1, 1)), "bad")
    with pytest.raises(G.OracleFailure) as err:
        evaluate_point(game, np.zeros(3))
    assert str(err.value) == message
    assert err.value.player == 1


def test_evaluate_point_returns_a_finite_point_whose_sum_overflows():
    # every value is finite but their sum is not: the one-pass check looks at
    # the fields one by one, finds nothing, and the point is returned as swept
    big = 1.5e308
    player = G.PlayerProblem(
        objective=lambda x: big,
        gradient=lambda x: np.full(2, big),
        constraints=lambda x: np.array([big]),
        constraint_jacobian=lambda x: np.full((1, 2), -big),
        private_set=SimpleSet.free(1), m=1)
    game = G.GameInstance((player, player), BlockLayout((1, 1)), "big")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        point = evaluate_point(game, np.zeros(2))
    assert point.theta.tolist() == [big, big]
    assert point.theta_grads.tolist() == [[big, big]] * 2
    assert point.g_values.tolist() == [big, big]
    assert point.g_jacobians.tolist() == [[-big, -big]] * 2


def _overflowing_spec(field):
    """Three quadratic players on one variable each; at x = 1e200 player 1's
    objective value (``Q`` of 1) or its constraint value (row of 1e150)
    overflows, and all of player 2's fields do."""
    layout = BlockLayout((1, 1, 1))
    zero = np.zeros((3, 3))

    def player(Q, c):
        return QuadraticPlayerSpec(Q, np.zeros(3), SimpleSet.free(1), [(zero, c, 0.0)])

    bad_q = np.eye(3) if field == "objective" else zero
    bad_c = np.full(3, 1e150) if field == "constraints" else np.zeros(3)
    return QuadraticGnepSpec(layout, [player(zero, np.zeros(3)), player(bad_q, bad_c),
                                      player(np.eye(3), np.full(3, 1e150))], "overflow")


@pytest.mark.parametrize("field, message", [
    ("objective", "player 1: non-finite objective value"),
    ("constraints", "player 1: non-finite constraint value"),
])
def test_evaluate_point_names_the_first_nonfinite_field_on_the_batched_path(field, message):
    # the batched sweep of a stacked quadratic game checks each stacked array
    # once; it names the same player and field as the closure sweep, and the
    # overflow raises no warning on either path
    game = _overflowing_spec(field).to_game()
    assert game.quadratic is not None
    for g in (game, G.GameInstance(game.players, game.layout, game.name)):
        with pytest.raises(G.OracleFailure) as err:
            evaluate_point(g, np.full(3, 1e200))
        assert str(err.value) == message
        assert err.value.player == 1


# ---------------------------------------------------------------------------
# reduced form
# ---------------------------------------------------------------------------


def lagrangian_value_reduced(game, player, x, lam, mu, penalty):
    """The reduced form, the regularized Lagrangian minimized over ``z`` in
    closed form at ``z = (lam - mu) / alpha``::

        theta(x) + lam.g(x) - (1 + alpha*beta) / (2*alpha) ||lam - mu||^2
    """
    p = game.players[player]
    val = float(p.objective(x))
    if p.m:
        a, b = penalty.alpha, penalty.beta
        diff = lam - mu
        val += float(lam @ p.constraints(x)) - (1.0 + a * b) / (2.0 * a) * float(diff @ diff)
    return val


def test_reduced_equals_objective_plus_constraint_at_equal_multipliers(pen2):
    game = two_circle_game()
    x = np.array([0.2, 0.9])
    lam = np.array([0.8])
    v = lagrangian_value_reduced(game, 0, x, lam, lam, pen2)
    expected = game.players[0].objective(x) + lam @ game.players[0].constraints(x)
    assert v == pytest.approx(expected, rel=1e-15)


def test_reduced_penalty_coefficient():
    # alpha=10, beta=1: coefficient (1 + 10) / 20 = 0.55 on ||lam - mu||^2
    game = two_circle_game()
    pen = PenaltyParams(10.0, 1.0)
    x = np.zeros(2)
    base = lagrangian_value_reduced(game, 0, x, np.array([1.0]), np.array([1.0]), pen)
    v = lagrangian_value_reduced(game, 0, x, np.array([1.0]), np.array([0.0]), pen)
    assert base - v == pytest.approx(0.55, rel=1e-12)


def test_reduced_matches_full_at_optimal_z(pen2):
    game = two_circle_game()
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.standard_normal(2)
        lam = np.abs(rng.standard_normal(1)) * 3
        mu = rng.standard_normal(1) * 2
        z = (lam - mu) / pen2.alpha
        full = lagrangian_value(game, 0, x, dual(z, lam, mu), pen2)
        red = lagrangian_value_reduced(game, 0, x, lam, mu, pen2)
        assert full == pytest.approx(red, rel=1e-12, abs=1e-13)


# ---------------------------------------------------------------------------
# x-gradient
# ---------------------------------------------------------------------------


def lagrangian_grad_x(game, player, x, lam):
    """Full x-gradient ``grad theta + J(x)^T lam``: the perturbation and
    proximal terms do not depend on ``x``, so only ``lam`` enters."""
    p = game.players[player]
    grad = np.asarray(p.gradient(x), dtype=float)
    if p.m:
        grad = grad + np.asarray(p.constraint_jacobian(x), dtype=float).T @ lam
    return grad


def test_grad_equals_objective_gradient_without_multiplier(pen2):
    game = two_circle_game()
    x = np.array([0.4, -0.3])
    g = lagrangian_grad_x(game, 0, x, np.zeros(1))
    np.testing.assert_allclose(g, game.players[0].gradient(x), atol=0)


def test_grad_hand_value(pen2):
    # disk at the origin: at (1,0) with lam=1 the gradient is
    # (2*1, 0) + 1 * (2*1, 2*0) = (4, 0)
    game = two_circle_game()
    g = lagrangian_grad_x(game, 0, np.array([1.0, 0.0]), np.array([1.0]))
    np.testing.assert_allclose(g, [4.0, 0.0], atol=1e-14)


def test_grad_matches_finite_differences(pen2):
    game = library.make_example3()
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.standard_normal(2)
        lam = np.abs(rng.standard_normal(1))
        d = dual(np.zeros(1), lam, lam)
        g = lagrangian_grad_x(game, 0, x, lam)
        fd = central_gradient(lambda y: lagrangian_value(game, 0, y, d, pen2), x)
        denom = max(1.0, np.max(np.abs(g)))
        assert np.max(np.abs(fd - g)) / denom <= 1e-6


# ---------------------------------------------------------------------------
# anchored quadratic model
# ---------------------------------------------------------------------------


def make_anchor(game, x, lam, gamma):
    """The anchor at ``x`` and its Lagrangian values there."""
    point = evaluate_point(game, x)
    return (build_anchor(game, lam, gamma, point),
            lagrangian_values(point.theta, point.g_values, lam, game.rows))


def test_model_identity_at_anchor(pen2):
    # the anchor's values are the general lagrangian_value at the solver's
    # z = 0 and mu = lam, bit for bit (example3: one row per player)
    game = library.make_example3()
    y = np.array([0.5, -0.2])
    for lam in ([1.0, 0.5], [1.1, 0.4], [0.0, 0.0]):
        lam = np.array(lam)
        anchor, values = make_anchor(game, y, lam, np.array([3.0, 4.0]))
        for i in range(2):
            assert anchor.model_values(y, values)[i] == values[i]
            assert values[i] == lagrangian_value(game, i, y, dual([0.0], lam[i], lam[i]), pen2)


def test_model_majorizes_near_anchor(pen2):
    # with gamma at least the gradient Lipschitz constant, the model lies
    # above the true value in a unit ball around the anchor
    game = library.make_example3()
    y = np.array([0.3, 0.4])
    duals = [dual([0.0], [2.0], [2.0]), dual([0.0], [1.0], [1.0])]
    lam = np.array([2.0, 1.0])
    est = G.LipschitzEstimator(game).estimate(y, lam)
    gamma = est.L.copy()
    anchor, values = make_anchor(game, y, lam, gamma)
    rng = np.random.default_rng(3)
    for _ in range(100):
        d = rng.standard_normal(2)
        x = y + d / max(1.0, np.linalg.norm(d))
        for i in range(2):
            assert anchor.model_values(x, values)[i] >= lagrangian_value(
                game, i, x, duals[i], pen2) - 1e-9


def test_model_strong_convexity_midpoint(pen2):
    game = library.make_example3()
    y = np.zeros(2)
    gamma = np.array([5.0, 7.0])
    anchor, values = make_anchor(game, y, np.zeros(2), gamma)
    rng = np.random.default_rng(9)
    for _ in range(30):
        a, b = rng.standard_normal(2), rng.standard_normal(2)
        mid = 0.5 * (a + b)
        for i in range(2):
            lhs = anchor.model_values(mid, values)[i]
            rhs = (0.5 * (anchor.model_values(a, values)[i] + anchor.model_values(b, values)[i])
                   - gamma[i] / 8.0 * np.linalg.norm(a - b) ** 2)
            assert lhs <= rhs + 1e-10


def test_model_block_gradient_affine_and_fd(pen2):
    game = library.make_example3()
    y = np.array([0.8, 0.1])
    gamma = np.array([4.0, 6.0])
    anchor, values = make_anchor(game, y, np.array([1.5, 0.2]), gamma)
    layout = game.layout
    # at the anchor the proximal part vanishes
    for i in range(2):
        sl = layout.block_slice(i)
        np.testing.assert_allclose(anchor.own_model_grad(y)[sl], anchor.grads[i][sl], atol=0)
    rng = np.random.default_rng(1)
    u1, u2 = y + rng.standard_normal(2), y + rng.standard_normal(2)
    for i in range(2):
        sl = layout.block_slice(i)
        diff = anchor.own_model_grad(u1)[sl] - anchor.own_model_grad(u2)[sl]
        np.testing.assert_allclose(diff, gamma[i] * (u1[sl] - u2[sl]), rtol=1e-12)
        # finite differences of the model in the own block
        u = y + rng.standard_normal(2) * 0.5
        h = 1e-6
        for kloc, kglob in enumerate(range(sl.start, sl.stop)):
            e = np.zeros(2)
            e[kglob] = h
            fd = (anchor.model_values(u + e, values)[i]
                  - anchor.model_values(u - e, values)[i]) / (2 * h)
            assert fd == pytest.approx(anchor.own_model_grad(u)[sl][kloc],
                                       rel=1e-6, abs=1e-6)


@pytest.mark.parametrize("make_game,x0", [
    (library.make_a18_electricity, np.zeros(12)),
    (lambda: library.gen_power_allocation(2, 2, 1.0, 0.3162, seed=4), np.zeros(4)),
    (library.make_example3, np.zeros(2)),
], ids=["a18", "power-2x2", "example3"])
def test_solver_hands_anchor_the_values_at_its_point(monkeypatch, make_game, x0):
    # each row's exit label is judged against the Lagrangian values at its
    # anchor: row k-1's L_values, initial_L for row 1. They must be what a
    # fresh evaluation at the anchor's point and multipliers (row k-1's x and
    # lam, the start's for row 1, as the trace block pass reads them) gives
    game = make_game()
    blocks = record_blocks(monkeypatch)
    res = G.solve(game, x0, G.SolverConfig(max_outer=30))
    anchors = [before for before, _ in row_states(blocks, res.outer_iterations)]
    assert len(anchors) == res.outer_iterations > 1
    start = G.initial_state(game, x0)
    assert anchors[0][0].tobytes() == start.x.tobytes()
    assert anchors[0][1].tobytes() == start.duals.lam.tobytes()
    judged = [res.trace.initial_L] + [row.L_values for row in res.trace.rows[:-1]]
    for (y, lam), values in zip(anchors, judged):
        point = evaluate_point(game, y)
        fresh = lagrangian_values(point.theta, point.g_values, lam, game.rows)
        assert values.tobytes() == fresh.tobytes()
