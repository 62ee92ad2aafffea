"""Perturbed Lagrangian with proximal dual regularization.

For player ``nu`` with duals ``(z, lam, mu)`` and penalty weights
``(alpha, beta)`` the function evaluated here is::

    L_nu(x, z, lam, mu) = theta_nu(x) + lam.(g_nu(x) - z) + mu.z
                          + alpha/2 ||z||^2 - beta/2 ||lam - mu||^2

The quadratic ``z``-penalty enforces the perturbation constraint ``z = 0``
softly; the negative proximal term makes the function strongly concave in
each multiplier block, which keeps multiplier steps bounded even when the
multiplier set of a player is unbounded.

Minimizing over ``z`` in closed form gives the reduced version::

    theta_nu(x) + lam.g_nu(x) - (1 + alpha*beta) / (2*alpha) ||lam - mu||^2

which agrees with the full form at ``z = (lam - mu) / alpha``.

All evaluations here are pure functions of immutable inputs; per-player
calls may run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Array, GameInstance, OracleFailure, PlayerDualState

__all__ = [
    "PenaltyParams",
    "lagrangian_from_values",
    "lagrangian_value",
    "lagrangian_values",
    "lagrangian_value_reduced",
    "lagrangian_grad_x",
    "QuadraticAnchor",
    "PointEval",
    "evaluate_point",
    "projected_gradient_parts",
    "build_anchor",
]


@dataclass(frozen=True)
class PenaltyParams:
    """Per-player penalty weight ``alpha`` and proximal weight ``beta``, all > 0."""

    alpha: Array
    beta: Array

    def __post_init__(self):
        if np.any(self.alpha <= 0) or np.any(self.beta <= 0):
            raise ValueError("alpha and beta must be strictly positive")

    @staticmethod
    def uniform(num_players: int, alpha: float = 10.0, beta: float = 1.0) -> "PenaltyParams":
        return PenaltyParams(np.full(num_players, float(alpha)), np.full(num_players, float(beta)))


def _check_finite(value, player: int, what: str):
    if not np.all(np.isfinite(value)):
        raise OracleFailure(f"player {player}: non-finite {what}", player=player)


def lagrangian_from_values(theta: float, g: Array, dual: PlayerDualState,
                           alpha: float, beta: float) -> float:
    """Player's regularized Lagrangian from its objective value ``theta`` and
    constraint values ``g``: the one implementation of the formula above.
    A player without constraints (``g`` empty) gets ``theta`` unchanged."""
    val = theta
    if g.size:
        diff = dual.lam - dual.mu
        val += float(dual.lam @ (g - dual.z)) + float(dual.mu @ dual.z)
        val += 0.5 * alpha * float(dual.z @ dual.z)
        val -= 0.5 * beta * float(diff @ diff)
    return val


def _checked_values(game: GameInstance, player: int, x: Array, lam: Array) -> tuple[float, Array]:
    """Objective and constraint values of one player at ``x``, checked finite."""
    if np.any(lam < 0):
        raise ValueError("lam must be nonnegative")
    p = game.players[player]
    theta = float(p.objective(x))
    _check_finite(theta, player, "objective value")
    g = np.zeros(0)
    if p.m:
        g = np.asarray(p.constraints(x), dtype=float)
        _check_finite(g, player, "constraint value")
    return theta, g


def lagrangian_value(
    game: GameInstance, player: int, x: Array, dual: PlayerDualState, penalty: PenaltyParams
) -> float:
    """Evaluate player ``player``'s regularized Lagrangian at ``(x, dual)``."""
    theta, g = _checked_values(game, player, x, dual.lam)
    return lagrangian_from_values(theta, g, dual, penalty.alpha[player], penalty.beta[player])


def lagrangian_value_reduced(
    game: GameInstance, player: int, x: Array, lam: Array, mu: Array, penalty: PenaltyParams
) -> float:
    """Evaluate the reduced form obtained by exact minimization over ``z``."""
    val, g = _checked_values(game, player, x, lam)
    if g.size:
        a, b = penalty.alpha[player], penalty.beta[player]
        diff = lam - mu
        val += float(lam @ g) - (1.0 + a * b) / (2.0 * a) * float(diff @ diff)
    return val


def lagrangian_grad_x(game: GameInstance, player: int, x: Array, lam: Array) -> Array:
    """Full x-gradient: ``grad theta + J(x)^T lam``.

    The perturbation and proximal terms do not depend on ``x``, so only the
    multiplier ``lam`` enters.
    """
    p = game.players[player]
    grad = np.asarray(p.gradient(x), dtype=float)
    _check_finite(grad, player, "objective gradient")
    if p.m:
        J = np.asarray(p.constraint_jacobian(x), dtype=float)
        _check_finite(J, player, "constraint Jacobian")
        grad = grad + J.T @ lam
    return grad


# ---------------------------------------------------------------------------
# One oracle sweep at a point, shared by the solver's bookkeeping
# ---------------------------------------------------------------------------


@dataclass
class PointEval:
    """Raw oracle output of every player at one joint point."""

    x: Array
    theta: Array                 # (N,) objective values
    theta_grads: list[Array]     # per player, (n,)
    g_values: list[Array]        # per player, (m_nu,)
    g_jacobians: list[Array]     # per player, (m_nu, n)


def evaluate_point(game: GameInstance, x: Array) -> PointEval:
    """Run every player's oracles once at ``x`` (values, gradients, Jacobians)."""
    theta = np.zeros(game.num_players)
    grads, gvals, jacs = [], [], []
    for i, p in enumerate(game.players):
        theta[i] = float(p.objective(x))
        _check_finite(theta[i], i, "objective value")
        gr = np.asarray(p.gradient(x), dtype=float)
        _check_finite(gr, i, "objective gradient")
        grads.append(gr)
        if p.m:
            gv = np.asarray(p.constraints(x), dtype=float)
            J = np.asarray(p.constraint_jacobian(x), dtype=float)
            _check_finite(gv, i, "constraint value")
            _check_finite(J, i, "constraint Jacobian")
        else:
            gv = np.zeros(0)
            J = np.zeros((0, game.n))
        gvals.append(gv)
        jacs.append(J)
    return PointEval(np.array(x, copy=True), theta, grads, gvals, jacs)


def lagrangian_values(point: PointEval, duals: list[PlayerDualState],
                      penalty: PenaltyParams) -> Array:
    """Every player's regularized Lagrangian at ``point`` and ``duals``."""
    return np.array([
        lagrangian_from_values(point.theta[i], point.g_values[i], d,
                               penalty.alpha[i], penalty.beta[i])
        for i, d in enumerate(duals)
    ])


def projected_gradient_parts(game: GameInstance, point: PointEval,
                             duals: list[PlayerDualState],
                             penalty: PenaltyParams) -> tuple[Array, Array, Array, Array]:
    """Per-player norms ``(qx, qz, qlam, qmu)`` of the four projected-gradient
    blocks of the regularized Lagrangian at ``point`` and ``duals``.

    The x-block is the projected own-gradient step residual, the z-block is
    ``mu - lam + alpha z``, the lam-block the projected dual step residual,
    and the mu-block ``z + beta (lam - mu)``. Right after the exact dual
    steps the z and mu blocks vanish identically.
    """
    N = game.num_players
    qx = np.zeros(N)
    qlam = np.zeros(N)
    qz = np.zeros(N)
    qmu = np.zeros(N)
    grad_own = np.empty(game.n)
    for i, p in enumerate(game.players):
        sl = game.layout.block_slice(i)
        grad_own[sl] = point.theta_grads[i][sl]
        if p.m:
            grad_own[sl] += point.g_jacobians[i][:, sl].T @ duals[i].lam
    x_step = point.x - game.project_private(point.x - grad_own)
    for i, p in enumerate(game.players):
        d = duals[i]
        qx[i] = float(np.linalg.norm(x_step[game.layout.block_slice(i)]))
        if p.m:
            grad_lam = point.g_values[i] - d.z - penalty.beta[i] * (d.lam - d.mu)
            qlam[i] = float(np.linalg.norm(d.lam - np.maximum(d.lam + grad_lam, 0.0)))
            qz[i] = float(np.linalg.norm(d.mu - d.lam + penalty.alpha[i] * d.z))
            qmu[i] = float(np.linalg.norm(d.z + penalty.beta[i] * (d.lam - d.mu)))
    return qx, qz, qlam, qmu


# ---------------------------------------------------------------------------
# Quadratic surrogate anchored at the current outer iterate
# ---------------------------------------------------------------------------


@dataclass
class QuadraticAnchor:
    """Cached data of the per-player quadratic model at an anchor point ``y``.

    The model for player ``nu`` is::

        Lhat_nu(x) = L_nu(y) + grad_x L_nu(y) . (x - y) + gamma_nu/2 ||x - y||^2

    Values and full gradients of every ``L_nu`` at ``y`` are computed once
    (per outer iteration) and reused by the inner loop, which holds the
    anchor fixed. The anchor is read-only after construction.

    The model gradient is affine with slope ``gamma_nu * I``; its Lipschitz
    constant and strong-convexity modulus both equal ``gamma_nu``.
    """

    y: Array
    values: Array            # (N,) L_nu(y, duals)
    grads: list[Array]       # per player, full gradient of L_nu at y
    gamma: Array             # (N,)
    own_grad: Array          # (n,) player-own blocks of grads, stacked
    gamma_by_coord: Array    # (n,) gamma_nu repeated over the player's block
    point: PointEval         # raw oracle sweep at y
    duals: list[PlayerDualState]  # dual states frozen into the anchor
    penalty: PenaltyParams
    grad_norms: Array        # (N,) Euclidean norms of grads

    def model_value(self, player: int, x: Array) -> float:
        d = x - self.y
        return float(
            self.values[player]
            + self.grads[player] @ d
            + 0.5 * self.gamma[player] * (d @ d)
        )

    def own_model_grad(self, u: Array) -> Array:
        """Stacked own-block model gradients of all players at ``u``."""
        return self.own_grad + self.gamma_by_coord * (u - self.y)

    def verify(self, game: GameInstance, duals, penalty: PenaltyParams, tol: float = 1e-9):
        """Recompute cached values and compare; raises on a stale cache."""
        for i in range(game.num_players):
            fresh = lagrangian_value(game, i, self.y, duals[i], penalty)
            if abs(fresh - self.values[i]) > tol * max(1.0, abs(fresh)):
                raise RuntimeError(f"anchor cache stale for player {i}")


def build_anchor(
    game: GameInstance,
    duals: list[PlayerDualState],
    penalty: PenaltyParams,
    gamma: Array,
    point: PointEval,
) -> QuadraticAnchor:
    """Assemble the surrogate anchor from a completed oracle sweep."""
    n = game.n
    grads: list[Array] = []
    own_grad = np.zeros(n)
    gamma_by_coord = np.zeros(n)
    for i, p in enumerate(game.players):
        grad = point.theta_grads[i]
        if p.m:
            grad = grad + point.g_jacobians[i].T @ duals[i].lam
        grads.append(grad)
        sl = game.layout.block_slice(i)
        own_grad[sl] = grad[sl]
        gamma_by_coord[sl] = gamma[i]
    grad_norms = np.array([float(np.linalg.norm(g)) for g in grads])
    return QuadraticAnchor(point.x, lagrangian_values(point, duals, penalty), grads,
                           np.asarray(gamma, dtype=float), own_grad, gamma_by_coord, point,
                           list(duals), penalty, grad_norms)
