"""Perturbed Lagrangian with proximal dual regularization.

For player ``nu`` with duals ``(z, lam, mu)`` and penalty weights
``(alpha, beta)`` the function evaluated here is::

    L_nu(x, z, lam, mu) = theta_nu(x) + lam.(g_nu(x) - z) + mu.z
                          + alpha/2 ||z||^2 - beta/2 ||lam - mu||^2

The quadratic ``z``-penalty enforces the perturbation constraint ``z = 0``
softly; the negative proximal term makes the function strongly concave in
each multiplier block, which keeps multiplier steps bounded even when the
multiplier set of a player is unbounded.

The solver starts from zero duals, where the exact ``z`` step gives
``z = (lam - mu) / alpha = 0`` and the exact multiplier step leaves
``mu = lam``; there the function is ``theta_nu(x) + lam.g_nu(x)``, which
:func:`lagrangian_values` evaluates for every player. The general form
(:func:`lagrangian_from_values`) serves states with arbitrary ``z`` and
``mu``: the saddle check and the validation of result documents.

All evaluations here are pure functions of immutable inputs; per-player
calls may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (Array, GameInstance, OracleFailure, PlayerDualState, Segments, own_columns,
                   row_dots)

__all__ = [
    "PenaltyParams",
    "lagrangian_from_values",
    "lagrangian_value",
    "lagrangian_values",
    "QuadraticAnchor",
    "PointEval",
    "evaluate_point",
    "projected_gradient_x",
    "projected_gradient_lam",
    "build_anchor",
]


@dataclass(frozen=True)
class PenaltyParams:
    """Penalty weight ``alpha`` and proximal weight ``beta`` of every player,
    fixed for the whole run; both finite and > 0."""

    alpha: float = 10.0
    beta: float = 1.0

    def __post_init__(self):
        if not all(0 < w < math.inf for w in (self.alpha, self.beta)):
            raise ValueError("alpha and beta must be finite and > 0")


def _check_finite(value, player: int, what: str):
    if not (math.isfinite(value) if isinstance(value, float) else np.isfinite(value).all()):
        raise OracleFailure(f"player {player}: non-finite {what}", player=player)


def lagrangian_from_values(theta: float, g: Array, dual: PlayerDualState,
                           alpha: float, beta: float) -> float:
    """Player's regularized Lagrangian (the formula above) from its objective
    value ``theta`` and constraint values ``g``. A player without constraints
    (``g`` empty) gets ``theta`` unchanged."""
    if not g.size:
        return theta
    diff = dual.lam - dual.mu
    return float(theta + (float(dual.lam @ (g - dual.z)) + float(dual.mu @ dual.z))
                 + 0.5 * alpha * float(dual.z @ dual.z) - 0.5 * beta * float(diff @ diff))


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
    return lagrangian_from_values(theta, g, dual, penalty.alpha, penalty.beta)


# ---------------------------------------------------------------------------
# One oracle sweep at a point, shared by the solver's bookkeeping
# ---------------------------------------------------------------------------


@dataclass
class PointEval:
    """Raw oracle output of every player at one joint point, stacked over
    players: gradients as one ``(N, n)`` array, constraint values and
    Jacobians over the game's constraint rows ``game.rows``, player ``i``
    owning the segment ``rows.bounds[i]:rows.bounds[i + 1]``."""

    x: Array
    theta: Array                 # (N,) objective values
    theta_grads: Array           # (N, n) objective gradients
    g_values: Array              # (M,) constraint values
    g_jacobians: Array           # (M, n) constraint Jacobians


_POINT_FIELDS = ("objective value", "objective gradient", "constraint value",
                 "constraint Jacobian")
QUIET = {"divide": "ignore", "over": "ignore", "invalid": "ignore"}   # left to finiteness checks


def evaluate_point(game: GameInstance, x: Array) -> PointEval:
    """Every player's objective value and gradient, constraint values and
    Jacobian at ``x``.

    A game with stacked quadratic data (``game.quadratic``, every game built
    from a :class:`~gnepsolve.library.QuadraticGnepSpec`) takes one batched
    sweep: every ``Q_i @ x`` from the band-stored stack
    (:meth:`~gnepsolve.core.QuadraticStack.products`: one ``G @ x`` for
    the players' own rows and one batched product per run of column bands,
    about ``2 n^2`` numbers read instead of ``N n^2``, plus one batched
    product over any players kept dense), from which every gradient and
    objective value follows, and one batched product for the affine
    constraint rows. Each of these is bit for bit what the player's own
    oracle returns, as both take their products from the stack. Every
    other game calls each player's oracles in turn. A non-finite value raises
    :class:`OracleFailure` naming the first player, and its first field in
    the order value, gradient, constraint value, Jacobian.
    """
    x = np.array(x, dtype=float, copy=True)
    with np.errstate(**QUIET):   # ends in the finiteness check below
        if game.quadratic is not None:
            fields = _stacked_sweep(game, x)
        else:
            fields = _oracle_sweep(game, x)
    if not all(np.isfinite(f).all() for f in fields):
        _raise_first_nonfinite(game, fields)
    return PointEval(x, *fields)


def _stacked_sweep(game: GameInstance, x: Array) -> tuple[Array, Array, Array, Array]:
    q, rows = game.quadratic, game.rows
    QX = q.products(x)
    grads = QX + q.b
    theta = 0.5 * row_dots(QX, x) + row_dots(q.b, x)
    g = rows.matvec(q.C, x) + 0.0 + q.D
    jac = q.jacobian
    if q.hessians:
        jac = jac.copy()
        for i in q.hessians:
            p, s = game.players[i], slice(rows.bounds[i], rows.bounds[i + 1])
            g[s] = p.constraints(x)
            jac[s] = p.constraint_jacobian(x)
    return theta, grads, g, jac


def _oracle_sweep(game: GameInstance, x: Array) -> tuple[Array, Array, Array, Array]:
    rows = game.rows
    theta = np.zeros(game.num_players)
    grads = np.zeros((game.num_players, game.n))
    g = np.zeros(rows.total)
    jac = np.zeros((rows.total, game.n))
    for i, p in enumerate(game.players):
        theta[i] = p.objective(x)
        grads[i] = p.gradient(x)
        if p.m:
            s = slice(rows.bounds[i], rows.bounds[i + 1])
            g[s] = p.constraints(x)
            jac[s] = p.constraint_jacobian(x)
    return theta, grads, g, jac


def _raise_first_nonfinite(game: GameInstance, fields: tuple[Array, Array, Array, Array]):
    theta, grads, g, jac = fields
    for i in range(game.num_players):
        s = slice(game.rows.bounds[i], game.rows.bounds[i + 1])
        for what, value in zip(_POINT_FIELDS, (theta[i], grads[i], g[s], jac[s])):
            _check_finite(value, i, what)


def lagrangian_values(point: PointEval, lam: Array, rows: Segments) -> Array:
    """Every player's Lagrangian ``theta + lam.g`` at ``point`` and the
    multipliers ``lam`` stacked over the constraint rows ``rows``: the
    regularized form at ``z = 0`` and ``mu = lam``. A player without
    constraints gets ``theta`` unchanged (``-0.0 + 0.0`` would not be)."""
    return np.where(rows.nonempty, point.theta + rows.dot(lam, point.g_values), point.theta)


def _own_jacobian_products(game: GameInstance, point: PointEval, lam: Array) -> Array:
    """Player ``i``'s own-block columns of ``J_i.T @ lam_i``, stacked like ``x``:
    bit for bit ``J[s, sl].T @ lam[s]``, a gemv per player batched per run on the
    view :func:`own_columns` (a full product or a gathered copy rounds differently)."""
    J, out = point.g_jacobians, np.zeros(game.n)
    for players, rows, cols in game.constrained_runs:
        blocks = own_columns(J, (players, rows, cols))
        out[cols] = np.matmul(lam[rows].reshape(len(blocks), 1, -1), blocks).ravel()
    return out


def projected_gradient_x(game: GameInstance, point: PointEval, lam: Array) -> Array:
    """Per-player norm of the x-block of the projected gradient at ``point``
    and multipliers ``lam``: the projected own-gradient step residual. The
    other duals do not enter the x-gradient."""
    # A player without constraints adds +0.0 here, which no norm below sees.
    grad_own = (point.theta_grads.ravel()[game.layout.own_entries]
                + _own_jacobian_products(game, point, lam))
    x_step = point.x - game.project_private(point.x - grad_own)
    return game.layout.segments.norm(x_step)


def projected_gradient_lam(rows: Segments, lam: Array, grad_lam: Array) -> Array:
    """Per-player norm of the lam-block of the projected gradient, the
    projected multiplier step residual ``lam - max(lam + grad_lam, 0)``, for
    the lam-gradient ``grad_lam = g - z - beta (lam - mu)`` (``g`` itself at
    ``z = 0`` and ``mu = lam``)."""
    return rows.norm(lam - np.maximum(lam + grad_lam, 0.0))


# ---------------------------------------------------------------------------
# Quadratic surrogate anchored at the current outer iterate
# ---------------------------------------------------------------------------


@dataclass
class QuadraticAnchor:
    """Cached data of the per-player quadratic model at an anchor point ``y``.

    The model for player ``nu`` is::

        Lhat_nu(x) = L_nu(y) + grad_x L_nu(y) . (x - y) + gamma_nu/2 ||x - y||^2

    The values ``L_nu(y)`` are handed in by the caller, which already holds
    them; the full gradients are assembled once per outer iteration. The
    anchor is read-only after construction.

    The model gradient is affine with slope ``gamma_nu * I``; its Lipschitz
    constant and strong-convexity modulus both equal ``gamma_nu``.
    """

    y: Array
    values: Array            # (N,) L_nu(y, lam)
    grads: Array             # (N, n) full gradient of L_nu at y, row nu
    gamma: Array             # (N,)
    own_grad: Array          # (n,) player-own blocks of grads, stacked
    gamma_by_coord: Array    # (n,) gamma_nu repeated over the player's block
    lam: Array               # (M,) multipliers frozen into the anchor

    def model_values(self, x: Array) -> Array:
        """Every player's model value at ``x``."""
        d = x - self.y
        return self.values + row_dots(self.grads, d) + 0.5 * self.gamma * (d @ d)

    def own_model_grad(self, u: Array) -> Array:
        """Stacked own-block model gradients of all players at ``u``."""
        return self.own_grad + self.gamma_by_coord * (u - self.y)


def build_anchor(game: GameInstance, lam: Array, gamma: Array, point: PointEval,
                 values: Array) -> QuadraticAnchor:
    """Assemble the surrogate anchor from a completed oracle sweep and the
    players' Lagrangian values there, ``lagrangian_values(point, lam, game.rows)``."""
    grads = game.rows.vecmat_add(point.theta_grads, lam, point.g_jacobians)
    gamma = np.asarray(gamma, dtype=float)
    return QuadraticAnchor(point.x, values, grads, gamma,
                           grads.ravel()[game.layout.own_entries],
                           game.layout.segments.repeat(gamma), lam)
