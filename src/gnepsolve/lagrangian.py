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

import math
from dataclasses import dataclass

import numpy as np

from .core import Array, DualStack, GameInstance, OracleFailure, PlayerDualState, row_dots

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


def _from_dots(theta, lam_gz, mu_z, zz, dd, alpha, beta):
    """The regularized Lagrangian from the objective value and the dot
    products ``lam.(g - z)``, ``mu.z``, ``z.z`` and ``(lam - mu).(lam - mu)``;
    the one implementation of the formula above, for scalars and for arrays
    over players alike."""
    return theta + (lam_gz + mu_z) + 0.5 * alpha * zz - 0.5 * beta * dd


def lagrangian_from_values(theta: float, g: Array, dual: PlayerDualState,
                           alpha: float, beta: float) -> float:
    """Player's regularized Lagrangian from its objective value ``theta`` and
    constraint values ``g``. A player without constraints (``g`` empty) gets
    ``theta`` unchanged."""
    if not g.size:
        return theta
    diff = dual.lam - dual.mu
    return float(_from_dots(theta, float(dual.lam @ (g - dual.z)), float(dual.mu @ dual.z),
                            float(dual.z @ dual.z), float(diff @ diff), alpha, beta))


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


def lagrangian_value_reduced(
    game: GameInstance, player: int, x: Array, lam: Array, mu: Array, penalty: PenaltyParams
) -> float:
    """Evaluate the reduced form obtained by exact minimization over ``z``."""
    val, g = _checked_values(game, player, x, lam)
    if g.size:
        a, b = penalty.alpha, penalty.beta
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


def evaluate_point(game: GameInstance, x: Array) -> PointEval:
    """Every player's objective value and gradient, constraint values and
    Jacobian at ``x``.

    A game with stacked quadratic data (``game.quadratic``, every game built
    from a :class:`~gnepsolve.library.QuadraticGnepSpec`) takes one batched
    sweep: one ``Q_i @ x`` product per player in a single matmul call, from
    which every gradient and objective value follows, and one batched
    product for the affine constraint rows. Each of these is bit for bit
    what the player's own oracle returns. Every other game calls each
    player's oracles in turn. A non-finite value raises
    :class:`OracleFailure` naming the first player, and its first field in
    the order value, gradient, constraint value, Jacobian.
    """
    x = np.array(x, dtype=float, copy=True)
    # Overflow and invalid operations end in the finiteness check below.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if game.quadratic is not None:
            fields = _stacked_sweep(game, x)
        else:
            fields = _oracle_sweep(game, x)
    if not all(np.isfinite(f).all() for f in fields):
        _raise_first_nonfinite(game, fields)
    return PointEval(x, *fields)


def _stacked_sweep(game: GameInstance, x: Array) -> tuple[Array, Array, Array, Array]:
    q, rows = game.quadratic, game.rows
    QX = np.matmul(q.Q, x)                       # Q_i @ x, one gemv per player
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


def lagrangian_values(point: PointEval, d: DualStack, penalty: PenaltyParams) -> Array:
    """Every player's regularized Lagrangian at ``point`` and duals ``d``."""
    rows = d.rows
    diff = d.lam - d.mu
    dots = rows.dot(np.array([d.lam, d.mu, d.z, diff]),
                    np.array([point.g_values - d.z, d.z, d.z, diff]))
    vals = _from_dots(point.theta, *dots, penalty.alpha, penalty.beta)
    return np.where(np.asarray(rows.counts) > 0, vals, point.theta)


def _own_jacobian_products(game: GameInstance, point: PointEval, lam: Array) -> Array:
    """Player ``i``'s own-block columns of ``J_i.T @ lam_i``, stacked like
    ``x``: bit for bit ``J[s, sl].T @ lam[s]``, a gemv on the own columns
    alone, which rounds differently from a slice of the full product."""
    J, out = point.g_jacobians, np.zeros(game.n)
    for rows, cols in game.own_blocks:
        out[cols] = np.matmul(lam[rows][:, None, :], J[rows[:, :, None], cols[:, None, :]])[:, 0, :]
    return out


def projected_gradient_parts(game: GameInstance, point: PointEval, d: DualStack,
                             penalty: PenaltyParams) -> tuple[Array, Array, Array, Array]:
    """Per-player norms ``(qx, qz, qlam, qmu)`` of the four projected-gradient
    blocks of the regularized Lagrangian at ``point`` and duals ``d``.

    The x-block is the projected own-gradient step residual, the z-block is
    ``mu - lam + alpha z``, the lam-block the projected dual step residual,
    and the mu-block ``z + beta (lam - mu)``. Right after the exact dual
    steps the z and mu blocks vanish identically.
    """
    # A player without constraints adds +0.0 here, which no norm below sees.
    grad_own = (point.theta_grads.ravel()[game.layout.own_entries]
                + _own_jacobian_products(game, point, d.lam))
    x_step = point.x - game.project_private(point.x - grad_own)
    grad_lam = point.g_values - d.z - penalty.beta * (d.lam - d.mu)
    qlam, qz, qmu = d.rows.norm(np.array([d.lam - np.maximum(d.lam + grad_lam, 0.0),
                                          d.mu - d.lam + penalty.alpha * d.z,
                                          d.z + penalty.beta * (d.lam - d.mu)]))
    return game.layout.segments.norm(x_step), qz, qlam, qmu


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
    values: Array            # (N,) L_nu(y, duals)
    grads: Array             # (N, n) full gradient of L_nu at y, row nu
    gamma: Array             # (N,)
    own_grad: Array          # (n,) player-own blocks of grads, stacked
    gamma_by_coord: Array    # (n,) gamma_nu repeated over the player's block
    duals: DualStack         # dual states frozen into the anchor
    penalty: PenaltyParams

    def model_values(self, x: Array) -> Array:
        """Every player's model value at ``x``."""
        d = x - self.y
        return self.values + row_dots(self.grads, d) + 0.5 * self.gamma * (d @ d)

    def own_model_grad(self, u: Array) -> Array:
        """Stacked own-block model gradients of all players at ``u``."""
        return self.own_grad + self.gamma_by_coord * (u - self.y)


def build_anchor(
    game: GameInstance,
    duals: DualStack,
    penalty: PenaltyParams,
    gamma: Array,
    point: PointEval,
    values: Array,
) -> QuadraticAnchor:
    """Assemble the surrogate anchor from a completed oracle sweep and the
    players' Lagrangian values there, ``lagrangian_values(point, duals, penalty)``."""
    grads = game.rows.vecmat_add(point.theta_grads, duals.lam, point.g_jacobians)
    gamma = np.asarray(gamma, dtype=float)
    return QuadraticAnchor(point.x, values, grads, gamma,
                           grads.ravel()[game.layout.own_entries],
                           game.layout.segments.repeat(gamma), duals, penalty)
