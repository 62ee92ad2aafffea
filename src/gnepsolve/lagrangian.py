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

from .core import Array, GameInstance, OracleFailure, PlayerDualState, Segments, own_columns

__all__ = [
    "PenaltyParams",
    "lagrangian_from_values",
    "lagrangian_value",
    "lagrangian_values",
    "surrogate_values",
    "PointEval",
    "evaluate_point",
    "checked_sweep",
    "raw_sweep",
    "projected_gradient_x",
    "projected_step_lam",
]


@dataclass(frozen=True)
class PenaltyParams:
    """Penalty weight ``alpha`` and proximal weight ``beta`` of every player,
    fixed for the whole run; both finite and > 0."""

    alpha: float = 10.0
    beta: float = 1.0

    def __post_init__(self):
        for name, w in (("alpha", self.alpha), ("beta", self.beta)):
            if not 0 < w < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {w}")


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
    theta: Array          # (N,) objective values
    theta_grads: Array    # (N, n) objective gradients
    g_values: Array       # (M,) constraint values
    g_jacobians: Array    # (M, n) constraint Jacobians


_POINT_FIELDS = ("objective value", "objective gradient", "constraint value",
                 "constraint Jacobian")
QUIET = {"divide": "ignore", "over": "ignore", "invalid": "ignore"}   # left to finiteness checks
_sum = np.add.reduce


def evaluate_point(game: GameInstance, x: Array) -> PointEval:
    """Every player's objective value and gradient, constraint values and
    Jacobian at ``x``, from one :func:`raw_sweep`.

    A non-finite value raises :class:`OracleFailure` naming the first
    player, and its first field in the order value, gradient, constraint
    value, Jacobian. The check is one pass, the sum of every field, and
    only a sum that is not finite (a non-finite entry, or finite entries
    whose sum overflows) looks at the fields one by one.
    """
    with np.errstate(**QUIET):   # ends in the finiteness check
        x = np.array(x, dtype=float, copy=True)
        return PointEval(x, *checked_sweep(game, x))


def checked_sweep(game: GameInstance, x: Array) -> tuple[Array, Array, Array, Array]:
    """The fields of :class:`PointEval` at ``x`` after ``x``, checked as
    :func:`evaluate_point` checks them, with no copy of ``x``, no
    ``errstate`` and no :class:`PointEval`: for a caller that runs under
    ``np.errstate(**QUIET)`` and hands over a float array."""
    fields = raw_sweep(game, x)
    if not math.isfinite(_sum(np.concatenate(fields, axis=None))):
        _raise_first_nonfinite(game, fields)
    return fields


def raw_sweep(game: GameInstance, x: Array) -> tuple[Array, Array, Array, Array]:
    """The fields of :class:`PointEval` at ``x``, unchecked, each over the
    leading axes of a stack of points ``x``: one call of the game's batched
    oracle (``game.batched_oracle``) if it has one, else each player's
    oracles in turn at each point. The built-in batched oracles agree with
    the players' oracles bit for bit, as the oracles return rows of the same
    computation; only power's takes a stack (games with stacked quadratic
    data are never sampled)."""
    if game.batched_oracle is not None:
        return game.batched_oracle(x)
    fields = zip(*(_oracle_sweep(game, p) for p in x.reshape(-1, game.n)))
    return tuple(np.stack(f).reshape(x.shape[:-1] + f[0].shape) for f in fields)


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


def lagrangian_values(theta: Array, g: Array, lam: Array, rows: Segments) -> Array:
    """Every player's Lagrangian ``theta + lam.g`` from its objective value
    ``theta`` (N,) and the constraint values ``g`` at a point, at the
    multipliers ``lam``, both stacked over the constraint rows ``rows``: the
    regularized form at ``z = 0`` and ``mu = lam``. A player without
    constraints gets ``theta`` unchanged (``-0.0 + 0.0`` would not be).
    Leading axes of ``theta``, ``g`` and ``lam`` broadcast, and the sums
    over every leading entry are one :meth:`~gnepsolve.core.Segments.dot`,
    each entry bit for bit the one-point value."""
    lam, g = np.broadcast_arrays(lam, g)
    return np.where(rows.nonempty, theta + rows.dot(lam, g), theta)


def _own_jacobian_products(game: GameInstance, J: Array, lam: Array) -> Array:
    """Player ``i``'s own-block columns of ``J_i.T @ lam_i``, stacked like ``x``
    over the leading axes of ``lam`` (``J`` shared or stacked along them): bit for
    bit ``J[s, sl].T @ lam[s]``, a gemv per player batched per run on the view
    :func:`own_columns` (a full product or a gathered copy rounds differently)."""
    lead = lam.shape[:-1]
    out = np.zeros(lead + (game.n,))
    for players, rows, cols in game.constrained_runs:
        blocks = own_columns(J, (players, rows, cols))
        products = np.matmul(lam[..., rows].reshape(lead + (-1, 1, blocks.shape[-2])), blocks)
        out[..., cols] = products.reshape(lead + (-1,))
    return out


def projected_gradient_x(game: GameInstance, x: Array, lam: Array, grad_own: Array,
                         J: Array) -> Array:
    """Per-player norm of the x-block of the projected gradient at ``x`` and
    multipliers ``lam``, from the objective gradients' own blocks ``grad_own``
    (stacked like ``x``) and the constraint Jacobian ``J``: the projected
    own-gradient step residual. Over leading axes of ``x``, ``lam`` and
    ``grad_own`` (``J`` stacked along them or shared) each row is bit for bit
    the one-point value. The other duals do not enter the x-gradient."""
    # A player without constraints adds +0.0 here, which no norm below sees.
    x_step = x - game.project_private(x - (grad_own + _own_jacobian_products(game, J, lam)))
    return game.layout.segments.norm(x_step)


def projected_step_lam(lam: Array, grad_lam: Array) -> Array:
    """The projected multiplier step ``lam - max(lam + grad_lam, 0)`` over the
    constraint rows, for ``grad_lam = g - z - beta (lam - mu)``: ``g`` at the solver's duals."""
    return lam - np.maximum(lam + grad_lam, 0.0)


# ---------------------------------------------------------------------------
# Quadratic surrogate anchored at the current outer iterate
# ---------------------------------------------------------------------------


def surrogate_values(values: Array, slope: Array, gamma: Array, dd: Array) -> Array:
    """Player ``nu``'s model at ``x = y + d``, anchored at ``y``,

        Lhat_nu(x) = L_nu(y) + grad_x L_nu(y) . d + gamma_nu/2 ||d||^2,

    from the anchor values ``L_nu(y)``, the slopes ``grads @ d`` and ``dd =
    d.d``: the one implementation of the model, over any leading axes that
    broadcast. Its own-block gradient is affine with slope ``gamma_nu I``,
    so its minimizer over a private set is one projection."""
    return values + slope + 0.5 * gamma * dd
