"""The solver's step written out one piece at a time, the reference the
tests compare ``solve`` against.

From an anchor ``y`` with multipliers ``lam`` and proximal weights
``gamma``, player ``nu``'s quadratic surrogate is::

    Lhat_nu(x) = L_nu(y) + grad_x L_nu(y) . (x - y) + gamma_nu/2 ||x - y||^2

:func:`build_anchor` assembles it from a full oracle sweep at ``y``, and
:func:`solve_inner` takes its closed-form Jacobi block update (every
player's surrogate minimizer over its private set, one projection) and the
exact dual step :func:`step_duals` at the new point. :func:`inner_step` is
the iterative sweep whose fixed point that update is, with per-player step
sizes from :func:`choose_sigma`. ``solve`` takes the same step on its joint
row ``[x; lam]`` (``solver._step``), bit for bit. :func:`draw_point` is the
smoothness sampler's draw one point at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gnepsolve.core import Array, GameInstance, row_dots, vec_norm
from gnepsolve.lagrangian import PointEval, evaluate_point, surrogate_values
from gnepsolve.solver import LipschitzEstimator, SolverConfig


@dataclass
class QuadraticAnchor:
    """Cached data of every player's surrogate at the anchor ``y``: the full
    Lagrangian gradients, assembled once, and their own blocks. The anchor
    values ``L_nu(y)`` are not held here (:meth:`model_values` takes them).
    The model gradient is affine with slope ``gamma_nu I``; its Lipschitz
    constant and strong-convexity modulus both equal ``gamma_nu``."""

    y: Array
    grads: Array             # (N, n) full gradient of L_nu at y, row nu
    gamma: Array             # (N,)
    own_grad: Array          # (n,) player-own blocks of grads, stacked
    gamma_by_coord: Array    # (n,) gamma_nu repeated over the player's block
    lam: Array               # (M,) multipliers frozen into the anchor

    def model_values(self, x: Array, values: Array) -> Array:
        """Every player's model value at ``x``, from the values ``L_nu(y)``."""
        d = x - self.y
        return surrogate_values(values, row_dots(self.grads, d), self.gamma, d @ d)

    def own_model_grad(self, u: Array) -> Array:
        """Stacked own-block model gradients of all players at ``u``."""
        return self.own_grad + self.gamma_by_coord * (u - self.y)


def build_anchor(game: GameInstance, lam: Array, gamma: Array, point: PointEval,
                 gamma_by_coord: Array | None = None) -> QuadraticAnchor:
    """The surrogate anchor from a completed oracle sweep ``point``."""
    grads = game.rows.vecmat_add(point.theta_grads, lam, point.g_jacobians)
    gamma = np.asarray(gamma, dtype=float)
    return QuadraticAnchor(point.x, grads, gamma, grads.ravel()[game.layout.own_entries],
                           game.layout.segments.repeat(gamma) if gamma_by_coord is None
                           else gamma_by_coord, lam)


def own_objective_grads(game: GameInstance, point: PointEval) -> Array:
    """Every player's own block of its objective gradient at ``point``,
    stacked like ``x``."""
    return point.theta_grads.ravel()[game.layout.own_entries]


def step_duals(lam: Array, g: Array, beta: float) -> Array:
    """Exact maximization over the multipliers, ``max(lam + g / beta, 0)``,
    for the constraint values ``g`` at the new point: the general step
    ``max(mu + g / beta, 0)`` at ``z = 0`` and ``mu = lam``."""
    return np.maximum(lam + g / beta, 0.0)


@dataclass
class InnerResult:
    x_next: Array
    point: PointEval     # the oracle sweep at x_next
    lam: Array           # the dual step at x_next from the anchor's multipliers
    dlam: Array          # lam - anchor.lam


def solve_inner(game: GameInstance, anchor: QuadraticAnchor, cfg: SolverConfig) -> InnerResult:
    """The Jacobi block update, ``project_private(y - own_grad / gamma)``,
    then the full sweep there and the dual step from the anchor's
    multipliers."""
    u = game.project_private(anchor.y - anchor.own_grad / anchor.gamma_by_coord)
    point = evaluate_point(game, u)
    lam = step_duals(anchor.lam, point.g_values, cfg.beta)
    return InnerResult(u, point, lam, lam - anchor.lam)


def inner_step(u: Array, anchor: QuadraticAnchor, sigma: Array, game: GameInstance) -> Array:
    """One synchronous Jacobi sweep: block ``nu`` moves from ``u`` along its
    own model gradient by ``sigma_nu`` and projects onto its private set."""
    step = np.repeat(np.asarray(sigma, dtype=float), game.layout.dims)
    return game.project_private(u - step * anchor.own_model_grad(u))


def inner_residual(u: Array, anchor: QuadraticAnchor, sigma: Array, game: GameInstance) -> float:
    """Distance moved by one more sweep; zero exactly at the fixed point."""
    return vec_norm(inner_step(u, anchor, sigma, game) - u)


def sigma_cap(gamma_min: float, lhat_max: float) -> float:
    """Safeguard on the largest step size: 90% of the smaller of the bounds
    ``2 gamma_min / Lhat_max^2`` and ``2 gamma_min^2 / Lhat_max``, which
    keeps the contraction factor strictly below one."""
    return 0.9 * min(2.0 * gamma_min / lhat_max ** 2, 2.0 * gamma_min ** 2 / lhat_max)


def contraction_factor(gamma_min: float, lhat_max: float, sigma_hat: float) -> float:
    return float(np.sqrt(max(0.0, 1.0 - 2.0 * gamma_min * sigma_hat
                             + sigma_hat ** 2 * lhat_max ** 2)))


def choose_sigma(cfg: SolverConfig, outer_k: int, gamma: Array) -> tuple[Array, float]:
    """Per-player step sizes from the schedule ``cfg.sigma`` at outer
    iteration ``outer_k``, and the stacked contraction factor ``tau`` of the
    sweep with them. With ``sigma0=None`` every player gets ``0.9 /
    gamma_nu`` scaled by the schedule decay (block ``nu`` contracts at
    exactly ``|1 - sigma_nu gamma_nu|``); an explicit ``sigma0`` is one step
    size for all, clipped at :func:`sigma_cap`."""
    gamma = np.asarray(gamma, dtype=float)
    gmin, gmax = float(gamma.min()), float(gamma.max())
    schedule = cfg.sigma
    decay = 1.0 / (1.0 + outer_k / schedule.decay) if schedule.kind == "diminishing" else 1.0
    if schedule.sigma0 is None:
        sigma = (0.9 * decay) / gamma
    else:
        sigma = np.full(gamma.shape[0], min(schedule.sigma0 * decay, sigma_cap(gmin, gmax)))
    return sigma, contraction_factor(gmin, gmax, float(sigma.max()))


def draw_point(est: LipschitzEstimator) -> Array:
    """One point drawn in ``est``'s sampling box and projected on the private
    sets: ``LipschitzEstimator._draw_pairs`` one point at a time, which draws
    the same stream."""
    raw = est._box_center + est.rng.uniform(-1.0, 1.0, est.game.n) * est._box_halfwidth
    return est.game.project_private(raw)
