"""Equilibrium verification: KKT residuals, best-response gaps, saddle sampling.

Everything here is a read-only analysis of a candidate point; the
best-response reference solver is deliberately independent of the main
solver so the two can cross-check each other. It has one method for every
player: proximal SQP, each step one convex QP solved exactly by a dual
active-set method (Goldfarb-Idnani). On a strictly convex quadratic player
with affine constraints on a box or nonneg set the first step is the exact
best response; on a singular own block (a18) the proximal term makes the
steps proximal point iterations, which end finitely on polyhedral problems.
A result counts only if it certifies its own KKT residuals. Analyses are
embarrassingly parallel across players and samples.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .core import (Array, GameInstance, IterateState, PlayerDualState, central_jacobian,
                   constraint_violation, max_abs)
from .lagrangian import (
    PenaltyParams,
    evaluate_point,
    lagrangian_from_values,
    projected_gradient_x,
    projected_step_lam,
)

__all__ = [
    "kkt_residual",
    "best_response_gap",
    "solve_best_response",
    "saddle_check",
    "projected_gradient_blocks",
    "projected_gradient_norm",
    "DiagnosticsReport",
    "diagnose",
]


# ---------------------------------------------------------------------------
# KKT residuals
# ---------------------------------------------------------------------------


def kkt_residual(game: GameInstance, x: Array, lams: list[Array]) -> list[tuple[float, float, float]]:
    """Per-player (stationarity, complementarity, feasibility) at ``(x, lams)``.

    Stationarity is the max-norm distance between the own block and its
    projection along the own-block Lagrangian gradient; complementarity is
    ``max_i |lam_i g_i|``; feasibility is ``max_i max(g_i, 0)``.
    """
    for i, lam in enumerate(lams):
        if np.any(lam < 0):
            raise ValueError(f"player {i}: lam must be nonnegative")
    return [_single_kkt(game, i, x, lams[i]) for i in range(game.num_players)]


# ---------------------------------------------------------------------------
# Independent best-response reference
# ---------------------------------------------------------------------------


@dataclass
class BestResponseInfo:
    block: Array
    objective: float
    multipliers: Array
    kkt: tuple[float, float, float]
    iterations: int
    certified: bool
    relaxation: Array | None = None


def solve_best_response(game: GameInstance, x: Array, player: int) -> BestResponseInfo:
    """Solve one player's problem with rivals frozen.

    Minimizes ``theta(u, x_rest)`` over the private set subject to
    ``g(u, x_rest) <= relax`` where ``relax = max(g(x), 0)`` keeps the
    deviation problem feasible when the queried point itself violates its
    constraints (otherwise the feasible set may be empty and the gap
    meaningless). The result is certified only if its own KKT residuals for
    the relaxed problem all fall below ``_CERT_TOL``.

    Proximal SQP: each step, from the current own block ``u_k``, solves one
    convex QP with :func:`_dual_active_set`. Its Hessian is the own block of
    the player's Lagrangian Hessian at the last step's multipliers (from
    ``game.quadratic``, or by central differences of the own-block
    Lagrangian gradient; a ball row adds its curvature), plus ``eps I``
    centred at ``u_k`` if that is not positive definite, with ``eps`` from
    the Frobenius norm, which bounds the 2-norm without an SVD. Its rows are
    the constraints linearised at ``u_k`` and the private set: bounds, a
    simplex's sum as two rows, a ball's norm linearised. The projected
    solution of each step is certified, and the first certificate ends the
    search; ``iterations`` counts active-set changes over all steps. After
    ``_SQP_STEPS`` steps without one, the step with the smallest KKT
    residual comes back uncertified.
    """
    p = game.players[player]
    pset = p.private_set
    sl = game.layout.block_slice(player)
    set_rows, set_rhs = _set_rows(pset)
    base = np.array(x, dtype=float, copy=True)
    relax = np.zeros(0)
    mu = np.zeros(p.m)
    ball_mult = 0.0
    changes = 0
    best = None
    for step in range(_SQP_STEPS):
        own = base[sl]
        rows, rhs = [set_rows], [set_rhs]
        if p.m:
            # Every constraint row is J u <= relax - g + J u_k, which u_k
            # satisfies at the first step.
            g = np.asarray(p.constraints(base), dtype=float)
            if not step:
                relax = np.maximum(g, 0.0)
            J = np.asarray(p.constraint_jacobian(base), dtype=float)[:, sl]
            rows.insert(0, J)
            rhs.insert(0, relax - g + J @ own)
        if pset.kind == "ball":
            # ||u||^2 <= r^2 linearised at u_k
            rows.append(2.0 * own[None, :])
            rhs.append(np.array([pset.radius ** 2 + float(own @ own)]))
        H = _own_hessian(game, player, base, mu)
        if ball_mult:
            # the ball row's curvature, 2 I times its last multiplier
            H = H + 2.0 * ball_mult * np.eye(pset.dim)
        try:
            chol = np.linalg.cholesky(H)
        except np.linalg.LinAlgError:
            H = H + 1e-2 * max(1.0, float(np.linalg.norm(H))) * np.eye(pset.dim)
            try:
                chol = np.linalg.cholesky(H)
            except np.linalg.LinAlgError:
                break
        # The model 0.5 (u - u_k)'H(u - u_k) + grad'(u - u_k), less its constant.
        q = np.asarray(p.gradient(base), dtype=float)[sl] - H @ own
        solved = _dual_active_set(chol, q, np.vstack(rows), np.concatenate(rhs))
        if solved is None:
            break
        u, lam, k = solved
        changes += k
        u = pset.project(u)
        base[sl] = u
        mu = lam[:p.m]
        ball_mult = lam[-1] if pset.kind == "ball" else 0.0
        triple = _single_kkt(game, player, base, mu, relax)
        if max(triple) <= _CERT_TOL:
            return BestResponseInfo(u, float(p.objective(base)), mu, triple, changes, True, relax)
        if best is None or max(triple) < max(best[2]):
            best = (u, mu, triple)
    if best is None:   # no step solved: the queried block comes back
        best = (base[sl].copy(), mu, _single_kkt(game, player, base, mu, relax))
    u, mu, triple = best
    base[sl] = u
    return BestResponseInfo(u, float(p.objective(base)), mu, triple, changes, False, relax)


# Proximal SQP steps before the best step so far comes back uncertified.
_SQP_STEPS = 50
_CERT_TOL = 1e-8   # a best response certifies when its KKT residuals are all at most this


def _set_rows(pset) -> tuple[Array, Array]:
    """The private set's fixed QP rows ``C u <= d``: one row per finite
    bound (a simplex's and a ball's lower bounds are 0), and a simplex's
    ``sum(u) = 1`` as two rows."""
    dim = pset.dim
    if pset.kind == "box":
        lower, upper = pset.lower, pset.upper
    else:
        lower, upper = np.zeros(dim), np.full(dim, np.inf)
    eye = np.eye(dim)
    lo, up = np.isfinite(lower), np.isfinite(upper)
    rows, rhs = [-eye[lo], eye[up]], [-lower[lo], upper[up]]
    if pset.kind == "simplex":
        rows += [np.ones((1, dim)), -np.ones((1, dim))]
        rhs += [np.ones(1), -np.ones(1)]
    return np.vstack(rows), np.concatenate(rhs)


def _own_hessian(game: GameInstance, player: int, x: Array, mu: Array) -> Array:
    """The own block of the player's Lagrangian Hessian at ``x`` with
    multipliers ``mu``: ``Q_i[sl, sl] + sum_j mu_j A_j[sl, sl]`` from the
    stacked quadratic data (``Q_i[sl, sl]`` is ``G[sl, sl]``), else the
    symmetrised central-difference Jacobian of the own-block Lagrangian
    gradient."""
    sl = game.layout.block_slice(player)
    q = game.quadratic
    if q is not None:
        H = q.G[sl, sl]
        A = q.hessians.get(player)
        return H if A is None else H + np.tensordot(mu, A[:, sl, sl], axes=1)
    p = game.players[player]
    point = np.array(x, dtype=float, copy=True)

    def own_gradient(u: Array) -> Array:
        point[sl] = u
        grad = np.asarray(p.gradient(point), dtype=float)[sl]
        if p.m:
            grad = grad + np.asarray(p.constraint_jacobian(point), dtype=float)[:, sl].T @ mu
        return grad

    H = central_jacobian(own_gradient, x[sl], p.private_set.dim)
    return 0.5 * (H + H.T)


# Relative sizes in the dual active-set loop: a row's violation below
# _SATISFIED_TOL counts as none, and a new row's step direction below
# _DEPENDENT_ROW_TOL as zero (the row is a combination of the active rows).
_SATISFIED_TOL = 1e-12
_DEPENDENT_ROW_TOL = 1e-12


def _dual_active_set(chol: Array, q: Array, C: Array, d: Array) -> tuple[Array, Array, int] | None:
    """Minimize ``0.5 u'Hu + q'u`` subject to ``C u <= d`` with ``H = chol chol'``.

    The dual active-set method of Goldfarb and Idnani (Math. Programming 27,
    1983; Nocedal and Wright, *Numerical Optimization*, 2nd ed., ch. 16):
    start at the unconstrained minimizer and add the most violated row,
    raising its multiplier while the active rows stay tight; an active row
    whose multiplier reaches zero first is dropped on the way. Every step is
    taken in the basis ``L^{-T} Q`` from the QR factorization of
    ``L^{-1} C_A'``. Returns ``(u, multipliers per row, active-set changes)``,
    or ``None`` when the rows are infeasible, a new row is dependent on the
    active ones that cannot be dropped, or the changes reach a cap.
    """
    n = q.shape[0]
    linv = np.linalg.solve(chol, np.eye(n))
    u = -(linv.T @ (linv @ q))
    lam = np.zeros(d.shape[0])
    active: list[int] = []
    changes = 0
    cap = 10 * (d.shape[0] + 1)
    while True:
        slack = C @ u - d
        slack[active] = 0.0
        new = int(np.argmax(slack)) if slack.size else 0
        if not slack.size or slack[new] <= _SATISFIED_TOL * (1.0 + abs(d[new])):
            return u, lam, changes
        while True:
            if changes >= cap:
                return None
            k = len(active)
            if k:
                qr_q, qr_r = np.linalg.qr(linv @ C[active].T, mode="complete")
                basis = linv.T @ qr_q
            else:
                basis = linv.T
            coef = basis.T @ C[new]
            # Primal direction inside the active rows' null space, and the
            # active multipliers' rate of change.
            z = basis[:, k:] @ coef[k:]
            r = np.linalg.solve(qr_r[:k, :k], coef[:k]) if k else np.zeros(0)
            curv = float(coef[k:] @ coef[k:])
            independent = math.sqrt(curv) > _DEPENDENT_ROW_TOL * float(np.linalg.norm(coef))
            t_drop, drop = math.inf, -1
            for j in range(k):
                if r[j] > 0.0 and lam[active[j]] / r[j] < t_drop:
                    t_drop, drop = lam[active[j]] / r[j], j
            if not independent and drop < 0:
                return None
            t_full = float(C[new] @ u - d[new]) / curv if independent else math.inf
            t = min(t_drop, t_full)
            if independent:
                u = u - t * z
            lam[active] = np.maximum(lam[active] - t * r, 0.0)
            lam[new] += t
            changes += 1
            if t_full <= t_drop:
                active.append(new)
                break
            lam[active[drop]] = 0.0
            del active[drop]


def _single_kkt(game: GameInstance, player: int, x: Array, lam: Array,
                relax: Array | None = None) -> tuple[float, float, float]:
    """One player's KKT triple; ``relax`` shifts the constraints to ``g - relax``."""
    p = game.players[player]
    sl = game.layout.block_slice(player)
    grad_own = np.asarray(p.gradient(x), dtype=float)[sl]
    comp = feas = 0.0
    if p.m:
        g = np.asarray(p.constraints(x), dtype=float)
        if relax is not None:
            g = g - relax
        J = np.asarray(p.constraint_jacobian(x), dtype=float)
        grad_own = grad_own + J[:, sl].T @ lam
        comp = max_abs(lam * g)
        feas = constraint_violation(g)
    block = x[sl]
    stat = max_abs(block - p.private_set.project(block - grad_own))
    return stat, comp, feas


def best_response_gap(game: GameInstance, x: Array, player: int) -> float:
    """Improvement available to one player by deviating optimally.

    Returns ``theta(x) - theta(best response)``; a genuine equilibrium gives
    a gap no more negative than ``-_CERT_TOL``. If the reference solve cannot
    certify itself the gap is reported as ``inf``.
    """
    info = solve_best_response(game, x, player)
    if not info.certified:
        return math.inf
    return float(game.players[player].objective(x)) - info.objective


# ---------------------------------------------------------------------------
# Saddle-point falsification sampling
# ---------------------------------------------------------------------------


_SADDLE_SLACK = 1e-6   # a sampled value beyond the centre by more than this violates


def saddle_check(game: GameInstance, state: IterateState, penalty: PenaltyParams,
                 samples: int = 1000, seed: int = 0) -> int:
    """Count sampled violations of the two saddle inequalities at ``state``.

    Multiplier samples draw ``lam`` uniformly from ``[0, 2 max(1, |lam*|)]``
    and ``mu`` from a unit box around ``mu*``; primal samples deviate one
    player's block inside its private set together with a perturbed ``z``.
    Sampling falsifies, it does not prove.
    """
    rng = np.random.default_rng(seed)
    x = state.x
    theta = [float(p.objective(x)) for p in game.players]
    gvals = [np.asarray(p.constraints(x), dtype=float) if p.m else np.zeros(0)
             for p in game.players]

    alpha, beta = penalty.alpha, penalty.beta
    center = [lagrangian_from_values(theta[i], gvals[i], d, alpha, beta)
              for i, d in enumerate(state.duals)]

    violations = 0
    for _ in range(samples):
        for i, p in enumerate(game.players):
            d = state.duals[i]
            if p.m:
                hi = 2.0 * max(1.0, max_abs(d.lam))
                lam_s = rng.uniform(0.0, hi, p.m)
                mu_s = d.mu + rng.uniform(-1.0, 1.0, p.m)
                left = lagrangian_from_values(theta[i], gvals[i], PlayerDualState(d.z, lam_s, mu_s),
                                              alpha, beta)
                if left > center[i] + _SADDLE_SLACK:
                    violations += 1
            sl = game.layout.block_slice(i)
            dev = p.private_set.project(x[sl] + rng.uniform(-1.0, 1.0, p.private_set.dim))
            xdev = x.copy()
            xdev[sl] = dev
            z_dev = d.z + 0.5 * rng.standard_normal(p.m) if p.m else d.z
            g_dev = np.asarray(p.constraints(xdev), dtype=float) if p.m else np.zeros(0)
            right = lagrangian_from_values(float(p.objective(xdev)), g_dev,
                                           PlayerDualState(z_dev, d.lam, d.mu), alpha, beta)
            if right < center[i] - _SADDLE_SLACK:
                violations += 1
    return violations


# ---------------------------------------------------------------------------
# Projected gradient of the regularized Lagrangian
# ---------------------------------------------------------------------------


def projected_gradient_blocks(game: GameInstance, state: IterateState,
                              penalty: PenaltyParams) -> list[dict]:
    """Per-player norms of the four projected-gradient blocks of the
    regularized Lagrangian at ``state``, for any ``z`` and ``mu``, and their sum.

    The x-block is the solver's
    (:func:`~gnepsolve.lagrangian.projected_gradient_x`), the lam-block the
    per-player norm of :func:`~gnepsolve.lagrangian.projected_step_lam`; the z-block is
    ``mu - lam + alpha z`` and the mu-block ``z + beta (lam - mu)``, both
    exactly zero at the duals a solve exports (``z = 0``, ``mu = lam``).
    """
    point = evaluate_point(game, state.x)
    d = state.duals
    own_grad = point.theta_grads.ravel()[game.layout.own_entries]
    qx = projected_gradient_x(game, point.x, d.lam, own_grad, point.g_jacobians)
    qlam = d.rows.norm(projected_step_lam(d.lam,
                                          point.g_values - d.z - penalty.beta * (d.lam - d.mu)))
    qz, qmu = d.rows.norm(np.array([d.mu - d.lam + penalty.alpha * d.z,
                                    d.z + penalty.beta * (d.lam - d.mu)]))
    return [{"qx": float(x_i), "qz": float(z_i), "qlam": float(lam_i), "qmu": float(mu_i),
             "total": float(x_i + z_i + lam_i + mu_i)}
            for x_i, z_i, lam_i, mu_i in zip(qx, qz, qlam, qmu)]


def projected_gradient_norm(game: GameInstance, state: IterateState,
                            penalty: PenaltyParams) -> float:
    """Summed projected-gradient norms over all players and blocks."""
    return float(sum(b["total"] for b in projected_gradient_blocks(game, state, penalty)))


# ---------------------------------------------------------------------------
# Full report
# ---------------------------------------------------------------------------


@dataclass
class DiagnosticsReport:
    stationarity: list[float]
    complementarity: list[float]
    feasibility: list[float]
    best_response_gaps: list[float]
    lam_norm_inf: list[float]
    projected_gradient: list[dict]
    projected_gradient_total: float
    saddle_violations: int | None = None
    notes: list[str] = field(default_factory=list)

    def worst(self) -> float:
        """Largest residual; NaN gaps (skipped) are ignored, inf (uncertified)
        counts as a failure."""
        vals = list(self.stationarity + self.complementarity + self.feasibility)
        for g in self.best_response_gaps:
            if math.isnan(g):
                continue
            vals.append(abs(g))
        return max(vals, default=0.0)

    def as_dict(self) -> dict:
        return asdict(self)


def diagnose(game: GameInstance, state: IterateState, penalty: PenaltyParams,
             with_best_response: bool = True, saddle_samples: int = 0) -> DiagnosticsReport:
    """Assemble the per-player equilibrium report at a candidate state. The
    projected-gradient blocks come first: their checked sweep raises
    ``OracleFailure`` where an oracle is not finite, before unchecked calls warn."""
    pg = projected_gradient_blocks(game, state, penalty)
    triples = kkt_residual(game, state.x, [d.lam for d in state.duals])
    gaps = []
    notes: list[str] = []
    for i in range(game.num_players):
        if with_best_response:
            gap = best_response_gap(game, state.x, i)
            if not math.isfinite(gap):
                notes.append(f"player {i}: best-response reference did not certify")
            gaps.append(gap)
        else:
            gaps.append(float("nan"))
    report = DiagnosticsReport(
        stationarity=[t[0] for t in triples],
        complementarity=[t[1] for t in triples],
        feasibility=[t[2] for t in triples],
        best_response_gaps=gaps,
        lam_norm_inf=[max_abs(d.lam) for d in state.duals],
        projected_gradient=pg,
        projected_gradient_total=float(sum(b["total"] for b in pg)),
        notes=notes,
    )
    if saddle_samples > 0:
        report.saddle_violations = saddle_check(game, state, penalty, samples=saddle_samples)
    return report
