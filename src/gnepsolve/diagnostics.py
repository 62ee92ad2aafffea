"""Equilibrium verification: KKT residuals, best-response gaps, saddle sampling.

Everything here is a read-only analysis of a candidate point; the
best-response reference solver is deliberately independent of the main
solver so the two can cross-check each other. It solves the rivals-fixed QP
of a strictly convex quadratic player with affine constraints on a box or
nonneg set exactly (a dual active-set method), and every other player's
problem by penalty-ramped projected gradient; either result counts only if
it certifies its own KKT residuals. Analyses are embarrassingly parallel
across players and samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Array, GameInstance, IterateState, PlayerDualState, constraint_violation, max_abs
from .lagrangian import (
    PenaltyParams,
    PointEval,
    evaluate_point,
    lagrangian_from_values,
    projected_gradient_parts,
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


def solve_best_response(game: GameInstance, x: Array, player: int,
                        cert_tol: float = 1e-8, budget: int = 400_000) -> BestResponseInfo:
    """Solve one player's problem with rivals frozen.

    Minimizes ``theta(u, x_rest)`` over the private set subject to
    ``g(u, x_rest) <= relax`` where ``relax = max(g(x), 0)`` keeps the
    deviation problem feasible when the queried point itself violates its
    constraints (otherwise the feasible set may be empty and the gap
    meaningless). The result is certified only if its own KKT residuals for
    the relaxed problem all fall below ``cert_tol``.

    A quadratic player with affine constraints, a positive-definite own block
    and a box or nonneg private set has a strictly convex QP as its best
    response; it is solved exactly by a dual active-set method, and
    ``iterations`` then counts active-set changes. Every other player, and a
    QP solve that does not certify, goes to penalty-ramped projected
    gradient, whose iterations ``budget`` bounds.
    """
    info = _exact_best_response(game, x, player, cert_tol)
    if info is None:
        info = _penalty_best_response(game, x, player, cert_tol, budget)
    return info


def _exact_best_response(game: GameInstance, x: Array, player: int,
                         cert_tol: float) -> BestResponseInfo | None:
    """The rivals-fixed QP of a quadratic player with affine constraints, a
    positive-definite own block and a box or nonneg private set, solved by
    :func:`_dual_active_set`; ``None`` outside that class or when the
    solution does not certify."""
    p = game.players[player]
    pset = p.private_set
    # a constant Jacobian marks a player of a quadratic game with affine constraints
    if not game.constant_jacobian(player) or pset.kind not in ("box", "nonneg"):
        return None
    sl = game.layout.block_slice(player)
    H = game.quadratic.Q[player][sl, sl]
    try:
        chol = np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        return None
    base = np.array(x, dtype=float, copy=True)
    own = base[sl]
    # theta(u, x_rest) = 0.5 u'Hu + q'u + const, and every constraint row is
    # J u <= relax - g(x) + J x_own, which x_own itself satisfies.
    q = np.asarray(p.gradient(base), dtype=float)[sl] - H @ own
    if pset.kind == "box":
        lower, upper = pset.lower, pset.upper
    else:
        lower, upper = np.zeros(pset.dim), np.full(pset.dim, np.inf)
    eye = np.eye(pset.dim)
    lo, up = np.isfinite(lower), np.isfinite(upper)
    rows, rhs = [-eye[lo], eye[up]], [-lower[lo], upper[up]]
    relax = np.zeros(0)
    if p.m:
        g = np.asarray(p.constraints(base), dtype=float)
        relax = np.maximum(g, 0.0)
        J = np.asarray(p.constraint_jacobian(base), dtype=float)[:, sl]
        rows.insert(0, J)
        rhs.insert(0, relax - g + J @ own)
    solved = _dual_active_set(chol, q, np.vstack(rows), np.concatenate(rhs))
    if solved is None:
        return None
    u, lam, changes = solved
    u = pset.project(u)
    base[sl] = u
    mu = lam[:p.m]
    triple = _single_kkt(game, player, base, mu, relax)
    if not max(triple) <= cert_tol:
        return None
    return BestResponseInfo(u, float(p.objective(base)), mu, triple, changes, True, relax)


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


def _penalty_best_response(game: GameInstance, x: Array, player: int,
                           cert_tol: float = 1e-8, budget: int = 400_000) -> BestResponseInfo:
    """:func:`solve_best_response` by penalty-ramped projected gradient on
    the augmented objective: a quadratic penalty ramps up across stages with
    multiplier carries, for any player."""
    p = game.players[player]
    sl = game.layout.block_slice(player)
    base = np.array(x, dtype=float, copy=True)
    relax = np.maximum(np.asarray(p.constraints(base), dtype=float), 0.0) if p.m else np.zeros(0)

    # The private set's projection, bound once: box and nonneg blocks end in
    # the same ufunc as SimpleSet.project, without its per-call dispatch.
    pset = p.private_set
    project = pset.project
    if pset.kind == "box":
        project = lambda v: v.clip(pset.lower, pset.upper)
    elif pset.kind == "nonneg":
        project = lambda v: np.maximum(v, 0.0)
    # Own-block columns of a constant Jacobian, transposed, built once.
    own_jac_t = (np.asarray(p.constraint_jacobian(base), dtype=float)[:, sl].T
                 if p.m and game.constant_jacobian(player) else None)

    def full(u: Array) -> Array:
        v = base.copy()
        v[sl] = u
        return v

    def g_rel(xf: Array) -> Array:
        return np.asarray(p.constraints(xf), dtype=float) - relax

    # The last point evaluated: (u, full vector, relaxed constraint values).
    # phi_grad reuses them when it is called with the array phi just saw, as
    # at an accepted candidate and at the start of every stage.
    last: list = [None, None, None]

    def at(u: Array) -> tuple[Array, Array | None]:
        if last[0] is not u:
            xf = full(u)
            last[:] = u, xf, g_rel(xf) if p.m else None
        return last[1], last[2]

    def phi(u: Array, mu: Array, rho: float) -> float:
        xf, g = at(u)
        val = float(p.objective(xf))
        if p.m:
            t = np.maximum(mu / rho + g, 0.0)
            val += 0.5 * rho * float(t @ t) - float(mu @ mu) / (2.0 * rho)
        return val

    def phi_grad(u: Array, mu: Array, rho: float) -> Array:
        xf, g = at(u)
        grad = np.asarray(p.gradient(xf), dtype=float)[sl]
        if p.m:
            lam_t = np.maximum(mu + rho * g, 0.0)
            jac_t = own_jac_t
            if jac_t is None:
                jac_t = np.asarray(p.constraint_jacobian(xf), dtype=float)[:, sl].T
            grad = grad + jac_t @ lam_t
        return grad

    u = x[sl].copy()
    mu = np.zeros(p.m)
    rho = 10.0
    used = 0
    stages = 80
    cert_prev = np.inf
    best = None
    # A trial point that is not finite, or a momentum test that overflows,
    # ends the search: the iterates diverge there. Overflow is detected by
    # these checks, not reported as a warning.
    diverged = False
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(stages):
            val = phi(u, mu, rho)
            step = 1.0
            inner_budget = max(200, budget // stages)
            it = 0
            while it < inner_budget and used < budget:
                it += 1
                grad = phi_grad(u, mu, rho)
                moved = False
                s = step
                for _ in range(80):
                    if used >= budget:
                        break
                    cand = project(u - s * grad)
                    used += 1
                    if not np.isfinite(cand).all():
                        diverged = True
                        break
                    d = cand - u
                    if max_abs(d) == 0.0:
                        break
                    dv = phi(cand, mu, rho)
                    if dv <= val - 1e-4 / max(s, 1e-16) * float(d @ d):
                        u, val = cand, dv
                        step = min(s * 2.0, 1e8)
                        moved = True
                        break
                    s *= 0.5
                if not (moved or diverged):
                    # Value comparisons hit float resolution; finish with fixed
                    # small steps plus momentum (no comparisons), restarting the
                    # momentum whenever it stops pointing downhill.
                    polish = 0.4 * step
                    tiny = 1e-15 * (1.0 + max_abs(u))
                    tmom = 1.0
                    v = u.copy()
                    for _ in range(6000):
                        if used >= budget:
                            break
                        used += 1
                        unew = project(v - polish * phi_grad(v, mu, rho))
                        turn = float((v - unew) @ (unew - u))
                        if not math.isfinite(turn):
                            diverged = True
                            break
                        if turn > 0.0:
                            tmom, v = 1.0, u.copy()
                            continue
                        tnew = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tmom * tmom))
                        v = unew + ((tmom - 1.0) / tnew) * (unew - u)
                        movement = max_abs(unew - u)
                        u, tmom = unew, tnew
                        if movement <= tiny:
                            break
                if not moved:
                    break
            if p.m:
                gr = g_rel(full(u))
                mu = np.maximum(mu + rho * gr, 0.0)
            stat, comp, feas = _single_kkt(game, player, full(u), mu, relax)
            cert = max(stat, comp, feas)
            if best is None or cert < best[0]:
                best = (cert, u.copy(), mu.copy(), (stat, comp, feas))
            if cert <= cert_tol:
                return BestResponseInfo(u, float(p.objective(full(u))), mu,
                                        (stat, comp, feas), used, True, relax)
            if cert > 0.3 * cert_prev:
                # keep rho moderate: the penalty gradient float noise scales with
                # rho and would otherwise swamp the certificate
                rho = min(rho * 4.0, 1e6)
            cert_prev = cert
            if used >= budget or diverged:
                break
    cert, u, mu, triple = best
    certified = cert <= cert_tol
    return BestResponseInfo(u, float(p.objective(full(u))), mu,
                            triple, used, certified, relax)


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


def best_response_gap(game: GameInstance, x: Array, player: int,
                      tol: float = 1e-8, budget: int = 400_000) -> float:
    """Improvement available to one player by deviating optimally.

    Returns ``theta(x) - theta(best response)``; a genuine equilibrium gives
    a gap no more negative than ``-tol``. If the reference solve cannot
    certify itself the gap is reported as ``inf``.
    """
    info = solve_best_response(game, x, player, cert_tol=tol, budget=budget)
    if not info.certified:
        return math.inf
    return float(game.players[player].objective(x)) - info.objective


# ---------------------------------------------------------------------------
# Saddle-point falsification sampling
# ---------------------------------------------------------------------------


def saddle_check(game: GameInstance, state: IterateState, penalty: PenaltyParams,
                 samples: int = 1000, seed: int = 0, slack: float = 1e-6) -> int:
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
                if left > center[i] + slack:
                    violations += 1
            sl = game.layout.block_slice(i)
            dev = p.private_set.project(x[sl] + rng.uniform(-1.0, 1.0, p.private_set.dim))
            xdev = x.copy()
            xdev[sl] = dev
            z_dev = d.z + 0.5 * rng.standard_normal(p.m) if p.m else d.z
            g_dev = np.asarray(p.constraints(xdev), dtype=float) if p.m else np.zeros(0)
            right = lagrangian_from_values(float(p.objective(xdev)), g_dev,
                                           PlayerDualState(z_dev, d.lam, d.mu), alpha, beta)
            if right < center[i] - slack:
                violations += 1
    return violations


# ---------------------------------------------------------------------------
# Projected gradient of the regularized Lagrangian
# ---------------------------------------------------------------------------


def projected_gradient_blocks(game: GameInstance, state: IterateState,
                              penalty: PenaltyParams,
                              point: PointEval | None = None) -> list[dict]:
    """Norms of the four projected-gradient blocks per player (see
    :func:`~gnepsolve.lagrangian.projected_gradient_parts`) and their sum."""
    if point is None:
        point = evaluate_point(game, state.x)
    parts = projected_gradient_parts(game, point, state.duals, penalty)
    return [{"qx": float(qx), "qz": float(qz), "qlam": float(qlam), "qmu": float(qmu),
             "total": float(qx + qz + qlam + qmu)}
            for qx, qz, qlam, qmu in zip(*parts)]


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
        return {
            "stationarity": self.stationarity,
            "complementarity": self.complementarity,
            "feasibility": self.feasibility,
            "best_response_gaps": self.best_response_gaps,
            "lam_norm_inf": self.lam_norm_inf,
            "projected_gradient": self.projected_gradient,
            "projected_gradient_total": self.projected_gradient_total,
            "saddle_violations": self.saddle_violations,
            "notes": self.notes,
        }


def diagnose(game: GameInstance, state: IterateState, penalty: PenaltyParams,
             with_best_response: bool = True, br_budget: int = 400_000,
             saddle_samples: int = 0, seed: int = 0) -> DiagnosticsReport:
    """Assemble the per-player equilibrium report at a candidate state."""
    lams = [d.lam for d in state.duals]
    triples = kkt_residual(game, state.x, lams)
    gaps = []
    notes: list[str] = []
    for i in range(game.num_players):
        if with_best_response:
            gap = best_response_gap(game, state.x, i, budget=br_budget)
            if not math.isfinite(gap):
                notes.append(f"player {i}: best-response reference did not certify")
            gaps.append(gap)
        else:
            gaps.append(float("nan"))
    pg = projected_gradient_blocks(game, state, penalty)
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
        report.saddle_violations = saddle_check(game, state, penalty,
                                                samples=saddle_samples, seed=seed)
    return report
