"""Equilibrium verification: KKT residuals, best-response gaps, saddle sampling.

Everything here is a read-only analysis of a candidate point; the
best-response reference solver is deliberately independent of the main
solver (penalty-ramped projected gradient) so the two can cross-check each
other. Analyses are embarrassingly parallel across players and samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Array, GameInstance, IterateState, PlayerDualState, constraint_violation
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
    """Solve one player's problem with rivals frozen, by penalty-ramped
    projected gradient on the augmented objective.

    Minimizes ``theta(u, x_rest)`` over the private set subject to
    ``g(u, x_rest) <= relax`` where ``relax = max(g(x), 0)`` keeps the
    deviation problem feasible when the queried point itself violates its
    constraints (otherwise the feasible set may be empty and the gap
    meaningless). A quadratic penalty ramps up across stages with multiplier
    carries; the result is certified only if its own KKT residuals for the
    relaxed problem all fall below ``cert_tol``.
    """
    p = game.players[player]
    sl = game.layout.block_slice(player)
    base = np.array(x, dtype=float, copy=True)
    relax = np.maximum(np.asarray(p.constraints(base), dtype=float), 0.0) if p.m else np.zeros(0)

    def full(u: Array) -> Array:
        v = base.copy()
        v[sl] = u
        return v

    def g_rel(xf: Array) -> Array:
        return np.asarray(p.constraints(xf), dtype=float) - relax

    def phi(u: Array, mu: Array, rho: float) -> float:
        xf = full(u)
        val = float(p.objective(xf))
        if p.m:
            t = np.maximum(mu / rho + g_rel(xf), 0.0)
            val += 0.5 * rho * float(t @ t) - float(mu @ mu) / (2.0 * rho)
        return val

    def phi_grad(u: Array, mu: Array, rho: float) -> Array:
        xf = full(u)
        grad = np.asarray(p.gradient(xf), dtype=float)[sl]
        if p.m:
            lam_t = np.maximum(mu + rho * g_rel(xf), 0.0)
            J = np.asarray(p.constraint_jacobian(xf), dtype=float)
            grad = grad + J[:, sl].T @ lam_t
        return grad

    u = x[sl].copy()
    mu = np.zeros(p.m)
    rho = 10.0
    used = 0
    stages = 80
    cert_prev = np.inf
    best = None
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
                cand = p.private_set.project(u - s * grad)
                used += 1
                d = cand - u
                if float(np.max(np.abs(d), initial=0.0)) == 0.0:
                    break
                dv = phi(cand, mu, rho)
                if dv <= val - 1e-4 / max(s, 1e-16) * float(d @ d):
                    u, val = cand, dv
                    step = min(s * 2.0, 1e8)
                    moved = True
                    break
                s *= 0.5
            if not moved:
                # Value comparisons hit float resolution; finish with fixed
                # small steps plus momentum (no comparisons), restarting the
                # momentum whenever it stops pointing downhill.
                polish = 0.4 * step
                tiny = 1e-15 * (1.0 + float(np.max(np.abs(u), initial=0.0)))
                tmom = 1.0
                v = u.copy()
                for _ in range(6000):
                    if used >= budget:
                        break
                    used += 1
                    unew = p.private_set.project(v - polish * phi_grad(v, mu, rho))
                    if float((v - unew) @ (unew - u)) > 0.0:
                        tmom, v = 1.0, u.copy()
                        continue
                    tnew = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tmom * tmom))
                    v = unew + ((tmom - 1.0) / tnew) * (unew - u)
                    movement = float(np.max(np.abs(unew - u), initial=0.0))
                    u, tmom = unew, tnew
                    if movement <= tiny:
                        break
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
        if used >= budget:
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
        comp = float(np.max(np.abs(lam * g), initial=0.0))
        feas = constraint_violation([g])
    block = x[sl]
    stat = float(np.max(np.abs(block - p.private_set.project(block - grad_own)), initial=0.0))
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
    center = [lagrangian_from_values(theta[i], gvals[i], d, alpha[i], beta[i])
              for i, d in enumerate(state.duals)]

    violations = 0
    for _ in range(samples):
        for i, p in enumerate(game.players):
            d = state.duals[i]
            if p.m:
                hi = 2.0 * max(1.0, float(np.max(np.abs(d.lam), initial=0.0)))
                lam_s = rng.uniform(0.0, hi, p.m)
                mu_s = d.mu + rng.uniform(-1.0, 1.0, p.m)
                left = lagrangian_from_values(theta[i], gvals[i], PlayerDualState(d.z, lam_s, mu_s),
                                              alpha[i], beta[i])
                if left > center[i] + slack:
                    violations += 1
            sl = game.layout.block_slice(i)
            dev = p.private_set.project(x[sl] + rng.uniform(-1.0, 1.0, p.private_set.dim))
            xdev = x.copy()
            xdev[sl] = dev
            z_dev = d.z + 0.5 * rng.standard_normal(p.m) if p.m else d.z
            g_dev = np.asarray(p.constraints(xdev), dtype=float) if p.m else np.zeros(0)
            right = lagrangian_from_values(float(p.objective(xdev)), g_dev,
                                           PlayerDualState(z_dev, d.lam, d.mu), alpha[i], beta[i])
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
        lam_norm_inf=[float(np.max(np.abs(d.lam), initial=0.0)) for d in state.duals],
        projected_gradient=pg,
        projected_gradient_total=float(sum(b["total"] for b in pg)),
        notes=notes,
    )
    if saddle_samples > 0:
        report.saddle_violations = saddle_check(game, state, penalty,
                                                samples=saddle_samples, seed=seed)
    return report
