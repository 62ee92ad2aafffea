"""Alternating primal-dual solver with Jacobi gradient projection.

One outer iteration from ``(x, z, lam, mu)``:

1. every player simultaneously runs projected gradient sweeps on its
   quadratic surrogate anchored at ``x`` (Jacobi decomposition: all blocks
   step from a shared snapshot) until the joint residual is small and every
   player passes the exit descent test (surrogate descent, or verified
   non-increase of its true value);
2. ``z`` is reset by exact minimization, ``z = (lam - mu) / alpha``;
3. the multipliers are updated by exact maximization,
   ``lam = max(mu + g(x_new) / beta, 0)`` followed by ``mu = lam``;
4. stop when neither the primal blocks nor the multipliers moved more than
   the outer tolerance in the max norm.

Starting from ``lam == mu`` these steps keep ``lam == mu`` and ``z == 0``
exactly after every iteration; the trace records this along with monitored
value-decrease, multiplier-coupling, and projected-gradient bounds, so
claims about the dynamics can be asserted (or falsified) on real runs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Array,
    GameInstance,
    IterateState,
    OracleFailure,
    PlayerDualState,
    constraint_violation,
    initial_state,
)
from .lagrangian import (
    PenaltyParams,
    PointEval,
    QuadraticAnchor,
    build_anchor,
    evaluate_point,
    lagrangian_from_values,
    lagrangian_values,
    projected_gradient_parts,
)

__all__ = [
    "GammaPolicy",
    "SigmaSchedule",
    "SolverConfig",
    "LipschitzEstimates",
    "LipschitzEstimator",
    "InnerLoopError",
    "estimate_lipschitz",
    "choose_gamma",
    "sigma_cap",
    "choose_sigma",
    "contraction_factor",
    "inner_step",
    "inner_residual",
    "solve_inner",
    "step_z",
    "step_duals",
    "stopping_residual",
    "solve",
    "SolveResult",
    "SolveTrace",
    "TraceRow",
    "verify_run_bounds",
]


class InnerLoopError(RuntimeError):
    """Inner gradient projection ran out of iterations with a large residual."""

    def __init__(self, message: str, iterations: int, residual: float):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GammaPolicy:
    """Proximal-weight policy: fixed user values or the decrease-bound rule.

    The auto rule sets ``gamma_nu = safety * (L_nu + 3 L_g_nu^2 / beta_nu)``,
    the standard sufficient-decrease sizing; a fixed value below that bound
    is allowed but logged as a warning in the run record.
    """

    kind: str = "auto"
    safety: float = 1.0
    values: Array | None = None

    def __post_init__(self):
        if self.kind not in ("auto", "fixed"):
            raise ValueError("gamma policy kind must be 'auto' or 'fixed'")
        if self.kind == "auto" and self.safety < 1.0:
            raise ValueError("safety factor must be >= 1")
        if self.kind == "fixed" and self.values is None:
            raise ValueError("fixed gamma policy needs values")

    @staticmethod
    def auto(safety: float = 1.0) -> "GammaPolicy":
        return GammaPolicy("auto", safety=safety)

    @staticmethod
    def fixed(values) -> "GammaPolicy":
        return GammaPolicy("fixed", values=np.atleast_1d(np.asarray(values, dtype=float)))


@dataclass(frozen=True)
class SigmaSchedule:
    """Inner step-size schedule.

    ``sigma0=None`` selects per-player steps proportional to the inverse
    proximal weights (uniform blockwise contraction); an explicit ``sigma0``
    selects a single step size clipped at the safeguard cap. The diminishing
    schedule scales either base by ``1 / (1 + k / decay)`` at outer
    iteration ``k``.
    """

    kind: str = "diminishing"
    sigma0: float | None = None
    decay: float = 50.0

    def __post_init__(self):
        if self.kind not in ("constant", "diminishing"):
            raise ValueError("sigma schedule kind must be 'constant' or 'diminishing'")
        if self.sigma0 is not None and self.sigma0 <= 0:
            raise ValueError("sigma0 must be positive")
        if self.decay <= 0:
            raise ValueError("decay must be positive")

    @staticmethod
    def constant(sigma0: float | None = None) -> "SigmaSchedule":
        return SigmaSchedule("constant", sigma0=sigma0)

    @staticmethod
    def diminishing(sigma0: float | None = None, decay: float = 50.0) -> "SigmaSchedule":
        return SigmaSchedule("diminishing", sigma0=sigma0, decay=decay)


@dataclass(frozen=True)
class SolverConfig:
    """Outer/inner loop parameters.

    ``inner_rel`` additionally tightens the inner exit threshold to a
    fraction of the current step length so that the accepted block update is
    accurate relative to how far it moved; set it to ``None`` for the plain
    absolute threshold ``inner_eps``.
    """

    alpha: float = 10.0
    beta: float = 1.0
    gamma: GammaPolicy = field(default_factory=GammaPolicy.auto)
    sigma: SigmaSchedule = field(default_factory=SigmaSchedule)
    inner_eps: float = 1e-6
    outer_tol: float = 1e-4
    max_outer: int = 5000
    max_inner: int = 50000
    seed: int = 0
    inner_rel: float | None = 0.5
    stall_patience: int = 100

    def __post_init__(self):
        if self.inner_eps <= 0 or self.outer_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_outer < 1 or self.max_inner < 1:
            raise ValueError("iteration caps must be >= 1")

    def penalty(self, num_players: int) -> PenaltyParams:
        return PenaltyParams.uniform(num_players, self.alpha, self.beta)


# ---------------------------------------------------------------------------
# Lipschitz estimation
# ---------------------------------------------------------------------------


@dataclass
class LipschitzEstimates:
    """Per-player smoothness constants driving step-size safeguards.

    ``L`` bounds the Lipschitz constant of the full Lagrangian x-gradient at
    the current multipliers; ``L_gfun`` bounds the function Lipschitz
    constant of the constraint map near the current iterate. ``Lhat``,
    ``gamma_min``, ``Lhat_max``, ``sigma_hat`` and ``tau`` describe the inner
    contraction once the proximal weights are chosen: the model gradient is
    affine with slope ``gamma``, so ``Lhat == gamma`` exactly and

        tau = sqrt(1 - 2 gamma_min sigma_hat + sigma_hat^2 Lhat_max^2) < 1

    whenever ``sigma_hat`` stays below the safeguard cap.
    """

    L_theta: Array
    grad_g_lip: list[Array]
    L: Array
    L_gfun: Array
    M_theta_own: Array
    M_g_own: Array
    Lhat: Array | None = None
    gamma_min: float = np.nan
    Lhat_max: float = np.nan
    sigma_hat: float = np.nan
    tau: float = np.nan
    tau_block: float = np.nan   # max_nu |1 - sigma_nu gamma_nu|, the exact rate


def spectral_norm(mat: Array, tol: float = 1e-8, seed: int = 0, max_iter: int = 20000) -> float:
    """Largest singular value via the Gram matrix.

    Small matrices use the exact symmetric eigendecomposition (clustered top
    eigenvalues make plain power iteration arbitrarily slow); larger ones use
    power iteration to the requested relative tolerance.
    """
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.size == 0 or not np.any(mat):
        return 0.0
    work = mat if mat.shape[0] <= mat.shape[1] else mat.T
    gram = work @ work.T
    if gram.shape[0] <= 600:
        return float(np.sqrt(max(0.0, float(np.max(np.linalg.eigvalsh(gram))))))
    return power_iteration_norm(gram, tol=tol, seed=seed, max_iter=max_iter)


def power_iteration_norm(gram: Array, tol: float = 1e-8, seed: int = 0,
                         max_iter: int = 20000) -> float:
    """Square root of the dominant eigenvalue of a PSD matrix by power iteration."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(gram.shape[0])
    v /= np.linalg.norm(v)
    last = 0.0
    for _ in range(max_iter):
        w = gram @ v
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0
        v = w / nw
        if abs(nw - last) <= tol * max(nw, 1e-30):
            last = nw
            break
        last = nw
    return float(np.sqrt(last))


class LipschitzEstimator:
    """Smoothness estimation with a quadratic fast path.

    Players carrying constant Hessians get exact spectral-norm constants
    (power iteration). Otherwise constants come from sampled difference
    quotients ``max ||grad f(a) - grad f(b)|| / ||a - b||`` over seeded point
    pairs drawn in a box around the current iterate, inflated by a safety
    factor. The sample box is refreshed when the iterate leaves its core.
    """

    def __init__(self, game: GameInstance, seed: int = 0, pairs: int = 200,
                 inflation: float = 2.0):
        self.game = game
        self.rng = np.random.default_rng(seed)
        self.pairs = max(200, pairs)
        self.inflation = float(inflation)
        self._box_center: Array | None = None
        self._box_halfwidth: Array | None = None
        self._sampled: dict | None = None
        self._quad = [p.is_quadratic for p in game.players]
        self._quad_norms: list[dict | None] = []
        for i, p in enumerate(game.players):
            if not self._quad[i]:
                self._quad_norms.append(None)
                continue
            h_norm = spectral_norm(p.objective_hessian, seed=seed + 7 * i)
            a_norms = np.array(
                [spectral_norm(p.constraint_hessians[j], seed=seed + 13 * i + j)
                 for j in range(p.m)]
            ) if p.m else np.zeros(0)
            # Jacobian-growth bound over a box: ||dJ||_F <= sqrt(sum_j
            # ||A_j||^2 * supp_j) * r, with supp_j the support size of A_j.
            supp = np.array([
                int(np.count_nonzero(np.any(p.constraint_hessians[j], axis=0)))
                for j in range(p.m)
            ]) if p.m else np.zeros(0)
            self._quad_norms.append({"H": h_norm, "A": a_norms,
                                     "jac_growth": float(np.sqrt(np.sum(a_norms ** 2 * np.maximum(supp, 1))))})

    # -- sampling machinery --------------------------------------------------

    def _box(self, x: Array) -> tuple[Array, Array]:
        hw = 2.0 + 0.25 * np.abs(x)
        return np.array(x, copy=True), hw

    def _needs_resample(self, x: Array) -> bool:
        if self._box_center is None:
            return True
        return bool(np.any(np.abs(x - self._box_center) > 0.5 * self._box_halfwidth))

    def _draw_point(self) -> Array:
        raw = self._box_center + self.rng.uniform(-1.0, 1.0, self.game.n) * self._box_halfwidth
        return self.game.project_private(raw)

    def _resample(self, x: Array):
        self._box_center, self._box_halfwidth = self._box(x)
        if all(self._quad):
            self._sampled = {}
            return
        game = self.game
        for attempt in range(2):
            pts_a = [self._draw_point() for _ in range(self.pairs)]
            pts_b = [self._draw_point() for _ in range(self.pairs)]
            good = [(a, b) for a, b in zip(pts_a, pts_b) if np.linalg.norm(a - b) > 1e-10]
            if good:
                break
            self._box_halfwidth = 2.0 * self._box_halfwidth
        else:
            good = []
        if not good:
            raise RuntimeError("degenerate sampling region: all point pairs collapsed")
        sampled = {"L_theta": np.zeros(game.num_players),
                   "grad_g_lip": [np.zeros(p.m) for p in game.players],
                   "jac_max": np.zeros(game.num_players)}
        for i, p in enumerate(game.players):
            if self._quad[i]:
                continue
            lt = 0.0
            gg = np.zeros(p.m)
            jac_max = 0.0
            for a, b in good:
                dist = float(np.linalg.norm(a - b))
                ratio = float(np.linalg.norm(p.gradient(a) - p.gradient(b))) / dist
                if not np.isfinite(ratio):
                    raise OracleFailure(
                        f"player {i}: non-finite gradient while sampling smoothness",
                        player=i)
                lt = max(lt, ratio)
                if p.m:
                    Ja = np.asarray(p.constraint_jacobian(a), dtype=float)
                    Jb = np.asarray(p.constraint_jacobian(b), dtype=float)
                    if not (np.all(np.isfinite(Ja)) and np.all(np.isfinite(Jb))):
                        raise OracleFailure(
                            f"player {i}: non-finite Jacobian while sampling smoothness",
                            player=i)
                    gg = np.maximum(gg, np.linalg.norm(Ja - Jb, axis=1) / dist)
                    jac_max = max(jac_max, spectral_norm(Ja), spectral_norm(Jb))
            sampled["L_theta"][i] = self.inflation * lt
            sampled["grad_g_lip"][i] = self.inflation * gg
            sampled["jac_max"][i] = jac_max
        self._sampled = sampled

    # -- public entry --------------------------------------------------------

    def estimate(self, x: Array, lams: list[Array],
                 jac_norms: Array | None = None) -> LipschitzEstimates:
        """Constants at iterate ``x`` with current multipliers ``lams``.

        ``jac_norms`` may pass precomputed spectral norms of each player's
        constraint Jacobian at ``x`` to avoid an extra oracle sweep.
        """
        game = self.game
        if self._needs_resample(x):
            self._resample(x)
        N = game.num_players
        L_theta = np.zeros(N)
        grad_g_lip: list[Array] = []
        L = np.zeros(N)
        L_gfun = np.zeros(N)
        M_theta_own = np.zeros(N)
        M_g_own = np.zeros(N)
        margin = 0.5  # box radius covered by the function-Lipschitz bound
        for i, p in enumerate(game.players):
            if jac_norms is not None:
                jn = float(jac_norms[i])
            else:
                jn = spectral_norm(p.constraint_jacobian(x)) if p.m else 0.0
            if self._quad[i]:
                q = self._quad_norms[i]
                L_theta[i] = q["H"]
                gg = q["A"].copy()
                L_gfun[i] = jn + q["jac_growth"] * margin
            else:
                L_theta[i] = self._sampled["L_theta"][i]
                gg = self._sampled["grad_g_lip"][i].copy()
                L_gfun[i] = self.inflation * max(jn, self._sampled["jac_max"][i])
            grad_g_lip.append(gg)
            L[i] = L_theta[i] + float(gg @ lams[i]) if p.m else L_theta[i]
            M_theta_own[i] = L_theta[i]
            M_g_own[i] = float(np.sqrt(np.sum(gg ** 2)))
        return LipschitzEstimates(L_theta, grad_g_lip, L, L_gfun, M_theta_own, M_g_own)


def estimate_lipschitz(game: GameInstance, state: IterateState, cfg: SolverConfig,
                       inflation: float = 2.0) -> LipschitzEstimates:
    """One-shot estimation at a state (the solver reuses a cached estimator)."""
    est = LipschitzEstimator(game, seed=cfg.seed, inflation=inflation)
    return est.estimate(state.x, [d.lam for d in state.duals])


# ---------------------------------------------------------------------------
# Step-parameter selection
# ---------------------------------------------------------------------------

_GAMMA_FLOOR = 1e-2


def choose_gamma(est: LipschitzEstimates, penalty: PenaltyParams,
                 policy: GammaPolicy) -> tuple[Array, list[str]]:
    """Proximal weights; auto applies the sufficient-decrease bound."""
    bound = est.L + 3.0 * est.L_gfun ** 2 / penalty.beta
    warnings: list[str] = []
    if policy.kind == "auto":
        gamma = policy.safety * bound
    else:
        gamma = np.broadcast_to(policy.values, bound.shape).astype(float).copy()
        for i in range(bound.shape[0]):
            if gamma[i] < bound[i]:
                warnings.append(
                    f"player {i}: fixed gamma {gamma[i]:.6g} below decrease bound {bound[i]:.6g}"
                )
    floor = max(_GAMMA_FLOOR, 1e-3 * float(np.max(gamma, initial=0.0)))
    gamma = np.maximum(gamma, floor)
    return gamma, warnings


def sigma_cap(gamma_min: float, lhat_max: float) -> float:
    """Safeguard on the largest per-player step size.

    The geometric inner rate requires ``1 - 2 gamma_min s + s^2 Lhat_max^2 < 1``,
    i.e. ``s < 2 gamma_min / Lhat_max^2``; the alternative stated bound is
    ``s < 2 gamma_min^2 / Lhat_max``. The cap takes 90% of the smaller one,
    which keeps the contraction factor strictly below one either way.
    """
    return 0.9 * min(2.0 * gamma_min / lhat_max ** 2, 2.0 * gamma_min ** 2 / lhat_max)


def contraction_factor(gamma_min: float, lhat_max: float, sigma_hat: float) -> float:
    return float(np.sqrt(max(0.0, 1.0 - 2.0 * gamma_min * sigma_hat
                             + sigma_hat ** 2 * lhat_max ** 2)))


def choose_sigma(est: LipschitzEstimates, cfg: SolverConfig, outer_k: int,
                 gamma: Array | None = None) -> Array:
    """Per-player step sizes from the schedule.

    Each block's sweep map is affine in that block alone (the cross-block
    model gradient is frozen at the anchor), so block ``nu`` contracts at
    exactly ``|1 - sigma_nu gamma_nu|``. With ``sigma0=None`` every player
    therefore gets ``sigma_nu = 0.9 / gamma_nu`` scaled by the schedule decay,
    which keeps the rate uniform even when the proximal weights spread widely.
    An explicit ``sigma0`` selects the single-step-size mode, clipped at the
    conservative global cap so the stacked contraction formula certifies it.

    Fills the contraction fields of ``est``: ``Lhat = gamma`` (the model
    gradient's exact Lipschitz slope), the stacked-formula ``tau``, and the
    exact blockwise rate ``tau_block``.
    """
    if gamma is None:
        if est.Lhat is None:
            raise ValueError("gamma not chosen yet")
        gamma = est.Lhat
    gamma = np.asarray(gamma, dtype=float)
    gmin = float(np.min(gamma))
    gmax = float(np.max(gamma))
    cap = sigma_cap(gmin, gmax)
    decay = 1.0 / (1.0 + outer_k / cfg.sigma.decay) if cfg.sigma.kind == "diminishing" else 1.0
    if cfg.sigma.sigma0 is None:
        sigma = (0.9 * decay) / gamma
    else:
        sigma = np.full(gamma.shape[0], min(cfg.sigma.sigma0 * decay, cap))
    est.Lhat = gamma
    est.gamma_min = gmin
    est.Lhat_max = gmax
    est.sigma_hat = float(np.max(sigma))
    est.tau = contraction_factor(gmin, gmax, est.sigma_hat)
    est.tau_block = float(np.max(np.abs(1.0 - sigma * gamma)))
    return sigma


# ---------------------------------------------------------------------------
# Inner Jacobi gradient projection
# ---------------------------------------------------------------------------


def inner_step(u: Array, anchor: QuadraticAnchor, sigma: Array, game: GameInstance) -> Array:
    """One synchronous Jacobi sweep: every block steps from the same ``u``.

    Block ``nu`` moves along its own model gradient (anchored Lagrangian
    gradient plus ``gamma_nu (u_nu - y_nu)``) and projects onto its private
    set. Deterministic: identical inputs produce identical output bits.
    """
    step = np.repeat(np.asarray(sigma, dtype=float), game.layout.dims)
    return game.project_private(u - step * anchor.own_model_grad(u))


def inner_residual(u: Array, anchor: QuadraticAnchor, sigma: Array, game: GameInstance) -> float:
    """Distance moved by one more sweep; zero exactly at the fixed point."""
    return float(np.linalg.norm(inner_step(u, anchor, sigma, game) - u))


@dataclass
class InnerResult:
    x_next: Array
    iterations: int
    stalled: bool
    residual: float
    exit_kind: str = "descent"   # descent | true | forced | stall


def _exit_descent_ok(game: GameInstance, anchor: QuadraticAnchor, u: Array,
                     slack_bound: Array | None = None) -> tuple[str, bool]:
    """Per-player exit test at an inner candidate ``u``.

    Strict surrogate descent for every player is not always achievable: when
    rivals' moves raise a player's anchored Lagrangian through the
    cross-block terms, every point near the fixed point has a larger
    surrogate value. Such players are accepted on a direct (non-strict) true
    value comparison; if even the true value rose the exit is "forced" (the
    block update is the fixed-point step; the rise is recorded).

    ``slack_bound`` bounds how much each player's surrogate can still change
    before the iterate reaches the fixed point; a failing margin larger than
    it cannot recover, so the decision is final. Returns (verdict, final)
    with verdict in {"descent", "true", "forced"} and final=False when a
    failing margin might still flip.
    """
    margins = np.array([anchor.model_value(i, u) - anchor.values[i]
                        for i in range(game.num_players)])
    need_true = [i for i in range(game.num_players) if not margins[i] < 0.0]
    if not need_true:
        return "descent", True
    if slack_bound is not None:
        for i in need_true:
            if margins[i] <= slack_bound[i]:
                return "undecided", False
    alpha, beta = anchor.penalty.alpha, anchor.penalty.beta
    for i in need_true:
        p = game.players[i]
        theta = float(p.objective(u))
        g = np.asarray(p.constraints(u), dtype=float) if p.m else np.zeros(0)
        val = lagrangian_from_values(theta, g, anchor.duals[i], alpha[i], beta[i])
        if not val <= anchor.values[i]:
            return "forced", True
    return "true", True


def solve_inner(game: GameInstance, anchor: QuadraticAnchor, cfg: SolverConfig,
                sigma: Array, tau: float) -> InnerResult:
    """Iterate sweeps from the anchor until the residual and descent tests hold.

    Accepts the first iterate whose lookahead residual is below the
    (possibly step-relative) threshold while every player passes the exit
    descent test. When the fixed point coincides with the anchor no descent
    exists; the loop then signals a stall once the iterate has collapsed
    onto the fixed point within the outer tolerance. If the fixed point is
    reached away from the anchor and some player's value genuinely rose, the
    point is accepted with ``forced=True`` (the run record keeps the value
    trace, so a genuine increase stays visible).
    """
    x_k = anchor.y
    scale = 1.0 + float(np.max(np.abs(x_k), initial=0.0))
    floor = 1e-13 * scale
    stall_r_tol = max(1e-12 * (1.0 - tau) * scale, 30 * np.finfo(float).eps * scale)
    sig = np.asarray(sigma, dtype=float)

    u_cur = inner_step(x_k, anchor, sig, game)
    iters = 1
    r = np.inf
    while iters < cfg.max_inner:
        u_next = inner_step(u_cur, anchor, sig, game)
        iters += 1
        # math.sqrt(d @ d) is what np.linalg.norm computes for a 1-D float
        # vector, without its per-call overhead.
        d = u_next - u_cur
        r = math.sqrt(d @ d)
        d = u_cur - x_k
        dx2 = math.sqrt(d @ d)
        eps_eff = cfg.inner_eps
        if cfg.inner_rel is not None:
            eps_eff = min(eps_eff, cfg.inner_rel * (1.0 - tau) * dx2)
        eps_eff = max(eps_eff, floor)
        if r <= eps_eff:
            # Residual bound on the remaining distance to the fixed point,
            # hence on how much each surrogate value can still change.
            e = r / max(1.0 - tau, 1e-12)
            slack = e * (anchor.grad_norms + anchor.gamma * (dx2 + e)) + 1e-14
            verdict, final = _exit_descent_ok(game, anchor, u_cur, slack_bound=slack)
            if final:
                return InnerResult(u_cur, iters, False, r, exit_kind=verdict)
        if r <= stall_r_tol:
            # Collapsed onto the fixed point without an acceptable exit.
            if float(np.max(np.abs(u_cur - x_k), initial=0.0)) <= cfg.outer_tol:
                return InnerResult(u_cur, iters, True, r, exit_kind="stall")
            verdict, _ = _exit_descent_ok(game, anchor, u_cur)
            return InnerResult(u_cur, iters, False, r, exit_kind=verdict)
        u_cur = u_next
    r = inner_residual(u_cur, anchor, sig, game)
    if r <= cfg.inner_eps:
        verdict, _ = _exit_descent_ok(game, anchor, u_cur)
        if verdict != "forced":
            return InnerResult(u_cur, iters + 1, False, r, exit_kind=verdict)
        if float(np.max(np.abs(u_cur - x_k), initial=0.0)) <= cfg.outer_tol:
            return InnerResult(u_cur, iters + 1, True, r, exit_kind="stall")
    raise InnerLoopError(
        f"inner projection did not reach residual {cfg.inner_eps:g} within "
        f"{cfg.max_inner} iterations (residual {r:.3e})",
        iterations=iters, residual=r,
    )


# ---------------------------------------------------------------------------
# Exact dual steps
# ---------------------------------------------------------------------------


def step_z(duals: list[PlayerDualState], penalty: PenaltyParams) -> list[PlayerDualState]:
    """Exact minimization over the perturbations: ``z = (lam - mu) / alpha``."""
    return [
        PlayerDualState((d.lam - d.mu) / penalty.alpha[i], d.lam.copy(), d.mu.copy())
        for i, d in enumerate(duals)
    ]


def step_duals(x_next: Array, duals: list[PlayerDualState], penalty: PenaltyParams,
               game: GameInstance,
               g_values: list[Array] | None = None) -> list[PlayerDualState]:
    """Exact maximization over the multipliers.

    ``lam = max(mu + g(x_next) / beta, 0)`` then ``mu = lam``; afterwards
    ``lam >= 0`` and ``lam == mu`` hold exactly.
    """
    out = []
    for i, d in enumerate(duals):
        if game.players[i].m == 0:
            out.append(d.copy())
            continue
        g = g_values[i] if g_values is not None else np.asarray(
            game.players[i].constraints(x_next), dtype=float)
        lam = np.maximum(d.mu + g / penalty.beta[i], 0.0)
        out.append(PlayerDualState(d.z.copy(), lam, lam.copy()))
    return out


def _max_moves(prev: IterateState, next_state: IterateState) -> tuple[float, float]:
    """Max-norm moves of the joint primal point and of all multipliers."""
    dx = float(np.max(np.abs(next_state.x - prev.x), initial=0.0))
    dl = float(max((np.max(np.abs(b.lam - a.lam), initial=0.0)
                    for a, b in zip(prev.duals, next_state.duals)), default=0.0))
    return dx, dl


def stopping_residual(prev: IterateState, next_state: IterateState,
                      game: GameInstance) -> float:
    """The larger of the primal and the multiplier max-norm moves."""
    return max(_max_moves(prev, next_state))


# ---------------------------------------------------------------------------
# Trace and result
# ---------------------------------------------------------------------------


@dataclass
class TraceRow:
    """One completed outer iteration (state after the dual steps)."""

    k: int
    L_values: Array
    dx_inf: float
    dlambda_inf: float
    feas: float
    inner_iters: int
    stalled: bool
    exit_kind: str
    L_x_step: Array      # values at (x_new, old duals): the primal bracket
    dx_2: float
    dlam_2: Array
    lam_norm2: Array
    lam_norm_inf: Array
    jac_norm: Array
    jac_own_norm: Array
    qx: Array
    qlam: Array
    qz: Array
    qmu: Array
    gamma: Array
    sigma_hat: float
    tau: float
    L_gfun: Array
    M_theta_own: Array
    M_g_own: Array
    lam_mu_gap: float
    z_max: float
    gamma_warnings: int


@dataclass
class SolveTrace:
    """Per-iteration records plus run-level context for the invariant checks."""

    initial_L: Array
    initial_feas: float
    initial_jac_norm: Array
    initial_jac_own_norm: Array
    initial_lam_norm2: Array
    rows: list[TraceRow] = field(default_factory=list)
    violations: dict[str, list[str]] = field(default_factory=dict)

    @property
    def outer_iterations(self) -> int:
        return len(self.rows)


@dataclass
class SolveResult:
    status: str
    state: IterateState
    trace: SolveTrace
    wall_time: float
    outer_iterations: int
    total_inner_iterations: int
    final_residual: float
    message: str = ""


def _jac_norms(point: PointEval, game: GameInstance, fixed: dict[int, tuple[float, float]],
               seed: int = 1) -> tuple[Array, Array]:
    """Spectral norms of each player's constraint Jacobian and of its own-block
    columns. Norms of a constant Jacobian are computed once and kept in
    ``fixed`` (player -> norms) for the rest of the run."""
    full = np.zeros(game.num_players)
    own = np.zeros(game.num_players)
    for i, p in enumerate(game.players):
        if not p.m:
            continue
        norms = fixed.get(i)
        if norms is None:
            sl = game.layout.block_slice(i)
            norms = (spectral_norm(point.g_jacobians[i], seed=seed),
                     spectral_norm(point.g_jacobians[i][:, sl], seed=seed))
            if p.constant_jacobian:
                fixed[i] = norms
        full[i], own[i] = norms
    return full, own


# ---------------------------------------------------------------------------
# Outer loop
# ---------------------------------------------------------------------------


def solve(game: GameInstance, x0: Array, cfg: SolverConfig | None = None) -> SolveResult:
    """Run the alternating scheme from ``x0`` (projected onto the private sets).

    Initial duals are zero, so the exact identities ``lam == mu`` and
    ``z == 0`` hold on every recorded iteration. Returns status ``converged``
    when the stopping residual drops below ``outer_tol``, ``max_outer`` at the
    iteration cap, ``stalled-stationary`` when the primal blocks are pinned at
    a fixed point while the multipliers keep drifting (no finite-multiplier
    stationary point nearby), ``oracle-failure`` when an oracle returns a
    non-finite value mid-run, and ``inner-failure`` when the inner sweeps
    exhaust ``max_inner`` far from their fixed point. A failed run keeps the
    trace and the state of the last completed iteration.
    """
    cfg = cfg or SolverConfig()
    t0 = time.perf_counter()
    state = initial_state(game, x0)
    penalty = cfg.penalty(game.num_players)
    estimator = LipschitzEstimator(game, seed=cfg.seed)

    try:
        point = evaluate_point(game, state.x)
    except OracleFailure as exc:
        trace = SolveTrace(np.zeros(game.num_players), np.inf,
                           np.zeros(game.num_players), np.zeros(game.num_players),
                           np.zeros(game.num_players))
        return SolveResult("oracle-failure", state, trace, time.perf_counter() - t0,
                           0, 0, np.inf, message=str(exc))

    fixed_norms: dict[int, tuple[float, float]] = {}
    jac_full0, jac_own0 = _jac_norms(point, game, fixed_norms)
    trace = SolveTrace(
        initial_L=lagrangian_values(point, state.duals, penalty),
        initial_feas=constraint_violation(point.g_values),
        initial_jac_norm=jac_full0,
        initial_jac_own_norm=jac_own0,
        initial_lam_norm2=np.array([float(np.linalg.norm(d.lam)) for d in state.duals]),
    )

    total_inner = 0
    residual = np.inf
    status = "max_outer"
    stall_streak = 0
    stall_start_residual = np.inf
    stall_start_lam = np.inf
    message = ""

    jac_full, jac_own = jac_full0, jac_own0
    for k in range(cfg.max_outer):
        try:
            est = estimator.estimate(state.x, [d.lam for d in state.duals],
                                     jac_norms=jac_full)
            gamma, gamma_warnings = choose_gamma(est, penalty, cfg.gamma)
            sigma = choose_sigma(est, cfg, k, gamma=gamma)
            anchor = build_anchor(game, state.duals, penalty, gamma, point)
            inner = solve_inner(game, anchor, cfg, sigma, est.tau_block)
            total_inner += inner.iterations

            duals_z = step_z(state.duals, penalty)
            next_point = evaluate_point(game, inner.x_next)
            duals_new = step_duals(inner.x_next, duals_z, penalty, game,
                                   g_values=next_point.g_values)
            next_state = IterateState(inner.x_next, duals_new, k + 1)
        except OracleFailure as exc:
            status, message = "oracle-failure", str(exc)
            break
        except InnerLoopError as exc:
            status, message = "inner-failure", str(exc)
            break

        dx_inf, dlambda_inf = _max_moves(state, next_state)
        residual = max(dx_inf, dlambda_inf)
        qx, qz, qlam, qmu = projected_gradient_parts(game, next_point, duals_new, penalty)
        jac_full_next, jac_own_next = _jac_norms(next_point, game, fixed_norms)
        dlam_2 = np.array([
            float(np.linalg.norm(duals_new[i].lam - state.duals[i].lam))
            for i in range(game.num_players)
        ])
        trace.rows.append(TraceRow(
            k=k + 1,
            L_values=lagrangian_values(next_point, duals_new, penalty),
            dx_inf=dx_inf,
            dlambda_inf=dlambda_inf,
            feas=constraint_violation(next_point.g_values),
            inner_iters=inner.iterations,
            stalled=inner.stalled,
            exit_kind=inner.exit_kind,
            L_x_step=lagrangian_values(next_point, state.duals, penalty),
            dx_2=float(np.linalg.norm(next_state.x - state.x)),
            dlam_2=dlam_2,
            lam_norm2=np.array([float(np.linalg.norm(d.lam)) for d in duals_new]),
            lam_norm_inf=np.array([float(np.max(np.abs(d.lam), initial=0.0))
                                   for d in duals_new]),
            jac_norm=jac_full_next,
            jac_own_norm=jac_own_next,
            qx=qx, qlam=qlam, qz=qz, qmu=qmu,
            gamma=gamma.copy(),
            sigma_hat=est.sigma_hat,
            tau=est.tau,
            L_gfun=est.L_gfun.copy(),
            M_theta_own=est.M_theta_own.copy(),
            M_g_own=est.M_g_own.copy(),
            lam_mu_gap=float(max((np.max(np.abs(d.lam - d.mu), initial=0.0)
                                  for d in duals_new), default=0.0)),
            z_max=float(max((np.max(np.abs(d.z), initial=0.0) for d in duals_new),
                            default=0.0)),
            gamma_warnings=len(gamma_warnings),
        ))

        state = next_state
        point = next_point
        jac_full, jac_own = jac_full_next, jac_own_next

        if residual <= cfg.outer_tol:
            status = "converged"
            break
        if inner.stalled:
            lam_now = float(np.max(trace.rows[-1].lam_norm_inf, initial=0.0))
            if stall_streak == 0:
                stall_start_residual = residual
                stall_start_lam = lam_now
            stall_streak += 1
            # The primal is pinned; keep going while the multiplier motion is
            # productive (drift decaying, or multipliers draining back toward
            # their fixed point). A pinned primal with steadily growing
            # multipliers means no finite stationary multiplier exists nearby.
            if stall_streak >= cfg.stall_patience:
                decaying = residual <= 0.98 * stall_start_residual
                draining = lam_now <= stall_start_lam - 0.25 * cfg.stall_patience * cfg.outer_tol
                if not (decaying or draining):
                    status = "stalled-stationary"
                    message = ("primal blocks pinned at a fixed point while the "
                               "multiplier drift is not decaying")
                    break
                stall_streak = 0
        else:
            stall_streak = 0

    trace.violations = verify_run_bounds(trace, game, cfg)
    return SolveResult(
        status=status,
        state=state,
        trace=trace,
        wall_time=time.perf_counter() - t0,
        outer_iterations=len(trace.rows),
        total_inner_iterations=total_inner,
        final_residual=residual,
        message=message,
    )


# ---------------------------------------------------------------------------
# Post-run invariant verification
# ---------------------------------------------------------------------------

_SLACK = 1e-9


def verify_run_bounds(trace: SolveTrace, game: GameInstance,
                      cfg: SolverConfig) -> dict[str, list[str]]:
    """Check the monitored run bounds on recorded iterations.

    - ``decrease``: every player's Lagrangian value sequence nonincreasing
      (only meaningful under the auto proximal policy);
    - ``dual-identity``: ``lam == mu`` and ``z == 0`` exactly, every iteration;
    - ``multiplier-coupling`` (iterations >= 2): multiplier move bounded by the
      constraint Lipschitz estimate times the primal move;
    - ``projected-gradient`` (iterations >= 2): summed projected-gradient norm
      bounded by the assembled constant times the primal move, with the
      ``z``/``mu`` blocks exactly zero.
    """
    out: dict[str, list[str]] = {"decrease": [], "x-descent": [], "dual-identity": [],
                                 "multiplier-coupling": [], "projected-gradient": []}
    rows = trace.rows
    if not rows:
        return out
    N = game.num_players
    beta = cfg.penalty(N).beta

    prev_L = trace.initial_L
    for r in rows:
        for i in range(N):
            if r.L_values[i] > prev_L[i] + _SLACK:
                out["decrease"].append(
                    f"k={r.k} player={i}: L rose {prev_L[i]:.12g} -> {r.L_values[i]:.12g}")
            if r.exit_kind in ("descent", "true") and r.L_x_step[i] > prev_L[i] + _SLACK:
                out["x-descent"].append(
                    f"k={r.k} player={i}: accepted block update raised L "
                    f"{prev_L[i]:.12g} -> {r.L_x_step[i]:.12g}")
        prev_L = r.L_values
        if r.lam_mu_gap != 0.0 or r.z_max != 0.0:
            out["dual-identity"].append(
                f"k={r.k}: lam-mu gap {r.lam_mu_gap:.3e}, max|z| {r.z_max:.3e}")

    jac_prev = trace.initial_jac_norm
    lam_max = trace.initial_lam_norm2.copy()
    jac_own_max = np.maximum(trace.initial_jac_own_norm,
                             np.max(np.array([r.jac_own_norm for r in rows]), axis=0))
    jac_run_max = np.maximum(trace.initial_jac_norm,
                             np.max(np.array([r.jac_norm for r in rows]), axis=0))
    m_theta_max = np.max(np.array([r.M_theta_own for r in rows]), axis=0)
    m_g_max = np.max(np.array([r.M_g_own for r in rows]), axis=0)
    lam_run_max = np.maximum(trace.initial_lam_norm2,
                             np.max(np.array([r.lam_norm2 for r in rows]), axis=0))

    for idx, r in enumerate(rows):
        lam_max = np.maximum(lam_max, r.lam_norm2)
        if r.k < 2:
            jac_prev = r.jac_norm
            continue
        lg = np.maximum(jac_prev, r.jac_norm)
        for i in range(N):
            bound = (lg[i] / beta[i]) * r.dx_2 + _SLACK
            if r.dlam_2[i] > bound:
                out["multiplier-coupling"].append(
                    f"k={r.k} player={i}: |dlam| {r.dlam_2[i]:.3e} > {bound:.3e}")
            C = (2.0 + r.gamma[i] + m_theta_max[i] + m_g_max[i] * lam_run_max[i]
                 + jac_own_max[i] * jac_run_max[i] / beta[i] + jac_run_max[i])
            pg = r.qx[i] + r.qz[i] + r.qlam[i] + r.qmu[i]
            if pg > C * r.dx_2 + _SLACK:
                out["projected-gradient"].append(
                    f"k={r.k} player={i}: |pg| {pg:.3e} > C*dx {C * r.dx_2:.3e}")
            if r.qz[i] != 0.0 or r.qmu[i] != 0.0:
                out["projected-gradient"].append(
                    f"k={r.k} player={i}: qz/qmu not exactly zero")
        jac_prev = r.jac_norm
    return out
