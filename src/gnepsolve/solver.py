"""Alternating primal-dual solver with Jacobi gradient projection.

One outer iteration from ``(x, z, lam, mu)``:

1. every player simultaneously moves to the minimizer of its quadratic
   surrogate anchored at ``x`` over its private set (Jacobi decomposition:
   all blocks move from a shared snapshot). The surrogate's own-block
   Hessian is ``gamma_nu I``, so that minimizer is one projection,
   ``project_private(x - own_grad / gamma)``; the exit descent test then
   labels the step (surrogate descent, verified non-increase of the true
   value, a forced step, or a stall at the anchor);
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
    max_abs,
    vec_norm,
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
    """Step-size schedule of the reference sweep (:func:`inner_step`), whose
    fixed point :func:`solve_inner` computes in closed form.

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
    """Solver parameters. Only the reference sweep (:func:`choose_sigma` and
    :func:`inner_step`) reads ``sigma``; :func:`solve` does not.
    """

    alpha: float = 10.0
    beta: float = 1.0
    gamma: GammaPolicy = field(default_factory=GammaPolicy.auto)
    sigma: SigmaSchedule = field(default_factory=SigmaSchedule)
    outer_tol: float = 1e-4
    max_outer: int = 5000
    seed: int = 0

    def __post_init__(self):
        if self.outer_tol <= 0:
            raise ValueError("outer tolerance must be positive")
        if self.max_outer < 1:
            raise ValueError("iteration cap must be >= 1")

    def penalty(self, num_players: int) -> PenaltyParams:
        return PenaltyParams.uniform(num_players, self.alpha, self.beta)


# Point pairs drawn per smoothness sample of a non-quadratic player.
_SAMPLE_PAIRS = 200
# Bounds the run of consecutive stalled inner exits before the outer loop
# checks that the multiplier drift still decays or drains.
_STALL_PATIENCE = 100


# ---------------------------------------------------------------------------
# Lipschitz estimation
# ---------------------------------------------------------------------------


@dataclass
class LipschitzEstimates:
    """Per-player smoothness constants driving step-size safeguards.

    ``L`` bounds the Lipschitz constant of the full Lagrangian x-gradient at
    the current multipliers; ``L_gfun`` bounds the function Lipschitz
    constant of the constraint map near the current iterate. ``sigma_hat``
    and ``tau`` describe the contraction of the reference sweep once
    :func:`choose_sigma` has fixed the proximal weights: the model gradient
    is affine with slope ``gamma``, so

        tau = sqrt(1 - 2 min(gamma) sigma_hat + sigma_hat^2 max(gamma)^2) < 1

    whenever ``sigma_hat`` stays below the safeguard cap.
    """

    L_theta: Array
    grad_g_lip: list[Array]
    L: Array
    L_gfun: Array
    M_g_own: Array
    sigma_hat: float = np.nan
    tau: float = np.nan


def spectral_norm(mat: Array) -> float:
    """Largest singular value, from the exact symmetric eigendecomposition of
    the smaller Gram matrix (clustered top eigenvalues make power iteration
    arbitrarily slow)."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.size == 0 or not np.any(mat):
        return 0.0
    work = mat if mat.shape[0] <= mat.shape[1] else mat.T
    gram = work @ work.T
    return float(np.sqrt(max(0.0, float(np.max(np.linalg.eigvalsh(gram))))))


class LipschitzEstimator:
    """Smoothness estimation with a quadratic fast path.

    Players carrying constant Hessians get exact spectral-norm constants.
    Otherwise constants come from sampled difference quotients
    ``max ||grad f(a) - grad f(b)|| / ||a - b||`` over seeded point
    pairs drawn in a box around the current iterate, inflated by a safety
    factor. The sample box is refreshed when the iterate leaves its core.
    """

    def __init__(self, game: GameInstance, seed: int = 0, inflation: float = 2.0):
        self.game = game
        self.rng = np.random.default_rng(seed)
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
            h_norm = spectral_norm(p.objective_hessian)
            a_norms = np.array(
                [spectral_norm(p.constraint_hessians[j]) for j in range(p.m)]
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
        return bool((np.abs(x - self._box_center) > 0.5 * self._box_halfwidth).any())

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
            pts_a = [self._draw_point() for _ in range(_SAMPLE_PAIRS)]
            pts_b = [self._draw_point() for _ in range(_SAMPLE_PAIRS)]
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
            M_g_own[i] = float(np.sqrt(np.sum(gg ** 2)))
        return LipschitzEstimates(L_theta, grad_g_lip, L, L_gfun, M_g_own)


def estimate_lipschitz(game: GameInstance, state: IterateState,
                       cfg: SolverConfig) -> LipschitzEstimates:
    """One-shot estimation at a state (the solver reuses a cached estimator)."""
    est = LipschitzEstimator(game, seed=cfg.seed)
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
    floor = max(_GAMMA_FLOOR, 1e-3 * float(gamma.max(initial=0.0)))
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
                 gamma: Array) -> Array:
    """Per-player step sizes from the schedule.

    Each block's sweep map is affine in that block alone (the cross-block
    model gradient is frozen at the anchor), so block ``nu`` contracts at
    exactly ``|1 - sigma_nu gamma_nu|``. With ``sigma0=None`` every player
    therefore gets ``sigma_nu = 0.9 / gamma_nu`` scaled by the schedule decay,
    which keeps the rate uniform even when the proximal weights spread widely.
    An explicit ``sigma0`` selects the single-step-size mode, clipped at the
    conservative global cap so the stacked contraction formula certifies it.

    Fills the contraction fields of ``est``: ``sigma_hat`` and the
    stacked-formula ``tau`` (``gamma`` is the model gradient's exact Lipschitz
    slope).
    """
    gamma = np.asarray(gamma, dtype=float)
    gmin = float(gamma.min())
    gmax = float(gamma.max())
    cap = sigma_cap(gmin, gmax)
    decay = 1.0 / (1.0 + outer_k / cfg.sigma.decay) if cfg.sigma.kind == "diminishing" else 1.0
    if cfg.sigma.sigma0 is None:
        sigma = (0.9 * decay) / gamma
    else:
        sigma = np.full(gamma.shape[0], min(cfg.sigma.sigma0 * decay, cap))
    est.sigma_hat = float(sigma.max())
    est.tau = contraction_factor(gmin, gmax, est.sigma_hat)
    return sigma


# ---------------------------------------------------------------------------
# Jacobi block update, and the reference sweep that converges to it
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
    return vec_norm(inner_step(u, anchor, sigma, game) - u)


@dataclass
class InnerResult:
    x_next: Array
    iterations: int
    exit_kind: str = "descent"   # descent | true | forced | stall


def _exit_descent_ok(game: GameInstance, anchor: QuadraticAnchor, u: Array,
                     slack_bound: Array | None = None) -> tuple[str, bool]:
    """Per-player exit test at a block update ``u``.

    Strict surrogate descent for every player is not always achievable: when
    rivals' moves raise a player's anchored Lagrangian through the
    cross-block terms, every point near the fixed point has a larger
    surrogate value. Such players are accepted on a direct (non-strict) true
    value comparison; if even the true value rose the exit is "forced" (the
    block update is the fixed-point step; the rise is recorded).

    A failing margin at most ``slack_bound`` leaves the test undecided.
    Returns (verdict, final) with verdict in {"descent", "true", "forced"},
    and ("undecided", False) when some failing margin is within its slack.
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


def solve_inner(game: GameInstance, anchor: QuadraticAnchor, cfg: SolverConfig) -> InnerResult:
    """The Jacobi block update: every player's surrogate minimizer over its
    private set, ``project_private(y - own_grad / gamma)``, in one projection.

    This is the fixed point the reference sweep :func:`inner_step` converges
    to. The exit test first runs with a 1e-14 slack, so a surrogate margin
    that is zero up to rounding leaves it undecided; an undecided step that
    stays within the outer tolerance of the anchor is a stall (no descent
    exists there), and any other is labelled by the true-value comparison.
    If some player's value genuinely rose, the point is accepted with
    ``exit_kind="forced"`` (the run record keeps the value trace, so a
    genuine increase stays visible).
    """
    u = game.project_private(anchor.y - anchor.own_grad / anchor.gamma_by_coord)
    verdict, final = _exit_descent_ok(game, anchor, u,
                                      slack_bound=np.full(game.num_players, 1e-14))
    if not final:
        if max_abs(u - anchor.y) <= cfg.outer_tol:
            return InnerResult(u, 1, exit_kind="stall")
        verdict, _ = _exit_descent_ok(game, anchor, u)
    return InnerResult(u, 1, exit_kind=verdict)


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
    dx = max_abs(next_state.x - prev.x)
    dl = max((max_abs(b.lam - a.lam) for a, b in zip(prev.duals, next_state.duals)),
             default=0.0)
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
    rows: list[TraceRow] = field(default_factory=list)
    violations: dict[str, list[str]] = field(default_factory=dict)


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


def _jac_norms(point: PointEval, game: GameInstance,
               fixed: dict[int, tuple[float, float]]) -> tuple[Array, Array]:
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
            norms = (spectral_norm(point.g_jacobians[i]),
                     spectral_norm(point.g_jacobians[i][:, sl]))
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
    non-finite value mid-run. A failed run keeps the trace and the state of
    the last completed iteration.
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
                           np.zeros(game.num_players), np.zeros(game.num_players))
        return SolveResult("oracle-failure", state, trace, time.perf_counter() - t0,
                           0, 0, np.inf, message=str(exc))

    fixed_norms: dict[int, tuple[float, float]] = {}
    jac_full, jac_own = _jac_norms(point, game, fixed_norms)
    trace = SolveTrace(
        initial_L=lagrangian_values(point, state.duals, penalty),
        initial_feas=constraint_violation(point.g_values),
        initial_jac_norm=jac_full,
        initial_jac_own_norm=jac_own,
    )
    L_values = trace.initial_L   # at ``point`` and the current duals

    total_inner = 0
    residual = np.inf
    status = "max_outer"
    stall_streak = 0
    stall_start_residual = np.inf
    stall_start_lam = np.inf
    message = ""

    for k in range(cfg.max_outer):
        try:
            est = estimator.estimate(state.x, [d.lam for d in state.duals],
                                     jac_norms=jac_full)
            gamma, gamma_warnings = choose_gamma(est, penalty, cfg.gamma)
            anchor = build_anchor(game, state.duals, penalty, gamma, point, L_values)
            inner = solve_inner(game, anchor, cfg)
            total_inner += inner.iterations

            duals_z = step_z(state.duals, penalty)
            next_point = evaluate_point(game, inner.x_next)
            duals_new = step_duals(inner.x_next, duals_z, penalty, game,
                                   g_values=next_point.g_values)
            next_state = IterateState(inner.x_next, duals_new, k + 1)
        except OracleFailure as exc:
            status, message = "oracle-failure", str(exc)
            break

        dx_inf, dlambda_inf = _max_moves(state, next_state)
        residual = max(dx_inf, dlambda_inf)
        qx, qz, qlam, qmu = projected_gradient_parts(game, next_point, duals_new, penalty)
        jac_full_next, jac_own_next = _jac_norms(next_point, game, fixed_norms)
        dlam_2 = np.array([vec_norm(b.lam - a.lam) for a, b in zip(state.duals, duals_new)])
        trace.rows.append(TraceRow(
            k=k + 1,
            L_values=lagrangian_values(next_point, duals_new, penalty),
            dx_inf=dx_inf,
            dlambda_inf=dlambda_inf,
            feas=constraint_violation(next_point.g_values),
            inner_iters=inner.iterations,
            exit_kind=inner.exit_kind,
            L_x_step=lagrangian_values(next_point, state.duals, penalty),
            dx_2=vec_norm(next_state.x - state.x),
            dlam_2=dlam_2,
            lam_norm2=np.array([vec_norm(d.lam) for d in duals_new]),
            lam_norm_inf=np.array([max_abs(d.lam) for d in duals_new]),
            jac_norm=jac_full_next,
            jac_own_norm=jac_own_next,
            qx=qx, qlam=qlam, qz=qz, qmu=qmu,
            gamma=gamma.copy(),
            L_gfun=est.L_gfun.copy(),
            M_theta_own=est.L_theta.copy(),
            M_g_own=est.M_g_own.copy(),
            lam_mu_gap=max((max_abs(d.lam - d.mu) for d in duals_new), default=0.0),
            z_max=max((max_abs(d.z) for d in duals_new), default=0.0),
            gamma_warnings=len(gamma_warnings),
        ))

        state, point, L_values = next_state, next_point, trace.rows[-1].L_values
        jac_full = jac_full_next

        if residual <= cfg.outer_tol:
            status = "converged"
            break
        if inner.exit_kind == "stall":
            lam_now = float(np.max(trace.rows[-1].lam_norm_inf, initial=0.0))
            if stall_streak == 0:
                stall_start_residual = residual
                stall_start_lam = lam_now
            stall_streak += 1
            # The primal is pinned; keep going while the multiplier motion is
            # productive (drift decaying, or multipliers draining back toward
            # their fixed point). A pinned primal with steadily growing
            # multipliers means no finite stationary multiplier exists nearby.
            if stall_streak >= _STALL_PATIENCE:
                decaying = residual <= 0.98 * stall_start_residual
                draining = lam_now <= stall_start_lam - 0.25 * _STALL_PATIENCE * cfg.outer_tol
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
# Rows compared at once by verify_run_bounds; bounds its temporaries' size.
_BOUND_ROWS = 64


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
    beta = cfg.penalty(game.num_players).beta

    def stack(part: list[TraceRow], name: str) -> Array:
        """One field over ``part``: (rows, players), or (rows,) for scalars."""
        return np.array([getattr(r, name) for r in part])

    for r in rows:
        if r.lam_mu_gap != 0.0 or r.z_max != 0.0:
            out["dual-identity"].append(
                f"k={r.k}: lam-mu gap {r.lam_mu_gap:.3e}, max|z| {r.z_max:.3e}")
    jac_own_max = np.maximum(trace.initial_jac_own_norm, stack(rows, "jac_own_norm").max(axis=0))
    jac_run_max = np.maximum(trace.initial_jac_norm, stack(rows, "jac_norm").max(axis=0))
    m_theta_max = stack(rows, "M_theta_own").max(axis=0)
    m_g_max = stack(rows, "M_g_own").max(axis=0)
    # The initial multipliers are zero, and a norm is never below zero.
    lam_run_max = stack(rows, "lam_norm2").max(axis=0)

    # Whole-array comparisons over blocks of rows, entry by entry the same
    # float arithmetic as one row and player at a time; np.nonzero keeps the
    # (k, player) message order.
    last_L, last_jac = trace.initial_L, trace.initial_jac_norm
    for start in range(0, len(rows), _BOUND_ROWS):
        part = rows[start:start + _BOUND_ROWS]
        ks = [r.k for r in part]
        L, jac = stack(part, "L_values"), stack(part, "jac_norm")
        prev_L = np.vstack([last_L, L[:-1]])
        prev_jac = np.vstack([last_jac, jac[:-1]])
        last_L, last_jac = L[-1], jac[-1]
        for j, i in zip(*np.nonzero(L > prev_L + _SLACK)):
            out["decrease"].append(
                f"k={ks[j]} player={i}: L rose {prev_L[j, i]:.12g} -> {L[j, i]:.12g}")
        L_x = stack(part, "L_x_step")
        accepted = np.array([r.exit_kind in ("descent", "true") for r in part])[:, None]
        for j, i in zip(*np.nonzero(accepted & (L_x > prev_L + _SLACK))):
            out["x-descent"].append(
                f"k={ks[j]} player={i}: accepted block update raised L "
                f"{prev_L[j, i]:.12g} -> {L_x[j, i]:.12g}")

        checked = np.array([k >= 2 for k in ks])[:, None]
        dx_2 = stack(part, "dx_2")[:, None]
        dlam_2 = stack(part, "dlam_2")
        bound = (np.maximum(prev_jac, jac) / beta) * dx_2 + _SLACK
        for j, i in zip(*np.nonzero(checked & (dlam_2 > bound))):
            out["multiplier-coupling"].append(
                f"k={ks[j]} player={i}: |dlam| {dlam_2[j, i]:.3e} > {bound[j, i]:.3e}")
        C_dx = (2.0 + stack(part, "gamma") + m_theta_max + m_g_max * lam_run_max
                + jac_own_max * jac_run_max / beta + jac_run_max) * dx_2
        qz, qmu = stack(part, "qz"), stack(part, "qmu")
        pg = stack(part, "qx") + qz + stack(part, "qlam") + qmu
        pg_high = checked & (pg > C_dx + _SLACK)
        nonzero = checked & ((qz != 0.0) | (qmu != 0.0))
        for j, i in zip(*np.nonzero(pg_high | nonzero)):
            if pg_high[j, i]:
                out["projected-gradient"].append(
                    f"k={ks[j]} player={i}: |pg| {pg[j, i]:.3e} > C*dx {C_dx[j, i]:.3e}")
            if nonzero[j, i]:
                out["projected-gradient"].append(
                    f"k={ks[j]} player={i}: qz/qmu not exactly zero")
    return out
