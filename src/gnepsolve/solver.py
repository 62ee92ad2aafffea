"""Alternating primal-dual solver with Jacobi gradient projection.

One outer iteration from ``(x, lam)``, with ``lam`` one multiplier per
constraint row:

1. every player simultaneously moves to the minimizer of its quadratic
   surrogate anchored at ``x`` over its private set (Jacobi decomposition:
   all blocks move from a shared snapshot). The surrogate's own-block
   Hessian is ``gamma_nu I``, so that minimizer is one projection,
   ``project_private(x - own_grad / gamma)``; the exit descent test then
   labels the step (surrogate descent, verified non-increase of the true
   value, a forced step, or a stall at the anchor);
2. the multipliers are updated by exact maximization,
   ``lam = max(lam + g(x_new) / beta, 0)``;
3. stop when neither the primal blocks nor the multipliers moved more than
   the outer tolerance in the max norm.

The regularized Lagrangian (:mod:`gnepsolve.lagrangian`) also carries a
perturbation ``z`` and a proximal centre ``mu``. From zero duals its exact
``z`` step gives ``z = (lam - mu) / alpha = 0`` and its multiplier step
leaves ``mu = lam``, so both stay fixed and ``alpha`` enters no iterate:
the solver carries ``lam`` alone, evaluates the Lagrangian as
``theta + lam.g``, and exports ``z = 0`` and ``mu = lam`` with the final
state. The trace records monitored value-decrease, multiplier-coupling and
projected-gradient bounds, so claims about the dynamics can be asserted (or
falsified) on real runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Array,
    DualStack,
    GameInstance,
    IterateState,
    OracleFailure,
    QuadraticStack,
    constraint_violation,
    initial_state,
    max_abs,
    own_columns,
    stack_rows,
    vec_norm,
)
from .lagrangian import (
    QUIET,
    PenaltyParams,
    PointEval,
    QuadraticAnchor,
    build_anchor,
    evaluate_point,
    lagrangian_values,
    projected_gradient_lam,
    projected_gradient_x,
)

__all__ = [
    "GammaPolicy",
    "SigmaSchedule",
    "SolverConfig",
    "LipschitzEstimates",
    "LipschitzEstimator",
    "choose_gamma",
    "sigma_cap",
    "choose_sigma",
    "contraction_factor",
    "inner_step",
    "inner_residual",
    "solve_inner",
    "step_duals",
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

    The auto rule sets ``gamma_nu = safety * (L_nu + 3 L_g_nu^2 / beta)``,
    the standard sufficient-decrease sizing; a fixed value below that bound
    is allowed, and :func:`choose_gamma` returns a warning for it.
    """

    kind: str = "auto"
    safety: float = 1.0
    values: Array | None = None

    def __post_init__(self):
        if self.kind not in ("auto", "fixed"):
            raise ValueError("gamma policy kind must be 'auto' or 'fixed'")
        if self.kind == "auto" and not 1.0 <= self.safety < np.inf:
            raise ValueError(f"gamma safety must be finite and >= 1, got {self.safety}")
        if self.kind == "fixed" and (self.values is None
                                     or not np.all((0 < self.values) & (self.values < np.inf))):
            raise ValueError(f"fixed gamma values must be finite and > 0, got {self.values}")

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
    """Solver parameters. :func:`solve` reads ``beta`` but not ``alpha``,
    which its iterates do not depend on (its ``z`` stays zero); ``alpha``
    is kept for the diagnostics of states with any ``z`` and ``mu``, and is
    written to result documents. Only the reference sweep
    (:func:`choose_sigma` and :func:`inner_step`) reads ``sigma``;
    :func:`solve` does not.
    """

    alpha: float = 10.0
    beta: float = 1.0
    gamma: GammaPolicy = field(default_factory=GammaPolicy.auto)
    sigma: SigmaSchedule = field(default_factory=SigmaSchedule)
    outer_tol: float = 1e-4
    max_outer: int = 5000
    seed: int = 0

    def __post_init__(self):
        self.penalty()   # alpha and beta: finite and > 0
        if not self.outer_tol > 0:
            raise ValueError(f"outer tolerance must be positive, got {self.outer_tol}")
        if self.max_outer < 1:
            raise ValueError("iteration cap must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def penalty(self) -> PenaltyParams:
        return PenaltyParams(self.alpha, self.beta)


# Point pairs drawn per smoothness sample of a non-quadratic player.
_SAMPLE_PAIRS = 200
# Safety factor on the sampled smoothness constants.
_INFLATION = 2.0
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
    constant of the constraint map near the current iterate; ``grad_g_lip``
    bounds each constraint gradient's Lipschitz constant, stacked over the
    constraint rows. ``L_theta``, ``grad_g_lip`` and ``M_g_own`` are the
    estimator's own arrays, shared with every estimate until its next
    resample binds new ones; they are read-only. ``sigma_hat``
    and ``tau`` describe the contraction of the reference sweep once
    :func:`choose_sigma` has fixed the proximal weights: the model gradient
    is affine with slope ``gamma``, so

        tau = sqrt(1 - 2 min(gamma) sigma_hat + sigma_hat^2 max(gamma)^2) < 1

    whenever ``sigma_hat`` stays below the safeguard cap.
    """

    L_theta: Array
    grad_g_lip: Array
    L: Array
    L_gfun: Array
    M_g_own: Array
    sigma_hat: float = np.nan
    tau: float = np.nan


def spectral_norms(mats: Array) -> Array:
    """Largest singular value of each matrix of the stack ``mats`` (k, w, d): a
    lone row's or column's 2-norm, else the root of the top eigenvalue of the
    smaller Gram matrix (exact: power iteration is slow on clustered ones). Bit
    for bit one Gram and ``eigvalsh`` per matrix with the same strides."""
    k, w, d = mats.shape
    if min(w, d) == 1:   # a 1x1 Gram is its own eigenvalue: one batched dot, no eigvalsh
        v = mats.reshape(k, w * d)   # a view: a strided dot product rounds differently
        top = np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0]
    else:
        work = mats if w <= d else mats.transpose(0, 2, 1)
        top = np.linalg.eigvalsh(np.matmul(work, work.transpose(0, 2, 1))).max(axis=-1)
    return np.sqrt(np.where(top > 0.0, top, 0.0))


def _objective_norms(q: QuadraticStack) -> Array:
    """``||Q_i||_2`` of every player, with no ``(n, n)`` matrix for a band
    player: ``Q_i = E G[sl] + K_off E'`` (``E`` the identity columns of its
    block, ``K_off`` its band with the own rows zeroed, orthogonal to ``E``),
    so with the thin QR ``K_off = Q_K R_K``, ``||Q_i|| = ||[G[sl]; R_K E']||``,
    whose Gram is at most ``2w x 2w``: O(n w^2) per player, batched per run."""
    norms = []
    for entries, w, K in q._runs:
        p = len(K)
        player, own = np.arange(p)[:, None], np.arange(entries.start, entries.stop).reshape(p, w)
        K_off = K.copy()
        K_off[player, own] = 0.0
        M = np.zeros((p, 2 * w, q.layout.n))
        M[:, :w] = q.G[entries].reshape(p, w, -1)
        M[player, w:, own] = np.linalg.qr(K_off, mode="r").transpose(0, 2, 1)
        norms.append(spectral_norms(M))
    L = np.concatenate(norms)
    if q.dense_players:
        L[list(q.dense_players)] = spectral_norms(q.dense)
    return L


class LipschitzEstimator:
    """Smoothness estimation, exact for a quadratic game.

    A game with stacked quadratic data (``game.quadratic``) gets exact
    constants from it: each ``||Q_i||_2`` from its band (:func:`_objective_norms`)
    and constraint bounds from the curved players' Hessians (zero for affine
    players). Every other game gets constants from sampled difference
    quotients ``max ||grad f(a) - grad f(b)|| / ||a - b||`` over seeded
    point pairs drawn in a box around the current iterate, inflated by a
    safety factor, and each player's largest Jacobian norm at the sampled
    points (one call per pair, so memory does not grow with the sample
    count). The box is refreshed when the iterate leaves its core.
    """

    def __init__(self, game: GameInstance, seed: int = 0):
        self.game = game
        self.rng = np.random.default_rng(seed)
        self._box_center: Array | None = None
        self._box_halfwidth: Array | None = None
        N = game.num_players
        # Per-player constants: exact for a quadratic game, bound anew by
        # every resample otherwise (never written in place, so an estimate
        # handed out earlier keeps its values).
        gg = [np.zeros(p.m) for p in game.players]   # constraint-gradient Lipschitz bounds
        self._jac_growth = np.zeros(N)
        self._jac_max = np.zeros(N)
        q = game.quadratic
        if q is None:
            self._bind(np.zeros(N), gg)
            return
        for i, A in q.hessians.items():
            a_norms = spectral_norms(A)
            # Jacobian-growth bound over a box: ||dJ||_F <= sqrt(sum_j
            # ||A_j||^2 * supp_j) * r, with supp_j the support size of A_j.
            supp = np.array([int(np.count_nonzero(np.any(a, axis=0))) for a in A])
            gg[i] = a_norms
            self._jac_growth[i] = float(np.sqrt(np.sum(a_norms ** 2 * np.maximum(supp, 1))))
        self._bind(_objective_norms(q), gg)

    def _bind(self, L_theta: Array, gg: list[Array]):
        self._L_theta = L_theta
        self._gg = stack_rows(gg)
        self._M_g_own = np.array([float(np.sqrt(np.sum(g ** 2))) for g in gg])

    # -- sampling machinery --------------------------------------------------

    def _needs_resample(self, x: Array) -> bool:
        if self._box_center is None:
            return True
        return bool((np.abs(x - self._box_center) > 0.5 * self._box_halfwidth).any())

    def _draw_point(self) -> Array:
        raw = self._box_center + self.rng.uniform(-1.0, 1.0, self.game.n) * self._box_halfwidth
        return self.game.project_private(raw)

    def _resample(self, x: Array):
        self._box_center, self._box_halfwidth = np.array(x, copy=True), 2.0 + 0.25 * np.abs(x)
        game = self.game
        for attempt in range(2):
            pts_a = [self._draw_point() for _ in range(_SAMPLE_PAIRS)]
            pts_b = [self._draw_point() for _ in range(_SAMPLE_PAIRS)]
            good = [(a, b, dist) for a, b in zip(pts_a, pts_b)
                    if (dist := float(np.linalg.norm(a - b))) > 1e-10]
            if good:
                break
            self._box_halfwidth = 2.0 * self._box_halfwidth
        if not good:
            raise RuntimeError("degenerate sampling region: all point pairs collapsed")
        L_theta, ggs, jac_maxes = [], [], []
        for i, p in enumerate(game.players):
            lt = 0.0
            gg = np.zeros(p.m)
            jac_max = 0.0
            for a, b, dist in good:
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
                    jac_max = max(jac_max, float(spectral_norms(np.stack([Ja, Jb])).max()))
            L_theta.append(_INFLATION * lt)
            ggs.append(_INFLATION * gg)
            jac_maxes.append(jac_max)
        self._bind(np.array(L_theta), ggs)
        self._jac_max = np.array(jac_maxes)

    # -- public entry --------------------------------------------------------

    def estimate(self, x: Array, lam: Array,
                 jac_norms: Array | None = None) -> LipschitzEstimates:
        """Constants at iterate ``x`` with current multipliers ``lam``,
        stacked over the constraint rows.

        ``jac_norms`` may pass precomputed spectral norms of each player's
        constraint Jacobian at ``x`` to avoid an extra oracle sweep.
        """
        game = self.game
        if game.quadratic is None and self._needs_resample(x):
            self._resample(x)
        if jac_norms is None:
            jac_norms = _jac_norms(evaluate_point(game, x), game.constrained_runs)[0]
        jn = np.asarray(jac_norms, dtype=float)
        margin = 0.5  # box radius covered by the function-Lipschitz bound
        L_gfun = (jn + self._jac_growth * margin if game.quadratic is not None
                  else _INFLATION * np.maximum(jn, self._jac_max))
        # L_theta and gg change only at a resample; the multiplier term moves.
        L = self._L_theta + game.rows.dot(self._gg, lam)
        return LipschitzEstimates(self._L_theta, self._gg, L, L_gfun, self._M_g_own)


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
    exit_kind: str       # descent | true | forced | stall
    point: PointEval     # the oracle sweep at x_next
    values: Array        # L at (x_next, the anchor's multipliers)


def _exit_verdict(anchor: QuadraticAnchor, u: Array, true_values: Array,
                  slack: float | None = None) -> str:
    """Exit test at a block update ``u`` whose true Lagrangian values at the
    anchor's multipliers are ``true_values``.

    Strict surrogate descent for every player is not always achievable: when
    rivals' moves raise a player's anchored Lagrangian through the
    cross-block terms, every point near the fixed point has a larger
    surrogate value. Such players are accepted on a direct (non-strict) true
    value comparison; if even the true value rose the exit is "forced" (the
    block update is the fixed-point step; the rise is recorded).

    Returns "descent", "true" or "forced"; "undecided" when a failing
    surrogate margin is at most ``slack``.
    """
    margins = anchor.model_values(u) - anchor.values
    need_true = ~(margins < 0.0)
    if not need_true.any():
        return "descent"
    if slack is not None and (margins[need_true] <= slack).any():
        return "undecided"
    return "true" if (true_values[need_true] <= anchor.values[need_true]).all() else "forced"


def solve_inner(game: GameInstance, anchor: QuadraticAnchor, cfg: SolverConfig) -> InnerResult:
    """The Jacobi block update: every player's surrogate minimizer over its
    private set, ``project_private(y - own_grad / gamma)``, in one projection.

    This is the fixed point the reference sweep :func:`inner_step` converges
    to. The oracle sweep at the new point runs here, and its Lagrangian
    values at the anchor's multipliers are the exit test's true values. The test
    first runs with a 1e-14 slack, so a surrogate margin that is zero up to
    rounding leaves it undecided; an undecided step that stays within the
    outer tolerance of the anchor is a stall (no descent exists there), and
    any other is labelled by the true-value comparison. If some player's
    value genuinely rose, the point is accepted with ``exit_kind="forced"``
    (the run record keeps the value trace, so a genuine increase stays
    visible).
    """
    u = game.project_private(anchor.y - anchor.own_grad / anchor.gamma_by_coord)
    point = evaluate_point(game, u)
    values = lagrangian_values(point, anchor.lam, game.rows)
    verdict = _exit_verdict(anchor, u, values, slack=1e-14)
    if verdict == "undecided":
        verdict = ("stall" if max_abs(u - anchor.y) <= cfg.outer_tol
                   else _exit_verdict(anchor, u, values))
    return InnerResult(u, verdict, point, values)


# ---------------------------------------------------------------------------
# Exact dual step
# ---------------------------------------------------------------------------


def step_duals(lam: Array, g: Array, beta: float) -> Array:
    """Exact maximization over the multipliers, ``max(lam + g / beta, 0)``,
    for the constraint values ``g`` at the new point, both stacked over the
    constraint rows: the general step ``max(mu + g / beta, 0)`` at the
    solver's ``z = 0`` and ``mu = lam``."""
    return np.maximum(lam + g / beta, 0.0)


# ---------------------------------------------------------------------------
# Trace and result
# ---------------------------------------------------------------------------


@dataclass
class TraceRow:
    """One completed outer iteration (state after the multiplier step)."""

    k: int
    L_values: Array
    dx_inf: float
    dlambda_inf: float
    feas: float
    exit_kind: str
    L_x_step: Array      # values at (x_new, old lam): the primal bracket
    dx_2: float
    dlam_2: Array
    lam_norm2: Array
    lam_norm_inf: Array
    jac_norm: Array
    jac_own_norm: Array
    qx: Array
    qlam: Array
    gamma: Array
    M_theta_own: Array
    M_g_own: Array


@dataclass
class SolveTrace:
    """Per-iteration records plus run-level context for the invariant checks.

    ``violations`` keeps the first messages of each monitored bound (see
    :func:`verify_run_bounds`), an empty list when it always held;
    ``violation_counts`` counts them all.
    """

    initial_L: Array
    initial_feas: float
    initial_jac_norm: Array
    initial_jac_own_norm: Array
    rows: list[TraceRow] = field(default_factory=list)
    violations: dict[str, list[str]] = field(default_factory=dict)
    violation_counts: dict[str, int] = field(default_factory=dict)


@dataclass
class SolveResult:
    status: str
    state: IterateState
    trace: SolveTrace
    wall_time: float
    outer_iterations: int
    final_residual: float
    message: str = ""

    @property
    def total_inner_iterations(self) -> int:
        """One block update per outer iteration; kept for the result/1
        document and the trace CSV's ``inner_iters`` column."""
        return self.outer_iterations


def _jac_norms(point: PointEval, runs: tuple[tuple[slice, slice, slice], ...],
               known: tuple[Array, Array] | None = None) -> tuple[Array, Array]:
    """Spectral norms of each player's constraint Jacobian ``J[s]`` and of its
    own-block columns ``J[s, sl]``, bit for bit, from views of ``J``: at ``point``
    for the players of ``runs`` (``game.constrained_runs``), the others from
    ``known`` (zero by default)."""
    full, own = (k.copy() for k in known or (np.zeros(len(point.theta)),) * 2)
    J = point.g_jacobians
    for players, rows, cols in runs:
        blocks = own_columns(J, (players, rows, cols))
        full[players] = spectral_norms(J[rows].reshape(len(blocks), -1, J.shape[1]))
        own[players] = spectral_norms(blocks)
    return full, own


# ---------------------------------------------------------------------------
# Outer loop
# ---------------------------------------------------------------------------


def solve(game: GameInstance, x0: Array, cfg: SolverConfig | None = None) -> SolveResult:
    """Run the alternating scheme from ``x0`` (projected onto the private sets).

    The run carries one multiplier per constraint row, from zero; the final
    state's duals hold it as ``lam``, with ``z`` zero and ``mu`` a copy of
    ``lam`` (the values the regularized Lagrangian's exact ``z`` and ``mu``
    steps keep from zero duals). Returns status ``converged``
    when the stopping residual drops below ``outer_tol``, ``max_outer`` at the
    iteration cap, ``stalled-stationary`` when the primal blocks are pinned at
    a fixed point while the multipliers keep drifting (no finite-multiplier
    stationary point nearby), ``oracle-failure`` when an oracle returns a
    non-finite value mid-run. A failed run keeps the trace and the state of
    the last completed iteration.

    Each outer iteration works on whole arrays over players: the oracle
    sweep (:func:`~gnepsolve.lagrangian.evaluate_point`, one batched sweep
    for a game with stacked quadratic data), the anchor, the multiplier step
    and the trace row's values and norms, with the multipliers stacked over
    the constraint rows (``game.rows``). Every per-player
    reduction is bit for bit the per-player one, so the iterates do not
    depend on how the work is batched.
    """
    cfg = cfg or SolverConfig()
    t0 = time.perf_counter()
    state = initial_state(game, x0)
    penalty = cfg.penalty()
    estimator = LipschitzEstimator(game, seed=cfg.seed)
    rows = game.rows

    try:
        point = evaluate_point(game, state.x)
    except OracleFailure as exc:
        trace = SolveTrace(np.zeros(game.num_players), np.inf,
                           np.zeros(game.num_players), np.zeros(game.num_players))
        return SolveResult("oracle-failure", state, trace, time.perf_counter() - t0,
                           0, np.inf, message=str(exc))

    x, lam = state.x, state.duals.lam
    # Norms of constant Jacobians are computed once, unless a run also holds a varying one.
    varying = tuple(run for run in game.constrained_runs
                    if not all(map(game.constant_jacobian, range(run[0].start, run[0].stop))))
    jac_full, jac_own = _jac_norms(point, game.constrained_runs)
    trace = SolveTrace(
        initial_L=lagrangian_values(point, lam, rows),
        initial_feas=constraint_violation(point.g_values),
        initial_jac_norm=jac_full,
        initial_jac_own_norm=jac_own,
    )
    L_values = trace.initial_L   # at ``point`` and the current multipliers

    residual = np.inf
    status = "max_outer"
    stall_streak = 0
    stall_start_residual = np.inf
    stall_start_lam = np.inf
    message = ""

    for k in range(cfg.max_outer):
        try:
            est = estimator.estimate(x, lam, jac_norms=jac_full)   # oracles: not quieted
            with np.errstate(**QUIET):
                gamma, _ = choose_gamma(est, penalty, cfg.gamma)
                anchor = build_anchor(game, lam, gamma, point, L_values)
                inner = solve_inner(game, anchor, cfg)
                next_point = inner.point
                lam_new = step_duals(lam, next_point.g_values, cfg.beta)
        except OracleFailure as exc:
            status, message = "oracle-failure", str(exc)
            break

        with np.errstate(**QUIET):
            dx = inner.x_next - x
            dlam = lam_new - lam
            dx_inf, dlambda_inf = max_abs(dx), max_abs(dlam)
            residual = max(dx_inf, dlambda_inf)
            dlam_2, lam_norm2 = rows.norm(np.array([dlam, lam_new]))
            if varying:
                jac_full, jac_own = _jac_norms(next_point, varying, (jac_full, jac_own))
            trace.rows.append(TraceRow(
                k=k + 1,
                L_values=lagrangian_values(next_point, lam_new, rows),
                dx_inf=dx_inf,
                dlambda_inf=dlambda_inf,
                feas=constraint_violation(next_point.g_values),
                exit_kind=inner.exit_kind,
                L_x_step=inner.values,
                dx_2=vec_norm(dx),
                dlam_2=dlam_2,
                lam_norm2=lam_norm2,
                lam_norm_inf=rows.max_abs(lam_new),
                jac_norm=jac_full,
                jac_own_norm=jac_own,
                qx=projected_gradient_x(game, next_point, lam_new),
                qlam=projected_gradient_lam(rows, lam_new, next_point.g_values),
                gamma=gamma,
                M_theta_own=est.L_theta,
                M_g_own=est.M_g_own,
            ))

        x, lam, point, L_values = inner.x_next, lam_new, next_point, trace.rows[-1].L_values

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

    state = IterateState(x, DualStack(np.zeros(rows.total), lam, lam.copy(), rows))
    trace.violations, trace.violation_counts = verify_run_bounds(trace, cfg, state.duals)
    return SolveResult(
        status=status,
        state=state,
        trace=trace,
        wall_time=time.perf_counter() - t0,
        outer_iterations=len(trace.rows),
        final_residual=residual,
        message=message,
    )


# ---------------------------------------------------------------------------
# Post-run invariant verification
# ---------------------------------------------------------------------------

_SLACK = 1e-9
# Rows compared at once by verify_run_bounds; bounds its temporaries' size.
_BOUND_ROWS = 64
# Messages kept per monitored bound; the counts cover every violation.
_KEPT_MESSAGES = 20


def _first_hits(mask: Array, kept: list[str]) -> Array:
    """(row, player) pairs of the first True entries of ``mask``, in row-major
    order, as many as ``kept`` has room for."""
    return np.argwhere(mask)[:max(_KEPT_MESSAGES - len(kept), 0)]


@np.errstate(**QUIET)   # a diverging run records non-finite values
def verify_run_bounds(trace: SolveTrace, cfg: SolverConfig,
                      duals: DualStack) -> tuple[dict[str, list[str]], dict[str, int]]:
    """Check the monitored run bounds on recorded iterations and on the
    exported duals ``duals``.

    - ``decrease``: every player's Lagrangian value sequence nonincreasing
      (only meaningful under the auto proximal policy);
    - ``x-descent``: an accepted block update (exit ``descent`` or ``true``)
      does not raise a player's value at the old multipliers;
    - ``dual-identity``: every exported ``z`` is +0.0 and every ``mu`` the
      same bytes as its ``lam``, on each constraint row;
    - ``multiplier-coupling`` (iterations >= 2): multiplier move bounded by the
      constraint Lipschitz estimate times the primal move;
    - ``projected-gradient`` (iterations >= 2): the summed x- and lam-block
      projected-gradient norm bounded by the assembled constant times the
      primal move (the z- and mu-blocks vanish at ``z = 0``, ``mu = lam``).

    Returns the first messages of each bound (at most 20, in (k, player)
    order, by constraint row for ``dual-identity``; an empty list means the
    bound always held) and the number of violations of each.
    """
    out: dict[str, list[str]] = {k: [] for k in ("decrease", "x-descent", "dual-identity",
                                                 "multiplier-coupling", "projected-gradient")}
    counts = dict.fromkeys(out, 0)
    z, lam, mu = duals.z, duals.lam, duals.mu
    broken = np.nonzero((z.view(np.uint64) != 0) | (mu.view(np.uint64) != lam.view(np.uint64)))[0]
    counts["dual-identity"] = int(broken.size)
    for j in broken[:_KEPT_MESSAGES]:
        i = int(np.searchsorted(duals.rows.bounds, j, side="right")) - 1
        out["dual-identity"].append(f"player={i} row={j - duals.rows.bounds[i]}: "
                                    f"z {float(z[j])!r}, lam {float(lam[j])!r}, "
                                    f"mu {float(mu[j])!r}")
    rows = trace.rows
    if not rows:
        return out, counts
    beta = cfg.beta

    def stack(part: list[TraceRow], name: str) -> Array:
        """One field over ``part``: (rows, players), or (rows,) for scalars."""
        return np.array([getattr(r, name) for r in part])

    jac_own_max = np.maximum(trace.initial_jac_own_norm, stack(rows, "jac_own_norm").max(axis=0))
    jac_run_max = np.maximum(trace.initial_jac_norm, stack(rows, "jac_norm").max(axis=0))
    m_theta_max = stack(rows, "M_theta_own").max(axis=0)
    m_g_max = stack(rows, "M_g_own").max(axis=0)
    # The initial multipliers are zero, and a norm is never below zero.
    lam_run_max = stack(rows, "lam_norm2").max(axis=0)

    # Whole-array comparisons over blocks of rows, entry by entry the same
    # float arithmetic as one row and player at a time; np.argwhere keeps the
    # (k, player) message order.
    last_L, last_jac = trace.initial_L, trace.initial_jac_norm
    for start in range(0, len(rows), _BOUND_ROWS):
        part = rows[start:start + _BOUND_ROWS]
        ks = [r.k for r in part]
        L, jac = stack(part, "L_values"), stack(part, "jac_norm")
        prev_L = np.vstack([last_L, L[:-1]])
        prev_jac = np.vstack([last_jac, jac[:-1]])
        last_L, last_jac = L[-1], jac[-1]
        rose = L > prev_L + _SLACK
        counts["decrease"] += int(np.count_nonzero(rose))
        for j, i in _first_hits(rose, out["decrease"]):
            out["decrease"].append(
                f"k={ks[j]} player={i}: L rose {prev_L[j, i]:.12g} -> {L[j, i]:.12g}")
        L_x = stack(part, "L_x_step")
        accepted = np.array([r.exit_kind in ("descent", "true") for r in part])[:, None]
        raised = accepted & (L_x > prev_L + _SLACK)
        counts["x-descent"] += int(np.count_nonzero(raised))
        for j, i in _first_hits(raised, out["x-descent"]):
            out["x-descent"].append(
                f"k={ks[j]} player={i}: accepted block update raised L "
                f"{prev_L[j, i]:.12g} -> {L_x[j, i]:.12g}")

        checked = np.array([k >= 2 for k in ks])[:, None]
        dx_2 = stack(part, "dx_2")[:, None]
        dlam_2 = stack(part, "dlam_2")
        bound = (np.maximum(prev_jac, jac) / beta) * dx_2 + _SLACK
        coupled = checked & (dlam_2 > bound)
        counts["multiplier-coupling"] += int(np.count_nonzero(coupled))
        for j, i in _first_hits(coupled, out["multiplier-coupling"]):
            out["multiplier-coupling"].append(
                f"k={ks[j]} player={i}: |dlam| {dlam_2[j, i]:.3e} > {bound[j, i]:.3e}")
        C_dx = (2.0 + stack(part, "gamma") + m_theta_max + m_g_max * lam_run_max
                + jac_own_max * jac_run_max / beta + jac_run_max) * dx_2
        pg = stack(part, "qx") + stack(part, "qlam")
        pg_high = checked & (pg > C_dx + _SLACK)
        counts["projected-gradient"] += int(np.count_nonzero(pg_high))
        for j, i in _first_hits(pg_high, out["projected-gradient"]):
            out["projected-gradient"].append(
                f"k={ks[j]} player={i}: |pg| {pg[j, i]:.3e} > C*dx {C_dx[j, i]:.3e}")
    return out, counts
