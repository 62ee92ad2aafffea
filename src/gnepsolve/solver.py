"""Alternating primal-dual solver with Jacobi gradient projection.

One outer iteration from ``(x, lam)``, with ``lam`` one multiplier per
constraint row, is one Jacobi step on the joint row ``[x; lam]``:

1. every player simultaneously moves to the minimizer of its quadratic
   surrogate anchored at ``x`` over its private set (Jacobi decomposition:
   all blocks move from a shared snapshot). The surrogate's own-block
   Hessian is ``gamma_nu I``, so that minimizer is one projection,
   ``project_private(x - own_grad / gamma)``;
2. the multipliers are updated by exact maximization,
   ``lam = max(lam + g(x_new) / beta, 0)``;
3. stop when neither the primal blocks nor the multipliers moved more than
   the outer tolerance in the max norm.

An exit test labels each step (surrogate descent, verified non-increase of
the true value, a forced step, or a stall at the anchor). The label changes
the run only as a stall (:class:`_StallWatch`), which reads the labels the
trace block pass gives every row; no iteration labels its own step.

The regularized Lagrangian (:mod:`gnepsolve.lagrangian`) also carries a
perturbation ``z`` and a proximal centre ``mu``; from zero duals its exact
steps keep ``z = 0`` and ``mu = lam``, so ``alpha`` enters no iterate: the
solver carries ``lam`` alone and exports ``z = 0`` and ``mu = lam``. The
trace records monitored value-decrease, multiplier-coupling and
projected-gradient bounds, so claims about the dynamics can be asserted (or
falsified) on real runs; its columns, one array per :class:`TraceRow`
field, are built in blocks after the iterations they record, and
:func:`verify_run_bounds` checks them whole. Data that cannot move
(:attr:`LipschitzEstimator.fixed`) gives ``gamma``, the Jacobian norms and
``J`` once per run, and its constant columns are one row each. The model
slopes are the block pass's, as are, with stacked quadratic data, the
objective values and finiteness check; :func:`solve` says what an
iteration computes.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from .core import (
    _ZERO,
    Array,
    DualStack,
    GameInstance,
    IterateState,
    OracleFailure,
    constraint_violation,
    initial_state,
    max_abs,
    own_columns,
    quadratic_constraints,
    row_dots,
    row_norms,
    self_dots,
    spectral_norms,
    stack_rows,
)
from .lagrangian import (
    QUIET,
    PenaltyParams,
    _check_finite,
    checked_sweep,
    evaluate_point,
    lagrangian_values,
    projected_gradient_x,
    projected_step_lam,
    raw_sweep,
    surrogate_values,
)

__all__ = [
    "GammaPolicy",
    "SigmaSchedule",
    "SolverConfig",
    "LipschitzEstimates",
    "LipschitzEstimator",
    "choose_gamma",
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

    The auto rule sets ``gamma_nu`` to the bound ``L_nu + 3 L_g_nu^2 / beta``,
    the standard sufficient-decrease sizing; a fixed value below that bound
    is allowed, and :func:`choose_gamma` returns a warning for it.
    """

    kind: str = "auto"
    values: Array | None = None

    def __post_init__(self):
        if self.kind not in ("auto", "fixed"):
            raise ValueError("gamma policy kind must be 'auto' or 'fixed'")
        if self.kind == "fixed" and (self.values is None
                                     or not np.all((0 < self.values) & (self.values < np.inf))):
            raise ValueError(f"fixed gamma values must be finite and > 0, got {self.values}")

    @staticmethod
    def auto() -> "GammaPolicy":
        return GammaPolicy("auto")

    @staticmethod
    def fixed(values) -> "GammaPolicy":
        return GammaPolicy("fixed", values=np.atleast_1d(np.asarray(values, dtype=float)))


@dataclass(frozen=True)
class SigmaSchedule:
    """Step-size schedule of an iterative inner sweep whose fixed point the
    block update computes in closed form. Nothing in :mod:`gnepsolve` reads
    it: it is kept because the benchmark's ``fast_config``
    (``perfbench/workloads.py``) passes one to :class:`SolverConfig`.

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
    """Solver parameters. :func:`solve` reads ``beta``; its iterates do not
    depend on the penalty weight ``alpha`` (its ``z`` stays zero), and
    :meth:`penalty` gives the diagnostics the default ``alpha`` of
    :class:`~gnepsolve.lagrangian.PenaltyParams`. Nothing in
    :mod:`gnepsolve` reads ``sigma`` (:class:`SigmaSchedule`); it stays for
    the benchmark's ``fast_config``, which passes it.
    """

    beta: float = 1.0
    gamma: GammaPolicy = field(default_factory=GammaPolicy.auto)
    sigma: SigmaSchedule = field(default_factory=SigmaSchedule)
    outer_tol: float = 1e-4
    max_outer: int = 5000
    seed: int = 0

    def __post_init__(self):
        self.penalty()   # beta: finite and > 0
        if not self.outer_tol > 0:
            raise ValueError(f"outer tolerance must be positive, got {self.outer_tol}")
        if self.max_outer < 1:
            raise ValueError("iteration cap must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def penalty(self) -> PenaltyParams:
        return PenaltyParams(beta=self.beta)


# Point pairs drawn per smoothness sample of a non-quadratic player.
_SAMPLE_PAIRS = 200
# Bytes of the fields of one raw sweep over a chunk of point pairs while
# sampling: power's 200 pairs are one (2, 200, n) stack, one oracle call.
_CHUNK_BYTES = 1 << 18
# The sampled constants' safety factor, the decrease bound's factor and the box radius
# the function-Lipschitz bound covers (0-d: NumPy converts a Python float operand).
_INFLATION, _THREE, _MARGIN = np.array(2.0), np.array(3.0), np.array(0.5)
# Bounds the run of consecutive stall labels before the stall stop checks
# that the multiplier drift still decays or drains.
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
    resample binds new ones; they are read-only.
    """

    L_theta: Array
    grad_g_lip: Array
    L: Array
    L_gfun: Array
    M_g_own: Array


class LipschitzEstimator:
    """Smoothness estimation, exact for a quadratic game.

    A game with stacked quadratic data (``game.quadratic``) gets exact
    constants from it, computed once per game
    (:attr:`~gnepsolve.core.QuadraticStack.smoothness`): each ``||Q_i||_2``
    from its band and constraint bounds from the curved players' Hessians
    (zero for affine players). Every other game gets constants from sampled difference
    quotients ``max ||grad f(a) - grad f(b)|| / ||a - b||`` over seeded
    point pairs drawn in a box around the current iterate, inflated by a
    safety factor, and each player's largest Jacobian norm at the sampled
    points. The pairs are drawn in one call and projected in one. Each
    chunk of pairs whose sweep fields fit ``_CHUNK_BYTES`` (all 200 of
    power's) takes one raw oracle sweep of its stacked points
    (:func:`~gnepsolve.lagrangian.raw_sweep`: one call of a batched oracle,
    the per-point loop without one), and the quotients and norms over all
    pairs are batched reductions, each bit for bit the per-pair one. The
    box is refreshed when the iterate leaves its core. If no sampled pair is
    apart after two draws, the joint private set is one point, and the
    sampled constants are zero. Between resamples an estimate is a few
    whole-array operations on the bound arrays.
    """

    def __init__(self, game: GameInstance, seed: int = 0):
        self.game = game
        self.rng = np.random.default_rng(seed)
        self._box_center: Array | None = None
        self._box_halfwidth: Array | None = None
        self._box_core: Array | None = None   # 0.5 * halfwidth: leaving it resamples
        N = game.num_players
        # Per-player constants: exact for a quadratic game, bound anew by
        # every resample otherwise (never written in place, so an estimate
        # handed out earlier keeps its values).
        gg = [np.zeros(p.m) for p in game.players]   # constraint-gradient Lipschitz bounds
        self._jac_max = np.zeros(N)
        if game.quadratic is None:
            self._jac_growth = np.zeros(N)
            self._bind(np.zeros(N), gg)
            return
        L_theta, hessian_norms, self._jac_growth = game.quadratic.smoothness
        for i, a_norms in hessian_norms.items():
            gg[i] = a_norms
        self._bind(L_theta, gg)

    def _bind(self, L_theta: Array, gg: list[Array]):
        self._L_theta = L_theta
        self._gg = stack_rows(gg)
        self._M_g_own = np.array([float(np.sqrt(np.sum(g ** 2))) for g in gg])

    # -- sampling machinery --------------------------------------------------

    def _draw_pairs(self) -> Array:
        """``(2, _SAMPLE_PAIRS, n)`` points in the box, projected: one draw,
        which fills the array in the order of one draw per point."""
        u = self.rng.uniform(-1.0, 1.0, (2, _SAMPLE_PAIRS, self.game.n))
        return self.game.project_private(self._box_center + u * self._box_halfwidth)

    def _resample(self, x: Array):
        self._box_center, self._box_halfwidth = np.array(x, copy=True), 2.0 + 0.25 * np.abs(x)
        game = self.game
        for attempt in range(2):
            pts = self._draw_pairs()
            dist = np.sqrt(self_dots(pts[0] - pts[1]))   # per pair: ||a - b||
            apart = dist > 1e-10
            if apart.any():
                break
            self._box_halfwidth = 2.0 * self._box_halfwidth
        self._box_core = 0.5 * self._box_halfwidth
        if not apart.any():   # a one-point joint private set: a quotient over it bounds nothing
            self._bind(np.zeros(game.num_players), [np.zeros(p.m) for p in game.players])
            self._jac_max = np.zeros(game.num_players)
            return
        a, b, dist = pts[0][apart], pts[1][apart], dist[apart]
        M, N = game.total_constraints, game.num_players
        ratios, oks, failed = [], [], False
        row_lip, jac_max = np.zeros(M), np.zeros(N)
        step = max(1, _CHUNK_BYTES // (16 * (N + M) * (game.n + 1)))   # a pair's fields' bytes
        for start in range(0, len(dist), step):   # bounds the stacked sweeps' size
            chunk, d = slice(start, start + step), dist[start:start + step, None]
            with np.errstate(**QUIET):   # ends in the finiteness checks below
                _, grads, _, jacs = raw_sweep(game, np.stack([a[chunk], b[chunk]]))
                dg = grads[0] - grads[1]   # (pairs, N, n)
                ratio = np.sqrt(self_dots(dg)) / d   # per pair and player
                ok = np.isfinite(jacs).all(axis=3).all(axis=0)   # per pair and row
                ratios.append(ratio)
                oks.append(ok)
                # past a failure the remaining pairs are only checked: it is raised below
                failed = failed or not (np.isfinite(ratio).all() and ok.all())
                if failed:
                    continue
                # per pair and row: ||dJ_row|| as the sum np.linalg.norm(axis=1) takes
                dj = jacs[0] - jacs[1]
                row_lip = np.maximum(row_lip, (np.sqrt(np.add.reduce(dj * dj, axis=2)) / d).max(
                    axis=0, initial=0.0))
                jac_max = np.maximum(jac_max, _jac_norms(game, jacs).max(axis=(0, 1)))
        ratio = np.concatenate(ratios)
        if failed:
            _raise_first_sampling_failure(game, ratio, np.concatenate(oks))
        bounds = game.rows.bounds
        self._bind(_INFLATION * ratio.max(axis=0, initial=0.0),
                   [_INFLATION * row_lip[bounds[i]:bounds[i + 1]]
                    for i in range(game.num_players)])
        self._jac_max = jac_max

    # -- public entry --------------------------------------------------------

    @property
    def fixed(self) -> bool:
        """Every estimate is the first: every player's constraint Jacobian is
        constant (``game.constant_jacobian``: quadratic data, not curved)."""
        return all(map(self.game.constant_jacobian, range(self.game.num_players)))

    def estimate(self, x: Array, lam: Array,
                 jac_norms: Array | None = None) -> LipschitzEstimates:
        """Constants at iterate ``x`` with current multipliers ``lam``,
        stacked over the constraint rows.

        ``jac_norms`` may pass precomputed spectral norms of each player's
        constraint Jacobian at ``x`` to avoid an extra oracle sweep. The
        arithmetic runs under the caller's NumPy error state: a zero bound
        times an overflowed multiplier is NaN, which :func:`choose_gamma`
        reports, and ``solve`` calls this inside its quiet loop, so only a
        caller that leaves NumPy's warnings on sees one here.
        """
        game, center = self.game, self._box_center
        # x out of the box's core resamples (a byte search beats a NumPy reduction)
        if game.quadratic is None and (center is None or b"\x01" in (
                np.abs(x - center) > self._box_core).tobytes()):
            self._resample(x)
        if jac_norms is None:
            jac_norms = _jac_norms(game, evaluate_point(game, x).g_jacobians)
        L_gfun = (jac_norms + self._jac_growth * _MARGIN if game.quadratic is not None
                  else _INFLATION * np.maximum(jac_norms, self._jac_max))
        # L_theta and gg change only at a resample; the multiplier term moves
        return LipschitzEstimates(self._L_theta, self._gg,
                                  self._L_theta + game.rows.dot(self._gg, lam), L_gfun,
                                  self._M_g_own)


# ---------------------------------------------------------------------------
# Step-parameter selection
# ---------------------------------------------------------------------------

_GAMMA_FLOOR = 1e-2


def _raise_first_sampling_failure(game: GameInstance, ratio: Array, jac_ok: Array):
    """Raise :class:`OracleFailure` for the first player, and its first
    sampled pair, whose gradient difference quotient ``ratio`` (pairs, N) is
    not finite or whose Jacobians are not (``jac_ok``, pairs by rows),
    the gradient first."""
    bounds = game.rows.bounds
    for i in range(game.num_players):
        rows = slice(bounds[i], bounds[i + 1])
        for k in range(len(ratio)):
            if not np.isfinite(ratio[k, i]):
                raise OracleFailure(
                    f"player {i}: non-finite gradient while sampling smoothness", player=i)
            if not jac_ok[k, rows].all():
                raise OracleFailure(
                    f"player {i}: non-finite Jacobian while sampling smoothness", player=i)


def choose_gamma(est: LipschitzEstimates, penalty: PenaltyParams,
                 policy: GammaPolicy) -> tuple[Array, list[str]]:
    """Proximal weights; auto applies the sufficient-decrease bound. A NaN
    weight raises :class:`OracleFailure` naming the first player whose
    smoothness estimate or constraint-Jacobian norm bound is NaN."""
    bound = est.L + _THREE * est.L_gfun ** 2 / penalty.beta
    warnings: list[str] = []
    if policy.kind == "auto":
        gamma = bound
    else:
        gamma = np.broadcast_to(policy.values, bound.shape).astype(float)
        warnings = [f"player {i}: fixed gamma {gamma[i]:.6g} below decrease bound {bound[i]:.6g}"
                    for i in np.flatnonzero(gamma < bound)]
    top = float(np.maximum.reduce(gamma))   # NaN when a weight is
    if math.isnan(top):   # name the first NaN constant, not a NaN step
        i = int(np.flatnonzero(np.isnan(est.L) | np.isnan(est.L_gfun))[0])
        raise OracleFailure(f"player {i}: NaN proximal weight from smoothness estimate "
                            f"{est.L[i]:.6g} and constraint-Jacobian norm bound "
                            f"{est.L_gfun[i]:.6g}", player=i)
    return np.maximum(gamma, max(_GAMMA_FLOOR, 1e-3 * top)), warnings


# ---------------------------------------------------------------------------
# Jacobi block update on the joint row, and its exit labels
# ---------------------------------------------------------------------------


def _exit_labels(values: Array, L_x: Array, slope: Array, gamma: Array, dd: Array,
                 dx_inf: Array, stall_tol: float) -> Array:
    """Exit labels of block updates over a leading axis of rows (rows by
    players; ``dd`` and ``dx_inf`` by row): the step ``d`` of each row from an
    anchor with Lagrangian values ``values``, model slopes ``slope`` (``grads
    @ d``), proximal weights ``gamma`` and ``dd = d.d``, whose true values at
    the anchor's multipliers are ``L_x`` and whose max-norm is ``dx_inf``.

    "descent" when every surrogate margin is negative; "stall" when a
    failing margin is zero up to rounding (at most 1e-14) and the step is
    within ``stall_tol`` of the anchor (no descent exists there). Else the
    failing players are judged on a direct (non-strict) true value
    comparison: "true" if it holds, "forced" if even the true value rose (the
    block update is the fixed-point step; the rise is recorded). Strict
    surrogate descent is not always achievable: rivals' moves can raise a
    player's anchored Lagrangian through the cross-block terms. A NaN margin
    fails, and a NaN value comparison does not hold.
    """
    margins = surrogate_values(values, slope, gamma, dd[:, None]) - values
    failing = ~(margins < 0.0)
    stall = (failing & (margins <= 1e-14)).any(axis=1) & (dx_inf <= stall_tol)
    kept = ((L_x <= values) | ~failing).all(axis=1)
    return np.select([~failing.any(axis=1), stall, kept], ["descent", "stall", "true"], "forced")


@dataclass
class _StallWatch:
    """The stall stop, fed the trace columns block by block. ``_STALL_PATIENCE``
    stall labels in a row whose multiplier drift neither decays (the
    residual at most 98% of the streak's first) nor drains (``max |lam|``
    down by ``0.25 * _STALL_PATIENCE * tol``) stop the run: the primal is
    pinned, and growing multipliers mean no finite stationary multiplier
    nearby. A streak whose drift does either starts over. ``streak`` is the
    stall run the rows fed so far end in, carried into the next block."""

    tol: float
    streak: int = 0
    start_residual: float = np.inf
    start_lam: float = np.inf

    def stops(self, block: dict[str, Array]) -> int | None:
        """Feed the rows of the trace columns ``block``; the index of the row
        that stops the run, whose successors are not read, or None. Only a
        stall row's residual and ``max |lam|`` are read."""
        for j, kind in enumerate(block["exit_kind"].tolist()):
            if kind != "stall":
                self.streak = 0
                continue
            residual = max(block["dx_inf"][j], block["dlambda_inf"][j])
            lam_inf = block["lam_norm_inf"][j].max(initial=0.0)
            if self.streak == 0:
                self.start_residual, self.start_lam = residual, lam_inf
            self.streak += 1
            if self.streak >= _STALL_PATIENCE:
                decaying = residual <= 0.98 * self.start_residual
                draining = lam_inf <= self.start_lam - 0.25 * _STALL_PATIENCE * self.tol
                if not (decaying or draining):
                    return j
                self.streak = 0
        return None


def _jacobian_gathers(game: GameInstance, J: Array, moving: bool = False) -> list | Array:
    """:attr:`~gnepsolve.core.GameInstance.own_gathers` with each run's rows
    of ``J`` as one ``(p, w, n)`` view (blocks ``None`` when they are every
    block: one add, no slice): bound once per solve for a ``J`` that cannot
    move, and per step for one that moves (its own entries, with one row a player)."""
    if moving and game.rows.unit:
        return J.take(game.layout.own_entries)
    n = game.n
    return [(rows, cols, p, own, J[rows].reshape(p, -1, n))
            for rows, cols, p, own in game.own_gathers]


def _own_grads(game: GameInstance, obj: Array) -> Array:
    """Every player's own-block objective gradients, stacked like ``x``, from
    a row's objective data ``obj`` over any leading axes: ``G @ x + b_own``
    with stacked quadratic data, else the own blocks of the oracle's ``(N,
    n)`` gradients."""
    q = game.quadratic
    if q is None:
        return obj.reshape(obj.shape[:-2] + (-1,)).take(game.layout.own_entries, axis=-1)
    return obj + q.b_own


def _step(game: GameInstance, x: Array, lam: Array, obj: Array, gathers: list | Array,
          gamma_by_coord: Array, beta: float) -> tuple[Array, tuple, Array]:
    """One iteration from the halves ``x`` and ``lam`` of the joint row, with
    ``obj`` the objective data at ``x`` (:func:`_own_grads`): the own-block
    gradients plus each player's own entries of the full gemv ``J_i.T @
    lam_i`` (one over the own columns alone rounds differently; ``gathers``
    from :func:`_jacobian_gathers`, whose own entries of one row a player
    each take one product), the projection and the dual step
    written into the new row. The sweep at the new point is
    :func:`~gnepsolve.core.quadratic_constraints` and its ``G @ x`` with
    stacked quadratic data, which checks nothing (the trace block pass finds
    a non-finite value, :func:`_objective_rows`), else the checked oracle
    sweep, which raises :class:`~gnepsolve.core.OracleFailure`. Returns the
    new row, the head of its trace row ``(x, lam, g, obj, theta)`` (the
    halves of the new row, the constraint values, the objective data and
    the oracle's objective values, ``None`` with stacked data) and the
    constraint Jacobian at its point."""
    q, n = game.quadratic, len(x)
    grad = _own_grads(game, obj)
    if type(gathers) is np.ndarray:   # own entries of one row a player: a 1x1 gemv an entry
        gathers, grad = (), grad + (game.layout.segments.repeat(lam) * gathers + _ZERO)
    for rows, cols, p, own, J in gathers:
        terms = np.matmul(lam[rows].reshape(p, 1, -1), J).ravel()[own]
        if cols is None:
            grad += terms
        else:
            grad[cols] += terms
    new = np.empty(n + len(lam))
    u, lam_new = new[:n], new[n:]
    game.project_private(x - grad / gamma_by_coord, out=u)
    if q is None:
        theta, obj, g, J = checked_sweep(game, u)
    else:
        (g, J), obj, theta = quadratic_constraints(game, u), np.matmul(q.G, u), None
    np.maximum(lam + g / beta, 0.0, out=lam_new)
    return new, (u, lam_new, g, obj, theta), J


# ---------------------------------------------------------------------------
# Trace and result
# ---------------------------------------------------------------------------


@dataclass
class TraceRow:
    """One completed outer iteration (state after the multiplier step): a trace row."""

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


def _empty_columns() -> dict[str, Array]:
    """The trace columns of no row."""
    return {f.name: np.zeros(0) for f in fields(TraceRow)}


@dataclass
class _Rows(Sequence):
    """Rows of trace columns in field order, each built when it is read."""

    columns: dict[str, Array]

    def __len__(self) -> int:
        return len(self.columns["k"])

    def __getitem__(self, j):
        if isinstance(j, slice):
            return [self[i] for i in range(*j.indices(len(self)))]
        return TraceRow(*(col[j] for col in self.columns.values()))

    def __iter__(self):
        return map(TraceRow, *self.columns.values())


@dataclass
class SolveTrace:
    """Per-iteration columns plus run-level context for the invariant checks.

    ``columns`` holds one array per :class:`TraceRow` field, in its order,
    rows first, and ``rows`` views them. ``violations`` keeps the first
    messages of each monitored bound (see :func:`verify_run_bounds`); an
    empty list means it always held. ``violation_counts`` counts them all.
    """

    initial_L: Array
    initial_feas: float
    initial_jac_norm: Array
    initial_jac_own_norm: Array
    columns: dict[str, Array] = field(default_factory=_empty_columns)
    violations: dict[str, list[str]] = field(default_factory=dict)
    violation_counts: dict[str, int] = field(default_factory=dict)

    @property
    def rows(self) -> _Rows:
        """The recorded iterations, one :class:`TraceRow` per row read."""
        return _Rows(self.columns)


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


def _jac_norms(game: GameInstance, J: Array) -> Array:
    """Spectral norm of each player's constraint Jacobian ``J[..., s, :]``
    over any leading axes of the contiguous ``J``, bit for bit the one-point
    norms, from views of ``J``: for the players of ``game.constrained_runs``,
    zero for the others. The one Jacobian quantity an iteration computes:
    the next estimate reads it. With one row a player they are the rows'
    norms."""
    if game.rows.unit:
        return row_norms(J)
    lead, n = J.shape[:-2], J.shape[-1]
    full = np.zeros(lead + (game.num_players,))
    for players, rows, _ in game.constrained_runs:
        full[..., players] = spectral_norms(
            J[..., rows, :].reshape(lead + (players.stop - players.start, -1, n)))
    return full


def _own_jac_norms(game: GameInstance, J: Array) -> Array:
    """Spectral norm of each player's own-block columns ``J[..., s, sl]`` over
    any leading axes of the contiguous ``J``, bit for bit the one-point norms
    (:func:`~gnepsolve.core.own_columns` keeps ``J``'s strides); zero for a
    player without constraints."""
    own = np.zeros(J.shape[:-2] + (game.num_players,))
    for run in game.constrained_runs:
        own[..., run[0]] = spectral_norms(own_columns(J, run))
    return own


def _objective_rows(game: GameInstance, anchor: tuple[Array, ...], x: Array, lam: Array,
                    g: Array, J: Array, dx: Array, obj: Array,
                    theta: Array | None) -> tuple[Array, Array]:
    """The objective values at each row's point ``x[j]`` and the model slopes
    ``(grad theta(x_a) + J_a.T lam_a) . dx[j]`` at its anchor: the previous
    row's point, multipliers ``lam``, Jacobians ``J`` (shared (M, n) or
    stacked by row) and objective data ``obj`` (:func:`_own_grads`),
    ``anchor = (x, lam, J, obj)`` for the first row. Bit for bit the slopes
    of the full gradients a full sweep at each anchor gives. A game without
    stacked quadratic data hands its rows' oracle values ``theta`` and
    gradients ``obj``, which the iterations' sweeps checked. With stacked
    data they are computed here, from the rows' ``G @ x`` in ``obj``, and
    only the rows before the first with a non-finite entry among the fields
    of a full sweep at its point are returned: its objective values and
    gradients (the own entries the iteration read included), its constraint
    values ``g`` and, stacked by row, its Jacobian. The rows go in chunks,
    whose products are taken over a leading axis of their points; one
    ``(rows, N, n)`` stack holds at most ``_STACK_BYTES``."""
    q, N, n = game.quadratic, game.num_players, game.n
    step = max(1, _STACK_BYTES // (8 * N * n))
    x_a, lam_a, J_a, obj_a = anchor
    grads_a = obj_a.copy() if q is None else q.products(x_a, own_rows=obj_a) + q.b
    full = game.rows.vecmat_add(grads_a, lam_a, J_a)   # the anchor's gradients
    thetas, slopes = [np.zeros((0, N))], [np.zeros((0, N))]
    for s in range(0, len(x), step):
        if q is None:
            values, grads = theta[s:s + step], obj[s:s + step].copy()
            kept = len(grads)
        else:
            X = x[s:s + step]
            grads = q.products(X, own_rows=obj[s:s + step])
            values = 0.5 * row_dots(grads, X) + row_dots(q.b, X)
            grads += q.b
            finite = (np.isfinite(values).all(axis=1) & np.isfinite(grads).all(axis=(1, 2))
                      & np.isfinite(g[s:s + step]).all(axis=1))
            if J.ndim == 3:
                finite &= np.isfinite(J[s:s + step]).all(axis=(1, 2))
            kept = len(finite) if finite.all() else int(np.argmin(finite))
        if kept:
            thetas.append(values[:kept])
            slopes.append(row_dots(full, dx[s])[None])
            game.rows.vecmat_add(grads[:kept], lam[s:s + kept], J if J.ndim == 2 else J[s:s + kept])
            slopes.append(row_dots(grads[:kept - 1], dx[s + 1:s + kept]))
            full = grads[kept - 1]
        if kept < len(grads):
            break
    return np.concatenate(thetas), np.concatenate(slopes)


def _block_rows(row: tuple) -> int:
    """Rows per trace block of a run whose first pending row is ``row``
    (every row of a run holds arrays of the same shapes): as many as fit
    their arrays in ``_BLOCK_BYTES``, from one to ``_BOUND_ROWS``."""
    nbytes = sum(a.nbytes for a in row if isinstance(a, np.ndarray))
    return min(_BOUND_ROWS, max(1, _BLOCK_BYTES // nbytes))


@np.errstate(**QUIET)   # a diverging run records non-finite values
def _trace_rows(game: GameInstance, anchor: tuple, pending: list[tuple],
                constants: dict[str, Array] | None, stall_tol: float) -> dict[str, Array]:
    """The trace columns of ``pending`` iterations over a leading axis of
    rows, bit for bit the one-row values. ``anchor`` is ``(k, x, lam, J,
    L_values, obj)`` of the row before the first. A row keeps what cannot be
    derived: ``(x, lam, g, obj, theta)`` from :func:`_step`, and data that
    can move adds ``(J, jac_norm, gamma, L_theta, M_g_own)``, the last two
    the estimator's arrays (bound anew at each resample). Each row's ``k``, step
    ``dx`` and multiplier move ``dlam`` (the loop's subtractions) follow from
    the anchor and the stacked states, and its own-block gradients from
    ``obj`` (:func:`_own_grads`), as in the step. The objective values with
    stacked quadratic data and every game's model slopes are computed here
    (:func:`_objective_rows`), and only the rows it returns are built. Data
    that cannot move passes its per-run columns ``constants``, each one
    ``(N,)`` row that every row's column is a read-only view of, and every
    row's ``J`` is the anchor's; else the rows' ``J`` are stacked and their
    own-block norms taken from the stack. The Lagrangian values at the
    primal step and after the dual step are one :func:`lagrangian_values`
    call over a leading axis of (rows, 2), and each row's exit label is
    judged against the values after the previous row, the anchor's for the
    first."""
    k_a, x_a, lam_a, J_a, prev_L, obj_a = anchor
    cols = list(zip(*pending))

    def stack(f: int) -> Array:   # one concatenation: np.array over many small arrays is slower
        return np.concatenate(cols[f]).reshape((len(pending),) + cols[f][0].shape)

    def held(f: int) -> Array:   # an estimator's array, one object from resample to resample
        a = cols[f][0]
        return np.broadcast_to(a, (len(pending),) + a.shape) if a is cols[f][-1] else stack(f)

    x, lam, g, obj = map(stack, range(4))
    lams = np.stack([np.vstack([lam_a, lam[:-1]]), lam], axis=1)   # (rows, 2, M)
    dx, dlam = x - np.vstack([x_a, x[:-1]]), lam - lams[:, 0]
    # max_abs of each row, as the loop takes it
    dx_inf, dlam_inf = (np.maximum.reduce(np.abs(v), axis=1, initial=0.0) for v in (dx, dlam))
    J = J_a if constants is not None else stack(5)
    theta, slope = _objective_rows(game, (x_a, lam_a, J_a, obj_a), x, lam, g, J, dx, obj,
                                   stack(4) if game.quadratic is None else None)
    if len(theta) < len(pending):
        return (_trace_rows(game, anchor, pending[:len(theta)], constants, stall_tol)
                if len(theta) else _empty_columns())
    qx, dd = projected_gradient_x(game, x, lam, _own_grads(game, obj), J), self_dots(dx)
    del x, obj, dx   # what follows then peaks lower
    if constants is not None:
        run = {f: np.broadcast_to(v, (len(pending),) + v.shape) for f, v in constants.items()}
    else:
        run = dict(jac_norm=stack(6), jac_own_norm=_own_jac_norms(game, J), gamma=stack(7),
                   M_theta_own=held(8), M_g_own=held(9))
    L_x, L = lagrangian_values(theta[:, None], g[:, None], lams, game.rows).transpose(1, 0, 2)
    moves = np.stack([dlam, lam, projected_step_lam(lam, g)], axis=1)
    dlam_2, lam_norm2, qlam = np.sqrt(game.rows.dot(moves, moves)).transpose(1, 0, 2)
    return dict(
        k=k_a + np.arange(1, len(pending) + 1), L_values=L, dx_inf=dx_inf, dlambda_inf=dlam_inf,
        feas=constraint_violation(g),
        exit_kind=_exit_labels(np.vstack([prev_L, L[:-1]]), L_x, slope, run["gamma"], dd,
                               dx_inf, stall_tol),
        L_x_step=L_x, dx_2=np.sqrt(dd), dlam_2=dlam_2, lam_norm2=lam_norm2,
        lam_norm_inf=game.rows.max_abs(lam), jac_norm=run["jac_norm"],
        jac_own_norm=run["jac_own_norm"],
        qx=qx, qlam=qlam,
        gamma=run["gamma"], M_theta_own=run["M_theta_own"], M_g_own=run["M_g_own"])


# ---------------------------------------------------------------------------
# Outer loop
# ---------------------------------------------------------------------------


def solve(game: GameInstance, x0: Array, cfg: SolverConfig | None = None) -> SolveResult:
    """Run the alternating scheme from ``x0`` (projected onto the private sets).

    The run carries one multiplier per constraint row, from zero; the final
    state's duals hold it as ``lam``, with ``z`` zero and ``mu`` a copy of
    ``lam`` (the values the regularized Lagrangian's exact ``z`` and ``mu``
    steps keep from zero duals). Returns status ``converged`` when the
    stopping residual drops below ``outer_tol``, ``max_outer`` at the
    iteration cap, ``stalled-stationary`` when the primal blocks are pinned
    at a fixed point while the multipliers keep drifting (no
    finite-multiplier stationary point nearby), ``oracle-failure`` when an
    oracle returns a non-finite value mid-run, a multiplier overflows where
    the oracles are finite, or a proximal weight comes out NaN (the message
    names the NaN smoothness constant). A failed run keeps the trace and the
    state of the last completed iteration.

    Each outer iteration works on whole arrays over players, and computes
    what the next iterate and the stopping test read, with the multipliers
    stacked over the constraint rows (``game.rows``): one step on the joint
    row ``[x; lam]`` (:func:`_step`), that is the own-block gradients, one
    projection and the dual step into the new row, and a stop test of one
    max-abs over the row's move. With stacked quadratic data the sweep at
    the new point is its constraint rows and ``G @ x``, and the objective
    values, the rival blocks of the gradients and the finiteness check of
    every field a full sweep would check are the trace's. Any other game
    takes a full checked oracle sweep (one call of its batched oracle when
    it has one). The model slopes are the trace's for every game. With
    moving Jacobians an iteration takes each player's full-Jacobian norm,
    which the next Lipschitz estimate reads, and that estimate, ``gamma``
    and its repeat over the blocks are a handful of whole-array operations
    with 0-d constant operands (:meth:`LipschitzEstimator.estimate`,
    :func:`choose_gamma`, which also rejects a NaN weight). With one row a
    player the norms are one batched dot and a root, and the multiplier
    terms of the estimate and of the next step's own-block gradients are
    one product an entry, with no views of ``J`` bound. No iteration labels
    its own step: each keeps only the arrays of its row that cannot be
    derived (the estimator's by reference; see :func:`_trace_rows`), and
    one pass over a leading axis of rows builds their columns when the
    pending rows' arrays reach ``_BLOCK_BYTES``, at most every
    ``_BOUND_ROWS`` rows (:func:`_block_rows`), and when the loop ends. The
    stall stop (:class:`_StallWatch`) is fed each built block but a
    converged row. A run ends at a trace row: at the row that stops it, or
    before the first row the block pass cannot build, which ends it as an
    oracle failure at that iteration would, with the full sweep's message
    there; the rows the loop ran past it are dropped, and the final state
    and residual are the last kept row's. The blocks are stacked once, at
    the end; a ``fixed`` game's per-run constants are one row each, viewed
    by every row. One ``np.errstate(**QUIET)`` spans the loop: a diverging
    run ends in a finiteness check, not in a NumPy warning. Every
    per-player reduction is bit for bit the per-player one, so neither the
    iterates, the trace nor the stop depend on how the work is batched.
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
        trace.violations, trace.violation_counts = verify_run_bounds(trace, cfg, state.duals)
        return SolveResult("oracle-failure", state, trace, time.perf_counter() - t0,
                           0, np.inf, message=str(exc))

    x, lam, J, q = state.x, state.duals.lam, point.g_jacobians, game.quadratic
    # Data that cannot move: gamma, the Jacobian norms and J are the first ones.
    fixed = estimator.fixed
    with np.errstate(**QUIET):   # an overflowed norm is the next sweep's oracle failure
        jac_full = _jac_norms(game, J)
        jac_own = _own_jac_norms(game, J)
        # the joint row [x; lam], the objective data at its point, J's views
        z, gathers = np.concatenate([x, lam]), _jacobian_gathers(game, J, not fixed)
        obj = point.theta_grads if q is None else np.matmul(q.G, x)
    trace = SolveTrace(
        initial_L=lagrangian_values(point.theta, point.g_values, lam, rows),
        initial_feas=constraint_violation(point.g_values),
        initial_jac_norm=jac_full,
        initial_jac_own_norm=jac_own,
    )

    status, message = "max_outer", ""
    watch = _StallWatch(cfg.outer_tol)
    # raw rows, built columns, and (k, x, lam, J, L_values, obj) of the last built row
    pending, blocks, before = [], [], (0, x, lam, J, trace.initial_L, obj)
    constants, block_rows = None, 0   # a fixed game's run columns; rows per block

    def build() -> bool:
        """Build the pending rows' columns and feed them to the stall stop;
        True when the run ends at one of them: at the row that stops it, or
        before the first row the block pass cannot build, the rows past it
        dropped."""
        nonlocal pending, before, status, message
        block = _trace_rows(game, before, pending, constants, cfg.outer_tol)
        kept = len(block["k"])
        fed = kept - (status == "converged" and kept == len(pending))   # not the converged row
        stop = watch.stops({f: col[:fed] for f, col in block.items()})
        ends = stop is not None or kept < len(pending)
        if stop is not None:
            kept, status = stop + 1, "stalled-stationary"
            message = ("primal blocks pinned at a fixed point while the "
                       "multiplier drift is not decaying")
        elif kept < len(pending):   # as an oracle failure at that iteration would
            status = "oracle-failure"
            try:   # the full sweep there names the player and field
                evaluate_point(game, pending[kept][0])
            except OracleFailure as exc:
                message = str(exc)
        if kept:
            blocks.append({f: col[:kept] for f, col in block.items()})
            last = pending[kept - 1]
            before = (before[0] + kept, last[0], last[1], before[3] if fixed else last[5],
                      block["L_values"][kept - 1], last[3])
        pending = []
        return ends

    with np.errstate(**QUIET):   # a diverging run ends in a finiteness check
        for k in range(cfg.max_outer):
            try:
                if k == 0 or not fixed:
                    est = estimator.estimate(x, lam, jac_norms=jac_full)
                    gamma, _ = choose_gamma(est, penalty, cfg.gamma)
                    gamma_by_coord = game.layout.segments.repeat(gamma)
                    if fixed:
                        constants = dict(jac_norm=jac_full, jac_own_norm=jac_own, gamma=gamma,
                                         M_theta_own=est.L_theta, M_g_own=est.M_g_own)
                new, row, J = _step(game, x, lam, obj, gathers, gamma_by_coord, cfg.beta)
                x, lam, obj = row[0], row[1], row[3]
                residual, z = max_abs(new - z), new   # a NaN never converges
                if not residual < math.inf:   # name a non-finite x-derived field, else lam
                    evaluate_point(game, x)
                    for i, (a, b) in enumerate(zip(rows.bounds, rows.bounds[1:])):
                        _check_finite(lam[a:b], i, "multiplier")
                if not fixed:
                    gathers, jac_full = _jacobian_gathers(game, J, True), _jac_norms(game, J)
                    row += (J, jac_full, gamma, est.L_theta, est.M_g_own)
            except OracleFailure as exc:
                status, message = "oracle-failure", str(exc)
                break

            pending.append(row)
            if residual <= cfg.outer_tol:
                status = "converged"
                break
            block_rows = block_rows or _block_rows(row)
            if len(pending) == block_rows and build():
                break

    if pending:
        build()
    x, lam = before[1], before[2]   # the state of the last kept row
    if blocks:   # field by field: a field's blocks are freed as its column is made
        run, n_rows = constants or {}, sum(len(b["k"]) for b in blocks)
        trace.columns = {f: np.broadcast_to(run[f], (n_rows,) + run[f].shape) if f in run
                         else np.concatenate([b.pop(f) for b in blocks]) for f in list(blocks[0])}
    cols = trace.columns
    residual = max(cols["dx_inf"][-1], cols["dlambda_inf"][-1]) if len(cols["k"]) else np.inf
    state = IterateState(x, DualStack(np.zeros(rows.total), lam, lam.copy(), rows))
    trace.violations, trace.violation_counts = verify_run_bounds(trace, cfg, state.duals)
    return SolveResult(
        status=status,
        state=state,
        trace=trace,
        wall_time=time.perf_counter() - t0,
        outer_iterations=len(trace.columns["k"]),
        final_residual=float(residual),
        message=message,
    )


# ---------------------------------------------------------------------------
# Post-run invariant verification
# ---------------------------------------------------------------------------

_SLACK = 1e-9
# Most trace rows built at once by solve, and the bytes of the arrays the
# pending rows hold that size a block below it (see _block_rows).
_BOUND_ROWS = 256
_BLOCK_BYTES = 1 << 19
# Bytes of one (rows, N, n) stack of objective gradients in the trace block pass.
_STACK_BYTES = 1 << 18
# Messages kept per monitored bound; the counts cover every violation.
_KEPT_MESSAGES = 20


def _column_max(col: Array) -> Array:
    """``col.max(axis=0)`` of a trace column, taken from its one row when
    every row is a view of it (a ``fixed`` run's constant columns): the max
    of identical rows is that row."""
    return col[0] if col.strides[0] == 0 else col.max(axis=0)


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

    The row bounds are whole-array masks over the trace's columns, entry by
    entry the arithmetic of one row and player at a time. Returns the first
    messages of each bound (at most 20, in (k, player) order, by constraint
    row for ``dual-identity``; an empty list means the bound always held)
    and the number of violations of each.
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
    cols, ks, beta = trace.columns, trace.columns["k"], cfg.beta
    if not len(ks):
        return out, counts

    def report(kind: str, mask: Array, message) -> None:
        """Count the violations ``mask`` (rows by players) of one bound, and
        keep the first messages of a mask that holds any; np.argwhere keeps
        the (k, player) order."""
        counts[kind] = int(np.count_nonzero(mask))
        if counts[kind]:
            out[kind] = [f"k={ks[j]} player={i}: {message(j, i)}"
                         for j, i in np.argwhere(mask)[:_KEPT_MESSAGES]]

    L, L_x = cols["L_values"], cols["L_x_step"]
    prev_L = np.vstack([trace.initial_L, L[:-1]])
    report("decrease", L > prev_L + _SLACK,
           lambda j, i: f"L rose {prev_L[j, i]:.12g} -> {L[j, i]:.12g}")
    accepted = np.isin(cols["exit_kind"], ("descent", "true"))[:, None]
    report("x-descent", accepted & (L_x > prev_L + _SLACK), lambda j, i:
           f"accepted block update raised L {prev_L[j, i]:.12g} -> {L_x[j, i]:.12g}")
    checked = (ks >= 2)[:, None]
    dx_2, dlam_2, jac = cols["dx_2"][:, None], cols["dlam_2"], cols["jac_norm"]
    bound = np.maximum(np.vstack([trace.initial_jac_norm, jac[:-1]]), jac) / beta * dx_2 + _SLACK
    report("multiplier-coupling", checked & (dlam_2 > bound),
           lambda j, i: f"|dlam| {dlam_2[j, i]:.3e} > {bound[j, i]:.3e}")
    jac_run_max = np.maximum(trace.initial_jac_norm, _column_max(jac))
    jac_own_max = np.maximum(trace.initial_jac_own_norm, _column_max(cols["jac_own_norm"]))
    # The initial multipliers are zero, and a norm is never below zero.
    lam_run_max = cols["lam_norm2"].max(axis=0)
    C_dx = (2.0 + cols["gamma"] + _column_max(cols["M_theta_own"])
            + _column_max(cols["M_g_own"]) * lam_run_max
            + jac_own_max * jac_run_max / beta + jac_run_max) * dx_2
    pg = cols["qx"] + cols["qlam"]
    report("projected-gradient", checked & (pg > C_dx + _SLACK),
           lambda j, i: f"|pg| {pg[j, i]:.3e} > C*dx {C_dx[j, i]:.3e}")
    return out, counts
