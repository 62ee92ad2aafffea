"""Game model for N-player continuous games with coupling constraints.

A game couples ``N`` players. Player ``nu`` controls a block ``x^nu`` of the
joint strategy vector ``x``, minimizes an objective ``theta_nu(x)`` over a
projectable private set, and is additionally restricted by inequality
constraints ``g^nu(x) <= 0`` that may depend on every player's block.

All model objects are immutable after construction and safe to share across
threads. Oracles are required to be pure functions of their input vector;
this is a documented contract enforced by determinism tests rather than by
the runtime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

Array = np.ndarray


class OracleFailure(RuntimeError):
    """An oracle returned a non-finite value.

    Carries the index of the offending player so callers can report which
    subproblem misbehaved.
    """

    def __init__(self, message: str, player: int | None = None):
        super().__init__(message)
        self.player = player


class AdmissibilityError(ValueError):
    """An instance violates a structural requirement (e.g. indefinite own block)."""


# ---------------------------------------------------------------------------
# Block layout of the joint strategy vector
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockLayout:
    """Partition of the joint vector into per-player blocks.

    ``dims[i]`` is the dimension of player ``i``'s block; ``offsets[i]`` its
    starting index and ``slices[i]`` its slice. ``n`` is the total dimension.
    Offsets and slices are computed once per layout.
    """

    dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.dims) == 0:
            raise ValueError("layout needs at least one block")
        if any(d <= 0 for d in self.dims):
            raise ValueError(f"block dims must be positive, got {self.dims}")

    @property
    def n(self) -> int:
        return sum(self.dims)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        return self.segments.bounds[:-1]

    @cached_property
    def slices(self) -> tuple[slice, ...]:
        return tuple(slice(start, start + d) for start, d in zip(self.offsets, self.dims))

    @property
    def num_blocks(self) -> int:
        return len(self.dims)

    def block_slice(self, i: int) -> slice:
        if not 0 <= i < len(self.dims):
            raise IndexError(f"player index {i} out of range for {len(self.dims)} blocks")
        return self.slices[i]

    def get_block(self, x: Array, i: int) -> Array:
        """Extract player ``i``'s block of ``x``."""
        if x.shape != (self.n,):
            raise ValueError(f"expected vector of length {self.n}, got shape {x.shape}")
        return x[self.block_slice(i)]

    def set_block(self, x: Array, i: int, values: Array) -> Array:
        """Return a copy of ``x`` with player ``i``'s block overwritten."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.dims[i],):
            raise ValueError(
                f"block {i} has dimension {self.dims[i]}, got shape {values.shape}"
            )
        out = np.array(x, dtype=float, copy=True)
        out[self.block_slice(i)] = values
        return out

    @cached_property
    def segments(self) -> "Segments":
        """The blocks as :class:`Segments` of the joint vector."""
        return Segments(self.dims)

    @cached_property
    def own_entries(self) -> Array:
        """Flat indices of the diagonal blocks of an ``(N, n)`` array: row
        ``i``, columns of block ``i``. ``A.ravel()[own_entries]`` stacks every
        player's own block of its row, like the joint vector."""
        return np.concatenate([i * self.n + np.arange(s.start, s.stop)
                               for i, s in enumerate(self.slices)])


def _equal_runs(keys: Sequence) -> list[tuple[int, int]]:
    """``(start, stop)`` of each maximal run of consecutive equal ``keys``."""
    starts = [i for i in range(len(keys)) if i == 0 or keys[i] != keys[i - 1]] + [len(keys)]
    return list(zip(starts, starts[1:]))


@dataclass(frozen=True)
class Segments:
    """Consecutive per-player segments of a stacked vector: segment ``i``
    holds ``counts[i]`` entries (a player's constraint rows, or its block of
    the joint vector), and ``bounds[i]:bounds[i + 1]`` is its slice.

    The per-segment reductions take each maximal run of consecutive segments
    of one length ``w`` as a ``(..., p, w)`` view of its slice, with no
    gather, in one matmul call: bit for bit one BLAS dot or gemv per segment,
    ``a[s] @ b[s]``. An operand not in C order is copied into it first, as a
    strided dot product rounds differently; so would a segment sum
    (``np.add.reduceat``) once a segment holds two entries.
    """

    counts: tuple[int, ...]

    @cached_property
    def bounds(self) -> tuple[int, ...]:
        return tuple(accumulate(self.counts, initial=0))

    @property
    def total(self) -> int:
        return self.bounds[-1]

    @cached_property
    def nonempty(self) -> Array:
        """Whether each segment holds an entry."""
        return np.asarray(self.counts) > 0

    @cached_property
    def _runs(self) -> tuple[tuple[slice, slice, int], ...]:
        """``(players, entries, w)`` slices of each maximal run of consecutive
        segments of one nonzero length ``w``."""
        c, b = self.counts, self.bounds
        return tuple((slice(i, j), slice(b[i], b[j]), c[i]) for i, j in _equal_runs(c) if c[i])

    def repeat(self, v: Array) -> Array:
        """Per-segment values ``v`` repeated over each segment's entries."""
        return np.repeat(v, self.counts)

    def dot(self, a: Array, b: Array) -> Array:
        """``a[..., s] @ b[..., s]`` for every segment ``s`` of the last
        axis; 0.0 for an empty one."""
        a, b, lead = np.ascontiguousarray(a), np.ascontiguousarray(b), a.shape[:-1]
        out = np.zeros(lead + (len(self.counts),))
        for players, entries, w in self._runs:
            ab = np.matmul(a[..., entries].reshape(lead + (-1, 1, w)),
                           b[..., entries].reshape(lead + (-1, w, 1)))
            out[..., players] = ab.reshape(lead + (-1,))
        return out

    def norm(self, a: Array) -> Array:
        """Per-segment :func:`vec_norm`, over the last axis."""
        return np.sqrt(self.dot(a, a))

    def max_abs(self, a: Array) -> Array:
        """Per-segment :func:`max_abs`."""
        out = np.zeros(len(self.counts))
        for players, entries, w in self._runs:
            out[players] = np.abs(a[entries].reshape(-1, w)).max(axis=1)
        return out

    def matvec(self, A: Array, x: Array) -> Array:
        """``A[s] @ x`` for every segment ``s`` of the rows of ``A``, stacked:
        one gemv per segment, as the per-player product gives."""
        A, out = np.ascontiguousarray(A), np.zeros(self.total)
        for _, entries, w in self._runs:
            out[entries] = np.matmul(A[entries].reshape(-1, w, A.shape[1]), x).ravel()
        return out

    def vecmat_add(self, base: Array, a: Array, A: Array) -> Array:
        """``base[i] + A[s].T @ a[s]`` for every player ``i`` whose segment
        ``s`` of the rows of ``A`` is not empty, and ``base[i]`` otherwise."""
        a, A, out = np.ascontiguousarray(a), np.ascontiguousarray(A), base.copy()
        for players, entries, w in self._runs:
            out[players] += np.matmul(a[entries].reshape(-1, 1, w),
                                      A[entries].reshape(-1, w, A.shape[1])).reshape(-1, A.shape[1])
        return out


# ---------------------------------------------------------------------------
# Projectable private sets
# ---------------------------------------------------------------------------

_SET_KINDS = ("box", "nonneg", "simplex", "ball")


@dataclass(frozen=True)
class SimpleSet:
    """A closed convex set with a cheap Euclidean projection.

    Supported kinds:

    - ``box``: ``{v : lower <= v <= upper}`` with infinite bounds allowed,
    - ``nonneg``: the nonnegative orthant,
    - ``simplex``: the unit simplex ``{v >= 0, sum(v) = 1}``,
    - ``ball``: the nonnegative part of the Euclidean ball of given radius.
    """

    kind: str
    dim: int
    lower: Array | None = None
    upper: Array | None = None
    radius: float = 0.0

    def __post_init__(self):
        if self.kind not in _SET_KINDS:
            raise ValueError(f"unknown set kind {self.kind!r}")
        if self.dim <= 0:
            raise ValueError("set dimension must be positive")
        if self.kind == "box":
            lo, up = self.lower, self.upper
            if lo is None or up is None or lo.shape != (self.dim,) or up.shape != (self.dim,):
                raise ValueError("box needs lower/upper bounds of the set dimension")
            if np.any(lo > up):
                raise ValueError("box requires lower <= upper componentwise")
        if self.kind == "ball" and not self.radius > 0:
            raise ValueError("ball radius must be positive")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def box(lower: Sequence[float] | Array, upper: Sequence[float] | Array) -> "SimpleSet":
        lo = np.asarray(lower, dtype=float)
        up = np.asarray(upper, dtype=float)
        return SimpleSet("box", lo.shape[0], lower=lo, upper=up)

    @staticmethod
    def free(dim: int) -> "SimpleSet":
        return SimpleSet.box(np.full(dim, -np.inf), np.full(dim, np.inf))

    @staticmethod
    def nonneg(dim: int) -> "SimpleSet":
        return SimpleSet("nonneg", dim)

    @staticmethod
    def simplex(dim: int) -> "SimpleSet":
        return SimpleSet("simplex", dim)

    @staticmethod
    def ball(dim: int, radius: float) -> "SimpleSet":
        return SimpleSet("ball", dim, radius=float(radius))

    # -- projection ---------------------------------------------------------

    def project(self, v: Array) -> Array:
        """Euclidean projection of ``v`` onto the set."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise ValueError(f"cannot project shape {v.shape} onto set of dimension {self.dim}")
        if self.kind == "box":
            return np.clip(v, self.lower, self.upper)
        if self.kind == "nonneg":
            return np.maximum(v, 0.0)
        if self.kind == "simplex":
            return project_simplex(v)
        # Nonnegative ball: the orthant clamp, then the radial scale. For a
        # convex cone and a ball centred at the origin, that composition is
        # the projection onto their intersection.
        q = np.maximum(v, 0.0)
        norm = float(np.linalg.norm(q))
        return q * (self.radius / norm) if norm > self.radius else q

    def contains(self, v: Array, tol: float = 1e-9) -> bool:
        return bool(np.linalg.norm(self.project(v) - v) <= tol)

    def sample_interior(self, rng: np.random.Generator, scale: float = 1.0) -> Array:
        """Draw a point safely inside the set (used by validation sampling)."""
        raw = rng.standard_normal(self.dim) * scale
        if self.kind == "box":
            lo = np.where(np.isfinite(self.lower), self.lower, -2.0 * scale)
            up = np.where(np.isfinite(self.upper), self.upper, 2.0 * scale)
            width = up - lo
            pad = np.minimum(0.05 * width, 0.1)
            u = rng.uniform(size=self.dim)
            return lo + pad + u * np.maximum(width - 2 * pad, 0.0)
        if self.kind == "nonneg":
            return np.abs(raw) + 0.1
        if self.kind == "simplex":
            p = self.project(np.abs(raw))
            return 0.9 * p + 0.1 / self.dim
        p = self.project(np.abs(raw))
        return 0.9 * p


def project_simplex(v: Array) -> Array:
    """Project onto the unit simplex via the sorting algorithm.

    Solves ``min ||w - v||^2`` subject to ``w >= 0`` and ``sum(w) = 1``.
    """
    n = v.shape[0]
    u = np.sort(v)[::-1]
    cssv = np.cumsum(u)
    rho_candidates = np.nonzero(u * np.arange(1, n + 1) > (cssv - 1.0))[0]
    rho = rho_candidates[-1]
    theta = (cssv[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


# ---------------------------------------------------------------------------
# Players and games
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlayerProblem:
    """One player's optimization data.

    Oracles take the full joint vector ``x`` of length ``n``:

    - ``objective(x) -> float``
    - ``gradient(x) -> (n,)`` full gradient of the objective,
    - ``constraints(x) -> (m,)`` values of ``g(x)`` with the convention
      ``g <= 0`` feasible,
    - ``constraint_jacobian(x) -> (m, n)`` rows are constraint gradients.

    Full gradients (not just the own block) are required because the
    surrogate-model machinery needs cross-block derivative information.
    A player carries no structure beyond its oracles: a quadratic game keeps
    its data in one :class:`QuadraticStack` on the :class:`GameInstance`.
    """

    objective: Callable[[Array], float]
    gradient: Callable[[Array], Array]
    constraints: Callable[[Array], Array]
    constraint_jacobian: Callable[[Array], Array]
    private_set: SimpleSet
    m: int

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("constraint count must be nonnegative")


@dataclass(frozen=True)
class QuadraticStack:
    """The one record of a quadratic game's structure: player ``i``
    minimizes ``0.5 x'Q_i x + b[i]'x`` under constraints whose affine parts
    are the rows ``C x + D`` of its segment of the game's constraint rows.

    The ``Q_i`` are stored by band, as a Jacobi sweep reads them: row ``r``
    of ``G`` is row ``r`` of the ``Q_i`` of the player owning entry ``r``,
    so every player's own rows sit in one ``(n, n)`` matrix, and ``bands``
    holds every player's own columns ``Q_i[:, sl_i]``, one C-ordered
    ``(p, n, w)`` array per run of ``p`` consecutive players with blocks of
    width ``w`` (the runs of ``layout.segments``). That is the whole of a
    ``Q_i`` whose entries outside its own rows and columns are all +0.0, as
    in a band-coupled game; any other ``Q_i`` is also kept whole, the
    players ``dense_players`` stacked in one ``(k, n, n)`` array ``dense``.
    :meth:`from_dense` builds the stack and :meth:`products` takes every
    ``Q_i @ x`` from it.

    ``hessians`` maps each curved player (one with a nonzero constraint
    Hessian) to its ``(m, n, n)`` constraint Hessians; affine players have no
    entry. The players' oracles read this stack, so it holds no second copy
    of their data, and a curved player's constraint values and Jacobians
    come from its oracles.
    """

    layout: BlockLayout
    G: Array                      # (n, n) own rows
    bands: tuple[Array, ...]      # (p, n, w) own columns, per run of block width w
    b: Array                      # (N, n)
    C: Array                      # (M, n)
    D: Array                      # (M,)
    dense_players: tuple[int, ...]
    dense: Array                  # (k, n, n) whole Q_i of dense_players
    hessians: dict[int, Array] = field(default_factory=dict)

    @staticmethod
    def from_dense(layout: BlockLayout, Qs: Sequence[Array], b: Array, C: Array, D: Array,
                   hessians: dict[int, Array]) -> "QuadraticStack":
        """The stack of the ``(n, n)`` matrices ``Qs``, copied into bands."""
        n, slices = layout.n, layout.slices
        G, dense = np.empty((n, n)), []
        for i, (Q, sl) in enumerate(zip(Qs, slices)):
            G[sl] = Q[sl]
            off = np.array(Q, dtype=float)
            off[sl] = off[:, sl] = 0.0
            if off.view(np.uint64).any():   # a nonzero, a -0.0 or a NaN off the band
                dense.append(i)
        bands = tuple(np.stack([Qs[i][:, slices[i]] for i in range(players.start, players.stop)])
                      for players, _, _ in layout.segments._runs)
        return QuadraticStack(layout, G, bands, b, C, D, tuple(dense),
                              np.array([Qs[i] for i in dense], dtype=float).reshape(-1, n, n),
                              hessians)

    @cached_property
    def jacobian(self) -> Array:
        """The constraint Jacobian of the affine players, ``C + 0.0``
        (turning a -0.0 into +0.0, as their oracles do)."""
        return self.C + 0.0

    @cached_property
    def _runs(self) -> tuple[tuple[slice, int, Array], ...]:
        """``(entries, w, band)`` of each run of ``bands``."""
        return tuple((entries, w, K) for (_, entries, w), K in
                     zip(self.layout.segments._runs, self.bands))

    @cached_property
    def _player_bands(self) -> tuple[Array, ...]:
        """Each player's band as a ``(1, n, w)`` view."""
        return tuple(K[k:k + 1] for K in self.bands for k in range(len(K)))

    def products(self, x: Array, player: int | None = None) -> Array:
        """``Q_i @ x`` of every player, stacked ``(N, n)``, or of ``player``
        alone, ``(1, n)``: each band times its player's block (one gemv per
        player, batched per run), its own entries overwritten by ``G @ x``,
        and the dense players' rows by one batched ``dense @ x`` (all that
        is taken when every player is dense).

        ``G @ x`` is one gemv of the dense shape, so the own entries, which
        are all the iterates read, are bit for bit the dense ``Q_i @ x``'s;
        the other entries sum only the band's ``w`` terms and may round
        differently. The batched sweep and the players' oracles both take
        their products from here, so they agree bit for bit.
        """
        if player is None:
            if len(self.dense_players) == self.layout.num_blocks:
                return np.matmul(self.dense, x)
            runs, own, own_rows = self._runs, self.layout.own_entries, self.G @ x
        elif player in self.dense_players:
            return (self.dense[self.dense_players.index(player)] @ x)[None]
        else:
            sl, K = self.layout.slices[player], self._player_bands[player]
            runs, own, own_rows = ((sl, K.shape[2], K),), sl, (self.G @ x)[sl]
        parts = [np.matmul(K, x[entries].reshape(-1, w, 1)) for entries, w, K in runs]
        out = (parts[0] if len(parts) == 1 else np.concatenate(parts)).reshape(-1, self.layout.n)
        out.ravel()[own] = own_rows
        if player is None and self.dense_players:
            out[self.dense_players, :] = np.matmul(self.dense, x)
        return out


@dataclass(frozen=True)
class GameInstance:
    """An N-player game: players, block layout, and a display name.

    ``quadratic`` holds the stacked data of a game built from a quadratic
    spec (:class:`QuadraticStack`, attached by
    :meth:`~gnepsolve.library.QuadraticGnepSpec.to_game`); the oracle sweep
    then runs as a few whole-array products instead of one oracle call per
    player. It is not a constructor argument: the stack must be the very
    data the players' oracles read, or the solver and the certifier would
    judge different games. A game built directly has none: the solver then
    samples its smoothness constants, and the best-response reference takes
    its model Hessians by finite differences.
    """

    players: tuple[PlayerProblem, ...]
    layout: BlockLayout
    name: str = "game"
    quadratic: QuadraticStack | None = field(default=None, init=False, repr=False,
                                             compare=False)

    def __post_init__(self):
        if len(self.players) == 0:
            raise ValueError("game needs at least one player")
        if len(self.players) != self.layout.num_blocks:
            raise ValueError("layout block count must match number of players")
        for i, p in enumerate(self.players):
            if p.private_set.dim != self.layout.dims[i]:
                raise ValueError(f"player {i} private set dimension mismatch")

    @property
    def num_players(self) -> int:
        return len(self.players)

    @property
    def n(self) -> int:
        return self.layout.n

    @cached_property
    def rows(self) -> Segments:
        """The players' segments of the stacked constraint rows."""
        return Segments(tuple(p.m for p in self.players))

    @property
    def total_constraints(self) -> int:
        return self.rows.total

    @cached_property
    def constrained_runs(self) -> tuple[tuple[slice, slice, slice], ...]:
        """``(players, rows, cols)`` slices of each maximal run of consecutive
        players with constraints and one shape (row count, block width): the
        players, their constraint rows and their blocks; see :func:`own_columns`."""
        m, b = self.rows, self.layout.segments
        return tuple((slice(i, j), slice(m.bounds[i], m.bounds[j]), slice(b.bounds[i], b.bounds[j]))
                     for i, j in _equal_runs(list(zip(m.counts, b.counts))) if m.counts[i])

    @cached_property
    def _clip_bounds(self) -> tuple[Array, Array, tuple[int, ...]]:
        """Stacked bounds of the box and nonneg blocks (other blocks unbounded)
        and the indices of the simplex and ball blocks."""
        lower = np.full(self.n, -np.inf)
        upper = np.full(self.n, np.inf)
        rest = []
        for i, p in enumerate(self.players):
            s, sl = p.private_set, self.layout.slices[i]
            if s.kind == "box":
                lower[sl], upper[sl] = s.lower, s.upper
            elif s.kind == "nonneg":
                lower[sl] = 0.0
            else:
                rest.append(i)
        return lower, upper, tuple(rest)

    def project_private(self, x: Array) -> Array:
        """Project each player's block onto its private set.

        Box and nonneg blocks are projected by one clip over stacked bounds,
        bit for bit what :meth:`SimpleSet.project` gives block by block;
        simplex and ball blocks are projected one at a time.
        """
        x = np.asarray(x, dtype=float)
        lower, upper, rest = self._clip_bounds
        out = np.clip(x, lower, upper)
        for i in rest:
            sl = self.layout.slices[i]
            out[sl] = self.players[i].private_set.project(x[sl])
        return out

    def constant_jacobian(self, i: int) -> bool:
        """Player ``i``'s constraint Jacobian does not depend on ``x``: the
        game has stacked quadratic data and the player is not curved."""
        return self.quadratic is not None and i not in self.quadratic.hessians

    def feasibility_violation(self, x: Array) -> float:
        """Largest positive constraint value over all players; 0 if feasible."""
        return constraint_violation(stack_rows([p.constraints(x) for p in self.players if p.m]))


def _attach_quadratic_stack(game: GameInstance, q: QuadraticStack) -> GameInstance:
    """``game`` with its players' quadratic data ``q`` attached; the
    players' oracles must read this very stack."""
    N, n, M = game.num_players, game.n, game.total_constraints
    if (q.layout != game.layout
            or (q.G.shape, q.b.shape, q.C.shape, q.D.shape) != ((n, n), (N, n), (M, n), (M,))):
        raise ValueError("stacked quadratic data does not match the players")
    object.__setattr__(game, "quadratic", q)
    return game


def own_columns(J: Array, run: tuple[slice, slice, slice]) -> Array:
    """The own-block columns ``J[s, sl]`` of the players of ``run`` (one of
    :attr:`GameInstance.constrained_runs`) as one read-only ``(p, w, d)`` view
    of the contiguous ``J``, no copy: each block keeps ``J``'s row stride, so
    a product with it rounds as one with ``J[s, sl]`` does."""
    players, rows, cols = run
    p, (s0, s1) = players.stop - players.start, J.strides
    w, d = (rows.stop - rows.start) // p, (cols.stop - cols.start) // p
    return np.ndarray((p, w, d), J.dtype, memoryview(J).toreadonly(),
                      rows.start * s0 + cols.start * s1, (w * s0 + d * s1, s0, s1))


def constraint_violation(g: Array) -> float:
    """Largest positive entry of the constraint values ``g``; 0 when every
    constraint holds. A NaN entry propagates."""
    return float(np.maximum(g, 0.0).max(initial=0.0))


def stack_rows(blocks: Sequence[Array]) -> Array:
    """Per-player vectors stacked into one float vector."""
    return np.concatenate([np.asarray(b, dtype=float).ravel() for b in blocks] or [np.zeros(0)])


def row_dots(A: Array, x: Array) -> Array:
    """``A[i] @ x`` for every row of the 2-D ``A``: bit for bit the per-row
    dot product, which ``A @ x`` (one gemv) is not."""
    return np.matmul(A[:, None, :], x)[:, 0]


def vec_norm(v: Array) -> float:
    """Euclidean norm of a 1-D float vector, bit for bit ``np.linalg.norm(v)``
    without its per-call overhead; a strided view is copied first, as there,
    because its dot product may round differently."""
    v = v.ravel()
    return math.sqrt(v.dot(v))


def max_abs(v: Array) -> float:
    """Largest absolute entry of ``v``, 0.0 when empty: the ufunc reduction
    that ``np.max(np.abs(v), initial=0.0)`` ends in, called directly."""
    return float(np.maximum.reduce(np.abs(v), axis=None, initial=0.0))


@dataclass
class PlayerDualState:
    """Per-player perturbation variables and multipliers of the regularized
    Lagrangian, as a result document and the diagnostics hold them.

    ``lam`` is the multiplier of the relaxed inequality constraints and must
    stay nonnegative; ``mu`` is the multiplier of the perturbation equality.
    :func:`~gnepsolve.solver.solve` carries ``lam`` alone and exports
    ``z = 0`` and ``mu = lam``; a state read from a document or built for a
    diagnostic may hold any ``z`` and ``mu``.
    """

    z: Array
    lam: Array
    mu: Array

    @staticmethod
    def zeros(m: int) -> "PlayerDualState":
        return PlayerDualState(np.zeros(m), np.zeros(m), np.zeros(m))


@dataclass(frozen=True)
class DualStack:
    """Every player's dual state stacked over the constraint rows ``rows``:
    the duals of a solve's final state, of a result document, or of a state
    handed to the diagnostics.

    Indexing gives player ``i``'s :class:`PlayerDualState` as views of the
    stacked arrays, so a stack reads like a list of dual states: an in-place
    write to a player's ``lam`` (``stack[i].lam += 1``) changes the stack,
    rebinding the attribute does not.
    """

    z: Array
    lam: Array
    mu: Array
    rows: Segments

    @staticmethod
    def zeros(rows: Segments) -> "DualStack":
        return DualStack(np.zeros(rows.total), np.zeros(rows.total), np.zeros(rows.total), rows)

    @staticmethod
    def of(duals: Sequence[PlayerDualState], rows: Segments | None = None) -> "DualStack":
        """Per-player dual states stacked over the rows ``rows`` (by default
        the players' multiplier lengths)."""
        if rows is None:
            rows = Segments(tuple(np.asarray(d.lam).shape[0] for d in duals))
        return DualStack(stack_rows([d.z for d in duals]), stack_rows([d.lam for d in duals]),
                         stack_rows([d.mu for d in duals]), rows)

    def __len__(self) -> int:
        return len(self.rows.counts)

    def __getitem__(self, i: int) -> PlayerDualState:
        if not 0 <= i < len(self):
            raise IndexError(f"player index {i} out of range for {len(self)} players")
        a, b = self.rows.bounds[i], self.rows.bounds[i + 1]
        return PlayerDualState(self.z[a:b], self.lam[a:b], self.mu[a:b])

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def copy(self) -> "DualStack":
        return DualStack(self.z.copy(), self.lam.copy(), self.mu.copy(), self.rows)


@dataclass
class IterateState:
    """Joint primal point plus every player's dual state, stacked over the
    game's constraint rows."""

    x: Array
    duals: DualStack

    def copy(self) -> "IterateState":
        return IterateState(self.x.copy(), self.duals.copy())


def initial_state(game: GameInstance, x0: Array) -> IterateState:
    """Build the starting state: ``x0`` projected onto the private sets, zero duals."""
    x = game.project_private(np.asarray(x0, dtype=float))
    return IterateState(x, DualStack.zeros(game.rows))


# ---------------------------------------------------------------------------
# Finite differences and instance validation
# ---------------------------------------------------------------------------

FD_STEP = 1e-6


def central_gradient(f: Callable[[Array], float], x: Array, h: float = FD_STEP) -> Array:
    """Central finite-difference gradient of a scalar function."""
    g = np.zeros_like(x, dtype=float)
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def central_jacobian(f: Callable[[Array], Array], x: Array, m: int, h: float = FD_STEP) -> Array:
    """Central finite-difference Jacobian of a vector function, shape (m, n)."""
    J = np.zeros((m, x.shape[0]))
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = h
        J[:, i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return J


@dataclass
class ValidationReport:
    """Outcome of sampling-based instance checks."""

    gradient_error: float
    jacobian_error: float
    convexity_violation: float
    all_finite: bool
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.all_finite and self.gradient_error <= 1e-6 and self.convexity_violation <= 1e-9


def _rel_err(approx: Array, exact: Array) -> float:
    denom = max(1.0, float(np.max(np.abs(exact), initial=0.0)))
    return float(np.max(np.abs(approx - exact), initial=0.0)) / denom


def validate_instance(game: GameInstance, samples: int = 100, seed: int = 0) -> ValidationReport:
    """Check oracle consistency on sampled points.

    Compares analytic gradients/Jacobians against central finite differences,
    tests midpoint convexity of objectives and constraints along random
    own-block segments, and flags non-finite oracle output. Oracle failures
    are reported, not raised.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    grad_err = 0.0
    jac_err = 0.0
    conv_viol = 0.0
    finite = True
    notes: list[str] = []

    for _ in range(samples):
        x = np.concatenate([p.private_set.sample_interior(rng) for p in game.players])
        for i, p in enumerate(game.players):
            try:
                ana_g = np.asarray(p.gradient(x), dtype=float)
                val = float(p.objective(x))
            except FloatingPointError:
                finite = False
                notes.append(f"player {i}: objective oracle raised at sampled point")
                continue
            if not (np.all(np.isfinite(ana_g)) and np.isfinite(val)):
                finite = False
                notes.append(f"player {i}: non-finite objective oracle output")
                continue
            with np.errstate(all="ignore"):
                fd_g = central_gradient(p.objective, x)
            if np.all(np.isfinite(fd_g)):
                grad_err = max(grad_err, _rel_err(fd_g, ana_g))
            else:
                finite = False
                notes.append(f"player {i}: non-finite objective near sampled point")
            if p.m:
                gv = np.asarray(p.constraints(x), dtype=float)
                J = np.asarray(p.constraint_jacobian(x), dtype=float)
                if not (np.all(np.isfinite(gv)) and np.all(np.isfinite(J))):
                    finite = False
                    notes.append(f"player {i}: non-finite constraint oracle output")
                    continue
                with np.errstate(all="ignore"):
                    fd_J = central_jacobian(p.constraints, x, p.m)
                if np.all(np.isfinite(fd_J)):
                    jac_err = max(jac_err, _rel_err(fd_J, J))
                else:
                    finite = False
                    notes.append(f"player {i}: non-finite constraint near sampled point")

        # Midpoint convexity along a random own-block segment for each player.
        for i, p in enumerate(game.players):
            a_block = p.private_set.sample_interior(rng)
            b_block = p.private_set.sample_interior(rng)
            xa = game.layout.set_block(x, i, a_block)
            xb = game.layout.set_block(x, i, b_block)
            xm = game.layout.set_block(x, i, 0.5 * (a_block + b_block))
            try:
                fa, fb, fm = p.objective(xa), p.objective(xb), p.objective(xm)
            except FloatingPointError:
                finite = False
                continue
            if np.isfinite(fa) and np.isfinite(fb) and np.isfinite(fm):
                conv_viol = max(conv_viol, fm - 0.5 * (fa + fb))
            else:
                finite = False
                notes.append(f"player {i}: non-finite objective along segment")
            if p.m:
                ga, gb, gm = p.constraints(xa), p.constraints(xb), p.constraints(xm)
                if np.all(np.isfinite(ga)) and np.all(np.isfinite(gb)) and np.all(np.isfinite(gm)):
                    conv_viol = max(conv_viol, float(np.max(gm - 0.5 * (ga + gb))))
                else:
                    finite = False
                    notes.append(f"player {i}: non-finite constraint along segment")

    return ValidationReport(grad_err, jac_err, conv_viol, finite, notes)
