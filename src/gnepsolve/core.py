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

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

Array = np.ndarray
_ZERO = np.array(0.0)   # 0-d: NumPy converts a Python float operand on every ufunc call


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

    @cached_property
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


def run_matvec(runs: Sequence[Array], x: Array) -> Array:
    """``A[s] @ x`` for every segment ``s`` of the rows of ``A``, stacked,
    from its :meth:`Segments.row_runs` ``runs``: one gemv per segment, as
    the per-player product gives, batched per run, and the runs' products
    concatenated only when there are several (the runs hold every row)."""
    if len(runs) == 1:
        return np.matmul(runs[0], x).ravel()
    return np.concatenate([np.matmul(B, x).ravel() for B in runs] or [np.zeros(0)])


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
    def _count_array(self) -> Array:
        """``counts`` as an array, made once."""
        return np.asarray(self.counts)

    @cached_property
    def nonempty(self) -> Array:
        """Whether each segment holds an entry."""
        return self._count_array > 0

    @cached_property
    def unit(self) -> bool:   # every segment holds one entry
        return set(self.counts) == {1}

    @cached_property
    def _runs(self) -> tuple[tuple[slice, slice, int], ...]:
        """``(players, entries, w)`` slices of each maximal run of consecutive
        segments of one nonzero length ``w``."""
        c, b = self.counts, self.bounds
        return tuple((slice(i, j), slice(b[i], b[j]), c[i]) for i, j in _equal_runs(c) if c[i])

    def repeat(self, v: Array) -> Array:
        """Per-segment values ``v`` (an array) repeated over each segment's
        entries."""
        return v.repeat(self._count_array)

    def dot(self, a: Array, b: Array) -> Array:
        """``a[..., s] @ b[..., s]`` for every segment ``s`` of the last axis; 0.0
        for an empty one, and one product summed from +0.0 (never -0.0) for one entry."""
        if self.unit:
            return a * b + _ZERO
        a, b, lead = np.ascontiguousarray(a), np.ascontiguousarray(b), a.shape[:-1]
        out = np.zeros(lead + (len(self.counts),))
        for players, entries, w in self._runs:
            np.matmul(a[..., entries].reshape(lead + (-1, 1, w)),
                      b[..., entries].reshape(lead + (-1, w, 1)), out=out[..., players, None, None])
        return out

    def norm(self, a: Array) -> Array:
        """Per-segment Euclidean norm, over the last axis."""
        return np.sqrt(self.dot(a, a))

    def max_abs(self, a: Array) -> Array:
        """Per-segment :func:`max_abs`, over the last axis."""
        lead = a.shape[:-1]
        out = np.zeros(lead + (len(self.counts),))
        for players, entries, w in self._runs:
            out[..., players] = np.abs(a[..., entries].reshape(lead + (-1, w))).max(axis=-1)
        return out

    def row_runs(self, A: Array) -> tuple[Array, ...]:
        """The segments of the rows of ``A`` as one ``(p, w, d)`` array per
        run, views of ``A`` in C order (copied into it first if it is not),
        for :func:`run_matvec`."""
        A = np.ascontiguousarray(A)
        return tuple(A[entries].reshape(-1, w, A.shape[1]) for _, entries, w in self._runs)

    def vecmat_add(self, base: Array, a: Array, A: Array) -> Array:
        """Add ``A[s].T @ a[s]`` to ``base[i]`` in place for every player ``i``
        with a nonempty segment ``s`` of the rows of ``A``, over the leading axes
        of ``a`` and ``base`` (``A`` shared or stacked along them); returns ``base``."""
        a, A, lead, d = np.ascontiguousarray(a), np.ascontiguousarray(A), a.shape[:-1], A.shape[-1]
        for players, entries, w in self._runs:
            base[..., players, :] += np.matmul(
                a[..., entries].reshape(lead + (-1, 1, w)),
                A[..., entries, :].reshape(A.shape[:-2] + (-1, w, d))).reshape(lead + (-1, d))
        return base


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
            if not np.all(lo <= up):   # a NaN bound fails the comparison
                raise ValueError("box requires lower <= upper componentwise, no NaN bound")
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

    def contains(self, v: Array) -> bool:
        """Whether ``v`` lies within 1e-9 of its projection, in the 2-norm."""
        return bool(np.linalg.norm(self.project(v) - v) <= 1e-9)

    def sample_interior(self, rng: np.random.Generator) -> Array:
        """Draw a point safely inside the set (used by validation sampling)."""
        raw = rng.standard_normal(self.dim)
        if self.kind == "box":
            lo = np.where(np.isfinite(self.lower), self.lower, -2.0)
            up = np.where(np.isfinite(self.upper), self.upper, 2.0)
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
    candidates = u * np.arange(1, n + 1) > (cssv - 1.0)
    # The largest entry always qualifies (u > u - 1), though a huge or
    # non-finite one fails the rounded test: a non-finite v gives NaN entries.
    candidates[0] = True
    rho = np.nonzero(candidates)[0][-1]
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
    its data in one :class:`QuadraticStack` on the :class:`GameInstance`, and
    a game that evaluates every player at once keeps that in its
    ``batched_oracle``, whose rows the players' oracles return.
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
    :meth:`~gnepsolve.library.QuadraticGnepSpec.to_game` builds the stack
    from its players' bands, which hold ``Q_i`` in this form, and
    :meth:`products` takes every ``Q_i @ x`` from it.

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

    @cached_property
    def jacobian(self) -> Array:
        """The constraint Jacobian of the affine players, ``C + 0.0``
        (turning a -0.0 into +0.0, as their oracles do)."""
        return self.C + 0.0

    @cached_property
    def affine_offset(self) -> Array:
        """``D + 0.0``: the affine rows ``C x + affine_offset`` are bit for bit
        ``C x + 0.0 + D``, one add fewer (adding +0.0 only turns a -0.0 into
        +0.0, and a zero sum rounds to +0.0 either way)."""
        return self.D + 0.0

    @cached_property
    def _runs(self) -> tuple[tuple[slice, int, Array], ...]:
        """``(entries, w, band)`` of each run of ``bands``."""
        return tuple((entries, w, K) for (_, entries, w), K in
                     zip(self.layout.segments._runs, self.bands))

    @cached_property
    def _player_bands(self) -> tuple[Array, ...]:
        """Each player's band as a ``(1, n, w)`` view."""
        return tuple(K[k:k + 1] for K in self.bands for k in range(len(K)))

    @cached_property
    def smoothness(self) -> tuple[Array, dict[int, Array], Array]:
        """The exact smoothness constants, computed once and read-only: every
        ``||Q_i||_2`` (:func:`objective_norms`), each curved player's
        constraint Hessian norms, and every player's Jacobian-growth bound
        over a box, ``||dJ||_F <= sqrt(sum_j ||A_j||^2 supp_j) r`` with
        ``supp_j`` the support size of ``A_j`` (zero for an affine player)."""
        hessian_norms, growth = {}, np.zeros(self.layout.num_blocks)
        for i, A in self.hessians.items():
            a_norms = hessian_norms[i] = spectral_norms(A)
            supp = np.array([int(np.count_nonzero(np.any(a, axis=0))) for a in A])
            growth[i] = float(np.sqrt(np.sum(a_norms ** 2 * np.maximum(supp, 1))))
        L_theta = objective_norms(self)
        for a in (L_theta, growth, *hessian_norms.values()):
            a.setflags(write=False)
        return L_theta, hessian_norms, growth

    @cached_property
    def b_own(self) -> Array:
        """Every player's own block of its ``b`` row, stacked like ``x``."""
        return self.b.ravel()[self.layout.own_entries]

    def products(self, x: Array, player: int | None = None,
                 own_rows: Array | None = None) -> Array:
        """``Q_i @ x`` of every player, stacked ``(..., N, n)`` over any
        leading axes of ``x``, or of ``player`` alone at one point,
        ``(1, n)``: each band times its player's block (one gemv per player,
        batched per run), its own entries overwritten by ``G @ x`` (or by
        ``own_rows``, a caller's ``G @ x`` at every point), and the dense
        players' rows by one batched ``dense @ x``. Each point's products
        are bit for bit those of a call at that point alone: every gemv
        keeps its shape and strides.

        ``G @ x`` is one gemv of the dense shape, so the own entries, which
        are all the iterates read, are bit for bit the dense ``Q_i @ x``'s;
        the other entries sum only the band's ``w`` terms and may round
        differently. The batched sweep and the players' oracles both take
        their products from here, so they agree bit for bit.
        """
        lead = x.shape[:-1]
        if player is None:
            runs, own = self._runs, self.layout.own_entries
            if own_rows is None:
                own_rows = np.matmul(self.G, x[..., None])[..., 0]
        elif player in self.dense_players:
            return (self.dense[self.dense_players.index(player)] @ x)[None]
        else:
            sl, K = self.layout.slices[player], self._player_bands[player]
            runs, own, own_rows = ((sl, K.shape[2], K),), sl, (self.G @ x)[sl]
        parts = [np.matmul(K, x[..., entries].reshape(lead + (-1, w, 1))) for entries, w, K in runs]
        out = (parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-3)).reshape(
            lead + (-1, self.layout.n))
        out.reshape(lead + (-1,))[..., own] = own_rows
        if player is None and self.dense_players:
            out[..., self.dense_players, :] = np.matmul(self.dense, x[..., None, :, None])[..., 0]
        return out


def spectral_norms(mats: Array) -> Array:
    """Largest singular value of each matrix of the stack ``mats`` (..., w, d): a
    lone row's or column's 2-norm, else the root of the top eigenvalue of the
    smaller Gram matrix (exact: power iteration is slow on clustered ones). Bit
    for bit one Gram and ``eigvalsh`` per matrix with the same strides."""
    lead, (w, d) = mats.shape[:-2], mats.shape[-2:]
    if min(w, d) == 1:   # a 1x1 Gram is its own eigenvalue: one batched dot, no eigvalsh
        return row_norms(mats.reshape(lead + (w * d,)))
    work = mats if w <= d else np.swapaxes(mats, -1, -2)
    top = np.linalg.eigvalsh(np.matmul(work, np.swapaxes(work, -1, -2))).max(axis=-1)
    return np.sqrt(top, out=np.zeros(lead), where=top > 0.0)   # a NaN or negative top is 0


def objective_norms(q: QuadraticStack) -> Array:
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


# Every player's objective values (N,), gradients (N, n), constraint values
# (M,) and Jacobians (M, n) at one joint point, stacked over players. Power's
# sweep also takes a stack of points, its fields then led by the stack's
# axes (the smoothness sampler sweeps its point pairs so); the sweep of
# stacked quadratic data (``library._stacked_sweep``) takes one point, as
# games with exact smoothness constants are never sampled.
Sweep = Callable[[Array], tuple[Array, Array, Array, Array]]


@dataclass(frozen=True)
class GameInstance:
    """An N-player game: players, block layout, and a display name.

    ``batched_oracle`` evaluates every player at one joint point at once
    (a :data:`Sweep`, unchecked); ``None`` means one oracle call per player
    in turn. The built-in generators attach one: a game built from a
    quadratic spec (:meth:`~gnepsolve.library.QuadraticGnepSpec.to_game`)
    takes a few whole-array products of its stacked data, and ``power``
    (:func:`~gnepsolve.library.gen_power_allocation`) its rate terms for
    every link at once. ``quadratic`` holds the stacked data of a quadratic
    spec (:class:`QuadraticStack`). Neither is a constructor argument: the
    players' oracles must read the very same data and computation, or the
    solver and the certifier would judge different games. A game built
    directly has neither: its sweep calls each player's oracles in turn, the
    solver samples its smoothness constants, and the best-response reference
    takes its model Hessians by finite differences.
    """

    players: tuple[PlayerProblem, ...]
    layout: BlockLayout
    name: str = "game"
    quadratic: QuadraticStack | None = field(default=None, init=False, repr=False,
                                             compare=False)
    batched_oracle: Sweep | None = field(default=None, init=False, repr=False, compare=False)

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
    def own_gathers(self) -> tuple[tuple[slice, slice | None, int, Array], ...]:
        """``(rows, cols, p, own)`` of each run of :attr:`constrained_runs`:
        its constraint rows and blocks (``None`` when they are every block),
        its ``p`` players, and the flat indices of their own-block entries in
        a ``(p, n)`` array of their gradient rows."""
        n, own = self.n, self.layout.own_entries
        return tuple((rows, None if cols.stop - cols.start == n else cols,
                      players.stop - players.start, own[cols] - players.start * n)
                     for players, rows, cols in self.constrained_runs)

    @cached_property
    def _affine_rows(self) -> tuple[Array, ...]:
        """The stacked quadratic data's ``C`` as one ``(p, w, n)`` view per
        run of :attr:`rows` (:meth:`Segments.row_runs`)."""
        return self.rows.row_runs(self.quadratic.C)

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

    def project_private(self, x: Array, out: Array | None = None) -> Array:
        """Project each player's block onto its private set, over any leading
        axes, into ``out`` if given.

        Box and nonneg blocks are projected by one clip over stacked bounds,
        bit for bit what :meth:`SimpleSet.project` gives block by block;
        simplex and ball blocks are projected one at a time, row by row.
        """
        x = np.asarray(x, dtype=float)
        lower, upper, rest = self._clip_bounds
        if x.ndim > 1:   # broadcast (stride-0) bounds take a clip loop that keeps -0.0
            lower, upper = (np.tile(b, x.shape[:-1] + (1,)) for b in (lower, upper))
        out = x.clip(lower, upper, out=out)
        for i in rest:
            sl, project = self.layout.slices[i], self.players[i].private_set.project
            for row in np.ndindex(x.shape[:-1]):
                out[row + (sl,)] = project(x[row + (sl,)])
        return out

    def constant_jacobian(self, i: int) -> bool:
        """Player ``i``'s constraint Jacobian does not depend on ``x``: the
        game has stacked quadratic data and the player is not curved."""
        return self.quadratic is not None and i not in self.quadratic.hessians


def _attach_quadratic_stack(game: GameInstance, q: QuadraticStack) -> GameInstance:
    """``game`` with its players' quadratic data ``q`` attached; the
    players' oracles must read this very stack."""
    N, n, M = game.num_players, game.n, game.total_constraints
    if (q.layout != game.layout
            or (q.G.shape, q.b.shape, q.C.shape, q.D.shape) != ((n, n), (N, n), (M, n), (M,))):
        raise ValueError("stacked quadratic data does not match the players")
    object.__setattr__(game, "quadratic", q)
    return game


def quadratic_constraints(game: GameInstance, x: Array) -> tuple[Array, Array]:
    """Constraint values and Jacobians at ``x`` of a game with stacked
    quadratic data: the affine rows ``C x + 0.0 + D`` (one gemv per player,
    batched per run on views of ``C`` bound once per game) and the constant
    Jacobian ``C + 0.0``, each curved player's rows from its oracles, bit for
    bit what the players' oracles return."""
    q, bounds = game.quadratic, game.rows.bounds
    g, jac = run_matvec(game._affine_rows, x) + q.affine_offset, q.jacobian
    if q.hessians:
        jac = jac.copy()
        for i in q.hessians:
            s, p = slice(bounds[i], bounds[i + 1]), game.players[i]
            g[s], jac[s] = p.constraints(x), p.constraint_jacobian(x)
    return g, jac


def _attach_batched_oracle(game: GameInstance, sweep: Sweep) -> GameInstance:
    """``game`` with its batched oracle ``sweep`` attached; the players'
    oracles must return its rows bit for bit."""
    object.__setattr__(game, "batched_oracle", sweep)
    return game


def own_columns(J: Array, run: tuple[slice, slice, slice]) -> Array:
    """The own-block columns ``J[..., s, sl]`` of the players of ``run`` (one of
    :attr:`GameInstance.constrained_runs`) as one read-only ``(..., p, w, d)``
    view of the contiguous ``J``, no copy: each block keeps ``J``'s row stride,
    so a product with it rounds as one with ``J[s, sl]`` does."""
    players, rows, cols = run
    p, (s0, s1) = players.stop - players.start, J.strides[-2:]
    w, d = (rows.stop - rows.start) // p, (cols.stop - cols.start) // p
    return np.ndarray(J.shape[:-2] + (p, w, d), J.dtype, memoryview(J).toreadonly(),
                      rows.start * s0 + cols.start * s1,
                      J.strides[:-2] + (w * s0 + d * s1, s0, s1))


def constraint_violation(g: Array) -> float | Array:
    """Largest positive entry of the constraint values ``g`` over its last
    axis, one per point over any leading axes (a float for one point); 0
    when every constraint holds. A NaN entry propagates."""
    v = np.maximum(g, 0.0).max(axis=-1, initial=0.0)
    return float(v) if v.ndim == 0 else v


def stack_rows(blocks: Sequence[Array]) -> Array:
    """Per-player vectors stacked into one float vector."""
    return np.concatenate([np.asarray(b, dtype=float).ravel() for b in blocks] or [np.zeros(0)])


def row_dots(A: Array, x: Array) -> Array:
    """``A[..., i, :] @ x[..., :]`` for every row ``i`` of ``A``, over any
    leading axes that broadcast: bit for bit the per-row dot product, which
    ``A @ x`` (one gemv) is not."""
    return np.matmul(A[..., None, :], x[..., None, :, None])[..., 0, 0]


def self_dots(v: Array) -> Array:
    """``v[..., :] @ v[..., :]`` over any leading axes of ``v``: one BLAS dot
    per vector, as ``np.linalg.norm`` takes it, bit for bit."""
    return np.matmul(v[..., None, :], v[..., :, None])[..., 0, 0]


def row_norms(v: Array) -> Array:
    """2-norm of each vector ``v[..., :]``, a lone row's spectral norm: dots of
    a view (strided ones round differently), a NaN sum of squares taken as 0."""
    return np.sqrt(np.fmax(self_dots(v), _ZERO))


def max_abs(v: Array) -> float:
    """Largest absolute entry of ``v``, 0.0 when empty: the ufunc reduction
    that ``np.max(np.abs(v), initial=0.0)`` ends in, called directly, with
    no keywords to parse."""
    a = np.abs(v).ravel()
    return float(np.maximum.reduce(a)) if a.size else 0.0


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
    def of(duals: Sequence[PlayerDualState], rows: Segments) -> "DualStack":
        """Per-player dual states stacked over the rows ``rows``."""
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


def central_jacobian(f: Callable[[Array], Array], x: Array, m: int) -> Array:
    """Central finite-difference Jacobian of a vector function, shape (m, n), step ``FD_STEP``."""
    J = np.zeros((m, x.shape[0]))
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = FD_STEP
        J[:, i] = (f(x + e) - f(x - e)) / (2.0 * FD_STEP)
    return J


@dataclass
class ValidationReport:
    """Outcome of sampling-based instance checks."""

    gradient_error: float
    jacobian_error: float
    convexity_violation: float
    all_finite: bool
    notes: list[str] = field(default_factory=list)


def _rel_err(approx: Array, exact: Array) -> float:
    denom = max(1.0, float(np.max(np.abs(exact), initial=0.0)))
    return float(np.max(np.abs(approx - exact), initial=0.0)) / denom


def _oracle_pairs(p: PlayerProblem) -> list[tuple[str, Callable, Callable]]:
    """``(name, values, derivative)`` of player ``p``'s objective, as a
    one-row function, with its gradient, and of its constraints, if any,
    with their Jacobian."""
    pairs = [("objective", lambda y: np.array([p.objective(y)], dtype=float), p.gradient)]
    if p.m:
        pairs.append(("constraint", p.constraints, p.constraint_jacobian))
    return pairs


@np.errstate(all="ignore")   # overflow shows in the report, not as a NumPy warning
def validate_instance(game: GameInstance, samples: int = 100, seed: int = 0) -> ValidationReport:
    """Check oracle consistency on sampled points.

    Compares analytic gradients/Jacobians against central finite differences,
    tests midpoint convexity of objectives and constraints along random
    own-block segments, and flags non-finite oracle output. Oracle failures
    are reported, not raised: ``all_finite`` means no note was written.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    errors = {"objective": 0.0, "constraint": 0.0}   # the gradient and Jacobian errors
    conv_viol = 0.0
    notes: list[str] = []

    for _ in range(samples):
        x = np.concatenate([p.private_set.sample_interior(rng) for p in game.players])
        for i, p in enumerate(game.players):
            for name, f, df in _oracle_pairs(p):
                try:
                    v, d = f(x), np.asarray(df(x), dtype=float)
                    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(d))):
                        notes.append(f"player {i}: non-finite {name} oracle output")
                        break
                    fd = central_jacobian(f, x, len(v))
                except FloatingPointError:
                    notes.append(f"player {i}: {name} oracle raised at sampled point")
                    break
                if np.all(np.isfinite(fd)):
                    errors[name] = max(errors[name], _rel_err(fd, d))
                else:
                    notes.append(f"player {i}: non-finite {name} near sampled point")

        # Midpoint convexity along a random own-block segment for each player.
        for i, (p, sl) in enumerate(zip(game.players, game.layout.slices)):
            a, b = p.private_set.sample_interior(rng), p.private_set.sample_interior(rng)
            ends = [np.concatenate((x[:sl.start], e, x[sl.stop:])) for e in (a, b, 0.5 * (a + b))]
            for name, f, _ in _oracle_pairs(p):
                try:
                    fa, fb, fm = (f(y) for y in ends)
                except FloatingPointError:
                    notes.append(f"player {i}: {name} oracle raised along segment")
                    break
                if np.all(np.isfinite(fa)) and np.all(np.isfinite(fb)) and np.all(np.isfinite(fm)):
                    conv_viol = max(conv_viol, float(np.max(fm - 0.5 * (fa + fb))))
                else:
                    notes.append(f"player {i}: non-finite {name} along segment")

    return ValidationReport(errors["objective"], errors["constraint"], conv_viol, not notes, notes)
