"""Built-in game instances, seeded generators, and a quadratic file format.

Quadratic games are described by :class:`QuadraticGnepSpec`: player ``nu``
minimizes ``0.5 x'Q x + b'x`` subject to constraints
``0.5 x'A_j x + c_j'x + d_j <= 0`` and its projectable private set. The own
diagonal block of ``Q`` and of every ``A_j`` must be positive semidefinite
(convexity in the player's own variables). Specs serialize to a versioned
JSON document (``qgnep/1``) whose floats survive a save/load round trip
bit-for-bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    AdmissibilityError,
    Array,
    BlockLayout,
    GameInstance,
    PlayerProblem,
    QuadraticStack,
    SimpleSet,
    Sweep,
    _attach_batched_oracle,
    _attach_quadratic_stack,
    quadratic_constraints,
    row_dots,
)

__all__ = [
    "QuadraticGnepSpec",
    "QuadraticPlayerSpec",
    "FormatError",
    "make_example3",
    "example3_spec",
    "make_a18_electricity",
    "a18_spec",
    "a18_prices",
    "gen_power_allocation",
    "gen_arrow_debreu",
    "arrow_debreu_excess_demand",
    "gen_random_quadratic",
    "gen_random_quadratic_with_plant",
    "random_quadratic_spec",
    "save_quadratic",
    "load_quadratic",
    "load_quadratic_spec",
    "builtin_instance",
    "BUILTIN_NAMES",
]


class FormatError(ValueError):
    """A quadratic instance file failed to parse or misses a field."""


# ---------------------------------------------------------------------------
# Quadratic game description
# ---------------------------------------------------------------------------


class QuadraticPlayerSpec:
    """One player: minimize ``0.5 x'Q x + b'x`` over its private set subject
    to the rows ``0.5 x'A_j x + c_j'x + d_j <= 0`` of ``constraints``, each
    ``(A_j, c_j, d_j)``; ``A_j`` is ``None`` for an affine row.

    ``Q`` is held as the stack reads it (:class:`~gnepsolve.core.QuadraticStack`):
    its own rows ``rows = Q[sl]`` ``(w, n)`` and own columns ``cols = Q[:, sl]``
    ``(n, w)``, ``sl`` the player's ``block``, and whole (``dense``) only when
    it has an entry off that band (a nonzero, a -0.0 or a NaN). ``Q`` may be
    given whole, ``(n, n)``: the :class:`QuadraticGnepSpec` splits it once,
    at construction. A generator passes ``band=(sl, rows, cols)`` instead,
    and no ``(n, n)`` array is made. ``Q`` reads the whole matrix back, made
    on demand from the band.
    """

    def __init__(self, Q: Array | None, b: Array, private_set: SimpleSet,
                 constraints: list[tuple[Array | None, Array, float]] | None = None,
                 band: tuple[slice, Array, Array] | None = None):
        self.b, self.private_set = b, private_set
        self.constraints = [] if constraints is None else constraints
        self.dense = Q
        self.block, self.rows, self.cols = band or (None, None, None)

    def _split(self, sl: slice, n: int):
        """Hold the given whole ``Q`` by its band of block ``sl``, and keep
        it whole only when an entry off the band is not +0.0."""
        Q = np.asarray(self.dense, dtype=float).reshape(n, n)
        off = Q.copy()
        off[sl] = off[:, sl] = 0.0
        self.block, self.rows, self.cols = sl, Q[sl].copy(), Q[:, sl].copy()
        self.dense = Q if off.view(np.uint64).any() else None

    @property
    def Q(self) -> Array:
        """The whole ``(n, n)`` matrix: the one kept, or a new one from the band."""
        if self.rows is None or self.dense is not None:
            return self.dense
        Q = np.zeros((len(self.cols), len(self.cols)))
        Q[:, self.block] = self.cols
        Q[self.block] = self.rows
        return Q


_SPEC_TOL = 1e-10   # the error a spec's symmetry and own-block convexity checks admit


@dataclass
class QuadraticGnepSpec:
    """A quadratic game; each player whose ``Q`` was given whole is split
    into its band here, so a player put into ``players`` later must come
    split (as one taken from a spec of the same layout)."""

    layout: BlockLayout
    players: list[QuadraticPlayerSpec]
    name: str = "quadratic-game"

    def __post_init__(self):
        for p, sl in zip(self.players, self.layout.slices):
            if p.rows is None:
                p._split(sl, self.layout.n)

    def validate_psd(self):
        """Own-block convexity: smallest own-block eigenvalue >= -``_SPEC_TOL``."""
        for i, (p, sl) in enumerate(zip(self.players, self.layout.slices)):
            blocks = [(f"player {i}: objective own block", p.rows[:, sl])]
            blocks += [(f"player {i} constraint {j}: own block", A[sl, sl])
                       for j, (A, _, _) in enumerate(p.constraints) if A is not None]
            for what, own in blocks:
                if own.size and (low := float(np.min(np.linalg.eigvalsh(own)))) < -_SPEC_TOL:
                    raise AdmissibilityError(f"{what} has eigenvalue {low:.3e} < -{_SPEC_TOL:g}")

    def validate_symmetric(self):
        """Every ``Q_i`` and ``A_j`` symmetric, each entry within ``_SPEC_TOL``
        times the largest magnitude (at least 1) of its mirror: the oracles
        return ``Q x`` and ``A x + c``, the gradients of ``0.5 x'Q x`` and
        ``0.5 x'A x + c'x`` only then. A band ``Q_i`` is symmetric when its
        own columns are its own rows transposed (its own block included)."""
        for i, p in enumerate(self.players):
            Q, Qt = (p.cols, p.rows.T) if p.dense is None else (p.dense, p.dense.T)
            checks = [(f"player {i}: objective", f"players[{i}].Q", Q, Qt)]
            checks += [(f"player {i} constraint {j}: Hessian", f"players[{i}].constraints[{j}].A", A, A.T)
                       for j, (A, _, _) in enumerate(p.constraints) if A is not None]
            for what, where, M, Mt in checks:
                gap = float(np.max(np.abs(M - Mt), initial=0.0))
                if gap > _SPEC_TOL * max(1.0, float(np.max(np.abs(M), initial=0.0))):
                    raise AdmissibilityError(f"{what} is not symmetric ({where}: an entry "
                                             f"differs from its mirror by {gap:.3e})")

    def to_game(self) -> GameInstance:
        """The game, with its quadratic data stacked over players
        (:class:`~gnepsolve.core.QuadraticStack`, the one record of its
        structure): the players' own rows concatenated into ``G``, their
        own columns stacked per run of equal block width, and the ``Q``s
        kept whole stacked in ``dense``; each player's oracles read the
        stack. Constraint Hessians are kept only for a player with a
        nonzero one (a ``None`` one is zero)."""
        self.validate_symmetric()
        self.validate_psd()
        n, N, specs = self.layout.n, len(self.players), self.players
        b = np.array([spec.b for spec in specs], dtype=float).reshape(N, n)
        rows = [con for spec in specs for con in spec.constraints]
        C = np.array([c for _, c, _ in rows], dtype=float).reshape(len(rows), n)
        D = np.array([d for _, _, d in rows], dtype=float).reshape(len(rows))
        hessians = {i: np.array([np.zeros((n, n)) if a is None else a
                                 for a, _, _ in spec.constraints],
                                dtype=float).reshape(len(spec.constraints), n, n)
                    for i, spec in enumerate(specs)
                    if any(a is not None and np.any(a) for a, _, _ in spec.constraints)}
        dense = tuple(i for i, spec in enumerate(specs) if spec.dense is not None)
        q = QuadraticStack(
            self.layout, np.concatenate([spec.rows for spec in specs]),
            tuple(np.stack([spec.cols for spec in specs[run]])
                  for run, _, _ in self.layout.segments._runs),
            b, C, D, dense,
            np.array([specs[i].dense for i in dense], dtype=float).reshape(-1, n, n), hessians)
        players, start = [], 0
        for i, spec in enumerate(specs):
            m = len(spec.constraints)
            bi, Ci, Di = b[i], C[start:start + m], D[start:start + m]
            start += m

            def objective(x, q=q, i=i, b=bi):
                return 0.5 * float(x @ q.products(x, i)[0]) + float(b @ x)

            def gradient(x, q=q, i=i, b=bi):
                return q.products(x, i)[0] + b

            if i in hessians:
                def constraints(x, A=hessians[i], C=Ci, D=Di):
                    return 0.5 * np.einsum("i,mij,j->m", x, A, x) + C @ x + D

                def constraint_jacobian(x, A=hessians[i], C=Ci):
                    return np.einsum("mij,j->mi", A, x) + C
            else:
                # Affine constraints. For finite x the zero quadratic terms
                # above are +0.0 exactly; adding 0.0 keeps their one effect,
                # turning a -0.0 into +0.0, so both forms agree bit for bit.
                def constraints(x, C=Ci, D=Di):
                    return C @ x + 0.0 + D

                def constraint_jacobian(x, C=Ci):
                    return C + 0.0

            players.append(PlayerProblem(objective, gradient, constraints, constraint_jacobian,
                                         spec.private_set, m))
        game = _attach_quadratic_stack(GameInstance(tuple(players), self.layout, self.name), q)
        return _attach_batched_oracle(game, _stacked_sweep(game))


def _stacked_sweep(game: GameInstance) -> Sweep:
    """The batched oracle of a game with stacked quadratic data: every
    ``Q_i @ x`` from the band-stored stack
    (:meth:`~gnepsolve.core.QuadraticStack.products`: one ``G @ x`` for the
    players' own rows and one batched product per run of column bands, about
    ``2 n^2`` numbers read instead of ``N n^2``, plus one batched product over
    any players kept dense), from which every gradient and objective value
    follows, and one batched product for the affine constraint rows. Each is
    bit for bit what the player's own oracle returns, as both take their
    products from the stack; a curved player's constraint values and
    Jacobian come from its oracles."""
    q = game.quadratic

    def sweep(x):
        QX = q.products(x)
        return (0.5 * row_dots(QX, x) + row_dots(q.b, x), QX + q.b,
                *quadratic_constraints(game, x))

    return sweep


# ---------------------------------------------------------------------------
# qgnep/1 serialization
# ---------------------------------------------------------------------------

_QGNEP_VERSION = "qgnep/1"


def _set_to_json(s: SimpleSet) -> dict:
    if s.kind == "box":
        return {"kind": "box", "lower": s.lower.tolist(), "upper": s.upper.tolist()}
    if s.kind == "ball":
        return {"kind": "ball", "dim": s.dim, "radius": s.radius}
    return {"kind": s.kind, "dim": s.dim}


def _set_from_json(obj: dict) -> SimpleSet:
    kind = obj.get("kind")
    if kind == "box":
        return SimpleSet.box(_finite_or_inf(obj["lower"]), _finite_or_inf(obj["upper"]))
    if kind == "nonneg":
        return SimpleSet.nonneg(_count(obj["dim"]))
    if kind == "simplex":
        return SimpleSet.simplex(_count(obj["dim"]))
    if kind == "ball":
        return SimpleSet.ball(_count(obj["dim"]), float(obj["radius"]))
    raise ValueError(f"unknown set kind {kind!r}")


def _count(obj) -> int:
    if type(obj) is not int:
        raise ValueError(f"expected an integer, got {obj!r}")
    return obj


def _finite_or_inf(obj) -> Array:
    v = np.asarray(obj, dtype=float)
    if v.ndim != 1 or np.any(np.isnan(v)):
        raise ValueError("expected a list of numbers")
    return v


def _finite(obj, shape: tuple[int, ...]) -> Array:
    v = np.asarray(obj, dtype=float)
    if v.shape != shape:
        raise ValueError(f"expected shape {shape}, got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("entries must be finite")
    return v


def _matrix_from_json(obj, n: int) -> Array:
    """An ``(n, n)`` matrix given as nested lists, or as
    ``{"triplets": [[i, j, v], ...]}`` with the entries not listed 0.0 and
    each ``(i, j)`` at most once."""
    if isinstance(obj, dict):
        out, seen = np.zeros((n, n)), set()
        for i, j, v in obj.get("triplets", []):
            i, j = _count(i), _count(j)
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"triplet index ({i}, {j}) outside {n}x{n}")
            if (i, j) in seen:
                raise ValueError(f"triplet index ({i}, {j}) given twice")
            seen.add((i, j))
            out[i, j] = v
        return _finite(out, (n, n))
    return _finite(obj, (n, n))


def _field(path, obj, key: str, where: str, parse=None):
    """``parse(obj[key])``; a missing or malformed value raises a
    :class:`FormatError` naming the field ``where``."""
    if key not in obj:
        raise FormatError(f"{path}: missing field {where!r}")
    if parse is None:
        return obj[key]
    try:
        return parse(obj[key])
    except FormatError:
        raise
    except (TypeError, ValueError, LookupError, AttributeError) as exc:
        raise FormatError(f"{path}: field {where!r} is malformed: {exc}") from exc


def _object(path, obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise FormatError(f"{path}: field {where!r} must be an object")
    return obj


def _list(path, obj, where: str) -> list:
    if not isinstance(obj, list):
        raise FormatError(f"{path}: field {where!r} must be a list")
    return obj


def save_quadratic(spec: QuadraticGnepSpec, path: str | Path):
    """Write a qgnep/1 file: each ``Q`` whole, and a ``None`` ``A_j`` as
    its all-zero matrix."""
    zero = [[0.0] * spec.layout.n] * spec.layout.n
    doc = {
        "version": _QGNEP_VERSION,
        "name": spec.name,
        "layout": list(spec.layout.dims),
        "players": [
            {
                "Q": p.Q.tolist(),
                "b": p.b.tolist(),
                "set": _set_to_json(p.private_set),
                "constraints": [
                    {"A": zero if A is None else A.tolist(), "c": c.tolist(), "d": float(d)}
                    for A, c, d in p.constraints
                ],
            }
            for p in spec.players
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True))


def load_quadratic_spec(path: str | Path) -> QuadraticGnepSpec:
    """Read a qgnep/1 file. A missing or malformed field raises a
    :class:`FormatError` that names it (``players[0].constraints[1].d``).
    An ``A`` whose every entry is +0.0 is held as ``None`` (an affine row)."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: line {exc.lineno} col {exc.colno}: {exc.msg}") from exc
    doc = _object(path, doc, "document")
    if doc.get("version") != _QGNEP_VERSION:
        raise FormatError(f"{path}: field 'version' must be {_QGNEP_VERSION!r}")
    name = doc.get("name", "quadratic-game")
    if not isinstance(name, str):
        raise FormatError(f"{path}: field 'name' must be a string")
    layout = _field(path, doc, "layout", "layout",
                    lambda v: BlockLayout(tuple(_count(d) for d in _list(path, v, "layout"))))
    n = layout.n
    player_docs = _list(path, _field(path, doc, "players", "players"), "players")
    if len(player_docs) != layout.num_blocks:
        raise FormatError(f"{path}: field 'layout' lists {layout.num_blocks} blocks "
                          f"but {len(player_docs)} players given")
    players = []
    for i, pd in enumerate(player_docs):
        where = f"players[{i}]"
        pd = _object(path, pd, where)
        Q = _field(path, pd, "Q", f"{where}.Q", lambda v: _matrix_from_json(v, n))
        b = _field(path, pd, "b", f"{where}.b", lambda v: _finite(v, (n,)))
        pset = _field(path, pd, "set", f"{where}.set",
                      lambda v: _set_from_json(_object(path, v, f"{where}.set")))
        if pset.dim != layout.dims[i]:
            raise FormatError(f"{path}: field '{where}.set' has dimension {pset.dim}, "
                              f"layout block {i} has {layout.dims[i]}")
        cons = []
        for j, cd in enumerate(_list(path, pd.get("constraints", []), f"{where}.constraints")):
            cwhere = f"{where}.constraints[{j}]"
            cd = _object(path, cd, cwhere)
            A = _field(path, cd, "A", f"{cwhere}.A", lambda v: _matrix_from_json(v, n))
            c = _field(path, cd, "c", f"{cwhere}.c", lambda v: _finite(v, (n,)))
            d = _field(path, cd, "d", f"{cwhere}.d", lambda v: float(_finite(v, ())))
            cons.append((A if A.view(np.uint64).any() else None, c, d))
        players.append(QuadraticPlayerSpec(Q, b, pset, cons))
    return QuadraticGnepSpec(layout, players, name)


def load_quadratic(path: str | Path) -> GameInstance:
    """Load a qgnep/1 file; own-block admissibility is validated on load."""
    return load_quadratic_spec(path).to_game()


# ---------------------------------------------------------------------------
# Two-player circle game
# ---------------------------------------------------------------------------


def example3_spec() -> QuadraticGnepSpec:
    """Two players on crossing unit disks with a single joint feasible point.

    Player 1 minimizes ``x1^2`` subject to the disk centered at (2, 0);
    player 2 minimizes ``x2^2`` subject to the disk centered at the origin.
    The disks intersect only at (1, 0), which is the unique equilibrium:
    player 1 sits at the boundary of its disk (multiplier 1) while player 2's
    constraint gradient vanishes there, so player 2's multiplier set is a
    whole ray and no constraint qualification holds.
    """
    layout = BlockLayout((1, 1))
    eye2 = 2.0 * np.eye(2)
    p1 = QuadraticPlayerSpec(
        Q=np.diag([2.0, 0.0]),
        b=np.zeros(2),
        private_set=SimpleSet.free(1),
        constraints=[(eye2.copy(), np.array([-4.0, 0.0]), 3.0)],
    )
    p2 = QuadraticPlayerSpec(
        Q=np.diag([0.0, 2.0]),
        b=np.zeros(2),
        private_set=SimpleSet.free(1),
        constraints=[(eye2.copy(), np.zeros(2), -1.0)],
    )
    return QuadraticGnepSpec(layout, [p1, p2], "example3")


def make_example3() -> GameInstance:
    return example3_spec().to_game()


# ---------------------------------------------------------------------------
# Two-company electricity market (12 variables)
# ---------------------------------------------------------------------------

_A18_INTERCEPT = (40.0, 35.0, 32.0)
_A18_SLOPE = (40.0 / 500.0, 35.0 / 400.0, 32.0 / 600.0)
_A18_COST = 15.0
_A18_CAP = (100.0, 50.0)


def a18_spec() -> QuadraticGnepSpec:
    """Two symmetric companies selling into three regional markets.

    Company 1 controls ``x1..x6`` (plants A and B, each selling into regions
    1..3), company 2 controls ``x7..x12``. The price in region ``r`` falls
    linearly in the total quantity sold there; each company minimizes cost
    minus revenue under nonnegativity, per-plant capacity limits, and bounds
    on regional price differences. All inequality constraints, including
    nonnegativity, are carried as functional constraints (14 per player);
    the private sets are free.
    """
    n = 12
    layout = BlockLayout((6, 6))
    region_vars = [(0, 3, 6, 9), (1, 4, 7, 10), (2, 5, 8, 11)]

    def own_indicator(player: int, region: int) -> Array:
        v = np.zeros(n)
        base = 6 * player
        v[base + region] = 1.0
        v[base + region + 3] = 1.0
        return v

    def total_indicator(region: int) -> Array:
        v = np.zeros(n)
        v[list(region_vars[region])] = 1.0
        return v

    def price_gradient(region: int) -> Array:
        return -_A18_SLOPE[region] * total_indicator(region)

    players = []
    for player in range(2):
        Q = np.zeros((n, n))
        b = np.zeros(n)
        for r in range(3):
            u = own_indicator(player, r)
            t = total_indicator(region=r)
            other = t - u
            s = _A18_SLOPE[r]
            Q += s * (2.0 * np.outer(u, u) + np.outer(u, other) + np.outer(other, u))
            b += (_A18_COST - _A18_INTERCEPT[r]) * u
        cons: list[tuple[Array, Array, float]] = []
        base = 6 * player
        for i in range(6):
            c = np.zeros(n)
            c[base + i] = -1.0
            cons.append((None, c, 0.0))
        for plant in range(2):
            c = np.zeros(n)
            c[base + 3 * plant: base + 3 * plant + 3] = 1.0
            cons.append((None, c, -_A18_CAP[plant]))
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                # price(j) - price(i) <= 1
                c = price_gradient(j) - price_gradient(i)
                d = (_A18_INTERCEPT[j] - _A18_INTERCEPT[i]) - 1.0
                cons.append((None, c, d))
        players.append(QuadraticPlayerSpec(Q, b, SimpleSet.free(6), cons))
    return QuadraticGnepSpec(layout, players, "a18")


def make_a18_electricity() -> GameInstance:
    return a18_spec().to_game()


def a18_prices(x: Array) -> Array:
    """Regional prices at a joint quantity vector (exposed for tests)."""
    region_vars = [(0, 3, 6, 9), (1, 4, 7, 10), (2, 5, 8, 11)]
    return np.array([
        _A18_INTERCEPT[r] - _A18_SLOPE[r] * sum(x[i] for i in region_vars[r])
        for r in range(3)
    ])


# ---------------------------------------------------------------------------
# Power allocation with quality-of-service rate floors
# ---------------------------------------------------------------------------


def gen_power_allocation(n_links: int, n_channels: int, target_rates,
                         noise_std: float, gains: Array | None = None,
                         seed: int = 0) -> GameInstance:
    """Interfering links minimizing total transmit power under rate floors.

    Link ``nu`` transmits power ``x_i`` on each of ``n_channels`` channels and
    must achieve ``sum_i log2(1 + SINR_i) >= target``, where the interference
    in channel ``i`` collects every other link's power through the gain
    matrix ``gains[nu, mu, i]``. Encoded feasible-negative: the constraint
    value is ``target - rate``. Gains are sampled log-uniform on [1e-2, 1]
    when not supplied.

    The game's batched oracle computes the rate terms of every link at once
    (one ``einsum`` over the gains for the interference); each link's
    constraint oracles take the same computation for that link alone, whose
    rows round as the whole one's, so the two agree bit for bit.
    """
    if n_links < 1 or n_channels < 1:
        raise ValueError("need at least one link and one channel")
    targets = np.broadcast_to(np.asarray(target_rates, dtype=float), (n_links,)).copy()
    if not np.all((targets > 0) & (targets < np.inf)):
        raise ValueError("target rates must be finite and positive")
    if gains is None:
        rng = np.random.default_rng(seed)
        gains = np.exp(rng.uniform(np.log(1e-2), np.log(1.0),
                                   size=(n_links, n_links, n_channels)))
    gains = np.array(gains, dtype=float)
    if gains.shape != (n_links, n_links, n_channels):
        raise ValueError(f"gains must have shape {(n_links, n_links, n_channels)}")
    if not np.all((gains > 0) & (gains < np.inf)):
        raise ValueError("gains must be finite and strictly positive")
    try:   # a product in place of ** would move power's bits for some noise levels
        noise_power = float(noise_std) ** 2
    except OverflowError:   # a float ** raises where * gives inf
        noise_power = math.inf
    if not 0 < noise_power < math.inf:
        raise ValueError("noise must be finite and nonzero")

    layout = BlockLayout((n_channels,) * n_links)
    n, shape = layout.n, (n_links, n_channels)
    # 0-d operands: NumPy converts a Python float on every ufunc call
    noise, one, ln2 = np.array(noise_power), np.array(1.0), np.array(math.log(2.0))
    links = np.arange(n_links)
    h_own = gains[links, links]    # (n_links, n_channels)
    others = gains.copy()          # the interference gains: each link's own entry zeroed
    others[links, links] = 0.0
    every = slice(None)

    def rate_terms(x, ls):
        """Each link of ``ls`` (a slice) with its own gains ``h``, powers
        ``p``, interference gain rows ``cross`` (own entry zero),
        interference-plus-noise ``den`` and SINR ``s``, per channel, over
        any leading axes of ``x``: the one implementation of the rate terms,
        whose rows do not depend on which other links or points are taken.
        ``den`` sums only the other links' terms, so a large own power
        cannot cancel it."""
        pw = x.reshape(x.shape[:-1] + shape)
        h, p, cross = h_own[ls], pw[..., ls, :], others[ls]
        den = noise + np.einsum("nmc,...mc->...nc", cross, pw)
        return h, p, cross, den, h * p / den

    def shortfalls(terms, ls):
        """Constraint values ``target - rate`` of the links ``ls``."""
        return targets[ls] - np.add.reduce(np.log1p(terms[4]), -1) / ln2

    def jacobians(terms, own):
        """Constraint Jacobians ``(..., k, n)`` of the links of ``terms``,
        whose own-power entries are ``jac[own]`` (``own`` indexes ``(...,
        k, n_links, n_channels)``)."""
        h, p, cross, den, s = terms
        ch = one / ((one + s) * ln2) * h
        jac = (ch * p)[..., None, :] * cross / (den ** 2)[..., None, :]
        jac[own] = -ch / den
        return jac.reshape(p.shape[:-1] + (n,))

    own_ones = np.zeros((n_links, n))
    own_ones.ravel()[layout.own_entries] = 1.0
    every_own = (..., links, links, every)

    def sweep(x):
        terms = rate_terms(x, every)
        grads = np.empty(x.shape[:-1] + own_ones.shape)   # broadcast_to(...).copy() is slower
        grads[...] = own_ones
        return (np.add.reduce(terms[1], -1), grads, shortfalls(terms, every),
                jacobians(terms, every_own))

    def make_link(nu: int) -> PlayerProblem:
        own, row = slice(nu * n_channels, (nu + 1) * n_channels), slice(nu, nu + 1)
        row_own = (..., every, nu, every)

        def objective(x):
            return float(np.sum(x[own]))

        def gradient(x):
            return own_ones[nu].copy()

        def constraints(x):
            return shortfalls(rate_terms(x, row), row)

        def constraint_jacobian(x):
            return jacobians(rate_terms(x, row), row_own)

        return PlayerProblem(
            objective=objective,
            gradient=gradient,
            constraints=constraints,
            constraint_jacobian=constraint_jacobian,
            private_set=SimpleSet.nonneg(n_channels),
            m=1,
        )

    players = tuple(make_link(nu) for nu in range(n_links))
    return _attach_batched_oracle(GameInstance(players, layout, f"power-{n_links}x{n_channels}"),
                                  sweep)


# ---------------------------------------------------------------------------
# Competitive exchange economy (consumers, firms, market player)
# ---------------------------------------------------------------------------


def gen_arrow_debreu(n_consumers: int, n_firms: int, n_goods: int,
                     seed: int = 0) -> GameInstance:
    """Exchange economy: consumers, profit-maximizing firms, one price setter.

    Consumers maximize concave quadratic utility under a budget constraint
    coupling them to the price vector and firm outputs; firms maximize
    revenue over a nonnegative production ball (handled as a functional
    constraint); the market player maximizes the value of excess demand over
    the unit price simplex. Consumer bliss points are placed far outside the
    affordable region so budgets bind at equilibrium.
    """
    if min(n_consumers, n_firms, n_goods) < 1:
        raise ValueError("need at least one consumer, firm, and good")
    rng = np.random.default_rng(seed)
    I, J, K = n_consumers, n_firms, n_goods
    layout = BlockLayout((K,) * (I + J + 1))
    n = layout.n
    p_off = (I + J) * K

    Qs = []
    for _ in range(I):
        W = rng.standard_normal((K, K)) / math.sqrt(K)
        Qs.append(0.5 * np.eye(K) + W @ W.T)
    bs = [rng.uniform(8.0, 12.0, K) for _ in range(I)]
    endowments = [rng.uniform(0.5, 1.5, K) for _ in range(I)]
    shares = rng.uniform(0.2, 1.0, (I, J))
    shares = shares / shares.sum(axis=0, keepdims=True)   # columns sum to 1

    players = []
    # consumers
    for i in range(I):
        off = i * K
        Q = np.zeros((n, n))
        Q[off:off + K, off:off + K] = Qs[i]
        b = np.zeros(n)
        b[off:off + K] = -bs[i]
        A = np.zeros((n, n))
        A[off:off + K, p_off:p_off + K] += 0.5 * np.eye(K)
        A[p_off:p_off + K, off:off + K] += 0.5 * np.eye(K)
        for j in range(J):
            yoff = (I + j) * K
            A[yoff:yoff + K, p_off:p_off + K] += -0.5 * shares[i, j] * np.eye(K)
            A[p_off:p_off + K, yoff:yoff + K] += -0.5 * shares[i, j] * np.eye(K)
        A *= 2.0   # 0.5 x'Ax must equal the bilinear form
        c = np.zeros(n)
        c[p_off:p_off + K] = -endowments[i]
        players.append(QuadraticPlayerSpec(Q, b, SimpleSet.nonneg(K), [(A, c, 0.0)]))
    # firms
    for j in range(J):
        yoff = (I + j) * K
        Q = np.zeros((n, n))
        Q[yoff:yoff + K, p_off:p_off + K] = -np.eye(K)
        Q[p_off:p_off + K, yoff:yoff + K] = -np.eye(K)
        b = np.zeros(n)
        A = np.zeros((n, n))
        A[yoff:yoff + K, yoff:yoff + K] = 2.0 * np.eye(K)
        players.append(QuadraticPlayerSpec(
            Q, b, SimpleSet.nonneg(K), [(A, np.zeros(n), -10.0 * (j + 1))]))
    # market player: minimize -p . (sum x - sum y - sum endowments)
    Q = np.zeros((n, n))
    for i in range(I):
        off = i * K
        Q[p_off:p_off + K, off:off + K] += -np.eye(K)
        Q[off:off + K, p_off:p_off + K] += -np.eye(K)
    for j in range(J):
        yoff = (I + j) * K
        Q[p_off:p_off + K, yoff:yoff + K] += np.eye(K)
        Q[yoff:yoff + K, p_off:p_off + K] += np.eye(K)
    b = np.zeros(n)
    b[p_off:p_off + K] = np.sum(endowments, axis=0)
    players.append(QuadraticPlayerSpec(Q, b, SimpleSet.simplex(K), []))

    spec = QuadraticGnepSpec(layout, players, f"arrow-debreu-{I}-{J}-{K}")
    return spec.to_game()


def arrow_debreu_excess_demand(game: GameInstance, x: Array) -> Array:
    """Excess demand ``sum x - sum y - sum endowments`` of a generated economy.

    The market player (last block) minimizes ``-p . z(x)``, so its gradient
    in the price block is exactly ``-z``.
    """
    market = game.players[-1]
    sl = game.layout.block_slice(game.num_players - 1)
    return -np.asarray(market.gradient(x), dtype=float)[sl]


# ---------------------------------------------------------------------------
# Random quadratic games with a planted feasible point
# ---------------------------------------------------------------------------


def random_quadratic_spec(n_players: int, n_per: int, m_per: int,
                          seed: int = 0) -> tuple[QuadraticGnepSpec, Array]:
    """Seeded quadratic game spec plus its strictly feasible planted point.

    Own blocks are positive definite (curvature >= 1), cross-block terms are
    scaled by ``0.3 / (N - 1)``, and each player's affine rows, in the whole
    joint vector, hold strictly at the planted point. So the feasible sets
    move with the rivals: no contraction or unique equilibrium is implied.
    Each ``Q_i`` is written straight into its band (own rows and columns),
    its rivals' cross blocks drawn in one call, the same numbers in the same
    order as one ``(w, w)`` draw per rival; the affine rows carry no Hessian.
    """
    if min(n_players, n_per, m_per) < 1:
        raise ValueError("all generator sizes must be >= 1")
    rng = np.random.default_rng(seed)
    layout = BlockLayout((n_per,) * n_players)
    n = layout.n
    plant = rng.uniform(-1.0, 1.0, n)
    cross_scale = 0.3 / max(1, n_players - 1)
    players = []
    for i in range(n_players):
        sl, rivals = layout.block_slice(i), np.arange(n_players) != i
        rows, cols = np.zeros((n_per, n_players, n_per)), np.zeros((n_players, n_per, n_per))
        B = rng.standard_normal((n_per, n_per))
        rows[:, i] = cols[i] = B @ B.T / n_per + np.eye(n_per)
        C = cross_scale * rng.standard_normal((n_players - 1, n_per, n_per))
        rows[:, rivals] += C.transpose(1, 0, 2)
        cols[rivals] += C.transpose(0, 2, 1)
        b = rng.standard_normal(n)
        cons = []
        for _ in range(m_per):
            c = rng.standard_normal(n)
            c /= np.linalg.norm(c)
            d = -float(c @ plant) - rng.uniform(0.1, 1.0)
            cons.append((None, c, d))
        box = SimpleSet.box(np.full(n_per, -10.0), np.full(n_per, 10.0))
        players.append(QuadraticPlayerSpec(None, b, box, cons,
                                           band=(sl, rows.reshape(n_per, n), cols.reshape(n, n_per))))
    spec = QuadraticGnepSpec(layout, players,
                             f"randquad-{n_players}x{n_per}x{m_per}-s{seed}")
    return spec, plant


def gen_random_quadratic_with_plant(n_players: int, n_per: int, m_per: int,
                                    seed: int = 0) -> tuple[GameInstance, Array]:
    spec, plant = random_quadratic_spec(n_players, n_per, m_per, seed)
    return spec.to_game(), plant


def gen_random_quadratic(n_players: int, n_per: int, m_per: int,
                         seed: int = 0) -> GameInstance:
    return gen_random_quadratic_with_plant(n_players, n_per, m_per, seed)[0]


# ---------------------------------------------------------------------------
# Named instance registry for the CLI
# ---------------------------------------------------------------------------

BUILTIN_NAMES = ("example3", "a18", "power", "arrow-debreu", "random-quadratic")


def builtin_instance(name: str, seed: int = 0) -> GameInstance:
    if name == "example3":
        return make_example3()
    if name == "a18":
        return make_a18_electricity()
    if name == "power":
        # gain draw offset: the seed-0 channel draw is interference-dominated
        # and the default run would wander; +2 gives a well-conditioned game
        return gen_power_allocation(3, 4, 1.5, 0.3162, seed=seed + 2)
    if name == "arrow-debreu":
        return gen_arrow_debreu(5, 2, 3, seed=seed)
    if name == "random-quadratic":
        return gen_random_quadratic(2, 2, 1, seed=seed)
    raise KeyError(f"unknown problem {name!r}")
