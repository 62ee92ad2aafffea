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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import (
    AdmissibilityError,
    Array,
    BlockLayout,
    GameInstance,
    PlayerProblem,
    SimpleSet,
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


@dataclass
class QuadraticPlayerSpec:
    Q: Array                       # (n, n) symmetric
    b: Array                       # (n,)
    private_set: SimpleSet
    constraints: list[tuple[Array, Array, float]] = field(default_factory=list)


@dataclass
class QuadraticGnepSpec:
    layout: BlockLayout
    players: list[QuadraticPlayerSpec]
    name: str = "quadratic-game"

    def validate_psd(self, tol: float = 1e-10):
        """Own-block convexity: smallest own-block eigenvalue >= -tol."""
        for i, p in enumerate(self.players):
            sl = self.layout.block_slice(i)
            own = p.Q[sl, sl]
            if own.size and float(np.min(np.linalg.eigvalsh(own))) < -tol:
                raise AdmissibilityError(
                    f"player {i}: objective own block has eigenvalue "
                    f"{float(np.min(np.linalg.eigvalsh(own))):.3e} < -{tol:g}")
            for j, (A, _, _) in enumerate(p.constraints):
                own_a = A[sl, sl]
                if own_a.size and float(np.min(np.linalg.eigvalsh(own_a))) < -tol:
                    raise AdmissibilityError(
                        f"player {i} constraint {j}: own block has eigenvalue "
                        f"{float(np.min(np.linalg.eigvalsh(own_a))):.3e} < -{tol:g}")

    def to_game(self) -> GameInstance:
        self.validate_psd()
        n = self.layout.n
        players = []
        for spec in self.players:
            Q = np.array(spec.Q, dtype=float)
            b = np.array(spec.b, dtype=float)
            A = np.array([a for a, _, _ in spec.constraints], dtype=float).reshape(
                len(spec.constraints), n, n)
            C = np.array([c for _, c, _ in spec.constraints], dtype=float).reshape(
                len(spec.constraints), n)
            D = np.array([d for _, _, d in spec.constraints], dtype=float)
            m = len(spec.constraints)

            def objective(x, Q=Q, b=b):
                return 0.5 * float(x @ (Q @ x)) + float(b @ x)

            def gradient(x, Q=Q, b=b):
                return Q @ x + b

            if np.any(A):
                def constraints(x, A=A, C=C, D=D):
                    return 0.5 * np.einsum("i,mij,j->m", x, A, x) + C @ x + D

                def constraint_jacobian(x, A=A, C=C):
                    return np.einsum("mij,j->mi", A, x) + C
            else:
                # Affine constraints. For finite x the zero quadratic terms
                # above are +0.0 exactly; adding 0.0 keeps their one effect,
                # turning a -0.0 into +0.0, so both forms agree bit for bit.
                def constraints(x, C=C, D=D):
                    return C @ x + 0.0 + D

                def constraint_jacobian(x, C=C):
                    return C + 0.0

            players.append(PlayerProblem(
                objective=objective,
                gradient=gradient,
                constraints=constraints,
                constraint_jacobian=constraint_jacobian,
                private_set=spec.private_set,
                m=m,
                objective_hessian=Q,
                constraint_hessians=A,
            ))
        return GameInstance(tuple(players), self.layout, self.name)


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
        return SimpleSet.box(obj["lower"], obj["upper"])
    if kind == "nonneg":
        return SimpleSet.nonneg(int(obj["dim"]))
    if kind == "simplex":
        return SimpleSet.simplex(int(obj["dim"]))
    if kind == "ball":
        return SimpleSet.ball(int(obj["dim"]), float(obj["radius"]))
    raise FormatError(f"unknown set kind {kind!r}")


def _matrix_from_json(obj, n: int, where: str) -> Array:
    if isinstance(obj, dict):
        out = np.zeros((n, n))
        for trip in obj.get("triplets", []):
            i, j, v = int(trip[0]), int(trip[1]), float(trip[2])
            out[i, j] = v
        return out
    mat = np.asarray(obj, dtype=float)
    if mat.shape != (n, n):
        raise FormatError(f"{where}: expected {n}x{n} matrix, got shape {mat.shape}")
    return mat


def save_quadratic(spec: QuadraticGnepSpec, path: str | Path):
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
                    {"A": A.tolist(), "c": c.tolist(), "d": float(d)}
                    for A, c, d in p.constraints
                ],
            }
            for p in spec.players
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True))


def load_quadratic_spec(path: str | Path) -> QuadraticGnepSpec:
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: line {exc.lineno} col {exc.colno}: {exc.msg}") from exc
    if doc.get("version") != _QGNEP_VERSION:
        raise FormatError(f"{path}: field 'version' must be {_QGNEP_VERSION!r}")
    for key in ("layout", "players"):
        if key not in doc:
            raise FormatError(f"{path}: missing field {key!r}")
    layout = BlockLayout(tuple(int(d) for d in doc["layout"]))
    n = layout.n
    players = []
    for i, pd in enumerate(doc["players"]):
        where = f"players[{i}]"
        for key in ("Q", "b", "set"):
            if key not in pd:
                raise FormatError(f"{path}: {where}: missing field {key!r}")
        Q = _matrix_from_json(pd["Q"], n, f"{where}.Q")
        b = np.asarray(pd["b"], dtype=float)
        if b.shape != (n,):
            raise FormatError(f"{path}: {where}.b: expected length {n}")
        cons = []
        for j, cd in enumerate(pd.get("constraints", [])):
            cwhere = f"{where}.constraints[{j}]"
            for key in ("A", "c", "d"):
                if key not in cd:
                    raise FormatError(f"{path}: {cwhere}: missing field {key!r}")
            A = _matrix_from_json(cd["A"], n, f"{cwhere}.A")
            c = np.asarray(cd["c"], dtype=float)
            if c.shape != (n,):
                raise FormatError(f"{path}: {cwhere}.c: expected length {n}")
            cons.append((A, c, float(cd["d"])))
        players.append(QuadraticPlayerSpec(Q, b, _set_from_json(pd["set"]), cons))
    if len(players) != layout.num_blocks:
        raise FormatError(f"{path}: layout lists {layout.num_blocks} blocks "
                          f"but {len(players)} players given")
    return QuadraticGnepSpec(layout, players, str(doc.get("name", "quadratic-game")))


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
        zero = np.zeros((n, n))
        for i in range(6):
            c = np.zeros(n)
            c[base + i] = -1.0
            cons.append((zero, c, 0.0))
        for plant in range(2):
            c = np.zeros(n)
            c[base + 3 * plant: base + 3 * plant + 3] = 1.0
            cons.append((zero, c, -_A18_CAP[plant]))
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                # price(j) - price(i) <= 1
                c = price_gradient(j) - price_gradient(i)
                d = (_A18_INTERCEPT[j] - _A18_INTERCEPT[i]) - 1.0
                cons.append((zero, c, d))
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
    """
    if n_links < 1 or n_channels < 1:
        raise ValueError("need at least one link and one channel")
    targets = np.broadcast_to(np.asarray(target_rates, dtype=float), (n_links,)).copy()
    if np.any(targets <= 0):
        raise ValueError("target rates must be positive")
    if gains is None:
        rng = np.random.default_rng(seed)
        gains = np.exp(rng.uniform(np.log(1e-2), np.log(1.0),
                                   size=(n_links, n_links, n_channels)))
    gains = np.asarray(gains, dtype=float)
    if gains.shape != (n_links, n_links, n_channels):
        raise ValueError(f"gains must have shape {(n_links, n_links, n_channels)}")
    if np.any(gains <= 0):
        raise ValueError("gains must be strictly positive")
    noise_power = float(noise_std) ** 2
    if noise_power <= 0:
        raise ValueError("noise must be nonzero")

    layout = BlockLayout((n_channels,) * n_links)
    n = layout.n
    ln2 = math.log(2.0)

    def make_link(nu: int) -> PlayerProblem:
        own = slice(nu * n_channels, (nu + 1) * n_channels)
        h_own = gains[nu, nu, :].copy()
        h_cross = gains[nu].copy()     # (n_links, n_channels)
        target = float(targets[nu])

        def rate_terms(x):
            pw = x.reshape(n_links, n_channels)
            den = noise_power + np.einsum("mc,mc->c", h_cross, pw) - h_cross[nu] * pw[nu]
            s = h_own * pw[nu] / den
            return s, den, pw

        def objective(x):
            return float(np.sum(x[own]))

        def gradient(x):
            g = np.zeros(n)
            g[own] = 1.0
            return g

        def constraints(x):
            s, _, _ = rate_terms(x)
            return np.array([target - float(np.sum(np.log1p(s)) / ln2)])

        def constraint_jacobian(x):
            s, den, pw = rate_terms(x)
            row = np.zeros((n_links, n_channels))
            common = 1.0 / ((1.0 + s) * ln2)
            row[nu] = -common * h_own / den
            for mu in range(n_links):
                if mu != nu:
                    row[mu] = common * h_own * pw[nu] * h_cross[mu] / den ** 2
            return row.reshape(1, n)

        return PlayerProblem(
            objective=objective,
            gradient=gradient,
            constraints=constraints,
            constraint_jacobian=constraint_jacobian,
            private_set=SimpleSet.nonneg(n_channels),
            m=1,
        )

    players = tuple(make_link(nu) for nu in range(n_links))
    return GameInstance(players, layout, f"power-{n_links}x{n_channels}")


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

    Own blocks are positive definite (curvature >= 1) and cross-block
    influence is damped, so the joint best-response map is contractive and
    the equilibrium unique. Coupling constraints are affine and strictly
    satisfied at the planted point.
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
        sl = layout.block_slice(i)
        Q = np.zeros((n, n))
        B = rng.standard_normal((n_per, n_per))
        Q[sl, sl] = B @ B.T / n_per + np.eye(n_per)
        for j in range(n_players):
            if j == i:
                continue
            slj = layout.block_slice(j)
            C = cross_scale * rng.standard_normal((n_per, n_per))
            Q[sl, slj] += C
            Q[slj, sl] += C.T
        b = rng.standard_normal(n)
        cons = []
        for _ in range(m_per):
            c = rng.standard_normal(n)
            c /= np.linalg.norm(c)
            d = -float(c @ plant) - rng.uniform(0.1, 1.0)
            cons.append((np.zeros((n, n)), c, d))
        box = SimpleSet.box(np.full(n_per, -10.0), np.full(n_per, 10.0))
        players.append(QuadraticPlayerSpec(Q, b, box, cons))
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
