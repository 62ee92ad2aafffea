"""Shared instances and solver runs (session-scoped: several are expensive)."""

import numpy as np
import pytest

import gnepsolve as G
from gnepsolve import library
from gnepsolve.core import max_abs


def fast_config(**kw):
    """The test suite's configuration: the defaults with ``kw`` replaced."""
    return G.SolverConfig(**kw)


def spectral_norm_reference(mat):
    """Largest singular value of one matrix, from the exact symmetric
    eigendecomposition of its smaller Gram matrix: the per-matrix formula
    that ``core.spectral_norms`` computes for a whole stack."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.size == 0 or not np.any(mat):
        return 0.0
    work = mat if mat.shape[0] <= mat.shape[1] else mat.T
    gram = work @ work.T
    return float(np.sqrt(max(0.0, float(np.max(np.linalg.eigvalsh(gram))))))


def blocks_of(monkeypatch, rows):
    """Cap ``solve``'s trace blocks at ``rows``, the size a small game's
    blocks then take (its rows fit the byte budget many times): for a test
    written for one block size. Returns ``rows``."""
    monkeypatch.setattr(G.solver, "_BOUND_ROWS", rows)
    return rows


def record_blocks(monkeypatch):
    """Record every ``_trace_rows`` call of ``solve``: its arguments and the
    columns it built (a copy of the block, which solve empties)."""
    blocks, trace_rows = [], G.solver._trace_rows

    def recording(*args):
        built = trace_rows(*args)
        blocks.append((args, dict(built)))
        return built

    monkeypatch.setattr(G.solver, "_trace_rows", recording)
    return blocks


def row_states(blocks, rows):
    """``(x, lam)`` before and after each of the first ``rows`` trace rows,
    from the recorded ``blocks`` (:func:`record_blocks`): a row's anchor is
    the row before it, the block's anchor for its first row, as the trace
    block pass derives it."""
    states = []
    for (_, (_, x, lam, *_), pending, *_), _ in blocks:
        for row in pending:
            states.append(((x, lam), (row[0], row[1])))
            x, lam = row[0], row[1]
    return states[:rows]


def stopping_residual(prev, next_state):
    """The larger of the primal and the multiplier max-norm moves between two
    states: the quantity ``solve`` stops on, from the states alone."""
    return max(max_abs(next_state.x - prev.x), max_abs(next_state.duals.lam - prev.duals.lam))


def dense_objective(q, i):
    """Player ``i``'s ``Q_i`` rebuilt as a dense C-ordered ``(n, n)`` array
    from the stack ``q`` (its band and its own rows of ``G``, or its entry of
    ``dense``): the same bytes it was built from."""
    if i in q.dense_players:
        return q.dense[q.dense_players.index(i)]
    sl = q.layout.slices[i]
    Q = np.zeros((q.layout.n, q.layout.n))
    Q[:, sl] = q._player_bands[i][0]
    Q[sl] = q.G[sl]
    return Q


@pytest.fixture(scope="session")
def ex3_game():
    return library.make_example3()


@pytest.fixture(scope="session")
def ex3_runs(ex3_game):
    """Default-protocol runs from the three canonical starts."""
    out = {}
    for x0 in [(0.0, 0.0), (2.0, 1.0), (-1.0, -1.0)]:
        out[x0] = G.solve(ex3_game, np.array(x0), G.SolverConfig())
    return out


@pytest.fixture(scope="session")
def ex3_tight(ex3_game):
    return G.solve(ex3_game, np.zeros(2), fast_config(outer_tol=1e-8, max_outer=40000))


@pytest.fixture(scope="session")
def a18_game():
    return library.make_a18_electricity()


@pytest.fixture(scope="session")
def a18_run(a18_game):
    return G.solve(a18_game, np.zeros(12), fast_config(max_outer=2500))


def ad_start(game, I=5, J=2, K=3):
    x0 = np.zeros(game.n)
    x0[: I * K] = 1.0
    for j in range(J):
        x0[(I + j) * K:(I + j + 1) * K] = np.sqrt(10.0 * (j + 1)) / np.sqrt(K)
    x0[-K:] = 1.0 / K
    return x0


def free_affine_game():
    """Two players with free one-variable blocks: player 0 minimizes
    ``0.5 x1^2 + x1`` under the row ``x1 + x2 - 1 <= 0``, player 1 minimizes
    ``0.5 x2^2 + x2`` with no row. Under a fixed gamma of 0.1 each step
    overshoots ninefold, and from ``(1, 1)`` player 0's objective value
    overflows while every gradient is still finite."""
    layout = G.BlockLayout((1, 1))
    players = [library.QuadraticPlayerSpec(np.diag([1.0, 0.0]), np.array([1.0, 0.0]),
                                           G.SimpleSet.free(1), [(None, [1.0, 1.0], -1.0)]),
               library.QuadraticPlayerSpec(np.diag([0.0, 1.0]), np.array([0.0, 1.0]),
                                           G.SimpleSet.free(1))]
    return library.QuadraticGnepSpec(layout, players, "free-affine").to_game()


@pytest.fixture(scope="session")
def ad_game():
    return library.gen_arrow_debreu(5, 2, 3, seed=0)


@pytest.fixture(scope="session")
def ad_run(ad_game):
    # Two-time-scale proximal weights: the price setter has no own-block
    # curvature, so it is slowed relative to consumers and firms; the rest of
    # the economy then settles quasi-statically while the price adjusts.
    cfg = fast_config(max_outer=60000,
                      gamma=G.GammaPolicy.fixed(np.array([30.0] * 5 + [260.0] * 2 + [300.0])))
    return G.solve(ad_game, ad_start(ad_game), cfg)


QUAD_SHAPES = [(1, 2, 2), (2, 2, 1), (2, 3, 2), (3, 2, 1), (2, 2, 2)]


@pytest.fixture(scope="session")
def quad_suite():
    """Twenty seeded quadratic games solved tightly from their planted points."""
    games = []
    for si, (N, npp, mpp) in enumerate(QUAD_SHAPES):
        for seed in range(4):
            game, plant = library.gen_random_quadratic_with_plant(
                N, npp, mpp, seed=100 + seed * 7 + si)
            res = G.solve(game, plant, fast_config(outer_tol=1e-6, max_outer=30000))
            games.append((game, plant, res))
    return games
