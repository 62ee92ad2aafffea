"""The batched oracle sweep of stacked quadratic games against the closure sweep.

A game built from a ``QuadraticGnepSpec`` carries its data stacked over
players (``game.quadratic``), and ``evaluate_point`` then computes every
player's values from a few whole-array products. The same players without
the stacked data take the per-player closure loop; both must give the same
bits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gnepsolve as G
from gnepsolve import lagrangian, library
from gnepsolve.core import PlayerDualState, Segments
from gnepsolve.solver import _objective_norms, spectral_norms
from gnepsolve.lagrangian import (PenaltyParams, evaluate_point, lagrangian_from_values,
                                  lagrangian_values, projected_gradient_x)
from conftest import dense_objective

_FIELDS = ("x", "theta", "theta_grads", "g_values", "g_jacobians")


def closure_twin(game):
    """The same players, layout and name, without the stacked data."""
    return G.GameInstance(game.players, game.layout, game.name)


def point_bits(point):
    return {f: getattr(point, f).tobytes() for f in _FIELDS}


def _sets(kind, dim, rng):
    if kind == "box":
        lo = rng.uniform(-2.0, 0.0, dim)
        return G.SimpleSet.box(lo, lo + rng.uniform(0.0, 3.0, dim))
    if kind == "nonneg":
        return G.SimpleSet.nonneg(dim)
    if kind == "simplex":
        return G.SimpleSet.simplex(dim)
    return G.SimpleSet.ball(dim, rng.uniform(0.5, 2.0))


def _signed(rng, shape):
    """Standard normal draws with some entries set to +0.0 or -0.0."""
    v = rng.standard_normal(shape)
    v[rng.uniform(size=shape) < 0.15] = 0.0
    v[rng.uniform(size=shape) < 0.15] = -0.0
    return v


def _objective(kind, sl, rng, n):
    """``B B'`` for a ``dense`` player; for a ``band`` one with every entry
    outside the rows and columns ``sl`` set to +0.0, and for ``band-signed``
    with one of those set to -0.0, whose bytes then no longer fit the band.
    ``band-zeros`` is a band with some entries outside the own block set to
    +0.0 or -0.0 (symmetrically), and ``zero`` a band of +0.0 and -0.0."""
    B = rng.standard_normal((n, n))
    Q = 0.0 * B if kind == "zero" else B @ B.T
    if kind != "dense":
        off = np.ones((n, n), dtype=bool)
        off[sl] = off[:, sl] = False
        Q[off] = 0.0
        if kind == "band-signed" and off.any():
            Q[tuple(np.argwhere(off)[0])] = -0.0
        if kind == "band-zeros":
            cross = ~off & (rng.uniform(size=(n, n)) < 0.3)
            cross[sl, sl] = False
            cross |= cross.T
            Q[cross] = np.where(rng.uniform(size=(n, n)) < 0.5, 0.0, -0.0)[cross]
    return Q


@st.composite
def affine_specs(draw):
    """Random quadratic specs with affine constraints: 1-6 players, blocks
    of 1-5 variables, 0-5 constraints each, on box, nonneg, simplex and ball
    sets, each player's objective dense or zero outside its own rows and
    columns; the numbers come from a drawn seed."""
    N = draw(st.integers(1, 6))
    dims = draw(st.lists(st.integers(1, 5), min_size=N, max_size=N))
    ms = draw(st.lists(st.integers(0, 5), min_size=N, max_size=N))
    kinds = draw(st.lists(st.sampled_from(["box", "nonneg", "simplex", "ball"]),
                          min_size=N, max_size=N))
    shapes = draw(st.lists(st.sampled_from(["band", "band", "dense", "band-signed"]),
                           min_size=N, max_size=N))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = G.BlockLayout(tuple(dims))
    n = layout.n
    players = []
    for dim, m, kind, shape, sl in zip(dims, ms, kinds, shapes, layout.slices):
        cons = [(np.zeros((n, n)), _signed(rng, n), float(_signed(rng, 1)[0])) for _ in range(m)]
        players.append(library.QuadraticPlayerSpec(_objective(shape, sl, rng, n),
                                                   _signed(rng, n), _sets(kind, dim, rng), cons))
    return library.QuadraticGnepSpec(layout, players, "random-affine"), rng


@settings(deadline=None, max_examples=60)
@given(affine_specs())
def test_batched_sweep_is_bitwise_the_closure_sweep(drawn):
    spec, rng = drawn
    game = spec.to_game()
    twin = closure_twin(game)
    assert game.quadratic is not None and twin.quadratic is None
    points = [np.zeros(game.n), _signed(rng, game.n),
              game.project_private(3.0 * rng.standard_normal(game.n))]
    for x in points:
        assert point_bits(evaluate_point(game, x)) == point_bits(evaluate_point(twin, x))


@settings(deadline=None, max_examples=60)
@given(affine_specs())
def test_band_products_are_the_dense_products(drawn):
    # the own entries of every gradient (all the iterates read) are bit for
    # bit the dense Q_i @ x; the other entries sum only a band's terms, so
    # they agree within twice the rounding bound of an n-term dot product
    spec, rng = drawn
    game = spec.to_game()
    q, n = game.quadratic, game.n
    Q = np.array([p.Q for p in spec.players])
    b = np.array([p.b for p in spec.players])
    own = game.layout.own_entries
    for i, (p, sl) in enumerate(zip(spec.players, game.layout.slices)):
        off = np.ones((n, n), dtype=bool)
        off[sl] = off[:, sl] = False
        off_band = p.Q[off]
        kept_dense = bool(np.any(off_band != 0.0) or np.any(np.signbit(off_band)))
        assert (i in q.dense_players) == kept_dense
        assert dense_objective(q, i).tobytes() == p.Q.tobytes()
    for x in (_signed(rng, n), game.project_private(3.0 * rng.standard_normal(n))):
        grads = evaluate_point(game, x).theta_grads
        dense = np.matmul(Q, x) + b
        assert grads.ravel()[own].tobytes() == dense.ravel()[own].tobytes()
        tol = 2 * n * np.finfo(float).eps * (np.matmul(np.abs(Q), np.abs(x)) + np.abs(b))
        assert np.all(np.abs(grads - dense) <= tol)


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


def _laid_out(values, layout):
    """The 2-D ``values`` in a ``c`` (C order), ``transposed`` (F order) or
    ``strided`` (every second column of a wider array) memory layout."""
    if layout == "transposed":
        return np.ascontiguousarray(values.T).T
    if layout == "strided":
        wide = np.zeros((values.shape[0], 2 * values.shape[1]))
        wide[:, ::2] = values
        return wide[:, ::2]
    return values


def check_segment_reductions(segs, rng, A=None, base=None, layout="c"):
    """Segments' dot, norm, max_abs (and matvec and vecmat_add on ``A`` and
    ``base``) against one product per segment of C-ordered operands, bit for
    bit, with the operands passed in ``layout``."""
    parts = [slice(lo, hi) for lo, hi in zip(segs.bounds, segs.bounds[1:])]
    a, b = _signed(rng, (3, segs.total)), _signed(rng, (3, segs.total))
    la, lb = _laid_out(a, layout), _laid_out(b, layout)
    assert bits(segs.dot(la, lb)) == bits([[a[k, s] @ b[k, s] for s in parts] for k in range(3)])
    assert bits(segs.dot(la[0], lb[0])) == bits([a[0, s] @ b[0, s] for s in parts])
    assert bits(segs.norm(la[0])) == bits([np.linalg.norm(a[0, s]) for s in parts])
    assert bits(segs.max_abs(la[0])) == bits([np.abs(a[0, s]).max(initial=0.0) for s in parts])
    if A is None:
        A = _signed(rng, (segs.total, 7))
        base = _signed(rng, (len(parts), 7))
    x, lA = _signed(rng, A.shape[1]), _laid_out(A, layout)
    assert bits(segs.matvec(lA, x)) == bits(np.concatenate([A[s] @ x for s in parts]))
    assert bits(segs.vecmat_add(base, la[0], lA)) == bits(
        [base[i] + A[s].T @ a[0, s] if s.stop > s.start else base[i]
         for i, s in enumerate(parts)])


def _run_patterns():
    """Segment lengths that alternate (``[2, 1, 2, 1]``) or repeat one length
    with empty segments between and within its runs (``[0, 3, 0, 3, 3]``)."""
    alternating = st.builds(lambda u, v, k: [u, v] * k,
                            st.integers(0, 24), st.integers(0, 24), st.integers(1, 4))
    zero_separated = st.builds(lambda w, keep: [w if k else 0 for k in keep],
                               st.integers(1, 24), st.lists(st.booleans(), min_size=1, max_size=8))
    return alternating | zero_separated


@settings(deadline=None, max_examples=100)
@given(_run_patterns() | st.lists(st.integers(0, 24), min_size=1, max_size=8),
       st.sampled_from(["c", "transposed", "strided"]), st.integers(0, 2**32 - 1))
def test_segment_reductions_are_the_per_segment_products(counts, layout, seed):
    # long and mixed segments, several runs of one length, and operands
    # without a unit stride along the segments: short dot products round
    # alike however they are laid out, long ones only from C-ordered operands
    check_segment_reductions(Segments(tuple(counts)), np.random.default_rng(seed), layout=layout)


@settings(deadline=None, max_examples=60)
@given(affine_specs())
def test_stacked_consumers_are_the_per_player_forms(drawn):
    # the grouped reductions over players' constraint rows and blocks (row
    # counts 0-5 and block sizes 1-5 mixed in one game, with band-coupled,
    # band-signed and dense objectives mixed too), the Lagrangian values
    # (the general per-player formula at z = 0 and mu = lam) and the
    # projected-gradient x-part against their per-player forms, all bit for bit
    spec, rng = drawn
    game = spec.to_game()
    n, M = game.n, game.total_constraints
    x = game.project_private(3.0 * rng.standard_normal(n))
    point = evaluate_point(game, x)
    lam = np.abs(_signed(rng, M))
    J, grads = point.g_jacobians, point.theta_grads
    check_segment_reductions(game.rows, rng, J, grads)
    check_segment_reductions(game.layout.segments, rng)
    rows = [slice(lo, hi) for lo, hi in zip(game.rows.bounds, game.rows.bounds[1:])]
    pen = PenaltyParams(float(rng.uniform(0.5, 20.0)), float(rng.uniform(0.5, 5.0)))
    assert bits(lagrangian_values(point, lam, game.rows)) == bits(
        [lagrangian_from_values(point.theta[i], point.g_values[s],
                                PlayerDualState(np.zeros_like(lam[s]), lam[s], lam[s]),
                                pen.alpha, pen.beta)
         for i, s in enumerate(rows)])
    assert bits(projected_gradient_x(game, point, lam)) == bits(per_player_qx(game, point, lam))


def per_player_qx(game, point, lam):
    """Each player's projected-gradient x-part from its own slices: the
    step residual of ``grads[i, sl] + J[s, sl].T @ lam[s]``."""
    x, J, grads, b = point.x, point.g_jacobians, point.theta_grads, game.rows.bounds
    want = []
    for i, (p, sl) in enumerate(zip(game.players, game.layout.slices)):
        s = slice(b[i], b[i + 1])
        own = grads[i, sl] + (J[s, sl].T @ lam[s] if p.m else 0.0)
        want.append(np.linalg.norm(x[sl] - p.private_set.project(x[sl] - own)))
    return want


@pytest.mark.parametrize("shape", [(3, 1, 4), (2, 2, 4), (2, 3, 6)])
def test_projected_gradient_x_part_sums_many_rows_as_each_player_does(shape):
    # with four or more rows a player's own-block product J[s, sl].T @ lam[s]
    # rounds by J's row stride (a gathered copy of the columns does not), so
    # the batched x-part must read the columns in place; interior points, so
    # that no projection hides a last-bit difference
    for seed in range(10):
        game = library.gen_random_quadratic(*shape, seed=seed)
        rng = np.random.default_rng(seed)
        for _ in range(3):
            x = np.concatenate([p.private_set.sample_interior(rng) for p in game.players])
            point = evaluate_point(game, x)
            lam = rng.exponential(size=game.total_constraints)
            qx = projected_gradient_x(game, point, lam)
            assert bits(qx) == bits(per_player_qx(game, point, lam))


@pytest.mark.parametrize("make_game", [
    library.make_example3,
    library.make_a18_electricity,
    lambda: library.gen_arrow_debreu(5, 2, 3, seed=0),
], ids=["example3", "a18", "arrow-debreu"])
def test_builtin_batched_sweeps_are_bitwise_the_closure_sweeps(make_game, monkeypatch):
    # example3 and arrow-debreu have curved (quadratic) constraints, whose
    # values and Jacobians the batched sweep takes from the players' oracles;
    # all three agree bit for bit, and the iterates of a short solve do not
    # depend on which sweep runs
    game = make_game()
    twin = closure_twin(game)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = game.project_private(rng.standard_normal(game.n) * 2.0)
        assert point_bits(evaluate_point(game, x)) == point_bits(evaluate_point(twin, x))
    x0 = game.project_private(np.full(game.n, 0.5))
    cfg = G.SolverConfig(max_outer=40)
    a = G.solve(game, x0, cfg)
    monkeypatch.setattr(lagrangian, "_stacked_sweep", lagrangian._oracle_sweep)
    b = G.solve(game, x0, cfg)
    assert a.state.x.tobytes() == b.state.x.tobytes()
    assert [r.L_values.tobytes() for r in a.trace.rows] == [r.L_values.tobytes() for r in b.trace.rows]


def held_arrays(game):
    """Every array the players (fields, oracle defaults and closure cells)
    and the quadratic stack hold."""
    out = []
    for p in game.players:
        for fn in (p.objective, p.gradient, p.constraints, p.constraint_jacobian):
            out += [v for v in (fn.__defaults__ or ()) if isinstance(v, np.ndarray)]
            out += [c.cell_contents for c in (fn.__closure__ or ())
                    if isinstance(c.cell_contents, np.ndarray)]
        out += [getattr(p, f) for f in p.__dataclass_fields__
                if isinstance(getattr(p, f), np.ndarray)]
    q = game.quadratic
    return out + [q.G, *q.bands, q.b, q.C, q.D, q.dense, *q.hessians.values()]


@pytest.mark.parametrize("spec, curved", [
    (library.random_quadratic_spec(40, 4, 2, seed=1)[0], []),
    (library.a18_spec(), []),
    (library.example3_spec(), [0, 1]),
], ids=["quad-wide", "a18", "example3"])
def test_players_read_views_of_the_stacked_data(spec, curved):
    # the players' oracles read the stack itself, which rebuilds every Q
    # byte for byte from its bands: these games are band-coupled, so no Q
    # is kept dense, and no array shares memory with the spec's; only
    # curved players keep constraint Hessians, and no array of the instance
    # is an all-zero (m, n, n) one with m > 0 (the empty dense stack holds
    # no numbers)
    game = spec.to_game()
    q, n = game.quadratic, game.n
    assert sorted(q.hessians) == curved and q.dense_players == ()
    for i, (ps, p) in enumerate(zip(spec.players, game.players)):
        assert dense_objective(q, i).tobytes() == np.asarray(ps.Q, dtype=float).tobytes()
        for fn in (p.objective, p.gradient):
            assert any(d is q for d in fn.__defaults__)
            assert any(np.shares_memory(q.b, d) for d in fn.__defaults__[1:])
        if i in q.hessians:
            assert any(np.shares_memory(q.hessians[i], d) for d in p.constraints.__defaults__)
    held = held_arrays(game)
    assert all(not np.shares_memory(a, ps.Q) for a in held for ps in spec.players)
    for a in held:
        assert not (a.ndim == 3 and len(a) and a.shape[1:] == (n, n) and not np.any(a))
    assert q.C.shape == (game.total_constraints, n)


def test_stack_lists_exactly_the_curved_players():
    # Arrow-Debreu: consumers (budgets) and firms (balls) are curved, the
    # price player is unconstrained; a18 and the random games are affine
    ad = library.gen_arrow_debreu(5, 2, 3, seed=0)
    assert sorted(ad.quadratic.hessians) == list(range(7))
    assert all(np.any(A) and A.shape == (1, ad.n, ad.n) for A in ad.quadratic.hessians.values())
    assert library.gen_random_quadratic(3, 2, 2, seed=4).quadratic.hessians == {}


@st.composite
def objective_stacks(draw):
    """Unconstrained quadratic specs of 1-6 players with blocks of 1-5
    variables (so one-player games and blocks with 2w >= n occur), whose
    stacks are all band, all dense or mixed; bands may be zero and hold
    +0.0 and -0.0 entries."""
    N = draw(st.integers(1, 6))
    dims = draw(st.lists(st.integers(1, 5), min_size=N, max_size=N))
    pool = draw(st.sampled_from([("band", "band-zeros", "zero"), ("dense", "band-signed"),
                                 ("band", "band-zeros", "zero", "dense", "band-signed")]))
    shapes = draw(st.lists(st.sampled_from(pool), min_size=N, max_size=N))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = G.BlockLayout(tuple(dims))
    n = layout.n
    return library.QuadraticGnepSpec(layout, [
        library.QuadraticPlayerSpec(_objective(shape, sl, rng, n), np.zeros(n), _sets("box", dim, rng))
        for dim, shape, sl in zip(dims, shapes, layout.slices)])


@settings(deadline=None, max_examples=100)
@given(objective_stacks())
def test_objective_norms_are_the_dense_norms(spec):
    # the norms from each band's rank-2w factors are those of the whole Q_i
    # rebuilt dense, within 1e-12 relative (and exactly 0 for a zero Q_i)
    q = spec.to_game().quadratic
    want = np.concatenate([spectral_norms(dense_objective(q, i)[None])
                           for i in range(q.layout.num_blocks)])
    got = _objective_norms(q)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * want)


def test_quadratic_estimator_solves_no_eigenproblem_larger_than_2w(monkeypatch):
    # quad-wide's shape (40 players, blocks of 4, n = 160): the estimator's
    # set-up takes every ||Q_i|| from Grams of at most 2w x 2w = 8 x 8, and
    # still matches the norms of the dense Q_i
    game, _ = library.gen_random_quadratic_with_plant(40, 4, 2, seed=1)
    q, eigvalsh, shapes = game.quadratic, np.linalg.eigvalsh, []

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a)[-2:])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    got = G.LipschitzEstimator(game).estimate(np.zeros(game.n), np.zeros(game.total_constraints))
    monkeypatch.undo()
    assert shapes and max(max(s) for s in shapes) <= 8
    want = np.concatenate([spectral_norms(dense_objective(q, i)[None]) for i in range(40)])
    assert np.all(np.abs(got.L_theta - want) <= 1e-12 * want)
