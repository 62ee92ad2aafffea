"""The built-in batched oracles against the per-player closure sweep.

A game built from a ``QuadraticGnepSpec`` carries its data stacked over
players (``game.quadratic``), and its batched oracle computes every
player's values from a few whole-array products; ``power`` computes its rate
terms for every link at once. The same players without the batched oracle
take the per-player closure loop; both must give the same bits.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gnepsolve as G
from gnepsolve import lagrangian, library
from gnepsolve.core import PlayerDualState, Segments, row_dots, run_matvec
from gnepsolve.core import objective_norms, spectral_norms
from gnepsolve.lagrangian import (QUIET, PenaltyParams, evaluate_point,
                                  lagrangian_from_values, lagrangian_values, projected_gradient_x)
import reference
from conftest import (QUAD_SHAPES, blocks_of, dense_objective, detach_batched_oracle,
                      row_states, sampled_user_game)

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
    """Segments' dot, norm, max_abs (and the matvec of its row runs and
    vecmat_add on ``A`` and ``base``) against one product per segment of
    C-ordered operands, bit for bit, with the operands passed in
    ``layout``; vecmat_add over a leading axis of points, with ``A`` shared
    or stacked along it, against its one-point sums."""
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
    assert bits(run_matvec(segs.row_runs(lA), x)) == bits(np.concatenate([A[s] @ x for s in parts]))
    assert bits(segs.vecmat_add(base.copy(), la[0], lA)) == bits(
        [base[i] + A[s].T @ a[0, s] if s.stop > s.start else base[i]
         for i, s in enumerate(parts)])
    for As in (lA, np.stack([A, _signed(rng, A.shape), A[::-1]])):
        assert bits(segs.vecmat_add(np.stack([base] * 3), la, As)) == bits(
            [segs.vecmat_add(base.copy(), la[k], As if As.ndim == 2 else As[k]) for k in range(3)])


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
    assert bits(lagrangian_values(point.theta, point.g_values, lam, game.rows)) == bits(
        [lagrangian_from_values(point.theta[i], point.g_values[s],
                                PlayerDualState(np.zeros_like(lam[s]), lam[s], lam[s]),
                                pen.alpha, pen.beta)
         for i, s in enumerate(rows)])
    assert bits(point_qx(game, point, lam)) == bits(per_player_qx(game, point, lam))


def point_qx(game, point, lam):
    """:func:`projected_gradient_x` at one oracle sweep ``point``."""
    own_grad = point.theta_grads.ravel()[game.layout.own_entries]
    return projected_gradient_x(game, point.x, lam, own_grad, point.g_jacobians)


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


def check_qx_block(game, rng, R):
    """:func:`projected_gradient_x` over a leading axis of ``R`` points, with
    their Jacobians stacked (and shared, when every Jacobian is constant),
    against one call per point, bit for bit."""
    X = np.array([game.project_private(3.0 * rng.standard_normal(game.n)) for _ in range(R)])
    points = [evaluate_point(game, x) for x in X]
    lam = rng.exponential(size=(R, game.total_constraints))
    own = np.array([p.theta_grads.ravel()[game.layout.own_entries] for p in points])
    J = np.array([p.g_jacobians for p in points])
    want = bits([point_qx(game, p, row) for p, row in zip(points, lam)])
    assert bits(projected_gradient_x(game, X, lam, own, J)) == want
    if all(map(game.constant_jacobian, range(game.num_players))):
        assert bits(projected_gradient_x(game, X, lam, own, J[0])) == want


@settings(deadline=None, max_examples=40)
@given(affine_specs(), st.integers(1, 4), st.integers(1, 3))
def test_leading_axis_helpers_are_the_per_row_calls(drawn, R, S):
    # the forms the trace rows are built with, over (R, .) and (S, R, .):
    # the projection (box and nonneg blocks clipped at once, simplex and ball
    # blocks row by row), the per-segment largest entry over constraint rows
    # and blocks, and the projected-gradient x-part, each bit for bit its
    # per-row call
    spec, rng = drawn
    game = spec.to_game()
    V = 3.0 * _signed(rng, (S, R, game.n))
    assert bits(game.project_private(V)) == bits([[game.project_private(v) for v in s] for s in V])
    for seg, a in ((game.rows, _signed(rng, (S, R, game.total_constraints))),
                   (game.layout.segments, V)):
        assert bits(seg.max_abs(a[0])) == bits([seg.max_abs(row) for row in a[0]])
        assert bits(seg.max_abs(a)) == bits([[seg.max_abs(row) for row in s] for s in a])
    check_qx_block(game, rng, R)


@settings(deadline=None, max_examples=40)
@given(affine_specs(), st.integers(1, 4), st.integers(1, 3))
def test_quadratic_step_and_products_over_leading_axes_are_the_one_point_forms(drawn, R, S):
    # every Q_i @ x over (R, n) and (S, R, n) points, band, band-signed and
    # dense players mixed, also given the points' own rows G @ x as the
    # quadratic step keeps them; the step from each point (several runs of
    # constraint rows, players without rows, simplex and ball blocks)
    # against the reference path, bit for bit
    spec, rng = drawn
    game = spec.to_game()
    q = game.quadratic
    X = 3.0 * _signed(rng, (S, R, game.n))
    assert bits(q.products(X[0])) == bits([q.products(x) for x in X[0]])
    assert bits(q.products(X)) == bits([[q.products(x) for x in s] for s in X])
    kept = np.array([[np.matmul(q.G, x) for x in s] for s in X])
    assert bits(q.products(X[0], own_rows=kept[0])) == bits(q.products(X[0]))
    assert bits(q.products(X, own_rows=kept)) == bits(q.products(X))
    lam = np.abs(_signed(rng, game.total_constraints))
    gamma = rng.uniform(0.5, 5.0, game.num_players)
    for x in X[0]:
        check_step(game, x, lam, gamma, float(rng.uniform(0.5, 5.0)))


def check_step(game, x, lam, gamma, beta):
    """``solve``'s step from ``(x, lam)`` (``solver._step``, from the
    objective data it keeps: ``G @ x`` with stacked quadratic data, else the
    oracle's gradients) against the reference path: the full sweep at
    ``x``, ``build_anchor`` and ``solve_inner``, bit for bit. The new row is
    the new point and multipliers, its halves views of it; the constraint
    values and Jacobian are the sweep's there, and so are the own-block
    gradients of the new objective data and, without stacked data, the
    oracle's objective values and gradients."""
    q, point = game.quadratic, evaluate_point(game, x)
    want = reference.solve_inner(game, reference.build_anchor(game, lam, gamma, point),
                                 G.SolverConfig(beta=beta))
    new, (x_new, lam_new, g, obj, theta), J = G.solver._step(
        game, x, lam, point.theta_grads if q is None else np.matmul(q.G, x),
        G.solver._jacobian_gathers(game, point.g_jacobians), game.layout.segments.repeat(gamma),
        beta)
    assert bits(new) == bits(np.concatenate([want.x_next, want.lam]))
    assert x_new.base is new and lam_new.base is new
    assert bits(x_new) == bits(want.x_next) and bits(lam_new) == bits(want.lam)
    assert bits(g) == bits(want.point.g_values) and bits(J) == bits(want.point.g_jacobians)
    assert (bits(G.solver._own_grads(game, obj))
            == bits(reference.own_objective_grads(game, want.point)))
    if q is None:
        assert bits(obj) == bits(want.point.theta_grads) and bits(theta) == bits(want.point.theta)
    else:
        assert theta is None


def assorted_game():
    """Five players: a simplex block and a ball block with two affine rows
    each (one run of constraint rows), the ball player's ``Q`` dense; a box
    player without rows; a nonneg player with a curved row and an affine
    one; a box player with three affine rows: three runs."""
    rng = np.random.default_rng(11)
    layout = G.BlockLayout((2, 2, 1, 3, 1))
    n, players = layout.n, []
    sets = [G.SimpleSet.simplex(2), G.SimpleSet.ball(2, 1.5), G.SimpleSet.box([-1.0], [1.0]),
            G.SimpleSet.nonneg(3), G.SimpleSet.box([-2.0], [2.0])]
    for i, (sl, pset, shape, m) in enumerate(zip(layout.slices, sets,
                                                 ("band", "dense", "band", "band", "band"),
                                                 (2, 2, 0, 2, 3))):
        Q = _objective(shape, sl, rng, n)
        Q[sl, sl] += 2.0 * np.eye(sl.stop - sl.start)
        cons = [(None, rng.standard_normal(n), 0.2 + rng.uniform()) for _ in range(m)]
        if i == 3:
            A = np.zeros((n, n))
            A[sl, sl] = 2.0 * np.eye(3)
            cons[0] = (A, rng.standard_normal(n), 0.5)
        players.append(library.QuadraticPlayerSpec(Q, rng.standard_normal(n), pset, cons))
    return library.QuadraticGnepSpec(layout, players, "assorted").to_game()


def check_rows_are_reference_steps(monkeypatch, game, x0):
    """Every row of a 60-iteration run of ``game`` from ``x0`` is the
    reference step (the full sweep at row k-1's point, ``build_anchor`` at
    its multipliers with row k's gamma, ``solve_inner``) bit for bit, and
    the multipliers move."""
    blocks = []
    trace_rows = G.solver._trace_rows
    monkeypatch.setattr(G.solver, "_trace_rows",
                        lambda *args: (blocks.append((args, None)), trace_rows(*args))[1])
    cfg = G.SolverConfig(max_outer=60, outer_tol=1e-14)
    res = G.solve(game, x0, cfg)
    states = row_states(blocks, res.outer_iterations)
    assert res.outer_iterations == len(states) == 60
    for row, ((y, lam), (x_next, lam_next)) in zip(res.trace.rows, states):
        want = reference.solve_inner(
            game, reference.build_anchor(game, lam, row.gamma, evaluate_point(game, y)), cfg)
        assert bits(x_next) == bits(want.x_next) and bits(lam_next) == bits(want.lam)
    assert len({bits(lam) for (_, lam), _ in states}) > 30


def test_quadratic_step_rows_are_the_reference_steps(monkeypatch):
    # every row of a run of the assorted game (three runs of constraint
    # rows, a player without rows, simplex and ball blocks, a curved and a
    # dense player) is the reference step bit for bit, as is the step at
    # points off the run
    game = assorted_game()
    q = game.quadratic
    assert len(game.constrained_runs) == 3 and game.rows.counts[2] == 0
    assert q.dense_players == (1,) and list(q.hessians) == [3]
    check_rows_are_reference_steps(monkeypatch, game, np.zeros(game.n))
    rng = np.random.default_rng(5)
    for _ in range(5):
        check_step(game, 3.0 * rng.standard_normal(game.n),
                   rng.exponential(size=game.total_constraints),
                   rng.uniform(0.5, 5.0, game.num_players), 1.0)


def power_without_batched_oracle():
    game = library.builtin_instance("power")
    detach_batched_oracle(game)
    return game


@pytest.mark.parametrize("make_game, scale", [
    (lambda: library.builtin_instance("power"), 5.0),
    (power_without_batched_oracle, 5.0),
    (lambda: closure_twin(assorted_game()), 3.0),
], ids=["power", "power-per-player", "user-built"])
def test_oracle_step_rows_are_the_reference_steps(monkeypatch, make_game, scale):
    # a game without stacked quadratic data takes the same step from its
    # oracles' gradients: power through its batched oracle and through the
    # per-player loop, and the assorted game's players as a user-built game
    # (the gathers of three runs of constraint rows, simplex and ball
    # blocks, a curved player); every row and the step at points off the
    # run are the reference step bit for bit
    game = make_game()
    assert game.quadratic is None
    check_rows_are_reference_steps(monkeypatch, game, np.zeros(game.n))
    rng = np.random.default_rng(5)
    for _ in range(5):
        check_step(game, game.project_private(scale * rng.standard_normal(game.n)),
                   rng.exponential(size=game.total_constraints),
                   rng.uniform(0.5, 5.0, game.num_players), 1.0)


def shaped_game(shapes, seed):
    """Three players (blocks of 2, 3 and 1 variables in boxes, 2, 0 and 1
    affine rows) whose objectives have ``shapes`` (see :func:`_objective`)."""
    rng = np.random.default_rng(seed)
    layout, players = G.BlockLayout((2, 3, 1)), []
    for shape, sl, d, m in zip(shapes, layout.slices, layout.dims, (2, 0, 1)):
        Q = _objective(shape, sl, rng, layout.n)
        Q[sl, sl] += 3.0 * np.eye(d)
        players.append(library.QuadraticPlayerSpec(
            Q, rng.standard_normal(layout.n), G.SimpleSet.box(-np.ones(d), np.ones(d)),
            [(None, rng.standard_normal(layout.n), -0.5) for _ in range(m)]))
    return library.QuadraticGnepSpec(layout, players, "-".join(shapes)).to_game()


@pytest.mark.parametrize("make_game, dense", [
    (lambda: library.gen_random_quadratic(2, 3, 2, seed=116), 0),
    (lambda: shaped_game(("dense",) * 3, 1), 3),
    (lambda: shaped_game(("band", "dense", "band-signed"), 2), 2),
    (library.make_example3, 0),
    (lambda: library.builtin_instance("power"), None),
], ids=["band", "all-dense", "mixed", "example3", "power"])
def test_block_pass_objective_values_and_slopes_are_the_one_row_values(monkeypatch, make_game,
                                                                        dense):
    # a run's rows, in blocks of 64 rows and chunks of three points:
    # products over a leading axis of points are the per-point products, and
    # the block pass's objective values and model slopes (led by each
    # chunk's anchor, carried from chunk to chunk, from the rows' G @ x that
    # the iterations kept) are the full sweep's values at each row's point
    # and the slopes of the full anchor at the previous one; example3's
    # Jacobians move and are stacked by row; power's rows hand over their
    # oracle values and gradients, and its Jacobians move
    game = make_game()
    q, N, n = game.quadratic, game.num_players, game.n
    assert (q is None and dense is None) or len(q.dense_players) == dense
    blocks, trace_rows = [], G.solver._trace_rows
    monkeypatch.setattr(G.solver, "_trace_rows", lambda *args: (blocks.append(args[1:3]),
                                                                trace_rows(*args))[1])
    monkeypatch.setattr(G.solver, "_STACK_BYTES", 3 * 8 * N * n)
    blocks_of(monkeypatch, 64)
    res = G.solve(game, np.zeros(n), G.SolverConfig(max_outer=70, outer_tol=1e-14))
    assert res.outer_iterations == 70 and len(blocks) == 2
    for (_, x_a, lam_a, J_a, _, obj_a), pending in blocks:
        x, lam, g, obj, values, *moving = map(list, zip(*pending))
        x_prev, lam_prev = [x_a] + x[:-1], [lam_a] + lam[:-1]
        X = np.array(x)
        dx = X - np.array(x_prev)   # the loop's steps
        if q is not None:
            assert bits(q.products(X)) == bits([q.products(p) for p in X])
        J = J_a if G.LipschitzEstimator(game).fixed else np.array(moving[0])
        theta, slope = G.solver._objective_rows(game, (x_a, lam_a, J_a, obj_a), X, np.array(lam),
                                                np.array(g), J, dx, np.array(obj),
                                                None if q is not None else np.array(values))
        assert len(theta) == len(slope) == len(pending)
        for j in range(len(pending)):
            assert bits(theta[j]) == bits(evaluate_point(game, x[j]).theta)
            anchor = reference.build_anchor(game, lam_prev[j], np.ones(N),
                                            evaluate_point(game, x_prev[j]))
            assert bits(slope[j]) == bits(row_dots(anchor.grads, dx[j]))


@pytest.mark.parametrize("make_game", [
    lambda: library.gen_random_quadratic(3, 1, 4, seed=101),
    lambda: library.gen_arrow_debreu(3, 2, 3, seed=0),
    lambda: library.builtin_instance("power"),
], ids=["randquad-3x1x4", "arrow-debreu", "power"])
@settings(deadline=None, max_examples=15)
@given(R=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_projected_gradient_x_block_is_the_per_point_values(make_game, R, seed):
    # four rows per one-variable block, whose own-column products round by
    # J's row stride; a simplex block and curved budgets (Jacobians stacked);
    # power's Jacobians, which move with x
    check_qx_block(make_game(), np.random.default_rng(seed), R)


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
            qx = point_qx(game, point, lam)
            assert bits(qx) == bits(per_player_qx(game, point, lam))


@pytest.mark.parametrize("make_game", [
    library.make_example3,
    library.make_a18_electricity,
    lambda: library.gen_arrow_debreu(5, 2, 3, seed=0),
    lambda: library.gen_power_allocation(3, 4, 1.5, 0.3162, seed=2),
    lambda: library.gen_power_allocation(2, 2, 1.0, 0.3162, seed=4),
], ids=["example3", "a18", "arrow-debreu", "power-3x4", "power-2x2"])
def test_builtin_batched_sweeps_are_bitwise_the_closure_sweeps(make_game):
    # example3 and arrow-debreu have curved (quadratic) constraints, whose
    # values and Jacobians the batched sweep takes from the players' oracles;
    # power's links read rows of its batched rate terms (zero powers among
    # the projected points); all agree bit for bit, and the iterates of a
    # short solve do not depend on which sweep runs
    game = make_game()
    twin = closure_twin(game)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = game.project_private(rng.standard_normal(game.n) * 2.0)
        assert point_bits(evaluate_point(game, x)) == point_bits(evaluate_point(twin, x))
    x0 = game.project_private(np.full(game.n, 0.5))
    cfg = G.SolverConfig(max_outer=40)
    a = G.solve(game, x0, cfg)
    detach_batched_oracle(game)   # the same game, swept by the per-player loop
    b = G.solve(game, x0, cfg)
    assert a.state.x.tobytes() == b.state.x.tobytes()
    assert [r.L_values.tobytes() for r in a.trace.rows] == [r.L_values.tobytes() for r in b.trace.rows]


@st.composite
def power_points(draw):
    """A power game of 1-4 links on 1-5 channels with drawn gains, rate
    targets and noise, and a nonnegative point with some zero powers."""
    L, C = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    gains = draw(st.lists(st.floats(1e-3, 10.0), min_size=L * L * C, max_size=L * L * C))
    targets = draw(st.lists(st.floats(0.1, 5.0), min_size=L, max_size=L))
    noise = draw(st.floats(1e-2, 2.0))
    x = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e3)), min_size=L * C,
                      max_size=L * C))
    gains = np.reshape(gains, (L, L, C))
    game = library.gen_power_allocation(L, C, targets, noise, gains=gains)
    return game, np.array(x), (gains, np.array(targets), noise ** 2)


def link_reference(gains, targets, noise_power, nu, x):
    """Link ``nu``'s constraint value and Jacobian row, one link at a time."""
    L, _, C = gains.shape
    pw, h_own, h_cross = x.reshape(L, C), gains[nu, nu], gains[nu]
    den = noise_power + np.einsum("mc,mc->c", h_cross, pw) - h_cross[nu] * pw[nu]
    s = h_own * pw[nu] / den
    common = 1.0 / ((1.0 + s) * math.log(2.0))
    row = np.zeros((L, C))
    row[nu] = -common * h_own / den
    for mu in range(L):
        if mu != nu:
            row[mu] = common * h_own * pw[nu] * h_cross[mu] / den ** 2
    return targets[nu] - float(np.sum(np.log1p(s)) / math.log(2.0)), row.reshape(1, L * C)


@settings(deadline=None, max_examples=100)
@given(power_points())
def test_power_batched_sweep_is_bitwise_its_links_and_the_oracle_loop(drawn):
    # the batched sweep, each link's own four oracles and the per-player loop
    # read the one implementation of the rate terms, so every bit agrees;
    # it is also bit for bit the link-at-a-time formula
    game, x, data = drawn
    fields = game.batched_oracle(x)
    loop = lagrangian._oracle_sweep(game, x)
    assert [f.tobytes() for f in fields] == [f.tobytes() for f in loop]
    theta, grads, g, jac = fields
    for i, p in enumerate(game.players):
        assert np.float64(p.objective(x)).tobytes() == theta[i].tobytes()
        assert p.gradient(x).tobytes() == grads[i].tobytes()
        assert p.constraints(x).tobytes() == g[i:i + 1].tobytes()
        assert p.constraint_jacobian(x).tobytes() == jac[i:i + 1].tobytes()
        value, row = link_reference(*data, i, x)
        assert np.float64(value).tobytes() == g[i].tobytes()
        assert row.tobytes() == jac[i:i + 1].tobytes()


@st.composite
def power_stacks(draw):
    """A power game of 1-5 links on 1-5 channels with drawn gains, rate
    targets and noise, and a (2, P, n) stack of nonnegative points with zero
    and large powers among them."""
    L, C, P = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 4))
    gains = draw(st.lists(st.floats(1e-3, 10.0), min_size=L * L * C, max_size=L * L * C))
    targets = draw(st.lists(st.floats(0.1, 5.0), min_size=L, max_size=L))
    noise = draw(st.floats(1e-2, 2.0))
    size = 2 * P * L * C
    x = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e3), st.floats(1e6, 1e12)),
                      min_size=size, max_size=size))
    game = library.gen_power_allocation(L, C, targets, noise, gains=np.reshape(gains, (L, L, C)))
    return game, np.reshape(x, (2, P, L * C))


@settings(deadline=None, max_examples=100)
@given(power_stacks())
def test_power_oracles_over_leading_axes_are_bitwise_the_one_point_calls(drawn):
    # the batched oracle and each link's constraint oracles take any leading
    # axes of x; every point's entries are the one-point call's bits
    # (a large power can cancel the interference to 0, an infinite SINR: see
    # the test below; both sides then hold the same infinities and NaNs)
    game, X = drawn
    with np.errstate(**QUIET):
        fields = game.batched_oracle(X)
        links = [(p.constraints(X), p.constraint_jacobian(X)) for p in game.players]
        for j in np.ndindex(X.shape[:-1]):
            one = game.batched_oracle(X[j])
            assert [f.shape for f in fields] == [X.shape[:-1] + f.shape for f in one]
            assert [f[j].tobytes() for f in fields] == [f.tobytes() for f in one]
            for p, (g, jac) in zip(game.players, links):
                assert g[j].tobytes() == p.constraints(X[j]).tobytes()
                assert jac[j].tobytes() == p.constraint_jacobian(X[j]).tobytes()


@pytest.mark.xfail(strict=True, reason="rate_terms forms the interference as the sum over every "
                   "link less the own term, which cancels to 0 when the own term dwarfs the noise")
def test_power_rate_stays_finite_at_a_large_own_power():
    # one link, gain 10, noise 1e-4, power 1e12: the SINR is 1e17, the rate
    # log2(1 + 1e17); noise + 1e13 rounds to 1e13, so den is 0 and s inf
    game = library.gen_power_allocation(1, 1, [1.0], 0.01, gains=np.full((1, 1, 1), 10.0))
    with np.errstate(**QUIET):
        _, _, g, jac = game.batched_oracle(np.array([1e12]))
    assert np.isfinite(g).all() and np.isfinite(jac).all()
    assert g[0] == pytest.approx(1.0 - math.log2(1.0 + 1e17))


def test_raw_sweep_over_a_stack_without_a_batched_oracle_is_the_stacked_point_sweeps():
    # a game without a batched oracle sweeps a stack of points one point at a
    # time; the fields are the one-point sweeps stacked over the leading axes
    game = sampled_user_game()
    assert game.batched_oracle is None
    X = game.project_private(np.random.default_rng(4).standard_normal((2, 3, game.n)))
    fields = lagrangian.raw_sweep(game, X)
    points = [lagrangian.raw_sweep(game, x) for x in X.reshape(-1, game.n)]
    for field, one in zip(fields, zip(*points)):
        assert field.shape == X.shape[:-1] + one[0].shape
        assert field.tobytes() == np.stack(one).tobytes()


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
    # no numbers); the spec holds each Q by its band alone
    game = spec.to_game()
    q, n = game.quadratic, game.n
    assert sorted(q.hessians) == curved and q.dense_players == ()
    assert all(ps.dense is None for ps in spec.players)
    for i, (ps, p) in enumerate(zip(spec.players, game.players)):
        assert dense_objective(q, i).tobytes() == np.asarray(ps.Q, dtype=float).tobytes()
        for fn in (p.objective, p.gradient):
            assert any(d is q for d in fn.__defaults__)
            assert any(np.shares_memory(q.b, d) for d in fn.__defaults__[1:])
        if i in q.hessians:
            assert any(np.shares_memory(q.hessians[i], d) for d in p.constraints.__defaults__)
    held = held_arrays(game)
    spec_arrays = [s for ps in spec.players for s in (ps.Q, ps.rows, ps.cols)]
    assert all(not np.shares_memory(a, s) for a in held for s in spec_arrays)
    for a in held:
        assert not (a.ndim == 3 and len(a) and a.shape[1:] == (n, n) and not np.any(a))
    assert q.C.shape == (game.total_constraints, n)


def densified(spec):
    """The same game with every ``Q_i`` given whole (``spec.Q``, made from
    its band) and every affine row's Hessian as an all-zero ``(n, n)``
    array: the game the band arrays and ``None`` Hessians stand for."""
    n = spec.layout.n
    return library.QuadraticGnepSpec(spec.layout, [
        library.QuadraticPlayerSpec(ps.Q, ps.b, ps.private_set,
                                    [(np.zeros((n, n)) if A is None else A, c, d)
                                     for A, c, d in ps.constraints])
        for ps in spec.players], spec.name)


def dense_loop_spec(N, w, m, seed):
    """``random_quadratic_spec`` drawn one rival block at a time into a
    dense ``Q_i`` per player, with an all-zero Hessian per affine row: the
    reference for its band form."""
    rng = np.random.default_rng(seed)
    layout = G.BlockLayout((w,) * N)
    n = layout.n
    plant = rng.uniform(-1.0, 1.0, n)
    players = []
    for i, sl in enumerate(layout.slices):
        Q = np.zeros((n, n))
        B = rng.standard_normal((w, w))
        Q[sl, sl] = B @ B.T / w + np.eye(w)
        for j, slj in enumerate(layout.slices):
            if j != i:
                C = 0.3 / max(1, N - 1) * rng.standard_normal((w, w))
                Q[sl, slj] += C
                Q[slj, sl] += C.T
        b, cons = rng.standard_normal(n), []
        for _ in range(m):
            c = rng.standard_normal(n)
            c /= np.linalg.norm(c)
            cons.append((np.zeros((n, n)), c, -float(c @ plant) - rng.uniform(0.1, 1.0)))
        players.append(library.QuadraticPlayerSpec(
            Q, b, G.SimpleSet.box(np.full(w, -10.0), np.full(w, 10.0)), cons))
    return library.QuadraticGnepSpec(layout, players), plant


def stack_bits(q):
    return ([a.tobytes() for a in (q.G, *q.bands, q.b, q.C, q.D, q.dense)],
            [a.shape for a in (q.G, *q.bands, q.dense)], q.dense_players,
            {i: A.tobytes() for i, A in q.hessians.items()})


@pytest.mark.parametrize("shape, seed", [
    (shape, 100 + 7 * s + si) for si, shape in enumerate(QUAD_SHAPES) for s in range(4)
] + [((40, 4, 2), seed) for seed in (1, 2, 3)])
def test_band_built_stack_is_the_densified_specs(shape, seed):
    # the generator writes each Q_i into its band and gives affine rows no
    # Hessian; the stack is byte for byte the one the whole Q_i and zero
    # Hessians give, which a spec splits at construction, and the one the
    # generator's dense loop form gives, with the same plant
    spec, plant = library.random_quadratic_spec(*shape, seed=seed)
    whole = densified(spec)
    loop, loop_plant = dense_loop_spec(*shape, seed)
    assert all(ps.dense is None for ps in whole.players + loop.players)
    q = spec.to_game().quadratic
    assert stack_bits(q) == stack_bits(whole.to_game().quadratic)
    assert stack_bits(q) == stack_bits(loop.to_game().quadratic)
    assert plant.tobytes() == loop_plant.tobytes()
    for i, ps in enumerate(spec.players):
        assert dense_objective(q, i).tobytes() == ps.Q.tobytes()


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
    got = objective_norms(q)
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
