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
from gnepsolve.core import DualStack, PlayerDualState, Segments
from gnepsolve.lagrangian import (PenaltyParams, evaluate_point, lagrangian_from_values,
                                  lagrangian_values, projected_gradient_parts)

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


@st.composite
def affine_specs(draw):
    """Random quadratic specs with affine constraints: 1-6 players, blocks
    of 1-3 variables, 0-3 constraints each, on box, nonneg, simplex and ball
    sets; the numbers come from a drawn seed."""
    N = draw(st.integers(1, 6))
    dims = draw(st.lists(st.integers(1, 3), min_size=N, max_size=N))
    ms = draw(st.lists(st.integers(0, 3), min_size=N, max_size=N))
    kinds = draw(st.lists(st.sampled_from(["box", "nonneg", "simplex", "ball"]),
                          min_size=N, max_size=N))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = G.BlockLayout(tuple(dims))
    n = layout.n
    players = []
    for dim, m, kind in zip(dims, ms, kinds):
        B = rng.standard_normal((n, n))
        cons = [(np.zeros((n, n)), _signed(rng, n), float(_signed(rng, 1)[0])) for _ in range(m)]
        players.append(library.QuadraticPlayerSpec(B @ B.T, _signed(rng, n),
                                                   _sets(kind, dim, rng), cons))
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


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


def check_segment_reductions(segs, rng, A=None, base=None):
    """Segments' dot, norm, max_abs (and matvec and vecmat_add on ``A`` and
    ``base``) against one product per segment, bit for bit."""
    parts = [slice(lo, hi) for lo, hi in zip(segs.bounds, segs.bounds[1:])]
    a, b = _signed(rng, (3, segs.total)), _signed(rng, (3, segs.total))
    assert bits(segs.dot(a, b)) == bits([[a[k, s] @ b[k, s] for s in parts] for k in range(3)])
    assert bits(segs.dot(a[0], b[0])) == bits([a[0, s] @ b[0, s] for s in parts])
    assert bits(segs.norm(a[0])) == bits([np.linalg.norm(a[0, s]) for s in parts])
    assert bits(segs.max_abs(a[0])) == bits([np.abs(a[0, s]).max(initial=0.0) for s in parts])
    if A is None:
        A = _signed(rng, (segs.total, 7))
        base = _signed(rng, (len(parts), 7))
    x = _signed(rng, A.shape[1])
    assert bits(segs.matvec(A, x)) == bits(np.concatenate([A[s] @ x for s in parts]))
    assert bits(segs.vecmat_add(base, a[0], A)) == bits(
        [base[i] + A[s].T @ a[0, s] if s.stop > s.start else base[i]
         for i, s in enumerate(parts)])


@settings(deadline=None, max_examples=60)
@given(st.lists(st.integers(0, 24), min_size=1, max_size=8), st.integers(0, 2**32 - 1))
def test_segment_reductions_are_the_per_segment_products(counts, seed):
    # long and mixed segments: short dot products round alike however they
    # are gathered, long ones only from a C-ordered gather
    check_segment_reductions(Segments(tuple(counts)), np.random.default_rng(seed))


@settings(deadline=None, max_examples=60)
@given(affine_specs())
def test_stacked_consumers_are_the_per_player_forms(drawn):
    # the grouped reductions over players' constraint rows and blocks (row
    # counts 0-3 and block sizes 1-3 mixed in one game), the Lagrangian
    # values and the projected-gradient x-part against their per-player
    # forms, all bit for bit
    spec, rng = drawn
    game = spec.to_game()
    n, M = game.n, game.total_constraints
    x = game.project_private(3.0 * rng.standard_normal(n))
    point = evaluate_point(game, x)
    z, lam, mu = _signed(rng, M), np.abs(_signed(rng, M)), np.abs(_signed(rng, M))
    duals = DualStack(z, lam, mu, game.rows)
    J, grads = point.g_jacobians, point.theta_grads
    check_segment_reductions(game.rows, rng, J, grads)
    check_segment_reductions(game.layout.segments, rng)
    rows = [slice(lo, hi) for lo, hi in zip(game.rows.bounds, game.rows.bounds[1:])]
    pen = PenaltyParams(float(rng.uniform(0.5, 20.0)), float(rng.uniform(0.5, 5.0)))
    assert bits(lagrangian_values(point, duals, pen)) == bits(
        [lagrangian_from_values(point.theta[i], point.g_values[s],
                                PlayerDualState(z[s], lam[s], mu[s]), pen.alpha, pen.beta)
         for i, s in enumerate(rows)])
    qx = projected_gradient_parts(game, point, duals, pen)[0]
    want = []
    for i, (p, s, sl) in enumerate(zip(game.players, rows, game.layout.slices)):
        own = grads[i, sl] + (J[s, sl].T @ lam[s] if p.m else 0.0)
        want.append(np.linalg.norm(x[sl] - p.private_set.project(x[sl] - own)))
    assert bits(qx) == bits(want)


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
    return out + [q.Q, q.b, q.C, q.D, *q.hessians.values()]


@pytest.mark.parametrize("spec, curved", [
    (library.random_quadratic_spec(40, 4, 2, seed=1)[0], []),
    (library.a18_spec(), []),
    (library.example3_spec(), [0, 1]),
], ids=["quad-wide", "a18", "example3"])
def test_players_read_views_of_the_stacked_data(spec, curved):
    # the players' oracles share the stacked arrays' memory: the stack costs
    # no second copy of the Qs; only curved players keep constraint
    # Hessians, and no array of the instance is an all-zero (m, n, n) one
    game = spec.to_game()
    q = game.quadratic
    assert sorted(q.hessians) == curved
    for i, (ps, p) in enumerate(zip(spec.players, game.players)):
        assert q.Q[i].tobytes() == np.asarray(ps.Q, dtype=float).tobytes()
        for fn in (p.objective, p.gradient):
            assert any(np.shares_memory(q.Q[i], d) for d in fn.__defaults__)
        if i in q.hessians:
            assert any(np.shares_memory(q.hessians[i], d) for d in p.constraints.__defaults__)
    for a in held_arrays(game):
        assert not (a.ndim == 3 and a.shape[1:] == (game.n, game.n) and not np.any(a))
    assert q.C.shape == (game.total_constraints, game.n)


def test_stack_lists_exactly_the_curved_players():
    # Arrow-Debreu: consumers (budgets) and firms (balls) are curved, the
    # price player is unconstrained; a18 and the random games are affine
    ad = library.gen_arrow_debreu(5, 2, 3, seed=0)
    assert sorted(ad.quadratic.hessians) == list(range(7))
    assert all(np.any(A) and A.shape == (1, ad.n, ad.n) for A in ad.quadratic.hessians.values())
    assert library.gen_random_quadratic(3, 2, 2, seed=4).quadratic.hessians == {}
