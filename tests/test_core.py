"""Projections, block arithmetic, and instance validation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gnepsolve.core import (
    BlockLayout,
    GameInstance,
    PlayerProblem,
    SimpleSet,
    max_abs,
    self_dots,
    validate_instance,
)
from gnepsolve import library
from gnepsolve.lagrangian import QUIET
from conftest import step_from


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


def test_box_projection_clamps():
    box = SimpleSet.box([0.0, 0.0], [1.0, np.inf])
    np.testing.assert_array_equal(box.project(np.array([3.0, -2.0])), [1.0, 0.0])


@pytest.mark.parametrize("lower, upper", [([1.0], [0.0]), ([np.nan], [1.0]), ([0.0], [np.nan])])
def test_box_rejects_crossed_or_nan_bounds(lower, upper):
    # a NaN bound fails every comparison, so it must not pass as "not crossed"
    with pytest.raises(ValueError, match="lower <= upper"):
        SimpleSet.box(lower, upper)


def test_simplex_projection_identity_on_simplex():
    s = SimpleSet.simplex(3)
    v = np.array([1 / 3, 1 / 3, 1 / 3])
    np.testing.assert_allclose(s.project(v), v, atol=1e-15)


def brute_force_simplex_projection(v, steps=400):
    """Dense grid search over the 2-simplex for the nearest point."""
    best, best_d = None, np.inf
    for i in range(steps + 1):
        for j in range(steps + 1 - i):
            p = np.array([i / steps, j / steps, 1.0 - (i + j) / steps])
            d = float(np.sum((p - v) ** 2))
            if d < best_d:
                best, best_d = p, d
    return best


@pytest.mark.parametrize("v", [np.array([1.0, 0.0, 0.0]), np.array([2.0, 0.0, 0.0])])
def test_simplex_projection_vertex_cases(v):
    # both project to the vertex (1,0,0); cross-checked by grid search
    got = SimpleSet.simplex(3).project(v)
    ref = brute_force_simplex_projection(v)
    np.testing.assert_allclose(got, [1.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(got, ref, atol=5e-3)


def test_simplex_projection_generic_matches_grid():
    v = np.array([0.9, 0.4, -0.2])
    got = SimpleSet.simplex(3).project(v)
    ref = brute_force_simplex_projection(v)
    assert abs(np.sum(got) - 1.0) <= 1e-12
    np.testing.assert_allclose(got, ref, atol=5e-3)


def test_simplex_projection_of_a_huge_or_non_finite_entry_raises_nothing():
    # the largest entry always qualifies in exact arithmetic, but fails the
    # rounded test when it is huge (1e20 - 1 rounds to 1e20) or not finite:
    # the projection stays finite for a finite block, and a NaN or +inf
    # entry gives NaN entries, for the finiteness checks downstream to find
    s = SimpleSet.simplex(2)
    assert np.isfinite(s.project(np.array([1e20, 1.0]))).all()
    assert s.project(np.array([-np.inf, 1.0])).tolist() == [0.0, 1.0]
    for bad in (np.nan, np.inf):
        with np.errstate(invalid="ignore"):   # inf - inf, as under solve's errstate
            assert np.isnan(s.project(np.array([bad, 1.0]))).any()


def test_ball_projection_fixed_point():
    b = SimpleSet.ball(3, radius=2.0)
    v = np.array([3.0, -1.0, 4.0])
    p = b.project(v)
    assert np.all(p >= 0)
    assert np.linalg.norm(p) <= 2.0 + 1e-12
    np.testing.assert_allclose(b.project(p), p, atol=1e-12)


def test_projection_dimension_mismatch():
    with pytest.raises(ValueError):
        SimpleSet.nonneg(3).project(np.zeros(2))


_sets = [
    SimpleSet.box([-1.0, 0.0, -np.inf], [2.0, 0.5, np.inf]),
    SimpleSet.nonneg(3),
    SimpleSet.simplex(3),
    SimpleSet.ball(3, 1.5),
]


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.floats(-50, 50), min_size=3, max_size=3),
    st.lists(st.floats(-50, 50), min_size=3, max_size=3),
    st.integers(0, len(_sets) - 1),
)
def test_projection_idempotent_and_nonexpansive(u, v, idx):
    s = _sets[idx]
    u, v = np.array(u), np.array(v)
    pu, pv = s.project(u), s.project(v)
    np.testing.assert_allclose(s.project(pu), pu, atol=1e-12)
    assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12


# ---------------------------------------------------------------------------
# block layout
# ---------------------------------------------------------------------------


def test_block_get_and_offsets():
    layout = BlockLayout((2, 1))
    x = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(x[layout.block_slice(1)], [3.0])
    assert BlockLayout((3, 3)).offsets == (0, 3)
    assert BlockLayout((3, 3)).n == 6


@settings(deadline=None, max_examples=60)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=8))
def test_block_offsets_and_slices(dims):
    layout = BlockLayout(tuple(dims))
    assert layout.offsets == tuple(sum(dims[:i]) for i in range(len(dims)))
    assert layout.slices == tuple(slice(sum(dims[:i]), sum(dims[:i + 1]))
                                  for i in range(len(dims)))
    x = np.arange(float(layout.n))
    np.testing.assert_array_equal(np.concatenate([x[sl] for sl in layout.slices]), x)
    for i in range(len(dims)):
        assert layout.block_slice(i) == layout.slices[i]
    for bad in (-1, len(dims)):
        with pytest.raises(IndexError):
            layout.block_slice(bad)


def test_layout_rejects_empty_blocks():
    with pytest.raises(ValueError):
        BlockLayout((2, 0))


# ---------------------------------------------------------------------------
# instance validation
# ---------------------------------------------------------------------------


def test_validate_example3_gradients():
    rep = validate_instance(library.make_example3(), samples=100, seed=0)
    assert rep.all_finite
    assert rep.gradient_error <= 1e-6
    assert rep.jacobian_error <= 1e-6


def test_validate_a18_convexity():
    rep = validate_instance(library.make_a18_electricity(), samples=100, seed=1)
    assert rep.all_finite
    assert rep.convexity_violation <= 1e-9   # objectives convex-quadratic per block


def _faulty_game(objective=None, constraints=None):
    """Two players on [-1, 1] with objectives x_i^2 and no constraints;
    player 1 takes the faulty objective given, or one row with the faulty
    constraint oracle given."""
    def player(i, f=None, g=None):
        m = int(g is not None)
        return PlayerProblem(
            objective=f or (lambda x: float(x[i] ** 2)),
            gradient=lambda x: 2.0 * x * (np.arange(2) == i),
            constraints=g or (lambda x: np.zeros(0)),
            constraint_jacobian=lambda x: np.zeros((m, 2)),
            private_set=SimpleSet.box([-1.0], [1.0]), m=m)
    return GameInstance((player(0), player(1, objective, constraints)), BlockLayout((1, 1)), "faulty")


def test_validate_flags_nan_oracle():
    # faulty oracles are reported, not raised: all_finite is False and every
    # note names player 1 and the faulty field. The objective is NaN near
    # the origin; the constraint oracle raises FloatingPointError; the
    # objective raises from its 6th call on, past the sampled point's value
    # and its four finite differences, so only at the first midpoint end
    def raising(x):
        raise FloatingPointError("overflow")

    calls = []

    def raises_late(x):
        calls.append(1)
        if len(calls) > 5:
            raise FloatingPointError("overflow")
        return float(x[1] ** 2)

    cases = [
        (_faulty_game(objective=lambda x: float("nan") if abs(x[1]) < 0.5 else float(x[1] ** 2)),
         40, "player 1: non-finite objective", None),
        (_faulty_game(constraints=raising), 1, "player 1: constraint oracle raised",
         ["player 1: constraint oracle raised at sampled point",
          "player 1: constraint oracle raised along segment"]),
        (_faulty_game(objective=raises_late), 1, "player 1: objective oracle raised",
         ["player 1: objective oracle raised along segment"]),
    ]
    for game, samples, prefix, notes in cases:
        rep = validate_instance(game, samples=samples, seed=3)
        assert not rep.all_finite and rep.notes
        assert all(n.startswith(prefix) for n in rep.notes)
        assert notes is None or rep.notes == notes


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_validate_huge_finite_oracle_values_raise_no_numpy_warning():
    # constraint values near -1e308 are finite, so no note is written, and
    # the overflow of their midpoint sum raises no NumPy warning and reports
    # no infinite gap
    game = _faulty_game(constraints=lambda x: np.array([-0.9e308 + x[1]]))
    rep = validate_instance(game, samples=2, seed=0)
    assert rep.all_finite and rep.notes == []
    # the affine row's midpoint gap is zero up to rounding at 1e308: the
    # ends are halved one by one where their sum overflows
    assert 0.0 <= rep.convexity_violation <= 1e292


def test_oracle_determinism_bitwise():
    game = library.make_a18_electricity()
    x = np.random.default_rng(5).standard_normal(12)
    for p in game.players:
        assert p.objective(x) == p.objective(x)
        np.testing.assert_array_equal(p.gradient(x), p.gradient(x))
        np.testing.assert_array_equal(p.constraints(x), p.constraints(x))


# ---------------------------------------------------------------------------
# joint projection
# ---------------------------------------------------------------------------

_EDGE_VALUES = [-np.inf, -1.5, -0.0, 0.0, 0.5, np.inf]
_BOUNDS = st.sampled_from(_EDGE_VALUES) | st.floats(-5.0, 5.0)
_COORDS = st.sampled_from([-0.0, 0.0]) | st.floats(-50.0, 50.0)


@st.composite
def _private_sets(draw):
    kind = draw(st.sampled_from(("box", "nonneg", "simplex", "ball")))
    dim = draw(st.integers(1, 4))
    if kind == "box":
        a = draw(st.lists(_BOUNDS, min_size=dim, max_size=dim))
        b = draw(st.lists(_BOUNDS, min_size=dim, max_size=dim))
        return SimpleSet.box(np.minimum(a, b), np.maximum(a, b))
    if kind == "ball":
        return SimpleSet.ball(dim, draw(st.floats(0.1, 3.0)))
    return SimpleSet(kind, dim)


def _set_only_game(sets):
    def player(s):
        return PlayerProblem(objective=lambda x: 0.0, gradient=np.zeros_like,
                             constraints=lambda x: np.zeros(0),
                             constraint_jacobian=lambda x: np.zeros((0, x.shape[0])),
                             private_set=s, m=0)
    return GameInstance(tuple(player(s) for s in sets),
                        BlockLayout(tuple(s.dim for s in sets)))


@settings(deadline=None, max_examples=150)
@given(st.lists(_private_sets(), min_size=1, max_size=6), st.data())
def test_project_private_matches_blockwise_projection(sets, data):
    # bit for bit, signed zeros included, against SimpleSet.project per block
    game = _set_only_game(sets)
    x = np.array(data.draw(st.lists(_COORDS, min_size=game.n, max_size=game.n)))
    ref = np.concatenate([s.project(x[sl]) for s, sl in zip(sets, game.layout.slices)])
    assert game.project_private(x).tobytes() == ref.tobytes()


@st.composite
def _clipped_blocks(draw):
    """Box and nonneg blocks, and a point whose coordinates include their
    bounds, signed zeros, NaN and infinities."""
    sets = draw(st.lists(_private_sets().filter(lambda s: s.kind in ("box", "nonneg")),
                         min_size=1, max_size=6))
    edges = {float(b) for s in sets if s.kind == "box" for b in (*s.lower, *s.upper)}
    coords = st.sampled_from(sorted(edges) + [-0.0, 0.0, np.nan]) | _COORDS | st.sampled_from(
        [-np.inf, np.inf])
    n = sum(s.dim for s in sets)
    return sets, np.array(draw(st.lists(coords, min_size=n, max_size=n)))


@settings(deadline=None, max_examples=150)
@given(_clipped_blocks())
def test_step_projection_matches_blockwise_projection(drawn):
    # the joint-row step clips the box and nonneg blocks straight into the
    # new row with the clip ufunc: bit for bit SimpleSet.project per block,
    # signed zeros, NaN and infinities included. With zero objective data
    # and gamma 1 the point it projects is x - 0.0 / 1.0, x's own bits
    sets, x = drawn
    game = _set_only_game(sets)
    N, n = game.num_players, game.n
    with np.errstate(**QUIET):   # inf - inf in the move, as in solve's loop
        store, _ = step_from(game, x, np.zeros(0), np.zeros((N, n)), np.zeros((0, n)),
                             np.ones(N), 1.0)
    ref = np.concatenate([s.project(x[sl]) for s, sl in zip(sets, game.layout.slices)])
    assert store["z"][1, :n].tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# vector measures
# ---------------------------------------------------------------------------

_TINY = 5e-324   # smallest subnormal
_MEASURE_COORDS = (st.sampled_from([-0.0, 0.0, _TINY, -_TINY, 2.2e-308, -1e-310,
                                    np.inf, -np.inf, 1e200, -1e155])
                   | st.floats(allow_nan=False) | st.floats(-10.0, 10.0))


@settings(deadline=None, max_examples=300)
@given(st.lists(_MEASURE_COORDS, min_size=0, max_size=40), st.integers(1, 3))
def test_vector_measures_match_numpy_bit_for_bit(coords, step):
    # empty vectors, signed zeros, subnormals, overflow and infinities; on the
    # vector and on a strided view of it, and the self dots of a stack of two
    full = np.array(coords, dtype=float)
    for v in (full, full[::step]):
        assert np.float64(max_abs(v)).tobytes() == np.max(np.abs(v), initial=0.0).tobytes()
    pair = np.stack([full, full[::-1]])
    with np.errstate(over="ignore"):
        assert np.sqrt(self_dots(pair)).tobytes() == np.array(
            [np.linalg.norm(v) for v in pair]).tobytes()
