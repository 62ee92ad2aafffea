"""Built-in instances, generators, and the qgnep/1 file format."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gnepsolve as G
from gnepsolve import library
from gnepsolve.core import AdmissibilityError
from gnepsolve.diagnostics import best_response_gap
from conftest import fast_config


# ---------------------------------------------------------------------------
# two-circle game
# ---------------------------------------------------------------------------


def test_example3_constraints_active_at_solution(ex3_game):
    x = np.array([1.0, 0.0])
    for p in ex3_game.players:
        assert p.constraints(x)[0] == pytest.approx(0.0, abs=1e-14)
    assert ex3_game.players[0].objective(x) == pytest.approx(1.0)


def test_example3_unique_joint_feasible_point(ex3_game):
    # scan a grid over [-2,3]^2: only (1,0) satisfies both disk constraints
    xs = np.linspace(-2.0, 3.0, 101)
    feasible = []
    for a in xs:
        for b in xs:
            x = np.array([a, b])
            if all(p.constraints(x)[0] <= 1e-9 for p in ex3_game.players):
                feasible.append((a, b))
    assert feasible == [(1.0, 0.0)]


def test_example3_equilibrium_certificates(ex3_game, ex3_tight):
    # at (1,0): the moving player sits at its disk boundary with multiplier 1;
    # the other player's constraint gradient vanishes so any multiplier works
    res = ex3_tight
    assert res.status == "converged"
    np.testing.assert_allclose(res.state.x, [1.0, 0.0], atol=1e-6)
    for i in range(2):
        gap = best_response_gap(ex3_game, res.state.x, i)
        assert abs(gap) <= 1e-4


# ---------------------------------------------------------------------------
# electricity market
# ---------------------------------------------------------------------------


def scalar_a18_reference(x):
    """Plain-float reimplementation of the market data (independent of the
    instance oracles)."""
    s1 = 40.0 - 40.0 / 500.0 * (x[0] + x[3] + x[6] + x[9])
    s2 = 35.0 - 35.0 / 400.0 * (x[1] + x[4] + x[7] + x[10])
    s3 = 32.0 - 32.0 / 600.0 * (x[2] + x[5] + x[8] + x[11])
    prices = [s1, s2, s3]
    thetas = []
    for pl in range(2):
        o = 6 * pl
        thetas.append(sum((15.0 - prices[r]) * (x[o + r] + x[o + r + 3]) for r in range(3)))
    cons = []
    for pl in range(2):
        o = 6 * pl
        rows = [-x[o + i] for i in range(6)]
        rows.append(x[o] + x[o + 1] + x[o + 2] - 100.0)
        rows.append(x[o + 3] + x[o + 4] + x[o + 5] - 50.0)
        for i in range(3):
            for j in range(3):
                if i != j:
                    rows.append(prices[j] - prices[i] - 1.0)
        cons.append(rows)
    return prices, thetas, cons


def test_a18_prices_at_origin(a18_game):
    prices, thetas, cons = scalar_a18_reference([0.0] * 12)
    assert prices == [40.0, 35.0, 32.0]
    assert thetas == [0.0, 0.0]
    np.testing.assert_allclose(library.a18_prices(np.zeros(12)), [40.0, 35.0, 32.0])
    assert a18_game.players[0].objective(np.zeros(12)) == pytest.approx(0.0)
    # x=0 is infeasible: the 1-2 price gap 40-35=5>1 violates by 4, and the
    # worst pair (1-3, gap 8) violates by 7
    g0 = a18_game.players[0].constraints(np.zeros(12))
    assert g0[10] == pytest.approx(4.0)   # price1 - price2 - 1 = 40 - 35 - 1
    assert max(g0) == pytest.approx(7.0)  # price1 - price3 - 1 = 40 - 32 - 1


def test_a18_oracles_match_scalar_reference(a18_game):
    rng = np.random.default_rng(12)
    points = [np.zeros(12), np.full(12, 1.0), np.full(12, 10.0)]
    points += [rng.uniform(0, 40, 12) for _ in range(7)]
    for x in points:
        prices, thetas, cons = scalar_a18_reference(list(map(float, x)))
        for pl in range(2):
            assert a18_game.players[pl].objective(x) == pytest.approx(thetas[pl], rel=1e-9, abs=1e-9)
            np.testing.assert_allclose(a18_game.players[pl].constraints(x), cons[pl],
                                       rtol=1e-9, atol=1e-9)


def test_a18_constraint_census(a18_game):
    assert a18_game.num_players == 2
    assert a18_game.n == 12
    assert all(p.m == 14 for p in a18_game.players)
    assert a18_game.total_constraints == 28


def test_a18_run_symmetric_and_on_aggregate_manifold(a18_run):
    # players are exchangeable and the dynamics preserve the symmetry exactly
    x = a18_run.state.x
    np.testing.assert_array_equal(x[:6], x[6:])
    # independent hand-solved variational equilibrium aggregates: with the
    # first/third price gap binding, own-region totals solve
    #   0.24 o1 = 25 - eta + 0.08 lam,  0.2625 o2 = 20 - eta,
    #   0.16 o3 = 17 - eta - (32/600) lam,
    #   o1+o2+o3 = 150,  price1 - price3 = 1
    # giving eta = 9.6025, lam = 18.75, o = (70.406, 39.610, 39.984)
    own = np.array([x[0] + x[3], x[1] + x[4], x[2] + x[5]])
    np.testing.assert_allclose(own, [70.40623, 39.60951, 39.98434], atol=0.6)
    prices = library.a18_prices(x)
    np.testing.assert_allclose(prices, [28.735, 28.068, 27.735], atol=0.2)


# ---------------------------------------------------------------------------
# power allocation
# ---------------------------------------------------------------------------


def scalar_rate(x, gains, noise_power, link, n_links, n_channels):
    total = 0.0
    for i in range(n_channels):
        den = noise_power
        for mu in range(n_links):
            if mu != link:
                den += gains[link][mu][i] * x[mu * n_channels + i]
        s = gains[link][link][i] * x[link * n_channels + i] / den
        total += math.log2(1.0 + s)
    return total


def test_power_rate_matches_scalar_reference():
    game = library.gen_power_allocation(3, 4, 1.5, 0.3162, seed=2)
    gains = None
    # rebuild the seeded gains exactly as the generator does
    rng = np.random.default_rng(2)
    gains = np.exp(rng.uniform(np.log(1e-2), np.log(1.0), size=(3, 3, 4)))
    x = np.abs(np.random.default_rng(5).standard_normal(12)) + 0.2
    for nu in range(3):
        rate = scalar_rate(list(map(float, x)), gains.tolist(), 0.3162 ** 2, nu, 3, 4)
        g = game.players[nu].constraints(x)[0]
        assert g == pytest.approx(1.5 - rate, rel=1e-10, abs=1e-10)


def test_power_interference_monotonicity():
    game = library.gen_power_allocation(3, 4, 1.5, 0.3162, seed=2)
    x = np.full(12, 1.0)
    x2 = x.copy()
    x2[4:] *= 2.0   # double every interferer of link 0
    g1 = game.players[0].constraints(x)[0]
    g2 = game.players[0].constraints(x2)[0]
    assert g2 > g1   # rate strictly decreases, so the residual grows


def test_power_single_link_matches_reference_oracle():
    game = library.gen_power_allocation(1, 3, 1.0, 0.3162, seed=6)
    res = G.solve(game, np.full(3, 0.5), fast_config(outer_tol=1e-7, max_outer=40000))
    assert res.status == "converged"
    gap = best_response_gap(game, res.state.x, 0)
    assert abs(gap) <= 1e-4


def test_power_rejects_bad_gains():
    with pytest.raises(ValueError):
        library.gen_power_allocation(2, 2, 1.0, 0.3162, gains=np.zeros((2, 2, 2)))


@pytest.mark.parametrize("field, bad", [(f, b) for f in ("target_rates", "noise_std", "gains")
                                        for b in (np.nan, np.inf)] + [("noise_std", 1e200)])
def test_power_rejects_non_finite_inputs(field, bad):
    # a NaN passes a "<= 0" test and an infinity is positive: both are refused,
    # as is a noise level whose square overflows
    args = {"target_rates": [1.0, 1.0], "noise_std": 0.3162, "gains": np.full((2, 2, 2), 0.5)}
    if field == "gains":
        args["gains"][0, 1, 1] = bad
    elif field == "target_rates":
        args["target_rates"] = [1.0, bad]
    else:
        args["noise_std"] = bad
    with pytest.raises(ValueError, match="finite"):
        library.gen_power_allocation(2, 2, **args)


# ---------------------------------------------------------------------------
# exchange economy
# ---------------------------------------------------------------------------


def test_arrow_debreu_share_columns_sum_to_one(ad_game):
    # the budget rows encode -q_ij on each firm-price cross block; summing the
    # budget-constraint dependence over consumers must recover each firm's
    # whole revenue exactly once
    K, I, J = 3, 5, 2
    p_off = (I + J) * K
    for j in range(J):
        yoff = (I + j) * K
        total = np.zeros((K, K))
        for i in range(I):
            A = ad_game.quadratic.hessians[i][0]
            total += A[yoff:yoff + K, p_off:p_off + K]
        np.testing.assert_allclose(total, -np.eye(K), atol=1e-12)


def test_arrow_debreu_budget_feasible_at_endowment(ad_game):
    K, I, J = 3, 5, 2
    p_off = (I + J) * K
    x = np.zeros(ad_game.n)
    x[p_off:] = 1.0 / K
    for i in range(I):
        p = ad_game.players[i]
        # the endowment enters as the price-block linear term of the budget row
        c = p.constraint_jacobian(np.zeros(ad_game.n))[0]
        endowment = -c[p_off:p_off + K]
        assert np.all(endowment > 0)
        xi = x.copy()
        xi[i * K:(i + 1) * K] = endowment
        assert p.constraints(xi)[0] == pytest.approx(0.0, abs=1e-12)


def test_arrow_debreu_deterministic(ad_game):
    other = library.gen_arrow_debreu(5, 2, 3, seed=0)
    x = np.random.default_rng(8).uniform(0, 1, ad_game.n)
    for p1, p2 in zip(ad_game.players, other.players):
        assert p1.objective(x) == p2.objective(x)
        np.testing.assert_array_equal(p1.constraints(x), p2.constraints(x))


def test_arrow_debreu_market_clears_at_solution(ad_run, ad_game):
    assert ad_run.status == "converged"
    x = ad_run.state.x
    p = x[-3:]
    z = library.arrow_debreu_excess_demand(ad_game, x)
    assert abs(p.sum() - 1.0) <= 1e-12
    assert np.all(p >= 0)
    assert np.all(z <= 1e-3)
    assert abs(p @ z) <= 1e-3


# ---------------------------------------------------------------------------
# random quadratic generator
# ---------------------------------------------------------------------------


def test_random_quadratic_deterministic():
    g1, p1 = library.gen_random_quadratic_with_plant(2, 2, 2, seed=17)
    g2, p2 = library.gen_random_quadratic_with_plant(2, 2, 2, seed=17)
    np.testing.assert_array_equal(p1, p2)
    x = np.random.default_rng(1).standard_normal(g1.n)
    for a, b in zip(g1.players, g2.players):
        assert a.objective(x) == b.objective(x)
        np.testing.assert_array_equal(a.constraints(x), b.constraints(x))


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_random_quadratic_planted_point_strictly_feasible(N, w, m, seed):
    # every constraint row strictly negative at the plant, the plant inside
    # every player's box (its own block), and every own block of Q_i
    # symmetric with curvature at least 1
    spec, plant = library.random_quadratic_spec(N, w, m, seed=seed)
    game = spec.to_game()
    for p, ps, sl in zip(game.players, spec.players, game.layout.slices):
        assert p.m == m and np.all(p.constraints(plant) < 0)
        assert np.array_equal(p.private_set.project(plant[sl]), plant[sl])
        own = ps.Q[sl, sl]
        assert np.array_equal(own, own.T)
        assert np.linalg.eigvalsh(own).min() >= 1.0 - 1e-12


def test_random_quadratic_single_player_matches_reference():
    game, plant = library.gen_random_quadratic_with_plant(1, 3, 2, seed=23)
    res = G.solve(game, plant, fast_config(outer_tol=1e-8, max_outer=40000))
    assert res.status == "converged"
    from gnepsolve.diagnostics import solve_best_response
    info = solve_best_response(game, res.state.x, 0)
    assert info.certified
    np.testing.assert_allclose(res.state.x, info.block, atol=1e-5)


# ---------------------------------------------------------------------------
# qgnep/1 files
# ---------------------------------------------------------------------------


def test_qgnep_round_trip_bitwise(tmp_path):
    spec, _ = library.random_quadratic_spec(2, 2, 2, seed=31)
    path = tmp_path / "game.qgnep.json"
    library.save_quadratic(spec, path)
    loaded = library.load_quadratic_spec(path)
    assert loaded.name == spec.name
    for a, b in zip(spec.players, loaded.players):
        np.testing.assert_array_equal(a.Q, b.Q)
        np.testing.assert_array_equal(a.b, b.b)
        for (A1, c1, d1), (A2, c2, d2) in zip(a.constraints, b.constraints):
            assert A1 is None and A2 is None   # affine rows: no Hessian, saved as zeros
            np.testing.assert_array_equal(A1, A2)
            np.testing.assert_array_equal(c1, c2)
            assert d1 == d2
    # bytes are reproducible as well
    path2 = tmp_path / "game2.qgnep.json"
    library.save_quadratic(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_qgnep_rejects_indefinite_own_block(tmp_path):
    # player 0's objective own block [[-0.1, b], [b, -0.1]], b = 0.4822, has
    # eigenvalue -0.1 - b; player 1's curved row diag(0, 0, 1, -0.25) has
    # own block diag(1, -0.25)
    spec, _ = library.random_quadratic_spec(2, 2, 1, seed=3)
    p = spec.players[0]
    for part in (p.rows, p.cols):   # its own block Q[:2, :2] is in both
        part[0, 0] = part[1, 1] = -0.1
    curved, _ = library.random_quadratic_spec(2, 2, 1, seed=3)
    _, c, d = curved.players[1].constraints[0]
    curved.players[1].constraints[0] = (np.diag([0.0, 0.0, 1.0, -0.25]), c, d)
    for bad, message in [(spec, "player 0: objective own block has eigenvalue -5.822e-01 < -1e-10"),
                         (curved, "player 1 constraint 0: own block has eigenvalue -2.500e-01 "
                                  "< -1e-10")]:
        path = tmp_path / "bad.qgnep.json"
        library.save_quadratic(bad, path)
        with pytest.raises(AdmissibilityError) as err:
            library.load_quadratic(path)
        assert str(err.value) == message


def test_random_quadratic_build_allocates_a_small_multiple_of_its_stack():
    # the generator writes each Q_i into its band and gives affine rows no
    # Hessian, so building the 60-player game allocates at most 3x the
    # stack's bytes (a dense Q_i per player and a zero (n, n) Hessian per
    # row peaked at 67x: 85 MB for a 1.3 MB stack)
    library.gen_random_quadratic_with_plant(2, 4, 2, seed=1)   # imports and caches
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        game, _ = library.gen_random_quadratic_with_plant(60, 4, 2, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    q = game.quadratic
    assert peak < 3 * sum(a.nbytes for a in (q.G, *q.bands, q.b, q.C, q.D, q.dense))


def test_affine_rows_without_hessian_validate_build_and_round_trip(tmp_path):
    # A = None: validate_psd skips the row, to_game gives it the affine
    # oracles, and the file writes the all-zero matrix, so its bytes are
    # those of the same game with zero Hessians; loading gives None back
    spec, _ = library.random_quadratic_spec(2, 2, 2, seed=31)
    n = spec.layout.n
    assert all(A is None for p in spec.players for A, _, _ in p.constraints)
    spec.validate_psd()
    game = spec.to_game()
    assert game.quadratic.hessians == {} and all(game.constant_jacobian(i) for i in range(2))
    zeros = library.QuadraticGnepSpec(spec.layout, [library.QuadraticPlayerSpec(
        p.Q, p.b, p.private_set, [(np.zeros((n, n)), c, d) for _, c, d in p.constraints])
        for p in spec.players], spec.name)
    path, zero_path = tmp_path / "none.json", tmp_path / "zeros.json"
    library.save_quadratic(spec, path)
    library.save_quadratic(zeros, zero_path)
    assert path.read_bytes() == zero_path.read_bytes()
    loaded = library.load_quadratic_spec(path)
    assert all(A is None for p in loaded.players for A, _, _ in p.constraints)
    # an A holding a -0.0 keeps its array (and its bits), and is still affine
    doc = json.loads(path.read_text())
    doc["players"][0]["constraints"][1]["A"][0][0] = -0.0
    path.write_text(json.dumps(doc))
    A = library.load_quadratic_spec(path).players[0].constraints[1][0]
    assert A.shape == (n, n) and np.signbit(A[0, 0]) and not np.any(A)
    assert library.load_quadratic(path).quadratic.hessians == {}


def test_asymmetric_data_fails_to_load_naming_the_player(tmp_path):
    # the oracles return Q x and A x + c, the gradients of 0.5 x'Q x and
    # 0.5 x'A x + c'x only for symmetric Q and A: with Q_0 = [[1, 2], [0, 1]]
    # player 0's gradient at (0.3, 0.7) was (1.7, 0.7), the central
    # differences (1.0, 1.0). Player 0's Q is kept whole (Q_0[1, 1] is off
    # its band); player 1's Q = [[0, 0], [3, 1]] is a band whose own column
    # is not its own row
    def spec(Q0, Q1, A=None):
        cons = [] if A is None else [(A, np.zeros(2), -1.0)]
        return library.QuadraticGnepSpec(G.BlockLayout((1, 1)), [
            library.QuadraticPlayerSpec(np.array(Q0), np.zeros(2), G.SimpleSet.free(1)),
            library.QuadraticPlayerSpec(np.array(Q1), np.zeros(2), G.SimpleSet.free(1), cons)])

    path = tmp_path / "asymmetric.json"
    library.save_quadratic(spec([[1.0, 2.0], [0.0, 1.0]], np.eye(2)), path)
    assert library.load_quadratic_spec(path).players[0].dense is not None
    with pytest.raises(AdmissibilityError) as err:
        library.load_quadratic(path)
    assert "players[0].Q" in str(err.value) and "not symmetric" in str(err.value)
    band = spec(np.eye(2), [[0.0, 0.0], [3.0, 1.0]])
    assert band.players[1].dense is None
    with pytest.raises(AdmissibilityError, match=r"players\[1\]\.Q"):
        band.to_game()
    with pytest.raises(AdmissibilityError, match=r"player 1 constraint 0.*constraints\[0\]\.A"):
        spec(np.eye(2), np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]])).to_game()
    # a mirror within 1e-10 of the largest entry (at least 1) is symmetric
    spec([[1.0, 2.0], [2.0 + 1e-11, 1.0]], np.eye(2), np.array([[1e3, 1.0], [1.0 + 1e-8, 1.0]])).to_game()


def test_duplicate_triplet_raises_format_error_naming_the_field(tmp_path):
    # a matrix given as {"triplets": [[i, j, v], ...]} lists each entry at
    # most once; a second (i, j) is an error, not a silent overwrite
    path = tmp_path / "triplets.json"
    doc = {"version": "qgnep/1", "layout": [1, 1], "players": [
        {"Q": {"triplets": [[0, 0, 2.0], [0, 1, 0.5], [1, 0, 0.5]]}, "b": [0.0, 0.0],
         "set": {"kind": "nonneg", "dim": 1},
         "constraints": [{"A": {"triplets": []}, "c": [1.0, 1.0], "d": -1.0}]},
        {"Q": {"triplets": [[1, 1, 2.0]]}, "b": [0.0, 0.0], "set": {"kind": "nonneg", "dim": 1}}]}
    path.write_text(json.dumps(doc))
    loaded = library.load_quadratic_spec(path)
    assert loaded.players[0].Q.tolist() == [[2.0, 0.5], [0.5, 0.0]]
    assert loaded.players[0].constraints[0][0] is None
    for parent, where in ((doc["players"][0]["Q"], "players[0].Q"),
                          (doc["players"][0]["constraints"][0]["A"], "players[0].constraints[0].A")):
        saved = list(parent["triplets"])
        parent["triplets"] = saved + [[0, 0, 3.0], [0, 0, 3.0]]
        path.write_text(json.dumps(doc))
        with pytest.raises(library.FormatError) as err:
            library.load_quadratic_spec(path)
        assert repr(where) in str(err.value) and "(0, 0) given twice" in str(err.value)
        parent["triplets"] = saved


def test_qgnep_parse_error_names_field(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"version": "qgnep/1", "layout": [1]}')
    with pytest.raises(library.FormatError) as err:
        library.load_quadratic(path)
    assert "players" in str(err.value)
    path.write_text("{not json")
    with pytest.raises(library.FormatError) as err2:
        library.load_quadratic(path)
    assert "line" in str(err2.value)


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _quadratic_specs(draw, max_dims=(3, 3), max_constraints=2):
    """Random qgnep/1 specs: block sizes, box/nonneg/free sets, and zero or
    nonzero constraint Hessians; the data need not be convex."""
    dims = draw(st.lists(st.integers(1, max_dims[1]), min_size=1, max_size=max_dims[0]))
    layout = G.BlockLayout(tuple(dims))
    n = layout.n

    def array(*shape):
        flat = draw(st.lists(_FLOATS, min_size=math.prod(shape), max_size=math.prod(shape)))
        return np.array(flat, dtype=float).reshape(shape)

    players = []
    for dim in dims:
        kind = draw(st.sampled_from(["box", "nonneg", "free"]))
        if kind == "box":
            a, b = array(dim), array(dim)
            pset = G.SimpleSet.box(np.minimum(a, b), np.maximum(a, b))
        else:
            pset = G.SimpleSet.nonneg(dim) if kind == "nonneg" else G.SimpleSet.free(dim)
        cons = [(array(n, n) if draw(st.booleans()) else np.zeros((n, n)), array(n), draw(_FLOATS))
                for _ in range(draw(st.integers(0, max_constraints)))]
        players.append(library.QuadraticPlayerSpec(array(n, n), array(n), pset, cons))
    return library.QuadraticGnepSpec(layout, players, draw(st.text(max_size=8)))


def _spec_bits(spec):
    def set_bits(s):
        return (s.kind, s.dim, None if s.lower is None else s.lower.tobytes(),
                None if s.upper is None else s.upper.tobytes())
    def hessian_bits(A):   # a None A (an all-+0.0 one, loaded) is saved as zeros
        return (np.zeros((spec.layout.n,) * 2) if A is None else A).tobytes()
    return (spec.name, spec.layout.dims,
            [(p.Q.tobytes(), p.b.tobytes(), set_bits(p.private_set),
              [(hessian_bits(A), c.tobytes(), np.float64(d).tobytes()) for A, c, d in p.constraints])
             for p in spec.players])


@settings(deadline=None, max_examples=60)
@given(_quadratic_specs())
def test_qgnep_round_trip_of_random_specs(tmp_path_factory, spec):
    folder = tmp_path_factory.mktemp("qgnep")
    first, second = folder / "first.json", folder / "second.json"
    library.save_quadratic(spec, first)
    loaded = library.load_quadratic_spec(first)
    assert _spec_bits(loaded) == _spec_bits(spec)
    library.save_quadratic(loaded, second)
    assert first.read_bytes() == second.read_bytes()


def _malformed_fields(doc):
    """(containing object, key, field name, bad values) for every field."""
    n = sum(doc["layout"])
    nan = float("nan")
    matrix = [None, "x", [[0.0] * (n + 1)] * (n + 1), [[nan] * n] * n,
              {"triplets": [[0, n, 1.0]]}, {"triplets": "x"}]
    vector = [None, "x", [0.0] * (n + 1), [nan] * n]
    out = [(doc, "version", "version", ["qgnep/2", None, 1]),
           (doc, "name", "name", [None, 5, ["a"]]),
           (doc, "layout", "layout", [None, "x", [], [0], [1.5], doc["layout"] + [1]]),
           (doc, "players", "players", [None, "x", {}])]
    for i, pd in enumerate(doc["players"]):
        where, dim = f"players[{i}]", doc["layout"][i]
        out += [(doc["players"], i, where, [None, "x", []]),
                (pd, "Q", f"{where}.Q", matrix),
                (pd, "b", f"{where}.b", vector),
                (pd, "set", f"{where}.set",
                 [None, "x", {"kind": "cube"}, {"kind": "nonneg"},
                  {"kind": "nonneg", "dim": dim + 1},
                  {"kind": "box", "lower": [1.0] * dim, "upper": [0.0] * dim}]),
                (pd, "constraints", f"{where}.constraints", [None, "x", {}])]
        for j, cd in enumerate(pd["constraints"]):
            cwhere = f"{where}.constraints[{j}]"
            out += [(pd["constraints"], j, cwhere, [None, "x", []]),
                    (cd, "A", f"{cwhere}.A", matrix),
                    (cd, "c", f"{cwhere}.c", vector),
                    (cd, "d", f"{cwhere}.d", [None, "x", [1.0], nan, float("inf")])]
    return out


# fields a file may leave out: version (wrong either way), name and constraints
_OPTIONAL = ("name", "constraints")


@settings(deadline=None, max_examples=100)
@given(_quadratic_specs(max_dims=(2, 2), max_constraints=1), st.data())
def test_qgnep_malformed_field_raises_format_error_naming_it(tmp_path_factory, spec, data):
    path = tmp_path_factory.mktemp("qgnep") / "bad.json"
    library.save_quadratic(spec, path)
    doc = json.loads(path.read_text())
    parent, key, name, bad = data.draw(st.sampled_from(_malformed_fields(doc)), label="field")
    if isinstance(key, str) and key not in _OPTIONAL and data.draw(st.booleans(), label="delete"):
        del parent[key]
    else:
        parent[key] = data.draw(st.sampled_from(bad), label="value")
    path.write_text(json.dumps(doc))
    with pytest.raises(library.FormatError) as err:
        library.load_quadratic_spec(path)
    assert repr(name) in str(err.value)


def test_example3_through_file_matches_builtin(tmp_path, ex3_game):
    path = tmp_path / "ex3.json"
    library.save_quadratic(library.example3_spec(), path)
    loaded = library.load_quadratic(path)
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = rng.standard_normal(2) * 2
        for i in range(2):
            assert loaded.players[i].objective(x) == ex3_game.players[i].objective(x)
            np.testing.assert_array_equal(loaded.players[i].constraints(x),
                                          ex3_game.players[i].constraints(x))
            np.testing.assert_array_equal(loaded.players[i].gradient(x),
                                          ex3_game.players[i].gradient(x))


def test_builtin_registry():
    assert library.builtin_instance("example3").name == "example3"
    with pytest.raises(KeyError):
        library.builtin_instance("nosuch")
    for name in library.BUILTIN_NAMES:
        game = library.builtin_instance(name, seed=0)
        assert game.num_players >= 1
        # registry is deterministic per seed
        again = library.builtin_instance(name, seed=0)
        x = np.random.default_rng(0).standard_normal(game.n) * 0.1
        x = game.project_private(x)
        for p1, p2 in zip(game.players, again.players):
            assert p1.objective(x) == p2.objective(x)


# ---------------------------------------------------------------------------
# affine closures of zero-Hessian players
# ---------------------------------------------------------------------------


def _einsum_form(A, C, D, x):
    """The general quadratic oracles, evaluated as for a player with curvature."""
    return (0.5 * np.einsum("i,mij,j->m", x, A, x) + C @ x + D,
            np.einsum("mij,j->mi", A, x) + C)


_SIGNED = st.sampled_from([-0.0, 0.0]) | st.floats(-10.0, 10.0)


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 4), st.integers(1, 3), st.data())
def test_affine_closures_match_einsum_form(n, m, data):
    # signed zeros in c, d and x: a changed sign bit fails the byte comparison
    C = np.array(data.draw(st.lists(st.lists(_SIGNED, min_size=n, max_size=n),
                                    min_size=m, max_size=m)))
    D = np.array(data.draw(st.lists(_SIGNED, min_size=m, max_size=m)))
    x = np.array(data.draw(st.lists(_SIGNED, min_size=n, max_size=n)))
    A = np.zeros((m, n, n))
    spec = library.QuadraticGnepSpec(G.BlockLayout((n,)), [library.QuadraticPlayerSpec(
        np.eye(n), np.zeros(n), G.SimpleSet.free(n),
        [(A[j], C[j], float(D[j])) for j in range(m)])])
    game = spec.to_game()
    p = game.players[0]
    assert game.constant_jacobian(0)
    g_ref, J_ref = _einsum_form(A, C, D, x)
    assert p.constraints(x).tobytes() == g_ref.tobytes()
    assert p.constraint_jacobian(x).tobytes() == J_ref.tobytes()


def test_generator_closures_match_einsum_form():
    rng = np.random.default_rng(9)
    specs = [library.a18_spec(), library.random_quadratic_spec(3, 2, 2, seed=4)[0],
             library.example3_spec()]
    for spec in specs:
        game = spec.to_game()
        for i, (ps, p) in enumerate(zip(spec.players, game.players)):
            A = np.array([np.zeros((game.n, game.n)) if a is None else a
                          for a, _, _ in ps.constraints])
            C = np.array([c for _, c, _ in ps.constraints])
            D = np.array([d for _, _, d in ps.constraints])
            assert game.constant_jacobian(i) == (not np.any(A))
            for _ in range(5):
                x = rng.standard_normal(game.n) * 3.0
                g_ref, J_ref = _einsum_form(A, C, D, x)
                assert p.constraints(x).tobytes() == g_ref.tobytes()
                assert p.constraint_jacobian(x).tobytes() == J_ref.tobytes()


def test_constant_jacobian_only_for_affine_quadratic_players():
    def flags(game):
        return [game.constant_jacobian(i) for i in range(game.num_players)]

    assert all(flags(library.make_a18_electricity()))
    assert not any(flags(library.make_example3()))
    assert not any(flags(library.builtin_instance("power")))
    # consumers (budget) and firms (ball) are curved; the price player has m == 0
    assert flags(library.gen_arrow_debreu(2, 1, 2)) == [False, False, False, True]
