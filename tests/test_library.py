"""Built-in instances, generators, and the qgnep/1 file format."""

import json
import math

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
    assert a18_game.feasibility_violation(np.zeros(12)) == pytest.approx(7.0)


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
            A = ad_game.players[i].constraint_hessians[0]
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


def test_random_quadratic_planted_point_strictly_feasible():
    for seed in range(5):
        game, plant = library.gen_random_quadratic_with_plant(3, 2, 2, seed=seed)
        for p in game.players:
            assert np.all(p.constraints(plant) < 0)
            assert p.private_set.contains(game.layout.get_block(plant, 0) * 0 + plant[:2])


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
            np.testing.assert_array_equal(A1, A2)
            np.testing.assert_array_equal(c1, c2)
            assert d1 == d2
    # bytes are reproducible as well
    path2 = tmp_path / "game2.qgnep.json"
    library.save_quadratic(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_qgnep_rejects_indefinite_own_block(tmp_path):
    spec, _ = library.random_quadratic_spec(2, 2, 1, seed=3)
    spec.players[0].Q[0, 0] = -0.1
    spec.players[0].Q[1, 1] = -0.1
    path = tmp_path / "bad.qgnep.json"
    library.save_quadratic(spec, path)
    with pytest.raises(AdmissibilityError) as err:
        library.load_quadratic(path)
    assert "player 0" in str(err.value)


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
    p = spec.to_game().players[0]
    assert p.constant_jacobian
    g_ref, J_ref = _einsum_form(A, C, D, x)
    assert p.constraints(x).tobytes() == g_ref.tobytes()
    assert p.constraint_jacobian(x).tobytes() == J_ref.tobytes()


def test_generator_closures_match_einsum_form():
    rng = np.random.default_rng(9)
    specs = [library.a18_spec(), library.random_quadratic_spec(3, 2, 2, seed=4)[0],
             library.example3_spec()]
    for spec in specs:
        game = spec.to_game()
        for ps, p in zip(spec.players, game.players):
            A = np.array([a for a, _, _ in ps.constraints])
            C = np.array([c for _, c, _ in ps.constraints])
            D = np.array([d for _, _, d in ps.constraints])
            assert p.constant_jacobian == (not np.any(A))
            for _ in range(5):
                x = rng.standard_normal(game.n) * 3.0
                g_ref, J_ref = _einsum_form(A, C, D, x)
                assert p.constraints(x).tobytes() == g_ref.tobytes()
                assert p.constraint_jacobian(x).tobytes() == J_ref.tobytes()


def test_constant_jacobian_only_for_affine_quadratic_players():
    assert all(p.constant_jacobian for p in library.make_a18_electricity().players)
    assert not any(p.constant_jacobian for p in library.make_example3().players)
    assert not any(p.constant_jacobian for p in library.builtin_instance("power").players)
    ad = library.gen_arrow_debreu(2, 1, 2)
    # consumers (budget) and firms (ball) are curved; the price player has m == 0
    assert [p.constant_jacobian for p in ad.players] == [False, False, False, True]
