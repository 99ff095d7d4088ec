import random

import pytest

from mfnrel import (
    Arc,
    Network,
    Query,
    brute_force_reliability,
    enumerate_mps,
    min_feasible_capacity,
    solve_a1,
    solve_a2,
)

from helpers import is_real_dtb, max_caps, random_query, small_random_network

QUERY = Query(d=10, T=8, b=50)


def test_min_feasible_capacity_examples():
    assert min_feasible_capacity(10, 8, 4) == 3
    assert min_feasible_capacity(10, 8, 6) == 5
    assert min_feasible_capacity(10, 8, 5) == 4


def test_min_feasible_capacity_needs_room():
    with pytest.raises(ValueError):
        min_feasible_capacity(10, 8, 8)
    with pytest.raises(ValueError):
        min_feasible_capacity(10, 8, 9)


def test_min_feasible_capacity_is_minimal():
    rng = random.Random(5)
    for _ in range(1000):
        T = rng.randint(2, 40)
        lp = rng.randint(1, T - 1)
        d = rng.randint(1, 60)
        a = min_feasible_capacity(d, T, lp)
        assert lp + -(-d // a) <= T
        if a > 1:
            assert lp + -(-d // (a - 1)) > T


def test_solve_a1_worked_example(fig3_net, fig3_cat):
    sol = solve_a1(fig3_net, fig3_cat, QUERY)
    assert sol.surviving == (1, 2, 4, 5)
    assert sol.k == 4
    assert sol.sigma == 1
    assert sol.vectors == ((3, 0, 0, 0, 0, 3, 0, 0),)
    assert sol.mp_indices == (1,)
    assert (sol.removed_cost, sol.removed_time, sol.removed_capacity) == (3, 2, 3)


def test_solve_a2_worked_example(fig3_net, fig3_cat):
    sol = solve_a2(fig3_net, fig3_cat, QUERY)
    assert sol.vectors == ((3, 0, 0, 0, 0, 3, 0, 0),)
    # candidates were built for paths 1 and 7; budget then cut path 7
    assert sol.surviving == (1, 7)
    assert sol.k == 2
    assert (sol.removed_cost, sol.removed_time, sol.removed_capacity) == (1, 2, 5)


def test_solve_a2_single_path_generous_limits():
    arcs = (
        Arc(id=1, tail=1, head=2, max_cap=6, lead=2, unit_cost=1),
        Arc(id=2, tail=2, head=3, max_cap=6, lead=3, unit_cost=2),
    )
    net = Network(n=3, arcs=arcs)
    cat = enumerate_mps(net)
    assert cat.q == 1
    sol = solve_a2(net, cat, Query(d=9, T=10, b=100))
    v = -(-9 // (10 - 5))  # ceil(d / (T - lp))
    assert sol.vectors == ((v, v),)
    assert sol.vectors == solve_a1(net, cat, Query(d=9, T=10, b=100)).vectors


def test_tight_time_limit_empties_solution(fig3_net, fig3_cat):
    sol = solve_a1(fig3_net, fig3_cat, Query(d=10, T=3, b=50))
    assert sol.k == 0 and sol.sigma == 0 and sol.removed_time == 9
    sol2 = solve_a2(fig3_net, fig3_cat, Query(d=10, T=3, b=50))
    assert sol2.sigma == 0


def test_counter_identities(fig3_net, fig3_cat):
    rng = random.Random(6)
    for _ in range(200):
        q = random_query(rng, fig3_cat)
        s1 = solve_a1(fig3_net, fig3_cat, q)
        assert s1.k + s1.removed_cost + s1.removed_time == s1.q == fig3_cat.q
        assert s1.sigma + s1.removed_capacity == s1.k
        s2 = solve_a2(fig3_net, fig3_cat, q)
        assert s2.removed_time + s2.removed_capacity + s2.k == s2.q
        assert s2.sigma + s2.removed_cost == s2.k
        # the filter-first route never does more per-path builds than the baseline
        assert s1.k <= s2.q


def test_algorithms_agree_on_random_instances():
    rng = random.Random(7)
    for _ in range(250):
        net = small_random_network(rng)
        cat = enumerate_mps(net)
        q = random_query(rng, cat)
        s1, s2 = solve_a1(net, cat, q), solve_a2(net, cat, q)
        assert s1.vector_set() == s2.vector_set()


def test_oracle_equivalence_on_random_instances():
    rng = random.Random(8)
    for _ in range(120):
        net = small_random_network(rng)
        cat = enumerate_mps(net)
        q = random_query(rng, cat)
        sol = solve_a1(net, cat, q)
        _, minimal = brute_force_reliability(net, cat, q)
        assert sol.vector_set() == frozenset(minimal)
        for vec in sol.vectors:
            assert is_real_dtb(net, cat, q, vec)


def test_outputs_pairwise_incomparable():
    rng = random.Random(9)
    for _ in range(150):
        net = small_random_network(rng)
        cat = enumerate_mps(net)
        sol = solve_a1(net, cat, random_query(rng, cat))
        for i, a in enumerate(sol.vectors):
            for b in sol.vectors[i + 1 :]:
                assert any(x < y for x, y in zip(a, b))
                assert any(x > y for x, y in zip(a, b))


def test_is_real_dtb_examples(fig3_net, fig3_cat):
    assert is_real_dtb(fig3_net, fig3_cat, QUERY, (3, 0, 0, 0, 0, 3, 0, 0))
    assert not is_real_dtb(fig3_net, fig3_cat, QUERY, (0,) * 8)
    # a dominating but non-minimal feasible vector
    assert not is_real_dtb(fig3_net, fig3_cat, QUERY, (4, 0, 0, 0, 0, 3, 0, 0))


def test_is_real_dtb_full_capacity_with_slack():
    arcs = tuple(
        Arc(id=i, tail=i, head=i + 1, max_cap=3, lead=1, unit_cost=1) for i in (1, 2, 3)
    )
    net = Network(n=4, arcs=arcs)
    cat = enumerate_mps(net)
    q = Query(d=2, T=5, b=9)
    assert not is_real_dtb(net, cat, q, max_caps(net))
    assert is_real_dtb(net, cat, q, (1, 1, 1))


def test_is_real_dtb_validates_vector(fig3_net, fig3_cat):
    with pytest.raises(ValueError):
        is_real_dtb(fig3_net, fig3_cat, QUERY, (1, 2, 3))
    with pytest.raises(ValueError):
        is_real_dtb(fig3_net, fig3_cat, QUERY, (9, 0, 0, 0, 0, 0, 0, 0))
