import math
import random

import pytest

from mfnrel import (
    Arc,
    Network,
    Query,
    path_stats,
)

from helpers import (
    INFEASIBLE,
    EmptyCatalogError,
    ZeroCapacityError,
    arc_transmit,
    best_time,
    max_caps,
    path_capacity,
    path_cost,
    path_time,
)

X_STAR = (3, 3, 4, 1, 2, 1, 2, 2)


def test_arc_transmit_examples():
    assert arc_transmit(10, 4, 3, 2) == (6, 20)
    assert arc_transmit(1, 1, 5, 7) == (6, 7)
    assert arc_transmit(7, 3, 2, 1) == (5, 7)


def test_arc_transmit_zero_capacity():
    with pytest.raises(ZeroCapacityError):
        arc_transmit(10, 0, 3, 2)


def test_arc_transmit_bad_demand():
    with pytest.raises(ValueError):
        arc_transmit(0, 4, 3, 2)


def test_path_stats_examples(fig3_net):
    p = path_stats(fig3_net, [1, 4, 7])
    assert (p.lp, p.cp, p.kp_max) == (6, 5, 3)
    p = path_stats(fig3_net, [1, 6])
    assert (p.lp, p.cp, p.kp_max) == (4, 3, 4)
    single = path_stats(fig3_net, [3])
    assert (single.lp, single.cp, single.kp_max) == (3, 2, 4)


def test_path_stats_sorts_and_validates(fig3_net):
    assert path_stats(fig3_net, [7, 1, 4]).arc_ids == (1, 4, 7)
    with pytest.raises(IndexError):
        path_stats(fig3_net, [1, 9])
    with pytest.raises(ValueError):
        path_stats(fig3_net, [])
    with pytest.raises(ValueError):
        path_stats(fig3_net, [1, 1, 4])


def test_path_capacity(fig3_net):
    p147 = path_stats(fig3_net, [1, 4, 7])
    assert path_capacity(X_STAR, p147) == 1
    p16 = path_stats(fig3_net, [1, 6])
    assert path_capacity(max_caps(fig3_net), p16) == 4
    assert path_capacity((0,) * 8, p16) == 0


def test_path_time(fig3_net):
    p147 = path_stats(fig3_net, [1, 4, 7])
    assert path_time(10, X_STAR, p147) == 16
    assert path_time(10, (0,) * 8, p147) == INFEASIBLE
    p16 = path_stats(fig3_net, [1, 6])
    assert path_time(10, (3, 0, 0, 0, 0, 3, 0, 0), p16) == 8


def test_path_cost(fig3_net):
    p147 = path_stats(fig3_net, [1, 4, 7])
    assert path_cost(10, p147) == 50
    assert path_cost(1, p147) == 5
    assert path_cost(10, path_stats(fig3_net, [3])) == 20


def test_best_time(fig3_cat):
    assert best_time(10, (3, 0, 0, 0, 0, 3, 0, 0), fig3_cat, 50) == 8
    # budget below the cheapest path cost (min d*cp = 30)
    assert best_time(10, (3, 0, 0, 0, 0, 3, 0, 0), fig3_cat, 29) == INFEASIBLE


def test_best_time_at_full_capacity(fig3_net, fig3_cat):
    m = max_caps(fig3_net)
    expected = min(
        p.lp + math.ceil(10 / p.kp_max) for p in fig3_cat if 10 * p.cp <= 50
    )
    assert best_time(10, m, fig3_cat, 50) == expected == 7


def test_best_time_empty_catalog():
    with pytest.raises(EmptyCatalogError):
        best_time(3, (1,), [], 10)


def _random_case(rng):
    m = rng.randint(1, 5)
    net = Network(
        n=m + 1,
        arcs=tuple(
            Arc(id=i, tail=i, head=i + 1, max_cap=4, lead=rng.randint(1, 4), unit_cost=rng.randint(1, 4))
            for i in range(1, m + 1)
        ),
    )
    path = path_stats(net, range(1, m + 1))
    x = tuple(rng.randint(0, 4) for _ in range(m))
    y = tuple(rng.randint(xi, 4) for xi in x)  # y >= x
    return path, x, y


def test_path_time_monotone_in_state():
    rng = random.Random(7)
    for _ in range(300):
        path, x, y = _random_case(rng)
        d = rng.randint(1, 9)
        assert path_time(d, x, path) >= path_time(d, y, path)


def test_path_time_monotone_in_demand_and_coordinates():
    rng = random.Random(8)
    for _ in range(300):
        path, x, _ = _random_case(rng)
        d = rng.randint(1, 8)
        assert path_time(d + rng.randint(1, 4), x, path) >= path_time(d, x, path)
        i = rng.randrange(len(x))
        bumped = x[:i] + (x[i] + 1,) + x[i + 1 :]
        assert path_time(d, bumped, path) <= path_time(d, x, path)


def test_path_cost_linear_in_demand():
    rng = random.Random(9)
    for _ in range(100):
        path, _, _ = _random_case(rng)
        d1, d2 = rng.randint(1, 50), rng.randint(1, 50)
        assert path_cost(d1 + d2, path) == path_cost(d1, path) + path_cost(d2, path)


def test_nested_paths_order_their_stats(fig3_net):
    # strictly larger arc sets pay more lead time and cost, and can only
    # lose capacity
    rng = random.Random(10)
    ids = [1, 2, 3, 4, 5, 6, 7, 8]
    for _ in range(200):
        size = rng.randint(1, 7)
        small = rng.sample(ids, size)
        extra = rng.choice([i for i in ids if i not in small])
        big = small + [extra]
        ps, pb = path_stats(fig3_net, small), path_stats(fig3_net, big)
        assert pb.lp > ps.lp and pb.cp > ps.cp
        x = tuple(rng.randint(0, 4) for _ in ids)
        assert path_capacity(x, pb) <= path_capacity(x, ps)


def test_best_time_monotone(fig3_net, fig3_cat):
    rng = random.Random(12)
    caps = max_caps(fig3_net)
    for _ in range(500):
        x = tuple(rng.randint(0, c) for c in caps)
        y = tuple(rng.randint(xi, c) for xi, c in zip(x, caps))
        d = rng.randint(1, 12)
        b = rng.randint(20, 90)
        assert best_time(d, x, fig3_cat, b) >= best_time(d, y, fig3_cat, b)


def test_query_validation():
    with pytest.raises(ValueError):
        Query(d=0, T=5, b=5)
    with pytest.raises(ValueError):
        Query(d=1, T=0, b=5)
    with pytest.raises(ValueError):
        Query(d=1, T=5, b=0)


def test_arc_validation():
    with pytest.raises(ValueError):
        Arc(id=1, tail=2, head=2, max_cap=3, lead=1, unit_cost=1)
    with pytest.raises(ValueError):
        Arc(id=1, tail=1, head=2, max_cap=3, lead=0, unit_cost=1)
    with pytest.raises(ValueError):
        Arc(id=1, tail=1, head=2, max_cap=2, lead=1, unit_cost=1, dist=(0.5, 0.5))
    with pytest.raises(ValueError):
        Arc(id=1, tail=1, head=2, max_cap=1, lead=1, unit_cost=1, dist=(0.7, 0.7))
    with pytest.raises(ValueError):
        Arc(id=1, tail=1, head=2, max_cap=1, lead=1, unit_cost=1, dist=(math.nan, math.nan))
    for bad, reason in (
        ({"id": 0}, "arc id must be >= 1, got 0"),
        ({"max_cap": -1}, "arc 1: max_cap must be >= 0"),
        ({"unit_cost": 0}, "arc 1: unit cost must be >= 1"),
    ):
        with pytest.raises(ValueError, match=f"^{reason}$"):
            Arc(**{**dict(id=1, tail=1, head=2, max_cap=1, lead=1, unit_cost=1), **bad})


def test_network_validation():
    a1 = Arc(id=1, tail=1, head=2, max_cap=1, lead=1, unit_cost=1)
    with pytest.raises(ValueError):
        Network(n=2, arcs=(Arc(id=2, tail=1, head=2, max_cap=1, lead=1, unit_cost=1),))
    with pytest.raises(ValueError):
        Network(n=1, arcs=())
    with pytest.raises(ValueError):
        Network(n=2, arcs=(a1,), source=1, sink=1)
    with pytest.raises(ValueError):
        Network(n=2, arcs=(a1,), sink=-1)
    with pytest.raises(ValueError, match="^arc 1: node 3 outside 1..2$"):
        Network(n=2, arcs=(Arc(id=1, tail=1, head=3, max_cap=1, lead=1, unit_cost=1),))
    net = Network(n=2, arcs=(a1,))
    assert net.sink == 2 and net.m == 1 and net.state_space_size == 2
