import random

import pytest

import mfnrel.paths as paths
from mfnrel import Arc, Network, ResourceLimitError, enumerate_mps

from helpers import arc_subset_connects, node_sequence_paths, small_random_network


def test_single_arc_network():
    net = Network(n=2, arcs=(Arc(id=1, tail=1, head=2, max_cap=3, lead=1, unit_cost=1),))
    cat = enumerate_mps(net)
    assert cat.q == 1
    assert cat[0].arc_ids == (1,)


def test_fig3_topology_enumeration(fig3_net):
    # only six of the nine catalog paths chain up in the drawn topology
    cat = enumerate_mps(fig3_net)
    assert [p.arc_ids for p in cat] == [
        (1, 4, 5, 8),
        (1, 4, 7),
        (1, 6),
        (2, 5, 8),
        (2, 7),
        (3, 8),
    ]


def test_parallel_arcs_give_distinct_paths():
    arcs = (
        Arc(id=1, tail=1, head=2, max_cap=2, lead=1, unit_cost=1),
        Arc(id=2, tail=1, head=2, max_cap=3, lead=2, unit_cost=2),
    )
    cat = enumerate_mps(Network(n=2, arcs=arcs))
    assert [p.arc_ids for p in cat] == [(1,), (2,)]


def test_no_path_yields_empty_catalog():
    arcs = (
        Arc(id=1, tail=1, head=2, max_cap=2, lead=1, unit_cost=1),
        Arc(id=2, tail=3, head=2, max_cap=2, lead=1, unit_cost=1),
    )
    cat = enumerate_mps(Network(n=3, arcs=arcs))
    assert cat.q == 0


def test_matches_node_sequence_search():
    rng = random.Random(42)
    for _ in range(150):
        net = small_random_network(rng, n_max=7, m_max=10)
        cat = enumerate_mps(net)
        expected = node_sequence_paths(net)
        assert {frozenset(p.arc_ids) for p in cat} == expected
        assert cat.q == len(expected)


def test_enumeration_is_deterministic():
    rng = random.Random(43)
    for _ in range(25):
        net = small_random_network(rng, n_max=7, m_max=10)
        first = enumerate_mps(net)
        second = enumerate_mps(net)
        assert [p.arc_ids for p in first] == [p.arc_ids for p in second]


def test_paths_are_minimal():
    rng = random.Random(44)
    for _ in range(60):
        net = small_random_network(rng, n_max=6, m_max=8)
        for p in enumerate_mps(net):
            assert arc_subset_connects(net, p.arc_ids)
            for drop in p.arc_ids:
                subset = [i for i in p.arc_ids if i != drop]
                assert not arc_subset_connects(net, subset)


def test_cap_aborts_enumeration(monkeypatch):
    # complete forward DAG on 8 nodes has far more than 5 paths
    arcs = []
    n = 8
    aid = 1
    for t in range(1, n):
        for h in range(t + 1, n + 1):
            arcs.append(Arc(id=aid, tail=t, head=h, max_cap=1, lead=1, unit_cost=1))
            aid += 1
    net = Network(n=n, arcs=tuple(arcs))
    with monkeypatch.context() as patch:
        patch.setattr(paths, "MP_CAP", 5)
        with pytest.raises(ResourceLimitError) as exc:
            enumerate_mps(net)
    assert (exc.value.cap_name, exc.value.limit, exc.value.requested) == ("MP_CAP", 5, 6)
    assert enumerate_mps(net).q == 64  # 2^(n-2) simple forward paths


def test_long_chain_does_not_hit_recursion_limit():
    n = 1500
    arcs = tuple(
        Arc(id=i, tail=i, head=i + 1, max_cap=1, lead=1, unit_cost=1) for i in range(1, n)
    )
    cat = enumerate_mps(Network(n=n, arcs=arcs))
    assert cat.q == 1
    assert cat[0].arc_ids == tuple(range(1, n))


def test_fig3_catalog_filler_paths_reported(fig3_net, fig3_cat):
    # only the three placeholder supports are missing from the drawn
    # topology's paths, and no catalog member nests inside another
    walkable = {p.arc_ids for p in enumerate_mps(fig3_net)}
    assert [j for j, p in enumerate(fig3_cat, 1) if p.arc_ids not in walkable] == [4, 8, 9]
    supports = [set(p.arc_ids) for p in fig3_cat]
    assert not any(a < b for a in supports for b in supports)
