import dataclasses
import importlib
import itertools
import math
import pickle
import random

import pytest

from mfnrel import (
    Arc,
    Network,
    Query,
    ResourceLimitError,
    TailTable,
    brute_force_reliability,
    enumerate_mps,
    reliability,
    solve_a1,
    union_prob_ie,
)

from helpers import max_caps, random_dist, random_query, small_random_network

QUERY = Query(d=10, T=8, b=50)


def test_tail_table_shape(fig3_net):
    tails = TailTable.from_network(fig3_net)
    assert tails.m == 8
    assert tuple(len(row) - 2 for row in tails.tails) == max_caps(fig3_net)
    for a, row in zip(fig3_net.arcs, tails.tails):
        assert row[len(row) - 1] == 0.0
        assert abs(row[0] - 1.0) <= 1e-9
        for v in range(len(row) - 1):
            assert row[v] >= row[v + 1]
            assert abs((row[v] - row[v + 1]) - a.dist[v]) <= 1e-12


def test_tail_table_needs_distributions(monkeypatch, fig3_net, fig3_cat):
    # only the arcs a vector raises need a distribution; (3,0,0,0,0,3,0,0)
    # raises arcs 1 and 6
    def with_dists(dists):
        arcs = tuple(dataclasses.replace(a, dist=dists(a)) for a in fig3_net.arcs)
        return Network(n=fig3_net.n, arcs=arcs, source=fig3_net.source, sink=fig3_net.sink)

    bare = with_dists(lambda a: a.dist if a.id in (1, 6) else None)
    value, _ = reliability(bare, fig3_cat, QUERY)
    assert abs(value - 0.68) <= 1e-12
    rng = random.Random(25)
    for _ in range(5):
        other = with_dists(lambda a: a.dist if a.id in (1, 6) else random_dist(rng, a.max_cap))
        assert abs(reliability(other, fig3_cat, QUERY)[0] - value) <= 1e-12
    tails = TailTable.from_network(bare)
    assert tails.tails[1] is None
    raises_arc_2 = (0, 1, 0, 0, 0, 0, 0, 0)
    # bad input is reported before the term cap is checked
    rel = importlib.import_module("mfnrel.reliability")  # the package rebinds the name
    for cap in (30, 1):
        monkeypatch.setattr(rel, "SIGMA_CAP", cap)
        with pytest.raises(ValueError, match="arc 2 has no capacity distribution: its arc line"):
            union_prob_ie(tails, [raises_arc_2, (3, 0, 0, 0, 0, 3, 0, 0)])


def test_union_keeps_full_mass_of_untouched_arcs(fig3_net, fig3_cat):
    # distributions may sum to 1 - 5e-10; the arcs a term leaves at level 0
    # still contribute that mass, which the oracle sums over every state
    scale = 1 - 5e-10
    arcs = tuple(dataclasses.replace(a, dist=tuple(p * scale for p in a.dist)) for a in fig3_net.arcs)
    net = Network(n=fig3_net.n, arcs=arcs, source=fig3_net.source, sink=fig3_net.sink)
    for query in (QUERY, Query(d=6, T=9, b=100), Query(d=12, T=12, b=100)):
        oracle_r, _ = brute_force_reliability(net, fig3_cat, query)
        value, sol = reliability(net, fig3_cat, query)
        assert sol.sigma >= 1
        assert abs(value - oracle_r) <= 1e-12


def test_upset_prob_worked_example(fig3_net):
    # one vector: the union is its upset, a product of per-arc tails
    tails = TailTable.from_network(fig3_net)
    assert abs(union_prob_ie(tails, [(3, 0, 0, 0, 0, 3, 0, 0)]) - 0.68) <= 1e-12
    assert union_prob_ie(tails, [(0,) * 8]) == 1.0
    direct = 1.0
    for a in fig3_net.arcs:
        direct *= sum(a.dist[2:])
    assert abs(union_prob_ie(tails, [(2,) * 8]) - direct) <= 1e-12


def test_union_rejects_out_of_range_vectors(fig3_net):
    tails = TailTable.from_network(fig3_net)
    for vecs in (
        [(6, 0, 0, 0, 0, 0, 0, 0)],
        [(0, 0, 0, 0, 0, 0, 0, -1)],
        [(0, 0)],
        [(1, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 3, 0, 0, 0)],
        [(3, 0, 0, 0, 0, 3, 0, 0), (1, 0, 0, 0, 0, 2, 0, 0)],  # two levels in one vector
    ):
        with pytest.raises(ValueError):
            union_prob_ie(tails, vecs)


def test_union_duplicate_vectors_collapse(fig3_net):
    tails = TailTable.from_network(fig3_net)
    v = (3, 0, 0, 0, 0, 3, 0, 0)
    assert abs(union_prob_ie(tails, [v, v]) - union_prob_ie(tails, [v])) <= 1e-12


def test_union_empty_and_cap(monkeypatch, fig3_net):
    tails = TailTable.from_network(fig3_net)
    assert union_prob_ie(tails, []) == 0.0
    vecs = [(1, 0, 0, 0, 0, 0, 0, 0)] * 5
    monkeypatch.setattr(importlib.import_module("mfnrel.reliability"), "SIGMA_CAP", 4)
    assert union_prob_ie(tails, vecs[:4]) > 0.0  # at the cap is still answered
    with pytest.raises(ResourceLimitError) as exc:
        union_prob_ie(tails, vecs)
    assert str(exc.value) == "fixed cap SIGMA_CAP = 4 exceeded: this input needs at least 5"
    assert str(pickle.loads(pickle.dumps(exc.value))) == str(exc.value)


def test_union_matches_independent_expansion(fig3_net):
    rng = random.Random(21)
    tails = TailTable.from_network(fig3_net)
    caps = max_caps(fig3_net)
    for _ in range(50):
        sigma = rng.randint(1, 5)
        # each vector raises a random arc subset to one level; levels repeat
        vecs = []
        for _ in range(sigma):
            level = rng.randint(1, 3)
            vecs.append(tuple(level if c >= level and rng.random() < 0.4 else 0 for c in caps))
        direct = 0.0
        for r in range(1, sigma + 1):
            for combo in itertools.combinations(vecs, r):
                mv = tuple(map(max, *combo)) if r > 1 else combo[0]
                term = 1.0
                for a, x in zip(fig3_net.arcs, mv):
                    term *= sum(a.dist[x:])
                direct += (-1) ** (r + 1) * term
        assert abs(union_prob_ie(tails, vecs) - direct) <= 1e-12
        rng.shuffle(vecs)
        assert abs(union_prob_ie(tails, vecs) - direct) <= 1e-12


def test_pipeline_matches_brute_force():
    rng = random.Random(22)
    for _ in range(120):
        net = small_random_network(rng)
        cat = enumerate_mps(net)
        q = random_query(rng, cat)
        oracle_r, _ = brute_force_reliability(net, cat, q)
        tails = TailTable.from_network(net)
        ie_r = union_prob_ie(tails, solve_a1(net, cat, q).vectors)
        assert abs(ie_r - oracle_r) <= 1e-9


def test_brute_force_on_worked_example(fig3_net, fig3_cat):
    assert fig3_net.state_space_size == 172800
    value, minimal = brute_force_reliability(fig3_net, fig3_cat, QUERY)
    assert abs(value - 0.68) <= 1e-12
    assert minimal == [(3, 0, 0, 0, 0, 3, 0, 0)]


def test_brute_force_state_cap(monkeypatch, fig3_net, fig3_cat):
    monkeypatch.setattr(importlib.import_module("mfnrel.reliability"), "STATE_CAP", 1000)
    with pytest.raises(ResourceLimitError) as exc:
        brute_force_reliability(fig3_net, fig3_cat, QUERY)
    assert (exc.value.cap_name, exc.value.limit, exc.value.requested) == ("STATE_CAP", 1000, 172800)


def test_brute_force_hopeless_budget(fig3_net, fig3_cat):
    value, minimal = brute_force_reliability(fig3_net, fig3_cat, Query(d=10, T=8, b=29))
    assert value == 0.0 and minimal == []


def test_brute_force_no_paths():
    arcs = (Arc(id=1, tail=2, head=3, max_cap=2, lead=1, unit_cost=1, dist=(0.2, 0.3, 0.5)),)
    net = Network(n=3, arcs=arcs)
    value, minimal = brute_force_reliability(net, enumerate_mps(net), Query(d=1, T=5, b=5))
    assert value == 0.0 and minimal == []


def test_reliability_worked_example(fig3_net, fig3_cat):
    value, sol = reliability(fig3_net, fig3_cat, QUERY)
    assert abs(value - 0.68) <= 1e-12
    assert sol.algorithm == "a1" and sol.sigma == 1
    value, sol = reliability(fig3_net, fig3_cat, Query(d=10, T=3, b=50))
    assert value == 0.0 and sol.sigma == 0


def test_reliability_looks_up_its_layers_at_call_time(monkeypatch, fig3_net, fig3_cat):
    # an outside tracer swaps these names in the module to time each layer,
    # so reliability() must not bind them early
    rel = importlib.import_module("mfnrel.reliability")  # the package rebinds the name
    calls = []

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(rel, "solve_a1", recording("solve_a1", rel.solve_a1))
    monkeypatch.setattr(rel, "union_prob_ie", recording("union_prob_ie", rel.union_prob_ie))
    monkeypatch.setattr(
        rel.TailTable, "from_network",
        classmethod(recording("from_network", rel.TailTable.from_network.__func__)),
    )
    value, _ = reliability(fig3_net, fig3_cat, QUERY)
    assert abs(value - 0.68) <= 1e-12
    assert calls == ["solve_a1", "from_network", "union_prob_ie"]


def test_reliability_monotone_in_limits():
    rng = random.Random(23)
    for _ in range(12):
        net = small_random_network(rng, n_max=5, m_max=6)
        cat = enumerate_mps(net)
        if cat.q == 0:
            continue
        d = rng.randint(1, 4)
        b0 = d * max(p.cp for p in cat) + 2
        sweep_t = [reliability(net, cat, Query(d, T, b0))[0] for T in range(1, 14)]
        assert all(x <= y + 1e-12 for x, y in zip(sweep_t, sweep_t[1:]))
        T0 = max(p.lp for p in cat) + 3
        sweep_b = [reliability(net, cat, Query(d, T0, b))[0] for b in range(1, b0 + 2)]
        assert all(x <= y + 1e-12 for x, y in zip(sweep_b, sweep_b[1:]))
        sweep_d = [reliability(net, cat, Query(dd, T0, b0))[0] for dd in range(1, 7)]
        assert all(x >= y - 1e-12 for x, y in zip(sweep_d, sweep_d[1:]))
        for r in sweep_t + sweep_b + sweep_d:
            assert 0.0 <= r <= 1.0


def test_union_is_clamped_to_unit_interval():
    rng = random.Random(24)
    for _ in range(80):
        net = small_random_network(rng)
        cat = enumerate_mps(net)
        sol = solve_a1(net, cat, random_query(rng, cat))
        tails = TailTable.from_network(net)
        r = union_prob_ie(tails, sol.vectors)
        assert 0.0 <= r <= 1.0
        assert math.isfinite(r)
