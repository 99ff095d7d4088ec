import math
import random

import pytest

import mfnrel.bench as bench
from mfnrel import (
    BenchmarkMismatchError,
    GenConfig,
    GenerationError,
    Query,
    ResourceLimitError,
    capacity_distribution,
    demand_grid,
    derive_query,
    enumerate_mps,
    generate_instance,
    pan_european_fixture,
    performance_profile,
    run_benchmark,
    solve_a1,
)

from helpers import max_caps, profile_value


def test_genconfig_arc_bounds():
    cfg = GenConfig(n=11, seed=0)
    assert cfg.f == 15 and cfg.g == 19
    assert (cfg.f, cfg.f + cfg.g) == (15, 34)
    cfg = GenConfig(n=30, seed=0)
    assert cfg.f == 42 and cfg.g == 10


def test_genconfig_validation():
    with pytest.raises(ValueError):
        GenConfig(n=3, seed=0)
    with pytest.raises(ValueError):
        GenConfig(n=52, seed=0)


def test_capacity_distribution_shape():
    assert capacity_distribution(1) == (0.3, 0.7)
    d = capacity_distribution(4)
    assert d[4] == 0.7 and d[3] == 0.1
    assert all(abs(x - 0.2 / 3) <= 1e-15 for x in d[:3])
    for mc in range(1, 51):
        assert abs(sum(capacity_distribution(mc)) - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        capacity_distribution(0)


def test_generation_is_deterministic():
    a = generate_instance(GenConfig(n=4, seed=99))
    b = generate_instance(GenConfig(n=4, seed=99))
    assert a.network == b.network and a.query == b.query
    c = generate_instance(GenConfig(n=4, seed=100))
    assert c.network != a.network


def test_generated_instances_respect_recipe():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(11, 30)
        cfg = GenConfig(n=n, seed=rng.randrange(10**6))
        inst = generate_instance(cfg)
        net = inst.network
        assert cfg.f <= net.m <= cfg.f + cfg.g
        seen = set()
        for a in net.arcs:
            assert a.tail != net.sink and a.head != net.source and a.tail != a.head
            assert (a.tail, a.head) not in seen
            seen.add((a.tail, a.head))
            assert 10 <= a.max_cap <= 50 and 5 <= a.lead <= 10 and 5 <= a.unit_cost <= 20
            assert a.dist == capacity_distribution(a.max_cap)
        assert inst.catalog.q >= 1
        assert inst.query == derive_query(inst.catalog)
        assert min(inst.query.d * p.cp for p in inst.catalog) <= inst.query.b


def test_derive_query_formulas():
    inst = generate_instance(GenConfig(n=12, seed=3))
    cat = inst.catalog
    q = cat.q
    d = math.ceil(sum(p.kp_max for p in cat) / q)
    T = math.ceil(sum(p.lp for p in cat) / q)
    b = math.ceil(d * sum(p.cp for p in cat) / q)
    assert inst.query == Query(d=d, T=T, b=b)
    assert derive_query(cat, d=7).d == 7
    assert derive_query(cat, d=7).b == math.ceil(7 * sum(p.cp for p in cat) / q)


def test_fig3_fixture_matches_published_sums(fig3):
    assert tuple(p.lp for p in fig3.catalog) == (4, 6, 6, 5, 5, 5, 4, 8, 8)
    assert tuple(p.cp for p in fig3.catalog) == (3, 5, 9, 5, 5, 9, 6, 8, 8)
    assert tuple(p.kp_max for p in fig3.catalog)[:2] == (4, 3)
    assert [fig3.catalog[j - 1].kp_max for j in (1, 2, 4, 5)] == [4, 3, 3, 3]
    assert fig3.catalog[0].arc_ids == (1, 6)
    assert fig3.catalog[1].arc_ids == (1, 4, 7)
    assert max_caps(fig3.network) == (5, 3, 4, 3, 2, 4, 5, 3)


def test_pan_european_fixture_loads():
    net = pan_european_fixture()
    assert net.n == 28 and net.m == 40
    assert net.source == 1 and net.sink == 28
    for a in net.arcs:
        assert 10 <= a.max_cap <= 50 and 5 <= a.lead <= 10 and 5 <= a.unit_cost <= 20
    cat = enumerate_mps(net)
    assert cat.q >= 1
    grid = demand_grid(cat)
    assert len(grid) == 10
    d_star = math.ceil(sum(p.kp_max for p in cat) / cat.q)
    assert grid == [d_star - 5 + i for i in range(10)]


def _items(count=3):
    out = []
    for s in range(count):
        inst = generate_instance(GenConfig(n=12, seed=400 + s))
        out.append((inst.name, inst.network, inst.catalog, inst.query))
    return out


def test_run_benchmark_records():
    items = _items()
    records = run_benchmark(items)
    assert len(records) == 6
    for r in records:
        assert r.seconds > 0 and r.q >= 1 and r.sigma >= 0
    by_inst = {i: {r.algorithm: r.seconds for r in records if r.instance == i} for i, *_ in items}
    assert sorted(by_inst) == sorted(name for name, *_ in items)
    for d in by_inst.values():
        assert set(d) == {"a1", "a2"}


def test_run_benchmark_gate_aborts_on_disagreement(monkeypatch):
    def broken(net, cat, query):
        sol = solve_a1(net, cat, query)
        object.__setattr__(sol, "vectors", sol.vectors + ((0,) * net.m,))
        return sol

    monkeypatch.setitem(bench._SOLVERS, "a2", broken)
    with pytest.raises(BenchmarkMismatchError):
        run_benchmark(_items(1))


def test_profile_two_instance_example():
    prof = performance_profile(
        {"i1": {"a1": 1.0, "a2": 2.0}, "i2": {"a1": 2.0, "a2": 1.0}}
    )
    for alg in ("a1", "a2"):
        assert profile_value(prof, alg, 1.0) == 0.5
        assert profile_value(prof, alg, 2.0) == 1.0
        assert profile_value(prof, alg, 1.5) == 0.5
    assert prof.tau_grid[0] == 1.0
    assert prof.tau_grid[-1] == pytest.approx(2.0)
    for alg in ("a1", "a2"):
        curve = prof.curves[alg]
        assert all(x <= y for x, y in zip(curve, curve[1:]))
        assert curve[-1] == 1.0


def test_profile_always_fastest():
    prof = performance_profile(
        {"i1": {"a1": 1.0, "a2": 3.0}, "i2": {"a1": 2.0, "a2": 2.5}}
    )
    assert profile_value(prof, "a1", 1.0) == 1.0


def test_profile_tie_rule():
    prof = performance_profile({"i1": {"a1": 2.0, "a2": 2.0}})
    assert prof.ratios["a1"] == (1.0,) and prof.ratios["a2"] == (1.0,)
    assert prof.tau_grid == (1.0,)
    assert prof.curves["a1"] == (1.0,)


def test_profile_input_validation():
    with pytest.raises(ValueError):
        performance_profile({})
    with pytest.raises(ValueError):
        performance_profile({"i": {"a1": 1.0}})
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            performance_profile({"i": {"a1": 1.0, "a2": bad}})
    with pytest.raises(ValueError):
        performance_profile({"i": {"a1": 1.0, "a2": 1.0}, "j": {"a1": 1.0}})


def test_generation_failure(monkeypatch):
    # a path count over the cap makes every draw unusable
    def over_cap(net):
        raise ResourceLimitError("more than 0 minimal paths")

    monkeypatch.setattr(bench, "enumerate_mps", over_cap)
    monkeypatch.setattr(bench, "MAX_REJECTS", 10)
    with pytest.raises(GenerationError, match="10 consecutive unusable"):
        generate_instance(GenConfig(n=11, seed=5))
