"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them on success)."""

import math
import random
import time

import pytest

from mfnrel import (
    GenConfig,
    Query,
    TailTable,
    brute_force_reliability,
    demand_grid,
    derive_query,
    enumerate_mps,
    fig3_fixture,
    generate_instance,
    pan_european_fixture,
    path_stats,
    performance_profile,
    reliability,
    run_benchmark,
    solve_a1,
    solve_a2,
    union_prob_ie,
)
from mfnrel.solver import min_feasible_capacity

from helpers import (
    arc_transmit,
    best_time,
    max_caps,
    path_capacity,
    path_cost,
    path_time,
    profile_value,
    random_query,
    small_random_network,
)


def _report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="session")
def suite_1000():
    """The full randomized benchmark suite: n = 11..30, 50 seeds each."""
    t0 = time.perf_counter()
    instances = [
        generate_instance(GenConfig(n=n, seed=1000 * n + s))
        for n in range(11, 31)
        for s in range(50)
    ]
    return instances, time.perf_counter() - t0


@pytest.fixture(scope="session")
def oracle_instances():
    """>= 100 oracle-tractable instances with queries spanning both regimes."""
    rng = random.Random(2024)
    cases = []
    pathless = 0
    while len(cases) < 120:
        net = small_random_network(rng, n_max=6, m_max=8, cap_max=3)
        cat = enumerate_mps(net)
        if cat.q == 0:
            # keep a few disconnected networks, but not half the suite
            if pathless >= 15:
                continue
            pathless += 1
        cases.append((net, cat, random_query(rng, cat)))
    return cases


def test_criterion_1_worked_example():
    fx = fig3_fixture()
    query = Query(d=10, T=8, b=50)
    sol = solve_a1(fx.network, fx.catalog, query)
    alphas = [min_feasible_capacity(10, 8, fx.catalog[j - 1].lp) for j in sol.surviving]
    value, _ = reliability(fx.network, fx.catalog, query)
    runtime = min(
        _timed(lambda: reliability(fx.network, fx.catalog, query)) for _ in range(5)
    )
    ok = (
        sol.surviving == (1, 2, 4, 5)
        and sol.k == 4
        and alphas == [3, 5, 4, 4]
        and sol.sigma == 1
        and sol.vectors == ((3, 0, 0, 0, 0, 3, 0, 0),)
        and abs(value - 0.68) <= 1e-12
        and runtime < 0.010
    )
    _report(
        1,
        ok,
        f"J={list(sol.surviving)} k={sol.k} alpha={alphas} sigma={sol.sigma} "
        f"R={value:.12f} runtime={runtime * 1e3:.2f}ms",
    )


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_2_formula_spot_checks():
    fx = fig3_fixture()
    x_star = (3, 3, 4, 1, 2, 1, 2, 2)
    p1 = path_stats(fx.network, [1, 4, 7])
    checks = {
        "xi": path_time(10, x_star, p1) == 16,
        "beta": path_cost(10, p1) == 50,
        "kp": path_capacity(x_star, p1) == 1,
        "lp": p1.lp == 6,
        "cp": p1.cp == 5,
        "arc": arc_transmit(10, 4, 3, 2) == (6, 20),
    }
    _report(2, all(checks.values()), f"exact integer checks {checks}")


def test_criterion_3_oracle_equivalence(oracle_instances):
    t0 = time.perf_counter()
    feasible = infeasible = 0
    for net, cat, query in oracle_instances:
        sol = solve_a1(net, cat, query)
        oracle_r, oracle_min = brute_force_reliability(net, cat, query)
        assert sol.vector_set() == frozenset(oracle_min)
        ie_r = union_prob_ie(TailTable.from_network(net), sol.vectors)
        assert abs(ie_r - oracle_r) <= 1e-9
        if sol.sigma:
            feasible += 1
        else:
            infeasible += 1
    elapsed = time.perf_counter() - t0
    ok = feasible > 0 and infeasible > 0 and elapsed < 60
    _report(
        3,
        ok,
        f"{len(oracle_instances)} instances ({feasible} feasible / {infeasible} empty), "
        f"vector sets and probabilities match oracle, {elapsed:.1f}s",
    )


def test_criterion_4_cross_algorithm_equality(oracle_instances, suite_1000):
    for net, cat, query in oracle_instances:
        assert solve_a1(net, cat, query).vector_set() == solve_a2(net, cat, query).vector_set()
    generated = [inst for inst in suite_1000[0] if inst.config.seed % 1000 < 5]
    assert len(generated) == 100
    for inst in generated:
        s1 = solve_a1(inst.network, inst.catalog, inst.query)
        s2 = solve_a2(inst.network, inst.catalog, inst.query)
        assert s1.vector_set() == s2.vector_set()
    _report(
        4,
        True,
        f"identical vector sets on {len(oracle_instances)} small + {len(generated)} generated instances",
    )


def test_criterion_5_monotonicity(oracle_instances):
    rng = random.Random(55)
    pair_violations = 0
    instances = [c for c in oracle_instances if c[1].q > 0][:10]
    for net, cat, query in instances:
        caps = max_caps(net)
        for _ in range(1000):
            x = tuple(rng.randint(0, c) for c in caps)
            y = tuple(rng.randint(xi, c) for xi, c in zip(x, caps))
            if not best_time(query.d, x, cat, query.b) >= best_time(query.d, y, cat, query.b):
                pair_violations += 1
    sweep_violations = 0
    for net, cat, _ in instances[:3]:
        d0 = 3
        b0 = d0 * max(p.cp for p in cat) + 2
        t_hi = max(p.lp for p in cat) + 4
        rs = []
        for T in range(1, t_hi + 1):
            r, _ = reliability(net, cat, Query(d0, T, b0))
            oracle_r, _ = brute_force_reliability(net, cat, Query(d0, T, b0))
            if abs(r - oracle_r) > 1e-9:
                sweep_violations += 1
            rs.append(r)
        sweep_violations += sum(1 for a, b in zip(rs, rs[1:]) if a > b + 1e-12)
        rs = [reliability(net, cat, Query(d0, t_hi, b))[0] for b in range(1, b0 + 1)]
        sweep_violations += sum(1 for a, b in zip(rs, rs[1:]) if a > b + 1e-12)
        rs = [reliability(net, cat, Query(d, t_hi, b0))[0] for d in range(1, 7)]
        sweep_violations += sum(1 for a, b in zip(rs, rs[1:]) if a < b - 1e-12)
    ok = pair_violations == 0 and sweep_violations == 0
    _report(
        5,
        ok,
        f"{len(instances) * 1000} ordered state pairs, oracle-checked T/b/d sweeps: "
        f"{pair_violations + sweep_violations} violations",
    )


def test_criterion_6_alpha_minimality():
    rng = random.Random(66)
    violations = 0
    for _ in range(1000):
        T = rng.randint(2, 60)
        lp = rng.randint(1, T - 1)
        d = rng.randint(1, 100)
        a = min_feasible_capacity(d, T, lp)
        if lp + math.ceil(d / a) > T:
            violations += 1
        if a > 1 and lp + math.ceil(d / (a - 1)) <= T:
            violations += 1
    _report(6, violations == 0, f"1000 random (d,T,lp) triples, {violations} violations")


def test_criterion_7_generator_protocol(suite_1000):
    instances, elapsed = suite_1000
    assert len(instances) == 1000
    bad = 0
    for inst in instances:
        cfg, net, cat, q = inst.config, inst.network, inst.catalog, inst.query
        pairs = set()
        arcs_ok = all(
            a.tail != a.head
            and a.head != net.source
            and a.tail != net.sink
            and 10 <= a.max_cap <= 50
            and 5 <= a.lead <= 10
            and 5 <= a.unit_cost <= 20
            for a in net.arcs
        )
        for a in net.arcs:
            pairs.add((a.tail, a.head))
        d_ref = math.ceil(sum(p.kp_max for p in cat) / cat.q)
        T_ref = math.ceil(sum(p.lp for p in cat) / cat.q)
        b_ref = math.ceil(d_ref * sum(p.cp for p in cat) / cat.q)
        if not (
            arcs_ok
            and len(pairs) == net.m
            and cfg.f <= net.m <= cfg.f + cfg.g
            and (q.d, q.T, q.b) == (d_ref, T_ref, b_ref)
            and min(q.d * p.cp for p in cat) <= q.b
        ):
            bad += 1
    ok = bad == 0 and elapsed < 600
    _report(7, ok, f"1000 instances, {bad} recipe violations, generated in {elapsed:.1f}s")


def test_criterion_8_profile_correctness():
    prof = performance_profile({"i1": {"a1": 1.0, "a2": 2.0}, "i2": {"a1": 2.0, "a2": 1.0}})
    hand = (
        profile_value(prof, "a1", 1.0) == 0.5
        and profile_value(prof, "a2", 1.0) == 0.5
        and profile_value(prof, "a1", 2.0) == 1.0
        and profile_value(prof, "a2", 2.0) == 1.0
    )
    dominant = performance_profile({"i1": {"a1": 1.0, "a2": 3.0}, "i2": {"a1": 2.0, "a2": 2.5}})
    tie = performance_profile({"i1": {"a1": 2.0, "a2": 2.0}})
    shape = True
    for prof_ in (prof, dominant, tie):
        for alg in prof_.algorithms:
            curve = prof_.curves[alg]
            shape &= all(a <= b for a, b in zip(curve, curve[1:])) and curve[-1] == 1.0
    ok = (
        hand
        and profile_value(dominant, "a1", 1.0) == 1.0
        and tie.ratios["a1"] == (1.0,)
        and tie.ratios["a2"] == (1.0,)
        and shape
    )
    _report(8, ok, "hand-computed profile values, monotone curves ending at 1")


def test_criterion_9_pan_european_and_timing(suite_1000):
    net = pan_european_fixture()
    cat = enumerate_mps(net)
    notes = [f"measured q={cat.q}"]
    if cat.q == 1274:
        expected = (560, 560, 560, 560, 560, 551, 550, 550, 550, 549)
        t_fixed = derive_query(cat).T
        counts = []
        for d in range(6, 16):
            b = math.ceil(d * sum(p.cp for p in cat) / cat.q)
            counts.append(solve_a2(net, cat, Query(d, t_fixed, b)).sigma)
        conditional_ok = tuple(counts) == expected
        notes.append(f"solution counts {counts}")
    else:
        conditional_ok = True
        sweep = []
        q0 = derive_query(cat)
        for d in demand_grid(cat):
            b = math.ceil(d * sum(p.cp for p in cat) / cat.q)
            sweep.append(solve_a2(net, cat, Query(d, q0.T, b)).sigma)
        notes.append(f"informational: published path count not reproduced; d-sweep sigma={sweep}")

    instances, _ = suite_1000
    items = [(inst.name, inst.network, inst.catalog, inst.query) for inst in instances]
    by_inst = {}
    for r in run_benchmark(items):
        by_inst.setdefault(r.instance, {})[r.algorithm] = r.seconds
    totals = {"a1": 0.0, "a2": 0.0}
    for algs in by_inst.values():
        totals["a1"] += algs["a1"]
        totals["a2"] += algs["a2"]
    ratio = totals["a1"] / totals["a2"]
    notes.append(f"suite time a1/a2 = {ratio:.3f}")

    # per-node-count mean times and their ratio column (structure only;
    # absolute numbers are machine dependent)
    groups = {}
    for inst in instances:
        algs = by_inst[inst.name]
        groups.setdefault(inst.config.n, []).append((algs["a1"], algs["a2"]))
    table_ok = sorted(groups) == list(range(11, 31))
    for n, times in groups.items():
        mean1 = sum(t[0] for t in times) / len(times)
        mean2 = sum(t[1] for t in times) / len(times)
        table_ok &= len(times) == 50 and mean1 > 0 and mean2 > 0 and mean2 / mean1 > 0
    _report(9, conditional_ok and table_ok and ratio <= 1.10, "; ".join(notes))
