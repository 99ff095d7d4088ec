"""The benchmark's workloads: the inputs each makes from the seed, what one
op runs, and how its output is checked.

An op is one user question. The program receives only serialised ``.net``
text; everything else (generator draws, sigma for the selection) happens at
set-up and is never timed into an op.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from mfnrel import (
    GenConfig,
    Network,
    Query,
    capacity_distribution,
    demand_grid,
    derive_query,
    enumerate_mps,
    fig3_fixture,
    generate_instance,
    pan_european_fixture,
    parse,
    solve_a1,
    solve_a2,
    write,
)

#: Reliability values, oracle and inclusion-exclusion must agree this closely.
TOLERANCE = 1e-12


class Mismatch(Exception):
    """Two routes that must agree gave different answers inside an op."""


@dataclass(frozen=True)
class Op:
    key: str  # stable name; the reference values are keyed by it
    text: str  # the serialised instance, all the program is given
    queries: Tuple[Query, ...]  # empty: the op derives its demand sweep itself
    sigmas: Tuple[int, ...]  # sigma per query, computed at set-up


@dataclass
class GenLog:
    """Time spent inside ``generate_instance`` and its redraws, per set-up."""

    seconds: float = 0.0
    instances: int = 0
    attempts: int = 0
    #: Called after every draw, so that the runner can time set-up in short
    #: stretches (see ``speed.Stopwatch``).
    lap: Callable[[], None] = dataclasses.field(default=lambda: None, repr=False)


def _draw(n: int, seed: int, log: GenLog):
    t0 = perf_counter()
    inst = generate_instance(GenConfig(n=n, seed=seed))
    log.seconds += perf_counter() - t0
    log.instances += 1
    log.attempts += inst.attempts
    log.lap()
    return inst


def _sigma(net: Network, cat, query: Query) -> int:
    return solve_a1(net, cat, query).sigma


def _query_key(q: Query) -> str:
    return f"d{q.d}T{q.T}b{q.b}"


def _pick(rng, n_range, quotas, draws, log, measure) -> List[tuple]:
    """Draw ``draws`` instances with n cycling through ``n_range``, and more
    only while a band has fewer candidates than its count, and sort each
    into the band that ``measure(instance)`` falls in. From each band keep
    ``count`` candidates evenly spaced in its order by (measure, arcs, q):
    the arc count and the catalog size q set the parse and enumeration time.
    So every band's op costs are quantiles of all its candidates, not the
    first few drawn, and a fixed number of draws keeps the set-up work alike
    from seed to seed. Returns ``(instance, measure)`` per kept candidate;
    the kept instances are drawn again rather than held, so peak memory is
    the pool's."""
    bands: List[list] = [[] for _ in quotas]
    n_lo, n_hi = n_range
    for draw in range(200_000):
        if draw >= draws and all(len(band) >= count for band, (_, _, count) in zip(bands, quotas)):
            break
        n, gen_seed = n_lo + draw % (n_hi - n_lo + 1), rng.randrange(1 << 31)
        inst = _draw(n, gen_seed, log)
        value = measure(inst)
        for band, (lo, hi, _) in zip(bands, quotas):
            if lo <= value <= (math.inf if hi is None else hi):
                band.append((value, inst.network.m, inst.catalog.q, draw, n, gen_seed))
                break
    else:
        raise RuntimeError("quotas still short of candidates after 200000 draws")
    picks = []
    for band, (_, _, count) in zip(bands, quotas):
        band.sort()
        for i in range(count):
            value, *_, n, gen_seed = band[int((i + 0.5) * len(band) / count)]
            picks.append((_draw(n, gen_seed, log), value))
    return picks


def _rel_ops(rng, n_range, quotas, draws, log) -> List[Op]:
    """Ops on the derived query of instances picked by its sigma."""
    picks = _pick(rng, n_range, quotas, draws, log, lambda inst: _sigma(inst.network, inst.catalog, inst.query))
    return [
        Op(key=f"{inst.name}/{_query_key(inst.query)}", text=write(inst.network), queries=(inst.query,), sigmas=(sigma,))
        for inst, sigma in picks
    ]


def _pan_european_ops(with_dist: bool) -> List[Op]:
    net = pan_european_fixture()
    if with_dist:
        arcs = tuple(dataclasses.replace(a, dist=capacity_distribution(a.max_cap)) for a in net.arcs)
        net = Network(n=net.n, arcs=arcs, source=net.source, sink=net.sink)
    cat = enumerate_mps(net)
    queries = tuple(derive_query(cat, d) for d in demand_grid(cat))
    sigmas = tuple(_sigma(net, cat, q) for q in queries)
    text = write(net)
    if not with_dist:
        return [Op(key="pan-european/sweep", text=text, queries=(), sigmas=sigmas)]
    return [
        Op(key=f"pan-european/{_query_key(q)}", text=text, queries=(q,), sigmas=(s,))
        for q, s in zip(queries, sigmas)
    ]


# ---------------------------------------------------------------------------
# rel-population and rel-union: parse -> enumerate_mps -> reliability (a1)

#: Sigma bands of the derived query and the ops per pass drawn for each.
#: The counts are the bands' shares of the standard 1000-instance suite
#: (n = 11..30, seeds 0..49), rounded to 120 ops. Fixed counts keep deadline
#: misses, which cost L each, from making one seed's pass much longer than
#: another's, and the narrow bands below 9 keep the median op, where IE
#: time is still comparable to parse time, alike from seed to seed. With the
#: two pan-European sigma = 30 demands, 11 ops run into L, so the tail (10
#: ops beyond it) is a measured deadline miss.
#:
#: Sigma 15..17 is left out. Those ops take 0.4 to 3 s today, within 2x of
#: L either way, so whether one meets L depended on the machine's speed at
#: that moment, and the failed count changed from run to run of one seed.
#: Sigma 13..14 (at most 0.5 s when the machine is slow) takes the 15..16
#: share and sigma 18..30 (at least 2.5 s when it is fast) takes the 17..30
#: share, so every op is answered in every run or misses L in every run.
POPULATION_QUOTAS = (
    (0, 0, 23),
    (1, 2, 30),
    (3, 4, 18),
    (5, 6, 10),
    (7, 8, 7),
    (9, 12, 10),
    (13, 14, 4),
    (18, 30, 9),
    (31, None, 9),
)
#: Draws per rel-population set-up: seeds 0..59 fill the quotas in 146..350.
POPULATION_DRAWS = 400

#: Six instances for each sigma 8..14. At a fixed sigma the IE cost grows
#: with the arc count, so n is drawn from 21..30 (30..52 arcs), where the
#: arc count varies least; otherwise one seed's union time differs from
#: another's by the arcs it happened to draw.
UNION_QUOTAS = tuple((s, s, 6) for s in range(8, 15))
#: Draws per rel-union set-up: seeds 0..59 fill the quotas in 442..1139.
UNION_DRAWS = 1200


def build_rel_population(seed: int, tiny: bool, log: GenLog) -> List[Op]:
    rng = random.Random(f"rel-population/{seed}")
    quotas = tuple((lo, hi, 1) for lo, hi, _ in POPULATION_QUOTAS) if tiny else POPULATION_QUOTAS
    ops = _rel_ops(rng, (11, 30), quotas, 0 if tiny else POPULATION_DRAWS, log)
    ops += _pan_european_ops(with_dist=True)
    rng.shuffle(ops)
    return ops


def build_rel_union(seed: int, tiny: bool, log: GenLog) -> List[Op]:
    rng = random.Random(f"rel-union/{seed}")
    quotas = tuple((lo, hi, 1) for lo, hi, _ in UNION_QUOTAS) if tiny else UNION_QUOTAS
    ops = _rel_ops(rng, (21, 30), quotas, 0 if tiny else UNION_DRAWS, log)
    rng.shuffle(ops)
    return ops


def run_rel(api, op: Op):
    inst = api.parse(op.text)
    cat = api.enumerate_mps(inst.network)
    value, sol = api.reliability(inst.network, cat, op.queries[0])
    return {"value": value, "sol": sol, "network": inst.network, "catalog": cat}


def check_rel(op: Op, result: Optional[dict], reference: Optional[dict]) -> Optional[str]:
    """a1 and a2 agree on every op, answered or not; an answered value lies
    in [0, 1] and, for the default seed, matches the recorded reference."""
    if result is None:
        inst = parse(op.text)
        net, cat = inst.network, enumerate_mps(inst.network)
        a1 = solve_a1(net, cat, op.queries[0]).vector_set()
    else:
        net, cat, a1 = result["network"], result["catalog"], result["sol"].vector_set()
    if a1 != solve_a2(net, cat, op.queries[0]).vector_set():
        return f"{op.key}: a1 and a2 vector sets differ"
    if result is None:
        return None
    value = result["value"]
    if not 0.0 <= value <= 1.0:
        return f"{op.key}: reliability {value!r} outside [0, 1]"
    if reference is not None and reference.get(op.key) is not None:
        if abs(value - reference[op.key]) > TOLERANCE:
            return f"{op.key}: reliability {value!r} != reference {reference[op.key]!r}"
    return None


# ---------------------------------------------------------------------------
# solve-sweep: the paper's benchmark (parse -> enumerate_mps -> a1/a2 x 10 demands)

#: Catalog-size bands of the generated ops and the ops per pass drawn for
#: each, from SWEEP_DRAWS draws with n cycling through 11..30. Op time
#: follows the catalog size q closely (correlation 0.95), and q has a heavy
#: tail (p97.5 about 126, the largest of 32000 draws 337). A pool of plain
#: draws, or of every fourth of them ranked by q, put the tail op (the 11th
#: slowest) on whichever large catalogs a seed drew, and it moved by up to a
#: fifth from seed to seed. The counts are the bands' shares of 32000 draws
#: (seeds 0..19), rounded to 400 ops. The top band holds exactly 10 ops, so
#: the tail op is the top of the bounded band below it.
SWEEP_QUOTAS = (
    (1, 3, 136),
    (4, 7, 69),
    (8, 15, 67),
    (16, 31, 57),
    (32, 63, 39),
    (64, 95, 15),
    (96, 127, 7),
    (128, None, 10),
)
#: Draws per solve-sweep set-up. The 96..127 and q >= 128 bands hold about
#: 1.75 % and 2.5 % of the draws, so about 28 and 40 candidates.
SWEEP_DRAWS = 1600


def build_solve_sweep(seed: int, tiny: bool, log: GenLog) -> List[Op]:
    rng = random.Random(f"solve-sweep/{seed}")
    quotas = tuple((lo, hi, 1) for lo, hi, _ in SWEEP_QUOTAS) if tiny else SWEEP_QUOTAS
    ops = []
    for inst, _ in _pick(rng, (11, 30), quotas, 0 if tiny else SWEEP_DRAWS, log, lambda inst: inst.catalog.q):
        queries = [derive_query(inst.catalog, d) for d in demand_grid(inst.catalog)]
        sigmas = tuple(_sigma(inst.network, inst.catalog, q) for q in queries)
        ops.append(Op(key=f"{inst.name}/sweep", text=write(inst.network), queries=(), sigmas=sigmas))
    ops += _pan_european_ops(with_dist=False)
    rng.shuffle(ops)
    return ops


def run_sweep(api, op: Op):
    inst = api.parse(op.text)
    net = inst.network
    cat = api.enumerate_mps(net)
    sigmas = []
    for d in demand_grid(cat):
        query = derive_query(cat, d)
        a1 = api.solve_a1(net, cat, query)
        a2 = api.solve_a2(net, cat, query)
        if a1.vector_set() != a2.vector_set():
            raise Mismatch(f"{op.key} d={d}: a1 and a2 vector sets differ")
        sigmas.append(a1.sigma)
    return {"sigmas": tuple(sigmas)}


def check_sweep(op: Op, result: Optional[dict], reference: Optional[dict]) -> Optional[str]:
    if result is not None and result["sigmas"] != op.sigmas:
        return f"{op.key}: sigma per demand {result['sigmas']} != {op.sigmas} from set-up"
    return None


# ---------------------------------------------------------------------------
# oracle-fig3: parse -> brute_force_reliability -> reliability on the fixture

ORACLE_QUERIES = 100


def build_oracle_fig3(seed: int, tiny: bool, log: GenLog) -> List[Op]:
    rng = random.Random(f"oracle-fig3/{seed}")
    fx = fig3_fixture()
    text = write(fx.network, fx.catalog)
    ops = []
    for _ in range(2 if tiny else ORACLE_QUERIES):
        q = Query(d=rng.randint(1, 12), T=rng.randint(5, 14), b=rng.randint(10, 150))
        ops.append(Op(key=f"fig3/{_query_key(q)}", text=text, queries=(q,), sigmas=(_sigma(fx.network, fx.catalog, q),)))
    return ops


#: The query of the op run once at set-up to warm up. The oracle's cost
#: depends on the query, so the warm-up op is the same for every seed.
ORACLE_WARMUP = Query(d=12, T=5, b=10)


def oracle_warmup(ops: List[Op]) -> Op:
    return dataclasses.replace(ops[0], key="fig3/warm-up", queries=(ORACLE_WARMUP,), sigmas=())


def run_oracle(api, op: Op):
    inst = api.parse(op.text)
    oracle_value, minimal = api.brute_force_reliability(inst.network, inst.catalog, op.queries[0])
    value, sol = api.reliability(inst.network, inst.catalog, op.queries[0])
    return {"oracle": oracle_value, "minimal": minimal, "value": value, "sol": sol, "instance": inst}


def check_oracle(op: Op, result: Optional[dict], reference: Optional[dict]) -> Optional[str]:
    if result is None:
        return None
    if abs(result["oracle"] - result["value"]) > TOLERANCE:
        return f"{op.key}: oracle {result['oracle']!r} != IE {result['value']!r}"
    if frozenset(result["minimal"]) != result["sol"].vector_set():
        return f"{op.key}: oracle minimal vectors differ from the solver's set"
    inst = result["instance"]
    if solve_a2(inst.network, inst.catalog, op.queries[0]).vector_set() != result["sol"].vector_set():
        return f"{op.key}: a1 and a2 vector sets differ"
    return None


def smallest_sigma(ops: List[Op]) -> Op:
    """The op run once at set-up to warm up: one answered well inside L."""
    return min(ops, key=lambda op: max(op.sigmas, default=0))


@dataclass(frozen=True)
class Workload:
    name: str
    build: object  # (seed, tiny, GenLog) -> list of Op
    run: object  # (api, Op) -> result; raises on refusal or mismatch
    check: object  # (Op, result or None, reference or None) -> problem or None
    kernel: str  # speed.py kernel in the style of the hot layer (see the trace)
    warmup: object = smallest_sigma  # (list of Op) -> the op run once at set-up


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("rel-population", build_rel_population, run_rel, check_rel, "python"),
        Workload("rel-union", build_rel_union, run_rel, check_rel, "python"),
        Workload("solve-sweep", build_solve_sweep, run_sweep, check_sweep, "python"),
        Workload("oracle-fig3", build_oracle_fig3, run_oracle, check_oracle, "numpy", oracle_warmup),
    )
}
