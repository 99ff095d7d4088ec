"""Benchmark lab: random instance generation, bundled fixtures, a timing
harness for the two solvers, and performance-profile curves.

Instance recipe (for n nodes, one RNG seeded per instance):

* arc count m is uniform in [f, f+g] with f = 3*(ceil(n/2) - 1) and
  g = 25 - ceil(n/2); the upper end is clamped to the number of admissible
  node pairs when n is small;
* arc endpoints are sampled without replacement from the admissible ordered
  pairs: no self-loops, no duplicates, nothing into the source or out of
  the sink;
* per arc, max capacity ~ U[10, 50], lead time ~ U[5, 10], unit cost
  ~ U[5, 20] (all integer);
* instances are rejected and redrawn until at least one source->sink path
  exists and the path count stays under the cap.

The derived demand/time/budget of an instance are rounded means over its
path catalog: d = ceil(mean path capacity at maximum), T = ceil(mean path
lead time), b = ceil(d * mean path unit cost).
"""

from __future__ import annotations

import math
import random
import statistics
import time
from dataclasses import dataclass
from importlib import resources
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import BenchmarkMismatchError, GenerationError, ResourceLimitError
from .instance_io import ParsedInstance, parse
from .model import Arc, Network, Query, ceil_div
from .paths import MpCatalog, enumerate_mps
from .solver import SolutionSet, solve_a1, solve_a2

CAP_RANGE = (10, 50)
LEAD_RANGE = (5, 10)
COST_RANGE = (5, 20)

#: Consecutive unusable draws after which generation gives up.
MAX_REJECTS = 1000

#: Sample count of each performance-profile curve.
PROFILE_GRID_POINTS = 64

#: Timed runs per (instance, algorithm); the median is recorded.
REPEATS = 5

_SOLVERS = {"a1": solve_a1, "a2": solve_a2}


@dataclass(frozen=True)
class GenConfig:
    """Parameters of one random instance; n and seed fully determine it."""

    n: int
    seed: int

    def __post_init__(self):
        if self.n < 4:
            raise ValueError("need at least 4 nodes")
        if self.g < 0:
            raise ValueError(f"n = {self.n} pushes the arc-count spread below 0")

    @property
    def half(self) -> int:
        return (self.n + 1) // 2  # ceil(n/2)

    @property
    def f(self) -> int:
        return 3 * (self.half - 1)

    @property
    def g(self) -> int:
        return 25 - self.half


@dataclass(frozen=True)
class GeneratedInstance:
    network: Network
    catalog: MpCatalog
    query: Query
    config: GenConfig
    attempts: int

    @property
    def name(self) -> str:
        return f"n{self.config.n:02d}-s{self.config.seed}"


def capacity_distribution(max_cap: int) -> Tuple[float, ...]:
    """Skewed-to-healthy distribution for generated arcs.

    Mass 0.7 at the maximum, 0.1 one level below, and the remaining 0.2
    spread evenly over the lower levels (all of the remainder lands on level
    0 when the arc has only two levels). The benchmarked solver steps never
    read these probabilities; they only matter for reliability evaluation
    on generated files.
    """
    if max_cap < 1:
        raise ValueError("max_cap must be >= 1")
    if max_cap == 1:
        return (0.3, 0.7)
    dist = [0.0] * (max_cap + 1)
    dist[max_cap] = 0.7
    dist[max_cap - 1] = 0.1
    share = 0.2 / (max_cap - 1)
    for v in range(max_cap - 1):
        dist[v] = share
    return tuple(dist)


def admissible_pairs(n: int) -> List[Tuple[int, int]]:
    """Ordered endpoint pairs a generated arc may use (source 1, sink n)."""
    return [
        (t, h)
        for t in range(1, n)
        for h in range(2, n + 1)
        if t != h
    ]


def derive_query(cat: MpCatalog, d: Optional[int] = None) -> Query:
    """Demand/time/budget derived from rounded catalog means.

    A caller-chosen demand may be passed in (the benchmark sweep varies d);
    the budget is then derived for that demand.
    """
    if cat.q == 0:
        raise ValueError("cannot derive a query from an empty catalog")
    if d is None:
        d = ceil_div(sum(p.kp_max for p in cat), cat.q)
    T = ceil_div(sum(p.lp for p in cat), cat.q)
    b = ceil_div(d * sum(p.cp for p in cat), cat.q)
    return Query(d=d, T=T, b=b)


def generate_instance(cfg: GenConfig) -> GeneratedInstance:
    """Draw one random instance; deterministic for a fixed (n, seed)."""
    rng = random.Random(cfg.seed)
    pairs = admissible_pairs(cfg.n)
    m_low, m_high = cfg.f, min(cfg.f + cfg.g, len(pairs))

    rejects = 0
    while True:
        m = rng.randint(m_low, m_high)
        endpoints = rng.sample(pairs, m)
        arcs = []
        for i, (tail, head) in enumerate(endpoints, 1):
            max_cap = rng.randint(*CAP_RANGE)
            lead = rng.randint(*LEAD_RANGE)
            cost = rng.randint(*COST_RANGE)
            arcs.append(
                Arc(
                    id=i,
                    tail=tail,
                    head=head,
                    max_cap=max_cap,
                    lead=lead,
                    unit_cost=cost,
                    dist=capacity_distribution(max_cap),
                )
            )
        net = Network(n=cfg.n, arcs=tuple(arcs))
        try:
            cat = enumerate_mps(net)
        except ResourceLimitError:
            cat = MpCatalog(paths=())
        if cat.q >= 1:
            return GeneratedInstance(
                network=net,
                catalog=cat,
                query=derive_query(cat),
                config=cfg,
                attempts=rejects + 1,
            )
        rejects += 1
        if rejects >= MAX_REJECTS:
            raise GenerationError(
                f"{MAX_REJECTS} consecutive unusable networks for n={cfg.n}, seed={cfg.seed}"
            )


# ---------------------------------------------------------------------------
# Bundled fixtures


def fig3_fixture() -> ParsedInstance:
    """The 5-node / 8-arc worked example with its nine-path catalog pinned.

    Parses the packaged ``fig3_mplevel.net``; its header says which paths
    exist at catalog granularity only.
    """
    return _packaged("fig3_mplevel.net")


def pan_european_fixture() -> Network:
    """The bundled 28-node / 40-arc continental backbone network, parsed
    from the packaged ``pan_european.net``."""
    return _packaged("pan_european.net").network


def _packaged(name: str) -> ParsedInstance:
    return parse(resources.files("mfnrel").joinpath(f"data/{name}").read_text(encoding="utf-8"))


def demand_grid(cat: MpCatalog) -> List[int]:
    """Demand sweep around the catalog-derived level: d*-5 .. d*+4."""
    d_star = derive_query(cat).d
    return [max(1, d_star - 5 + i) for i in range(10)]


# ---------------------------------------------------------------------------
# Timing harness


@dataclass(frozen=True)
class BenchRecord:
    instance: str
    algorithm: str
    seconds: float
    sigma: int
    k: int
    q: int


def run_benchmark(items: Sequence[Tuple[str, Network, MpCatalog, Query]]) -> List[BenchRecord]:
    """Time the solution-set construction step of a1 and a2.

    Per (instance, algorithm): one discarded warmup run, then the median of
    ``REPEATS`` wall-clock timings, single-threaded. Before anything is
    timed the two vector sets are compared; a mismatch aborts the whole
    benchmark, since timings of disagreeing solvers mean nothing.
    """
    records: List[BenchRecord] = []
    for name, net, cat, query in items:
        warm: Dict[str, SolutionSet] = {alg: fn(net, cat, query) for alg, fn in _SOLVERS.items()}
        a1_set, a2_set = warm["a1"].vector_set(), warm["a2"].vector_set()
        if a1_set != a2_set:
            raise BenchmarkMismatchError(
                f"instance {name}: a1 and a2 disagree ({len(a1_set)} vs {len(a2_set)} vectors)"
            )
        for alg, fn in _SOLVERS.items():
            times = []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                fn(net, cat, query)
                times.append(time.perf_counter() - t0)
            records.append(
                BenchRecord(
                    instance=name,
                    algorithm=alg,
                    seconds=statistics.median(times),
                    sigma=warm[alg].sigma,
                    k=warm[alg].k,
                    q=cat.q,
                )
            )
    return records


# ---------------------------------------------------------------------------
# Performance profiles


@dataclass(frozen=True)
class ProfileData:
    """Per-algorithm time ratios and their cumulative distribution.

    ``ratios[alg][i]`` is the time of ``alg`` on the i-th instance, by
    sorted name, divided by the best time on that instance (ties give 1 to
    every winner). ``curves`` samples each distribution on ``tau_grid``.
    """

    algorithms: Tuple[str, ...]
    ratios: Mapping[str, Tuple[float, ...]]
    tau_grid: Tuple[float, ...]
    curves: Mapping[str, Tuple[float, ...]]


def performance_profile(times: Mapping[str, Mapping[str, float]]) -> ProfileData:
    """Cumulative distribution of each algorithm's time ratio to the best.

    ``times`` maps instance -> algorithm -> positive seconds; every instance
    must carry the same algorithms (at least two). The tau grid is
    log-spaced from 1 to the largest observed ratio.
    """
    if not times:
        raise ValueError("no instances")
    instances = tuple(sorted(times))
    algorithms = tuple(sorted(times[instances[0]]))
    if len(algorithms) < 2:
        raise ValueError("need at least two algorithms to compare")
    for inst in instances:
        if tuple(sorted(times[inst])) != algorithms:
            raise ValueError(f"instance {inst} does not cover all algorithms")
        for alg, t in times[inst].items():
            if not 0 < t < math.inf:
                raise ValueError(f"time {t!r} for {inst}/{alg} is not finite and positive")

    ratios: Dict[str, List[float]] = {alg: [] for alg in algorithms}
    for inst in instances:
        best = min(times[inst].values())
        for alg in algorithms:
            ratios[alg].append(times[inst][alg] / best)

    max_ratio = max(max(rs) for rs in ratios.values())
    if max_ratio <= 1.0:
        grid = (1.0,)
    else:
        grid = tuple(
            max_ratio ** (i / (PROFILE_GRID_POINTS - 1)) for i in range(PROFILE_GRID_POINTS)
        )
    n_inst = len(instances)
    curves = {
        alg: tuple(sum(1 for r in rs if r <= tau) / n_inst for tau in grid)
        for alg, rs in ((a, ratios[a]) for a in algorithms)
    }
    return ProfileData(
        algorithms=algorithms,
        ratios={alg: tuple(rs) for alg, rs in ratios.items()},
        tau_grid=grid,
        curves=curves,
    )
