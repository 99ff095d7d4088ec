"""Core network model: arcs with random integer capacities, state vectors
and minimal paths.

A network is a directed multigraph. Every arc has a fixed lead time (latency
before the first unit arrives), a fixed per-unit transmission cost, and a
current capacity that varies between 0 and its maximum according to a known
probability distribution. Sending ``d`` units over an arc with current
capacity ``x`` takes ``lead + ceil(d / x)`` time units and costs ``d * cost``.
Path-level quantities follow: lead times and unit costs add up along a path,
capacity is the bottleneck (minimum) over its arcs.

State vectors are plain tuples of ints, one entry per arc, ordered by arc id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

StateVector = Tuple[int, ...]

PROB_SUM_TOL = 1e-9


def ceil_div(a: int, b: int) -> int:
    """Exact integer ceil(a / b) for positive b."""
    return -(-a // b)


@dataclass(frozen=True)
class Arc:
    """One directed arc.

    ``dist[v]`` is the probability that the current capacity equals ``v``,
    for v = 0..max_cap. The distribution may be omitted (``None``) when only
    structural work is needed; reliability computations require it.
    """

    id: int
    tail: int
    head: int
    max_cap: int
    lead: int
    unit_cost: int
    dist: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        if self.id < 1:
            raise ValueError(f"arc id must be >= 1, got {self.id}")
        if self.tail == self.head:
            raise ValueError(f"arc {self.id}: self-loop {self.tail}->{self.head}")
        if self.max_cap < 0:
            raise ValueError(f"arc {self.id}: max_cap must be >= 0")
        if self.lead < 1:
            raise ValueError(f"arc {self.id}: lead time must be >= 1")
        if self.unit_cost < 1:
            raise ValueError(f"arc {self.id}: unit cost must be >= 1")
        if self.dist is not None:
            if len(self.dist) != self.max_cap + 1:
                raise ValueError(
                    f"arc {self.id}: dist needs {self.max_cap + 1} entries, got {len(self.dist)}"
                )
            total = 0.0
            for p in self.dist:
                if not 0.0 <= p <= 1.0:  # also false for NaN
                    raise ValueError(f"arc {self.id}: probabilities must lie in [0, 1]")
                total += p
            if abs(total - 1.0) > PROB_SUM_TOL:
                raise ValueError(f"arc {self.id}: probabilities sum to {total!r}, not 1")


@dataclass(frozen=True)
class Network:
    """Directed multigraph with per-arc data; node ids are 1..n.

    By convention node 1 is the source and node n the sink, but both can be
    overridden. Parallel arcs between the same node pair are allowed.
    """

    n: int
    arcs: Tuple[Arc, ...]
    source: int = 1
    sink: Optional[int] = None  # None means node n

    def __post_init__(self):
        object.__setattr__(self, "arcs", tuple(self.arcs))
        if self.sink is None:
            object.__setattr__(self, "sink", self.n)
        if self.n < 2:
            raise ValueError("network needs at least 2 nodes")
        for pos, arc in enumerate(self.arcs, 1):
            if arc.id != pos:
                raise ValueError(f"arc ids must be 1..m in order; position {pos} has id {arc.id}")
            for node in (arc.tail, arc.head):
                if not 1 <= node <= self.n:
                    raise ValueError(f"arc {arc.id}: node {node} outside 1..{self.n}")
        for name, node in (("source", self.source), ("sink", self.sink)):
            if not 1 <= node <= self.n:
                raise ValueError(f"{name} {node} outside 1..{self.n}")
        if self.source == self.sink:
            raise ValueError("source and sink must differ")

    @property
    def m(self) -> int:
        return len(self.arcs)

    @property
    def state_space_size(self) -> int:
        size = 1
        for a in self.arcs:
            size *= a.max_cap + 1
        return size


@dataclass(frozen=True)
class MinimalPath:
    """An arc-id set forming a source->sink path, with cached per-path sums.

    ``lp`` is the total lead time, ``cp`` the total per-unit cost, and
    ``kp_max`` the path capacity when every arc sits at its maximum. Build
    one with ``path_stats``, which sorts and checks the arc ids.
    """

    arc_ids: Tuple[int, ...]
    lp: int
    cp: int
    kp_max: int


@dataclass(frozen=True)
class Query:
    """A demand of d data units within time limit T and budget b."""

    d: int
    T: int
    b: int

    def __post_init__(self):
        for name in ("d", "T", "b"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")


def path_stats(net: Network, arc_ids: Iterable[int]) -> MinimalPath:
    """Build a MinimalPath for the given arc-id set, computing its caches."""
    ids = sorted(arc_ids)
    if not ids:
        raise ValueError("empty arc set")
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate arc ids in {ids}")
    for i in ids:
        if not 1 <= i <= net.m:
            raise IndexError(f"arc id {i} outside 1..{net.m}")
    arcs = [net.arcs[i - 1] for i in ids]
    return MinimalPath(
        arc_ids=tuple(ids),
        lp=sum(a.lead for a in arcs),
        cp=sum(a.unit_cost for a in arcs),
        kp_max=min(a.max_cap for a in arcs),
    )
