"""Shared builders for randomized tests: small networks the exhaustive
oracle can chew through, an independent path enumerator that searches
node permutations instead of walking the graph, a minimality check
that tests single-coordinate decrements instead of solving, and the
scalar transmission formulas that the tests compare the solver against."""

import itertools
import math
import random
from typing import Sequence, Tuple

from mfnrel import Arc, MinimalPath, MpCatalog, Network, ProfileData, Query, StateVector
from mfnrel.model import ceil_div

#: Marker for "cannot be transmitted"; orders above every finite time, so
#: monotonicity statements hold without special cases.
INFEASIBLE = math.inf


class ZeroCapacityError(ValueError):
    """Transmission over an arc whose current capacity is zero."""


class EmptyCatalogError(ValueError):
    """An operation that needs at least one source->sink path got none."""


def max_caps(net: Network) -> StateVector:
    return tuple(a.max_cap for a in net.arcs)


def profile_value(prof: ProfileData, algorithm: str, tau: float) -> float:
    """The profile curve of ``algorithm`` evaluated exactly at ``tau``."""
    rs = prof.ratios[algorithm]
    return sum(1 for r in rs if r <= tau) / len(rs)


def arc_transmit(d: int, x: int, lead: int, unit_cost: int) -> Tuple[int, int]:
    """Time and cost of pushing d units through one arc at capacity x."""
    if d < 1:
        raise ValueError("demand must be >= 1")
    if x < 0:
        raise ValueError("capacity must be >= 0")
    if x == 0:
        raise ZeroCapacityError("arc capacity is 0; transmission impossible")
    return lead + ceil_div(d, x), d * unit_cost


def path_capacity(x: Sequence[int], path: MinimalPath) -> int:
    """Bottleneck capacity of the path under state vector x."""
    return min(x[i - 1] for i in path.arc_ids)


def path_time(d: int, x: Sequence[int], path: MinimalPath):
    """Time to send d units over one path under state x; INFEASIBLE if blocked."""
    if d < 1:
        raise ValueError("demand must be >= 1")
    cap = path_capacity(x, path)
    if cap == 0:
        return INFEASIBLE
    return path.lp + ceil_div(d, cap)


def path_cost(d: int, path: MinimalPath) -> int:
    """Cost of sending d units over the path (capacity independent)."""
    if d < 1:
        raise ValueError("demand must be >= 1")
    return d * path.cp


def best_time(d: int, x: Sequence[int], paths, budget: int):
    """Fastest budget-affordable single-path transmission time under state x.

    ``paths`` must be the complete minimal-path collection of the network
    (anything iterable over MinimalPath). Returns INFEASIBLE when no path is
    affordable or every affordable path has zero capacity under x.
    """
    items = list(paths)
    if not items:
        raise EmptyCatalogError("network has no source->sink path")
    best = INFEASIBLE
    for p in items:
        if d * p.cp > budget:
            continue
        t = path_time(d, x, p)
        if t < best:
            best = t
    return best


def random_dist(rng: random.Random, max_cap: int):
    weights = [rng.random() + 0.05 for _ in range(max_cap + 1)]
    total = sum(weights)
    return tuple(w / total for w in weights)


def small_random_network(rng: random.Random, n_max=6, m_max=8, cap_max=3) -> Network:
    n = rng.randint(2, n_max)
    m = rng.randint(1, m_max)
    arcs = []
    for i in range(1, m + 1):
        tail = rng.randint(1, n)
        head = rng.randint(1, n)
        while head == tail:
            head = rng.randint(1, n)
        max_cap = 0 if rng.random() < 0.08 else rng.randint(1, cap_max)
        arcs.append(
            Arc(
                id=i,
                tail=tail,
                head=head,
                max_cap=max_cap,
                lead=rng.randint(1, 4),
                unit_cost=rng.randint(1, 4),
                dist=random_dist(rng, max_cap),
            )
        )
    return Network(n=n, arcs=tuple(arcs))


def random_query(rng: random.Random, cat: MpCatalog) -> Query:
    """Query that may land anywhere between trivially easy and impossible."""
    if cat.q:
        lps = [p.lp for p in cat]
        cps = [p.cp for p in cat]
        d = rng.randint(1, 6)
        if rng.random() < 0.6:
            # generous end: enough time and money for at least one path
            T = rng.randint(min(lps) + 1, max(lps) + d + 3)
            b = rng.randint(d * min(cps), d * max(cps) + 4)
        else:
            # stress end: tight or impossible limits
            T = rng.randint(max(1, min(lps) - 2), max(lps) + 2)
            b = rng.randint(1, d * max(cps))
    else:
        d, T, b = rng.randint(1, 5), rng.randint(1, 9), rng.randint(1, 30)
    return Query(d=d, T=T, b=b)


def node_sequence_paths(net: Network):
    """Every simple source->sink path as a frozen arc-id set.

    Enumerates node permutations and fills in parallel-arc choices, so it
    shares nothing with the depth-first enumerator it cross-checks.
    """
    arcs_between = {}
    for a in net.arcs:
        arcs_between.setdefault((a.tail, a.head), []).append(a.id)
    inner = [v for v in range(1, net.n + 1) if v not in (net.source, net.sink)]
    found = set()
    for k in range(len(inner) + 1):
        for mid in itertools.permutations(inner, k):
            seq = (net.source, *mid, net.sink)
            legs = [arcs_between.get(hop) for hop in zip(seq, seq[1:])]
            if all(legs):
                for combo in itertools.product(*legs):
                    found.add(frozenset(combo))
    return found


def arc_subset_connects(net: Network, arc_ids) -> bool:
    """True when the arc subset alone still links source to sink."""
    allowed = set(arc_ids)
    frontier = [net.source]
    seen = {net.source}
    while frontier:
        v = frontier.pop()
        if v == net.sink:
            return True
        for a in net.arcs:
            if a.id in allowed and a.tail == v and a.head not in seen:
                seen.add(a.head)
                frontier.append(a.head)
    return net.sink in seen


def is_real_dtb(net: Network, cat: MpCatalog, query: Query, x) -> bool:
    """True when x is feasible and no single-coordinate decrement stays so.

    Because feasibility is monotone in the state vector, checking the one-step
    decrements suffices to certify minimality.
    """
    if len(x) != net.m:
        raise ValueError(f"vector length {len(x)} != arc count {net.m}")
    for i, a in enumerate(net.arcs):
        if not 0 <= x[i] <= a.max_cap:
            raise ValueError(f"coordinate {i + 1} = {x[i]} outside 0..{a.max_cap}")
    if cat.q == 0:
        return False
    if not best_time(query.d, x, cat, query.b) <= query.T:
        return False
    for i in range(net.m):
        if x[i] > 0:
            y = x[:i] + (x[i] - 1,) + x[i + 1 :]
            if best_time(query.d, y, cat, query.b) <= query.T:
                return False
    return True
