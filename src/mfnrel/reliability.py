"""Exact reliability: probability that the demand can be met.

The feasible-state set is upward closed, so it is the union of the upsets of
its minimal vectors. The probability of one upset factors into per-arc tail
probabilities (arc capacities are independent), and the union is evaluated
exactly by inclusion-exclusion: intersecting upsets means taking the
componentwise maximum of their base vectors.

``brute_force_reliability`` is the independent cross-check: it enumerates the
whole state space, sums the probability of every feasible state, and extracts
the minimal feasible vectors directly. It exists to verify the solver/IE
route and is deliberately kept free of any shared logic with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ResourceLimitError
from .model import Network, Query, StateVector
from .paths import MpCatalog
from .solver import SolutionSet, solve_a1

#: Most vectors the union evaluates (2^SIGMA_CAP - 1 terms) and most states
#: the oracle enumerates; both are read at call time.
SIGMA_CAP = 30
STATE_CAP = 5_000_000
_ORACLE_CHUNK = 1 << 18


@dataclass(frozen=True)
class TailTable:
    """Per-arc cumulative tails: tails[i][v] = Pr(capacity of arc i >= v).

    Each row has max_cap + 2 entries; the last one (v = max_cap + 1) is 0,
    and row[0] is the full mass. An arc without a distribution has the row
    None; only a vector that raises that arc needs one.
    """

    tails: Tuple[Optional[Tuple[float, ...]], ...]

    @classmethod
    def from_network(cls, net: Network) -> "TailTable":
        rows = (
            None if a.dist is None else tuple(accumulate(reversed(a.dist)))[::-1] + (0.0,)
            for a in net.arcs
        )
        return cls(tails=tuple(rows))

    @property
    def m(self) -> int:
        return len(self.tails)


def union_prob_ie(tails: TailTable, vectors: Sequence[StateVector]) -> float:
    """Exact union probability of the upsets of the given vectors.

    Each vector raises one arc set to one level, as a minimal vector raises
    one path to its alpha; two distinct nonzero levels are refused. Terms are
    summed in a fixed order with Kahan compensation, so the result is
    reproducible bit for bit. More than ``SIGMA_CAP`` vectors is refused.
    """
    reqs = []  # (level, [(arc bit, tail / full mass)]) per vector
    for v in vectors:
        if len(v) != tails.m:
            raise ValueError(f"vector length {len(v)} != arc count {tails.m}")
        factors = []
        for i, (x, row) in enumerate(zip(v, tails.tails)):
            if x == 0:
                continue
            if row is None:
                raise ValueError(
                    f"arc {i + 1} has no capacity distribution: "
                    "its arc line has no probability block"
                )
            if not 0 < x <= len(row) - 2:
                raise ValueError(f"coordinate {i + 1} = {x} outside 0..{len(row) - 2}")
            factors.append((1 << i, row[x] / row[0]))
        if len(set(v) - {0}) > 1:
            raise ValueError(f"vector raises arcs to levels {sorted(set(v) - {0})}, not to one")
        reqs.append((max(v, default=0), factors))
    if len(reqs) > SIGMA_CAP:
        raise ResourceLimitError("SIGMA_CAP", SIGMA_CAP, len(reqs))
    # a term is base x tail/full mass on the arcs it raises, as a distribution
    # sums to 1 only within 1e-9. By falling level, a vector joining a term
    # finds the arcs the term raises at least as high: only new ones count.
    base = math.prod(row[0] for row in tails.tails if row is not None)
    reqs.sort(key=lambda req: -req[0])
    # depth first: an entry (r, mask, p, sign) stands for the subsets
    # extending the term's with vectors from r on; the one adding r, then its extensions
    stack = [(0, 0, base, 1)]
    total = comp = 0.0
    while stack:
        r, mask, p, sign = stack.pop()
        if r == len(reqs):
            continue
        stack.append((r + 1, mask, p, sign))
        for bit, f in reqs[r][1]:
            if not mask & bit:
                mask |= bit
                p *= f
        y = sign * p - comp
        t = total + y
        comp = (t - total) - y
        total = t
        stack.append((r + 1, mask, p, -sign))
    return min(max(total, 0.0), 1.0)


def brute_force_reliability(net: Network, cat: MpCatalog, query: Query) -> Tuple[float, List[StateVector]]:
    """Exhaustive oracle: enumerate every state X <= M.

    Returns the summed probability of the feasible states and the minimal
    feasible vectors (every feasible state whose one-step decrements are all
    infeasible). State indices are mixed-radix over arc capacities, arc 1
    slowest, so the minimal vectors come out in a deterministic order.
    """
    total_states = net.state_space_size
    if total_states > STATE_CAP:
        raise ResourceLimitError("STATE_CAP", STATE_CAP, total_states)
    for a in net.arcs:
        if a.dist is None:
            raise ValueError(f"arc {a.id} has no capacity distribution")

    m = net.m
    sizes = np.array([a.max_cap + 1 for a in net.arcs], dtype=np.int64)
    strides = np.ones(m, dtype=np.int64)
    for i in range(m - 2, -1, -1):
        strides[i] = strides[i + 1] * sizes[i + 1]
    dists = [np.asarray(a.dist, dtype=np.float64) for a in net.arcs]

    affordable = [p for p in cat if query.d * p.cp <= query.b]
    # meets[c]: the path's time lp + ceil(d / c) at bottleneck capacity c is
    # within T. Python ints keep it exact for any d, T and lead time.
    meets = [
        np.array([c > 0 and p.lp + (query.d + c - 1) // c <= query.T for c in range(p.kp_max + 1)])
        for p in affordable
    ]

    def caps_block(lo: int, hi: int) -> np.ndarray:
        idx = np.arange(lo, hi, dtype=np.int64)
        return (idx[None, :] // strides[:, None]) % sizes[:, None]

    feasible = np.zeros(total_states, dtype=bool)
    prob_sum = 0.0
    for lo in range(0, total_states, _ORACLE_CHUNK):
        hi = min(lo + _ORACLE_CHUNK, total_states)
        caps = caps_block(lo, hi)
        ok = np.zeros(hi - lo, dtype=bool)
        for p, path_meets in zip(affordable, meets):
            pc = caps[p.arc_ids[0] - 1]
            for i in p.arc_ids[1:]:
                pc = np.minimum(pc, caps[i - 1])
            ok |= path_meets[pc]
        feasible[lo:hi] = ok
        if ok.any():
            prob = np.ones(hi - lo)
            for i in range(m):
                prob *= dists[i][caps[i]]
            prob_sum += float(prob[ok].sum())

    minimal: List[StateVector] = []
    ok_idx = np.nonzero(feasible)[0]
    for lo in range(0, ok_idx.size, _ORACLE_CHUNK):
        block = ok_idx[lo : lo + _ORACLE_CHUNK]
        caps = (block[None, :] // strides[:, None]) % sizes[:, None]
        is_min = np.ones(block.size, dtype=bool)
        for i in range(m):
            pos = caps[i] > 0
            is_min[pos] &= ~feasible[block[pos] - strides[i]]
        for col in np.nonzero(is_min)[0]:
            minimal.append(tuple(int(caps[i, col]) for i in range(m)))
    return prob_sum, minimal


def reliability(net: Network, cat: MpCatalog, query: Query) -> Tuple[float, SolutionSet]:
    """Solve for the minimal vectors with ``solve_a1`` (``solve_a2`` builds
    the same set) and evaluate their union probability."""
    sol = solve_a1(net, cat, query)
    if sol.sigma == 0:
        return 0.0, sol
    tails = TailTable.from_network(net)
    return union_prob_ie(tails, sol.vectors), sol
