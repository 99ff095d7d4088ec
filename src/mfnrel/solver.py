"""Solvers that produce the minimal state vectors under which a demand can be
met within the time and budget limits.

Two routes to the same answer:

* ``solve_a1`` filters the path catalog by budget and lead time first, then
  builds one candidate vector per surviving path directly.
* ``solve_a2`` builds a candidate for every path that can meet the deadline
  and only afterwards removes the ones that break the budget (an extended
  form of the classic single-constraint approach, kept as a baseline).

Both return the identical vector set; they differ in how much work they do,
which is what the benchmarking layer measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .model import Network, Query, StateVector, ceil_div
from .paths import MpCatalog


@dataclass(frozen=True)
class SolutionSet:
    """Solver output: minimal feasible vectors plus diagnostic counters.

    ``vectors[r]`` originates from catalog path ``mp_indices[r]`` (1-based).
    ``k`` counts ``surviving`` and ``sigma`` counts ``vectors``. Counter
    semantics:

    * a1 - ``surviving`` is the index list J after the budget/lead-time
      filter; ``removed_time`` counts paths cut for lead time (including
      those that also break the budget), ``removed_cost`` paths cut for
      budget alone, ``removed_capacity`` paths in J whose required capacity
      exceeds the path maximum.
    * a2 - ``surviving`` lists paths whose candidate vector was actually
      built (deadline met within capacity); ``removed_cost`` counts
      candidates discarded by the budget pass, ``removed_time`` paths whose
      lead time makes the deadline unreachable, ``removed_capacity`` paths
      needing more than the maximum capacity.
    """

    algorithm: str
    vectors: Tuple[StateVector, ...]
    mp_indices: Tuple[int, ...]
    surviving: Tuple[int, ...]
    q: int
    removed_cost: int
    removed_time: int
    removed_capacity: int

    @property
    def k(self) -> int:
        return len(self.surviving)

    @property
    def sigma(self) -> int:
        return len(self.vectors)

    def vector_set(self) -> frozenset:
        return frozenset(self.vectors)


def min_feasible_capacity(d: int, time_limit: int, lp: int) -> int:
    """Smallest path capacity that still meets the deadline.

    With path capacity a = ceil(d / (time_limit - lp)) the transmission time
    lp + ceil(d / a) stays within the limit, and a - 1 (when positive) does
    not. Callers must filter lp >= time_limit first.
    """
    if lp >= time_limit:
        raise ValueError(f"lead time {lp} leaves no room within limit {time_limit}")
    return ceil_div(d, time_limit - lp)


def _support_vector(m: int, arc_ids: Tuple[int, ...], level: int) -> StateVector:
    vec = [0] * m
    for i in arc_ids:
        vec[i - 1] = level
    return tuple(vec)


def solve_a1(net: Network, cat: MpCatalog, query: Query) -> SolutionSet:
    """Filter-first construction of the minimal feasible vectors.

    Paths are dropped when the budget cannot cover them or the lead time
    already reaches the limit (a path failing both is counted under
    ``removed_time``). Each survivor j yields at most one vector: its arcs at
    the minimum feasible capacity, zero elsewhere, kept only when that
    capacity is actually available.
    """
    d, T, b = query.d, query.T, query.b
    surviving: List[int] = []
    removed_time = 0
    removed_cost = 0
    for j, p in enumerate(cat, 1):
        if p.lp >= T:
            removed_time += 1
        elif d * p.cp > b:
            removed_cost += 1
        else:
            surviving.append(j)

    vectors: List[StateVector] = []
    indices: List[int] = []
    removed_capacity = 0
    for j in surviving:
        p = cat[j - 1]
        alpha = min_feasible_capacity(d, T, p.lp)
        if alpha <= p.kp_max:
            vectors.append(_support_vector(net.m, p.arc_ids, alpha))
            indices.append(j)
        else:
            removed_capacity += 1

    return SolutionSet(
        algorithm="a1",
        vectors=tuple(vectors),
        mp_indices=tuple(indices),
        surviving=tuple(surviving),
        q=cat.q,
        removed_cost=removed_cost,
        removed_time=removed_time,
        removed_capacity=removed_capacity,
    )


def solve_a2(net: Network, cat: MpCatalog, query: Query) -> SolutionSet:
    """Build-then-filter baseline.

    Step 1 visits every path: the minimum capacity v meeting the deadline is
    v = ceil(d / (T - lp)) (none when lp >= T), and a candidate vector is
    built whenever v fits under the path's maximum capacity. Step 2 removes
    candidates whose transmission cost exceeds the budget.
    """
    d, T, b = query.d, query.T, query.b
    removed_time = 0
    removed_capacity = 0
    candidates: List[Tuple[int, StateVector]] = []
    for j, p in enumerate(cat, 1):
        if p.lp >= T:
            removed_time += 1
            continue
        v = min_feasible_capacity(d, T, p.lp)
        if v > p.kp_max:
            removed_capacity += 1
            continue
        candidates.append((j, _support_vector(net.m, p.arc_ids, v)))

    removed_cost = 0
    vectors: List[StateVector] = []
    indices: List[int] = []
    for j, vec in candidates:
        if d * cat[j - 1].cp > b:
            removed_cost += 1
        else:
            vectors.append(vec)
            indices.append(j)

    return SolutionSet(
        algorithm="a2",
        vectors=tuple(vectors),
        mp_indices=tuple(indices),
        surviving=tuple(j for j, _ in candidates),
        q=cat.q,
        removed_cost=removed_cost,
        removed_time=removed_time,
        removed_capacity=removed_capacity,
    )

