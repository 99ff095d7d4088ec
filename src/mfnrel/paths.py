"""Minimal-path enumeration.

Every node-simple directed source->sink path is a minimal path (no proper
arc subset of a simple path is itself a path), so enumeration is a
depth-first walk over node-simple paths. Parallel arcs give distinct
minimal paths over the same node sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Set, Tuple

from .errors import ResourceLimitError
from .model import Arc, MinimalPath, Network, path_stats

#: Most minimal paths one enumeration may return; read at call time.
MP_CAP = 100_000


@dataclass(frozen=True)
class MpCatalog:
    """Ordered, immutable collection of minimal paths."""

    paths: Tuple[MinimalPath, ...]

    @property
    def q(self) -> int:
        return len(self.paths)

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self) -> Iterator[MinimalPath]:
        return iter(self.paths)

    def __getitem__(self, idx):
        return self.paths[idx]


def enumerate_mps(net: Network) -> MpCatalog:
    """All minimal paths source->sink, depth-first by ascending arc id.

    The order is deterministic: children are explored in increasing arc-id
    order, so the catalog is sorted lexicographically by arc-id sequence.
    Raises ResourceLimitError when more than ``MP_CAP`` paths exist. A network
    with no source->sink path yields an empty catalog.
    """
    # Keyed by the nodes that arcs touch, so the cost is O(m) whatever n is.
    # Network keeps arcs in id order, so each list is in ascending arc id.
    out: Dict[int, List[Arc]] = {}
    for a in net.arcs:
        out.setdefault(a.tail, []).append(a)

    # Skip nodes that cannot reach the sink; they cannot lie on any path.
    # Each node that can, other than the sink, has an outgoing arc in out.
    can_reach = _reaches_sink(net)
    if net.source not in can_reach:
        return MpCatalog(paths=())

    found: List[MinimalPath] = []
    arc_stack: List[int] = []
    on_path = {net.source}
    # One iterator over the outgoing arcs of each node on the current path,
    # so path length is bounded by memory rather than the recursion limit.
    frames = [iter(out[net.source])]
    while frames:
        for a in frames[-1]:
            if a.head == net.sink:
                if len(found) >= MP_CAP:
                    raise ResourceLimitError("MP_CAP", MP_CAP, len(found) + 1)
                found.append(path_stats(net, arc_stack + [a.id]))
            elif a.head not in on_path and a.head in can_reach:
                on_path.add(a.head)
                arc_stack.append(a.id)
                frames.append(iter(out[a.head]))
                break
        else:
            frames.pop()
            if arc_stack:
                on_path.remove(net.arcs[arc_stack.pop() - 1].head)

    return MpCatalog(paths=tuple(found))


def _reaches_sink(net: Network) -> Set[int]:
    into: Dict[int, List[int]] = {}
    for a in net.arcs:
        into.setdefault(a.head, []).append(a.tail)
    seen = {net.sink}
    stack = [net.sink]
    while stack:
        for u in into.get(stack.pop(), ()):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen
