"""Line-oriented instance file format.

    # comment (anywhere; blank lines ignored)
    nodes <n>
    source <id>
    sink <id>
    arc <id> <tail> <head> <max_cap> <lead> <unit_cost> [p0 p1 ... pMax]
    mp <arc id> <arc id> ...

Arc ids must be contiguous from 1. The probability block is optional per
arc; reliability commands refuse files that omit it. ``mp`` lines are
optional and pin an explicit path catalog (one line per path, in order)
instead of leaving enumeration to the reader; the bundled worked-example
fixture needs this, since its catalog is given data. No ``mp`` path may
repeat another's arc set or contain it, in any order.

Writing is canonical: fixed key order, single spaces, floats in shortest
round-trip form. parse(write(x)) reproduces x exactly, and write(parse(s))
is byte-stable for any accepted s.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

from .errors import ParseError
from .model import Arc, Network, path_stats
from .paths import MpCatalog


@dataclass(frozen=True)
class ParsedInstance:
    network: Network
    catalog: Optional[MpCatalog]  # None unless the file carried mp lines


def parse(text: str) -> ParsedInstance:
    header = {}
    arc_rows: List[Tuple[int, List[str]]] = []
    mp_rows: List[Tuple[int, List[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        key = fields[0]
        if key in ("nodes", "source", "sink"):
            if len(fields) != 2:
                raise ParseError(f"'{key}' expects one value", lineno)
            if key in header:
                raise ParseError(f"duplicate '{key}'", lineno)
            header[key] = _int(fields[1], key, lineno)
        elif key == "arc":
            arc_rows.append((lineno, fields[1:]))
        elif key == "mp":
            mp_rows.append((lineno, fields[1:]))
        else:
            raise ParseError(f"unknown directive {key!r}", lineno)

    if "nodes" not in header:
        raise ParseError("missing 'nodes' header")
    n = header["nodes"]
    source = header.get("source", 1)
    sink = header.get("sink", n)

    arcs = []
    for lineno, fields in arc_rows:
        if len(fields) < 6:
            raise ParseError("arc needs: id tail head max_cap lead unit_cost", lineno)
        ident, tail, head, max_cap, lead, cost = (
            _int(v, name, lineno)
            for v, name in zip(fields[:6], ("id", "tail", "head", "max_cap", "lead", "unit_cost"))
        )
        if ident != len(arcs) + 1:
            raise ParseError(f"arc ids must be contiguous from 1; expected {len(arcs) + 1}, got {ident}", lineno)
        dist = None
        if len(fields) > 6:
            probs = fields[6:]
            if len(probs) != max_cap + 1:
                raise ParseError(
                    f"arc {ident}: expected {max_cap + 1} probabilities, got {len(probs)}", lineno
                )
            try:
                dist = tuple(map(float, probs))
            except ValueError:
                for v in probs:  # name the first cell that is not a number
                    try:
                        float(v)
                    except ValueError:
                        raise ParseError(f"bad probability: {v!r}", lineno) from None
        try:
            arcs.append(
                Arc(id=ident, tail=tail, head=head, max_cap=max_cap, lead=lead, unit_cost=cost, dist=dist)
            )
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from exc

    try:
        net = Network(n=n, arcs=tuple(arcs), source=source, sink=sink)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc

    catalog = None
    if mp_rows:
        paths = []
        supports: List[Tuple[int, frozenset]] = []
        for lineno, fields in mp_rows:
            ids = [_int(v, "arc id", lineno) for v in fields]
            try:
                path = path_stats(net, ids)
            except (ValueError, IndexError) as exc:
                raise ParseError(str(exc), lineno) from exc
            # No minimal path contains another; the solvers take that on
            # trust, so their vectors come out pairwise incomparable.
            # Enumerated catalogs hold it by construction; a pinned one is
            # checked here, once.
            support = frozenset(path.arc_ids)
            for earlier, other in supports:
                if support <= other or other <= support:
                    raise ParseError(
                        f"mp path repeats or nests with the mp path on line {earlier}; "
                        "no minimal path contains another",
                        lineno,
                    )
            supports.append((lineno, support))
            paths.append(path)
        catalog = MpCatalog(paths=tuple(paths))
    return ParsedInstance(network=net, catalog=catalog)


def parse_file(path) -> ParsedInstance:
    return parse(Path(path).read_text(encoding="utf-8"))


def write(net: Network, catalog: Optional[MpCatalog] = None) -> str:
    lines = [f"nodes {net.n}", f"source {net.source}", f"sink {net.sink}"]
    for a in net.arcs:
        base = f"arc {a.id} {a.tail} {a.head} {a.max_cap} {a.lead} {a.unit_cost}"
        if a.dist is not None:
            base += " " + " ".join(repr(p) for p in a.dist)
        lines.append(base)
    if catalog is not None:
        for p in catalog:
            lines.append("mp " + " ".join(str(i) for i in p.arc_ids))
    return "\n".join(lines) + "\n"


def write_file(path, net: Network, catalog: Optional[MpCatalog] = None) -> None:
    Path(path).write_text(write(net, catalog), encoding="utf-8")


def _int(value: str, name: str, lineno: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"bad integer for {name}: {value!r}", lineno) from None
