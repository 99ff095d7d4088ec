"""Command-line front end.

Exit codes: 0 success, 2 usage, parse or file problems, 3 a fixed cap was
hit, 4 any unexpected error (reported on one line, without a traceback).
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path
from typing import Dict, List, Optional

from . import __version__
from .bench import (
    _SOLVERS,
    BenchRecord,
    GenConfig,
    derive_query,
    generate_instance,
    performance_profile,
    run_benchmark,
)
from .errors import ParseError, ResourceLimitError
from .instance_io import parse_file, write_file
from .model import Query
from .paths import enumerate_mps
from .reliability import brute_force_reliability, reliability


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfnrel",
        description="Exact reliability of multistate flow networks under time and budget limits.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mps", help="list the minimal paths of an instance as CSV")
    p.add_argument("file", type=Path)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=cmd_mps)

    p = sub.add_parser("solve", help="emit the minimal feasible vectors and counters")
    _query_flags(p)
    p.add_argument("--algorithm", choices=tuple(_SOLVERS), default="a1")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("rel", help="compute the exact reliability")
    _query_flags(p)
    p.set_defaults(func=cmd_rel)

    p = sub.add_parser("oracle", help="brute-force reliability by full state enumeration")
    _query_flags(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="write a random benchmark instance")
    p.add_argument("--n", type=int, required=True, help="node count (>= 4)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="time both algorithms over a directory of instances")
    p.add_argument("--dir", type=Path, required=True)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("profile", help="performance-profile curves from a bench CSV")
    p.add_argument("--times", type=Path, required=True)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=cmd_profile)

    return parser


def _query_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", type=Path)
    p.add_argument("--d", type=int, required=True, help="demand (data units)")
    p.add_argument("--T", type=int, required=True, help="time limit")
    p.add_argument("--b", type=int, required=True, help="budget")
    p.add_argument("--out", type=Path, default=None)


def _load(path: Path):
    inst = parse_file(path)
    cat = inst.catalog if inst.catalog is not None else enumerate_mps(inst.network)
    return inst.network, cat


def _emit(out: Optional[Path], lines: List[str]) -> None:
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text, encoding="utf-8")


def _vector_cell(vec) -> str:
    return ";".join(str(v) for v in vec)


def cmd_mps(args) -> int:
    net, cat = _load(args.file)
    lines = ["mp,arcs,lp,cp,kp_max"]
    for j, p in enumerate(cat, 1):
        lines.append(f"{j},{_vector_cell(p.arc_ids)},{p.lp},{p.cp},{p.kp_max}")
    _emit(args.out, lines)
    return 0


def _counter_lines(sol) -> List[str]:
    return [
        f"# algorithm={sol.algorithm}",
        f"# q={sol.q}",
        f"# k={sol.k}",
        f"# sigma={sol.sigma}",
        f"# removed_cost={sol.removed_cost}",
        f"# removed_time={sol.removed_time}",
        f"# removed_capacity={sol.removed_capacity}",
    ]


def cmd_solve(args) -> int:
    net, cat = _load(args.file)
    query = Query(d=args.d, T=args.T, b=args.b)
    sol = _SOLVERS[args.algorithm](net, cat, query)
    lines = ["mp,vector"]
    for j, vec in zip(sol.mp_indices, sol.vectors):
        lines.append(f"{j},{_vector_cell(vec)}")
    lines += _counter_lines(sol)
    _emit(args.out, lines)
    return 0


def cmd_rel(args) -> int:
    net, cat = _load(args.file)
    query = Query(d=args.d, T=args.T, b=args.b)
    value, sol = reliability(net, cat, query)
    lines = [f"{value:.12f}"] + _counter_lines(sol)
    _emit(args.out, lines)
    return 0


def cmd_oracle(args) -> int:
    net, cat = _load(args.file)
    query = Query(d=args.d, T=args.T, b=args.b)
    value, minimal = brute_force_reliability(net, cat, query)
    lines = [f"{value:.12f}", "vector"]
    lines += [_vector_cell(vec) for vec in minimal]
    lines.append(f"# states={net.state_space_size}")
    _emit(args.out, lines)
    return 0


def cmd_gen(args) -> int:
    inst = generate_instance(GenConfig(n=args.n, seed=args.seed))
    write_file(args.out, inst.network)
    q = inst.query
    print(
        f"wrote {args.out} (n={inst.network.n} m={inst.network.m} q={inst.catalog.q} "
        f"d={q.d} T={q.T} b={q.b})"
    )
    return 0


def cmd_bench(args) -> int:
    files = sorted(p for p in args.dir.iterdir() if p.suffix == ".net")
    if not files:
        raise ParseError(f"no .net files under {args.dir}")
    records: List[BenchRecord] = []
    for f in files:
        try:
            net, cat = _load(f)
            query = derive_query(cat)
        except ValueError as exc:
            raise ParseError(f"{f}: {exc}") from exc
        except ResourceLimitError as exc:
            print(f"error: {f}: {exc}", file=sys.stderr)
            return 3
        records.extend(run_benchmark([(f.name, net, cat, query)]))
    lines = ["instance,algorithm,seconds,sigma,k,q"]
    for r in records:
        lines.append(f"{r.instance},{r.algorithm},{r.seconds:.9f},{r.sigma},{r.k},{r.q}")
    _emit(args.out, lines)
    return 0


def cmd_profile(args) -> int:
    times: Dict[str, Dict[str, float]] = {}
    with open(args.times, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        needed = {"instance", "algorithm", "seconds"}
        if not reader.fieldnames or not needed <= set(reader.fieldnames):
            raise ParseError(f"{args.times} lacks the columns {sorted(needed)}")
        for row in reader:
            if (row["instance"] or "").startswith("#"):
                continue
            if any(row[key] is None for key in needed):
                raise ParseError(f"missing cell in {args.times}", reader.line_num)
            try:
                seconds = float(row["seconds"])
            except ValueError:
                raise ParseError(
                    f"seconds cell {row['seconds']!r} is not a number in {args.times}",
                    reader.line_num,
                ) from None
            inst, alg = row["instance"], row["algorithm"]
            if alg in times.setdefault(inst, {}):
                raise ParseError(f"repeated pair {inst},{alg} in {args.times}", reader.line_num)
            times[inst][alg] = seconds
    if not times:
        raise ParseError(f"no timing rows in {args.times}")
    prof = performance_profile(times)
    lines = ["algorithm,tau,pr"]
    for alg in prof.algorithms:
        for tau, pr in zip(prof.tau_grid, prof.curves[alg]):
            lines.append(f"{alg},{tau:.10g},{pr:.6f}")
    _emit(args.out, lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
