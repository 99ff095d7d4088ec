"""mfnrel benchmark: one command, run from the repository root.

    python3 benchmark/run.py --workload rel-union --seed 0 --seconds 25 --trace 0

Each run builds the workload's inputs from ``--seed`` (set-up, repeated and
reported as its median), then sends its ops in a closed loop with one
client, single-threaded, in whole passes over the pool, stopping at the
pass boundary nearest to ``--seconds``. Every output is checked. ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` spends half the time untraced and half traced and
prints the per-layer metrics derived from the spans. The last stdout line
is one JSON object; the full record goes to ``--record`` (default
``.bench_out/``). See ``benchmark/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"

#: Per-op latency limit L. A rel op past it is preempted: the two
#: pan-European demands with sigma = 30 pass the IE cap of 30 vectors and
#: would run 2^30 terms (hours), and sigma 17..30 queries take seconds or
#: more. A refused op or one past L counts as failed, at latency L.
LIMIT_S = 1.0
DEFAULT_SEED = 0
#: Set-up runs at least this often and for at least this long, in all; its
#: median is ``setup_s``. The time floor steadies the few-millisecond set-ups.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "ok_frac": "frac",
    "p50_s": "s",
    "tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "instance_io.parse.total_s": "s",
    "instance_io.parse.p50_s": "s",
    "instance_io.parse.bytes": "bytes",
    "paths.enumerate_mps.total_s": "s",
    "paths.enumerate_mps.p50_s": "s",
    "paths.q": "count",
    "solver.solve_a1.total_s": "s",
    "solver.solve_a2.total_s": "s",
    "solver.a1_over_a2": "ratio",
    "solver.sigma": "count",
    "solver.sigma_over_q": "ratio",
    "reliability.reliability.total_s": "s",
    "reliability.tails.total_s": "s",
    "reliability.union_prob_ie.total_s": "s",
    "reliability.union_prob_ie.p50_s": "s",
    "reliability.union_prob_ie.terms": "terms_computed",
    "reliability.refused": "count",
    "reliability.deadline_missed": "count",
    "reliability.brute_force_reliability.total_s": "s",
    "reliability.brute_force_reliability.p50_s": "s",
    "reliability.brute_force_reliability.states_per_s": "1/s",
    "bench.generate_instance.total_s": "s",
    "bench.generate_instance.attempts_per_instance": "ratio",
    "trace.op.total_s": "s",
    "trace.overhead_frac": "frac",
    "trace.unaccounted_frac": "frac",
}


class DeadlineExceeded(BaseException):
    """Raised by the SIGALRM handler inside a running op. It derives from
    BaseException so that no ``except Exception`` in the program swallows it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def _import_program():
    if not (SRC / "mfnrel" / "__init__.py").is_file():
        sys.exit(f"benchmark: no program source at {SRC / 'mfnrel'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import mfnrel

    if Path(mfnrel.__file__).resolve().parent != SRC / "mfnrel":
        sys.exit(f"benchmark: imported mfnrel from {mfnrel.__file__}, not from {SRC}")
    return mfnrel


def _git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _counters():
    return {
        "instance_io.parse": lambda a, r: {"bytes": len(a[0])},
        "paths.enumerate_mps": lambda a, r: {"q": r.q},
        "solver.solve_a1": lambda a, r: {"sigma": r.sigma, "q": r.q},
        "reliability.union_prob_ie": lambda a, r: {
            "terms": 2 ** len(getattr(a[1], "vectors", a[1])) - 1
        },
        "reliability.brute_force_reliability": lambda a, r: {"states": a[0].state_space_size},
    }


def _api(mfnrel, tracer=None):
    calls = {
        "parse": ("instance_io.parse", mfnrel.parse),
        "enumerate_mps": ("paths.enumerate_mps", mfnrel.enumerate_mps),
        "solve_a1": ("solver.solve_a1", mfnrel.solve_a1),
        "solve_a2": ("solver.solve_a2", mfnrel.solve_a2),
        "reliability": ("reliability.reliability", mfnrel.reliability),
        "brute_force_reliability": ("reliability.brute_force_reliability", mfnrel.brute_force_reliability),
    }
    if tracer is None:
        return SimpleNamespace(**{k: fn for k, (_, fn) in calls.items()})
    counters = _counters()
    return SimpleNamespace(
        **{k: tracer.wrap(name, fn, counters.get(name)) for k, (name, fn) in calls.items()}
    )


class Loop:
    """Outcome of one measured closed loop: every op of the pool once per pass."""

    def __init__(self, pool_size: int):
        self.charged = [[] for _ in range(pool_size)]  # per op per pass, see run_loop
        self.raw = [[] for _ in range(pool_size)]  # the same, unscaled wall seconds
        self.factors = []  # speed factor of every op run, in order
        self.status = Counter()
        self.problems = []
        self.passes = 0

    @property
    def attempted(self) -> int:
        return self.passes * len(self.charged)

    def busy_s(self, times) -> float:
        return sum(map(sum, times)) / self.passes


def run_loop(workload, ops, api, seconds, reference, mfnrel, probe, tracer=None) -> Loop:
    from workloads import Mismatch

    out = Loop(len(ops))
    run = workload.run if tracer is None else tracer.wrap("op", workload.run)
    start = perf_counter()
    while True:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id += 1
            result, problem = None, None
            t0 = perf_counter()
            try:
                signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
                try:
                    result = run(api, op)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                status = "ok"
            except mfnrel.ResourceLimitError:
                status = "refused"
            except DeadlineExceeded:
                status = "deadline_missed"
            except Mismatch as exc:
                status, problem = "mismatch", str(exc)
            except Exception:
                status, problem = "error", f"{op.key}: {traceback.format_exc()}"
            latency = perf_counter() - t0
            factor = probe.factor()
            if problem is None:
                problem = workload.check(op, result, reference)
                if problem is not None:
                    status = "mismatch"
            if problem is not None:
                out.problems.append(problem)
            out.status[status] += 1
            out.factors.append(factor)
            # L is a wall-clock limit: a failed op counts as L, one preempted
            # past L at its measured time; an answered op at reference speed.
            if status == "ok":
                out.raw[i].append(latency)
                out.charged[i].append(latency * factor)
            else:
                out.raw[i].append(max(latency, LIMIT_S))
                out.charged[i].append(max(latency, LIMIT_S))
        out.passes += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / out.passes / 2 >= seconds:
            return out


def latency_metrics(times):
    """Each op of the pool is one user question, timed once per pass; its
    latency is the median over the passes. Returns the p50 and the tail over
    the ops, the summed op latencies, and where the tail sits."""
    per_op = sorted(statistics.median(t) for t in times)
    tail_index = max(0, len(per_op) - 11)
    tail = {
        "percentile": 100.0 * (tail_index + 1) / len(per_op),
        "ops_beyond": len(per_op) - 1 - tail_index,
        "ops": len(per_op),
    }
    return statistics.median(per_op), per_op[tail_index], sum(per_op), tail


def end_to_end(loop: Loop, setup_s: float):
    """Answered ops count at reference speed (see speed.py); ops_per_s is the
    answered ops of one pass over the summed op latencies."""
    p50, tail_s, pass_s, tail = latency_metrics(loop.charged)
    raw_p50, raw_tail, raw_pass_s, _ = latency_metrics(loop.raw)
    ok_per_pass = loop.status["ok"] / loop.passes
    metrics = {
        "setup_s": setup_s,
        "ok_frac": loop.status["ok"] / loop.attempted,
        "p50_s": p50,
        "tail_s": tail_s,
        "ops_per_s": ok_per_pass / pass_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {"p50_s": raw_p50, "tail_s": raw_tail, "ops_per_s": ok_per_pass / raw_pass_s}
    return metrics, tail, raw


def per_layer(tracer, traced: Loop, untraced: Loop, gen_s: float, gen_log) -> dict:
    from tracing import p50

    layers = tracer.layers(lambda op_id: traced.factors[op_id])
    empty = {"calls": 0, "self_s": 0.0, "durations": [], "counts": {}}

    def layer(name):
        return layers.get(name, empty)

    def per_pass(x):
        return x / traced.passes

    parse, enum = layer("instance_io.parse"), layer("paths.enumerate_mps")
    a1, a2 = layer("solver.solve_a1"), layer("solver.solve_a2")
    ie, brute, op = layer("reliability.union_prob_ie"), layer("reliability.brute_force_reliability"), layer("op")
    op_total = sum(op["durations"])
    return {
        "instance_io.parse.total_s": per_pass(parse["self_s"]),
        "instance_io.parse.p50_s": p50(parse["durations"]),
        "instance_io.parse.bytes": per_pass(parse["counts"].get("bytes", 0)),
        "paths.enumerate_mps.total_s": per_pass(enum["self_s"]),
        "paths.enumerate_mps.p50_s": p50(enum["durations"]),
        "paths.q": enum["counts"].get("q", 0) / enum["calls"] if enum["calls"] else 0.0,
        "solver.solve_a1.total_s": per_pass(a1["self_s"]),
        "solver.solve_a2.total_s": per_pass(a2["self_s"]),
        "solver.a1_over_a2": a1["self_s"] / a2["self_s"] if a2["self_s"] else 0.0,
        "solver.sigma": a1["counts"].get("sigma", 0) / a1["calls"] if a1["calls"] else 0.0,
        "solver.sigma_over_q": (
            a1["counts"].get("sigma", 0) / a1["counts"]["q"] if a1["counts"].get("q") else 0.0
        ),
        "reliability.reliability.total_s": per_pass(layer("reliability.reliability")["self_s"]),
        "reliability.tails.total_s": per_pass(layer("reliability.tails")["self_s"]),
        "reliability.union_prob_ie.total_s": per_pass(ie["self_s"]),
        "reliability.union_prob_ie.p50_s": p50(ie["durations"]),
        "reliability.union_prob_ie.terms": per_pass(ie["counts"].get("terms", 0)),
        "reliability.refused": per_pass(traced.status["refused"]),
        "reliability.deadline_missed": per_pass(traced.status["deadline_missed"]),
        "reliability.brute_force_reliability.total_s": per_pass(brute["self_s"]),
        "reliability.brute_force_reliability.p50_s": p50(brute["durations"]),
        "reliability.brute_force_reliability.states_per_s": (
            brute["counts"].get("states", 0) / brute["self_s"] if brute["self_s"] else 0.0
        ),
        "bench.generate_instance.total_s": gen_s,
        "bench.generate_instance.attempts_per_instance": (
            gen_log.attempts / gen_log.instances if gen_log.instances else 0.0
        ),
        "trace.op.total_s": per_pass(op_total),
        "trace.overhead_frac": traced.busy_s(traced.charged) / untraced.busy_s(untraced.charged) - 1.0,
        "trace.unaccounted_frac": op["self_s"] / op_total if op_total else 0.0,
    }


def _with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    mfnrel = _import_program()
    import numpy
    import speed
    import tracing
    import workloads as wl

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="one op per pool slot, one set-up: a smoke run")
    parser.add_argument("--record", type=Path, help="where to write the run record (default .bench_out/)")
    args = parser.parse_args(argv)

    workload = wl.WORKLOADS[args.workload]
    raw_api = _api(mfnrel)
    reference, reference_note = None, (
        f"seed {args.seed} is not the default seed {DEFAULT_SEED}: answered values are checked only "
        "for 0 <= p <= 1, and a1/a2 agreement on every op"
    )
    problems = []
    if args.seed == DEFAULT_SEED and args.workload.startswith("rel-") and not args.tiny:
        reference = json.loads((HERE / "reference.json").read_text())["workloads"][args.workload]
        reference_note = (
            f"default seed: answered values must match benchmark/reference.json to {wl.TOLERANCE}; "
            "a1/a2 agreement on every op"
        )

    # Building the inputs (generating, serialising, solving for sigma) is
    # pure Python on every workload, so it is scaled by the pure-Python
    # kernel; the warm-up op by the workload's own.
    probe = speed.SpeedProbe(workload.kernel)
    build_probe = speed.SpeedProbe("python")
    setups, raw_setups = [], []
    min_repeats, min_s = (1, 0.0) if args.tiny else (SETUP_REPEATS, SETUP_MIN_S)
    while len(setups) < min_repeats or sum(raw_setups) < min_s:
        build_probe.factor(fresh=True)
        watch = speed.Stopwatch(build_probe)
        gen_log = wl.GenLog(lap=watch.lap)
        ops = workload.build(args.seed, args.tiny, gen_log)
        watch.lap()
        workload.run(raw_api, workload.warmup(ops))
        watch.lap(probe)
        raw_setups.append(watch.raw_s)
        setups.append(watch.scaled_s)
    if reference is not None and set(reference) != {op.key for op in ops}:
        problems.append("the pool for the default seed differs from the ops in benchmark/reference.json")

    signal.signal(signal.SIGALRM, _on_alarm)
    seconds = args.seconds / 2 if args.trace else args.seconds
    untraced = run_loop(workload, ops, raw_api, seconds, reference, mfnrel, probe)
    metrics, tail, raw = end_to_end(untraced, statistics.median(setups))
    record = {
        "schema": "mfnrel-bench/1",
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cores": os.cpu_count(),
        "limit_s": LIMIT_S,
        "loop": "closed loop, one client, one thread, whole passes over the pool",
        "setup": {
            "runs_s": setups,
            "raw_runs_s": raw_setups,
            "pool_ops": len(ops),
            "generated": {"seconds": gen_log.seconds, "instances": gen_log.instances, "attempts": gen_log.attempts},
        },
        "sigma_histogram": dict(sorted(Counter(s for op in ops for s in op.sigmas).items())),
        "ops": {"passes": untraced.passes, "attempted": untraced.attempted, **untraced.status},
        "tail": tail,
        "end_to_end": _with_units(metrics, END_TO_END_UNITS),
        "raw_wall_clock": raw,
        "speed": {
            "kernel": probe.kind,
            "k_ref_s": probe.k_ref_s,
            "kernel_samples": len(probe.kernel_s),
            "kernel_s_quartiles": statistics.quantiles(probe.kernel_s, n=4),
        },
    }
    out_metrics = record["end_to_end"]
    loops = [untraced]

    if args.trace:
        tracer = tracing.Tracer()
        with tracing.instrumented(tracer, sys.modules["mfnrel.reliability"], _counters()):
            traced = run_loop(workload, ops, _api(mfnrel, tracer), seconds, reference, mfnrel, probe, tracer)
        loops.append(traced)
        record["traced_ops"] = {"passes": traced.passes, "attempted": traced.attempted, **traced.status}
        gen_s = gen_log.seconds * watch.scaled_s / watch.raw_s
        record["per_layer"] = out_metrics = _with_units(
            per_layer(tracer, traced, untraced, gen_s, gen_log), PER_LAYER_UNITS
        )

    for loop in loops:
        problems += loop.problems
    record["checks"] = {
        "correct": not problems,
        "reference": reference_note,
        "problem_count": len(problems),
        "problems": problems[:20],
    }

    record_path = args.record or ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.parent.mkdir(parents=True, exist_ok=True)
    if args.trace:
        spans_path = record_path.with_name(record_path.stem + "-spans.json")
        tracer.write(spans_path)
        record["spans_file"] = str(spans_path)
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for name, m in out_metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.attempted - loop.status["ok"] for loop in loops)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": out_metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
