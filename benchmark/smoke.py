"""Smoke check of the benchmark itself, in well under a minute. Run from the
repository root:

    python3 benchmark/smoke.py

Runs every workload of ``BENCHMARK.json`` at tiny size, untraced and
traced, and checks the printed result line and the run record against the
metric lists and units that ``BENCHMARK.json`` declares. Exits 1 on the
first mismatch.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD_KEYS = {"git_sha", "python", "numpy", "cores", "seed", "limit_s", "sigma_histogram", "ops", "tail", "checks"}


def fail(message: str) -> int:
    print(f"smoke: FAIL: {message}", file=sys.stderr)
    return 1


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            record_path = ROOT / ".bench_out" / f"smoke-{workload}-trace{trace}.json"
            cmd = spec["command"] + [
                "--workload", workload, "--seed", "1", "--seconds", "0.1", "--trace", str(trace),
                "--tiny", "--record", str(record_path),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            where = f"{workload} trace={trace}"
            if proc.returncode != 0:
                return fail(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                return fail(f"{where}: result keys {sorted(result)}")
            if result["correct"] is not True or result["attempted"] < 1:
                return fail(f"{where}: correct={result['correct']} attempted={result['attempted']}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted[trace]:
                return fail(f"{where}: metrics/units {got} != BENCHMARK.json {wanted[trace]}")
            if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                return fail(f"{where}: a metric value is not a number")
            record = json.loads(record_path.read_text())
            missing = RECORD_KEYS - set(record)
            if missing:
                return fail(f"{where}: record lacks {sorted(missing)}")
            section = record["per_layer"] if trace else record["end_to_end"]
            if section != result["metrics"]:
                return fail(f"{where}: record metrics differ from the printed result")
            print(f"smoke: ok {where}: {result['attempted']} ops, {result['failed']} failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
