"""Record the reliability values the rel workloads must reproduce on the
default seed (``benchmark/reference.json``). Run from the repository root
(it takes a few minutes):

    python3 benchmark/make_reference.py

Values come from ``reliability`` at the commit the script runs on, without
the latency limit. Ops whose sigma exceeds ``REFERENCE_SIGMA_MAX`` are
stored as null and get only the range and a1/a2 checks: above 30 the
program refuses them, and at 30 inclusion-exclusion runs 2^30 terms, hours.
"""

import json
import sys

import run

REFERENCE_SIGMA_MAX = 23


def main() -> int:
    mfnrel = run._import_program()
    import workloads as wl

    out = {"seed": run.DEFAULT_SEED, "git_sha": run._git_sha(), "workloads": {}}
    for name in ("rel-population", "rel-union"):
        values = {}
        for op in wl.WORKLOADS[name].build(run.DEFAULT_SEED, False, wl.GenLog()):
            if op.sigmas[0] > REFERENCE_SIGMA_MAX:
                values[op.key] = None
                continue
            inst = mfnrel.parse(op.text)
            value, _ = mfnrel.reliability(inst.network, mfnrel.enumerate_mps(inst.network), op.queries[0])
            values[op.key] = value
        out["workloads"][name] = dict(sorted(values.items()))
    (run.HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
