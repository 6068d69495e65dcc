"""Regenerate ``perfbench/reference.json``: committed digests and counts.

    python3 perfbench/record.py

For the tuning seed and the held-out seed it runs every workload
once untraced and once traced, checks that the two agree, and records
the output digests, the relaxed-engine fingerprint digest, the exact
counts and the units attempted.  For ``paperlite-batch`` it also runs
the same cells and seeds once on the bit-exact ``fast`` engine and
records the per-series saturation throughputs that ``sat_err`` is
measured against.  Takes a few minutes; it prints what it records.
"""

from __future__ import annotations

import json
import sys

import run


def record_workload(workload: str, seed: int) -> dict:
    from repro.util.wallclock import wall_clock

    runs = [
        run.run_child(workload, seed, trace, f"record-{workload}-{seed}-{int(trace)}",
                      wall_clock() + 600)
        for trace in (False, True)
    ]
    problems = run.check_runs(runs, None)
    if problems:
        raise SystemExit(f"{workload} seed {seed}: " + "; ".join(problems))
    traced = runs[1]
    entry = {
        "units": traced["units"],
        "digests": traced["digests"],
        "fingerprints": traced["fingerprints"],
        "counts": traced["counts"],
    }
    if "saturation" in traced:
        entry["batch_saturation"] = traced["saturation"]
        fast = run.run_child("paperlite-fast-reference", seed, False,
                             f"record-fast-{seed}", wall_clock() + 900)
        if not fast["ok"] or fast["failed_units"]:
            raise SystemExit(f"fast reference for seed {seed} failed")
        entry["fast_saturation"] = fast["saturation"]
    return entry


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    ref = run.load_reference()
    run.WORK.mkdir(exist_ok=True)
    run.build()
    seeds = [ref["tuning_seed"], ref["held_out_seed"]]
    ref["regenerate"] = "python3 perfbench/record.py"
    ref["seeds"] = {
        str(seed): {w: record_workload(w, seed) for w in run.WORKLOADS}
        for seed in seeds
    }
    run.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    print(json.dumps(ref["seeds"], indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
