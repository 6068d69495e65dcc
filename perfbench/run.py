"""The repository benchmark: one workload, repeated for a fixed time.

    python3 perfbench/run.py --workload campaign-quick --seed 1 \\
        --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40 --trace 0

Repeats the workload, each repetition in a fresh serial Python process,
until ``--seconds`` are used up (once at least).  Every repetition's
outputs are checked: digests, fingerprints and exact counts against the
committed reference of its input seed, and against each other.  Prints
one line per repetition and per metric, then, as the last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, medians over repetitions.
``wall_s``, ``cpu_s`` and ``setup_s`` are normalized to a reference core
speed measured inside each repetition (``hostspeed.py``), and
``wall_s`` leaves out the time the hypervisor or another process held
the workload's CPU: on a shared host the raw times of one repetition
move by 2x with the neighbours' load.  The raw times are printed beside
them.
``--trace 1`` alternates traced and untraced repetitions and reports the
per-layer metrics of the traced ones (medians), tracing overhead included.

Inputs come from the preset seed ``tuning_seed`` of
``perfbench/reference.json`` whatever ``--seed`` says: only seeds with
committed digests and a bit-exact ``sat_err`` reference can be checked,
and one seed keeps the input cost fixed so that run-to-run spread is
measurement noise.  ``--preset-seed S`` runs seed S instead: the
held-out seed recorded there is checked against its own reference, any
other seed only for self-consistency.  The benchmark writes only under
``.perfbench/`` in the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
#: no repetition starts that could end after this, and none outlives it
HARD_LIMIT_S = 165.0

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__

WORKLOADS = ("campaign-quick", "paperlite-batch", "static-paperlite")
END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: end-to-end metrics printed for reading but not gated: zero or undefined
#: on some workload, or an exact count over wall_s (see perfbench/spec.json)
REPORTED_ONLY = {
    "routings_per_s": "routings/s",
    "sim_clocks_per_s": "clocks/s",
    "failed_frac": "ratio",
    "sat_err": "ratio",
}


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("REPRO_ENGINE", None)
    return env


def build() -> None:
    """Compile the program's modules once per checkout (not timed)."""
    marker = WORK / "pycache" / ".built"
    if marker.exists():
        return
    subprocess.run(
        [sys.executable, str(HERE / "workload.py"), "--import-only"],
        env=child_env(), check=True, timeout=600,
    )
    marker.parent.mkdir(parents=True, exist_ok=True)
    marker.write_text("ok\n", encoding="utf-8")


def run_child(workload: str, preset_seed: int, trace: bool, tag: str,
              deadline: float) -> Dict[str, object]:
    """One workload process; its result plus wall, CPU and peak memory.

    The process is pinned to one CPU.  ``wall_s`` leaves out the time
    that CPU was stolen by the hypervisor and the time the process
    waited in the run queue; ``wall_s``, ``cpu_s`` and ``setup_s`` are
    normalized to reference core speed by the process's own calibration
    samples (``hostspeed.py``).  The ``raw_`` values are as the clocks
    read them.
    """
    from hostspeed import cpu_steal, normalize, workload_cpu
    from repro.util.wallclock import wall_clock

    work = WORK / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result_path = work / "result.json"
    core = workload_cpu()
    steal0 = cpu_steal(core)
    t0 = wall_clock()
    proc = subprocess.Popen(
        [
            sys.executable, str(HERE / "workload.py"),
            "--workload", workload,
            "--preset-seed", str(preset_seed),
            "--trace", str(int(trace)),
            "--t0", repr(t0),
            "--work", str(work),
            "--result", str(result_path),
        ],
        env=child_env(),
        stdout=subprocess.DEVNULL,
        preexec_fn=lambda: os.sched_setaffinity(0, {core}),
    )
    killer = threading.Timer(max(0.0, deadline - t0), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)  # reaps it: keeps its rusage
    except BaseException:  # interrupted: leave no process behind
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    finally:
        killer.cancel()
    wall = wall_clock() - t0
    steal = cpu_steal(core) - steal0
    proc.returncode = os.waitstatus_to_exitcode(status)
    out: Dict[str, object] = {"ok": False, "returncode": proc.returncode}
    if proc.returncode == 0 and result_path.exists():
        out = json.loads(result_path.read_text(encoding="utf-8"))
        out["ok"] = True
    cpu = usage.ru_utime + usage.ru_stime
    out.update(
        raw_wall_s=wall,
        raw_cpu_s=cpu,
        steal_s=steal,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        traced=trace,
    )
    if out["ok"]:
        samples = out.pop("host_speed")
        setup = out["setup_end"] - t0
        out.update(
            raw_setup_s=setup,
            wall_s=normalize(wall - steal - out["queue_wait_s"], samples),
            cpu_s=normalize(cpu, samples),
            setup_s=normalize(setup, samples, end=out["setup_end"]),
            host_samples=len(samples),
        )
    else:
        out.update(wall_s=wall, cpu_s=cpu)
    if trace and (work / "spans.jsonl").exists():
        # the spans of the latest traced run of each workload
        shutil.move(str(work / "spans.jsonl"), WORK / f"spans-{workload}.jsonl")
    shutil.rmtree(work, ignore_errors=True)
    return out


def load_reference() -> Dict[str, object]:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def check_runs(runs: List[Dict[str, object]],
               expected: Optional[Dict[str, object]]) -> List[str]:
    """Every failed output check, one line each.

    Each repetition is compared with the committed reference of its seed
    (when there is one) and with the repetitions before it: output
    digests, relaxed-engine fingerprints, clock and routing counts and,
    on traced repetitions, the exact per-layer counts.
    """
    from layers import EXACT_COUNTS

    want = {
        "digests": dict((expected or {}).get("digests", {})),
        "counts": dict((expected or {}).get("counts", {})),
    }
    if expected:
        want["fingerprints"] = expected["fingerprints"]
    problems: List[str] = []
    for i, r in enumerate(runs):
        if not r["ok"]:
            problems.append(f"rep {i}: process failed (exit {r['returncode']})")
            continue
        for name, passed in r["checks"].items():
            if not passed:
                problems.append(f"rep {i}: check {name} failed")
        if r["failed_units"]:
            problems.append(f"rep {i}: {r['failed_units']} unit(s) failed")
        r["counts"] = {"clocks": r["clocks"], "routings": r["routings"]}
        if "layers" in r:
            for name in EXACT_COUNTS:
                r["counts"][name] = r["layers"]["metrics"][name]
        for name in sorted(set(want["digests"]) | set(r["digests"])):
            digest = r["digests"].get(name, "missing")
            if want["digests"].setdefault(name, digest) != digest:
                problems.append(f"rep {i}: digest of {name} is {digest[:12]}, "
                                f"expected {want['digests'][name][:12]}")
        if want.setdefault("fingerprints", r["fingerprints"]) != r["fingerprints"]:
            problems.append(f"rep {i}: relaxed-engine fingerprints changed")
        for name, value in r["counts"].items():
            if want["counts"].setdefault(name, value) != value:
                problems.append(f"rep {i}: count {name} is {value}, "
                                f"expected {want['counts'][name]}")
    return problems


def sat_err(run: Dict[str, object], expected: Optional[Dict[str, object]]) -> Optional[float]:
    """Largest relative deviation from the bit-exact saturation reference."""
    if not expected or "fast_saturation" not in expected or "saturation" not in run:
        return None
    ref = expected["fast_saturation"]
    return max(abs(run["saturation"][k] - ref[k]) / ref[k] for k in ref)


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(runs: List[Dict[str, object]]) -> Dict[str, float]:
    ok = [r for r in runs if r["ok"] and not r["traced"]]
    return {
        "wall_s": median([r["wall_s"] for r in ok]),
        "cpu_s": median([r["cpu_s"] for r in ok]),
        "setup_s": median([r["setup_s"] for r in ok]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in ok]),
        "routings_per_s": median([r["routings"] / r["wall_s"] for r in ok]),
        "sim_clocks_per_s": median([r["clocks"] / r["wall_s"] for r in ok]),
    }


def per_layer(runs: List[Dict[str, object]]) -> Dict[str, float]:
    from layers import PER_LAYER_UNITS

    traced = [r for r in runs if r["ok"] and r["traced"]]
    untraced = [r for r in runs if r["ok"] and not r["traced"]]
    per_run = []
    for r in traced:
        m = dict(r["layers"]["metrics"])
        m["experiments.other_s"] = r["raw_wall_s"] - r["layers"]["attributed_s"]
        m["tracing.overhead_s"] = r["wall_s"] - median([u["wall_s"] for u in untraced])
        per_run.append(m)
    return {k: median([m[k] for m in per_run]) for k in PER_LAYER_UNITS}


def measure(workload: str, preset_seed: int, expected: Optional[Dict[str, object]],
            seconds: float, trace: bool) -> Dict[str, object]:
    """Run *workload* for *seconds*, print its block, return its result line.

    A further run starts only if it would end nearer the target than
    stopping now, and before the hard limit.  With *trace* the runs
    alternate traced and untraced, one of each at least.
    """
    from layers import PER_LAYER_UNITS
    from repro.util.wallclock import wall_clock

    start = wall_clock()
    runs: List[Dict[str, object]] = []
    while True:
        traced = trace and len(runs) % 2 == 0
        runs.append(run_child(workload, preset_seed, traced,
                              f"{workload}-{os.getpid()}-{len(runs)}",
                              start + HARD_LIMIT_S))
        if trace and len(runs) < 2:
            continue
        elapsed = wall_clock() - start
        typical = median([r["raw_wall_s"] for r in runs])
        if elapsed + typical / 2 >= seconds or elapsed + typical > HARD_LIMIT_S:
            break

    problems = check_runs(runs, expected)
    attempted = sum(int(r["units"]) for r in runs if r["ok"])
    attempted += sum(int(expected["units"]) if expected else 1 for r in runs if not r["ok"])
    failed = len(problems)
    attempted = max(attempted, failed, 1)
    e2e = end_to_end(runs)
    e2e["failed_frac"] = failed / attempted
    errs = [e for e in (sat_err(r, expected) for r in runs if r["ok"]) if e is not None]

    print(f"# workload {workload}, input seed {preset_seed} "
          f"({'committed reference' if expected else 'no committed reference'}), "
          f"{len(runs)} repetition(s), {sum(1 for r in runs if r['traced'])} traced")
    for i, r in enumerate(runs):
        print(f"# rep {i}: {'traced' if r['traced'] else 'untraced'} "
              f"wall {r['wall_s']:.3f} s (raw {r['raw_wall_s']:.3f}), "
              f"cpu {r['cpu_s']:.3f} s (raw {r['raw_cpu_s']:.3f}), "
              f"setup {r.get('setup_s', float('nan')):.3f} s "
              f"(raw {r.get('raw_setup_s', float('nan')):.3f}), "
              f"steal {r['steal_s']:.2f} s, "
              f"queue wait {r.get('queue_wait_s', float('nan')):.3f} s, "
              f"{r.get('host_samples', 0)} speed samples, "
              f"peak rss {r['peak_rss_mb']:.1f} MB, "
              f"exit {'ok' if r['ok'] else r['returncode']}")
    for line in problems:
        print(f"# CHECK FAILED: {line}")
    if errs:
        e2e["sat_err"] = f"{max(errs):.6f}"
    elif any("saturation" in r for r in runs):
        e2e["sat_err"] = "n/a (no committed bit-exact reference for this seed)"
    else:
        e2e["sat_err"] = "n/a (only paperlite-batch is compared with the bit-exact engine)"
    if not e2e["sim_clocks_per_s"]:
        e2e["sim_clocks_per_s"] = "n/a (workload does not simulate)"
    for name, unit in {**END_TO_END_UNITS, **REPORTED_ONLY}.items():
        value = e2e[name]
        print(f"{name} = {value if isinstance(value, str) else f'{value:.6g}'} {unit}")

    if trace:
        layers = per_layer(runs)
        traced_ok = [r for r in runs if r["ok"] and r["traced"]]
        tails = traced_ok[0]["layers"]["tails"] if traced_ok else {}
        for name, unit in PER_LAYER_UNITS.items():
            note = ""
            if name in tails:
                q, n = tails[name]
                note = f"  (p{q} of {n} calls)"
            print(f"{name} = {layers[name]:.6g} {unit}{note}")
        for r in traced_ok:
            print(f"# traced rep: layer self times {r['layers']['attributed_s']:.3f} s + "
                  f"experiments.other_s {r['raw_wall_s'] - r['layers']['attributed_s']:.3f} s "
                  f"= raw wall {r['raw_wall_s']:.3f} s ({r['layers']['spans']} spans)")
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="one workload, or all three in turn")
    p.add_argument("--seed", type=int, required=True,
                   help="accepted for the runner's interface; see --preset-seed")
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--preset-seed", type=int, default=None,
                   help="input seed (default: the committed tuning seed; the "
                   "held-out seed also has a committed reference)")
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "repro" / "__init__.py").exists() or not REFERENCE.exists():
        print(f"perfbench: no program under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    ref = load_reference()
    preset_seed = args.preset_seed if args.preset_seed is not None else ref["tuning_seed"]
    expected = ref["seeds"].get(str(preset_seed), {})
    WORK.mkdir(exist_ok=True)
    build()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = measure(name, preset_seed, expected.get(name),
                                args.seconds, bool(args.trace))
        if len(names) > 1:
            print(json.dumps({name: results[name]}))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (k if len(names) == 1 else f"{name}/{k}"): v
            for name, r in results.items() for k, v in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
