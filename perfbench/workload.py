"""One run of one benchmark workload, in a fresh serial process.

Started by ``perfbench/run.py``; not meant to be run by hand.  The
process imports the program from ``src/``, installs the hooks of
``hooks.py``, runs the workload on inputs generated from
``--preset-seed``, and writes one JSON result (outputs' digests, check
outcomes, counts and, with ``--trace 1``, the per-layer summary).

    python3 perfbench/workload.py --workload static-paperlite \\
        --preset-seed 20040815 --trace 0 --t0 0 --work DIR --result FILE
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path
from typing import Dict, List

from hooks import Recorder, install_light, install_trace
from hostspeed import HostSpeed, queue_wait
from layers import summarize


#: Figure-8(a) windows of ``paperlite-batch`` (the preset's own are
#: 8000 + 16000 clocks; shortened so that one benchmark run of 40 s
#: holds more than one repetition)
BATCH_WARMUP = 500
BATCH_MEASURE = 1500
BATCH_REPLICAS = 2
#: the three algorithms ``certify`` checks by default
CERTIFY_ALGORITHMS = ("down-up", "l-turn", "up-down")
#: ``certify --fault-links 2`` and its default fault seed
FAULT_LINKS = 2
FAULT_SEED = 42


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def paperlite_batch_preset(seed: int, engine: str = "batch"):
    from repro.experiments.configs import get_preset

    return get_preset("paperlite").scaled(
        samples=1,
        seed=seed,
        warmup_clocks=BATCH_WARMUP,
        measure_clocks=BATCH_MEASURE,
        engine=engine,
        replicas=BATCH_REPLICAS,
    )


def saturation_by_series(result) -> Dict[str, float]:
    return {key: result.saturation_throughput(key) for key in sorted(result.series)}


def rate_classes(preset, ports, saturated_table: bool) -> Dict[str, List[float]]:
    """Offered loads of the sweep's lowest cells and of its top cells.

    The saturated Tables-1-4 runs (offered load 1.0) count as top cells.
    """
    grids = [preset.rates_for(p) for p in ports]
    return {
        "light": [min(g) for g in grids],
        "saturated": [max(g) for g in grids] + ([1.0] if saturated_table else []),
    }


# ---------------------------------------------------------------------------
# workloads: each returns units attempted, units failed, output digests,
# named check outcomes and workload-specific values
# ---------------------------------------------------------------------------


def campaign_quick(seed: int, work: Path) -> Dict[str, object]:
    from repro.experiments.campaign import run_campaign
    from repro.experiments.configs import get_preset
    from repro.experiments.parallel import figure8_units, tables_units

    preset = get_preset("quick").scaled(samples=1, seed=seed)
    out = work / "campaign"
    stages = run_campaign(preset, out, workers=1)
    units = sum(len(figure8_units(preset, p)) for p in preset.ports)
    units += len(tables_units(preset))
    files = [
        "figure8_4port.csv",
        "figure8_8port.csv",
        "tables_simulated.csv",
        "tables_static.csv",
    ]
    return {
        "units": units,
        "failed_units": sum(len(s.failures) for s in stages),
        "digests": {f: sha256_file(out / f) for f in files},
        "checks": {},
        "rates": rate_classes(preset, preset.ports, saturated_table=True),
    }


def paperlite_batch(seed: int, work: Path) -> Dict[str, object]:
    from repro.experiments.figure8 import run_figure8
    from repro.experiments.harness import PAPER_METHODS
    from repro.experiments.parallel import figure8_units

    preset = paperlite_batch_preset(seed)
    out = work / "figure8"
    out.mkdir(parents=True)
    result = run_figure8(preset, ports=4, out_dir=out, workers=1)
    sat = saturation_by_series(result)
    # Remark 2: DOWN/UP saturates no lower than L-turn under every tree
    remark2 = all(sat[f"down-up/{m}"] >= sat[f"l-turn/{m}"] for m in PAPER_METHODS)
    return {
        "units": len(figure8_units(preset, 4)),
        "failed_units": len(result.failures),
        "digests": {"figure8_4port.csv": sha256_file(out / "figure8_4port.csv")},
        "checks": {"remark2_downup_ge_lturn": remark2},
        "saturation": sat,
        "rates": rate_classes(preset, (4,), saturated_table=False),
    }


def paperlite_fast_reference(seed: int, work: Path) -> Dict[str, object]:
    """``paperlite-batch``'s exact cells and seeds on the bit-exact engine."""
    from repro.experiments.figure8 import run_figure8

    result = run_figure8(paperlite_batch_preset(seed, engine="fast"), ports=4, workers=1)
    return {
        "units": 0,
        "failed_units": len(result.failures),
        "digests": {},
        "checks": {},
        "saturation": saturation_by_series(result),
    }


def static_paperlite(seed: int, work: Path) -> Dict[str, object]:
    from repro.experiments.configs import get_preset
    from repro.experiments.harness import ALGORITHMS, make_topology, make_tree
    from repro.experiments.tables import run_static_tables
    from repro.faults import FaultSchedule
    from repro.statics import certify_routing, preflight_schedule, recheck
    from repro.util.rng import derive_seed

    preset = get_preset("paperlite").scaled(samples=1, seed=seed)
    out = work / "static"
    out.mkdir(parents=True)
    run_static_tables(preset, out_dir=out)
    digests = {"tables_static.csv": sha256_file(out / "tables_static.csv")}
    units = len(preset.ports) * 3 * 2  # (ports, method, algorithm) rows

    # certify --preset paperlite --ports 8 --fault-links 2, re-composed
    # so the preset seed reaches it
    topology = make_topology(preset, 8, sample=0)
    tree = make_tree(topology, "M1", preset, 0)
    first = None
    for alg in CERTIFY_ALGORITHMS:
        builder = ALGORITHMS[alg]
        alg_seed = derive_seed(preset.seed, 0xCE47, ord(alg[0]))
        routing = builder(topology, tree=tree, rng=alg_seed)
        if first is None:
            first = (builder, alg_seed)
        bundle = certify_routing(routing, algorithm=alg)
        recheck(bundle)  # raises CertificateError on failure
        digests[f"cert:{alg}"] = sha256_text(bundle.to_json())
    schedule = FaultSchedule.random(
        topology,
        permanent_links=FAULT_LINKS,
        window=(0, 10_000),
        rng=FAULT_SEED,
    )
    builder, alg_seed = first
    entries = preflight_schedule(
        schedule, lambda sub: builder(sub, tree=None, rng=alg_seed)
    )  # strict: every induced table is certified and re-checked
    for i, entry in enumerate(entries):
        digests[f"preflight:{i}"] = sha256_text(entry.bundle.to_json())
    return {
        "units": units + len(CERTIFY_ALGORITHMS) + len(entries),
        "failed_units": 0,
        "digests": digests,
        "checks": {},
    }


WORKLOADS = {
    "campaign-quick": campaign_quick,
    "paperlite-batch": paperlite_batch,
    "static-paperlite": static_paperlite,
    "paperlite-fast-reference": paperlite_fast_reference,
}


def main(argv: List[str]) -> int:
    if argv == ["--import-only"]:
        # compile every module a workload imports, so that later runs
        # start from a warm bytecode cache
        import repro.experiments.campaign  # noqa: F401
        import repro.experiments.parallel  # noqa: F401
        import repro.faults  # noqa: F401
        import repro.statics  # noqa: F401

        install_trace(Recorder("import-only"))
        return 0
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--preset-seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True,
                   help="wall_clock() reading taken just before this process started")
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    args = p.parse_args(argv)

    speed = HostSpeed()
    speed.start()
    run_id = f"{args.workload}-{args.preset_seed}-{os.getpid()}"
    rec = Recorder(run_id)
    install_light(rec)
    if args.trace:
        install_trace(rec)
    out = WORKLOADS[args.workload](args.preset_seed, args.work)
    speed.stop()
    setup_end = rec.first_clock if rec.first_clock is not None else rec.first_verified
    out.update(
        run_id=run_id,
        setup_end=setup_end,
        host_speed=speed.samples,
        queue_wait_s=queue_wait(),
        clocks=rec.clocks,
        routings=rec.verified,
        fingerprints=sha256_text(json.dumps(sorted(rec.fingerprints.items()))),
    )
    if args.trace:
        rates = out.get("rates", {})
        out["layers"] = summarize(
            rec.spans, rates.get("light", ()), rates.get("saturated", ())
        )
        rec.write_spans(args.work / "spans.jsonl")
    args.result.write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
