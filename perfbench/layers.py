"""Per-layer metrics from the spans of one traced workload run.

A layer's self time is the time its spans cover minus the part their
child spans cover.  Self times of all layers plus ``experiments.other_s``
(computed by ``run.py`` from the process wall time) add up to the wall
time of the traced process.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

#: metric name -> unit, in the order they are printed
PER_LAYER_UNITS: Dict[str, str] = {
    "topology.generate_s": "s",
    "topology.calls": "count",
    "core.tree_s": "s",
    "core.turn_model_s": "s",
    "core.release_s": "s",
    "core.releases": "count",
    "routing.tables_s": "s",
    "routing.verify_s": "s",
    "routing.builds": "count",
    "routing.distinct": "count",
    "routing.build_redundancy": "ratio",
    "statics.certify_s": "s",
    "statics.check_s": "s",
    "statics.preflight_s": "s",
    "statics.certificates": "count",
    "analysis.static_load_s": "s",
    "simulator.init_s": "s",
    "simulator.run_s": "s",
    "simulator.calls": "count",
    "simulator.clocks": "count",
    "simulator.us_per_clock_p50": "us",
    "simulator.us_per_clock_tail": "us",
    "simulator.us_per_clock_light": "us",
    "simulator.us_per_clock_saturated": "us",
    "simulator.flit_hops": "count",
    "simulator.ns_per_flit_hop": "ns",
    "simulator.active_set_occupancy": "ratio",
    "simulator.rows_per_sweep": "count",
    "simulator.us_per_row_clock": "us",
    "metrics.utilization_s": "s",
    "experiments.units": "count",
    "experiments.unit_s_p50": "s",
    "experiments.unit_s_tail": "s",
    "ledger.appends": "count",
    "ledger.append_ms_p50": "ms",
    "ledger.append_ms_tail": "ms",
    "artifacts.hits": "count",
    "artifacts.misses": "count",
    "artifacts.hit_ratio": "ratio",
    "artifacts.lookup_ms_p50": "ms",
    "artifacts.publish_ms_p50": "ms",
    "experiments.other_s": "s",
    "tracing.overhead_s": "s",
}

#: counts that must read the same on every run of one workload and seed
EXACT_COUNTS: Tuple[str, ...] = (
    "topology.calls",
    "core.releases",
    "routing.builds",
    "routing.distinct",
    "statics.certificates",
    "simulator.calls",
    "simulator.clocks",
    "simulator.flit_hops",
    "experiments.units",
    "ledger.appends",
    "artifacts.hits",
    "artifacts.misses",
)

#: layer span name -> self-time metric
SELF_TIME_METRICS: Dict[str, str] = {
    "topology.generate": "topology.generate_s",
    "core.tree": "core.tree_s",
    "core.turn_model": "core.turn_model_s",
    "core.release": "core.release_s",
    "routing.tables": "routing.tables_s",
    "routing.verify": "routing.verify_s",
    "statics.certify": "statics.certify_s",
    "statics.check": "statics.check_s",
    "statics.preflight": "statics.preflight_s",
    "analysis.static_load": "analysis.static_load_s",
    "simulator.init": "simulator.init_s",
    "simulator.run": "simulator.run_s",
    "metrics.utilization": "metrics.utilization_s",
}


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of *n* calls beyond it.

    Falls back to the median when there are too few calls for a tail.
    """
    if n <= 0:
        return 50
    return max(50, math.floor(100 - 1000 / n))


def percentile(values: Sequence[float], q: int) -> float:
    """The *q*-th percentile by the nearest-rank rule (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def self_times(spans: List[Dict[str, object]]) -> List[float]:
    """Self time of every span, indexed like *spans*."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(
    spans: List[Dict[str, object]],
    light: Sequence[float] = (),
    saturated: Sequence[float] = (),
) -> Dict[str, object]:
    """Per-layer metrics of one run, plus the call counts behind them.

    *light* and *saturated* are the offered loads of the sweep's lowest
    cells and of its highest and saturated-table cells.

    ``attributed_s`` is the self time of every span, all layers
    together; the caller subtracts it from the process wall time to get
    ``experiments.other_s``.
    """
    own = self_times(spans)
    by_name: Dict[str, List[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s["name"], []).append(i)

    def idx(name: str) -> List[int]:
        return by_name.get(name, [])

    def outermost(name: str) -> List[int]:
        out = []
        for i in idx(name):
            p = spans[i]["parent"]
            while p is not None and spans[p]["name"] != name:
                p = spans[p]["parent"]
            if p is None:
                out.append(i)
        return out

    m: Dict[str, float] = {}
    for layer, metric in SELF_TIME_METRICS.items():
        m[metric] = sum(own[i] for i in idx(layer))
    m["topology.calls"] = len(idx("topology.generate"))
    m["core.releases"] = sum(spans[i]["releases"] for i in outermost("core.release"))

    keys = [spans[i]["key"] for i in idx("routing.tables")]
    m["routing.builds"] = len(keys)
    m["routing.distinct"] = len(set(keys))
    m["routing.build_redundancy"] = _ratio(len(keys), len(set(keys)))
    m["statics.certificates"] = len(idx("statics.certify"))

    sims = idx("simulator.run")
    row_clocks = [spans[i]["rows"] * spans[i]["clocks"] for i in sims]
    per_clock = [own[i] / rc * 1e6 for i, rc in zip(sims, row_clocks)]
    tail_q = tail_percentile(len(sims))
    m["simulator.calls"] = len(sims)
    m["simulator.clocks"] = sum(row_clocks)
    m["simulator.us_per_clock_p50"] = percentile(per_clock, 50)
    m["simulator.us_per_clock_tail"] = percentile(per_clock, tail_q)

    def us_per_row_clock(rate_set) -> float:
        sel = [(own[i], rc) for i, rc in zip(sims, row_clocks)
               if spans[i]["rate"] in rate_set]
        return _ratio(sum(t for t, _ in sel) * 1e6, sum(rc for _, rc in sel))

    m["simulator.us_per_clock_light"] = us_per_row_clock(light)
    m["simulator.us_per_clock_saturated"] = us_per_row_clock(saturated)
    hops = sum(spans[i]["flit_hops"] for i in sims)
    m["simulator.flit_hops"] = hops
    m["simulator.ns_per_flit_hop"] = _ratio(m["simulator.run_s"] * 1e9, hops)
    m["simulator.active_set_occupancy"] = _ratio(
        sum(spans[i]["sched_visited"] for i in sims),
        sum(spans[i]["sched_active"] for i in sims),
    )
    sweeps = [i for i in sims if spans[i]["replicated"]]
    m["simulator.rows_per_sweep"] = _ratio(
        sum(spans[i]["rows"] for i in sweeps), len(sweeps)
    )
    m["simulator.us_per_row_clock"] = _ratio(
        sum(own[i] for i in sweeps) * 1e6,
        sum(spans[i]["rows"] * spans[i]["clocks"] for i in sweeps),
    )

    unit_s: List[float] = []
    for i in outermost("experiments.unit"):
        n = spans[i]["members"]
        unit_s += [(spans[i]["end"] - spans[i]["start"]) / n] * n
    m["experiments.units"] = len(unit_s)
    m["experiments.unit_s_p50"] = percentile(unit_s, 50)
    m["experiments.unit_s_tail"] = percentile(unit_s, tail_percentile(len(unit_s)))

    appends = [(spans[i]["end"] - spans[i]["start"]) * 1e3 for i in idx("ledger.append")]
    m["ledger.appends"] = len(appends)
    m["ledger.append_ms_p50"] = percentile(appends, 50)
    m["ledger.append_ms_tail"] = percentile(appends, tail_percentile(len(appends)))

    gets = idx("artifacts.get")
    hits = [i for i in gets if spans[i]["hit"]]
    misses = [i for i in gets if not spans[i]["hit"]]
    m["artifacts.hits"] = len(hits)
    m["artifacts.misses"] = len(misses)
    m["artifacts.hit_ratio"] = _ratio(len(hits), len(gets))
    m["artifacts.lookup_ms_p50"] = percentile(
        [(spans[i]["end"] - spans[i]["start"]) * 1e3 for i in hits], 50
    )
    m["artifacts.publish_ms_p50"] = percentile([own[i] * 1e3 for i in misses], 50)

    return {
        "metrics": m,
        "attributed_s": sum(own),
        "tails": {
            "simulator.us_per_clock_tail": [tail_q, len(sims)],
            "experiments.unit_s_tail": [tail_percentile(len(unit_s)), len(unit_s)],
            "ledger.append_ms_tail": [tail_percentile(len(appends)), len(appends)],
        },
        "spans": len(spans),
    }
