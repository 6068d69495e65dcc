"""Span recorder and the layer wrappers the benchmark installs from outside.

No file under ``src/`` is touched.  Each layer's public entry points are
replaced, in every ``repro`` module that holds a reference to them, by a
wrapper that records what the benchmark needs around the original call.

Two levels:

* ``light`` hooks are always installed.  They mark the first simulated
  clock and the first verified routing (the end of set-up), count
  row-clocks and verified routings, and collect relaxed-engine
  fingerprints.  They run once per simulation or routing, so they cost
  nothing measurable.
* ``trace`` hooks open one span per layer call: name, start, end and
  parent span.  Spans stay in memory and are written out when the run
  ends.  Time comes from :func:`repro.util.wallclock.wall_clock`.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
from typing import Callable, Dict, List, Optional

from repro.util.wallclock import wall_clock


class Recorder:
    """Everything one workload process records about itself."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []
        #: wall_clock() when the first simulation starts its first clock
        self.first_clock: Optional[float] = None
        #: wall_clock() when the first routing finished verification
        self.first_verified: Optional[float] = None
        #: row-clocks simulated (every simulation and replica row)
        self.clocks = 0
        #: routings constructed and verified
        self.verified = 0
        #: unit key -> statistical fingerprint (relaxed engines only)
        self.fingerprints: Dict[str, str] = {}

    # -- spans ----------------------------------------------------------
    def open(self, name: str) -> Dict[str, object]:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": wall_clock(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: Dict[str, object]) -> None:
        span["end"] = wall_clock()
        self._stack.pop()

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({"run": self.run_id, **span}) + "\n")


# ---------------------------------------------------------------------------
# patching
# ---------------------------------------------------------------------------


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind every ``repro`` module attribute that *is* *original*."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)


def _patch_function(path: str, make: Callable[[Callable], Callable]) -> None:
    module, name = path.rsplit(".", 1)
    original = getattr(importlib.import_module(module), name)
    _replace_everywhere(original, functools.wraps(original)(make(original)))


def _patch_method(path: str, make: Callable[[Callable], Callable]) -> None:
    module, cls_name, name = path.rsplit(".", 2)
    cls = getattr(importlib.import_module(module), cls_name)
    original = cls.__dict__[name]
    if isinstance(original, staticmethod):
        fn = original.__func__
        setattr(cls, name, staticmethod(functools.wraps(fn)(make(fn))))
    else:
        setattr(cls, name, functools.wraps(original)(make(original)))


def _config_clocks(config) -> int:
    return int(config.warmup_clocks) + int(config.measure_clocks)


def install_light(rec: Recorder) -> None:
    """Set-up markers, clock and routing counts, fingerprints."""

    def sim_run(orig):
        def run(self):
            if rec.first_clock is None:
                rec.first_clock = wall_clock()
            rec.clocks += _config_clocks(self.config)
            return orig(self)
        return run

    def core_run(orig):
        def run(self):
            if rec.first_clock is None:
                rec.first_clock = wall_clock()
            rec.clocks += len(self.sims) * _config_clocks(self.sims[0].config)
            return orig(self)
        return run

    def verify(orig):
        def verify_routing(routing):
            out = orig(routing)
            rec.verified += 1
            if rec.first_verified is None:
                rec.first_verified = wall_clock()
            return out
        return verify_routing

    def keep_fingerprints(results) -> None:
        for res in results:
            if "fingerprint" in res:
                rec.fingerprints[repr(tuple(res["key"]))] = res["fingerprint"]

    def unit(orig):
        def run_unit(u):
            res = orig(u)
            keep_fingerprints([res])
            return res
        return run_unit

    def group(orig):
        def run_unit_group(g):
            res = orig(g)
            keep_fingerprints(res)
            return res
        return run_unit_group

    _patch_method("repro.simulator.engine.WormholeSimulator.run", sim_run)
    _patch_method("repro.simulator.replica_batch.ReplicaBatchCore.run", core_run)
    _patch_function("repro.routing.verification.verify_routing", verify)
    _patch_function("repro.experiments.parallel.run_unit", unit)
    _patch_function("repro.experiments.parallel.run_unit_group", group)


def install_trace(rec: Recorder) -> None:
    """One span per call into a layer's public entry points."""

    def spanned(name: str, after: Optional[Callable] = None):
        def make(orig):
            def wrapper(*args, **kwargs):
                span = rec.open(name)
                try:
                    out = orig(*args, **kwargs)
                finally:
                    rec.close(span)
                if after is not None:
                    after(span, args, kwargs, out)
                return out
            return wrapper
        return make

    def releases(span, args, kwargs, out):
        span["releases"] = len(out)

    def routing_key(span, args, kwargs, routing):
        h = hashlib.sha256(routing.name.encode())
        h.update(routing.dist.tobytes())
        span["key"] = h.hexdigest()

    def sim_stats(span, args, kwargs, out):
        config = args[1] if len(args) > 1 else kwargs["config"]
        stats = out if isinstance(out, list) else [out]
        span["replicated"] = isinstance(out, list)
        span["rows"] = len(stats)
        span["clocks"] = _config_clocks(config)
        span["rate"] = float(config.injection_rate)
        span["flit_hops"] = int(sum(int(s.channel_flits.sum()) for s in stats))
        span["sched_visited"] = int(sum(s.sched_visited_worms for s in stats))
        span["sched_active"] = int(sum(s.sched_active_worms for s in stats))

    def members(span, args, kwargs, out):
        span["members"] = len(out) if isinstance(out, list) else 1

    def cache_outcome(orig):
        def get_or_build(self, *args, **kwargs):
            misses = self.counters.misses
            span = rec.open("artifacts.get")
            try:
                return orig(self, *args, **kwargs)
            finally:
                rec.close(span)
                span["hit"] = self.counters.misses == misses
        return get_or_build

    functions = {
        "repro.topology.generator.random_irregular_topology": ("topology.generate", None),
        "repro.core.coordinated_tree.build_coordinated_tree": ("core.tree", None),
        "repro.core.downup.down_up_turn_model": ("core.turn_model", None),
        "repro.routing.lturn.l_turn_turn_model": ("core.turn_model", None),
        "repro.core.cycle_detection.release_redundant_turns": ("core.release", releases),
        "repro.routing.release.release_prohibited_turns": ("core.release", releases),
        "repro.routing.table.build_routing_function": ("routing.tables", routing_key),
        "repro.routing.verification.verify_routing": ("routing.verify", None),
        "repro.statics.certificates.certify_routing": ("statics.certify", None),
        "repro.statics.check.check_certificate": ("statics.check", None),
        "repro.statics.check.recheck": ("statics.check", None),
        "repro.statics.preflight.preflight_schedule": ("statics.preflight", None),
        "repro.analysis.static_load.static_utilization_report": ("analysis.static_load", None),
        "repro.simulator.engine.simulate": ("simulator.run", sim_stats),
        "repro.simulator.replica_batch.run_replicated": ("simulator.run", sim_stats),
        "repro.metrics.utilization.utilization_report": ("metrics.utilization", None),
        "repro.experiments.parallel.run_unit": ("experiments.unit", members),
        "repro.experiments.parallel.run_unit_group": ("experiments.unit", members),
    }
    for path, (name, after) in functions.items():
        _patch_function(path, spanned(name, after))
    methods = {
        "repro.core.communication_graph.CommunicationGraph.from_tree": ("core.turn_model", None),
        "repro.simulator.engine.WormholeSimulator.__init__": ("simulator.init", None),
        "repro.simulator.replica_batch.ReplicaBatchCore.__init__": ("simulator.init", None),
        "repro.experiments.ledger.ResultLedger.append_ok": ("ledger.append", None),
    }
    for path, (name, after) in methods.items():
        _patch_method(path, spanned(name, after))
    _patch_method("repro.experiments.artifacts.ArtifactCache.get_or_build", cache_outcome)
