"""Golden pins of sequential ``engine="batch"`` results.

The stacked-replica tests compare a row of a multi-row sweep against
a sequential batch run of the same seed; since sequential batch runs
*are* one-row sweeps, those tests compare the driver with itself.
These pins are the independent anchor: each scenario's result digests
were recorded once and must never drift, whatever the clock loop's
internals become.  A deliberate change to the batch engine's physics
or RNG consumption is the only reason to re-record them.

Covered: fault-free uniform and hotspot traffic, live fault schedules
(link kill, link flap and switch failure, with online reconfiguration)
under the ``drop`` and the ``drain`` crossing-worm policies, and the
event stream of a :class:`~repro.simulator.trace.TraceRecorder`.
"""

import hashlib

import numpy as np
import pytest

from repro.core.downup import build_down_up_routing
from repro.faults import (
    FaultRuntime,
    FaultSchedule,
    ReconfigurationController,
    RetryPolicy,
)
from repro.simulator import SimulationConfig, WormholeSimulator
from repro.simulator.trace import TraceRecorder
from repro.simulator.traffic import HotspotTraffic
from repro.topology.generator import random_irregular_topology


@pytest.fixture(scope="module")
def net():
    topo = random_irregular_topology(24, 4, rng=9)
    return topo, build_down_up_routing(topo, rng=7)


def _cfg(**overrides):
    base = dict(
        packet_length=8,
        injection_rate=0.3,
        warmup_clocks=100,
        measure_clocks=600,
        seed=11,
        engine="batch",
    )
    base.update(overrides)
    return SimulationConfig(**base)


def _channel_digest(stats):
    """Per-channel flit counters, which the fingerprint only sums."""
    h = hashlib.sha256()
    for arr in (stats.channel_flits, stats.injected_flits, stats.consumed_flits):
        h.update(np.asarray(arr, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


def _records_digest(stats):
    rows = [
        (r.trigger_clock, r.swap_clock, r.routing_name,
         r.ejected_worms, r.cancelled_packets)
        for r in stats.reconfigurations
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def _trace_digest(tracer):
    h = hashlib.sha256()
    for t in tracer:
        h.update(repr((t.pid, t.src, t.dst, t.events)).encode())
    return h.hexdigest()[:16]


def _faulted_sim(topo, routing, policy, seed=11):
    sched = FaultSchedule.random(
        topo,
        permanent_links=1,
        link_flaps=1,
        switch_failures=1,
        window=(150, 450),
        flap_duration=120,
        rng=5,
    )
    ctrl = ReconfigurationController(
        lambda sub: build_down_up_routing(sub, rng=7), drain_clocks=48
    )
    sim = WormholeSimulator(routing, _cfg(seed=seed))
    sim.attach_faults(
        FaultRuntime(sched, ctrl, retry=RetryPolicy(), policy=policy)
    )
    return sim


#: recorded once; see the module docstring before touching these
GOLDEN = {
    "uniform": (
        "stat1-4977f85b1e7faebf07b4abbe699ef577d81cf8f6adbe7c7bb498a3b1d08175c4",
        "6a035f39881e4737",
    ),
    "hotspot": (
        "stat1-34952a3260ef55e6ad7466ba491acf38d54d129b0f46007c46c3be5de121aab4",
        "3724ab8f45f70f09",
    ),
    "faults-drop": (
        "stat1-cb580c861309f13298e2ac2434f2c2eab7bd9f6de238b65649f85285a6fbf22c",
        "930d7212cff4ba49",
        "0431cc5eeed63171",
    ),
    "faults-drain": (
        "stat1-955799b666674cff03cba981c9db95c742c253d87131780cc7f7a5974dbd7adc",
        "d3aa01444b46a5b3",
        "32df07e8b114a1d8",
    ),
    "trace": (
        "stat1-9bb6c1db9413f7fa488763f35e81c6a111e9218c345d50c3f9e0d3d6c34d888e",
        "3cd0d2be5ebc3e3a",
    ),
}


class TestGoldenBatchRuns:
    def test_uniform(self, net):
        _topo, routing = net
        stats = WormholeSimulator(routing, _cfg()).run()
        got = (stats.statistical_fingerprint(), _channel_digest(stats))
        assert got == GOLDEN["uniform"]

    def test_hotspot(self, net):
        topo, routing = net
        traffic = HotspotTraffic(topo.n, hotspots=(3, 11), fraction=0.3)
        stats = WormholeSimulator(
            routing, _cfg(injection_rate=0.2), traffic=traffic
        ).run()
        got = (stats.statistical_fingerprint(), _channel_digest(stats))
        assert got == GOLDEN["hotspot"]

    @pytest.mark.parametrize("policy", ["drop", "drain"])
    def test_live_faults(self, net, policy):
        topo, routing = net
        stats = _faulted_sim(topo, routing, policy).run()
        assert len(stats.reconfigurations) >= 2
        assert stats.fault_drops > 0
        got = (
            stats.statistical_fingerprint(),
            _channel_digest(stats),
            _records_digest(stats),
        )
        assert got == GOLDEN[f"faults-{policy}"]

    def test_trace_events(self, net):
        _topo, routing = net
        sim = WormholeSimulator(
            routing, _cfg(warmup_clocks=0, measure_clocks=300)
        )
        sim.tracer = TraceRecorder()
        stats = sim.run()
        assert len(sim.tracer) > 0
        got = (stats.statistical_fingerprint(), _trace_digest(sim.tracer))
        assert got == GOLDEN["trace"]
