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

The bit-exact scalar engines get the same kind of anchor
(:data:`SCALAR_GOLDEN`): ``engine="fast"`` and the virtual-channel
engine under its ``replicate`` and ``duato`` policies share their clock
driver, packet generation, fault hooks and wait-for analysis, and the
reference-vs-fast suites compare two paths through that shared code, so
only literal digests catch a drift in it.
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
from repro.routing.duato import build_duato_routing
from repro.simulator import (
    SimulationConfig,
    VirtualChannelSimulator,
    WormholeSimulator,
)
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


def _faulted_sim(topo, routing, policy, seed=11, make=WormholeSimulator, **cfg):
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
    sim = make(routing, _cfg(seed=seed, **cfg))
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


def _vc(num_vcs):
    return lambda routing, cfg: VirtualChannelSimulator(
        routing, cfg, num_vcs=num_vcs
    )


#: scalar engines: (canonical digest, channel digest[, records digest]);
#: recorded once, like :data:`GOLDEN`
SCALAR_GOLDEN = {
    "fast": (
        "e49c46d2f9cb4033cee8ac624717c7e69678a7ebccc68730429c873d0098e403",
        "3e87879f618d0725",
    ),
    "vc2": (
        "c8b4797a09e6e8bde94b729a95c3ff6dbe5459b66578f02ae6aec32eb38d4df0",
        "3ecab2da6c322eaa",
    ),
    "duato3": (
        "4ae29732e82ca68782671cf0ae95c5cf86d11c6e837281dd5643b838f5158afb",
        "76c910783257e595",
    ),
    "fast-faults-drop": (
        "951ac88098fd531f124c1c45fc8b4641cbabcfd4e749d17ebcaebbfad7ecda3f",
        "e3c8036206be28e0",
        "c0c6b56640121fea",
    ),
    "fast-faults-drain": (
        "10de24b1c96bae5e7e968611e1097c3371e812cb50ed7f4fdff8c104d1c25d4d",
        "6e00ce40fabe1fa2",
        "5c415fad4f339563",
    ),
    "vc2-faults-drop": (
        "1dd29a82ef578db2e46144b24ac019ffa32423c90ee9bdbbf6effac68b371253",
        "29f7caefa9233567",
        "fd1fbbf079a4964c",
    ),
    "vc2-faults-drain": (
        "336d24da4ef0321b577d15536e9618133b886bab78c2c2988cc1c337af7986f9",
        "c56499a57a67c8d0",
        "f6a5360746d8da1c",
    ),
}


class TestGoldenScalarRuns:
    @pytest.mark.parametrize("case", ["fast", "vc2", "duato3"])
    def test_fault_free(self, net, case):
        topo, routing = net
        if case == "fast":
            sim = WormholeSimulator(routing, _cfg(engine="fast"))
        elif case == "vc2":
            sim = _vc(2)(routing, _cfg(engine="fast"))
        else:
            duato = build_duato_routing(topo, escape="down-up", rng=7)
            sim = _vc(3)(duato, _cfg(engine="fast"))
        stats = sim.run()
        got = (stats.canonical_digest(), _channel_digest(stats))
        assert got == SCALAR_GOLDEN[case]

    @pytest.mark.parametrize("policy", ["drop", "drain"])
    @pytest.mark.parametrize("case", ["fast", "vc2"])
    def test_live_faults(self, net, case, policy):
        topo, routing = net
        make = WormholeSimulator if case == "fast" else _vc(2)
        stats = _faulted_sim(topo, routing, policy, make=make, engine="fast").run()
        assert len(stats.reconfigurations) >= 2
        assert stats.fault_drops > 0
        got = (
            stats.canonical_digest(),
            _channel_digest(stats),
            _records_digest(stats),
        )
        assert got == SCALAR_GOLDEN[f"{case}-faults-{policy}"]
