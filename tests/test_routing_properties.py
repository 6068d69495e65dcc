"""Property-based invariants of the routing algorithms under traffic.

Seeded-random campaigns (topology x routing algorithm x traffic
pattern) drive the fast-path engine with a :class:`TraceRecorder` and
check two properties of the *routes actually taken*, not just the
precomputed tables:

* **Turn legality**: no header ever traverses a turn the turn model
  prohibits — every observed (input channel, output channel) pair at a
  switch must be allowed, which includes the algorithm's released
  prohibited turns (pair exceptions) but nothing beyond them.

* **Acyclic taken dependencies**: the channel dependency graph
  restricted to the turns traffic actually exercised is acyclic.  This
  is the operational face of the Dally-Seitz condition — the full
  admissible graph is verified acyclic at build time, and any cycle
  among taken routes would have to be a cycle of that graph.

The hypothesis section below re-checks both properties over *random*
(topology, algorithm, traffic) triples under the batch engine — the
engine the experiments run, which records the same tracer events —
and adds an engine shootout: for random scenarios, both bit-exact
step engines must produce the identical per-worm delivery record — not
just equal aggregates, but the same packets taking the same channels
at the same clocks.

The last section checks the all-destination table kernel
(:func:`repro.routing.table.build_routing_function`) against the
single-destination reference BFS
(:func:`repro.routing.channel_graph.shortest_path_dags`), stacked, on
random topologies and random turn models.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.downup import build_down_up_routing
from repro.routing.base import RoutingFunction, TurnModel
from repro.routing.channel_graph import find_cycle, shortest_path_dags
from repro.routing.lturn import build_l_turn_routing
from repro.routing.table import build_routing_function
from repro.routing.updown import build_up_down_routing
from repro.simulator import SimulationConfig, WormholeSimulator
from repro.simulator.trace import TraceRecorder
from repro.simulator.traffic import HotspotTraffic, UniformTraffic
from repro.topology import zoo
from repro.topology.generator import random_irregular_topology

BUILDERS = {
    "up-down": lambda topo, seed: build_up_down_routing(topo),
    "down-up": lambda topo, seed: build_down_up_routing(topo, rng=seed),
    "l-turn": lambda topo, seed: build_l_turn_routing(topo),
}


def _traced_run(topo, routing, seed, traffic=None):
    """Run a short loaded simulation and return the recorded traces."""
    cfg = SimulationConfig(
        packet_length=12,
        injection_rate=0.2,
        warmup_clocks=0,
        measure_clocks=1_500,
        seed=seed,
    )
    sim = WormholeSimulator(routing, cfg, traffic=traffic)
    sim.tracer = TraceRecorder(max_packets=50_000)
    sim.run()
    return sim.tracer


def _taken_turns(tracer):
    """All (input channel, output channel) turns headers performed."""
    turns = set()
    for trace in tracer:
        path = trace.path()
        turns.update(zip(path, path[1:]))
    return turns


def _assert_turns_legal(topo, routing, turns):
    tm = routing.turn_model
    for cin, cout in turns:
        v = topo.channel(cin).sink
        assert topo.channel(cout).start == v, (
            f"header teleported: channel {cin} sinks at {v} but "
            f"{cout} starts at {topo.channel(cout).start}"
        )
        assert tm.is_turn_allowed(v, cin, cout), (
            f"prohibited un-released turn taken at switch {v}: "
            f"{cin} -> {cout}"
        )


def _assert_taken_graph_acyclic(topo, turns):
    adj = [[] for _ in range(topo.num_channels)]
    for cin, cout in turns:
        adj[cin].append(cout)
    cycle = find_cycle(adj)
    assert cycle is None, f"taken routes close a dependency cycle: {cycle}"


@pytest.mark.parametrize("algo", sorted(BUILDERS))
@pytest.mark.parametrize("seed", [11, 12, 13])
class TestTakenRouteProperties:
    def _campaign(self, algo, seed):
        topo = random_irregular_topology(18, 4, rng=seed)
        routing = BUILDERS[algo](topo, seed)
        if seed % 2:
            traffic = HotspotTraffic(topo.n, hotspots=(seed % topo.n,), fraction=0.3)
        else:
            traffic = UniformTraffic(topo.n)
        tracer = _traced_run(topo, routing, seed, traffic)
        turns = _taken_turns(tracer)
        assert turns, "campaign produced no multi-hop routes"
        return topo, routing, turns

    def test_no_unreleased_prohibited_turn(self, algo, seed):
        topo, routing, turns = self._campaign(algo, seed)
        _assert_turns_legal(topo, routing, turns)

    def test_taken_dependency_graph_acyclic(self, algo, seed):
        topo, routing, turns = self._campaign(algo, seed)
        _assert_taken_graph_acyclic(topo, turns)


# ---------------------------------------------------------------------------
# hypothesis campaigns: random triples, batch engine
# ---------------------------------------------------------------------------
_PROPERTY_SETTINGS = settings(
    max_examples=8,
    deadline=None,  # flit-level simulation; wall time varies by scenario
    derandomize=True,  # CI determinism: the same examples every run
    suppress_health_check=[HealthCheck.too_slow],
)


def _random_scenario(draw):
    """One random (topology, routing, traffic, config) scenario."""
    topo_rng = draw(st.integers(min_value=0, max_value=10_000))
    n = draw(st.sampled_from([12, 16, 20]))
    algo = draw(st.sampled_from(sorted(BUILDERS)))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rate = draw(st.sampled_from([0.08, 0.2, 0.5]))
    topo = random_irregular_topology(n, 4, rng=topo_rng)
    routing = BUILDERS[algo](topo, seed)
    if draw(st.booleans()):
        traffic = HotspotTraffic(
            topo.n, hotspots=(seed % topo.n,), fraction=0.3
        )
    else:
        traffic = UniformTraffic(topo.n)
    cfg = SimulationConfig(
        packet_length=draw(st.sampled_from([4, 12, 24])),
        injection_rate=rate,
        warmup_clocks=0,
        measure_clocks=500,
        seed=seed,
    )
    return topo, routing, traffic, cfg


class TestRandomTriplesVectorized:
    """Route legality of random campaigns under ``engine: batch``."""

    @_PROPERTY_SETTINGS
    @given(st.data())
    def test_turns_legal_and_taken_graph_acyclic(self, data):
        topo, routing, traffic, cfg = _random_scenario(data.draw)
        sim = WormholeSimulator(
            routing, cfg.with_engine("batch"), traffic=traffic
        )
        sim.tracer = TraceRecorder(max_packets=50_000)
        sim.run()
        turns = _taken_turns(sim.tracer)
        _assert_turns_legal(topo, routing, turns)
        _assert_taken_graph_acyclic(topo, turns)


class TestEngineShootout:
    """Random scenarios: the bit-exact engines produce the identical
    per-worm delivery record — same packets, same channels, same
    clocks."""

    @staticmethod
    def _delivery_record(routing, cfg, traffic, engine):
        sim = WormholeSimulator(
            routing, cfg.with_engine(engine), traffic=traffic
        )
        sim.tracer = TraceRecorder(max_packets=50_000)
        stats = sim.run()
        record = tuple(
            (t.pid, t.src, t.dst, tuple(t.events)) for t in sim.tracer
        )
        return record, stats.canonical_digest()

    @_PROPERTY_SETTINGS
    @given(st.data())
    def test_identical_per_worm_records(self, data):
        _topo, routing, traffic, cfg = _random_scenario(data.draw)
        ref = self._delivery_record(routing, cfg, traffic, "reference")
        got = self._delivery_record(routing, cfg, traffic, "fast")
        assert got == ref, "fast diverged from the reference engine"


class TestTracedPathsAreRoutes:
    """Every traced path is one the routing tables could have produced."""

    @pytest.mark.parametrize("seed", [21, 22])
    def test_paths_follow_tables(self, seed):
        topo = random_irregular_topology(16, 4, rng=seed)
        routing = build_up_down_routing(topo)
        tracer = _traced_run(topo, routing, seed)
        checked = 0
        for trace in tracer:
            path = trace.path()
            if not path:
                continue
            assert path[0] in routing.first_hops[trace.dst][trace.src]
            for cin, cout in zip(path, path[1:]):
                assert cout in routing.next_hops[trace.dst][cin]
            checked += 1
        assert checked > 0


# ---------------------------------------------------------------------------
# table kernel vs the single-destination reference
# ---------------------------------------------------------------------------


def _stacked_reference(tm):
    """``shortest_path_dags`` for every destination, stacked."""
    topo = tm.topology
    dist = np.empty((topo.n, topo.num_channels), np.int32)
    next_hops, first_hops = [], []
    for d in range(topo.n):
        dd, nh, fh = shortest_path_dags(tm, d)
        dist[d, :] = dd
        next_hops.append(tuple(nh))
        first_hops.append(tuple(fh))
    return dist, tuple(next_hops), tuple(first_hops)


def _assert_matches_reference(tm):
    routing = build_routing_function(tm, "kernel")
    dist, next_hops, first_hops = _stacked_reference(tm)
    assert routing.dist.dtype == np.int32
    assert not routing.dist.flags.writeable
    assert routing.dist.shape == dist.shape
    assert np.array_equal(routing.dist, dist)
    assert routing.next_hops == next_hops
    assert routing.first_hops == first_hops
    return routing


def _random_topology(draw):
    shape = draw(st.sampled_from(["irregular", "tiny", "star", "complete"]))
    seed = draw(st.integers(0, 10_000))
    if shape == "star":
        return zoo.star(draw(st.integers(2, 14)))
    if shape == "complete":
        return zoo.complete(draw(st.integers(2, 7)))
    if shape == "tiny":
        return random_irregular_topology(draw(st.integers(1, 2)), 2, rng=seed)
    n = draw(st.integers(3, 24))
    return random_irregular_topology(n, draw(st.integers(2, 6)), rng=seed)


def _random_turn_model(draw, topo):
    """Random classes, base matrix, per-switch overrides and Phase-3
    style channel-pair releases: cycles and unreachable channels
    included."""
    k = draw(st.integers(1, 4))
    classes = [draw(st.integers(0, k - 1)) for _ in range(topo.num_channels)]
    base = np.array(
        [[draw(st.booleans()) for _ in range(k)] for _ in range(k)], dtype=bool
    )
    tm = TurnModel(topo, classes, base)
    for _ in range(draw(st.integers(0, 3))):
        v = draw(st.integers(0, topo.n - 1))
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        tm.set_turn(v, i, j, draw(st.booleans()))
    if topo.num_channels:
        for _ in range(draw(st.integers(0, 4))):
            a = draw(st.integers(0, topo.num_channels - 1))
            outs = [
                b for b in topo.output_channels(topo.channel(a).sink) if b != a ^ 1
            ]
            if outs:
                tm.allow_channel_pair(a, draw(st.sampled_from(outs)))
    return tm


class TestTableKernelMatchesReference:
    """``build_routing_function`` equals the stacked per-destination BFS."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_random_turn_models(self, data):
        topo = _random_topology(data.draw)
        _assert_matches_reference(_random_turn_model(data.draw, topo))

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        algo=st.sampled_from(sorted(BUILDERS)),
        n=st.integers(3, 32),
        ports=st.integers(3, 8),
        seed=st.integers(0, 10_000),
    )
    def test_paper_algorithms(self, algo, n, ports, seed):
        """The verified builders, Phase-3 channel-pair releases included."""
        topo = random_irregular_topology(n, ports, rng=seed)
        _assert_matches_reference(BUILDERS[algo](topo, seed).turn_model)

    def test_single_switch(self):
        topo = random_irregular_topology(1, 4, rng=0)
        routing = _assert_matches_reference(
            TurnModel(topo, [], np.ones((1, 1), dtype=bool))
        )
        assert routing.dist.shape == (1, 0)
        assert routing.next_hops == ((),) and routing.first_hops == (((),),)

    def test_zero_out_degree_channels(self):
        """Two switches: neither channel has a successor (U-turn only)."""
        topo = zoo.line(2)
        routing = _assert_matches_reference(
            TurnModel(topo, [0, 0], np.ones((1, 1), dtype=bool))
        )
        assert routing.next_hops == (((), ()), ((), ()))

    def test_unreachable_channels(self):
        """All turns prohibited: only one-hop routes exist."""
        topo = zoo.line(4)
        tm = TurnModel(topo, [0] * topo.num_channels, np.zeros((1, 1), dtype=bool))
        routing = _assert_matches_reference(tm)
        assert (routing.dist == RoutingFunction.UNREACHABLE).any()

    @pytest.mark.parametrize(
        "topo", [zoo.star(60), zoo.complete(12)], ids=["star60", "complete12"]
    )
    def test_high_degree(self, topo):
        """Wide successor lists: the star's hub has 59 outputs, more mask
        columns than one int64 key chunk holds at this size."""
        tm = TurnModel(topo, [0] * topo.num_channels, np.ones((1, 1), dtype=bool))
        routing = _assert_matches_reference(tm)
        hub_in = topo.channel_id(1, 0)
        assert len(routing.next_hops[2][hub_in]) == 1
