"""Benchmarks: routing-construction cost at the paper's full scale.

The paper gives ``cycle_detection`` an ``O(d * |V|^2)`` bound; these
benches measure the real cost of every construction stage on
128-switch networks (both port configurations), so regressions in the
algorithmic layers are caught independently of the simulator.
"""

import pytest

from repro.core.communication_graph import CommunicationGraph
from repro.core.coordinated_tree import build_coordinated_tree
from repro.core.cycle_detection import release_redundant_turns
from repro.core.downup import build_down_up_routing, down_up_turn_model
from repro.routing.lturn import build_l_turn_routing
from repro.routing.table import build_routing_function
from repro.routing.updown import build_up_down_routing
from repro.routing.verification import verify_routing
from repro.topology.generator import random_irregular_topology


def test_topology_generation_128(benchmark):
    topo = benchmark(random_irregular_topology, 128, 8, 7)
    assert topo.is_connected()


def test_topology_generation_128_4port(benchmark):
    topo = benchmark(random_irregular_topology, 128, 4, 7)
    assert topo.is_connected()


def test_coordinated_tree_128(benchmark, topo128):
    tree = benchmark(build_coordinated_tree, topo128)
    assert tree.depth >= 1


def test_communication_graph_128(benchmark, topo128):
    tree = build_coordinated_tree(topo128)
    cg = benchmark(CommunicationGraph.from_tree, tree)
    assert len(cg.direction) == topo128.num_channels


def test_cycle_detection_128(benchmark, topo128):
    """Phase 3 alone (the O(d |V|^2) stage)."""
    tree = build_coordinated_tree(topo128)
    cg = CommunicationGraph.from_tree(tree)

    def run():
        tm = down_up_turn_model(cg, apply_phase3=False)
        return release_redundant_turns(tm)

    releases = benchmark.pedantic(run, rounds=2, iterations=1)
    assert isinstance(releases, list)


@pytest.mark.parametrize("ports", [4, 8])
def test_routing_tables_128(benchmark, topo128, topo128_8p, ports):
    topo = topo128 if ports == 4 else topo128_8p
    tm = down_up_turn_model(CommunicationGraph.from_tree(build_coordinated_tree(topo)))
    routing = benchmark.pedantic(
        lambda: build_routing_function(tm, "down-up"), rounds=5, iterations=1
    )
    assert routing.dist.shape == (128, topo.num_channels)


@pytest.mark.parametrize("ports", [4, 8])
def test_verify_routing_128(benchmark, topo128, topo128_8p, ports):
    """Theorem-1 checks alone: acyclicity, connectivity, progress."""
    topo = topo128 if ports == 4 else topo128_8p
    tm = down_up_turn_model(CommunicationGraph.from_tree(build_coordinated_tree(topo)))
    routing = build_routing_function(tm, "down-up")
    assert benchmark.pedantic(
        lambda: verify_routing(routing), rounds=5, iterations=1
    ) is routing


@pytest.mark.parametrize(
    "builder",
    [build_down_up_routing, build_l_turn_routing, build_up_down_routing],
    ids=["down-up", "l-turn", "up-down"],
)
def test_end_to_end_construction_128_8port(benchmark, topo128_8p, builder):
    """Full verified construction (tree + turns + tables + Theorem-1
    checks) on the paper's largest configuration."""
    routing = benchmark.pedantic(
        lambda: builder(topo128_8p), rounds=1, iterations=1
    )
    assert routing.topology.n == 128


# ---------------------------------------------------------------------------
# construction-artifact cache: cold populate vs warm load
# (the dedicated regression gate is bench_construction_cache.py)
# ---------------------------------------------------------------------------


def _sample_set(preset, cache):
    from repro.experiments.harness import build_routings, make_topology

    topo = make_topology(preset, 4, 0, cache=cache)
    return build_routings(topo, preset, 0, cache=cache)


def test_cache_cold_populate_128(benchmark, tmp_path):
    """Build + serialize + publish every paper-lite sample-0 artifact."""
    from repro.experiments.artifacts import ArtifactCache
    from repro.experiments.configs import get_preset

    preset = get_preset("paperlite")
    counter = iter(range(1_000_000))

    def cold():
        return _sample_set(
            preset, ArtifactCache(tmp_path / f"cold{next(counter)}")
        )

    routings = benchmark.pedantic(cold, rounds=2, iterations=1)
    assert len(routings) == 6


def test_cache_warm_load_128(benchmark, tmp_path):
    """Checksum-verified disk loads of the same artifacts (no LRU)."""
    from repro.experiments.artifacts import ArtifactCache
    from repro.experiments.configs import get_preset

    preset = get_preset("paperlite")
    store = tmp_path / "store"
    _sample_set(preset, ArtifactCache(store))  # populate once

    def warm():
        # fresh instance per round: disk hits, empty in-process LRU
        return _sample_set(preset, ArtifactCache(store))

    routings = benchmark.pedantic(warm, rounds=3, iterations=1)
    assert len(routings) == 6


def test_cache_memory_hits_128(benchmark, tmp_path):
    """In-process LRU hits: the steady state of a campaign worker."""
    from repro.experiments.artifacts import ArtifactCache
    from repro.experiments.configs import get_preset

    preset = get_preset("paperlite")
    cache = ArtifactCache(tmp_path / "store")
    _sample_set(preset, cache)  # populate store and LRU

    routings = benchmark.pedantic(
        lambda: _sample_set(preset, cache), rounds=5, iterations=1
    )
    assert len(routings) == 6
    assert cache.counters.memory_hits > 0
