"""Unit + property tests for the random irregular topology generator."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology.generator import TopologyGenError, random_irregular_topology
from repro.topology.validation import validate_topology


class TestBasics:
    def test_paper_scale_4port(self):
        t = random_irregular_topology(128, 4, rng=0)
        assert t.n == 128
        assert max(t.degree(v) for v in range(128)) <= 4
        assert t.is_connected()

    def test_paper_scale_8port(self):
        t = random_irregular_topology(128, 8, rng=0)
        assert max(t.degree(v) for v in range(128)) <= 8
        assert t.is_connected()

    def test_deterministic_given_seed(self):
        a = random_irregular_topology(32, 4, rng=42)
        b = random_irregular_topology(32, 4, rng=42)
        assert a == b

    def test_different_seeds_differ(self):
        a = random_irregular_topology(32, 4, rng=1)
        b = random_irregular_topology(32, 4, rng=2)
        assert a != b

    def test_exact_link_count(self):
        t = random_irregular_topology(20, 4, rng=3, num_links=30)
        assert t.num_links == 30

    def test_tree_only(self):
        t = random_irregular_topology(12, 4, rng=5, num_links=11)
        assert t.num_links == 11
        assert t.is_connected()

    def test_single_switch(self):
        t = random_irregular_topology(1, 4, rng=0)
        assert t.n == 1 and t.num_links == 0

    def test_two_switches(self):
        t = random_irregular_topology(2, 2, rng=0)
        assert t.num_links == 1


class TestErrors:
    def test_infeasible_link_count_low(self):
        with pytest.raises(TopologyGenError):
            random_irregular_topology(10, 4, rng=0, num_links=5)

    def test_infeasible_link_count_high(self):
        with pytest.raises(TopologyGenError):
            random_irregular_topology(10, 4, rng=0, num_links=100)

    def test_insufficient_ports(self):
        with pytest.raises(TopologyGenError):
            random_irregular_topology(10, 1, rng=0)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 48),
    ports=st.sampled_from([3, 4, 6, 8]),
)
def test_generated_topologies_are_valid(seed, n, ports):
    """Every sample is connected, degree-bounded and structurally sound."""
    t = random_irregular_topology(n, ports, rng=seed)
    validate_topology(t)
    assert all(t.degree(v) <= ports for v in range(n))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_fill_controls_density(seed):
    sparse = random_irregular_topology(24, 4, rng=seed, fill=0.55)
    dense = random_irregular_topology(24, 4, rng=seed, fill=0.95)
    assert sparse.num_links <= dense.num_links


def test_generator_accepts_shared_generator():
    gen = np.random.default_rng(9)
    a = random_irregular_topology(16, 4, rng=gen)
    b = random_irregular_topology(16, 4, rng=gen)
    # shared stream: two draws differ but both valid
    validate_topology(a)
    validate_topology(b)


class TestStyles:
    def test_styles_order_density(self):
        sparse = random_irregular_topology(32, 4, rng=3, style="sparse")
        default = random_irregular_topology(32, 4, rng=3, style="default")
        dense = random_irregular_topology(32, 4, rng=3, style="dense")
        assert sparse.num_links <= default.num_links <= dense.num_links

    def test_dense_saturates_most_switches(self):
        t = random_irregular_topology(32, 4, rng=4, style="dense")
        saturated = sum(1 for v in range(32) if t.degree(v) == 4)
        assert saturated >= 16

    def test_unknown_style_rejected(self):
        with pytest.raises(ValueError, match="unknown style"):
            random_irregular_topology(16, 4, rng=0, style="chunky")


def _pin(n, ports, seed, **kwargs):
    """SHA-256 of the sampled link list plus the shared stream's next draw.

    The draw after the sample pins how many values the generator
    consumed, so a rewrite that picks the same links with different
    draws still fails.
    """
    gen = np.random.default_rng(seed)
    t = random_irregular_topology(n, ports, rng=gen, **kwargs)
    links = json.dumps([list(p) for p in t.links]).encode()
    return hashlib.sha256(links).hexdigest(), int(gen.integers(2**62))


class TestGoldenSamples:
    """Samples fixed before the generator was vectorized; must never move."""

    @pytest.mark.parametrize(
        "n, ports, seed, kwargs, digest, next_draw",
        [
            (128, 4, 0, {},
             "edb7394d6f8ced15de9e1794518ca24c06fadf7d871b616976acc053dddb1daf",
             4269104972794155841),
            (128, 8, 1, {},
             "69fb7b64ebbcbecd213222920df42344b847e591fc839236cd93f2c39ad0539c",
             4274134593522858375),
            (128, 4, 2, {"style": "sparse"},
             "059c354d7b48fdf05dfd473ad9131aacfdcc3d81e6ae203cf0502f5125c47bb3",
             4110771014955348015),
            (128, 8, 3, {"style": "dense"},
             "755300225c44db5e219edd10b6f7e563ad2c5eb2dbef581cc3db63b570b68a82",
             1025927090558032751),
            # num_links at the maximum: seed 1 wedges three trees before
            # the fourth succeeds, seed 0 at n=32 wedges one
            (16, 4, 1, {"num_links": 32},
             "f172e8755e324b41bf12aa39d36dc18b0ff3ca60254b0efff97e20e9d6ab2b86",
             1754397286506168454),
            (32, 4, 0, {"num_links": 64},
             "657c62a91f43edb5927fca463019560762f138244a6ac9d60946e049ad972264",
             2485396272480686463),
        ],
    )
    def test_sample_is_pinned(self, n, ports, seed, kwargs, digest, next_draw):
        assert _pin(n, ports, seed, **kwargs) == (digest, next_draw)

    def test_give_up_path_consumes_the_same_draws(self):
        gen = np.random.default_rng(1)
        with pytest.raises(TopologyGenError, match="best: 31"):
            random_irregular_topology(16, 4, rng=gen, num_links=32, max_attempts=2)
        assert int(gen.integers(2**62)) == 682169984246800380
