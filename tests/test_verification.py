"""Direct tests of the Theorem-1 verification module.

The builders exercise the happy path constantly; these tests check the
verifier actually *fails* on broken inputs.
"""

import numpy as np
import pytest

from repro.routing.base import RoutingFunction, TurnModel
from repro.routing.table import build_routing_function
from repro.routing.verification import (
    VerificationError,
    assert_connected,
    assert_deadlock_free,
    assert_progress,
    verify_routing,
)
from repro.topology import zoo
from repro.topology.graph import Topology


def unrestricted_tm(topo):
    return TurnModel(topo, [0] * topo.num_channels, np.ones((1, 1), dtype=bool))


class TestDeadlockFree:
    def test_cyclic_model_rejected(self, ring6):
        with pytest.raises(VerificationError, match="cycle"):
            assert_deadlock_free(unrestricted_tm(ring6), "test")

    def test_error_names_channels_and_classes(self, ring6):
        tm = unrestricted_tm(ring6)
        with pytest.raises(VerificationError, match="class0"):
            assert_deadlock_free(tm, "test")

    def test_tree_model_accepted(self):
        assert_deadlock_free(unrestricted_tm(zoo.binary_tree(3)), "test")


class TestConnected:
    def test_unroutable_pairs_reported(self, line3):
        tm = unrestricted_tm(line3)
        tm.set_turn(1, 0, 0, False)  # forbid all transit at switch 1
        routing = build_routing_function(tm, "broken")
        with pytest.raises(VerificationError, match="unroutable"):
            assert_connected(routing)

    def test_connected_accepted(self, line3):
        assert_connected(build_routing_function(unrestricted_tm(line3), "ok"))


class TestProgress:
    def test_detects_nonminimal_candidate(self, line3):
        ok = build_routing_function(unrestricted_tm(line3), "ok")
        # corrupt: make a next-hop not decrease the distance
        c01, c12 = line3.channel_id(0, 1), line3.channel_id(1, 2)
        bad_next = list(list(row) for row in ok.next_hops)
        bad_next[2] = list(bad_next[2])
        bad_next[2][c01] = (c12, c12)  # duplicate is fine; now corrupt dist
        bad_dist = ok.dist.copy()
        bad_dist.setflags(write=True)
        bad_dist[2][c12] = 5  # no longer dist[c01] - 1
        broken = RoutingFunction(
            topology=ok.topology,
            name="broken",
            turn_model=ok.turn_model,
            dist=bad_dist,
            next_hops=tuple(tuple(r) for r in bad_next),
            first_hops=ok.first_hops,
        )
        with pytest.raises(VerificationError, match="decrease"):
            assert_progress(broken)

    def test_detects_missing_candidates(self, line3):
        ok = build_routing_function(unrestricted_tm(line3), "ok")
        c01 = line3.channel_id(0, 1)
        bad_next = [list(row) for row in ok.next_hops]
        bad_next[2][c01] = ()  # strand packets arriving at 1 heading to 2
        broken = RoutingFunction(
            topology=ok.topology,
            name="broken",
            turn_model=ok.turn_model,
            dist=ok.dist,
            next_hops=tuple(tuple(r) for r in bad_next),
            first_hops=ok.first_hops,
        )
        with pytest.raises(VerificationError, match="no admissible next hop"):
            assert_progress(broken)


class TestStructuredPayloads:
    """VerificationError carries machine-readable verdicts, not just text."""

    def test_cycle_payload_is_a_closed_channel_walk(self, ring6):
        tm = unrestricted_tm(ring6)
        with pytest.raises(VerificationError) as exc:
            assert_deadlock_free(tm, "ring")
        err = exc.value
        assert err.kind == "cycle"
        assert err.routing_name == "ring"
        cycle = err.cycle
        assert len(cycle) >= 2
        # consecutive channels (wrapping) meet head-to-tail: a real walk
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert ring6.channel(a).sink == ring6.channel(b).start

    def test_unroutable_payload_is_complete(self, line3):
        tm = unrestricted_tm(line3)
        tm.set_turn(1, 0, 0, False)  # forbid all transit at switch 1
        routing = build_routing_function(tm, "broken")
        with pytest.raises(VerificationError) as exc:
            assert_connected(routing)
        err = exc.value
        assert err.kind == "unroutable"
        # the message truncates; the attribute carries both dead pairs
        assert sorted(err.unroutable) == [(0, 2), (2, 0)]

    def test_stranded_payload_identifies_the_state(self, line3):
        ok = build_routing_function(unrestricted_tm(line3), "ok")
        c01 = line3.channel_id(0, 1)
        bad_next = [list(row) for row in ok.next_hops]
        bad_next[2][c01] = ()
        broken = RoutingFunction(
            topology=ok.topology,
            name="broken",
            turn_model=ok.turn_model,
            dist=ok.dist,
            next_hops=tuple(tuple(r) for r in bad_next),
            first_hops=ok.first_hops,
        )
        with pytest.raises(VerificationError) as exc:
            assert_progress(broken)
        err = exc.value
        assert err.kind == "stranded"
        assert err.stranded == {"dest": 2, "channel": c01, "remaining": 1}

    def test_no_progress_payload_names_the_candidate(self, line3):
        ok = build_routing_function(unrestricted_tm(line3), "ok")
        c01, c12 = line3.channel_id(0, 1), line3.channel_id(1, 2)
        bad_dist = ok.dist.copy()
        bad_dist.setflags(write=True)
        bad_dist[2][c12] = 5
        broken = RoutingFunction(
            topology=ok.topology,
            name="broken",
            turn_model=ok.turn_model,
            dist=bad_dist,
            next_hops=ok.next_hops,
            first_hops=ok.first_hops,
        )
        with pytest.raises(VerificationError) as exc:
            assert_progress(broken)
        err = exc.value
        assert err.kind == "no-progress"
        assert err.stranded["candidate"] == c12
        assert err.stranded["candidate_remaining"] == 5

    def test_payload_dict_is_jsonable(self, line3):
        import json

        tm = unrestricted_tm(line3)
        tm.set_turn(1, 0, 0, False)
        routing = build_routing_function(tm, "broken")
        with pytest.raises(VerificationError) as exc:
            assert_connected(routing)
        data = json.loads(json.dumps(exc.value.payload()))
        assert data["kind"] == "unroutable"
        assert data["routing"] == "broken"
        assert [0, 2] in data["unroutable"]

    def test_freeform_error_has_empty_payload_fields(self):
        err = VerificationError("just a message")
        assert err.kind is None
        assert err.cycle is None and err.unroutable is None
        assert err.payload()["message"] == "just a message"


class TestVerifyRouting:
    def test_returns_routing_on_success(self, line3):
        r = build_routing_function(unrestricted_tm(line3), "ok")
        assert verify_routing(r) is r

    def test_path_length_raises_on_unreachable(self, line3):
        tm = unrestricted_tm(line3)
        tm.set_turn(1, 0, 0, False)
        r = build_routing_function(tm, "broken")
        with pytest.raises(ValueError, match="no admissible path"):
            r.path_length(0, 2)


def _first_violation_oracle(routing):
    """The per-entry scan ``assert_progress`` must agree with: the
    payload of the first violation in (dest, channel, candidate)
    order, or ``None``."""
    dist = routing.dist
    for d in range(routing.topology.n):
        row = dist[d]
        for c, opts in enumerate(routing.next_hops[d]):
            rem = int(row[c])
            if rem in (0, RoutingFunction.UNREACHABLE):
                continue
            if not opts:
                return {
                    "message": f"{routing.name}: dest {d}, channel {c} at "
                    f"distance {rem} has no admissible next hop",
                    "routing": routing.name,
                    "kind": "stranded",
                    "stranded": {"dest": d, "channel": c, "remaining": rem},
                }
            for b in opts:
                if int(row[b]) != rem - 1:
                    return {
                        "message": f"{routing.name}: dest {d}, hop {c}->{b} "
                        f"does not decrease distance ({rem} -> {int(row[b])})",
                        "routing": routing.name,
                        "kind": "no-progress",
                        "stranded": {
                            "dest": d,
                            "channel": c,
                            "remaining": rem,
                            "candidate": int(b),
                            "candidate_remaining": int(row[b]),
                        },
                    }
    return None


class TestCorruptedTables:
    """Random corruptions of real tables: ``assert_progress`` reports the
    same first violation, with the same payload, as a plain scan."""

    @pytest.fixture(scope="class")
    def routing(self):
        from repro.core.downup import build_down_up_routing
        from repro.topology.generator import random_irregular_topology

        return build_down_up_routing(random_irregular_topology(20, 4, rng=5), rng=5)

    @pytest.mark.parametrize("seed", range(40))
    def test_first_violation_payload(self, routing, seed):
        rng = np.random.default_rng(seed)
        n, n_ch = routing.dist.shape
        next_hops = [list(row) for row in routing.next_hops]
        dist = routing.dist.copy()
        for _ in range(int(rng.integers(1, 4))):
            d, c = int(rng.integers(n)), int(rng.integers(n_ch))
            how = int(rng.integers(4))
            if how == 0:  # strand the state
                next_hops[d][c] = ()
            elif how == 1:  # a candidate that is not one hop closer
                next_hops[d][c] = tuple(next_hops[d][c]) + (int(rng.integers(n_ch)),)
            elif how == 2:  # a detour: the candidate list is replaced
                next_hops[d][c] = (int(rng.integers(n_ch)),)
            else:  # a wrong distance
                dist[d, c] = int(rng.integers(0, 12))
        dist.setflags(write=False)
        broken = RoutingFunction(
            topology=routing.topology,
            name="broken",
            turn_model=routing.turn_model,
            dist=dist,
            next_hops=tuple(tuple(r) for r in next_hops),
            first_hops=routing.first_hops,
        )
        expected = _first_violation_oracle(broken)
        if expected is None:
            assert_progress(broken)
            return
        with pytest.raises(VerificationError) as exc:
            assert_progress(broken)
        assert exc.value.payload() == expected

    def test_intact_table_passes(self, routing):
        assert _first_violation_oracle(routing) is None
        assert_progress(routing)
