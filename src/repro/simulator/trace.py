"""Packet-event tracing.

IRFlexSim-style simulators emit per-packet event logs for debugging and
for post-hoc analyses the aggregate statistics cannot answer (where did
*this* packet wait?).  :class:`TraceRecorder` plugs into the engines as
an optional observer: the engine calls :meth:`record` on header events
and the recorder keeps a bounded, structured log.

Events
------
``gen``      packet generated (enters the source queue)
``inject``   header leaves the source into its first channel
``hop``      header acquires the next channel
``consume``  header reaches the destination's consumption port
``done``     last flit consumed
``drop``     a live fault removed the worm from the network
``truncate`` a link fault cut the worm (``drain`` policy): the fragment
             past the break keeps draining, the rest is gone
``retry``    a faulted packet re-entered its source queue (new pid)

The recorder is deliberately engine-agnostic (events carry plain ints),
costs one method call per *header* event — body flits are not traced —
and drops the oldest packets once ``max_packets`` is reached.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

EVENTS = ("gen", "inject", "hop", "consume", "done", "drop", "truncate", "retry")


@dataclass
class PacketTrace:
    """The event list of one packet."""

    pid: int
    src: int
    dst: int
    events: List[Tuple[int, str, Optional[int]]] = field(default_factory=list)
    # (clock, event, channel-or-None)

    def waiting_time(self) -> int:
        """Clocks between generation and injection (source queueing)."""
        t = {e: clock for clock, e, _c in self.events}
        if "gen" in t and "inject" in t:
            return t["inject"] - t["gen"]
        return 0

    def network_time(self) -> Optional[int]:
        """Clocks from injection to completion, if the packet finished."""
        t = {e: clock for clock, e, _c in self.events}
        if "inject" in t and "done" in t:
            return t["done"] - t["inject"]
        return None

    def path(self) -> List[int]:
        """Channels the header traversed, in order."""
        return [c for _clock, e, c in self.events if e in ("inject", "hop")]

    def per_hop_delays(self) -> List[int]:
        """Clocks between consecutive header acquisitions (stall profile)."""
        clocks = [
            clock for clock, e, _c in self.events if e in ("inject", "hop", "consume")
        ]
        return [b - a for a, b in zip(clocks, clocks[1:])]


class TraceRecorder:
    """Bounded per-packet event log.

    Attach to an engine with ``sim.tracer = TraceRecorder(...)``.  The
    ``reference``, ``fast`` and ``batch`` engines record every event.
    The VC engine records only the lifecycle events of the code it
    shares with the base engine — ``gen``, ``drop``, ``truncate`` and
    ``retry`` — and no ``inject``/``hop``/``consume``/``done`` (its
    move bodies are not traced).  Iterating the recorder yields
    :class:`PacketTrace` objects in insertion order.
    """

    def __init__(self, max_packets: int = 10_000) -> None:
        if max_packets < 1:
            raise ValueError("max_packets must be >= 1")
        self.max_packets = max_packets
        self._traces: "OrderedDict[int, PacketTrace]" = OrderedDict()

    def record(
        self,
        clock: int,
        event: str,
        pid: int,
        src: int,
        dst: int,
        channel: Optional[int] = None,
    ) -> None:
        """Append one event (unknown event names are rejected)."""
        if event not in EVENTS:
            raise ValueError(f"unknown trace event {event!r}")
        trace = self._traces.get(pid)
        if trace is None:
            trace = PacketTrace(pid=pid, src=src, dst=dst)
            self._traces[pid] = trace
            while len(self._traces) > self.max_packets:
                self._traces.popitem(last=False)
        trace.events.append((clock, event, channel))

    def get(self, pid: int) -> Optional[PacketTrace]:
        """The trace of packet *pid*, if still retained."""
        return self._traces.get(pid)

    def __iter__(self):
        return iter(self._traces.values())

    def __len__(self) -> int:
        return len(self._traces)

    def summary(self) -> Dict[str, float]:
        """Aggregates over completed traced packets."""
        finished = [t for t in self if t.network_time() is not None]
        if not finished:
            return {"packets": 0.0}
        waits = [t.waiting_time() for t in finished]
        nets = [t.network_time() for t in finished]
        return {
            "packets": float(len(finished)),
            "mean_wait": sum(waits) / len(waits),
            "mean_network_time": sum(nets) / len(nets),  # type: ignore[arg-type]
            "max_network_time": float(max(nets)),  # type: ignore[arg-type]
        }
