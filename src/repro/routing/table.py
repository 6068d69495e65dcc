"""All-pairs adaptive routing tables (shortest admissible paths).

Builds the :class:`~repro.routing.base.RoutingFunction` for a turn model
with one level-synchronous reverse BFS over the channel dependency graph
that advances every destination at once: ``dist`` is an ``(n, |C|)``
array, level ``k`` marks every still-unreached predecessor of a level
``k - 1`` channel, and the candidate sets are read off a boolean "is
minimal" mask over the successor lists.  Successor and predecessor lists
are padded to the largest degree in the graph (the padding points at an
always-unreachable sentinel column), so the kernel makes no assumption
about switch degree.  :func:`repro.routing.channel_graph.shortest_path_dags`
stays the single-destination reference the kernel is tested against.

Cost per build at 128 switches (median, ``benchmarks/bench_construction.py``,
2-vCPU Xeon VM): 4 ports about 13 ms, 8 ports about 40 ms, against
87 ms and 175 ms for the per-destination Python BFS loop this replaced.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.routing.base import RoutingFunction, TurnModel
from repro.routing.channel_graph import dependency_adjacency, reverse_adjacency

Candidates = Tuple[Tuple[Tuple[int, ...], ...], ...]


def build_routing_function(
    turn_model: TurnModel,
    name: str,
    meta: Optional[Dict[str, object]] = None,
) -> RoutingFunction:
    """Precompute shortest-admissible-path tables for every destination.

    The resulting routing function is *adaptive*: every minimal
    admissible candidate is retained, and the simulator picks among the
    free ones at run time (randomly on ties, per Section 5).
    """
    topo = turn_model.topology
    n, n_ch = topo.n, topo.num_channels
    unreach = RoutingFunction.UNREACHABLE
    adj = dependency_adjacency(turn_model)
    # padding entries name column n_ch: the sentinel of every dist row
    succ = _padded(adj, pad=n_ch)
    pred = _padded(reverse_adjacency(adj), pad=n_ch)
    outs = _padded([topo.output_channels(v) for v in range(n)], pad=n_ch)

    # flat (n, n_ch + 1) distance rows: dist of channel c toward dest d
    # sits at d * stride + c, the row's last slot is the sentinel
    stride = n_ch + 1
    flat = np.full(n * stride, unreach, np.int32)
    sinks = np.fromiter((ch.sink for ch in topo.channels), np.int64, count=n_ch)
    frontier = sinks * stride + np.arange(n_ch)
    flat[frontier] = 0
    sentinels = np.arange(n) * stride + n_ch
    level = 0
    while frontier.size:
        level += 1
        rows, cols = np.divmod(frontier, stride)
        hit = np.zeros(n * stride, bool)
        hit[(pred[cols] + (rows * stride)[:, None]).ravel()] = True
        hit[sentinels] = False
        hit &= flat == unreach
        flat[hit] = level
        frontier = np.flatnonzero(hit)
    full = flat.reshape(n, stride)
    dist = full[:, :n_ch].copy()
    dist.setflags(write=False)

    # masks are (successor slot, dest, channel): one (n, n_ch) gather
    # per slot keeps the temporaries at the size of dist.  A successor
    # is minimal iff it is one hop closer; dist 0 and unreachable
    # channels wish for -1 / UNREACHABLE - 1, which no successor (nor
    # the sentinel) has
    want = dist - 1
    minimal = np.stack([full[:, slot] == want for slot in succ.T])

    first = np.stack([full[:, slot] for slot in outs.T])
    best = first.min(axis=0)
    first_min = (first == best) & (best != unreach)
    first_min[:, np.arange(n), np.arange(n)] = False  # consumed locally

    return RoutingFunction(
        topology=topo,
        name=name,
        turn_model=turn_model,
        dist=dist,
        next_hops=_candidate_tuples(minimal, succ),
        first_hops=_candidate_tuples(first_min, outs),
        meta=dict(meta or {}),
    )


def _padded(lists: Sequence[Sequence[int]], pad: int) -> np.ndarray:
    """``lists`` as a ``(len, max(1, widest))`` int64 array, *pad*-filled."""
    width = max([1, *map(len, lists)])
    out = np.full((len(lists), width), pad, np.int64)
    for i, row in enumerate(lists):
        out[i, : len(row)] = row
    return out


def _candidate_tuples(mask: np.ndarray, cand: np.ndarray) -> Candidates:
    """Per-row tuples of tuples: entry ``[r][i]`` lists ``cand[i][mask[:, r, i]]``.

    *mask* is ``(width, rows, m)``, one plane per candidate slot.
    Entries with the same column and the same selected subset share one
    tuple object.  Each entry is keyed by its column, then the subset is
    shifted in bit by bit; keys are re-ranked whenever another bit would
    not fit in an int64 above a rank below the entry count, so any row
    width works.
    """
    width, rows, m = mask.shape
    planes = mask.reshape(width, rows * m)
    key = np.tile(np.arange(m, dtype=np.int64), rows)
    room = 62 - key.size.bit_length()
    for j in range(width):
        if j and j % room == 0:
            key = np.unique(key, return_inverse=True)[1]
        key = (key << 1) | planes[j]
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    picked = planes[:, first].T
    members = cand[first % m][picked].tolist()
    ends = np.cumsum(picked.sum(axis=1)).tolist()
    pool = np.fromiter(
        (tuple(members[s:e]) for s, e in zip([0, *ends], ends)),
        object,
        count=first.size,
    )
    table = pool[inverse.reshape(rows, m)].tolist()
    return tuple(map(tuple, table))
