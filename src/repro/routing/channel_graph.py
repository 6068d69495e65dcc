"""The channel dependency graph and turn-cycle search.

Nodes are the directed channels; there is an edge ``a -> b`` when a worm
holding channel ``a`` may request channel ``b`` next, i.e. ``b`` starts
at ``a``'s sink, is not the reverse of ``a``, and the switch's turn model
allows the class pair.  A cycle in this graph is exactly a *turn cycle*
(Definition 7); its absence is the Dally-Seitz sufficient condition for
wormhole deadlock freedom, so :func:`find_turn_cycle` is the executable
form of the paper's Lemma 1 / Theorem 1.

:func:`would_close_cycle` is the reachability query at the heart of the
Phase-3 ``cycle_detection`` algorithm: releasing turn ``(e_in -> e_out)``
at a switch is unsafe iff ``e_in`` is already reachable from ``e_out``
(the released turn would then close the loop).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.routing.base import TurnModel
from repro.topology.graph import Topology


def dependency_adjacency(turn_model: TurnModel) -> List[List[int]]:
    """Adjacency list of the channel dependency graph under *turn_model*."""
    topo = turn_model.topology
    adj: List[List[int]] = [[] for _ in range(topo.num_channels)]
    for a in range(topo.num_channels):
        v = topo.channel(a).sink
        for b in topo.output_channels(v):
            if b != (a ^ 1) and turn_model.is_turn_allowed(v, a, b):
                adj[a].append(b)
    return adj


def find_cycle(adj: Sequence[Sequence[int]]) -> Optional[List[int]]:
    """Return some elementary cycle of the digraph *adj*, or ``None``.

    Iterative three-colour DFS; the returned list is the cycle's node
    sequence (first node repeated implicitly).
    """
    n = len(adj)
    WHITE, GRAY, BLACK = 0, 1, 2
    colour = [WHITE] * n
    parent: Dict[int, int] = {}
    for root in range(n):
        if colour[root] != WHITE:
            continue
        stack: List[Tuple[int, int]] = [(root, 0)]
        colour[root] = GRAY
        while stack:
            v, idx = stack[-1]
            if idx < len(adj[v]):
                stack[-1] = (v, idx + 1)
                w = adj[v][idx]
                if colour[w] == WHITE:
                    colour[w] = GRAY
                    parent[w] = v
                    stack.append((w, 0))
                elif colour[w] == GRAY:
                    cycle = [v]
                    while cycle[-1] != w:
                        cycle.append(parent[cycle[-1]])
                    cycle.reverse()
                    return cycle
            else:
                colour[v] = BLACK
                stack.pop()
    return None


def find_turn_cycle(turn_model: TurnModel) -> Optional[List[int]]:
    """A turn cycle (as a channel sequence) under *turn_model*, or ``None``.

    ``None`` certifies deadlock freedom of any routing that respects the
    turn model (acyclic channel dependencies — Dally & Seitz).
    """
    return find_cycle(dependency_adjacency(turn_model))


def reachable(
    adj: Sequence[Sequence[int]], source: int, target: int
) -> bool:
    """Is *target* reachable from *source* (possibly via a trivial path)?

    ``source == target`` counts as reachable only through an actual
    cycle; a zero-length path does **not** count, matching the Phase-3
    question "can the worm come back around?".
    """
    seen: Set[int] = set()
    stack = list(adj[source])
    while stack:
        v = stack.pop()
        if v == target:
            return True
        if v in seen:
            continue
        seen.add(v)
        stack.extend(adj[v])
    return False


def would_close_cycle(
    adj: Sequence[Sequence[int]], e_in: int, e_out: int
) -> bool:
    """Would additionally allowing the dependency ``e_in -> e_out`` close a cycle?

    True iff ``e_in`` is reachable from ``e_out`` in the current
    dependency graph *adj* — the candidate edge would then complete the
    loop ``e_in -> e_out ~~> e_in``.  (This is the DFS of the paper's
    ``cycle_detection`` algorithm, Section 4.3, expressed as plain
    reachability.)
    """
    return reachable(adj, e_out, e_in)


# ---------------------------------------------------------------------------
# turn-restricted shortest paths
# ---------------------------------------------------------------------------


def reverse_adjacency(adj: Sequence[Sequence[int]]) -> List[List[int]]:
    """Reverse adjacency: predecessors of channel ``b`` are the channels
    ``a`` with an allowed dependency ``a -> b``."""
    radj: List[List[int]] = [[] for _ in range(len(adj))]
    for a, outs in enumerate(adj):
        for b in outs:
            radj[b].append(a)
    return radj


def shortest_path_dags(
    turn_model: TurnModel, dest: int
) -> Tuple[List[int], List[Tuple[int, ...]], List[Tuple[int, ...]]]:
    """Turn-restricted shortest-path data toward *dest*.

    Returns ``(dist, next_hops, first_hops)`` where

    * ``dist[c]`` — hops remaining after traversing channel ``c``
      (``0`` iff ``sink(c) == dest``; ``UNREACHABLE_INT`` if no
      admissible continuation reaches *dest*);
    * ``next_hops[c]`` — admissible outputs continuing a shortest path;
    * ``first_hops[s]`` — minimal admissible first channels for a packet
      injected at switch ``s`` (empty for ``s == dest``).

    Implemented as a reverse BFS over the channel dependency graph from
    the set of channels sinking at *dest* (all hops cost 1 clockless hop,
    so plain BFS yields exact distances).

    This is the single-destination reference: the routing tables come
    from :func:`repro.routing.table.build_routing_function`, which runs
    the same BFS for all destinations at once and is tested against
    this function.
    """
    topo = turn_model.topology
    n_ch = topo.num_channels
    UNREACH = 2**31 - 1
    adj = dependency_adjacency(turn_model)
    radj = reverse_adjacency(adj)

    dist = [UNREACH] * n_ch
    frontier = [c for c in range(n_ch) if topo.channel(c).sink == dest]
    for c in frontier:
        dist[c] = 0
    level = 0
    while frontier:
        level += 1
        nxt = []
        for b in frontier:
            for a in radj[b]:
                if dist[a] == UNREACH:
                    dist[a] = level
                    nxt.append(a)
        frontier = nxt

    next_hops: List[Tuple[int, ...]] = []
    for a in range(n_ch):
        if dist[a] == UNREACH or dist[a] == 0:
            next_hops.append(())
            continue
        want = dist[a] - 1
        next_hops.append(tuple(b for b in adj[a] if dist[b] == want))

    first_hops: List[Tuple[int, ...]] = []
    for s in range(topo.n):
        if s == dest:
            first_hops.append(())
            continue
        outs = topo.output_channels(s)
        finite = [c for c in outs if dist[c] != UNREACH]
        if not finite:
            first_hops.append(())
            continue
        best = min(dist[c] for c in finite)
        first_hops.append(tuple(c for c in finite if dist[c] == best))
    return dist, next_hops, first_hops
