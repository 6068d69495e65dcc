"""The vectorized (struct-of-arrays numpy) step implementation.

Selected with ``SimulationConfig(engine="vectorized")``.  One clock:

1. **Batched body phase** — the unified advance rule over
   :class:`~repro.simulator.vec_state.ArrayState` commits every
   consume/advance/feed in a handful of numpy operations, replacing the
   scalar engines' per-worm chain scans.  Because moves are identified
   by *channel id* (not chain index), the reference's ``shifted``
   index correction is unnecessary: a header grant and a body advance
   into the same channel commute.
2. **Header phase** — reuses the fast path's request machinery
   verbatim (memoized request list with dirty windows, injection event
   wheel, per-epoch decision cache) so the arbitration RNG stream is
   consumed identically: one ``rng.permutation`` iff requests exist,
   ``rng.integers`` only where the reference would draw.  When every
   request carries a single candidate (the overwhelmingly common case)
   grants are resolved vectorially — each free channel goes to the
   requester with the minimum permutation position, provably the same
   outcome as the reference's sequential claim loop; any
   multi-candidate request falls back to that sequential loop, which
   replays the reference byte for byte (including selection-policy RNG
   draws).
3. **Scalar commits** — grants, tail releases and completions touch a
   few worms per clock and stay in Python, maintaining worm identity
   state (chains, timestamps, occupancy maps) exactly as the scalar
   engines do.

Bit-identity with both scalar engines (same ``canonical_digest`` for a
fixed seed, fault schedules included) is enforced by the differential
golden suite in ``tests/test_engine_equivalence.py`` and the property
suite in ``tests/test_routing_properties.py``.

**Epoch contract.**  Between external mutations the arrays are
authoritative for flit counts and worm objects are stale.  Every fault
hook that reads or rewrites worm state is wrapped: the core first
writes array counts back onto the objects (:meth:`ArrayState.sync_worms`),
lets the hook run on coherent objects, then marks the arrays dirty so
the next clock begins with an atomic :meth:`ArrayState.rebuild` — the
same invalidate-then-rebuild shape as the decision cache's epochs, and
what keeps mid-run table swaps plus dead-channel masking bit-identical
across engines.
"""

from __future__ import annotations

import weakref
from typing import List, Optional, Tuple

import numpy as np

from repro.simulator.vec_state import FREE, ArrayState

__all__ = ["VectorizedCore"]

#: below this many header requests the sequential claim loop wins over
#: the lexsort-based vectorized resolution (fixed numpy overhead);
#: both resolve identically, so this is purely a perf crossover
_VEC_ARB_MIN = 64

#: engine hooks that read (and may rewrite) per-worm flit state — each
#: gets a sync-objects-first / mark-dirty-after wrapper
_SYNC_MUTATING_HOOKS = (
    "_fault_kill_link",
    "_fault_kill_switch",
    "_fault_eject_stranded",
)
#: diagnostics that read per-worm flit state but mutate nothing
_SYNC_READONLY_HOOKS = ("_stall_report", "_deadlock_report")


class VectorizedCore:
    """Per-simulator vectorized step state; ``move`` is the step impl."""

    def __init__(self, sim) -> None:
        #: the owning simulator, held weakly: the simulator holds the
        #: core (and the hooks that call into it), so a strong
        #: back-reference would leave every finished run in a reference
        #: cycle that only the cyclic garbage collector frees
        self._sim = weakref.ref(sim)
        self.state = ArrayState(
            sim.topology.num_channels, sim.topology.n, sim.config.buffer_flits
        )
        #: set by the fault-hook wrappers; triggers an atomic rebuild at
        #: the start of the next move
        self._dirty = False
        #: companions of the engine's memoized request list, rebuilt
        #: whenever the list is rebuilt and reused on clean clocks:
        #: the per-request singleton-target list plus has-multi flag,
        #: and its lazily materialized int64 array
        self._req_lists: Tuple[List[int], bool] = ([], False)
        self._req_arrays: Optional[np.ndarray] = None
        #: deferred body-phase stats batches: per-clock ``(tgts, movers)``
        #: pairs, flushed into the flit counters in one ``np.add.at``
        #: sweep (see :meth:`_flush_stats`)
        self._pend_stats: List[Tuple[np.ndarray, np.ndarray]] = []
        self._install_hooks(sim)
        # the batched body phase scatter-adds into the flit counters, so
        # the collector's plain lists become int64 arrays (the scalar
        # grant paths' single-element += works on either)
        st = sim.stats
        st.channel_flits = np.zeros(len(st.channel_flits), dtype=np.int64)
        st.consumed_flits = np.zeros(len(st.consumed_flits), dtype=np.int64)
        st.injected_flits = np.zeros(len(st.injected_flits), dtype=np.int64)
        # any reader of the counters must see the deferred batches first
        st.flush = self._flush_stats

    # ------------------------------------------------------------------
    # epoch contract plumbing
    # ------------------------------------------------------------------
    def _install_hooks(self, sim) -> None:
        """Shadow the engine's object-reading hooks with sync wrappers.

        The wrappers close over the core and the class-level functions,
        never a method bound to *sim*, so installing them on *sim*
        creates no reference cycle.
        """
        core = self
        cls = type(sim)

        def wrap_mutating(orig):
            def hook(*args, **kwargs):
                core.sync()
                out = orig(core.sim, *args, **kwargs)
                core._dirty = True
                return out

            return hook

        def wrap_readonly(orig):
            def hook(*args, **kwargs):
                core.sync()
                return orig(core.sim, *args, **kwargs)

            return hook

        for name in _SYNC_MUTATING_HOOKS:
            setattr(sim, name, wrap_mutating(getattr(cls, name)))
        for name in _SYNC_READONLY_HOOKS:
            setattr(sim, name, wrap_readonly(getattr(cls, name)))

    @property
    def sim(self):
        """The owning simulator."""
        return self._sim()

    def sync(self) -> None:
        """Write array flit counts back onto the Worm objects."""
        self._flush_stats()
        self.state.sync_worms(self.sim)

    def _flush_stats(self) -> None:
        """Apply the deferred body-phase counter batches in one sweep.

        The per-clock scatter-adds into ``channel_flits`` /
        ``consumed_flits`` / ``injected_flits`` are pure accumulation —
        nothing reads them mid-clock — so ``move`` only records the
        ``(tgts, movers)`` pair and this flush replays every pending
        clock with ``np.add.at`` (targets repeat *across* clocks, so
        unbuffered fancy ``+=`` would drop counts here).

        Idempotent by construction: the pending list is detached in one
        step before anything is applied, so a nested flush (a timeline
        tick, fault sync and 512-batch boundary landing on the same
        clock each call this) applies every batch exactly once — the
        second caller sees an empty list and returns.
        """
        pend = self._pend_stats
        if not pend:
            return
        self._pend_stats = []
        st = self.state
        stats = self.sim.stats
        allt = np.concatenate([t for t, _ in pend])
        allm = np.concatenate([m for _, m in pend])
        np.add.at(stats.channel_flits, allt[allt < st.C], 1)
        sunk = allt[allt >= st.SINK0]
        np.add.at(stats.consumed_flits, sunk - st.SINK0, 1)
        fed = allm[allm >= st.SRC0]
        np.add.at(stats.injected_flits, fed - st.SRC0, 1)

    # ------------------------------------------------------------------
    # one clock
    # ------------------------------------------------------------------
    def move(self, sim) -> bool:
        st = self.state
        if self._dirty:
            st.rebuild(sim)
            self._dirty = False
        stats = sim.stats
        clock = sim.clock
        rec = stats.active
        f = st.flits
        dn = st.dn
        cap_dn = st.cap_dn
        cap_p, cap_sink = st.cap, st.cap_sink
        C, SRC0, SINK0, D = st.C, st.SRC0, st.SINK0, st.D
        occ = sim.channel_occ
        occ_vec = st.occ
        wheel = sim._wheel
        tracer = sim.tracer

        # -- phase 1: batched body moves from start-of-clock state ------
        mask = (f > 0) & (f[dn] < st.cap_dn)
        movers = mask.nonzero()[0]
        n_moves = movers.size
        #: held channels whose count hit zero this clock — the only
        #: worms that can newly drain a tail or finish
        drain_cand: List[int] = []
        #: sources whose feed emptied this clock.  The port release is
        #: deferred until after the injection-request scan: the scalar
        #: engines free it during body *commit* (post-arbitration), so
        #: the next queued worm can first request at the following clock
        freed_src: List[int] = []
        if n_moves:
            tgts = dn[movers]
            f[movers] -= 1
            f[tgts] += 1  # targets are unique (see vec_state docstring)
            if rec:
                self._pend_stats.append((tgts, movers))
                if len(self._pend_stats) >= 512:
                    self._flush_stats()
            zero = movers[f[movers] == 0]
            if zero.size:
                for k in zero.tolist():
                    if k >= SRC0:
                        freed_src.append(k - SRC0)
                    else:
                        drain_cand.append(k)
        if rec:
            stats.vec_moved_flits += int(n_moves)
            stats.vec_clocks += 1

        # -- phase 2: header requests (fast-path machinery, plus the
        # parallel singleton-target list the hybrid arbitration uses) --
        cache = sim.decision_cache
        sink_of = sim._sink
        in_net = sim._req_cache
        if in_net is None or clock <= sim._req_dirty_until:
            next_rows = cache._next_rows
            in_net = []
            req_append = in_net.append
            #: per-request singleton target channel (-1 for consume or
            #: multi-candidate requests), built alongside the list
            tlist: List[int] = []
            t_append = tlist.append
            in_multi = False
            for w in sim.active:
                req = w.hdr_req
                if req is not None:
                    req_append(req)
                    cands = req[2]
                    if cands.__class__ is int:
                        t_append(cands)
                    elif req[1] is None:
                        t_append(-1)
                    else:
                        t_append(-2)
                        in_multi = True
                    continue
                if w.consuming or not w.chain or w.head_ready_at > clock:
                    continue
                head = w.chain[0]
                dst = w.dst
                if sink_of[head] == dst:
                    req = (w, None, ())  # consumption request
                    t_append(-1)
                else:
                    row = next_rows[dst]
                    if row is None:
                        row = cache.next_row(dst)
                    cands = row[head]
                    if len(cands) == 1:
                        cands = cands[0]
                        t_append(cands)
                    else:
                        t_append(-2)
                        in_multi = True
                    req = (w, head, cands)
                w.hdr_req = req
                req_append(req)
            sim._req_cache = in_net
            self._req_lists = (tlist, in_multi)
            self._req_arrays = None
        # injection requests from the event wheel, ascending source order
        timers = wheel._timers
        if timers and timers[0][0] <= clock:
            wheel.advance(clock)
        inj_reqs: List[tuple] = []
        inj_targets: List[int] = []
        inj_multi = False
        if wheel.pending:
            first_rows = cache._first_rows
            inj_occ = sim.injection_occ
            queues = sim.queues
            for s in sorted(wheel.pending):
                q = queues[s]
                if not q:
                    wheel.sleep(s)
                    continue
                if inj_occ[s] != FREE:
                    wheel.sleep(s)
                    continue
                w = q[0]
                if w.head_ready_at > clock:
                    wheel.park_until(s, w.head_ready_at)
                    continue
                row = first_rows[w.dst]
                if row is None:
                    row = cache.first_row(w.dst)
                cands = row[s]
                if len(cands) == 1:
                    cands = cands[0]
                    inj_targets.append(cands)
                else:
                    inj_multi = True
                    inj_targets.append(-2)
                inj_reqs.append((w, -1, cands))
        header_requests = in_net + inj_reqs if inj_reqs else in_net
        # deferred port releases: applied only now that the injection
        # scan is done, matching the scalar engines' commit-time freeing
        if freed_src:
            inj_occ = sim.injection_occ
            for s in freed_src:
                inj_occ[s] = FREE
                wheel.wake(s)

        # -- arbitration (identical RNG stream to the reference) --------
        grants: List[tuple] = []
        if header_requests:
            L = len(header_requests)
            order = sim.rng.permutation(L)
            tlist, in_multi = self._req_lists
            if L < _VEC_ARB_MIN or (
                (in_multi or inj_multi) and not sim._occ_write
            ):
                # small request sets: the sequential claim loop beats
                # the fixed numpy cost of the hybrid path (same RNG
                # stream either way).  Multi-candidate requests under
                # the least-congested policy also replay sequentially:
                # its selection reads occupancy mid-arbitration, so the
                # reference's set-based claim bookkeeping must be
                # reproduced exactly.
                self._arbitrate_sequential(header_requests, order.tolist(), grants)
            else:
                in_targets = self._req_arrays
                if in_targets is None:
                    in_targets = np.fromiter(tlist, np.int64, len(tlist))
                    self._req_arrays = in_targets
                self._arbitrate_hybrid(
                    header_requests, order, in_targets, inj_targets, grants
                )

        # -- phase 3: scalar grant commits ------------------------------
        hdr_latency = sim._hdr_latency
        if grants:
            sim._req_cache = None
            self._req_arrays = None
            sim._req_dirty_until = clock + hdr_latency
        consume_occ = sim.consume_occ
        for w, origin, target in grants:
            w.hdr_req = None
            if origin == -2:  # consumption port acquired; consume header
                consume_occ[target] = w.pid
                w.consuming = True
                w.t_head_arrival = clock
                head = w.chain[0]
                f[head] -= 1
                dn[head] = SINK0 + target
                cap_dn[head] = cap_sink
                if f[head] == 0:
                    drain_cand.append(head)
                if rec:
                    stats.consumed_flits[target] += 1
                if tracer is not None:
                    tracer.record(clock, "consume", w.pid, w.src, w.dst)
            elif origin == -1:  # injection: header enters first channel
                occ[target] = w.pid
                occ_vec[target] = w.pid
                sim.injection_occ[w.src] = w.pid
                sim.queues[w.src].popleft()
                sim.active.append(w)
                # hand-queued worms (test harnesses append straight to
                # sim.queues) bypass _generate_packets' registration;
                # the drain phase resolves pids through this dict
                sim.worms[w.pid] = w
                w.t_inject = clock
                w.chain = [target]
                w.chain_flits = [1]
                fas = w.flits_at_source - 1
                w.flits_at_source = fas
                w.hops = 1
                w.head_ready_at = clock + hdr_latency
                f[target] = 1
                dn[target] = D
                cap_dn[target] = 0
                if rec:
                    stats.injected_flits[w.src] += 1
                    stats.channel_flits[target] += 1
                if tracer is not None:
                    tracer.record(clock, "inject", w.pid, w.src, w.dst, target)
                if fas:
                    f[SRC0 + w.src] = fas
                    dn[SRC0 + w.src] = target
                    cap_dn[SRC0 + w.src] = cap_p
                else:
                    sim.injection_occ[w.src] = FREE
                    wheel.wake(w.src)
            else:  # in-network hop
                occ[target] = w.pid
                occ_vec[target] = w.pid
                head = w.chain[0]
                w.chain.insert(0, target)
                f[target] = 1
                f[head] -= 1
                dn[head] = target
                dn[target] = D
                cap_dn[head] = cap_p
                cap_dn[target] = 0
                w.hops += 1
                w.head_ready_at = clock + hdr_latency
                if f[head] == 0:
                    drain_cand.append(head)
                if rec:
                    stats.channel_flits[target] += 1
                if tracer is not None:
                    tracer.record(clock, "hop", w.pid, w.src, w.dst, target)

        # -- phase 4: tail releases and completions ---------------------
        # Only a channel count hitting zero can newly satisfy the
        # release condition (flits_at_source is drained strictly before
        # a tail can empty), so drain_cand covers every eligible worm.
        finished: List = []
        if drain_cand:
            worms = sim.worms
            inj_occ = sim.injection_occ
            seen: set = set()
            for c in drain_cand:
                pid = occ[c]
                if pid == FREE or pid in seen:
                    continue
                seen.add(pid)
                w = worms[pid]
                if inj_occ[w.src] == w.pid and f[SRC0 + w.src] > 0:
                    continue  # still feeding: nothing can release yet
                chain = w.chain
                while (
                    chain
                    and f[chain[-1]] == 0
                    and not (len(chain) == 1 and not w.consuming)
                ):
                    cid = chain.pop()
                    occ[cid] = FREE
                    occ_vec[cid] = FREE
                if w.consuming and not chain:
                    w.t_done = clock
                    w.consumed = w.length
                    w.chain_flits = []
                    w.flits_at_source = 0
                    w.quiet = True  # retire: evicts any stale live entry
                    consume_occ[w.dst] = FREE
                    finished.append(w)
        if finished:
            active = sim.active
            done_ids = {w.pid for w in finished}
            if len(finished) > 1:
                # completion *emission* must follow active order (the
                # latency tuples are order-sensitive in the digest)
                finished = [w for w in active if w.pid in done_ids]
            for w in finished:
                if w.corrupted:
                    stats.on_corrupted()
                    if sim.faults is not None:
                        sim.faults.on_packet_failure(sim, w)
                else:
                    stats.on_delivered(
                        latency=w.t_done - w.t_gen,
                        header_latency=(w.t_head_arrival or clock) - w.t_gen,
                        hops=w.hops,
                    )
                if tracer is not None:
                    tracer.record(clock, "done", w.pid, w.src, w.dst)
            sim.active = [w for w in active if w.pid not in done_ids]
            for w in finished:
                sim.worms.pop(w.pid, None)

        if sim._check_invariants:
            self.sync()
        return n_moves > 0 or bool(grants)

    # ------------------------------------------------------------------
    # arbitration helpers
    # ------------------------------------------------------------------
    def _arbitrate_hybrid(
        self, reqs, order, in_targets, inj_targets, grants
    ) -> None:
        """Pre-filtered grant resolution for large request sets.

        Most requests in a congested network are *not grantable*: their
        one candidate channel is held.  Those never claim a resource
        and never draw selection RNG, so dropping them cannot change
        any outcome — numpy filters them out in bulk (``targets`` holds
        each request's singleton candidate, -1 for consume requests,
        -2 for multi-candidate ones), and a scalar claim loop in
        permutation order over the survivors (free-channel requesters,
        consume requesters, multi-candidate requesters) replays the
        reference's sequential claims exactly, selection-RNG draws
        included.  Grants are emitted in permutation order, so the
        commit's side effects (tracer event order included) match the
        reference byte for byte.  Requires a selection policy that does
        not read occupancy mid-arbitration when multi-candidate
        requests are present (the caller routes least-congested + multi
        to the sequential set-based loop instead).
        """
        sim = self.sim
        L = len(reqs)
        pos = np.empty(L, dtype=np.int64)
        pos[order] = np.arange(L)
        if inj_targets:
            targets = np.concatenate(
                (in_targets,
                 np.fromiter(inj_targets, np.int64, len(inj_targets)))
            )
        else:
            targets = in_targets
        ch_idx = (targets >= 0).nonzero()[0]
        free = self.state.occ[targets[ch_idx]] == FREE
        cand = ch_idx[free]
        other = (targets < 0).nonzero()[0]  # consume + multi requests
        if other.size:
            cand = np.concatenate((cand, other))
        if not cand.size:
            return
        # claim in permutation order: duplicates for the same channel /
        # consume port lose to the earlier claimant, as in the reference
        occ = sim.channel_occ
        consume_occ = sim.consume_occ
        grants_append = grants.append
        for i in cand[np.argsort(pos[cand])].tolist():
            w, origin, cands = reqs[i]
            if origin is None:
                dst = w.dst
                if consume_occ[dst] == FREE:
                    consume_occ[dst] = w.pid
                    grants_append((w, -2, dst))
            elif cands.__class__ is int:
                if occ[cands] == FREE:
                    occ[cands] = w.pid
                    grants_append((w, origin, cands))
            else:
                avail = [c for c in cands if occ[c] == FREE]
                if not avail:
                    continue
                pick = avail[0] if len(avail) == 1 else sim._select(avail)
                occ[pick] = w.pid
                grants_append((w, origin, pick))

    def _arbitrate_sequential(self, reqs, order, grants) -> None:
        """Reference claim loop, verbatim (multi-candidate requests).

        Identical to the fast path's arbitration including its
        occupancy-write claiming (and the set-based branch the
        least-congested policy needs) so every selection-policy RNG
        draw lands in the same place as the reference's.
        """
        sim = self.sim
        occ = sim.channel_occ
        consume_occ = sim.consume_occ
        grants_append = grants.append
        if sim._occ_write:
            for req in map(reqs.__getitem__, order):
                w, origin, cands = req
                if origin is None:
                    dst = w.dst
                    if consume_occ[dst] == FREE:
                        consume_occ[dst] = w.pid
                        grants_append((w, -2, dst))
                    continue
                if cands.__class__ is int:
                    if occ[cands] == FREE:
                        occ[cands] = w.pid
                        grants_append((w, origin, cands))
                    continue
                avail = [c for c in cands if occ[c] == FREE]
                if not avail:
                    continue
                pick = avail[0] if len(avail) == 1 else sim._select(avail)
                occ[pick] = w.pid
                grants_append((w, origin, pick))
        else:
            granted_channels: set = set()
            granted_consume: set = set()
            for req in map(reqs.__getitem__, order):
                w, origin, cands = req
                if origin is None:
                    dst = w.dst
                    if dst not in granted_consume and consume_occ[dst] == FREE:
                        granted_consume.add(dst)
                        grants_append((w, -2, dst))
                    continue
                if cands.__class__ is int:
                    cands = (cands,)
                avail = [
                    c
                    for c in cands
                    if occ[c] == FREE and c not in granted_channels
                ]
                if not avail:
                    continue
                pick = avail[0] if len(avail) == 1 else sim._select(avail)
                granted_channels.add(pick)
                grants_append((w, origin, pick))
