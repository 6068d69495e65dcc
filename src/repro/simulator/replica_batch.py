"""The batch engine's clock loop: R >= 1 seed-replicas in one stacked sweep.

Everything that consumes the batch engine — the statistical equivalence
gate (seed-paired A/B runs), campaign sweeps, the Figure-8 replication —
runs *many independent replicas of the same scenario*, differing only in
seed.  Run one by one, each replica pays the per-clock Python/numpy
dispatch overhead (the fixed cost of the body sweep, the request
extraction, the clock-loop bookkeeping) all over again; at small-network
scale that fixed cost dominates the actual event work.

:class:`ReplicaBatchCore` is the one clock loop of ``engine="batch"``.
It stacks R batch simulators (*rows*) into shared ``(R, K)`` state
arrays and drives them with one fused loop.  A plain batch simulator is
its one-row case: :meth:`WormholeSimulator.step` builds a one-row driver
on first use, so sequential and stacked runs execute the same code.

* **Stacked state, shared views.**  :func:`repro.simulator.vec_state.stack_states`
  re-homes each row's ``flits``/``dn``/``cap_at``/``cap_dn`` into
  C-contiguous ``(R, K)`` stacks and rebinds the per-row
  :class:`~repro.simulator.vec_state.ArrayState` attributes to *row
  views*; each core's ``_ready_at`` request array is stacked the same
  way.  All scalar code paths (grant commits, drains, injections) keep
  mutating their own row through the existing methods, while the driver
  sweeps every row at once through the flat ``.reshape(-1)`` aliases.
* **One fused body phase per clock.**  A single active set holds
  *global* slot ids (``r * K + k``), and ``dn`` stores global ids too,
  so one gather/compare/scatter advances every row's flits with no
  offset arithmetic — at R=1 it is the plain single-array sweep.  Zero
  hits are split back per row in an event-proportional Python loop.
* **One fused request extraction per clock.**  Due requests come from a
  single ``nonzero`` over the flat stacked ``ready_at``, partitioned
  per row (a Python walk when the set is small, ``searchsorted`` over
  the row boundaries when not); each busy row's arbitration/commit/drain
  phase (:meth:`~repro.simulator.batch_engine.BatchCore._resolve_phase`)
  consumes its own slice in ascending slot order.
* **One merged traffic schedule.**  The per-row precomputed arrival
  lists are merged into one global ``(clock, row, source)`` event list
  walked by a single pointer; per-row fire order is preserved.
* **Early-drain masking.**  A row with no due requests, no drains, no
  freed ports and no multi-candidate fallbacks this clock is skipped
  entirely — a drained row stops costing resolve work (the
  :attr:`ReplicaBatchCore.resolve_calls` counter makes the skipping
  observable).
* **Live faults, tracers and external mutation, per row.**  Each clock
  starts with every row's own sequential prologue, in order: its fault
  runtime's ``on_clock``, then the atomic rebuild of a dirty row
  (re-seeding only that row's active-set slots), then the decision-epoch
  refresh.  Traffic firing checks the row's dead switches, tracers
  record through the row's own simulator, invariant checks are read
  live every clock, and each row's reconfiguration records reach its
  finalized stats.

**Determinism contract (packing invariance).**  Row *r* of a stacked
run produces results *identical* to the same simulator run alone (a
one-row stack): rows share no RNG streams (each core derives its own
from its config seed via the counter-hash scheme), the fused sweeps
compute the same per-row values the one-row loop does, and per-row
event ordering (fault events, arbitration requests, traffic firing,
drains) is preserved by construction.  The test suite asserts this per
seed across the traffic matrix and under live faults; golden pins of
one-row results (``tests/test_batch_golden.py``) anchor the loop
itself.
"""

from __future__ import annotations

import weakref
from typing import List, Optional, Sequence

import numpy as np

from repro.simulator.config import SimulationConfig
from repro.simulator.engine import (
    DeadlockDetected,
    LivelockSuspected,
    WormholeSimulator,
)
from repro.simulator.stats import SimulationStats
from repro.simulator.vec_state import stack_states
from repro.util.rng import derive_seed

__all__ = [
    "ReplicaBatchCore",
    "replica_seed",
    "replica_seeds",
    "run_replicated",
]

#: stream-derivation key for replica seeds: replica r > 0 of base seed s
#: runs with ``derive_seed(s, _REPLICA_KEY, r)``; replica 0 runs s itself
_REPLICA_KEY = 0x5EED_0F0F

#: request-set size up to which the per-row partition runs as a plain
#: Python walk instead of a searchsorted over row boundaries
_SMALL_PART = 48

#: moving clocks of deferred per-row move accounting between flushes
_MOVE_CHUNKS = 256

#: shared empty request list — ``_resolve_phase`` only reads *reqs*, so
#: rows resolving for drains/multi alone can all share this one
_EMPTY_REQS: List[int] = []


def replica_seed(base: Optional[int], index: int) -> Optional[int]:
    """The seed of replica *index* for a base seed.

    Replica 0 keeps the base seed itself (so a replicated run subsumes
    the plain run); replica ``index > 0`` derives an independent stream
    seed from it.  ``None`` stays ``None`` — every replica of an
    unseeded run draws its own OS entropy, reproducible by nobody.
    """
    if index < 0:
        raise ValueError("replica index must be >= 0")
    if base is None or index == 0:
        return base
    return derive_seed(base, _REPLICA_KEY, index)


def replica_seeds(
    config: SimulationConfig, replicas: Optional[int] = None
) -> List[Optional[int]]:
    """The seed of each replica of *config* (see :func:`replica_seed`)."""
    n = replicas if replicas is not None else (config.replicas or 1)
    if n < 1:
        raise ValueError("need at least one replica")
    return [replica_seed(config.seed, r) for r in range(n)]


class ReplicaBatchCore:
    """The clock loop over R >= 1 stacked ``engine="batch"`` simulators.

    Build the simulators first (same routing, same scenario config,
    per-replica seeds, fault runtimes and tracers as wanted), then hand
    them over; construction re-homes their state into the stacked
    arrays, after which only the stack may be driven.  :meth:`run`
    drives warmup + measurement for all rows and returns the per-row
    :class:`~repro.simulator.stats.SimulationStats` in row order.
    """

    def __init__(self, sims: Sequence[WormholeSimulator]) -> None:
        if not sims:
            raise ValueError("need at least one simulator")
        for sim in sims:
            if sim.engine_name != "batch":
                raise ValueError(
                    "replica batching requires engine='batch' simulators "
                    f"(got {sim.engine_name!r})"
                )
            if sim.clock != 0 or sim._vec._driver is not None:
                raise ValueError("replica packing requires fresh simulators")
        scenario = sims[0].config.with_seed(None)
        for sim in sims[1:]:
            if sim.config.with_seed(None) != scenario:
                raise ValueError(
                    "replicas must share one scenario config (seeds may differ)"
                )
        #: the stacked simulators, kept alive by the driver.  A one-row
        #: driver (:meth:`_one_row`) is owned by its simulator instead
        #: and leaves this empty — each row is reached through its
        #: core's weak reference, so neither side forms a cycle
        self.sims: List[WormholeSimulator] = list(sims)
        self._bind(self.sims)

    @classmethod
    def _one_row(cls, sim: WormholeSimulator) -> "ReplicaBatchCore":
        """The one-row driver a plain batch simulator steps itself with.

        Built without :meth:`__init__`: *sim* owns the result, so the
        driver keeps ``sims`` empty rather than referencing its owner,
        and a lone simulator's construction stays one construction.
        """
        self = cls.__new__(cls)
        self.sims = []
        self._bind([sim])
        return self

    def _bind(self, sims: Sequence[WormholeSimulator]) -> None:
        cores = [sim._vec for sim in sims]
        self.cores = cores
        R = len(cores)
        self.R = R
        st0 = cores[0].state
        K = st0.K
        if any(c.state.K != K for c in cores):
            raise ValueError("replicas must share the topology geometry")
        self.K = K
        self.SRC0 = st0.SRC0
        cfg = sims[0].config

        # -- stacked state ------------------------------------------------
        flits, dn, _cap_at, cap_dn = stack_states([c.state for c in cores])
        #: flat aliases over the stacks (views: np.stack is C-contiguous)
        self._f_flat = flits.reshape(-1)
        self._dn_flat = dn.reshape(-1)
        self._cd_flat = cap_dn.reshape(-1)
        W = cores[0]._ready_at.size  # request width: C + n
        ready = np.stack([c._ready_at for c in cores])
        for r, core in enumerate(cores):
            core._ready_at = ready[r]
        self._ready_flat = ready.reshape(-1)
        self.W = W
        #: per-row slice boundaries in flat request space
        self._req_bounds = np.arange(1, R, dtype=np.int64) * W
        self._req_off = [r * W for r in range(R)]

        # -- global body active set (global slot ids r*K + k); grant
        # commits append to _gact_add, drains request a compaction
        self._gact_add: List[int] = []
        self._gact_filter = False
        ref = weakref.ref(self)
        for core in cores:
            core._driver = ref
            core._gact_add = self._gact_add
        self._gact = np.concatenate(
            [c.state.base + (c.state.flits[: c.state.SINK0] > 0).nonzero()[0]
             for c in cores]
        )

        #: per-row hot-loop tuples: core, weak simulator reference,
        #: decision cache (read every clock for dirty/epoch changes) and
        #: the injection wheel's timer heap, pending set and scanner (all
        #: stable objects, mutated in place, never reassigned)
        self._rows = [
            (core, core._sim, sim.decision_cache, sim._wheel._timers,
             sim._wheel, sim._wheel.pending, core._scan_injections)
            for sim, core in zip(sims, cores)
        ]
        #: row stats collectors (no back-reference to the simulator)
        self._stats = [sim.stats for sim in sims]
        #: per-row zero hits of the body phase (drained channels, freed
        #: source ports) and due request slots, filled and consumed
        #: within each clock
        self._drains: List[List[int]] = [[] for _ in range(R)]
        self._freed: List[List[int]] = [[] for _ in range(R)]
        self._reqs: List[Optional[Sequence[int]]] = [None] * R

        # -- merged traffic: one (clock, row, source) event list ----------
        self._fires = [core._fire_arrival for core in cores]
        self._mg_clks: List[int] = []
        self._mg_reps: List[int] = []
        self._mg_srcs: List[int] = []
        self._mg_ptr = 0
        self._merge_traffic()

        self._clock = sims[0].clock
        #: deferred move accounting while the stats window is open:
        #: clocks since the last flush and the movers' global slot ids,
        #: chunked per clock and counted by row in batches (see
        #: `_flush_moved`)
        self._rec_clocks = 0
        self._mv_chunks: List[np.ndarray] = []
        #: fused body plan cache — ``dn``/``cap_dn`` mutate only inside
        #: resolve calls and rebuilds, so the gathered downstream ids and
        #: capacities stay valid until the next grant or set change
        self._plan_dirty = True
        self._dng = np.empty(0, dtype=np.int64)
        self._cdg = np.empty(0, dtype=np.int64)
        self._last_progress = [sim._last_progress for sim in sims]
        self._need_progress = cfg.max_stall_clocks is not None
        self._deadlock_interval = cfg.deadlock_interval
        #: total `_resolve_phase` invocations across rows — the
        #: early-drain mask makes quiet rows skip resolve entirely, so
        #: tests can assert this stays below R * clocks
        self.resolve_calls = 0

    # ------------------------------------------------------------------
    def _merge_traffic(self) -> None:
        """(Re)merge every row's unfired arrivals into one list.

        Consumes the per-core schedules (they are emptied afterwards, so
        a later horizon extension contributes only newly drawn events)
        and the unfired tail of the previous merge.  Sorting by
        ``(clock, row, source)`` reproduces each row's fire order; a
        lone non-empty schedule is already in that order.
        """
        ptr = self._mg_ptr
        parts = []
        if ptr < len(self._mg_clks):
            parts.append(
                (self._mg_clks[ptr:], self._mg_reps[ptr:], self._mg_srcs[ptr:])
            )
        for r, core in enumerate(self.cores):
            gp = core._gen_ptr
            if gp < len(core._gen_clks):
                clks, srcs = core._gen_clks, core._gen_srcs
                if gp:
                    clks, srcs = clks[gp:], srcs[gp:]
                parts.append((clks, [r] * len(clks), srcs))
            core._gen_clks = []
            core._gen_srcs = []
            core._gen_ptr = 0
        if len(parts) > 1:
            clks, reps, srcs = (
                np.concatenate([np.asarray(p[i], dtype=np.int64) for p in parts])
                for i in range(3)
            )
            order = np.lexsort((srcs, reps, clks))
            parts = [(
                clks[order].tolist(), reps[order].tolist(), srcs[order].tolist()
            )]
        self._mg_clks, self._mg_reps, self._mg_srcs = (
            parts[0] if parts else ([], [], [])
        )
        self._mg_ptr = 0
        self._mg_horizon = min(core._gen_horizon for core in self.cores)

    def _extend_merged(self, clock: int) -> None:
        """Grow every row's schedule past *clock* and re-merge.

        Stepping past the configured run length (manual driving) grows
        the horizon geometrically, so repeated stepping stays amortized.
        """
        for core in self.cores:
            if clock > core._gen_horizon:
                core._extend_traffic(max(clock + 4096, core._gen_horizon * 2))
        self._merge_traffic()

    def _reseed_row(self, core) -> None:
        """Replace one row's active-set slots after its array rebuild.

        The rebuild rewrote the row's flit counts wholesale: drop every
        slot of that row (pending appends included) and append its live
        slots in ascending order, as a fresh active set would hold them.
        Other rows keep their slots and relative order.
        """
        gact = self._gact
        if self._gact_add:
            gact = np.concatenate(
                (gact, np.asarray(self._gact_add, dtype=np.int64))
            )
            self._gact_add.clear()
        st = core.state
        lo = st.base
        keep = (gact < lo) | (gact >= lo + self.K)
        live = lo + (st.flits[: st.SINK0] > 0).nonzero()[0]
        self._gact = np.concatenate((gact[keep], live))
        self._plan_dirty = True

    # ------------------------------------------------------------------
    def _step(self) -> None:  # noqa: C901 - hot loop, kept flat
        """One fused clock across all rows (each row's ``step()``)."""
        clock = self._clock
        f_flat = self._f_flat

        # -- prologue, per row: faults, dirty rebuild, epoch refresh;
        # then the injection wheel (it must run before extraction, as
        # its scans arm same-clock requests in ``_ready_at``; the body
        # phase reads none of the state it touches)
        sims = []
        for core, ref, cache, timers, wheel, pending, scan in self._rows:
            sim = ref()
            sims.append(sim)
            if sim.faults is not None:
                sim.faults.on_clock(sim)
            if core._dirty or cache.epoch != core._cand_epoch:
                core._prepare_clock()
            if timers and timers[0][0] <= clock:
                wheel.advance(clock)
            if pending:
                scan(pending, clock)

        # -- fused body moves across all rows ----------------------------
        gact = self._gact
        if self._gact_add or self._gact_filter:
            self._plan_dirty = True
            if self._gact_add:
                gact = np.concatenate(
                    (gact, np.asarray(self._gact_add, dtype=np.int64))
                )
                self._gact_add.clear()
            if self._gact_filter:
                gact = gact[f_flat[gact] > 0]
                self._gact_filter = False
            self._gact = gact
        recording = self._stats[0].active
        if recording:
            self._rec_clocks += 1
        drains = self._drains
        freed = self._freed
        moved = None
        if gact.size:
            if self._plan_dirty:
                dng = self._dng = self._dn_flat[gact]
                self._cdg = self._cd_flat[gact]
                self._plan_dirty = False
            else:
                dng = self._dng
            room = f_flat[dng] < self._cdg
            movers = gact[room]
            if movers.size:
                f_flat[movers] -= 1
                f_flat[dng[room]] += 1  # targets unique (vec_state docstring)
                K = self.K
                if self._need_progress:
                    moved = np.bincount(movers // K, minlength=self.R)
                if recording:
                    self._mv_chunks.append(movers)
                    if len(self._mv_chunks) >= _MOVE_CHUNKS:
                        self._flush_moved()
                # zero detection reads f *after* the incoming adds: a
                # channel that both sent and received this clock holds
                # one flit and must not surface as a drain candidate
                SRC0 = self.SRC0
                for g in movers[f_flat[movers] == 0].tolist():
                    r, k = divmod(g, K)
                    if k >= SRC0:
                        freed[r].append(k - SRC0)
                    else:
                        drains[r].append(k)

        # -- one fused request extraction, per-row partition -------------
        idx = (self._ready_flat <= clock).nonzero()[0]
        reqs_of = self._reqs
        if idx.size:
            W = self.W
            r = int(idx[0]) // W
            if r == int(idx[-1]) // W:
                # one row has all of it (always so at R=1)
                reqs_of[r] = idx - r * W if r else idx
            elif idx.size <= _SMALL_PART:
                for g in idx.tolist():
                    r, h = divmod(g, W)
                    lst = reqs_of[r]
                    if lst is None:
                        reqs_of[r] = [h]
                    else:
                        lst.append(h)
            else:
                cuts = np.searchsorted(idx, self._req_bounds)
                prev = 0
                offs = self._req_off
                for r, cut in enumerate([*cuts.tolist(), idx.size]):
                    if cut > prev:
                        part = idx[prev:cut]
                        reqs_of[r] = part - offs[r] if r else part
                    prev = cut

        # -- per-row arbitration / commits / drains ----------------------
        progress = self._last_progress
        for r, core in enumerate(self.cores):
            reqs = reqs_of[r]
            drain_cand = drains[r]
            freed_src = freed[r]
            if reqs is None:
                if not (drain_cand or freed_src or core._multi_due(clock)):
                    # early-drain mask: nothing due, nothing draining
                    continue
                reqs = _EMPTY_REQS
            else:
                reqs_of[r] = None
            self.resolve_calls += 1
            if core._resolve_phase(clock, drain_cand, freed_src, reqs):
                # grant commits rewrite dn/cap_dn of live slots (the
                # advancing head's among them): the body plan is stale
                self._plan_dirty = True
                progress[r] = clock
            if drain_cand or freed_src:
                # slots may have emptied: compact the set next clock
                self._gact_filter = True
                drain_cand.clear()
                freed_src.clear()

        # -- watchdogs ----------------------------------------------------
        interval = self._deadlock_interval
        if interval and clock % interval == interval - 1:
            for sim in sims:
                dead = sim.find_deadlocked_worms()
                if dead:
                    raise DeadlockDetected(sim._deadlock_report(dead))
        if self._need_progress:
            progress = self._last_progress
            if moved is not None:
                for r in moved.nonzero()[0].tolist():
                    progress[r] = clock
            stall = sims[0]._max_stall
            for r, sim in enumerate(sims):
                if clock - progress[r] >= stall and (
                    sim.active or any(sim.queues)
                ):
                    sim._last_progress = progress[r]
                    raise LivelockSuspected(sim._stall_report(stall))

        # -- merged traffic: fire due arrivals in (row, src) order -------
        if clock > self._mg_horizon:
            self._extend_merged(clock)
        clks = self._mg_clks
        ptr = self._mg_ptr
        if ptr < len(clks) and clks[ptr] <= clock:
            reps = self._mg_reps
            srcs = self._mg_srcs
            fires = self._fires
            while ptr < len(clks) and clks[ptr] <= clock:
                fires[reps[ptr]](srcs[ptr], clock)
                ptr += 1
            self._mg_ptr = ptr

        # -- invariant checks (read live: tests toggle them mid-run) -----
        clock += 1
        for sim in sims:
            if sim._check_invariants:
                sim._vec.sync()
                for w in sim.active:
                    w.check_invariant()
            sim.clock = clock
        self._clock = clock

    def _flush_moved(self) -> None:
        """Fold the deferred move accounting into each row's stats."""
        n = self._rec_clocks
        if not n:
            return
        R, K = self.R, self.K
        ids = np.concatenate(self._mv_chunks or [np.empty(0, np.int64)])
        self._mv_chunks.clear()
        # a slot histogram summed per row: cheaper than dividing every id
        per_row = np.bincount(ids, minlength=R * K).reshape(R, K).sum(axis=1)
        for stats, moved in zip(self._stats, per_row.tolist()):
            stats.vec_moved_flits += moved
            stats.vec_clocks += n
        self._rec_clocks = 0

    # ------------------------------------------------------------------
    def run(self) -> List[SimulationStats]:
        """Warmup + measurement for all rows; per-row stats."""
        return self._run()

    def _run(self) -> List[SimulationStats]:
        sims = [core.sim for core in self.cores]
        cfg = sims[0].config
        step = self._step
        for _ in range(cfg.warmup_clocks):
            step()
        for stats in self._stats:
            stats.active = True
        if any(stats.timeline_interval > 0 for stats in self._stats):
            for _ in range(cfg.measure_clocks):
                step()
                for stats in self._stats:
                    stats.window_clocks += 1
                    if stats.timeline_interval > 0:
                        stats.on_tick()
        else:
            for _ in range(cfg.measure_clocks):
                step()
            for stats in self._stats:
                stats.window_clocks += cfg.measure_clocks
        self._flush_moved()
        return [
            sim.stats.finalize(
                queue_backlog=sum(len(q) for q in sim.queues),
                reconfigurations=(
                    sim.faults.records if sim.faults is not None else ()
                ),
            )
            for sim in sims
        ]


def run_replicated(
    routing,
    config: SimulationConfig,
    seeds: Optional[Sequence[Optional[int]]] = None,
    traffic=None,
) -> List[SimulationStats]:
    """Run R seed-replicas of one scenario through the fused driver.

    *seeds* defaults to :func:`replica_seeds` of *config* (so
    ``SimulationConfig(replicas=R)`` is the usual entry point); an
    explicit sequence runs exactly those seeds, in order.  Returns one
    :class:`~repro.simulator.stats.SimulationStats` per seed — each
    identical (by ``statistical_fingerprint``) to a sequential
    ``engine="batch"`` run of that seed.

    *traffic*, when given, must be stateless across calls (the built-in
    patterns are): the single instance is shared by every replica.
    """
    if seeds is None:
        seeds = replica_seeds(config)
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one replica seed")
    base = config.with_engine("batch")
    sims = [
        WormholeSimulator(routing, base.with_seed(s), traffic=traffic)
        for s in seeds
    ]
    return ReplicaBatchCore(sims).run()
