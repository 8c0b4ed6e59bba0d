"""The seven-stage out-of-order cycle loop.

Trace-driven: the functional interpreter supplies the correct-path
dynamic µ-op stream (the paper injects Spike's stream the same way).
Stages run back-to-front each cycle — Commit, Issue/Execute, Dispatch,
Rename, Decode, Fetch — so a µ-op takes at least one cycle per stage.

Fusion responsibilities match the paper's Figure 6:

* Decode: consecutive fusion inside the decode group; fusion-predictor
  lookup for Helios; oracle pair lookup for OracleFusion.
* Allocation Queue: NCSF'd µ-ops marked (head replaced by the fused
  µ-op, tail nucleus left as a ghost carrying the NCS Tag).
* Rename: dependency discovery between catalyst and nucleii
  (Inside-NCS bits, deadlock tags, serializing/store-pair bits).
* Dispatch: tail ghosts validate the pending NCSF'd µ-op in the IQ or
  unfuse it in place.
* Execute: address-based NCSF misprediction discovery (span > cache
  access granularity) causing a flush from the tail nucleus.
* Commit: extended commit groups; UCH training through the post-commit
  decoupling queue.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import heapq
import operator
import os
import sys
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.config import FusionMode, ProcessorConfig
from repro.fusion.oracle import cached_oracle_pairs, predictive_pairs_from
from repro.fusion.taxonomy import span
from repro.fusion.window import ConsecutiveFusionWindow
from repro.isa.instructions import EXECUTION_LATENCY, OpClass
from repro.isa.trace import Trace
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.lsq import LoadBlock, LoadStoreUnit, LSQEntry
from repro.pipeline.rename import RenameUnit
from repro.pipeline.uop import FusionKind, PipeUop, make_tail_ghost
from repro.pipeline.uop_cache import CachedSlot, UopCache
from repro.predictors.branch import BranchPredictor
from repro.predictors.fp_variants import make_fusion_predictor
from repro.predictors.storeset import StoreSetPredictor
from repro.predictors.uch import UnfusedCommittedHistory
from repro.predictors.update_queue import UCHUpdateQueue

#: Scheduler-scan sort key; ``attrgetter`` keeps the comparison in C.
_seq_key = operator.attrgetter("seq")

#: ``OpClass.NOP``'s integer value (hot equality test in dispatch —
#: ``PipeUop.opclass`` is the plain-int mirror, see ``MicroOp``).
_NOP = OpClass.NOP._value_

#: ``FusionKind.NONE`` likewise (hot identity test in commit accounting).
_NO_FUSION = FusionKind.NONE


#: Latency of a full store-to-load forward (SQ read instead of cache).
STLF_LATENCY = 5

#: Commit watchdog: if the ROB head is a fused pair and nothing has
#: committed for this many cycles, assume a catalyst-carried dependence
#: cycle the rename-time deadlock tags could not see (they do not
#: propagate through memory) and unfuse the head.  Unfusing is always
#: safe — the pair re-executes as two plain µ-ops — so a spurious trip
#: merely costs one repair flush.  The threshold sits far above any
#: legitimate commit stall (a DRAM miss plus queueing is < 400 cycles).
DEADLOCK_WATCHDOG_CYCLES = 1024

#: Drain horizon: upper bound (with slack) on how far past the last
#: *committed* µ-op the fetch stage can have reached.  In flight at
#: most: fetch buffer (2 x fetch_width = 16) + AQ (140) + rename latch
#: (2 x dispatch_width = 10) + ROB (352, which bounds everything
#: renamed but not committed) < 520 µ-ops.  A trace segment extended
#: this many µ-ops past a measurement boundary therefore behaves
#: bit-identically to the full trace up to that boundary — the basis of
#: the segment-splice exactness contract (see repro.sampling.segment
#: and DESIGN §4e).
DRAIN_HORIZON = 1024

#: ``EXECUTION_LATENCY`` as a dense list indexed by ``OpClass`` value —
#: the issue loop reads it per µ-op, and list indexing beats enum-keyed
#: dict lookups there.
_EXEC_LATENCY: List[int] = [0] * (max(OpClass).value + 1)
for _cls in OpClass:
    _EXEC_LATENCY[_cls.value] = EXECUTION_LATENCY[_cls]
del _cls


#: Top-down CPI accounting buckets, in canonical report order.  Every
#: commit slot of every cycle is attributed to exactly one bucket
#: (sum(buckets) == cycles * commit_width, enforced at the end of
#: ``run()``):
#:
#: * ``base`` — slots that committed a µ-op, plus empty slots waiting
#:   on non-memory execution at the ROB head (core-bound).
#: * ``frontend`` — the backend was empty (or filling) because fetch /
#:   decode had not delivered µ-ops, including L1I-miss refills.
#: * ``rename`` — rename moved nothing while holding input (free-list
#:   or latch pressure).
#: * ``dispatch_{rob,iq,lq,sq}`` — dispatch allocated nothing because
#:   that backend structure was full (the allocation-stall view of
#:   backend pressure).
#: * ``memory`` — the ROB head (or its extended commit group) was
#:   waiting on a memory access, or fetch was refilling after a
#:   memory-order-violation flush.
#: * ``branch_flush`` — fetch was stalled on an unresolved mispredicted
#:   branch.
#: * ``fusion_repair`` — fetch was refilling after a fusion-
#:   misprediction flush (Helios's Case-5 repair path).
#: * ``drain`` — the trace is exhausted and the machine is emptying;
#:   the slack slots of the wind-down cycles.
TOPDOWN_BUCKETS = (
    "base",
    "frontend",
    "rename",
    "dispatch_rob",
    "dispatch_iq",
    "dispatch_lq",
    "dispatch_sq",
    "memory",
    "branch_flush",
    "fusion_repair",
    "drain",
)

#: Bucket charged while fetch waits out ``fetch_resume_cycle``, by the
#: reason the resume delay was imposed.
_RESUME_BUCKET = {
    "icache": "frontend",
    "order": "memory",
    "fusion": "fusion_repair",
}


@dataclass
class CoreStats:
    """Raw counters accumulated by the cycle loop."""

    cycles: int = 0
    instructions: int = 0
    uops_committed: int = 0
    # Fusion census (pairs).
    csf_memory_pairs: int = 0
    ncsf_memory_pairs: int = 0
    other_pairs: int = 0
    ncsf_distance_sum: int = 0
    dbr_pairs: int = 0
    # Fusion predictor outcome (Helios).
    fp_fusions_attempted: int = 0
    fp_fusions_correct: int = 0
    #: Oracle prediction-needing pairs captured by a committed
    #: predicted fusion (each oracle pair credited at most once) — the
    #: Table III coverage numerator.  Kept separate from
    #: ``fp_fusions_correct`` (the accuracy numerator) because the
    #: predictor may also fuse statically-visible pairs, or pair a
    #: µ-op with a different partner than the oracle's matching —
    #: which made the raw correct-fusion count exceed the eligible-pair
    #: denominator.
    fp_covered_pairs: int = 0
    fp_address_mispredictions: int = 0
    fp_legality_unfusions: int = 0
    fp_predictions_without_head: int = 0
    # Stalls (cycles in which the stage moved nothing while having input).
    fetch_stall_cycles: int = 0
    rename_stall_cycles: int = 0
    dispatch_stall_cycles: int = 0
    dispatch_stall_rob: int = 0
    dispatch_stall_iq: int = 0
    dispatch_stall_lq: int = 0
    dispatch_stall_sq: int = 0
    # Flushes.
    branch_mispredictions: int = 0
    order_violation_flushes: int = 0
    fusion_flushes: int = 0
    #: Fused pairs broken because waiting would have deadlocked on the
    #: pair's own catalyst (LSQ-detected store-pair shapes plus the
    #: commit watchdog's memory-carried dependence cycles).
    deadlock_unfusions: int = 0
    #: Top-down commit-slot attribution (bucket name -> slot count, see
    #: TOPDOWN_BUCKETS).
    cpi_buckets: Dict[str, int] = dataclasses.field(default_factory=dict)

    @property
    def ipc(self) -> float:
        if not self.cycles:
            return 0.0
        return self.instructions / self.cycles

    @property
    def fused_pairs(self) -> int:
        return self.csf_memory_pairs + self.ncsf_memory_pairs + self.other_pairs

    def to_dict(self) -> Dict[str, int]:
        """JSON-safe dict of every raw counter."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "CoreStats":
        """Inverse of :meth:`to_dict`.

        Unknown keys are ignored so a cache-schema bump (which adds
        counters) does not have to invalidate otherwise-readable
        entries; missing counters keep their dataclass defaults.
        """
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


def shared_oracle_pairs(trace: Trace, config: ProcessorConfig):
    """The unrestricted oracle memory pairing a core under ``config``
    consumes, or ``None`` in modes that never read it.

    Helios uses it as the Table III coverage denominator, OracleFusion
    fuses by it.  The pairing comes from the per-trace cache
    (:func:`repro.fusion.oracle.cached_oracle_pairs`), so every core
    built on one :class:`~repro.isa.trace.Trace` object, in either
    mode, shares a single pairing pass.
    """
    if not config.fusion_mode.non_consecutive:
        return None
    return cached_oracle_pairs(
        trace, granularity=config.cache_access_granularity,
        max_distance=config.max_fusion_distance)


class PipelineCore:
    """One simulated core bound to one dynamic trace.

    The core resolves the oracle memory pairing its mode needs by
    itself, through :func:`shared_oracle_pairs` on the caller's
    ``trace`` object, so the Helios and Oracle configurations of a
    sweep share one pairing pass per trace.  Pass ``oracle_pairs`` only
    to supply something different: pairs already computed for the same
    trace, or ``()`` to skip the Helios coverage census (the census
    never feeds back into timing).  Modes other than Helios and Oracle
    ignore the argument.
    """

    def __init__(self, trace: Trace, config: ProcessorConfig,
                 oracle_pairs: Optional[List] = None,
                 observer: Optional["PipelineObserver"] = None,
                 commit_log: Optional["CommitLog"] = None,
                 sanitizer: Optional["Sanitizer"] = None,
                 warm_state: Optional["WarmState"] = None):
        self.trace = list(trace)
        self.config = config
        mode = config.fusion_mode
        if oracle_pairs is None:
            oracle_pairs = shared_oracle_pairs(trace, config)

        # Observability: optional event trace / occupancy observer (see
        # repro.obs) and the always-cheap top-down slot accounting.
        self.observer = observer
        self._ev = observer
        #: Commit log (repro.obs.commit_log): retirement/drain/UCH
        #: record for the differential checker.  Off by default.
        self._clog = commit_log
        #: µ-arch sanitizer (repro.analysis.sanitizer), armed by an
        #: explicit instance, ``config.sanitize``, or REPRO_SANITIZE.
        self._san = sanitizer
        if self._san is None and (config.sanitize
                                  or os.environ.get("REPRO_SANITIZE")):
            from repro.analysis.sanitizer import (
                Sanitizer, sanitize_env_enabled)
            if config.sanitize or sanitize_env_enabled():
                self._san = Sanitizer()
        self._slots: Dict[str, int] = {name: 0 for name in TOPDOWN_BUCKETS}
        self._committed_this_cycle = 0
        self._commit_stall_bucket: Optional[str] = None
        self._cycle_dispatch_block: Optional[str] = None
        self._cycle_rename_block = False
        self._resume_reason: Optional[str] = None
        self._flush_cause: Optional[str] = None

        # Frontend state.
        self.fetch_index = 0
        self.fetch_buffer: deque = deque()
        self.fetch_buffer_cap = 2 * config.fetch_width
        self.fetch_resume_cycle = 0
        self.waiting_branch: Optional[PipeUop] = None
        self._stall_on_branch_seq: Optional[int] = None
        self._fetch_line: Optional[int] = None  # current L1I line

        # Queues and window structures.
        self.aq: deque = deque()
        self.rename_latch: deque = deque()
        self.rename_latch_cap = 2 * config.dispatch_width
        # IQ: awake entries are scanned oldest-first each cycle; entries
        # known not to wake before a future cycle sleep in a heap.
        self._iq_awake: List[PipeUop] = []
        self._iq_sleep: List = []
        self._iq_parked: set = set()
        self.iq_count = 0
        self.rob: deque = deque()
        self.lsu = LoadStoreUnit(config.lq_size, config.sq_size)
        self.rename_unit = RenameUnit(config)
        self.memory = MemoryHierarchy(config)
        self.branch_pred = BranchPredictor()
        self.storeset = StoreSetPredictor()
        self._lsq_entries: Dict[int, LSQEntry] = {}

        # Store drain (post-commit write into the cache).
        self._drain_free_at = 0
        self._drain_min = 0
        # Min-heap of (drained_c, seq, entry): stores draining to cache.
        self._draining: List[Tuple[int, int, LSQEntry]] = []

        # Fusion machinery.
        self.window = ConsecutiveFusionWindow.for_mode(mode)
        self.fp: Optional[FusionPredictor] = None
        self.uch_loads: Optional[UnfusedCommittedHistory] = None
        self.uch_stores: Optional[UnfusedCommittedHistory] = None
        self.uch_load_queue: Optional[UCHUpdateQueue] = None
        self.uch_store_queue: Optional[UCHUpdateQueue] = None
        if mode is FusionMode.HELIOS:
            self.fp = make_fusion_predictor(config)
            self.uch_loads = UnfusedCommittedHistory(
                entries=config.uch_load_entries,
                line_bytes=config.cache_access_granularity,
                max_distance=config.max_fusion_distance)
            self.uch_stores = UnfusedCommittedHistory(
                entries=config.uch_store_entries,
                line_bytes=config.cache_access_granularity,
                max_distance=config.max_fusion_distance)
            self.uch_load_queue = UCHUpdateQueue(
                capacity=config.uch_queue_entries,
                inserts_per_cycle=config.commit_width, drains_per_cycle=1)
            self.uch_store_queue = UCHUpdateQueue(
                capacity=config.uch_queue_entries,
                inserts_per_cycle=config.commit_width, drains_per_cycle=1)
        #: Oracle pairs needing prediction (Table III coverage
        #: denominator), plus the crediting state that charges each
        #: oracle pair at most once when a committed predicted fusion
        #: captures one of its µ-ops — possibly paired with a different
        #: partner than the oracle chose.
        self.predictive_pairs: Set[Tuple[int, int]] = set()
        self._eligible_pair_by_seq: Dict[int, Tuple[int, int]] = {}
        self._credited_pairs: Set[Tuple[int, int]] = set()
        if mode is FusionMode.HELIOS:
            self.predictive_pairs = predictive_pairs_from(oracle_pairs)
            for pair in self.predictive_pairs:
                self._eligible_pair_by_seq[pair[0]] = pair
                self._eligible_pair_by_seq[pair[1]] = pair
        self._oracle_tail_to_head: Dict[int, int] = {}
        if mode is FusionMode.ORACLE:
            self._oracle_tail_to_head = {
                p.tail_seq: p.head_seq for p in oracle_pairs}

        # Warm-start (repro.sampling): adopt functionally-warmed
        # predictor and cache state in place of the cold defaults.
        # Duck-typed — any object exposing a subset of the attribute
        # names below works; ``None`` fields keep the cold default.
        # Helios-only structures are only adopted in Helios mode so a
        # warm state recorded under one mode cannot smuggle machinery
        # into another.
        if warm_state is not None:
            for attr in ("memory", "branch_pred"):
                value = getattr(warm_state, attr, None)
                if value is not None:
                    setattr(self, attr, value)
            if mode is FusionMode.HELIOS:
                for attr in ("fp", "uch_loads", "uch_stores",
                             "uch_load_queue", "uch_store_queue"):
                    value = getattr(warm_state, attr, None)
                    if value is not None:
                        setattr(self, attr, value)

        # Optional µ-op cache preserving consecutive-fusion groupings
        # (Section IV-A's integration discussion; off by default, as in
        # the paper's evaluation).
        self.uop_cache = UopCache() if config.uop_cache_enabled else None

        # AQ index for NCSF head lookup by sequence number.  Only the
        # predictive (Helios) and oracle paths ever look a head up, so
        # other modes skip the per-µ-op insert; the removal sites pop
        # from a dict that simply stays empty.
        self._aq_by_seq: Dict[int, PipeUop] = {}
        self._track_aq = (self.fp is not None
                          or bool(self._oracle_tail_to_head))

        self.commit_counter = 0
        if warm_state is not None:
            # Continue the warmer's commit numbering so UCH entries
            # recorded during functional warming keep valid distances
            # (commit numbers are compared mod 2^7 inside the UCH).
            self.commit_counter = getattr(warm_state, "commit_counter",
                                          0) or 0
        self.now = 0
        #: Cycle of the last commit progress, for the deadlock watchdog.
        self._last_commit_cycle = 0
        self.stats = CoreStats()

        # Incremental extended-commit-group tracking (the cached list of
        # group members that had not completed when the group head first
        # reached the ROB head; see _commit_group_ready).  Invalidated
        # by any flush and by a member dispatching into the group late.
        self._cg_uop: Optional[PipeUop] = None
        self._cg_pending: List[PipeUop] = []
        self._cg_index = 0
        self._cg_tail_seq = -1

        # Interrupt handling (Section IV-B3): an interrupt may only be
        # processed once any extended commit group in flight at the ROB
        # head has finished committing.
        self.pending_interrupt = False
        self._interrupt_requested_at: Optional[int] = None
        self._commit_group_end: Optional[int] = None
        self.interrupts_taken = 0
        self.interrupt_deferral_cycles = 0

        # Per-class issue ports, indexed by OpClass value (hot path).
        quota = {
            OpClass.INT_ALU: config.alu_ports,
            OpClass.INT_MUL: config.mul_ports,
            OpClass.INT_DIV: config.div_ports,
            OpClass.FP_ALU: config.fp_ports,
            OpClass.FP_MUL: config.fp_ports,
            OpClass.FP_DIV: config.fp_ports,
            OpClass.LOAD: config.load_ports,
            OpClass.STORE: config.store_ports,
            OpClass.BRANCH: config.branch_ports,
            OpClass.JUMP: config.branch_ports,
            OpClass.FENCE: 1,
            OpClass.SYSTEM: 1,
            OpClass.NOP: config.alu_ports,
        }
        # Index explicitly by enum *value*: ``sorted(quota)`` silently
        # assumed OpClass values are dense and zero-based, which a new
        # member with a gap or offset would break without any error —
        # ports would shift onto the wrong classes.
        missing = [cls for cls in OpClass if cls not in quota]
        if missing:
            raise ValueError(
                "no port quota for OpClass member(s): %s"
                % ", ".join(cls.name for cls in missing))
        self._port_quota = [0] * (max(cls.value for cls in OpClass) + 1)
        for cls, count in quota.items():
            self._port_quota[cls.value] = count

    # ------------------------------------------------------------------ run --

    def run(self, max_cycles: Optional[int] = None,
            until_instructions: Optional[int] = None) -> CoreStats:
        """Simulate until the whole trace commits; returns the counters.

        ``until_instructions`` stops the loop at the first *cycle
        boundary* by which at least that many trace µ-ops have
        committed (the final cycle may commit a few past the threshold
        — read ``stats.instructions`` for the exact count).  The run is
        resumable: calling ``run`` again continues from the stopped
        cycle and produces exactly the state an uninterrupted run would
        have reached, which is what the sampling / segmenting layer
        (:mod:`repro.sampling`) measures deltas across.

        The cyclic garbage collector is paused for the duration: the
        simulation allocates millions of small objects whose only
        reference cycles (parked consumer <-> producer wait lists) are
        broken explicitly at wake/flush, so generational scans find
        nothing and cost double-digit percent.  The previous GC state
        is restored on exit, and one collection sweeps any stragglers.
        """
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            return self._run(max_cycles, until_instructions)
        finally:
            if gc_was_enabled:
                gc.enable()
                gc.collect()

    def checkpoint(self) -> "PipelineCore":
        """An independent deep copy of the full µ-architectural state.

        The returned core resumes from exactly this point: running the
        copy produces bit-identical counters to continuing the
        original (the round-trip property tests assert this).  The
        static trace — the ``MicroOp``/``Instruction`` objects and the
        trace list itself — and the frozen config are *shared*, not
        copied, so a checkpoint costs memory proportional to the
        in-flight window, not the trace, and identity-keyed caches
        (the fusion window's static-match memo) stay valid.

        Observers, sanitizers, and commit logs hold per-run context
        that cannot be meaningfully forked; checkpointing with one
        attached raises.
        """
        if (self.observer is not None or self._san is not None
                or self._clog is not None):
            raise ValueError(
                "checkpoint() with an observer/sanitizer/commit-log "
                "attached is not supported: per-run observation context "
                "cannot be forked")
        memo = {id(self.trace): self.trace, id(self.config): self.config}
        for mo in self.trace:
            memo[id(mo)] = mo
            memo[id(mo.inst)] = mo.inst
        # deepcopy recurses along producer->consumer wait-list chains,
        # which can run far deeper than the default interpreter limit.
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 1_000_000))
        try:
            return copy.deepcopy(self, memo)
        finally:
            sys.setrecursionlimit(old_limit)

    def _run(self, max_cycles: Optional[int] = None,
             until_instructions: Optional[int] = None) -> CoreStats:
        total_instructions = len(self.trace)
        target_instructions = total_instructions
        if until_instructions is not None:
            target_instructions = min(total_instructions,
                                      max(0, until_instructions))
        limit = max_cycles or (200 * total_instructions + 10_000)
        slots = self._slots
        config = self.config
        commit_width = config.commit_width
        stats = self.stats
        # The event-driven fast path (see _fast_forward) replicates the
        # per-cycle bookkeeping of provably-idle stretches instead of
        # simulating them.  Any per-cycle observer needs the real
        # cycles, so their presence pins the core to the slow path (as
        # does REPRO_NO_FASTFORWARD, the differential-testing escape
        # hatch).
        fast_forward = (self._ev is None and self._san is None
                        and self._clog is None
                        and not os.environ.get("REPRO_NO_FASTFORWARD"))
        observed = not fast_forward
        idle_prev = False
        snap = None
        stalls = ()
        # Containers assigned once in __init__ (never rebound by a
        # flush) are safe to hoist for the life of the run.
        draining = self._draining
        rename_latch = self.rename_latch
        aq = self.aq
        rob = self.rob
        has_fp = self.fp is not None
        uch_lq = self.uch_load_queue._queue if has_fp else None
        uch_sq = self.uch_store_queue._queue if has_fp else None
        while stats.instructions < target_instructions:
            now = self.now + 1
            self.now = now
            if now > limit:
                raise RuntimeError(
                    "simulation did not converge at cycle %d "
                    "(%d/%d instructions committed)"
                    % (self.now, stats.instructions, total_instructions))
            if idle_prev:
                # Snapshot only once a no-commit cycle has already been
                # seen: busy stretches never pay for the idle detector.
                snap = self._idle_snapshot()
                stalls = (stats.fetch_stall_cycles,
                          stats.rename_stall_cycles,
                          stats.dispatch_stall_cycles)
            else:
                snap = None
            if draining and self._drain_min <= now:
                self._drain_stores()
            # Stage-skip guards: a stage with provably no input is not
            # entered at all, but its per-cycle side effects (stall
            # bucket resets, interrupt polling) are preserved.
            if rob or self.pending_interrupt:
                self._commit()
            else:
                self._commit_stall_bucket = None
                self._committed_this_cycle = 0
            sleep = self._iq_sleep
            if self._iq_awake or (sleep and sleep[0][0] <= now):
                self._issue()
            if rename_latch:
                self._dispatch()
            else:
                self._cycle_dispatch_block = None
            if aq:
                self._rename()
            else:
                self._cycle_rename_block = False
            if self.fetch_buffer:
                self._decode()
            self._fetch()
            if has_fp and (uch_lq or uch_sq):
                self._train_uch()
            # Top-down slot attribution, inlined — committed slots
            # are ``base``, the rest go to the dominant blocker.
            committed = self._committed_this_cycle
            slots["base"] += committed
            if committed < commit_width:
                slots[self._stall_slot_bucket()] += (
                    commit_width - committed)
            if observed:
                if self._ev is not None:
                    self._sample_occupancy()
                if self._san is not None:
                    self._san.check(self)
            elif (self._committed_this_cycle == 0
                    and not self.pending_interrupt):
                if snap is not None and snap == self._idle_snapshot():
                    self._fast_forward(limit, stalls)
                idle_prev = True
            else:
                idle_prev = False
        if self._san is not None and stats.instructions >= total_instructions:
            self._san.final(self)
        stats.cycles = self.now
        stats.cpi_buckets = dict(self._slots)
        total = self.now * commit_width
        accounted = sum(self._slots.values())
        if accounted != total:
            raise RuntimeError(
                "top-down slot accounting leaked: attributed %d slots "
                "over %d cycles x %d commit slots = %d"
                % (accounted, self.now, commit_width, total))
        return stats

    # ----------------------------------------------------- event fast-forward --

    def _idle_snapshot(self) -> tuple:
        """Everything a pipeline cycle can move, as one comparable tuple.

        A cycle whose before/after snapshots are equal moved nothing:
        every stage is a deterministic function of this state plus the
        current cycle number, so subsequent cycles repeat it verbatim —
        only the per-cycle stall counters and top-down slots advance —
        until the next scheduled event (see ``_next_event_cycle``).
        The µ-arch containers are covered by their occupancies: stage
        transfers always change at least one occupancy or one of the
        listed counters (wake/park/flush churn included).
        """
        stats = self.stats
        return (
            self.fetch_index, len(self.fetch_buffer), len(self.aq),
            len(self.rename_latch), len(self.rob), self.iq_count,
            len(self._iq_awake), len(self._iq_sleep), len(self._iq_parked),
            len(self._draining), self._drain_free_at,
            stats.uops_committed,
            stats.branch_mispredictions, stats.order_violation_flushes,
            stats.fusion_flushes, stats.deadlock_unfusions,
            self.waiting_branch, self._stall_on_branch_seq,
            self.fetch_resume_cycle, self.pending_interrupt,
            None if self.uch_load_queue is None
            else len(self.uch_load_queue._queue),
            None if self.uch_store_queue is None
            else len(self.uch_store_queue._queue),
        )

    def _next_event_cycle(self) -> Optional[int]:
        """Earliest future cycle at which an idle machine can act.

        Every time comparison in the stage code is against one of these
        bounds, so an idle machine provably repeats itself on every
        cycle strictly before the minimum.  ``None`` means no event is
        scheduled — the machine would spin to the convergence limit,
        and the caller must simulate normally so it still does.
        """
        now = self.now
        event = None
        sleep = self._iq_sleep
        if sleep:
            event = sleep[0][0]
        resume = self.fetch_resume_cycle
        if now < resume and (event is None or resume < event):
            event = resume
        waiting = self.waiting_branch
        if waiting is not None and waiting.complete_c is not None:
            t = waiting.complete_c + self.config.branch_mispredict_penalty
            if t > now and (event is None or t < event):
                event = t
        rob = self.rob
        if rob:
            head = rob[0]
            t = head.complete_c
            if t is not None and t > now and (event is None or t < event):
                event = t
            t = head.tail_complete_c
            if t is not None and t > now and (event is None or t < event):
                event = t
            if head.late_producers:
                t = head.late_ready_at()
                if t is not None and t > now and (event is None or t < event):
                    event = t
            if head.tail is not None:
                # The deadlock watchdog must still fire on schedule.
                t = self._last_commit_cycle + DEADLOCK_WATCHDOG_CYCLES + 1
                if event is None or t < event:
                    event = t
                if self._cg_uop is head \
                        and self._cg_index < len(self._cg_pending):
                    t = self._cg_pending[self._cg_index].complete_c
                    if t is not None and t > now \
                            and (event is None or t < event):
                        event = t
        if self._draining:
            t = self._drain_min
            if t > now and (event is None or t < event):
                event = t
        return event

    def _fast_forward(self, limit: int, stalls_before: tuple) -> None:
        """Skip to the cycle before the next event, replicating the
        per-cycle bookkeeping the skipped idle cycles would have done.

        Only called after a cycle whose idle snapshot did not change:
        the machine will repeat that cycle — same stall counters, same
        top-down bucket — until the next scheduled event."""
        target = self._next_event_cycle()
        if target is None:
            return
        if target > limit + 1:
            target = limit + 1  # preserve the non-convergence error
        skipped = target - self.now - 1
        if skipped <= 0:
            return
        stats = self.stats
        fetch_before, rename_before, dispatch_before = stalls_before
        if stats.fetch_stall_cycles != fetch_before:
            stats.fetch_stall_cycles += skipped
        if stats.rename_stall_cycles != rename_before:
            stats.rename_stall_cycles += skipped
        if stats.dispatch_stall_cycles != dispatch_before:
            stats.dispatch_stall_cycles += skipped
            reason = self._cycle_dispatch_block
            if reason == "rob":
                stats.dispatch_stall_rob += skipped
            elif reason == "iq":
                stats.dispatch_stall_iq += skipped
            elif reason == "lq":
                stats.dispatch_stall_lq += skipped
            elif reason == "sq":
                stats.dispatch_stall_sq += skipped
        # Zero µ-ops committed in the observed cycle (a fast-forward
        # precondition), so every slot of every skipped cycle lands in
        # the observed cycle's stall bucket — whose inputs are all part
        # of the unchanged snapshot.
        self._slots[self._stall_slot_bucket()] += (
            self.config.commit_width * skipped)
        self.now += skipped

    # ------------------------------------------------------- observability --

    def _stall_slot_bucket(self) -> str:
        """Why did the commit stage leave slots empty this cycle?

        Precedence (checked after all stages of the cycle have run):
        allocation stalls on a full backend structure first (the
        top-down way of detecting backend pressure), then the commit
        stage's own recorded blocker (memory-vs-core, captured when
        the commit loop broke — no re-scan), then frontend-side
        causes, then wind-down drain.
        """
        now = self.now
        if self._cycle_dispatch_block is not None:
            return "dispatch_" + self._cycle_dispatch_block
        if self._commit_stall_bucket is not None:
            return self._commit_stall_bucket
        rob = self.rob
        if rob:
            # The ROB emptied at commit time and refilled during the
            # cycle: the new head is still executing.
            head = rob[0]
            if head.complete_c is None or head.complete_c > now:
                return "memory" if head.is_memory else "base"
            return "base"
        if self.rename_latch:
            return "frontend"  # dispatched some but backend emptied
        if self.aq:
            return "rename" if self._cycle_rename_block else "frontend"
        # Backend and queues empty: the frontend owns the bubble.
        if self.waiting_branch is not None \
                or self._stall_on_branch_seq is not None:
            return "branch_flush"
        if now < self.fetch_resume_cycle:
            return _RESUME_BUCKET.get(self._resume_reason, "frontend")
        if self.fetch_buffer:
            return "frontend"
        if self.fetch_index >= len(self.trace):
            return "drain"
        return "frontend"

    def _sample_occupancy(self) -> None:
        obs = self._ev
        obs.sample_occupancy("fetch_buffer", len(self.fetch_buffer))
        obs.sample_occupancy("aq", len(self.aq))
        obs.sample_occupancy("rename_latch", len(self.rename_latch))
        obs.sample_occupancy("iq", self.iq_count)
        obs.sample_occupancy("rob", len(self.rob))
        obs.sample_occupancy("lq", len(self.lsu.lq))
        obs.sample_occupancy("sq", len(self.lsu.sq))

    # ---------------------------------------------------------------- fetch --

    def _fetch_stall(self, reason: str) -> None:
        """One cycle in which fetch moved nothing while input remained."""
        self.stats.fetch_stall_cycles += 1
        if self._ev is not None:
            self._ev.emit(self.now, "stall", -1, "fetch:" + reason)

    def _fetch(self) -> None:
        # A stall is only a stall while there is input left to fetch;
        # wind-down cycles after the trace is exhausted are not counted.
        have_input = self.fetch_index < len(self.trace)
        if self.now < self.fetch_resume_cycle:
            if have_input:
                self._fetch_stall(self._resume_reason or "resume")
            return
        if self._stall_on_branch_seq is not None:
            # A mispredicted branch is fetched but not yet decoded.
            if have_input:
                self._fetch_stall("branch")
            return
        waiting = self.waiting_branch
        if waiting is not None:
            if waiting.squashed:
                self.waiting_branch = None
            elif waiting.complete_c is not None:
                resume = waiting.complete_c + self.config.branch_mispredict_penalty
                if self.now >= resume:
                    self.waiting_branch = None
                else:
                    if have_input:
                        self._fetch_stall("branch")
                    return
            else:
                if have_input:
                    self._fetch_stall("branch")
                return
        fetched = 0
        trace = self.trace
        trace_len = len(trace)
        line_mask = ~(self.memory.line_bytes - 1)
        fetch_width = self.config.fetch_width
        fetch_buffer = self.fetch_buffer
        fetch_buffer_cap = self.fetch_buffer_cap
        fetch_index = self.fetch_index
        ev = self._ev
        branch_pred = self.branch_pred
        while (fetched < fetch_width and fetch_index < trace_len
               and len(fetch_buffer) < fetch_buffer_cap):
            mo = trace[fetch_index]
            line = mo.pc & line_mask
            if line != self._fetch_line:
                # Crossing into a new instruction line: consult the L1I.
                stall = self.memory.fetch_line(mo.pc)
                self._fetch_line = line
                if stall:
                    self.fetch_index = fetch_index
                    self.fetch_resume_cycle = self.now + stall
                    self._resume_reason = "icache"
                    if fetched == 0:
                        # Only a stall cycle if the miss blocked the
                        # whole group — a partial fetch made progress.
                        self._fetch_stall("icache")
                    return
            fetch_buffer.append(mo)
            fetch_index += 1
            fetched += 1
            if ev is not None:
                ev.emit(self.now, "fetch", mo.seq)
            if mo.is_branch:
                # update() recomputes the pre-update prediction and
                # returns the misprediction verdict: one table walk.
                if branch_pred.update(mo.pc, mo.taken):
                    # Fetch stalls after the mispredicted branch until
                    # it resolves (correct-path trace approximation).
                    self.stats.branch_mispredictions += 1
                    self._stall_on_branch_seq = mo.seq
                    break
        self.fetch_index = fetch_index

    # ---------------------------------------------------------------- decode --

    def _admit(self, mo) -> PipeUop:
        """Create a PipeUop for one decoded µ-op (branch markers etc.)."""
        uop = PipeUop(mo)
        uop.fetch_c = self.now
        if self._ev is not None:
            self._ev.emit(self.now, "decode", mo.seq)
        if mo.is_branch and self._stall_on_branch_seq == mo.seq:
            # Attach the fetch-stall marker to the real PipeUop.
            uop.mispredicted_branch = True
            self.waiting_branch = uop
            self._stall_on_branch_seq = None
        return uop

    def _admit_single(self, uop: PipeUop) -> bool:
        """Run NCSF checks and enqueue one unfused µ-op into the AQ.

        Returns True when the µ-op was consumed as a tail nucleus
        (oracle) and nothing was appended for it.
        """
        result = None
        if uop.is_memory and not uop.mispredicted_branch:
            if self.fp is not None:
                result = self._try_helios_fusion(uop)
            elif self._oracle_tail_to_head:
                result = self._try_oracle_fusion(uop)
        if result == "consumed":
            return True  # oracle: the tail nucleus disappears
        if result is not None:
            # Helios: the tail nucleus stays in the AQ as a ghost
            # carrying its NCS Tag (Section IV-B1).
            self.aq.append(result)
            return True
        self.aq.append(uop)
        if self._track_aq:
            self._aq_by_seq[uop.seq] = uop
        return False

    def _decode(self) -> None:
        if self.uop_cache is not None and self.fetch_buffer:
            group = self.uop_cache.lookup(
                self.fetch_buffer[0].pc,
                [mo.pc for mo in self.fetch_buffer])
            if group is not None:
                self._replay_cached_group(group)
                return
        decoded = 0
        previous: Optional[PipeUop] = None
        config = self.config
        fetch_buffer = self.fetch_buffer
        aq = self.aq
        window = self.window
        now = self.now
        ev = self._ev
        track_aq = self._track_aq
        group_start_pc: Optional[int] = None
        # Cached-slot recording only matters when a µ-op cache will be
        # filled from it; the default configuration has none.
        slots = [] if self.uop_cache is not None else None
        decode_width = config.decode_width
        aq_size = config.aq_size
        match_kind = window.match_kind if window is not None else None
        while decoded < decode_width and fetch_buffer and len(aq) < aq_size:
            mo = fetch_buffer.popleft()
            decoded += 1
            if group_start_pc is None:
                group_start_pc = mo.pc
            # _admit(), inlined: one PipeUop per decoded µ-op makes the
            # call overhead itself show up in profiles.
            uop = PipeUop(mo)
            uop.fetch_c = now
            if ev is not None:
                ev.emit(now, "decode", mo.seq)
            if self._stall_on_branch_seq == mo.seq and mo.is_branch:
                # Attach the fetch-stall marker to the real PipeUop.
                uop.mispredicted_branch = True
                self.waiting_branch = uop
                self._stall_on_branch_seq = None

            # 1. Consecutive fusion inside the decode group.
            if previous is not None and match_kind is not None \
                    and previous.fusion is _NO_FUSION \
                    and not previous.is_tail_ghost \
                    and mo.seq == previous.seq + 1:
                kind = match_kind(previous.head, mo)
                if kind is not None:
                    idiom, is_memory_pair = kind
                    previous.fuse_consecutive(mo, idiom, is_memory_pair)
                    if self._ev is not None:
                        self._ev.emit(self.now, "fuse", previous.seq, "csf")
                    if slots:
                        slots[-1] = CachedSlot(
                            pcs=(previous.head.pc, mo.pc),
                            idiom=idiom, is_memory_pair=is_memory_pair)
                    previous = None  # a fused µ-op cannot fuse again
                    continue

            # NCSF'd groupings are control-flow dependent and are never
            # cached (Section IV-A): record the µ-op as a single slot.
            if slots is not None:
                slots.append(CachedSlot(pcs=(mo.pc,)))
            if track_aq and mo.is_memory and not uop.mispredicted_branch:
                # Memory µ-op in a predictive/oracle mode: the NCSF
                # admission checks apply (and may consume the µ-op).
                if self._admit_single(uop):
                    previous = None
                else:
                    previous = uop
            else:
                # _admit_single's plain path, inlined.
                aq.append(uop)
                if track_aq:
                    self._aq_by_seq[uop.seq] = uop
                previous = uop
        if self.uop_cache is not None and group_start_pc is not None:
            self.uop_cache.fill(group_start_pc, slots)

    def _replay_cached_group(self, group) -> None:
        """Deliver a cached decode group, fusions pre-applied."""
        decoded = 0
        config = self.config
        for slot in group:
            if decoded + len(slot.pcs) > config.decode_width:
                break
            if len(self.aq) >= config.aq_size:
                break
            head_mo = self.fetch_buffer.popleft()
            decoded += len(slot.pcs)
            uop = self._admit(head_mo)
            if slot.fused:
                tail_mo = self.fetch_buffer.popleft()
                uop.fuse_consecutive(tail_mo, slot.idiom,
                                     slot.is_memory_pair)
                if self._ev is not None:
                    self._ev.emit(self.now, "fuse", uop.seq, "csf")
                self.aq.append(uop)
                if self._track_aq:
                    self._aq_by_seq[uop.seq] = uop
            else:
                self._admit_single(uop)

    def _find_aq_head(self, head_seq: int, tail_mo) -> Optional[PipeUop]:
        head = self._aq_by_seq.get(head_seq)
        if head is None or head.is_fused or head.is_tail_ghost:
            return None
        if head.is_load != tail_mo.is_load or not head.is_memory:
            return None
        if head.is_store and head.head.base_reg != tail_mo.base_reg:
            # DBR store pairs would need four source registers; the
            # paper finds them negligible (0.54%) and supports only
            # SBR store pair fusion (Section IV-B).
            return None
        if head.is_load and head.head.dest is not None \
                and head.head.dest == tail_mo.dest:
            # A fused load pair writes two distinct registers; with the
            # same architectural destination the RAT would keep naming
            # the head's physical register after the tail's in-order
            # write.  Destination specifiers are decode-visible, so
            # hardware rejects the pair here too.
            return None
        return head

    def _try_helios_fusion(self, uop: PipeUop):
        """FP lookup for a decoded memory µ-op (as the tail nucleus)."""
        head_mo = uop.head
        if head_mo.is_load and head_mo.dest is not None                 and head_mo.dest == head_mo.base_reg:
            # Pointer-chase step: fusing it as a tail would serialize
            # the chase behind the head's sources (see fusion.oracle).
            return None
        prediction = self.fp.predict(uop.pc, self.branch_pred.ghr)
        if prediction is None:
            return None
        head = self._find_aq_head(uop.seq - prediction.distance, uop.head)
        if head is None:
            self.stats.fp_predictions_without_head += 1
            return None
        head.fuse_ncsf(uop.head, "load_pair" if uop.is_load else "store_pair")
        head.fp_prediction = prediction
        self.stats.fp_fusions_attempted += 1
        if self._ev is not None:
            self._ev.emit(self.now, "fuse", head.seq, "ncsf")
        ghost = make_tail_ghost(uop.head, head)
        ghost.fetch_c = self.now
        return ghost

    def _try_oracle_fusion(self, uop: PipeUop):
        head_seq = self._oracle_tail_to_head.get(uop.seq)
        if head_seq is None:
            return None
        head = self._find_aq_head(head_seq, uop.head)
        if head is None:
            return None  # head already left the AQ: fusion impossible
        head.fuse_ncsf(uop.head, "load_pair" if uop.is_load else "store_pair")
        head.validate()  # the oracle needs no validation pass
        if self._ev is not None:
            self._ev.emit(self.now, "fuse", head.seq, "oracle")
        return "consumed"

    # ---------------------------------------------------------------- rename --

    def _rename(self) -> None:
        renamed = 0
        blocked = False
        aq = self.aq
        rename_latch = self.rename_latch
        latch_cap = self.rename_latch_cap
        rename_unit = self.rename_unit
        aq_by_seq_pop = self._aq_by_seq.pop
        now = self.now
        ev = self._ev
        width = self.config.rename_width
        while renamed < width and aq:
            if len(rename_latch) >= latch_cap:
                blocked = True
                break
            uop = aq[0]

            if uop.is_tail_ghost and uop.ghost_of.fusion is not FusionKind.NCSF:
                # The head was unfused before we renamed: become a
                # regular µ-op (the NCS Tag marked us not-fused).
                uop.is_tail_ghost = False
                uop.ghost_of = None

            if uop.is_tail_ghost:
                outcome = rename_unit.rename_tail_ghost(uop)
                aq.popleft()
                aq_by_seq_pop(uop.seq, None)
                uop.rename_c = now
                if ev is not None:
                    ev.emit(now, "rename", uop.seq, "ghost")
                if outcome == "validated":
                    if uop.ghost_of.rename_c == now:
                        # Both nucleii in the same rename group: Rename
                        # fixes any RaW in place and the NCSF'd µ-op
                        # leaves Rename validated (Section IV-B2).
                        uop.ghost_of.validate()
                    else:
                        rename_latch.append(uop)  # will flip NCS Ready
                else:
                    self._unfuse_pending(uop.ghost_of, outcome)
                    # The tail nucleus now needs its own rename + entries.
                    uop.is_tail_ghost = False
                    uop.ghost_of = None
                    if not rename_unit.can_allocate(uop):
                        # Rare: re-queue at AQ head and retry next cycle.
                        aq.appendleft(uop)
                        self._aq_by_seq[uop.seq] = uop
                        blocked = True
                        break
                    rename_unit.rename(uop)
                    rename_latch.append(uop)
                renamed += 1
                continue

            if (rename_unit.free_int < uop.n_int_dests
                    or rename_unit.free_fp < uop.n_fp_dests):
                blocked = True
                break
            aq.popleft()
            aq_by_seq_pop(uop.seq, None)
            rename_unit.rename(uop)
            uop.rename_c = now
            rename_latch.append(uop)
            renamed += 1
            if ev is not None:
                ev.emit(now, "rename", uop.seq)
        self._cycle_rename_block = renamed == 0 and (
            blocked or (bool(aq) and len(rename_latch) >= latch_cap))
        if self._cycle_rename_block:
            self.stats.rename_stall_cycles += 1
            if ev is not None:
                ev.emit(now, "stall", -1, "rename")

    def _unfuse_pending(self, head: PipeUop, reason: str) -> None:
        """Cases 2-4: unfuse a pending NCSF'd µ-op in place."""
        self.stats.fp_legality_unfusions += 1
        if head.fp_prediction is not None and self.fp is not None:
            self.fp.resolve(head.fp_prediction, correct=False)
            head.fp_prediction = None
        before = head.dests
        head.unfuse(reason)
        if self._ev is not None:
            self._ev.emit(self.now, "unfuse", head.seq, reason)
        dropped = [d for d in before if d not in head.dests]
        if head.rename_c:
            self.rename_unit.release(dropped)
        entry = self._lsq_entries.get(head.seq)
        if entry is not None:
            entry.drop_tail()

    # --------------------------------------------------------------- dispatch --

    def _dispatch(self) -> None:
        dispatched = 0
        blocked_reason = None
        config = self.config
        now = self.now
        rename_latch = self.rename_latch
        rob = self.rob
        lsu = self.lsu
        ev = self._ev
        dispatch_width = config.dispatch_width
        rob_size = config.rob_size
        iq_size = config.iq_size
        awake_append = self._iq_awake.append
        lsq_entries = self._lsq_entries
        lq, lq_size = lsu.lq, lsu.lq_size
        sq, sq_size = lsu.sq, lsu.sq_size
        while dispatched < dispatch_width and rename_latch:
            uop = rename_latch[0]

            if uop.is_tail_ghost:
                # Validated tail nucleus: spend a dispatch slot setting
                # the NCS Ready bit (and fixing source names) in the
                # head's IQ entry, then vanish.
                head = uop.ghost_of
                if head.fusion is FusionKind.NCSF:
                    head.validate()
                rename_latch.popleft()
                dispatched += 1
                continue

            if len(rob) >= rob_size:
                blocked_reason = "rob"
                break
            if self.iq_count >= iq_size:
                blocked_reason = "iq"
                break
            if uop.is_load and len(lq) >= lq_size:
                blocked_reason = "lq"
                break
            if uop.is_store and len(sq) >= sq_size:
                blocked_reason = "sq"
                break

            rename_latch.popleft()
            uop.dispatch_c = now
            if ev is not None:
                ev.emit(now, "dispatch", uop.seq)
            rob.append(uop)
            if self._cg_uop is not None and uop.seq <= self._cg_tail_seq:
                # A member dispatched late into the tracked commit
                # group: the cached pending list is now incomplete.
                self._cg_uop = None
            if uop.opclass == _NOP:
                uop.complete_c = now  # NOPs need no execution
            else:
                awake_append(uop)
                self.iq_count += 1
                uop.in_iq = True
            if uop.is_memory:
                lsq_entries[uop.seq] = lsu.allocate(uop)
                if uop.is_store:
                    self.storeset.store_dispatched(uop.pc, uop.seq)
            dispatched += 1

        if dispatched == 0 and rename_latch:
            self._cycle_dispatch_block = blocked_reason
            self.stats.dispatch_stall_cycles += 1
            if blocked_reason == "rob":
                self.stats.dispatch_stall_rob += 1
            elif blocked_reason == "iq":
                self.stats.dispatch_stall_iq += 1
            elif blocked_reason == "lq":
                self.stats.dispatch_stall_lq += 1
            elif blocked_reason == "sq":
                self.stats.dispatch_stall_sq += 1
            if self._ev is not None:
                self._ev.emit(self.now, "stall", -1,
                              "dispatch:%s" % (blocked_reason or "?"))
        else:
            self._cycle_dispatch_block = None

    # ----------------------------------------------------------------- issue --

    def _issue(self) -> None:
        now = self.now
        sleep = self._iq_sleep
        awake = self._iq_awake
        heappush = heapq.heappush
        # Wake sleeping entries whose earliest-ready time has come.
        if sleep and sleep[0][0] <= now:
            heappop = heapq.heappop
            woken = []
            while sleep and sleep[0][0] <= now:
                entry = heappop(sleep)[2]
                if entry.in_iq and not entry.squashed:
                    woken.append(entry)
            if woken:
                awake.extend(woken)
                awake.sort(key=_seq_key)
        if not awake:
            return
        budget = self.config.issue_width
        ports = self._port_quota[:]
        ev = self._ev
        flush_seq: Optional[int] = None
        keep: List[PipeUop] = []
        keep_append = keep.append
        issued = 0
        for index, uop in enumerate(awake):
            if budget == 0 or (flush_seq is not None and uop.seq >= flush_seq):
                keep.extend(awake[index:])
                break
            if not uop.ncs_ready:
                keep_append(uop)  # pending NCSF'd µ-op: may not issue
                continue
            if uop.dispatch_c >= now:
                keep_append(uop)  # issue next cycle at the earliest
                continue
            producers = uop.producers
            extra_producers = uop.extra_producers
            if producers or extra_producers:
                # ready_at() + first_unissued_producer(), fused into one
                # scan: the first not-yet-issued producer is the one to
                # park on, and it surfaces during the readiness walk.
                ready = 0
                waiting = None
                for producer, reg in producers:
                    completion = producer.complete_c
                    if completion is None:
                        waiting = producer
                        break
                    if producer.tail_complete_c is not None \
                            and reg == producer.tail_dest_reg:
                        completion = producer.tail_complete_c
                    if completion > ready:
                        ready = completion
                if waiting is None and extra_producers:
                    for producer, reg in extra_producers:
                        completion = producer.complete_c
                        if completion is None:
                            waiting = producer
                            break
                        if producer.tail_complete_c is not None \
                                and reg == producer.tail_dest_reg:
                            completion = producer.tail_complete_c
                        if completion > ready:
                            ready = completion
                if waiting is not None:
                    # Some producer has not even issued: park on its
                    # wait list; we are woken exactly when it issues.
                    waiting.park(uop)
                    self._iq_parked.add(uop)
                    continue
                if ready > now:
                    # Producers' completion times are fixed at their
                    # issue, so this entry cannot wake before `ready`.
                    uop.not_before = ready
                    heappush(sleep, (ready, uop.seq, uop))
                    continue
            if ports[uop.opclass] == 0:
                keep_append(uop)
                continue
            if uop.is_memory:
                result = (self._execute_load(uop) if uop.is_load
                          else self._execute_store(uop))
                if result == "blocked":
                    # LSQ conflict: re-check shortly (replay loop).
                    heappush(sleep, (now + 2, uop.seq, uop))
                    continue
                if result != "ok":
                    flush_seq = result  # flush decided; stop issuing
                    if uop.complete_c is None:
                        # A deadlock repair unfused a *different* µ-op;
                        # this one has not executed — replay it after
                        # the flush.
                        heappush(sleep, (now + 2, uop.seq, uop))
                        continue
            else:
                uop.complete_c = now + _EXEC_LATENCY[uop.opclass]
            ports[uop.opclass] -= 1
            budget -= 1
            uop.issue_c = now
            uop.in_iq = False
            issued += 1
            if ev is not None:
                ev.emit(now, "issue", uop.seq)
                if uop.complete_c is not None:
                    ev.emit(uop.complete_c, "execute", uop.seq)
            if uop.waiters:
                self._wake_waiters(uop)
        self._iq_awake = keep
        self.iq_count -= issued
        if flush_seq is not None:
            self._flush_from(flush_seq)

    def _wake_waiters(self, producer: PipeUop) -> None:
        """Producer issued: schedule its parked consumers to re-check."""
        wake = producer.complete_c
        sleep = self._iq_sleep
        parked = self._iq_parked
        for consumer in producer.waiters:
            if not consumer.parked:
                continue  # stale entry (re-armed by a flush repair)
            consumer.parked = False
            parked.discard(consumer)
            if consumer.in_iq and not consumer.squashed:
                heapq.heappush(sleep, (wake, consumer.seq, consumer))
        producer.waiters = None

    def _check_fused_span(self, uop: PipeUop) -> bool:
        """Case 5: the pair spans more than one access-granularity region."""
        head, tail = uop.head, uop.tail
        return span(head.addr, head.size, tail.addr, tail.size) \
            <= self.config.cache_access_granularity

    def _execute_load(self, uop: PipeUop):
        if uop.fusion is FusionKind.NCSF and uop.tail is not None \
                and not self._check_fused_span(uop):
            return self._fusion_mispredict(uop)
        entry = self._lsq_entries[uop.seq]
        if self.lsu.sq:
            load_pc = uop.pc
            same_set = self.storeset.same_set
            block, store = self.lsu.check_load(
                entry, lambda store_pc: same_set(load_pc, store_pc))
        else:
            # No stores in flight: check_load trivially finds nothing.
            block, store = LoadBlock.NONE, None
        if store is not None and store.uop.seq > uop.seq and block in (
                LoadBlock.WAIT_STORE_DRAIN, LoadBlock.WAIT_STORE_DATA,
                LoadBlock.WAIT_STORE_ADDR):
            # The blocking store is in this fused pair's *catalyst*.  Its
            # drain waits on our commit, and its data or address may
            # even depend on our result, so waiting can deadlock.
            # Unfuse and flush from the tail nucleus (the same repair
            # path as an address misprediction).
            return self._fusion_mispredict(uop)
        if store is not None and len(store.subs) == 2 \
                and store.subs[1].seq > uop.seq:
            # The blocking store is a fused *pair* whose tail nucleus is
            # younger than this load — this load lives inside the pair's
            # catalyst window.  Rename-time deadlock tags cannot see
            # dependences carried through memory, so two shapes deadlock:
            #  * WAIT_STORE_DRAIN: the load partially overlaps the
            #    pair's bytes and must wait for its drain — but drains
            #    happen after the pair commits, and the pair's extended
            #    commit group includes this load.  Always circular.
            #  * WAIT_STORE_DATA where this load itself produces the
            #    tail store's data: the forward needs the very late
            #    data this load would produce.
            # Unfusing the pair breaks the cycle; flushing from the
            # tail nucleus refetches it as a plain store (the flush
            # path unfuses the surviving head).
            if block is LoadBlock.WAIT_STORE_DRAIN or (
                    block is LoadBlock.WAIT_STORE_DATA
                    and any(p is uop
                            for p, _r in store.uop.late_producers)):
                self.stats.fusion_flushes += 1
                self.stats.deadlock_unfusions += 1
                self._flush_cause = "fusion"
                return store.subs[1].seq
        if block in (LoadBlock.WAIT_STORE_DATA, LoadBlock.WAIT_STORE_DRAIN,
                     LoadBlock.WAIT_STORE_ADDR):
            return "blocked"
        entry.addr_known = True
        if block is LoadBlock.FORWARD:
            uop.complete_c = self.now + STLF_LATENCY
            if uop.tail is not None and uop.tail.is_memory:
                uop.tail_complete_c = uop.complete_c
                uop.tail_dest_reg = uop.tail.dest
            return "ok"
        if uop.tail is not None and uop.tail.is_memory:
            self._access_fused_pair(uop)
            return "ok"
        # Unfused (or non-memory-tail) load: mem_span is just the head.
        head = uop.head
        uop.complete_c = self.now + self.memory.access_latency(
            head.addr, head.size)
        return "ok"

    def _access_fused_pair(self, uop: PipeUop) -> None:
        """One wide cache access for a fused load pair.

        Within one line frame, a single access serves both destinations.
        A line-crossing pair performs two serialized accesses (the small
        AMD-style penalty, Section II-B), and — per the paper — the two
        destination registers are provided to dependents independently:
        the head's consumers do not wait for the tail's line.
        """
        head, tail = uop.head, uop.tail
        line = self.memory.line_bytes
        if head.addr // line == tail.addr // line \
                and (head.end_addr - 1) // line == (tail.end_addr - 1) // line:
            uop.complete_c = self.now + self.memory.access_latency(
                min(head.addr, tail.addr), uop.mem_span[1])
            uop.tail_complete_c = uop.complete_c
        else:
            head_latency = self.memory.access_latency(head.addr, head.size)
            tail_latency = self.memory.access_latency(tail.addr, tail.size)
            penalty = self.config.line_crossing_penalty
            uop.complete_c = self.now + head_latency
            uop.tail_complete_c = self.now + penalty + max(
                head_latency, tail_latency)
        uop.tail_dest_reg = tail.dest

    def _execute_store(self, uop: PipeUop):
        if uop.fusion is FusionKind.NCSF and uop.tail is not None \
                and not self._check_fused_span(uop):
            return self._fusion_mispredict(uop)
        entry = self._lsq_entries[uop.seq]
        entry.addr_known = True
        uop.complete_c = self.now + 1  # AGU + data capture
        victims = self.lsu.find_violations(entry)
        if victims:
            oldest = min(victims, key=lambda e: e.uop.seq)
            self.storeset.train_violation(oldest.uop.pc, uop.pc)
            self.stats.order_violation_flushes += 1
            self._flush_cause = "order"
            return oldest.uop.seq
        return "ok"

    def _fusion_mispredict(self, uop: PipeUop):
        """Case 5 repair: unfuse, flush from the tail nucleus, refetch."""
        self.stats.fp_address_mispredictions += 1
        self.stats.fusion_flushes += 1
        self._flush_cause = "fusion"
        if uop.fp_prediction is not None and self.fp is not None:
            self.fp.resolve(uop.fp_prediction, correct=False)
            uop.fp_prediction = None
        tail_seq = uop.tail.seq
        before = uop.dests
        uop.unfuse("span")
        if self._ev is not None:
            self._ev.emit(self.now, "unfuse", uop.seq, "span")
        self.rename_unit.release([d for d in before if d not in uop.dests])
        entry = self._lsq_entries.get(uop.seq)
        if entry is not None:
            entry.drop_tail()
        # The head itself still executes this cycle as a simple access.
        if uop.is_load:
            addr, size = uop.mem_span
            uop.complete_c = self.now + self.memory.access_latency(addr, size)
            entry.addr_known = True
        else:
            entry.addr_known = True
            uop.complete_c = self.now + 1
        return tail_seq

    def _unfuse_inflight(self, uop: PipeUop) -> int:
        """Unfuse a fused µ-op anywhere in flight; returns its tail seq.

        The deadlock watchdog uses this on µ-ops that are not currently
        executing (the stalled ROB head).  The head nucleus keeps any
        execution state it already has; the caller flushes from the
        returned seq so the tail nucleus refetches as a plain µ-op.
        """
        self.stats.fusion_flushes += 1
        self._flush_cause = "fusion"
        if uop.fp_prediction is not None and self.fp is not None:
            self.fp.resolve(uop.fp_prediction, correct=False)
            uop.fp_prediction = None
        tail_seq = uop.tail.seq
        before = uop.dests
        uop.unfuse("deadlock")
        if self._ev is not None:
            self._ev.emit(self.now, "unfuse", uop.seq, "deadlock")
        self.rename_unit.release([d for d in before if d not in uop.dests])
        entry = self._lsq_entries.get(uop.seq)
        if entry is not None:
            entry.drop_tail()
        # The head no longer waits on its catalyst: drop the extra
        # producers and wake it if it was parked on one of them.
        uop.extra_producers = []
        if uop.parked and uop.in_iq:
            uop.parked = False
            self._iq_parked.discard(uop)
            heapq.heappush(self._iq_sleep, (self.now + 1, uop.seq, uop))
        return tail_seq

    # ----------------------------------------------------------------- flush --

    def _flush_from(self, seq: int) -> None:
        """Squash every instruction younger than ``seq`` and refetch."""
        cause = self._flush_cause or "order"
        self._flush_cause = None
        if self._ev is not None:
            self._ev.emit(self.now, "flush", seq, cause)
        # Frontend.
        self.fetch_index = min(self.fetch_index, seq)
        self.fetch_buffer = deque(
            mo for mo in self.fetch_buffer if mo.seq < seq)
        self.fetch_resume_cycle = max(
            self.fetch_resume_cycle,
            self.now + self.config.branch_mispredict_penalty)
        self._resume_reason = cause
        self._stall_on_branch_seq = None
        if self.waiting_branch is not None and self.waiting_branch.seq >= seq:
            self.waiting_branch = None

        # Every queue below is kept in ascending trace-sequence order,
        # so squashing everything younger than ``seq`` is a suffix drop
        # from the right — O(squashed), not O(occupancy).
        parked = self._iq_parked

        def squash(uop: PipeUop) -> None:
            if uop.squashed:
                return  # IQ entries are also in the ROB: release once
            uop.squashed = True
            if uop.in_iq:
                uop.in_iq = False
                self.iq_count -= 1
            if uop.parked:
                uop.parked = False
                parked.discard(uop)
            if uop.rename_c and not uop.committed:
                self.rename_unit.release_uop(uop)

        fetch_buffer = self.fetch_buffer
        while fetch_buffer and fetch_buffer[-1].seq >= seq:
            fetch_buffer.pop()
        aq = self.aq
        aq_by_seq_pop = self._aq_by_seq.pop
        while aq and aq[-1].seq >= seq:
            uop = aq.pop()
            squash(uop)
            aq_by_seq_pop(uop.seq, None)
        latch = self.rename_latch
        while latch and latch[-1].seq >= seq:
            squash(latch.pop())
        awake = self._iq_awake
        while awake and awake[-1].seq >= seq:
            squash(awake.pop())
        rob = self.rob
        lsq_entries_pop = self._lsq_entries.pop
        while rob and rob[-1].seq >= seq:
            uop = rob.pop()
            squash(uop)
            lsq_entries_pop(uop.seq, None)
        self._cg_uop = None  # the tracked commit group may have shrunk
        # Sleeping IQ entries are dropped lazily: every sleeper is also
        # in the ROB, so the pass above already squashed it (clearing
        # ``in_iq`` and the IQ count), and the wake path discards dead
        # entries.  Compact the heap only when dead entries dominate so
        # it cannot grow without bound across a flush storm.
        sleep = self._iq_sleep
        if len(sleep) > 64 and len(sleep) > 2 * self.iq_count:
            live_sleepers = [item for item in sleep if not item[2].squashed]
            heapq.heapify(live_sleepers)
            self._iq_sleep = live_sleepers
        self.lsu.squash_from(seq)
        self.rename_unit.flush_from(seq)
        self.storeset.flush()
        # Re-register *every* surviving SQ store, in program order so
        # the youngest of each set wins the LFST slot.  Filtering on
        # ``complete_c`` here used to drop in-flight (dispatched,
        # incomplete) stores from the predictor, so a dependent load
        # could speculate past them right after a flush and eat a
        # second memory-order violation the store set exists to stop.
        for entry in self.lsu.sq:
            self.storeset.store_dispatched(entry.uop.pc, entry.uop.seq)

        # Surviving fused µ-ops whose tail was squashed must unfuse
        # (their tail nucleus will be refetched as a normal µ-op).  A
        # pair never spans more than ``max_fusion_distance`` µ-ops, so
        # only the youngest survivors can hold a squashed tail: walk
        # each (seq-ordered) queue from the right and stop at the span
        # bound instead of scanning every entry.
        span_bound = seq - self.config.max_fusion_distance - 1
        for collection in (self.aq, self.rename_latch, self.rob):
            for uop in reversed(collection):
                if uop.seq < span_bound:
                    break
                if uop.tail is not None and uop.tail.seq >= seq \
                        and not uop.is_tail_ghost:
                    before = uop.dests
                    was_pending = uop.pending
                    if uop.fp_prediction is not None and self.fp is not None:
                        self.fp.resolve(uop.fp_prediction, correct=False)
                        uop.fp_prediction = None
                    uop.unfuse("flush")
                    if self._ev is not None:
                        self._ev.emit(self.now, "unfuse", uop.seq, "flush")
                    uop.extra_producers = []
                    if uop.parked and uop.in_iq:
                        # It may be parked on a squashed catalyst
                        # producer's wait list: re-arm it explicitly.
                        uop.parked = False
                        self._iq_parked.discard(uop)
                        heapq.heappush(self._iq_sleep,
                                       (self.now + 1, uop.seq, uop))
                    if uop.rename_c:
                        self.rename_unit.release(
                            [d for d in before if d not in uop.dests])
                    entry = self._lsq_entries.get(uop.seq)
                    if entry is not None:
                        entry.drop_tail()
                    if was_pending:
                        self.stats.fp_legality_unfusions += 1

    # ---------------------------------------------------------------- commit --

    def request_interrupt(self) -> None:
        """Ask for an interrupt; it is processed at the next commit
        boundary that is not inside an extended commit group."""
        if not self.pending_interrupt:
            self.pending_interrupt = True
            self._interrupt_requested_at = self.now

    def _maybe_take_interrupt(self) -> None:
        if not self.pending_interrupt:
            return
        if self._commit_group_end is not None:
            return  # mid extended commit group: defer (Section IV-B3)
        self.pending_interrupt = False
        self.interrupts_taken += 1
        self.interrupt_deferral_cycles += self.now - self._interrupt_requested_at

    def _commit(self) -> None:
        committed = 0
        config = self.config
        now = self.now
        rob = self.rob
        if self.pending_interrupt:
            self._maybe_take_interrupt()
        # Deadlock watchdog: a fused ROB head is the only µ-op whose
        # completion can wait on *younger* µ-ops (its catalyst, via
        # extra/late producers or LSQ forwarding).  Rename-time deadlock
        # tags cannot see dependences carried through memory, so a
        # catalyst-carried cycle would stall commit forever.  Unfuse
        # the head after a hopeless stall — always safe, at worst one
        # spurious repair flush on an extraordinarily slow catalyst.
        if (rob
                and now - self._last_commit_cycle
                > DEADLOCK_WATCHDOG_CYCLES
                and rob[0].tail is not None):
            self._last_commit_cycle = now
            self.stats.deadlock_unfusions += 1
            self._flush_from(self._unfuse_inflight(rob[0]))
        # Record *why* the commit loop broke (for the top-down slot
        # accounting at end of cycle) so `_stall_slot_bucket` never has
        # to re-derive it with a second ROB scan.
        self._commit_stall_bucket = None
        commit_width = config.commit_width
        ev = self._ev
        clog = self._clog
        rename_unit = self.rename_unit
        lsq_entries_pop = self._lsq_entries.pop
        account_commit = self._account_commit
        stats = self.stats
        has_uch = self.uch_loads is not None
        while committed < commit_width and rob:
            uop = rob[0]
            completion = uop.complete_c
            if completion is None or completion > now:
                self._commit_stall_bucket = (
                    "memory" if uop.is_memory else "base")
                break
            if uop.tail_complete_c is not None and uop.tail_complete_c > now:
                # The tail half of a fused load pair is in flight.
                self._commit_stall_bucket = "memory"
                break
            if uop.late_producers:
                # Fused store pair: the tail data must be captured.
                late = uop.late_ready_at()
                if late is None or late > now:
                    self._commit_stall_bucket = "base"
                    break
            if uop.tail is not None and not self._commit_group_ready(uop):
                break  # _commit_group_ready recorded the blocker's bucket
            rob.popleft()
            uop.committed = True
            if ev is not None:
                ev.emit(now, "commit", uop.seq)
            if clog is not None:
                clog.record_commit(uop)
            # Extended commit group tracking: a fused µ-op opens a group
            # covering everything up to its tail nucleus.
            tail = uop.tail
            if tail is not None:
                end = tail.seq
                if self._commit_group_end is None \
                        or end > self._commit_group_end:
                    self._commit_group_end = end
            if self._commit_group_end is not None \
                    and (tail.seq if tail is not None else uop.seq) \
                    >= self._commit_group_end:
                self._commit_group_end = None
                self._maybe_take_interrupt()
            # release_uop(), inlined: two counter bumps per commit.
            rename_unit.free_int += uop.n_int_dests
            rename_unit.free_fp += uop.n_fp_dests
            # _account_commit's unfused no-UCH case, inlined (the bulk
            # of commits in every mode).
            if tail is None and uop.fusion is _NO_FUSION \
                    and not (has_uch and uop.is_memory):
                stats.uops_committed += 1
                stats.instructions += 1
                self.commit_counter += 1
            else:
                account_commit(uop)
            if uop.is_memory:
                entry = lsq_entries_pop(uop.seq, None)
                if entry is not None:
                    if uop.is_load:
                        self.lsu.remove(entry)
                    else:
                        self._schedule_drain(entry)
                        self.storeset.store_completed(uop.pc, uop.seq)
            committed += 1
        if committed:
            self._last_commit_cycle = now
        self._committed_this_cycle = committed

    def _commit_group_ready(self, uop: PipeUop) -> bool:
        """Extended commit group: nucleii *and* catalyst must be ready.

        Incremental: the O(ROB) membership scan runs once per group
        head (re-armed when a member dispatches late into the group or
        a flush reshapes the ROB — see ``_dispatch``/``_flush_from``);
        afterwards each call only re-checks the oldest still-incomplete
        member.  Completion times never revert, so pruning members from
        the front preserves the original scan's first-blocker choice —
        and with it the stall bucket attribution.
        """
        now = self.now
        if self._cg_uop is not uop:
            tail_seq = uop.tail.seq
            pending = []
            for other in self.rob:
                if other is uop:
                    continue
                if other.seq > tail_seq:
                    break
                if other.complete_c is None or other.complete_c > now:
                    pending.append(other)
            self._cg_uop = uop
            self._cg_tail_seq = tail_seq
            self._cg_pending = pending
            self._cg_index = 0
        pending = self._cg_pending
        index = self._cg_index
        count = len(pending)
        while index < count:
            blocker = pending[index]
            completion = blocker.complete_c
            if completion is None or completion > now:
                self._cg_index = index
                self._commit_stall_bucket = (
                    "memory" if blocker.is_memory else "base")
                return False
            index += 1
        self._cg_index = index
        return True

    def _account_commit(self, uop: PipeUop) -> None:
        stats = self.stats
        stats.uops_committed += 1
        tail = uop.tail
        instruction_count = 2 if tail is not None else 1
        stats.instructions += instruction_count
        fusion = uop.fusion
        if fusion is _NO_FUSION:
            pass  # common case: nothing fused to account
        elif fusion is FusionKind.CSF:
            stats.csf_memory_pairs += 1
        elif fusion is FusionKind.NCSF:
            if uop.tail.seq == uop.seq + 1:
                stats.csf_memory_pairs += 1
            else:
                stats.ncsf_memory_pairs += 1
                stats.ncsf_distance_sum += uop.tail.seq - uop.seq
            if uop.head.base_reg != uop.tail.base_reg:
                stats.dbr_pairs += 1
            if uop.fp_prediction is not None and self.fp is not None:
                self.fp.resolve(uop.fp_prediction, correct=True)
                uop.fp_prediction = None
                stats.fp_fusions_correct += 1
                for seq in (uop.seq, uop.tail.seq):
                    pair = self._eligible_pair_by_seq.get(seq)
                    if pair is not None and pair not in self._credited_pairs:
                        self._credited_pairs.add(pair)
                        stats.fp_covered_pairs += 1
                        break
        elif fusion is FusionKind.OTHER:
            stats.other_pairs += 1

        # UCH training: only unfused memory µ-ops are inserted.
        if uop.is_memory and tail is None and self.uch_loads is not None:
            queue = self.uch_load_queue if uop.is_load else self.uch_store_queue
            queue.push(uop.pc, uop.head.addr, self.commit_counter,
                       self.branch_pred.ghr, uop.seq)
        self.commit_counter += instruction_count

    # ------------------------------------------------------------- store drain --

    def _schedule_drain(self, entry: LSQEntry) -> None:
        """Post-commit: the store writes the cache through one drain port."""
        start = max(self.now, self._drain_free_at)
        self._drain_free_at = start + 1
        addr, size = entry.uop.mem_span
        entry.drained_c = start + self.memory.access_latency(addr, size)
        if self._clog is not None:
            self._clog.record_drain(entry)
        # `_draining` is a heap on drained_c; `_drain_min` mirrors its
        # root (valid while non-empty) so the per-cycle drain check is
        # one comparison instead of a scan.
        heapq.heappush(self._draining,
                       (entry.drained_c, entry.uop.seq, entry))
        self._drain_min = self._draining[0][0]

    def _drain_stores(self) -> None:
        draining = self._draining
        now = self.now
        if not draining or self._drain_min > now:
            return
        remove = self.lsu.remove
        heappop = heapq.heappop
        while draining and draining[0][0] <= now:
            remove(heappop(draining)[2])
        if draining:
            self._drain_min = draining[0][0]

    # ----------------------------------------------------------- UCH training --

    def _train_uch(self) -> None:
        if self.fp is None:
            return
        clog = self._clog
        for queue, uch, kind in ((self.uch_load_queue, self.uch_loads,
                                  "load"),
                                 (self.uch_store_queue, self.uch_stores,
                                  "store")):
            on_match = None
            if clog is not None:
                def on_match(pending, match, _kind=kind):
                    clog.record_uch_pair(match.head_seq, pending.seq, _kind)
            queue.begin_cycle()
            queue.drain(observe=uch.observe, train=self.fp.train,
                        on_match=on_match)
