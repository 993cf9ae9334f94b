"""Fine-grained on-chip resource admission with bounded oversubscription.

Warps pass three admission queues in order: first a warp slot, then the
owning block's scratchpad share, then per-phase register sets.  A resource
request passes if physical sets are free, or if placing the overflow sets
in backing-memory swap stays within that resource's oversubscription
threshold.  Free physical sets are always granted first, so the swapped
part of an allocation is its tail, which is also what a later demand
shrink releases first.  The thresholds are re-tuned once per epoch by a
feedback controller driven by the change in idle- and memory-stall
counters, and a deadlock guard force-admits the oldest waiting warp
(budget-exempt) when almost nothing is schedulable.

Block arrivals, barrier releases and epochs always retry the queues.  A
phase change retries only if it queued its warp or freed a register or
scratchpad set, a finished warp only if it freed one or slot waiters
queue, and a barrier arrival only if slot waiters queue: otherwise the
retry would admit nobody.  Within a retry the register and scratchpad
queues are passed whenever they hold a warp, and the slot queue only
while a slot can be freed.

A pass visits the warps holding the most sets first, oldest first among
equals.  A register waiter holds one slot and keeps the register sets of
its last phase while it waits, so its queue records those held sets and
a pass sorts by them.  A scratchpad waiter holds one slot and no
register sets, so its queue is the order.  A slot waiter holds a slot
only if it was parked, so its order is the parked waiters, then the rest.

Warp-slot oversubscription has one extra wrinkle: a slot moves to swap only
by parking a warp that is already waiting at a barrier, which also saves its
scheduler state to memory and releases all of its register sets.  Parked
warps therefore re-enter the admission pipeline from the front when their
barrier opens, paying one memory round trip to restore state: a resumed
warp issues no earlier than the occasion's wake plus the memory latency.

Coordinator is the zorua admission object: it implements the hooks the
engine calls for every policy (see policies.py) on the shared Registry.
It is the one place a phase specifier becomes register and scratchpad
sets: on a block's arrival for the entry phase, and on each phase change.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Optional

from .kernel_model import Opcode, PhaseSpecifier
from .registry import Registry, WarpRecord, WarpState
from .resource_maps import (
    ArchConfig,
    MappingTable,
    Placement,
    ResourceKind,
    make_tables,
    reg_sets_for,
    scratch_sets_for,
)

# module-level aliases: an Enum member lookup costs far more than a global
# name, and the per-event paths name a state on every change of one
_PENDING_THREAD = WarpState.PENDING_THREAD
_PENDING_SCRATCH = WarpState.PENDING_SCRATCH
_PENDING_REG = WarpState.PENDING_REG
_SCHEDULABLE = WarpState.SCHEDULABLE
_AT_BARRIER = WarpState.AT_BARRIER
_PARKED = WarpState.PARKED
_FINISHED = WarpState.FINISHED

# access_plan's entry for an opcode: the number of tables it consults
_CONSULTS = {Opcode.BARRIER: 0, Opcode.PHASE_SPEC: 0, Opcode.LD_SHARED: 2, Opcode.ST_SHARED: 2}


# controller and guard constants; fractions are of physical capacity
O_DEFAULT_FRAC = 0.10  # starting threshold
STEP_FRAC = 0.04  # threshold change per retune
STALL_DELTA_THRESHOLD = 16  # stall-delta gap a retune needs
GUARD_MIN_SCHEDULABLE_FRAC = 0.20  # of warp slots; below it the guard fires


@dataclass(frozen=True)
class OversubscriptionConfig:
    """Run-time overrides of the controller and the deadlock guard."""

    fixed_o_thresh_frac: Optional[float] = None  # pins thresholds, disables controller
    guard_enabled: bool = True


def adjust_o_thresh(current: int, capacity: int, step: int, d_idle: int, d_mem: int) -> int:
    """One controller update from epoch-over-epoch stall-count deltas.

    Idle stalls rising faster than memory stalls means admission is too
    strict, so the threshold grows; the reverse shrinks it.  Both
    comparisons are strict, and the result clamps to [0, capacity].
    """
    if d_idle - d_mem > STALL_DELTA_THRESHOLD:
        current += step
    elif d_mem - d_idle > STALL_DELTA_THRESHOLD:
        current -= step
    return max(0, min(capacity, current))


class Coordinator(Registry):
    """Owns the mapping tables, admission queues, and oversubscription state
    of a single SM."""

    def __init__(self, arch: ArchConfig, cfg: OversubscriptionConfig):
        super().__init__(arch.schedulers_per_sm)
        self.arch = arch
        self.cfg = cfg
        self.tables = make_tables(arch)
        self.regs = self.tables[ResourceKind.REGISTER]
        self.scratch = self.tables[ResourceKind.SCRATCHPAD]
        self.slots = self.tables[ResourceKind.WARP_SLOT]
        # what access_cost reads per issued instruction (tables keep their
        # dicts); a parked warp's restore pays the same latency
        self._penalty, self._latency = arch.mapping_table_penalty_cycles, arch.memory_latency_cycles
        self._reg_owned = self.regs.owned_sets
        self._reg_swap_owned = self.regs.swap_owned
        self._scratch_owned = self.scratch.owned_sets
        self._scratch_swap_owned = self.scratch.swap_owned
        # the oversubscription thresholds, keyed by table in ResourceKind
        # order; read on every admission attempt
        frac = O_DEFAULT_FRAC if cfg.fixed_o_thresh_frac is None else cfg.fixed_o_thresh_frac
        self._limit: dict[MappingTable, int] = {
            tbl: min(int(frac * tbl.capacity), tbl.capacity) for tbl in self.tables.values()
        }
        self._seq = 0
        # state indices, kept by _set_state: the three admission queues
        # (pending warps in enqueue_seq order) and barrier waiters in
        # barrier_seq order, each a dict of wids
        self._thread_q, self._scratch_q, self._at_barrier = {}, {}, {}
        # the register queue maps each waiter to the sets it held when
        # queued and keeps while it waits
        self._reg_q: dict[int, int] = {}
        self.guard_admissions = 0
        # admissions whose swap overflow exceeded the threshold (must stay 0)
        self.budget_violations = 0
        # warps that still owned resources when their block was dropped
        self.retired_errors: list[str] = []
        self._block_completed = True  # the last warp to finish completed its block
        # the last epoch's stall counters, whose deltas drive the controller
        self._last_idle = self._last_mem = 0

    # -- bookkeeping ----------------------------------------------------

    def _set_state(self, w: WarpRecord, state: WarpState):
        """Keep the queue and barrier indices, then the registry's own."""
        wid = w.wid
        old = w.state
        if old is _PENDING_REG:
            del self._reg_q[wid]
        elif old is _PENDING_SCRATCH:
            del self._scratch_q[wid]
        elif old is _PENDING_THREAD:
            # a new warp starts in PENDING_THREAD outside the queue
            self._thread_q.pop(wid, None)
        elif old is _AT_BARRIER:
            del self._at_barrier[wid]
        if state is _PENDING_REG:
            self._reg_q[wid] = self._reg_owned.get(wid, 0)
        elif state is _PENDING_SCRATCH:
            self._scratch_q[wid] = None
        elif state is _PENDING_THREAD:
            self._thread_q[wid] = None
        elif state is _AT_BARRIER:
            self._at_barrier[wid] = None
        Registry._set_state(self, w, state)

    def _enqueue(self, warp: WarpRecord, state: WarpState):
        """Queue a warp for a stage, last in that queue's order."""
        self._set_state(warp, state)
        self._seq += 1
        warp.enqueue_seq = self._seq

    # -- admission stages -------------------------------------------------

    def _slot_stage_feasible(self, forced: bool) -> bool:
        """Whether _pass_thread can pass a warp now: a slot is free, or a
        barrier waiter can be parked (within the slot budget unless
        forced).  Every warp needs the same one slot, so the answer does
        not depend on the warp."""
        slots = self.slots
        if not self._at_barrier:
            return slots.free_physical > 0
        return forced or slots.headroom(self._limit[slots]) > 0

    def _pass_thread(self, warp: WarpRecord, forced: bool) -> bool:
        if not self._slot_stage_feasible(forced):
            return False
        slots = self.slots
        if slots.free_physical == 0:
            # park the oldest barrier waiter, saving its scheduler state
            victim = self.warps[next(iter(self._at_barrier))]
            slots.spill_specific(victim.wid, 0, forced=forced)
            slots.note_swap_event()
            self.regs.free_all(victim.wid)
            self._set_state(victim, _PARKED)
        if warp.wid in slots.owned_sets:
            # parked warp resuming: restore its slot and pay the round trip
            slots.migrate_in(warp.wid, 0)
            slots.note_swap_event()
            warp.next_ready = max(warp.next_ready, self.wake + self._latency)
        else:
            slots.allocate(warp.wid, 1, Placement.PHYSICAL)
        return True

    def _grant(self, tbl: MappingTable, owner: int, delta: int, forced: bool):
        """Grant delta new sets (none if delta <= 0): free physical sets
        first, overflow to swap.

        A non-forced grant must fit tbl.headroom(limit), which the queue
        passes check first, and lowers it by exactly delta.  A grant forced
        by the deadlock guard is exempt from the budget.
        """
        phys = min(delta, tbl.free_physical)
        overflow = delta - phys
        if phys > 0:
            tbl.allocate(owner, phys, Placement.PHYSICAL)
        if overflow:
            tbl.allocate(owner, overflow, Placement.SWAP, forced=forced)
            if not forced and tbl.budget_swap() > self._limit[tbl]:
                self.budget_violations += 1

    def _scratch_delta(self, warp: WarpRecord) -> int:
        """Scratch sets the warp's block still lacks for the warp's phase."""
        return warp.scratch_sets_needed - self.scratch.owned(warp.block_id)

    def _reg_delta(self, warp: WarpRecord) -> int:
        return warp.reg_sets_needed - self.regs.owned(warp.wid)

    def _retry_reg(self, room: int):
        """One pass over the register queue with room sets grantable.

        Warps holding more register sets go first, FIFO among equals: a
        stable sort of the queue by the sets each waiter holds, most first.
        """
        warps = self.warps
        regs = self.regs
        held = self._reg_q
        for wid in sorted(held, key=held.__getitem__, reverse=True):
            w = warps[wid]
            delta = w.reg_sets_needed - held[wid]
            if delta > room:
                continue
            if delta > 0:
                self._grant(regs, wid, delta, False)
                room -= delta
            self._admit(w)

    def _retry_scratch(self, room: int) -> bool:
        """One pass over the scratchpad queue, in its own order; True if it
        passed a warp on.  A later sibling's grant lowers a skipped warp's
        delta as much as room, so one pass leaves no warp it could pass."""
        warps = self.warps
        scratch = self.scratch
        held = scratch.owned_sets.get
        progressed = False
        for w in [warps[wid] for wid in self._scratch_q]:
            delta = w.scratch_sets_needed - held(w.block_id, 0)
            if delta > room:
                continue
            if delta > 0:
                self._grant(scratch, w.block_id, delta, False)
                room -= delta
            self._enqueue(w, _PENDING_REG)
            progressed = True
        return progressed

    def _retry_slots(self) -> bool:
        """One pass over the slot queue: parked warps, then new ones.

        A failed slot pass frees nothing and every warp needs the same one
        slot, so the first failure decides the rest of the queue.
        """
        parked = self.slots.owned_sets
        queue = self._thread_q
        order = [wid for wid in queue if wid in parked]
        order += [wid for wid in queue if wid not in parked]
        progressed = False
        for w in map(self.warps.__getitem__, order):
            if not self._pass_thread(w, False):
                break
            self._enqueue(w, _PENDING_SCRATCH)
            progressed = True
        return progressed

    def retry_all_queues(self):
        """Drain the queues to a fixpoint, register stage first.

        Swap-resident sets of already-running warps are promoted back on
        chip before any new admission, hottest first, so freed capacity
        first relieves warps paying round-trip latency and only then admits
        more work.  Guard-forced sets promote too, clearing their budget
        exemption, and so does any budget overshoot a threshold drop leaves.

        Each round passes the register and scratchpad queues if they hold
        a warp, with the table's headroom as the room to grant, and the
        slot queue only while a slot can be freed: a pass that admits
        nobody changes nothing.  A register pass only admits, so only
        scratchpad and slot progress call for another round.
        """
        regs, scratch, limit = self.regs, self.scratch, self._limit
        for tbl in (regs, scratch):
            if tbl.mapped_swap and tbl.free_physical:
                for owner, logical in tbl.swap_keys_by_heat():
                    if tbl.free_physical == 0:
                        break
                    tbl.migrate_in(owner, logical)
        while True:
            if self._reg_q:
                self._retry_reg(regs.headroom(limit[regs]))
            progressed = False
            if self._scratch_q:
                progressed = self._retry_scratch(scratch.headroom(limit[scratch]))
            if self._thread_q and self._slot_stage_feasible(forced=False):
                progressed |= self._retry_slots()
            if not progressed:
                return

    # -- events from the engine -------------------------------------------

    def can_accept_block(self, warps: int) -> bool:
        """New blocks enter at launch and whenever a block completes, while
        logical block and warp ids remain; a finished warp frees its id."""
        if not self._block_completed or len(self.blocks) >= self.arch.max_logical_blocks:
            return False
        live = len(self.warps) - sum(b.finished_warps for b in self.blocks.values())
        return live + warps <= self.arch.max_logical_warps

    def on_block_arrival(self, bid: int, wids: tuple[int, ...], phase: PhaseSpecifier):
        super().on_block_arrival(bid, wids)
        reg_sets = reg_sets_for(phase.live_regs)
        scratch_sets = scratch_sets_for(phase.scratch_bytes)
        for wid in wids:
            w = self.warps[wid]
            w.reg_sets_needed = reg_sets
            w.scratch_sets_needed = scratch_sets
            self._enqueue(w, _PENDING_THREAD)
        self.retry_all_queues()

    def _shrink_block_scratch(self, bid: int, need: int) -> bool:
        """Free the block's scratchpad sets beyond what its unfinished warps
        need, which is at least need; True if any were freed."""
        held = self.scratch.owned(bid)
        if held <= need:
            return False
        warps = [self.warps[wid] for wid in self.blocks[bid].warp_ids]
        demand = max(
            (w.scratch_sets_needed for w in warps if w.state is not _FINISHED), default=0
        )
        if held > demand:
            self.scratch.free(bid, held - demand)
        return held > demand

    def on_phase_change(self, wid: int, phase: PhaseSpecifier):
        """Apply the sets a warp's new phase needs; the warp just issued
        the specifier, and no earlier hook of that cycle moves a schedulable
        warp, so it is schedulable, and stays so unless it must queue.  A
        warp waiting for scratchpad may not sit on register sets, so scratch
        growth releases them all first.
        """
        w = self.warps[wid]
        regs = self.regs
        bid = w.block_id
        w.reg_sets_needed = reg_sets = reg_sets_for(phase.live_regs)
        w.scratch_sets_needed = scratch_sets = scratch_sets_for(phase.scratch_bytes)
        held = regs.owned(wid)
        still = True
        if scratch_sets > self.scratch.owned(bid):
            regs.free_all(wid)
            self._enqueue(w, _PENDING_SCRATCH)
            still = False
        elif reg_sets > held:
            self._enqueue(w, _PENDING_REG)
            still = False
        elif held > reg_sets:
            regs.free(wid, held - reg_sets)
        # a retry admits nobody unless this queued the warp or freed a set
        if self._shrink_block_scratch(bid, scratch_sets) or not still or held > reg_sets:
            self.retry_all_queues()

    def on_barrier(self, wid: int) -> bool:
        """Hold the warp at its barrier; True when it was the last of its
        block to arrive."""
        complete = super().on_barrier(wid)
        self._seq += 1
        self.warps[wid].barrier_seq = self._seq
        # a parkable warp appeared, so slot waiters may now pass
        if self._thread_q:
            self.retry_all_queues()
        return complete

    def release_barrier(self, bid: int):
        """Admit the block's barrier waiters; its parked warps queue again."""
        super().release_barrier(bid)
        for wid in self.blocks[bid].warp_ids:
            w = self.warps[wid]
            if w.state is _PARKED:
                self._enqueue(w, _PENDING_THREAD)
        self.retry_all_queues()

    def on_warp_finished(self, wid: int):
        """Release everything the warp holds.

        A completed block leaves the registry with its warps; a warp still
        owning sets then leaked them.  The freed slot matters only to slot
        waiters."""
        bid = self.warps[wid].block_id
        freed = self.regs.owned(wid) > 0
        self.regs.free_all(wid)
        self.slots.free_all(wid)
        block = self._retire(wid)
        if block is None:
            freed |= self._shrink_block_scratch(bid, 0)
        else:
            freed |= self.scratch.owned(bid) > 0
            self.scratch.free_all(bid)
            self.retired_errors.extend(
                f"warp {bw} finished but still owns resources"
                for bw in block.warp_ids
                if self.regs.owned(bw) or self.slots.owned(bw)
            )
        self._block_completed = block is not None
        if freed or self._thread_q:
            self.retry_all_queues()

    def on_epoch(self, stats):
        """Controller update from the closed epoch's stall counters (an
        engine EpochStats), promotion and retries, fresh accounting window,
        then the deadlock guard."""
        d_idle, d_mem = stats.c_idle - self._last_idle, stats.c_mem - self._last_mem
        self._last_idle, self._last_mem = stats.c_idle, stats.c_mem
        if self.cfg.fixed_o_thresh_frac is None:
            for tbl, value in self._limit.items():
                cap = tbl.capacity
                self._limit[tbl] = adjust_o_thresh(
                    value, cap, step=int(STEP_FRAC * cap), d_idle=d_idle, d_mem=d_mem
                )
        self.retry_all_queues()
        for tbl in self.tables.values():
            tbl.reset_access_window()
        self.deadlock_guard()

    # -- data-access path ---------------------------------------------------

    def _locality(self, w: WarpRecord, n_sets: int) -> int:
        """Skewed reuse: seven of every eight touches land in the hottest
        quarter of the owner's sets, the rest walk the remainder."""
        k = w.acc_counter
        w.acc_counter += 1
        n_hot = max(1, -(-n_sets // 4))
        n_cold = n_sets - n_hot
        if k % 8 < 7 or n_cold == 0:
            return (k % 8) % n_hot
        return n_hot + (k // 8) % n_cold

    def access_plan(self, body) -> list[int]:
        """Per pc, the tables the instruction there consults (_CONSULTS)."""
        return [_CONSULTS.get(ins.opcode, 1) for ins in body]

    def access_cost(self, w: WarpRecord, consult: int) -> int:
        """Extra cycles the mapping tables add to one issued instruction,
        given its access_plan entry.  Each consult of an owner's sets costs
        the pipeline penalty, and touching a set in swap a memory round
        trip.  An owner with no set in swap touches an on-chip set whichever
        one its locality walk picks, so its consult only advances the walk
        and counts the access.
        """
        if not consult:
            return 0
        # every consulting instruction uses its warp's slot
        self.slots.total_accesses += 1
        extra = 0
        wid = w.wid
        n = self._reg_owned.get(wid)
        if n:
            extra = self._penalty
            if wid not in self._reg_swap_owned:
                w.acc_counter += 1
                self.regs.total_accesses += 1
            elif self.access_register(wid, self._locality(w, n)):
                extra += self._latency
        if consult == 2:
            bid = w.block_id
            m = self._scratch_owned.get(bid)
            if m:
                extra += self._penalty
                if bid not in self._scratch_swap_owned:
                    w.acc_counter += 1
                    self.scratch.total_accesses += 1
                elif self.access_scratch(bid, self._locality(w, m)):
                    extra += self._latency
        return extra

    def access_register(self, wid: int, logical: int) -> bool:
        """Touch one register set; True means it was in swap (a round trip)."""
        return self.regs.lookup(wid, logical) is Placement.SWAP

    def access_scratch(self, bid: int, logical: int) -> bool:
        """Touch one scratchpad set; True means it was in swap."""
        return self.scratch.lookup(bid, logical) is Placement.SWAP

    # -- engine queries and result counters -----------------------------------

    @property
    def retunes(self) -> bool:
        """Whether the controller may loosen admission at the next epoch."""
        return self.cfg.fixed_o_thresh_frac is None

    def access_totals(self) -> dict[ResourceKind, tuple[int, int]]:
        return {kind: (t.total_accesses, t.swap_accesses) for kind, t in self.tables.items()}

    def final_thresholds(self) -> dict[str, int]:
        return {tbl.kind.value: v for tbl, v in self._limit.items()}

    # -- deadlock guard -----------------------------------------------------

    def deadlock_guard(self) -> bool:
        """Force-admit the oldest satisfiable pending warp, one per call.

        Only fires when schedulable warps have dropped below the configured
        fraction of physical slots.  Forced allocations bypass and do not
        consume the oversubscription budget.
        """
        if not self.cfg.guard_enabled:
            return False
        limit = GUARD_MIN_SCHEDULABLE_FRAC * self.arch.warp_slots_per_sm
        if self.n_schedulable >= limit:
            return False
        queues = [q for q in (self._reg_q, self._scratch_q) if q]
        if self._thread_q and self._slot_stage_feasible(forced=True):
            queues.append(self._thread_q)
        if not queues:
            return False
        # each queue is in enqueue_seq order, so the oldest admissible warp
        # heads one of them
        warps = self.warps
        w = min((warps[next(iter(q))] for q in queues), key=lambda w: w.enqueue_seq)
        while w.state is not _SCHEDULABLE:
            if w.state is _PENDING_THREAD:
                if not self._pass_thread(w, True):
                    raise RuntimeError("forced admission stage failed")
                self._enqueue(w, _PENDING_SCRATCH)
            elif w.state is _PENDING_SCRATCH:
                self._grant(self.scratch, w.block_id, self._scratch_delta(w), True)
                self._enqueue(w, _PENDING_REG)
            else:
                self._grant(self.regs, w.wid, self._reg_delta(w), True)
                self._admit(w)
        self.guard_admissions += 1
        self.retry_all_queues()
        return True

    # -- validation -----------------------------------------------------------

    def check_invariants(self) -> list[str]:
        errors = []
        for tbl in self.tables.values():
            errors.extend(tbl.check_invariants())
        regs, slots = self.regs, self.slots
        for w in self.warps.values():
            if w.state in (WarpState.PENDING_THREAD, WarpState.PENDING_SCRATCH):
                if regs.owned(w.wid):
                    errors.append(f"warp {w.wid} holds registers while in {w.state.value}")
            # the queue passes visit scratchpad and slot waiters in queue
            # order because of these two
            if w.state in (WarpState.PENDING_SCRATCH, WarpState.PENDING_REG):
                if slots.owned(w.wid) != 1 or slots.peek(w.wid, 0) is not Placement.PHYSICAL:
                    errors.append(f"warp {w.wid} is {w.state.value} without one physical slot")
            if w.state is WarpState.PENDING_THREAD and slots.peek(w.wid, 0) is Placement.PHYSICAL:
                errors.append(f"warp {w.wid} waits for a slot it holds on chip")
            if w.state in (WarpState.SCHEDULABLE, WarpState.AT_BARRIER):
                if slots.peek(w.wid, 0) is not Placement.PHYSICAL:
                    errors.append(f"warp {w.wid} is {w.state.value} without a physical slot")
                if regs.owned(w.wid) < w.reg_sets_needed and w.state is WarpState.SCHEDULABLE:
                    errors.append(f"warp {w.wid} schedulable with missing register sets")
            if w.state is WarpState.PARKED:
                if slots.peek(w.wid, 0) is not Placement.SWAP:
                    errors.append(f"warp {w.wid} parked but slot not in swap")
                if regs.owned(w.wid):
                    errors.append(f"warp {w.wid} parked while holding registers")
        # a retry promotes while a physical set is free, and runs after every
        # hook that frees one (a parked warp's slot stays in swap regardless)
        errors.extend(
            f"{t.kind.value}: {t.mapped_swap} sets in swap, {t.free_physical} physical sets free"
            for t in (regs, self.scratch)
            if t.mapped_swap and t.free_physical
        )
        errors.extend(self.retired_errors)
        errors.extend(self.registry_errors())
        errors.extend(self._index_errors())
        errors.extend(self._fixpoint_errors())
        for tbl, value in self._limit.items():
            if not 0 <= value <= tbl.capacity:
                errors.append(f"{tbl.kind.value} threshold out of range")
        if self.budget_violations:
            errors.append(f"{self.budget_violations} admissions exceeded the swap budget")
        return errors

    def _index_errors(self) -> list[str]:
        """The state indices must match a scan of the registry, and the
        register queue must record the sets each of its waiters holds."""
        errors = []
        for state, index, seq in (
            (_AT_BARRIER, self._at_barrier, "barrier_seq"),
            (_PENDING_THREAD, self._thread_q, "enqueue_seq"),
            (_PENDING_SCRATCH, self._scratch_q, "enqueue_seq"),
            (_PENDING_REG, self._reg_q, "enqueue_seq"),
        ):
            waiters = [w for w in self.warps.values() if w.state is state]
            if list(index) != [w.wid for w in sorted(waiters, key=attrgetter(seq))]:
                errors.append(f"{state.value} index is not the {seq} order of its warps")
        if self._reg_q != {wid: self.regs.owned(wid) for wid in self._reg_q}:
            errors.append("register queue does not record the sets its waiters hold")
        return errors

    def _fixpoint_errors(self) -> list[str]:
        """After a retry no queue holds a warp its stage would pass."""
        errors = []
        for name, queue, delta, tbl in (
            ("register", self._reg_q, self._reg_delta, self.regs),
            ("scratchpad", self._scratch_q, self._scratch_delta, self.scratch),
        ):
            room = tbl.headroom(self._limit[tbl])
            for wid in queue:
                d = delta(self.warps[wid])
                if d <= room:
                    errors.append(f"warp {wid} waits for {d} {name} sets with {room} grantable")
        if self._thread_q and self._slot_stage_feasible(forced=False):
            errors.append("warps wait for a slot while the slot stage can pass them")
        return errors
