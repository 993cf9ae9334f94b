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

Warp-slot oversubscription has one extra wrinkle: a slot moves to swap only
by parking a warp that is already waiting at a barrier, which also saves its
scheduler state to memory and releases all of its register sets.  Parked
warps therefore re-enter the admission pipeline from the front when their
barrier opens, paying one memory round trip to restore state.

Coordinator is the zorua admission object: it implements the hooks the
engine calls for every policy (see policies.py).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from .kernel_model import SCRATCH_OPCODES, Opcode
from .resource_maps import (
    ArchConfig,
    MappingTable,
    Placement,
    ResourceKind,
    make_tables,
)


class WarpState(enum.Enum):
    PENDING_THREAD = "pending_thread"
    PENDING_SCRATCH = "pending_scratch"
    PENDING_REG = "pending_reg"
    SCHEDULABLE = "schedulable"
    AT_BARRIER = "at_barrier"
    PARKED = "parked"  # at barrier with slot and scheduler state swapped out
    FINISHED = "finished"


_PENDING = (WarpState.PENDING_THREAD, WarpState.PENDING_SCRATCH, WarpState.PENDING_REG)


@dataclass
class WarpRecord:
    wid: int
    block_id: int
    state: WarpState = WarpState.PENDING_THREAD
    reg_sets_needed: int = 0
    scratch_sets_needed: int = 0
    enqueue_seq: int = -1
    barrier_seq: int = -1
    # engine-side scheduling fields
    pc: int = 0
    next_ready: int = 0
    acc_counter: int = 0
    cur_live_regs: int = 0
    cur_live_scratch: int = 0


@dataclass
class BlockRecord:
    bid: int
    warp_ids: tuple[int, ...]
    barrier_arrivals: int = 0
    finished_warps: int = 0

    @property
    def size(self) -> int:
        return len(self.warp_ids)


@dataclass(frozen=True)
class OversubscriptionConfig:
    """Controller and guard knobs; fractions are of physical capacity."""

    o_default_frac: float = 0.10
    step_frac: float = 0.04
    stall_delta_threshold: int = 16
    hard_cap_frac: float = 1.0
    fixed_o_thresh_frac: Optional[float] = None  # pins thresholds, disables controller
    guard_enabled: bool = True
    guard_min_schedulable_frac: float = 0.20
    migrate_on_spilled_access: bool = False


def adjust_o_thresh(
    current: int,
    capacity: int,
    step: int,
    d_idle: int,
    d_mem: int,
    delta_threshold: int = 16,
    hard_cap: Optional[int] = None,
) -> int:
    """One controller update from epoch-over-epoch stall-count deltas.

    Idle stalls rising faster than memory stalls means admission is too
    strict, so the threshold grows; the reverse shrinks it.  Both
    comparisons are strict, and the result clamps to [0, hard_cap].
    """
    cap = capacity if hard_cap is None else hard_cap
    if d_idle - d_mem > delta_threshold:
        current += step
    elif d_mem - d_idle > delta_threshold:
        current -= step
    return max(0, min(cap, current))


class Coordinator:
    """Owns the mapping tables, admission queues, and oversubscription state
    of a single SM."""

    def __init__(self, arch: ArchConfig, cfg: OversubscriptionConfig):
        self.arch = arch
        self.cfg = cfg
        self.tables = make_tables(arch)
        self.o_thresh: dict[ResourceKind, int] = {}
        for kind in ResourceKind:
            cap = arch.physical_capacity(kind)
            frac = cfg.fixed_o_thresh_frac
            base = cfg.o_default_frac if frac is None else frac
            self.o_thresh[kind] = min(int(base * cap), int(cfg.hard_cap_frac * cap))
        self.warps: dict[int, WarpRecord] = {}
        self.blocks: dict[int, BlockRecord] = {}
        self._seq = 0
        self._thread_q: deque[tuple[int, int]] = deque()
        self._scratch_q: deque[tuple[int, int]] = deque()
        self._reg_q: deque[tuple[int, int]] = deque()
        self._effects: list[tuple] = []
        self.guard_admissions = 0
        # admissions whose swap overflow exceeded the threshold (must stay 0)
        self.budget_violations = 0
        self._block_completed = True  # the last warp to finish completed its block

    # -- bookkeeping ----------------------------------------------------

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _enqueue(self, warp: WarpRecord, state: WarpState, queue: deque):
        warp.state = state
        warp.enqueue_seq = self._next_seq()
        queue.append((warp.enqueue_seq, warp.wid))

    def _held(self, wid: int) -> int:
        return self.tables[ResourceKind.REGISTER].owned(wid) + self.tables[
            ResourceKind.WARP_SLOT
        ].owned(wid)

    def drain_effects(self) -> list[tuple]:
        out = self._effects
        self._effects = []
        return out

    def schedulable_count(self) -> int:
        return sum(1 for w in self.warps.values() if w.state is WarpState.SCHEDULABLE)

    def pending_count(self) -> int:
        return sum(1 for w in self.warps.values() if w.state in _PENDING)

    def live_blocks(self) -> int:
        return sum(1 for b in self.blocks.values() if b.finished_warps < b.size)

    def live_warps(self) -> int:
        return sum(1 for w in self.warps.values() if w.state is not WarpState.FINISHED)

    # -- admission stages -------------------------------------------------

    def _make_slot_room(self, forced: bool) -> bool:
        """Park one barrier-waiting warp to free a physical slot."""
        slots = self.tables[ResourceKind.WARP_SLOT]
        victims = [w for w in self.warps.values() if w.state is WarpState.AT_BARRIER]
        if not victims:
            return False
        if not forced and slots.budget_swap() + 1 > self.o_thresh[ResourceKind.WARP_SLOT]:
            return False
        victim = min(victims, key=lambda w: (w.barrier_seq, w.wid))
        slots.spill_specific(victim.wid, 0, forced=forced)
        slots.note_swap_event()  # scheduler state save
        self.tables[ResourceKind.REGISTER].free_all(victim.wid)
        victim.state = WarpState.PARKED
        self._effects.append(("parked", victim.wid))
        return True

    def _pass_thread(self, warp: WarpRecord, forced: bool) -> bool:
        slots = self.tables[ResourceKind.WARP_SLOT]
        if slots.free_physical == 0 and not self._make_slot_room(forced):
            return False
        if slots.owned(warp.wid):
            # parked warp resuming: restore its slot and pay the round trip
            slots.migrate_in(warp.wid, 0)
            slots.note_swap_event()
            self._effects.append(("slot_swapin", warp.wid))
        else:
            slots.allocate(warp.wid, 1, Placement.PHYSICAL)
        return True

    def _try_alloc(self, kind: ResourceKind, owner: int, delta: int, forced: bool) -> bool:
        """Grant delta new sets: free physical sets first, overflow to swap.

        The overflow must fit the resource's oversubscription budget unless
        the admission is forced by the deadlock guard (budget-exempt).
        """
        if delta <= 0:
            return True
        tbl = self.tables[kind]
        phys = min(delta, tbl.free_physical)
        overflow = delta - phys
        if (
            overflow > 0
            and not forced
            and tbl.budget_swap() + overflow > self.o_thresh[kind]
        ):
            return False
        if phys:
            tbl.allocate(owner, phys, Placement.PHYSICAL)
        if overflow:
            tbl.allocate(owner, overflow, Placement.SWAP, forced=forced)
            if not forced and tbl.budget_swap() > self.o_thresh[kind]:
                self.budget_violations += 1
        return True

    def _pass_scratch(self, warp: WarpRecord, forced: bool) -> bool:
        tbl = self.tables[ResourceKind.SCRATCHPAD]
        delta = warp.scratch_sets_needed - tbl.owned(warp.block_id)
        return self._try_alloc(ResourceKind.SCRATCHPAD, warp.block_id, delta, forced)

    def _pass_reg(self, warp: WarpRecord, forced: bool) -> bool:
        tbl = self.tables[ResourceKind.REGISTER]
        delta = warp.reg_sets_needed - tbl.owned(warp.wid)
        return self._try_alloc(ResourceKind.REGISTER, warp.wid, delta, forced)

    def _advance(self, warp: WarpRecord):
        """Move a warp that just passed its current stage to the next one."""
        if warp.state is WarpState.PENDING_THREAD:
            self._enqueue(warp, WarpState.PENDING_SCRATCH, self._scratch_q)
        elif warp.state is WarpState.PENDING_SCRATCH:
            self._enqueue(warp, WarpState.PENDING_REG, self._reg_q)
        else:
            warp.state = WarpState.SCHEDULABLE
            self._effects.append(("schedulable", warp.wid))

    _STAGE = {
        WarpState.PENDING_THREAD: "_pass_thread",
        WarpState.PENDING_SCRATCH: "_pass_scratch",
        WarpState.PENDING_REG: "_pass_reg",
    }

    def _retry_queue(self, state: WarpState, queue: deque) -> bool:
        members = [
            self.warps[wid]
            for seq, wid in queue
            if self.warps[wid].state is state and self.warps[wid].enqueue_seq == seq
        ]
        # warps holding more resources go first; FIFO among equals
        members.sort(key=lambda w: (-self._held(w.wid), w.enqueue_seq))
        pass_stage: Callable[[WarpRecord, bool], bool] = getattr(self, self._STAGE[state])
        progressed = False
        for w in members:
            if pass_stage(w, False):
                progressed = True
                self._advance(w)
        queue.clear()
        queue.extend(
            sorted((w.enqueue_seq, w.wid) for w in members if w.state is state)
        )
        return progressed

    def retry_all_queues(self):
        """Drain the queues to a fixpoint, register stage first.

        Swap-resident sets of already-running warps are promoted back on
        chip before any new admission, so freed capacity first relieves
        warps paying round-trip latency and only then admits more work.
        """
        self._promote_swapped()
        while True:
            progressed = self._retry_queue(WarpState.PENDING_REG, self._reg_q)
            progressed |= self._retry_queue(WarpState.PENDING_SCRATCH, self._scratch_q)
            progressed |= self._retry_queue(WarpState.PENDING_THREAD, self._thread_q)
            if not progressed:
                return

    # -- events from the engine -------------------------------------------

    def can_accept_block(self, warps: int) -> bool:
        """New blocks enter at launch and whenever a block completes, while
        logical block and warp ids remain."""
        return (
            self._block_completed
            and self.live_blocks() < self.arch.max_logical_blocks
            and self.live_warps() + warps <= self.arch.max_logical_warps
        )

    def on_block_arrival(
        self, bid: int, wids: tuple[int, ...], reg_sets: int, scratch_sets: int
    ):
        self.blocks[bid] = BlockRecord(bid=bid, warp_ids=wids)
        for wid in wids:
            w = WarpRecord(
                wid=wid,
                block_id=bid,
                reg_sets_needed=reg_sets,
                scratch_sets_needed=scratch_sets,
            )
            self.warps[wid] = w
            self._enqueue(w, WarpState.PENDING_THREAD, self._thread_q)
        self.retry_all_queues()

    def _shrink_block_scratch(self, bid: int):
        block = self.blocks[bid]
        tbl = self.tables[ResourceKind.SCRATCHPAD]
        demand = max(
            (
                self.warps[wid].scratch_sets_needed
                for wid in block.warp_ids
                if self.warps[wid].state is not WarpState.FINISHED
            ),
            default=0,
        )
        held = tbl.owned(bid)
        if held > demand:
            tbl.free(bid, held - demand)

    def on_phase_change(self, wid: int, reg_sets: int, scratch_sets: int) -> bool:
        """Apply a schedulable warp's new phase demands.

        Returns True if the warp stays schedulable, False if it had to
        re-enter an admission queue.  A warp waiting for scratchpad may not
        sit on register sets, so scratch growth releases them all first.
        """
        w = self.warps[wid]
        if w.state is not WarpState.SCHEDULABLE:
            return False
        regs = self.tables[ResourceKind.REGISTER]
        scratch = self.tables[ResourceKind.SCRATCHPAD]
        w.reg_sets_needed = reg_sets
        w.scratch_sets_needed = scratch_sets
        still = True
        if scratch_sets > scratch.owned(w.block_id):
            regs.free_all(wid)
            self._enqueue(w, WarpState.PENDING_SCRATCH, self._scratch_q)
            still = False
        elif reg_sets > regs.owned(wid):
            self._enqueue(w, WarpState.PENDING_REG, self._reg_q)
            still = False
        else:
            held = regs.owned(wid)
            if held > reg_sets:
                regs.free(wid, held - reg_sets)
        self._shrink_block_scratch(w.block_id)
        self.retry_all_queues()
        return still

    def on_barrier(self, wid: int) -> bool:
        """Hold the warp at its barrier; True when it was the last of its
        block to arrive."""
        w = self.warps[wid]
        w.state = WarpState.AT_BARRIER
        w.barrier_seq = self._next_seq()
        block = self.blocks[w.block_id]
        block.barrier_arrivals += 1
        # a parkable warp appeared, so slot waiters may now pass
        self.retry_all_queues()
        return block.barrier_arrivals == block.size

    def release_barrier(self, bid: int):
        block = self.blocks[bid]
        for wid in block.warp_ids:
            w = self.warps[wid]
            if w.state is WarpState.AT_BARRIER:
                w.state = WarpState.SCHEDULABLE
                self._effects.append(("schedulable", wid))
            elif w.state is WarpState.PARKED:
                self._enqueue(w, WarpState.PENDING_THREAD, self._thread_q)
        block.barrier_arrivals = 0
        self.retry_all_queues()

    def on_warp_finished(self, wid: int) -> bool:
        """Release everything the warp holds; True when its block completed."""
        w = self.warps[wid]
        self.tables[ResourceKind.REGISTER].free_all(wid)
        self.tables[ResourceKind.WARP_SLOT].free_all(wid)
        w.state = WarpState.FINISHED
        block = self.blocks[w.block_id]
        block.finished_warps += 1
        done = block.finished_warps == block.size
        if done:
            self.tables[ResourceKind.SCRATCHPAD].free_all(block.bid)
        else:
            self._shrink_block_scratch(block.bid)
        self._block_completed = done
        self.retry_all_queues()
        return done

    def on_epoch(self, d_idle: int, d_mem: int):
        """Controller update, promotion and retries, fresh accounting window."""
        if self.cfg.fixed_o_thresh_frac is None:
            for kind in ResourceKind:
                cap = self.arch.physical_capacity(kind)
                self.o_thresh[kind] = adjust_o_thresh(
                    self.o_thresh[kind],
                    cap,
                    step=int(self.cfg.step_frac * cap),
                    d_idle=d_idle,
                    d_mem=d_mem,
                    delta_threshold=self.cfg.stall_delta_threshold,
                    hard_cap=int(self.cfg.hard_cap_frac * cap),
                )
        self.retry_all_queues()
        for tbl in self.tables.values():
            tbl.reset_access_window()

    def _promote_swapped(self):
        """Migrate swap sets back on chip while physical space is free.

        Hottest first; guard-forced sets promote too, clearing their
        budget exemption.  This also drains any budget overshoot a
        threshold drop leaves behind.
        """
        for kind in (ResourceKind.REGISTER, ResourceKind.SCRATCHPAD):
            tbl = self.tables[kind]
            for owner, logical in tbl.swap_keys_by_heat(include_forced=True):
                if tbl.free_physical == 0:
                    break
                tbl.migrate_in(owner, logical)

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

    def access_cost(self, w: WarpRecord, op: Opcode) -> int:
        """Extra cycles the mapping tables add to one issued instruction.

        Every register access consults the register table and every
        scratchpad access also the scratchpad table; each consult costs the
        pipeline penalty, and touching a set in swap a memory round trip.
        """
        if op is Opcode.BARRIER or op is Opcode.PHASE_SPEC:
            return 0
        extra = 0
        n = self.tables[ResourceKind.REGISTER].owned(w.wid)
        if n:
            extra += self.arch.mapping_table_penalty_cycles
            if self.access_register(w.wid, self._locality(w, n)):
                extra += self.arch.memory_latency_cycles
        if op in SCRATCH_OPCODES:
            m = self.tables[ResourceKind.SCRATCHPAD].owned(w.block_id)
            if m:
                extra += self.arch.mapping_table_penalty_cycles
                if self.access_scratch(w.block_id, self._locality(w, m)):
                    extra += self.arch.memory_latency_cycles
        self.tables[ResourceKind.WARP_SLOT].note_access()
        return extra

    def _resolve_swap(self, kind: ResourceKind, owner: int, logical: int):
        tbl = self.tables[kind]
        if tbl.free_physical > 0:
            tbl.migrate_in(owner, logical)
        elif self.cfg.migrate_on_spilled_access:
            tbl.spill_lfu(1)
            tbl.migrate_in(owner, logical)

    def access_register(self, wid: int, logical: int) -> bool:
        """Touch one register set; True means it was in swap (round trip)."""
        tbl = self.tables[ResourceKind.REGISTER]
        if tbl.lookup(wid, logical) is Placement.SWAP:
            self._resolve_swap(ResourceKind.REGISTER, wid, logical)
            return True
        return False

    def access_scratch(self, bid: int, logical: int) -> bool:
        tbl = self.tables[ResourceKind.SCRATCHPAD]
        if tbl.lookup(bid, logical) is Placement.SWAP:
            self._resolve_swap(ResourceKind.SCRATCHPAD, bid, logical)
            return True
        return False

    # -- engine queries and result counters -----------------------------------

    def pending_work(self) -> bool:
        return self.pending_count() > 0

    @property
    def retunes(self) -> bool:
        """Whether the controller may loosen admission at the next epoch."""
        return self.cfg.fixed_o_thresh_frac is None

    def access_totals(self) -> dict[ResourceKind, tuple[int, int]]:
        return {kind: (t.total_accesses, t.swap_accesses) for kind, t in self.tables.items()}

    def final_thresholds(self) -> dict[str, int]:
        return {kind.value: v for kind, v in self.o_thresh.items()}

    # -- deadlock guard -----------------------------------------------------

    def _slot_stage_feasible(self) -> bool:
        if self.tables[ResourceKind.WARP_SLOT].free_physical > 0:
            return True
        return any(w.state is WarpState.AT_BARRIER for w in self.warps.values())

    def deadlock_guard(self) -> bool:
        """Force-admit the oldest satisfiable pending warp, one per call.

        Only fires when schedulable warps have dropped below the configured
        fraction of physical slots.  Forced allocations bypass and do not
        consume the oversubscription budget.
        """
        if not self.cfg.guard_enabled:
            return False
        limit = self.cfg.guard_min_schedulable_frac * self.arch.warp_slots_per_sm
        if self.schedulable_count() >= limit:
            return False
        pending = [w for w in self.warps.values() if w.state in _PENDING]
        pending.sort(key=lambda w: w.enqueue_seq)
        for w in pending:
            if w.state is WarpState.PENDING_THREAD and not self._slot_stage_feasible():
                continue
            while w.state is not WarpState.SCHEDULABLE:
                pass_stage = getattr(self, self._STAGE[w.state])
                if not pass_stage(w, True):
                    raise RuntimeError("forced admission stage failed")
                self._advance(w)
            self.guard_admissions += 1
            self._effects.append(("forced", w.wid))
            self.retry_all_queues()
            return True
        return False

    # -- validation -----------------------------------------------------------

    def check_invariants(self) -> list[str]:
        errors = []
        for tbl in self.tables.values():
            errors.extend(tbl.check_invariants())
        regs = self.tables[ResourceKind.REGISTER]
        slots = self.tables[ResourceKind.WARP_SLOT]
        for w in self.warps.values():
            if w.state in (WarpState.PENDING_THREAD, WarpState.PENDING_SCRATCH):
                if regs.owned(w.wid):
                    errors.append(f"warp {w.wid} holds registers while in {w.state.value}")
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
            if w.state is WarpState.FINISHED and (regs.owned(w.wid) or slots.owned(w.wid)):
                errors.append(f"warp {w.wid} finished but still owns resources")
        for kind in ResourceKind:
            cap = self.arch.physical_capacity(kind)
            if not 0 <= self.o_thresh[kind] <= cap:
                errors.append(f"{kind.value} threshold out of range")
        if self.budget_violations:
            errors.append(
                f"{self.budget_violations} admissions exceeded the swap budget"
            )
        return errors
