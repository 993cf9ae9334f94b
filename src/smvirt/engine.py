"""Cycle-approximate engine for one kernel launch across the SMs of a GPU.

Each SM runs two instruction schedulers that issue greedily from their
current warp and fall back to the oldest ready one.  One loop,
_SMRun.run, simulates the cycles, and skips those whose outcome is
known (see _SMRun).  Global memory round trips take a fixed latency and
share a fixed number of in-flight slots, so they complete in issue order;
past the cap a request starts when the oldest outstanding one completes.
Arithmetic and scratchpad accesses complete in one cycle.  Under the
virtualizing policy every register access consults the register mapping
table and every scratchpad access additionally consults the scratchpad
table, each consult adding a fixed pipeline penalty to that warp, and
touching a set that lives in swap costs a full memory round trip.

Every simulated cycle lands in exactly one accounting bucket: at least
one instruction issued; memory stall (schedulable warps exist but all wait
on latency); idle (nothing is schedulable and the deadlock guard admits
nobody, so the run waits for the next epoch if its admission retunes and
is wedged if not).  Counters accrue per epoch, and admission gets each
closed epoch: an admission that retunes does so from the epoch-over-epoch
deltas of the idle and memory buckets, and runs its deadlock guard.

Blocks are distributed round-robin over the SMs; SMs with equal block
counts behave identically, so one replica is simulated per distinct count
and the launch finishes when the slowest replica does.

The event log and per-epoch utilization are opt-in: where either is asked
for, one recorder per replica observes the run and never steers it.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, fields
from fractions import Fraction
from operator import attrgetter
from typing import Optional, Union

from .coordinator import OversubscriptionConfig
from .kernel_model import WARP_WIDTH, KernelSpec, Opcode, ResourceSpecification
from .phase_compiler import annotate_phases
from .registry import BlockRecord, WarpRecord, WarpState
from .resource_maps import ArchConfig, ResourceKind, get_arch
from .policies import Policy, admission_limits, make_admission

DEFAULT_CYCLE_CAP = 30_000_000


class NonTerminationError(RuntimeError):
    """Simulation exceeded its cycle cap or wedged with no way forward."""


class EventKind(enum.IntEnum):
    """End-of-cycle event precedence (lower value handled first)."""

    BLOCK_ARRIVAL = 0
    PHASE_CHANGE = 1
    BARRIER_REACHED = 2
    WARP_FINISHED = 3
    BLOCK_FINISHED = 4
    EPOCH_TICK = 5


# module-level aliases for the per-instruction path: an Enum member lookup
# costs far more than a global name
_LD_GLOBAL = Opcode.LD_GLOBAL
_ST_GLOBAL = Opcode.ST_GLOBAL
_BARRIER = Opcode.BARRIER
_PHASE_SPEC = Opcode.PHASE_SPEC
_PHASE_CHANGE = EventKind.PHASE_CHANGE
_BARRIER_REACHED = EventKind.BARRIER_REACHED
_WARP_FINISHED = EventKind.WARP_FINISHED
_EPOCH_TICK = EventKind.EPOCH_TICK
_SCHEDULABLE = WarpState.SCHEDULABLE
_NEVER = 1 << 62  # the scan's wake before it sees a warp: later than any cycle

# the epoch counters a launch sums over its SMs, named alike in SimResult
_SUMMED_EPOCH_FIELDS = ("issued_instructions", "issued_cycles", "c_idle", "c_mem", "barrier_stall")
_summed_epoch_fields = attrgetter(*_SUMMED_EPOCH_FIELDS)


@dataclass(frozen=True)
class EpochStats:
    index: int
    issued_instructions: int
    issued_cycles: int
    c_idle: int
    c_mem: int
    barrier_stall: int
    reg_swap_accesses: int
    scratch_swap_accesses: int
    slot_swap_accesses: int

    @property
    def span(self) -> int:
        return self.issued_cycles + self.c_idle + self.c_mem + self.barrier_stall


def _mean_defined(values: tuple[Optional[float], ...]) -> Optional[float]:
    defined = [v for v in values if v is not None]
    return sum(defined) / len(defined) if defined else None


@dataclass(frozen=True)
class UtilizationReport:
    """Per-epoch fraction of statically allocated space that was live.

    Each entry is the mean over the epoch's cycles of live/allocated for
    that resource; None where the resource was never allocated during the
    epoch (no block in flight, or the kernel declares none of it).
    """

    register_per_epoch: tuple[Optional[float], ...]
    scratch_per_epoch: tuple[Optional[float], ...]

    @property
    def register_utilization(self) -> Optional[float]:
        return _mean_defined(self.register_per_epoch)

    @property
    def scratch_utilization(self) -> Optional[float]:
        return _mean_defined(self.scratch_per_epoch)


@dataclass(frozen=True)
class SimResult:
    kernel_name: str
    policy: str
    arch: str
    seed: int
    spec: ResourceSpecification
    cycles: int
    issued_instructions: int
    issued_cycles: int
    c_idle: int
    c_mem: int
    barrier_stall: int
    reg_hit_rate: float
    scratch_hit_rate: float
    slot_hit_rate: float
    mean_schedulable_warps: float
    blocks_in_flight_min: int
    blocks_in_flight_max: int
    guard_admissions: int
    o_thresh_final: dict[str, int]
    epochs: tuple[EpochStats, ...]
    utilization: Optional[UtilizationReport] = None
    event_log: Optional[tuple[tuple[int, str, int], ...]] = None

    def to_dict(self) -> dict:
        """Every field but the event log, in field order: kernel_name as
        "kernel", the spec's fields inline, and the utilization with its
        means.  Goldens and reference digests hash the JSON of this dict.

        vars() of the nested dataclasses is their fields in order, and far
        cheaper than asdict, which deep-copies every value.
        """
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "spec":
                out.update(vars(value))
            elif f.name == "epochs":
                out[f.name] = [dict(vars(e)) for e in value]
            elif f.name == "utilization" and value is not None:
                out[f.name] = {
                    **vars(value),
                    "register_utilization": value.register_utilization,
                    "scratch_utilization": value.scratch_utilization,
                }
            elif f.name != "event_log":
                out["kernel" if f.name == "kernel_name" else f.name] = value
        return out


class _MemSystem:
    """Global memory with a bounded number of in-flight round trips.

    Requests come at a clock that never goes back and take a fixed
    latency, so they complete in issue order and the slots are a FIFO of
    completion times.  A request past the cap starts when the oldest
    outstanding one completes, and its append evicts that one.
    """

    def __init__(self, latency: int, max_inflight: int):
        self.latency = latency
        self._slots: deque[int] = deque(maxlen=max_inflight)

    def request(self, now: int) -> int:
        slots = self._slots
        if len(slots) == slots.maxlen and slots[0] > now:
            now = slots[0]
        done = now + self.latency
        slots.append(done)
        return done


class _Recorder:
    """The opt-in recorders of one SM replica, fed by two engine calls:
    event for every event the engine logs, and sample for the cycles it
    simulates, called only where the recorder samples.

    The event log, where asked for, is each event's (cycle, kind name,
    id).  Utilization is the per-epoch mean of live/allocated registers
    and scratchpad.  A sample reads each warp's live set off its pc: the
    entry set before its first issue, then the set after the instruction
    it last issued.  Finished warps sit past the end, and so do warps at
    a trailing barrier, which every warp of a block reaches before any
    finishes; past any other last instruction a warp has finished by the
    next sample.  A block's live scratchpad is the most any warp holds.
    The live space is summed exactly, per count of blocks in flight, and
    an epoch's mean is rounded once, so constant liveness reads exactly
    its fraction.  An EPOCH_TICK event closes the utilization epoch, and
    report closes the last, partial one if it sampled any cycles.
    """

    def __init__(self, kernel: KernelSpec, registry, collect_util: bool, log_events: bool):
        body = kernel.body
        spec = kernel.resource_spec
        self.samples = collect_util
        self.log: Optional[list[tuple[int, str, int]]] = [] if log_events else None
        self.blocks: dict[int, BlockRecord] = registry.blocks
        self.warps: dict[int, WarpRecord] = registry.warps
        self.wpb = spec.warps_per_block
        # a warp's live registers and scratchpad, indexed by its pc; a
        # specifier has no liveness of its own, so past one a warp holds
        # what the instruction after it leaves live
        after = [body[pc + 1] if ins.opcode is _PHASE_SPEC else ins for pc, ins in enumerate(body)]
        self.regs_at = [i.live_regs_after * WARP_WIDTH for i in after[:1] + after]
        self.scratch_at = [i.live_scratch_after for i in after[:1] + after]
        if body[-1].opcode is not _BARRIER:
            self.regs_at[-1] = self.scratch_at[-1] = 0
        self.blk_regs = spec.threads_per_block * spec.regs_per_thread
        self.blk_scr = spec.scratch_bytes_per_block
        # blocks in flight -> the epoch's live register and scratchpad sums
        self.sums: dict[int, list[int]] = {}
        self.cycles = 0
        self.reg_frac: list[Optional[float]] = []
        self.scr_frac: list[Optional[float]] = []

    def event(self, now: int, kind: EventKind, ident: int):
        if self.log is not None:
            self.log.append((now, kind.name, ident))
        if kind is _EPOCH_TICK:
            self._close_epoch()

    def sample(self, delta: int):
        """Integrate live space over the next delta cycles; a cycle is
        sampled only while a block is in flight."""
        warps = self.warps.values()
        regs_at = self.regs_at
        live_regs = sum([regs_at[w.pc] for w in warps])
        if regs_at[-1]:
            # the finished warps past the end hold no registers
            live_regs -= regs_at[-1] * sum([b.finished_warps for b in self.blocks.values()])
        live_scr = 0
        if self.blk_scr:
            # the registry lists each block's warps together, wpb of them
            scratch_at = self.scratch_at
            live = iter([scratch_at[w.pc] for w in warps])
            live_scr = sum(map(max, zip(*[live] * self.wpb)))
        sums = self.sums.setdefault(len(self.blocks), [0, 0])
        sums[0] += delta * live_regs
        sums[1] += delta * live_scr
        self.cycles += delta

    def _close_epoch(self):
        reg = scr = None
        if self.cycles:
            # k blocks in flight allocate k blocks' space: the sums weigh 1/k
            per_block = [(Fraction(r, k), Fraction(s, k)) for k, (r, s) in self.sums.items()]
            reg = float(sum(r for r, _ in per_block) / (self.cycles * self.blk_regs))
            if self.blk_scr:
                scr = float(sum(s for _, s in per_block) / (self.cycles * self.blk_scr))
        self.reg_frac.append(reg)
        self.scr_frac.append(scr)
        self.sums = {}
        self.cycles = 0

    def report(self) -> UtilizationReport:
        if self.cycles:
            self._close_epoch()
        return UtilizationReport(tuple(self.reg_frac), tuple(self.scr_frac))


class _SMRun:
    """One SM executing n_blocks copies of the kernel's block.

    The admission object decides which warps may run (see policies.py);
    the engine schedules and issues them and turns what happens into the
    admission hooks, passing phase specifiers on as they are: it never
    counts sets.  Where the admission's access_plan is None, issuing costs
    it nothing and a specifier changes nothing, so a specifier issues as
    a plain instruction and raises no event, unless a recorder is on: it
    sees the phase change.  Warps and blocks live in the admission's
    registry, and so do the scheduler lists the loop issues from and the
    schedulable count: the engine keeps no copy of which warps may issue.
    The engine reaches rec, the opt-in _Recorder or None, only through
    _log, which hands it every event, and its sample, bound in run where
    rec.samples is set.

    run is the one cycle loop.  Each cycle makes one pass over the
    scheduler lists: a scheduler picks its greedy warp if that is ready
    and still schedulable, else the first ready warp of its list, which is
    the oldest.  If any scheduler picks, every pick issues and becomes its
    scheduler's greedy warp; the events the issues raised then run in
    (kind, wid) order while now is still the issue cycle, then the epoch
    tick if the next cycle starts an epoch, and now advances by one.  If
    none picks, the stall skip moves the clock to the earliest next_ready
    seen or to the epoch boundary.  The issue skip runs after an issue
    cycle that raised no event, when the admission charges no accesses
    (its access_plan is None), the recorder, if any, does not sample, and
    every pick is ready in the next cycle.  It advances k cycles at once,
    each pick's pc and next_ready by k, where k is the smallest of three
    bounds: the picks' plain[pc], so no pick reaches an instruction that
    raises an event or makes a memory request (a global load or store, a
    barrier, a warp's last instruction, and a specifier only in a recorded
    run); wake - 1 - now, so no idle scheduler's warp wakes inside the
    skip; and boundary - 1 - now, so the skip ends no later than the
    epoch's last cycle, whose normal tick check then runs.  A cycle_cap
    inside the skip raises at the top of the next pass, as it would have
    in the cycles skipped.  A scheduler's greedy warp changes only in a
    cycle that issues.

    The pass and the issue are inline in run over names bound before the
    loop: a per-pc opcode list, the admission's access_plan: None, or per
    pc the entry access_cost is given, and request, which books a global
    load or store in the memory FIFO.  The clock, the next epoch boundary
    and the per-cycle counters (ep_issued, ep_issue_cycles,
    sched_integral, last_issue) are locals; run writes the clock back
    before a hook runs, and the counters before an epoch tick and at the
    end.  One list made before the loop collects each
    cycle's events.  The events and the epoch tick go through the methods
    below, and _finish derives the figures.

    Before the hooks of one occasion the engine sets the admission's
    wake, the first cycle a warp they admit may issue in: now for a block
    arrival and the run loop's deadlock guard, now + 1 for the
    end-of-cycle and epoch hooks.  Admission raises each admitted warp's
    next_ready to it and lists the warp in admitted.  _retire_admitted is
    the one loop that walks that list, in admission order, and clears it.
    A warp admitted past its last instruction (its kernel ends in a
    barrier) is finished by that loop; the finish and the block dispatch
    it triggers only call hooks, which append to the list being walked,
    so the loop is never entered while it runs.
    """

    def __init__(
        self,
        kernel: KernelSpec,
        adm,
        arch: ArchConfig,
        n_blocks: int,
        debug: bool,
        cycle_cap: int,
        rec: Optional[_Recorder],
    ):
        self.body = kernel.body
        self.adm = adm
        self.arch = arch
        self.debug = debug
        self.cycle_cap = cycle_cap
        self.rec = rec
        self.wpb = kernel.resource_spec.warps_per_block
        self.remaining = n_blocks

        self.now = self.last_issue = 0
        self.warps: dict[int, WarpRecord] = adm.warps
        self.blocks: dict[int, BlockRecord] = adm.blocks
        self.next_bid = 0
        self.bif_min: Optional[int] = None
        self.bif_max = 0
        self.mem = _MemSystem(arch.memory_latency_cycles, arch.max_inflight_mem_requests)

        self.epochs: list[EpochStats] = []
        self.ep_issued = self.ep_issue_cycles = self.ep_idle = self.ep_mem = 0
        self.ep_swap_snap = (0, 0, 0)
        self.sched_integral = 0

    # -- logging / accounting helpers ------------------------------------

    def _log(self, kind: EventKind, ident: int):
        if self.rec is not None:
            self.rec.event(self.now, kind, ident)

    def _swap_snapshot(self) -> tuple[int, ...]:  # in ResourceKind order
        totals = self.adm.access_totals()
        return tuple(totals[kind][1] for kind in ResourceKind)

    # -- block dispatch -----------------------------------------------------

    def _dispatch(self):
        """Start every block admission accepts, then record blocks in flight."""
        while self.remaining and self.adm.can_accept_block(self.wpb):
            self._start_block()
        in_flight = len(self.blocks)
        if in_flight > self.bif_max:
            self.bif_max = in_flight
        if self.remaining and (self.bif_min is None or in_flight < self.bif_min):
            self.bif_min = in_flight

    def _start_block(self):
        bid = self.next_bid
        self.next_bid += 1
        wids = tuple(range(bid * self.wpb, (bid + 1) * self.wpb))
        self.remaining -= 1
        self._log(EventKind.BLOCK_ARRIVAL, bid)
        self.adm.wake = self.now
        # the kernel's entry phase specifier
        self.adm.on_block_arrival(bid, wids, self.body[0].phase_payload)

    def _retire_admitted(self):
        """Finish, in admission order, each warp admitted past its last
        instruction (its kernel ends in a barrier), then clear the list; a
        finish's hooks append to it while it is walked."""
        admitted, n_body = self.adm.admitted, len(self.body)
        for w in admitted:
            if w.pc >= n_body:
                self._finish_warp(w)
        admitted.clear()

    # -- end-of-cycle events ----------------------------------------------

    def _finish_warp(self, w: WarpRecord):
        wid = w.wid
        self._log(_WARP_FINISHED, wid)
        self.adm.wake = self.now + 1
        self.adm.on_warp_finished(wid)
        if w.block_id not in self.blocks:  # the registry drops a block as it completes
            self._log(EventKind.BLOCK_FINISHED, w.block_id)
        # refill before sampling: the freed resources admit the next
        # block in the same cycle, so the dip is never observable
        self._dispatch()

    def _handle_event(self, kind: EventKind, wid: int):
        w = self.warps[wid]
        if kind is _WARP_FINISHED:
            self._finish_warp(w)
        else:
            self._log(kind, wid)
            self.adm.wake = self.now + 1
            if kind is _PHASE_CHANGE:
                # the specifier the warp issued: no hook moves a pc
                self.adm.on_phase_change(wid, self.body[w.pc - 1].phase_payload)
            elif self.adm.on_barrier(wid):
                self.adm.release_barrier(w.block_id)
        self._retire_admitted()

    # -- epochs ------------------------------------------------------------

    def _close_epoch(self):
        swap_now = self._swap_snapshot()
        stats = EpochStats(
            index=len(self.epochs),
            issued_instructions=self.ep_issued,
            issued_cycles=self.ep_issue_cycles,
            c_idle=self.ep_idle,
            c_mem=self.ep_mem,
            barrier_stall=0,  # no stall is a barrier's; goldens and digests hash the field
            reg_swap_accesses=swap_now[0] - self.ep_swap_snap[0],
            scratch_swap_accesses=swap_now[1] - self.ep_swap_snap[1],
            slot_swap_accesses=swap_now[2] - self.ep_swap_snap[2],
        )
        self.epochs.append(stats)
        self.ep_issued = self.ep_issue_cycles = self.ep_idle = self.ep_mem = 0
        self.ep_swap_snap = swap_now
        return stats

    def _epoch_tick(self):
        stats = self._close_epoch()
        self._log(_EPOCH_TICK, stats.index)
        self.adm.wake = self.now + 1
        self.adm.on_epoch(stats)
        self._retire_admitted()
        if self.debug and (problems := self.adm.check_invariants()):
            raise RuntimeError("invariant violation: " + "; ".join(problems))

    # -- main loop -----------------------------------------------------------

    def run(self) -> "_SMRun":
        """Simulate to completion; the finished run carries its figures."""
        self._dispatch()
        self._retire_admitted()
        adm = self.adm
        part = adm.sched_lists
        blocks = self.blocks
        body = self.body
        n_body = len(body)
        ops = [ins.opcode for ins in body]
        plan = adm.access_plan(body)
        access_cost = None if plan is None else adm.access_cost
        request = self.mem.request
        epoch_cycles = self.arch.epoch_cycles
        cycle_cap = self.cycle_cap
        rec = self.rec
        sample = rec.sample if rec is not None and rec.samples else None
        # the opcode that raises a phase change: none where admission
        # charges nothing, so a specifier changes nothing, unless a
        # recorder sees it
        spec_op = None if plan is None and rec is None else _PHASE_SPEC
        plain = None
        if plan is None and sample is None:
            # plain[pc]: how many instructions from pc on raise no event
            # and make no memory request; a warp's last instruction raises
            # its finish, and admission that charges nothing costs none
            plain = [0] * (n_body + 1)
            for i in range(n_body - 2, -1, -1):
                if ops[i] not in (_LD_GLOBAL, _ST_GLOBAL, _BARRIER, spec_op):
                    plain[i] = plain[i + 1] + 1
        greedy, schedulers = [None] * len(part), range(len(part))
        pending = []
        now = self.now
        boundary = (now // epoch_cycles + 1) * epoch_cycles
        ep_issued, ep_issue_cycles = self.ep_issued, self.ep_issue_cycles
        sched_integral, last_issue = self.sched_integral, self.last_issue
        while blocks or self.remaining:
            if now >= cycle_cap:
                raise NonTerminationError(f"no completion within {cycle_cap} cycles")
            picks, picked, wake = greedy[:], False, _NEVER
            for sid in schedulers:
                cur = picks[sid]
                if cur is None or cur.next_ready > now or cur.state is not _SCHEDULABLE:
                    # the list is in wid order, so the first ready warp is the oldest
                    cur = None
                    for w in part[sid]:
                        nr = w.next_ready
                        if nr <= now:
                            cur = w
                            picked = True
                            break
                        if nr < wake:
                            wake = nr
                    picks[sid] = cur
                else:
                    picked = True
            if picked:
                if sample is not None:
                    sample(1)
                sched_integral += adm.n_schedulable
                greedy = picks
                issued = 0
                for w in picks:
                    if w is None:
                        continue
                    pc = w.pc
                    op = ops[pc]
                    extra = 0 if plan is None else access_cost(w, plan[pc])
                    if op is _LD_GLOBAL:
                        w.next_ready = request(now) + extra
                    else:
                        if op is _ST_GLOBAL:
                            request(now)  # fire and forget, holds a slot only
                        w.next_ready = now + 1 + extra
                    w.pc = pc + 1
                    issued += 1
                    if op is _BARRIER:
                        pending.append((_BARRIER_REACHED, w.wid))
                    else:
                        if op is spec_op:
                            pending.append((_PHASE_CHANGE, w.wid))
                        if pc + 1 == n_body:
                            pending.append((_WARP_FINISHED, w.wid))
                ep_issued += issued
                ep_issue_cycles += 1
                last_issue = tick = now
                if pending:
                    self.now = now
                    pending.sort()
                    for kind, wid in pending:
                        self._handle_event(kind, wid)
                    pending.clear()
                elif plain is not None:
                    # the issue skip, to the first of its three bounds; a
                    # cycle_cap inside it raises at the top of the loop
                    k = min(boundary, wake) - 1 - now
                    for w in picks:
                        if w is not None:
                            if w.next_ready != now + 1:
                                k = 0
                                break
                            if plain[w.pc] < k:
                                k = plain[w.pc]
                    if k > 0:
                        for w in picks:
                            if w is not None:
                                w.pc += k
                                w.next_ready += k
                        ep_issued += issued * k
                        ep_issue_cycles += k
                        sched_integral += adm.n_schedulable * k
                        last_issue = tick = now = now + k
                now += 1
            else:
                if wake == _NEVER:
                    # nothing schedulable at all; force progress or give up
                    self.now = adm.wake = now
                    if adm.deadlock_guard():
                        self._retire_admitted()
                        continue
                    if not adm.retunes:
                        raise NonTerminationError("wedged with no runnable warps")
                    # fall through: skip to the epoch boundary and let the
                    # controller retune admission
                delta = min(wake, boundary) - now
                if sample is not None:
                    sample(delta)
                n_sched = adm.n_schedulable
                if n_sched:
                    sched_integral += n_sched * delta
                    self.ep_mem += delta
                else:
                    self.ep_idle += delta
                now = tick = now + delta
            if now == boundary:
                self.now = tick
                self.ep_issued, self.ep_issue_cycles = ep_issued, ep_issue_cycles
                self._epoch_tick()
                ep_issued = ep_issue_cycles = 0
                boundary += epoch_cycles
        self.ep_issued, self.ep_issue_cycles = ep_issued, ep_issue_cycles
        self.sched_integral, self.last_issue = sched_integral, last_issue
        return self._finish()

    def _finish(self) -> "_SMRun":
        """Close the last epoch and derive the run's figures."""
        if self.ep_issued or self.ep_issue_cycles or self.ep_idle or self.ep_mem:
            self._close_epoch()
        if self.debug and (problems := self.adm.check_invariants()):
            raise RuntimeError("invariant violation: " + "; ".join(problems))
        self.cycles = self.last_issue + 1
        if self.bif_min is None:  # every block arrived at launch
            self.bif_min = self.bif_max
        return self


def _per_sm_block_counts(num_blocks: int, num_sms: int) -> dict[int, int]:
    """Round-robin distribution: map per-SM block count -> SM multiplicity."""
    base, extra = divmod(num_blocks, num_sms)
    counts: dict[int, int] = {}
    if extra:
        counts[base + 1] = extra
    if base and num_sms - extra:
        counts[base] = num_sms - extra
    return counts


def run(
    kernel: KernelSpec,
    policy: Union[Policy, str],
    arch: Union[ArchConfig, str] = "fermi",
    seed: int = 0,
    *,
    oversub: Optional[OversubscriptionConfig] = None,
    debug: bool = False,
    cycle_cap: int = DEFAULT_CYCLE_CAP,
    collect_util: bool = False,
    log_events: bool = False,
) -> SimResult:
    """Simulate one kernel launch and aggregate across SM replicas.

    A source kernel is phase-compiled first, under every policy.  The
    engine is deterministic; the seed is recorded for provenance only.
    """
    if isinstance(policy, str):
        policy = Policy.from_name(policy)
    if isinstance(arch, str):
        arch = get_arch(arch)
    if oversub is None:
        oversub = OversubscriptionConfig()
    if not kernel.is_compiled:
        kernel = annotate_phases(kernel)

    limits = admission_limits(policy, kernel, arch)
    counts = _per_sm_block_counts(kernel.resource_spec.num_blocks, arch.num_sms)
    sms: dict[int, _SMRun] = {}
    for count in sorted(counts, reverse=True):
        adm = make_admission(policy, limits, arch, oversub)
        rec = None
        if collect_util or log_events:
            rec = _Recorder(kernel, adm, collect_util, log_events)
        sms[count] = _SMRun(kernel, adm, arch, count, debug, cycle_cap, rec).run()
    critical = sms[max(sms, key=lambda c: (sms[c].cycles, c))]

    # per-SM figures summed over every SM of the launch, one walk per replica
    summed = dict.fromkeys(_SUMMED_EPOCH_FIELDS, 0)
    accesses = dict.fromkeys(ResourceKind, (0, 0))
    guard_admissions = 0
    for c, sm in sms.items():
        n = counts[c]
        for e in sm.epochs:
            for name, value in zip(_SUMMED_EPOCH_FIELDS, _summed_epoch_fields(e)):
                summed[name] += n * value
        for kind, (tot, swap) in sm.adm.access_totals().items():
            accesses[kind] = (accesses[kind][0] + n * tot, accesses[kind][1] + n * swap)
        guard_admissions += n * sm.adm.guard_admissions
    rates = {kind: 1.0 if tot == 0 else 1.0 - swap / tot for kind, (tot, swap) in accesses.items()}

    return SimResult(
        kernel_name=kernel.name,
        policy=policy.value,
        arch=arch.name,
        seed=seed,
        spec=kernel.resource_spec,
        cycles=critical.cycles,
        **summed,
        reg_hit_rate=rates[ResourceKind.REGISTER],
        scratch_hit_rate=rates[ResourceKind.SCRATCHPAD],
        slot_hit_rate=rates[ResourceKind.WARP_SLOT],
        mean_schedulable_warps=critical.sched_integral / critical.cycles,
        blocks_in_flight_min=critical.bif_min,
        blocks_in_flight_max=critical.bif_max,
        guard_admissions=guard_admissions,
        o_thresh_final=critical.adm.final_thresholds(),
        epochs=tuple(critical.epochs),
        utilization=critical.rec.report() if collect_util else None,
        event_log=tuple(critical.rec.log) if log_events else None,
    )
