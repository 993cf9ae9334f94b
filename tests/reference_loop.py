"""Naive references: differential oracles of the cycle loop and admission.

ReferenceSMRun advances the clock one cycle at a time.  Each cycle it
rebuilds every scheduler's candidates from the registry's warps whose
state is SCHEDULABLE, in wid order, and picks its greedy warp if that is
ready and still schedulable, else the first ready candidate.  It counts
the schedulable warps the same way, for the wedge test and the integral.
It has no stall skip and no issue skip, and it reads none of the
registry's scheduler lists, so it shares no index with the loop it
checks.  It drives the same admission hooks through event handlers of
its own: each sets the admission's wake from this loop's clock, a phase
change passes the specifier read at issue, and a block's completion is
this loop's own count of its finished warps.  Its memory is
HeapMemSystem, a heap of completion times that assumes nothing of the
order they come in, where the engine keeps a FIFO.  Every issued
specifier raises a phase change here, under
every policy and with the log off too, so an unlogged fast run that
matches it shows that the static policies lose nothing when the fast
loop issues over their specifiers.  It tells whether admissible work
waits, for the wedge test, and sorts a stall cycle into one of three
buckets from the warp states alone: memory if a warp is schedulable,
idle if a warp is pending admission or blocks remain, barrier
otherwise.  The fast loop has no barrier bucket, so the reference must
never fill it.  An epoch tick
after an issue cycle runs in that cycle; one after a stall cycle runs
at the boundary, as the fast loop's stall skip does.

reference_run is engine.run with this loop in place of the fast one.

ReferenceCoordinator is zorua admission with a naive retry: after the
same promotion it runs all three stage passes every round until none
progresses.  It passes empty queues too and ignores the slot-feasibility
gate, which the fast retry uses to pass over a stage that cannot admit
anyone.  It retries after every event hook, also where Coordinator skips
the retry, and its register pass sorts the queue by the sets the table
says each waiter holds, where Coordinator sorts by the held sets its
queue recorded.  reference_admission_run is engine.run with it in
place of Coordinator.  with_admissions records every admission, with
its wake and the next_ready it left, to compare the two admission by
admission.

reference_sweep_rows is run_sweep's rows without its memo: one run() per
(arch, policy, point), and an unrunnable row where run() refuses the
point.
"""

import heapq
from dataclasses import replace
from unittest import mock

from smvirt import engine, policies
from smvirt.coordinator import Coordinator
from smvirt.engine import EventKind, NonTerminationError, _SMRun
from smvirt.harness import grid_points, parse_grid, result_row, unrunnable_row
from smvirt.kernel_model import KernelInvariantError, Opcode
from smvirt.phase_compiler import annotate_phases
from smvirt.policies import KernelUnrunnableError
from smvirt.registry import Registry, WarpState
from smvirt.resource_maps import get_arch

_PENDING = (WarpState.PENDING_THREAD, WarpState.PENDING_SCRATCH, WarpState.PENDING_REG)


class HeapMemSystem:
    """Bounded in-flight global memory: a request past the cap pops the
    earliest completion time and starts no earlier than it."""

    def __init__(self, latency: int, max_inflight: int):
        self.latency = latency
        self.max_inflight = max_inflight
        self.slots: list[int] = []

    def request(self, now: int) -> int:
        if len(self.slots) < self.max_inflight:
            done = now + self.latency
        else:
            done = max(now, heapq.heappop(self.slots)) + self.latency
        heapq.heappush(self.slots, done)
        return done


class ReferenceSMRun(_SMRun):
    def run(self) -> "ReferenceSMRun":
        arch = self.arch
        self.mem = HeapMemSystem(arch.memory_latency_cycles, arch.max_inflight_mem_requests)
        self.finished = {}  # block id -> its finished warps
        self._dispatch()
        self._retire_admitted()
        n_sched = self.arch.schedulers_per_sm
        self.plan = self.adm.access_plan(self.body)
        epoch_cycles = self.arch.epoch_cycles
        greedy = [None] * n_sched
        self.ep_barrier = 0
        while self.blocks or self.remaining:
            now = self.now
            if now >= self.cycle_cap:
                raise NonTerminationError(f"no completion within {self.cycle_cap} cycles")
            schedulable = sorted(
                (w for w in self.warps.values() if w.state is WarpState.SCHEDULABLE),
                key=lambda w: w.wid,
            )
            picks = []
            for sid in range(n_sched):
                cur = greedy[sid]
                if cur is None or cur.state is not WarpState.SCHEDULABLE or cur.next_ready > now:
                    candidates = [w for w in schedulable if w.wid % n_sched == sid]
                    cur = next((w for w in candidates if w.next_ready <= now), None)
                picks.append(cur)
            if not any(picks) and not schedulable:
                self.adm.wake = now
                if self.adm.deadlock_guard():
                    self._retire_admitted()
                    continue
                if not (self.adm.retunes and self._work_waits()):
                    raise NonTerminationError("wedged with no runnable warps")
            if self.rec is not None and self.rec.samples:
                self.rec.sample(1)
            self.sched_integral += len(schedulable)
            if any(picks):
                greedy = picks
                self._issue(picks)
                if (now + 1) % epoch_cycles == 0:
                    self._epoch_tick()
                self.now = now + 1
            else:
                if schedulable:
                    self.ep_mem += 1
                elif self._work_waits():
                    self.ep_idle += 1
                else:
                    self.ep_barrier += 1
                self.now = now + 1
                if self.now % epoch_cycles == 0:
                    self._epoch_tick()
        return self._finish()

    def _start_block(self):
        bid = self.next_bid
        self.next_bid += 1
        self.remaining -= 1
        self._log(EventKind.BLOCK_ARRIVAL, bid)
        self.adm.wake = self.now
        wids = tuple(bid * self.wpb + i for i in range(self.wpb))
        self.adm.on_block_arrival(bid, wids, self.body[0].phase_payload)

    def _finish_warp(self, w):
        self._log(EventKind.WARP_FINISHED, w.wid)
        self.adm.wake = self.now + 1
        self.adm.on_warp_finished(w.wid)
        self.finished[w.block_id] = self.finished.get(w.block_id, 0) + 1
        if self.finished[w.block_id] == self.wpb:
            self._log(EventKind.BLOCK_FINISHED, w.block_id)
        self._dispatch()

    def _handle_event(self, kind, wid, payload):
        if kind is EventKind.WARP_FINISHED:
            self._finish_warp(self.warps[wid])
        else:
            self._log(kind, wid)
            self.adm.wake = self.now + 1
            if kind is EventKind.PHASE_CHANGE:
                self.adm.on_phase_change(wid, payload)
            elif self.adm.on_barrier(wid):
                self.adm.release_barrier(self.warps[wid].block_id)
        self._retire_admitted()

    def _work_waits(self) -> bool:
        return self.remaining > 0 or any(w.state in _PENDING for w in self.warps.values())

    def _close_epoch(self):
        # the epoch carries this loop's own barrier count
        stats = self.epochs[-1] = replace(super()._close_epoch(), barrier_stall=self.ep_barrier)
        self.ep_barrier = 0
        return stats

    def _issue(self, picks):
        now = self.now
        pending = []
        for w in picks:
            if w is None:
                continue
            ins = self.body[w.pc]
            op = ins.opcode
            extra = 0 if self.plan is None else self.adm.access_cost(w, self.plan[w.pc])
            if op is Opcode.LD_GLOBAL:
                w.next_ready = self.mem.request(now) + extra
            else:
                if op is Opcode.ST_GLOBAL:
                    self.mem.request(now)
                w.next_ready = now + 1 + extra
            w.pc += 1
            self.ep_issued += 1
            if op is Opcode.BARRIER:
                pending.append((EventKind.BARRIER_REACHED, w.wid, None))
            else:
                if op is Opcode.PHASE_SPEC:
                    pending.append((EventKind.PHASE_CHANGE, w.wid, ins.phase_payload))
                if w.pc == len(self.body):
                    pending.append((EventKind.WARP_FINISHED, w.wid, None))
        self.ep_issue_cycles += 1
        self.last_issue = now
        for kind, wid, payload in sorted(pending, key=lambda e: (e[0], e[1])):
            self._handle_event(kind, wid, payload)


def reference_run(*args, **kwargs):
    """engine.run, simulated by the naive loop."""
    with mock.patch.object(engine, "_SMRun", ReferenceSMRun):
        return engine.run(*args, **kwargs)


def _retrying(hook):
    """The hook, then a retry, whether or not the hook needed one."""

    def retried(self, *args):
        out = hook(self, *args)
        self.retry_all_queues()
        return out

    return retried


class ReferenceCoordinator(Coordinator):
    on_block_arrival = _retrying(Coordinator.on_block_arrival)
    on_phase_change = _retrying(Coordinator.on_phase_change)
    on_barrier = _retrying(Coordinator.on_barrier)
    release_barrier = _retrying(Coordinator.release_barrier)
    on_warp_finished = _retrying(Coordinator.on_warp_finished)
    on_epoch = _retrying(Coordinator.on_epoch)

    def retry_all_queues(self):
        for tbl in (self.regs, self.scratch):
            for owner, logical in tbl.swap_keys_by_heat():
                if not tbl.free_physical:
                    break
                tbl.migrate_in(owner, logical)
        while True:
            progressed = self._retry_reg(self.regs.headroom(self._limit[self.regs]))
            progressed |= self._retry_scratch(self.scratch.headroom(self._limit[self.scratch]))
            progressed |= self._retry_slots()
            if not progressed:
                return

    def _retry_reg(self, room):
        # the queue in enqueue_seq order, stably sorted by held sets, most first
        held = self.regs.owned
        progressed = False
        for wid in sorted(self._reg_q, key=held, reverse=True):
            w = self.warps[wid]
            delta = w.reg_sets_needed - held(wid)
            if delta <= room:
                if delta > 0:
                    self._grant(self.regs, wid, delta, False)
                    room -= delta
                self._admit(w)
                progressed = True
        return progressed


def reference_admission_run(*args, **kwargs):
    """engine.run, with zorua admission retrying every stage every round."""
    with mock.patch.object(policies, "Coordinator", ReferenceCoordinator):
        return engine.run(*args, **kwargs)


def with_admissions(runner, *args, **kwargs):
    """runner's result, and (wake, wid, next_ready) of each admission on
    any SM, in order, next_ready as admission left it: a retry that runs
    later than it should admits a warp at a later wake even where the
    outputs cannot tell."""
    admissions = []
    admit = Registry._admit

    def recorded(self, w):
        admit(self, w)
        admissions.append((self.wake, w.wid, w.next_ready))

    with mock.patch.object(Registry, "_admit", recorded):
        return runner(*args, **kwargs), admissions


def reference_sweep_rows(kernel, grid, archs, policy_list):
    """run_sweep's rows, each from a run() of its own point; archs are
    names or configs, policy_list Policy members."""
    if isinstance(grid, str):
        grid = parse_grid(grid)
    compiled = kernel if kernel.is_compiled else annotate_phases(kernel)
    points = []
    for p in grid_points(grid, kernel.resource_spec):
        if p is None:  # zero blocks
            continue
        try:
            points.append(replace(compiled, resource_spec=p))
        except KernelInvariantError:  # a declaration below the body's liveness
            pass
    rows = []
    for arch in [get_arch(a) if isinstance(a, str) else a for a in archs]:
        for policy in policy_list:
            for k in points:
                try:
                    rows.append(result_row(engine.run(k, policy, arch)))
                except KernelUnrunnableError:
                    rows.append(unrunnable_row(arch.name, policy.value, k.resource_spec))
    return rows
