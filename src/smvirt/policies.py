"""Admission policies the simulator compares.

baseline reserves every block's worst-case static footprint for the block's
whole lifetime.  wlm keeps block-granular scratchpad but hands out registers
and slots per warp, admitting warps of one block at a time.  Both are
StaticAdmission and differ only in its warp and block limits: baseline's
are whole blocks.  zorua runs the full virtualization stack: phase-sized
allocations through mapping tables with bounded swap oversubscription
(see coordinator.py).

Each policy is one admission object per SM, and the engine drives all three
through the same hooks: can_accept_block and on_block_arrival (given the
compiled kernel's entry phase specifier), on_phase_change (given an
issued specifier), on_barrier and release_barrier, on_warp_finished,
on_epoch (given the closed epoch's EpochStats; it ends with the deadlock
guard), deadlock_guard and check_invariants, plus the result counters
access_totals, final_thresholds and guard_admissions, and one
capability: retunes (the controller may loosen admission at the next
epoch).  Of the event hooks only on_barrier returns a value, True at
its block's last arrival; the engine reads a block's completion off the
registry.  With nothing schedulable and nothing the guard can force in,
a run waits for the next epoch if its admission retunes, else it is
wedged.
access_plan(body) is None where issuing costs the admission nothing and
specifiers change nothing: the engine then calls on_phase_change only in
a run that logs its events, and may skip issue cycles, specifiers
included.  Else it gives per pc of the body what access_cost (extra
cycles of one issued instruction) is given, and every issued specifier
reaches on_phase_change.  Every admission class
is a Registry (registry.py), which owns the one warp and block registry,
holding live blocks only, and each scheduler's list of schedulable warps,
which the engine issues from.  The engine sets its wake before each
occasion's hooks; admission raises each warp it admits to issue no
earlier and lists it in admitted, which the engine walks and clears.
The static policies ignore the phase specifiers; only zorua turns them
into sets.  admission_limits is the one place a policy reads the
kernel's declaration and refuses a kernel it can never finish; run
calls it once per launch, and make_admission picks the class and
builds it from those limits alone.  launch_key states all a launch reads
of its arch and declaration, and why (its docstring holds the proof).
"""

from __future__ import annotations

import enum
import math
from collections import deque

from .coordinator import Coordinator, OversubscriptionConfig
from .kernel_model import WARP_WIDTH, KernelSpec, Opcode, PhaseSpecifier, ResourceSpecification
from .registry import Registry, WarpState
from .resource_maps import MAX_REG_SETS_PER_WARP, ArchConfig, ResourceKind
from .resource_maps import reg_sets_for, scratch_sets_for


class KernelUnrunnableError(RuntimeError):
    """The kernel can make no progress under the chosen policy and hardware."""


class Policy(enum.Enum):
    BASELINE = "baseline"
    WLM = "wlm"
    ZORUA = "zorua"

    @classmethod
    def from_name(cls, name: str) -> "Policy":
        try:
            return cls(name.lower())
        except ValueError:
            choices = ", ".join(p.value for p in cls)
            raise ValueError(f"unknown policy {name!r}; choose from {choices}") from None


def baseline_blocks_in_flight(spec: ResourceSpecification, arch: ArchConfig) -> int:
    """Blocks co-resident under whole-block worst-case allocation.

    Raw capacity divisions, no set rounding, capped by the hardware block
    limit.  Zero means the kernel cannot run at all on this hardware.
    """
    limit = min(
        arch.registers_per_sm // (spec.threads_per_block * spec.regs_per_thread),
        arch.warp_slots_per_sm // spec.warps_per_block,
        arch.max_blocks_per_sm_baseline,
    )
    if spec.scratch_bytes_per_block:
        limit = min(limit, arch.scratch_bytes_per_sm // spec.scratch_bytes_per_block)
    return limit


def wlm_is_runnable(spec: ResourceSpecification, arch: ArchConfig, has_barrier: bool) -> bool:
    """Whether warp-granular admission can finish the kernel.

    Without barriers a single warp fitting is enough.  With barriers one
    whole block must fit physically: admitted warps hold their resources
    while waiting, so a block that can never be fully resident deadlocks.
    """
    if spec.scratch_bytes_per_block > arch.scratch_bytes_per_sm:
        return False
    if has_barrier:
        return (
            spec.warps_per_block <= arch.warp_slots_per_sm
            and spec.threads_per_block * spec.regs_per_thread <= arch.registers_per_sm
        )
    return spec.regs_per_thread * WARP_WIDTH <= arch.registers_per_sm


class StaticAdmission(Registry):
    """Admission without virtualization, baseline's and wlm's: an admitted
    warp keeps what it was given until it finishes, so phases, epochs and
    data accesses cost and change nothing.

    A block arrives while fewer than block_limit blocks are live and no
    block is partially admitted; its warps are then admitted in wid order
    while fewer than warp_limit are held.  admission_limits gives the limits.
    """

    guard_admissions = 0
    retunes = False  # no controller, so a wedged SM stays wedged

    def __init__(self, arch: ArchConfig, warp_limit: int, block_limit: float):
        super().__init__(arch.schedulers_per_sm)
        self.warp_limit = warp_limit
        self.block_limit = block_limit
        self.held = 0  # admitted warps not yet finished
        self._waiting: deque[int] = deque()  # unadmitted warps of the partial block

    def access_plan(self, body) -> None:  # accesses cost nothing: no access_cost
        return None

    def _admit_waiting(self):
        while self._waiting and self.held < self.warp_limit:
            self.held += 1
            self._admit(self.warps[self._waiting.popleft()])

    def can_accept_block(self, warps: int) -> bool:
        return (
            not self._waiting
            and len(self.blocks) < self.block_limit
            and self.held < self.warp_limit
        )

    def on_block_arrival(self, bid: int, wids: tuple[int, ...], phase: PhaseSpecifier):
        super().on_block_arrival(bid, wids)
        self._waiting.extend(wids)
        self._admit_waiting()

    def on_phase_change(self, wid: int, phase: PhaseSpecifier):
        pass

    def on_warp_finished(self, wid: int):
        self._retire(wid)
        self.held -= 1
        self._admit_waiting()

    def on_epoch(self, stats):
        pass

    def deadlock_guard(self) -> bool:
        return False

    def access_totals(self) -> dict[ResourceKind, tuple[int, int]]:
        return {kind: (0, 0) for kind in ResourceKind}

    def final_thresholds(self) -> dict[str, int]:
        return {}

    def check_invariants(self) -> list[str]:
        held = sum(
            1
            for w in self.warps.values()
            if w.state is not WarpState.PENDING_THREAD and w.state is not WarpState.FINISHED
        )
        live = len(self.blocks)
        errors = self.registry_errors()
        if self.held != held:
            errors.append(f"{self.held} warps counted as held, {held} are")
        if live > self.block_limit:
            errors.append(f"{live} blocks in flight, static allocation admits {self.block_limit}")
        return errors


def _check_phase_demands(kernel: KernelSpec, arch: ArchConfig):
    if kernel.resource_spec.warps_per_block > arch.max_logical_warps:
        raise KernelUnrunnableError("block has more warps than logical slots")
    for ins in kernel.body:
        if ins.opcode is not Opcode.PHASE_SPEC:
            continue
        p = ins.phase_payload
        rs = reg_sets_for(p.live_regs)
        if rs > MAX_REG_SETS_PER_WARP or rs > arch.reg_sets_physical:
            raise KernelUnrunnableError(
                f"phase needs {rs} register sets per warp, beyond hardware reach"
            )
        ss = scratch_sets_for(p.scratch_bytes)
        if ss > arch.scratch_sets_physical:
            raise KernelUnrunnableError(
                f"phase needs {ss} scratchpad sets per block, beyond hardware reach"
            )


def admission_limits(policy: Policy, kernel: KernelSpec, arch: ArchConfig) -> tuple:
    """All that policy's admission reads of kernel's declaration on arch:
    the (warp_limit, block_limit) of StaticAdmission under baseline and
    wlm, and nothing, (), under zorua, whose Coordinator never sees the
    declaration.  launch_key keys run_sweep's memo on what of these
    limits can bind.

    Raises KernelUnrunnableError when the policy can never finish the
    kernel on this hardware.
    """
    if policy is Policy.ZORUA:
        _check_phase_demands(kernel, arch)
        return ()
    spec = kernel.resource_spec
    if policy is Policy.BASELINE:
        # each live block holds at most its own warps, so a block that
        # arrives below b live blocks is admitted whole at once
        b = baseline_blocks_in_flight(spec, arch)
        if b == 0:
            raise KernelUnrunnableError("static allocation admits zero blocks on this hardware")
        return (b * spec.warps_per_block, b)
    if not wlm_is_runnable(spec, arch, kernel.has_barrier()):
        raise KernelUnrunnableError("warp-granular admission cannot complete this kernel")
    scratch = spec.scratch_bytes_per_block
    return (
        min(arch.warp_slots_per_sm, arch.registers_per_sm // (spec.regs_per_thread * WARP_WIDTH)),
        arch.scratch_bytes_per_sm // scratch if scratch else math.inf,
    )


def launch_key(policy: Policy, kernel: KernelSpec, arch: ArchConfig) -> tuple:
    """What a launch of kernel under policy on arch reads of its arch and
    declaration, as one key: launches of one body with equal keys have
    equal SimResult.to_dict() but for arch, policy and the declaration.

    Under zorua it is (arch, threads_per_block, num_blocks): the
    Coordinator reads the capacities, logical limits, consult penalty and
    slot count, and nothing of the declaration.  Under baseline and wlm it
    is (num_sms, schedulers_per_sm, memory_latency_cycles,
    max_inflight_mem_requests, epoch_cycles, threads_per_block,
    num_blocks, (min(warp_limit, b * warps_per_block), b)), with
    (warp_limit, block_limit) from admission_limits and
    b = min(block_limit, ceil(num_blocks / num_sms)).

    Proof of the static key.  run reads num_sms in _per_sm_block_counts,
    the name only as a label, and every other field of the arch or the
    declaration only through admission_limits.  StaticAdmission's Registry
    reads schedulers_per_sm alone of the arch, and an _SMRun the memory
    latency and request cap, for its _MemSystem, and epoch_cycles.  Of the
    limits: round-robin dispatch gives no SM more than the ceil, and
    StaticAdmission keeps at most block_limit blocks live, so at most b
    are.  can_accept_block is asked only while a block of the SM is still
    to come, when fewer than the ceil are live, so a block_limit above the
    ceil refuses nothing more.  A live block holds at most its own warps,
    so held never exceeds b * warps_per_block, and it is below that
    wherever warp_limit is read: while warps wait their block is partly
    admitted, and where a block may arrive fewer than b are live.  So a
    warp_limit above b * warps_per_block refuses nothing more.

    Raises KernelUnrunnableError as admission_limits does.
    """
    limits = admission_limits(policy, kernel, arch)
    spec = kernel.resource_spec
    if not limits:
        return (arch, spec.threads_per_block, spec.num_blocks)
    warp_limit, block_limit = limits
    b = min(block_limit, math.ceil(spec.num_blocks / arch.num_sms))
    return (
        arch.num_sms,
        arch.schedulers_per_sm,
        arch.memory_latency_cycles,
        arch.max_inflight_mem_requests,
        arch.epoch_cycles,
        spec.threads_per_block,
        spec.num_blocks,
        (min(warp_limit, b * spec.warps_per_block), b),
    )


def make_admission(policy: Policy, limits: tuple, arch: ArchConfig, oversub: OversubscriptionConfig):
    """The admission object of one SM under policy, built from the limits
    admission_limits gave for the kernel."""
    if policy is Policy.ZORUA:
        return Coordinator(arch, oversub)
    return StaticAdmission(arch, *limits)
