"""Engine timing goldens and accounting invariants.

Cycle counts asserted here are hand-traced from the documented timing
rules: single issue per scheduler per cycle, ALU latency 1, global
memory latency 400, mapping-table consult penalty 2, greedy-then-oldest
scheduling over a fixed warp-to-scheduler partition (wid mod 2).  Every
policy runs the compiled kernel, so each warp first issues its entry
phase specifier, in one cycle like an ALU.
"""

from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smvirt.corpus import corpus_kernel, corpus_names
from smvirt.coordinator import Coordinator, OversubscriptionConfig
from smvirt.engine import (
    EventKind,
    NonTerminationError,
    _MemSystem,
    _SMRun,
    run,
)
from smvirt.harness import run_sweep
from smvirt.kernel_model import (
    Instruction,
    KernelSpec,
    Opcode,
    ResourceSpecification,
    load_kernel,
    save_kernel,
)
from smvirt.phase_compiler import annotate_phases
from smvirt.policies import KernelUnrunnableError, Policy, StaticAdmission
from smvirt.resource_maps import get_arch

from reference_loop import HeapMemSystem, reference_run

FERMI = get_arch("fermi")
ONE_SM = replace(FERMI, num_sms=1)


def _kernel(body, *, threads=32, regs=8, scratch=0, blocks=1, name="t"):
    return KernelSpec(
        name=name,
        resource_spec=ResourceSpecification(
            threads_per_block=threads,
            regs_per_thread=regs,
            scratch_bytes_per_block=scratch,
            num_blocks=blocks,
        ),
        body=tuple(body),
    )


def _alu(n, live=8, scr=0):
    return [
        Instruction(Opcode.ALU, live_regs_after=live, live_scratch_after=scr)
        for _ in range(n)
    ]


def test_ten_alu_single_warp_takes_ten_cycles():
    # ten cycles after the one of the entry specifier
    res = run(_kernel(_alu(10)), Policy.BASELINE)
    assert res.cycles == 1 + 10
    assert res.issued_instructions == 1 + 10
    assert res.issued_cycles == 1 + 10
    assert res.c_idle == 0 and res.c_mem == 0 and res.barrier_stall == 0


def test_lone_load_stall_lands_in_c_mem():
    # specifier@0, ALU@1, LD@2 -> data at 402, ALU@402; the request cycle
    # itself counts as issued, so the stall is latency - 1 cycles
    body = _alu(1) + [Instruction(Opcode.LD_GLOBAL, live_regs_after=8)] + _alu(1)
    res = run(_kernel(body), Policy.BASELINE)
    assert res.cycles == 403
    assert res.c_mem == FERMI.memory_latency_cycles - 1
    assert res.issued_cycles == 4
    assert res.c_idle == 0 and res.barrier_stall == 0


def test_store_is_fire_and_forget():
    # specifier@0, ST@1, ALU@2
    body = [Instruction(Opcode.ST_GLOBAL, live_regs_after=8)] + _alu(1)
    assert run(_kernel(body), Policy.BASELINE).cycles == 3


def test_mapping_table_consult_penalty():
    body = _alu(1) + [Instruction(Opcode.LD_GLOBAL, live_regs_after=8)] + _alu(1)
    raw = _kernel(body)
    compiled = annotate_phases(raw)
    virt = run(raw, Policy.ZORUA)
    base_compiled = run(compiled, Policy.BASELINE)
    base_raw = run(raw, Policy.BASELINE)
    # the specifier costs one issue slot under any policy, which compiles
    # a raw kernel; each of the two register-touching instructions after
    # the LD pays +2 on top
    assert base_raw.cycles == base_compiled.cycles == 403
    assert virt.cycles == 407
    assert virt.reg_hit_rate == 1.0
    assert virt.issued_cycles + virt.c_mem == virt.cycles


def test_swap_resident_set_costs_a_round_trip_until_promoted():
    # 8 physical register sets; two warps of 8 sets each, so the second
    # warp starts fully swap-resident (threshold covers all 8).  Its
    # first access pays the 400-cycle trip; the first warp's exit frees
    # physical space and promotion makes every later access on-chip.
    arch = replace(FERMI, num_sms=1, registers_per_sm=1024)
    kern = _kernel(_alu(10, live=32), threads=64, regs=32)
    res = run(
        kern,
        Policy.ZORUA,
        arch,
        oversub=OversubscriptionConfig(fixed_o_thresh_frac=1.0),
    )
    assert res.cycles == 429
    assert res.reg_hit_rate == 0.95  # 1 swap access out of 20
    assert res.epochs[0].reg_swap_accesses == 1
    assert res.guard_admissions == 0


def test_inflight_cap_serializes_memory_traffic():
    # warps 0 and 1 load at cycle 1 and warps 2 and 3 at cycle 3, each
    # after its specifier; with only two outstanding requests the third
    # and fourth wait for the first completions at 401
    body = [Instruction(Opcode.LD_GLOBAL, live_regs_after=8)] + _alu(1)
    kern = _kernel(body, threads=128)
    tight = run(kern, Policy.BASELINE, replace(ONE_SM, max_inflight_mem_requests=2))
    loose = run(kern, Policy.BASELINE, replace(ONE_SM, max_inflight_mem_requests=1000))
    assert loose.cycles == 404
    assert tight.cycles == 802


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    gaps=st.lists(st.integers(min_value=0, max_value=60), max_size=80),
    latency=st.integers(min_value=1, max_value=500),
    cap=st.integers(min_value=1, max_value=8),
)
def test_the_memory_fifo_completes_requests_as_a_heap_does(gaps, latency, cap):
    # request clocks never go back and the latency is fixed, so the
    # earliest outstanding completion is always the oldest; several
    # requests may share a cycle
    fifo, heap = _MemSystem(latency, cap), HeapMemSystem(latency, cap)
    now = 0
    for gap in gaps:
        now += gap
        assert fifo.request(now) == heap.request(now)


def test_barrier_release_timing_three_warps():
    # warps 0 and 2 share scheduler 0: specifier, ALU and barrier of warp
    # 0 in cycles 0-2, then of warp 2 in 3-5, which opens the barrier;
    # the two ALUs after it of warp 0 in 6-7 and of warp 2 in 8-9
    body = _alu(1) + [Instruction(Opcode.BARRIER, live_regs_after=8)] + _alu(2)
    res = run(_kernel(body, threads=96), Policy.BASELINE)
    assert res.cycles == 10
    assert res.issued_cycles == 10
    assert res.issued_instructions == 3 * 5
    assert res.barrier_stall == 0


def test_greedy_warp_outlasts_cycles_in_which_no_warp_is_ready():
    # Warps 0 and 2 share scheduler 0; two memory request slots.  Each
    # warp issues its specifier, then the barrier.  Warp 2 reaches the
    # barrier last (cycle 3), so it leads scheduler 0 when the barrier
    # opens: ALU@4, LD@5 -> 405 (warp 1 the same on scheduler 1).  Warp 0:
    # ALU@6, LD@7 waits for a slot -> 805.  At 405 warp 2, the only ready
    # warp of scheduler 0, issues its second LD -> 805 and becomes the
    # greedy warp; no warp is ready from 406 to 804.  At 805 warps 0 and 2
    # are both ready: greedy warp 2 issues its last ALU and finishes, and
    # the older warp 0 issues its second LD a cycle later -> 1206.
    arch = replace(ONE_SM, max_inflight_mem_requests=2)
    body = (
        [Instruction(Opcode.BARRIER, live_regs_after=8)]
        + _alu(1)
        + [Instruction(Opcode.LD_GLOBAL, live_regs_after=8)] * 2
        + _alu(1)
    )
    res = run(_kernel(body, threads=96), Policy.BASELINE, arch, log_events=True)
    finished = [(t, wid) for t, kind, wid in res.event_log if kind == "WARP_FINISHED"]
    assert finished == [(805, 2), (1205, 1), (1206, 0)]
    assert res.cycles == 1207


def test_saturated_epochs_have_no_stall_cycles():
    res = run(_kernel(_alu(3000)), Policy.BASELINE)
    assert res.cycles == 1 + 3000
    assert len(res.epochs) == 2
    full, tail = res.epochs
    assert (full.issued_cycles, full.c_idle, full.c_mem, full.barrier_stall) == (
        2048,
        0,
        0,
        0,
    )
    assert tail.issued_cycles == 1 + 3000 - 2048


def test_epoch_tick_count_matches_boundaries_crossed():
    res = run(_kernel(_alu(1500)), Policy.ZORUA, ONE_SM, log_events=True)
    ticks = [e for e in res.event_log if e[1] == "EPOCH_TICK"]
    assert len(ticks) == res.cycles // FERMI.epoch_cycles


def test_stall_taxonomy_sums_to_total_cycles():
    # single-SM runs so the replica's counters are unweighted
    for name in corpus_names():
        kern = corpus_kernel(name)
        spec = replace(kern.resource_spec, num_blocks=2)
        kern = replace(kern, resource_spec=spec)
        for policy in Policy:
            try:
                res = run(kern, policy, ONE_SM)
            except KernelUnrunnableError:
                continue
            total = res.issued_cycles + res.c_idle + res.c_mem + res.barrier_stall
            assert total == res.cycles, (name, policy)


@pytest.mark.parametrize("epoch_cycles", [8, 2048])
def test_debug_runs_fail_on_a_broken_invariant(monkeypatch, epoch_cycles):
    # checked at each epoch tick (8-cycle epochs) and once more at the end
    monkeypatch.setattr(Coordinator, "check_invariants", lambda self: ["broken", "twice"])
    hw = replace(ONE_SM, epoch_cycles=epoch_cycles)
    with pytest.raises(RuntimeError, match="^invariant violation: broken; twice$"):
        run(_kernel(_alu(10)), Policy.ZORUA, hw, debug=True)
    assert run(_kernel(_alu(10)), Policy.ZORUA, hw).cycles > 10


def test_debug_invariants_hold_for_every_policy():
    # debug mode checks the admission invariants every epoch and raises on
    # the first violation
    for name in corpus_names():
        for policy in Policy:
            run(corpus_kernel(name), policy, FERMI, debug=True)


@pytest.mark.parametrize("name", ["reg_cliff", "mixed_phase"])
def test_debug_invariants_hold_for_four_times_the_corpus_launch(name):
    # blocks complete and leave the registry many times over while new
    # ones arrive; debug mode checks the registry and indices every epoch
    kern = corpus_kernel(name)
    spec = kern.resource_spec
    big = replace(kern, resource_spec=replace(spec, num_blocks=4 * spec.num_blocks))
    compiled = annotate_phases(big)
    res = run(compiled, Policy.ZORUA, FERMI, debug=True)
    assert res.issued_instructions == (
        4 * spec.num_blocks * spec.warps_per_block * len(compiled.body)
    )


def _ending_in_barrier(name, **spec):
    """A corpus kernel, compiled, with a barrier after its last instruction
    and its launch changed by spec."""
    kern = corpus_kernel(name)
    last = kern.body[-1]
    barrier = Instruction(Opcode.BARRIER, last.live_regs_after, last.live_scratch_after)
    return annotate_phases(
        replace(
            kern,
            body=kern.body + (barrier,),
            resource_spec=replace(kern.resource_spec, **spec),
        )
    )


def test_warps_admitted_past_a_trailing_barrier_retire_without_reentering_the_retire_loop(
    monkeypatch,
):
    # parked warps at the final barrier are admitted again only to retire;
    # their retirement frees resources that admit and retire more of them
    # while warps admitted before them still wait in the list
    depth = max_depth = 0
    retire_admitted = _SMRun._retire_admitted

    def counted(self, *args):
        nonlocal depth, max_depth
        depth += 1
        max_depth = max(max_depth, depth)
        try:
            return retire_admitted(self, *args)
        finally:
            depth -= 1

    monkeypatch.setattr(_SMRun, "_retire_admitted", counted)
    arch = replace(
        FERMI, num_sms=2, warp_slots_per_sm=16, max_logical_warps=40, registers_per_sm=8192
    )
    kern = _ending_in_barrier("uniform", num_blocks=87)
    res = run(kern, Policy.ZORUA, arch, debug=True)
    assert res.issued_instructions == 87 * kern.resource_spec.warps_per_block * len(kern.body)
    assert max_depth == 1


def test_blocks_in_flight_max_is_the_most_blocks_the_registry_held(monkeypatch):
    held = 0
    arrive = Coordinator.on_block_arrival

    def counted(self, *args):
        nonlocal held
        arrive(self, *args)
        held = max(held, len(self.blocks))

    monkeypatch.setattr(Coordinator, "on_block_arrival", counted)
    arch = replace(
        FERMI, num_sms=1, warp_slots_per_sm=48, max_logical_warps=64, registers_per_sm=8192
    )
    kern = _ending_in_barrier("reg_cliff", threads_per_block=192, num_blocks=18)
    res = run(
        kern,
        Policy.ZORUA,
        arch,
        oversub=OversubscriptionConfig(fixed_o_thresh_frac=1.0),
        debug=True,
    )
    assert res.blocks_in_flight_max == held


def test_each_epoch_tick_runs_the_deadlock_guard():
    # some forced admissions come at an epoch tick, before the stall
    # path's guard would run: without the epoch's guard the first launch
    # takes 6519 cycles with the same 15 admissions, the second 28912
    # cycles with none
    alu, barrier = Instruction(Opcode.ALU, 63, 0), Instruction(Opcode.BARRIER, 63, 0)
    # 32 warps of 16 register sets each: the warps that fit wait at the
    # barrier holding every set, so only the guard lets the rest in
    wide = _kernel([alu, barrier, alu], threads=1024, regs=63, scratch=1024)
    res = run(wide, Policy.ZORUA, FERMI, debug=True)
    assert (res.cycles, res.guard_admissions) == (6138, 15)
    arch = replace(
        FERMI, num_sms=2, warp_slots_per_sm=16, max_logical_warps=40, registers_per_sm=8192
    )
    res = run(_ending_in_barrier("uniform", num_blocks=87), Policy.ZORUA, arch, debug=True)
    assert (res.cycles, res.guard_admissions) == (27612, 2)


def test_adding_instructions_never_speeds_up_straight_line_code():
    for policy in Policy:
        prev = 0
        for n in (5, 10, 20, 40, 80):
            res = run(_kernel(_alu(n), threads=64), policy)
            assert res.cycles >= prev, (policy, n)
            prev = res.cycles


def test_multi_sm_is_replicated_round_robin():
    kern = _kernel(_alu(20), threads=64, blocks=4)
    spread = run(kern, Policy.BASELINE, replace(FERMI, num_sms=3))
    two = replace(kern, resource_spec=replace(kern.resource_spec, num_blocks=2))
    alone = run(two, Policy.BASELINE, ONE_SM)
    # 4 blocks over 3 SMs: the critical replica runs 2 blocks
    assert spread.cycles == alone.cycles
    assert spread.issued_instructions == 2 * alone.issued_instructions


def test_result_is_deterministic_and_seed_is_provenance_only():
    kern = corpus_kernel("mixed_phase")
    first = run(kern, Policy.ZORUA)
    again = run(kern, Policy.ZORUA)
    other_seed = run(kern, Policy.ZORUA, seed=7)
    assert first == again
    assert first.seed != other_seed.seed
    a, b = first.to_dict(), other_seed.to_dict()
    a.pop("seed"), b.pop("seed")
    assert a == b


def test_event_log_shape_and_counts():
    kern = _kernel(_alu(6), threads=64, blocks=2)
    res = run(kern, Policy.ZORUA, ONE_SM, log_events=True)
    assert res.event_log is not None
    for cycle, kind, ident in res.event_log:
        assert isinstance(cycle, int) and isinstance(kind, str) and isinstance(ident, int)
    kinds = [k for _, k, _ in res.event_log]
    assert kinds.count("BLOCK_ARRIVAL") == 2
    assert kinds.count("BLOCK_FINISHED") == 2
    assert kinds.count("WARP_FINISHED") == 4
    assert kinds.count("PHASE_CHANGE") == 4  # one specifier per warp
    assert run(kern, Policy.ZORUA, ONE_SM).event_log is None


@pytest.mark.parametrize("policy", [Policy.BASELINE, Policy.WLM, Policy.ZORUA])
@pytest.mark.parametrize("name", ["reg_cliff", "barrier_heavy"])
def test_only_zorua_reads_the_specifiers_of_an_unlogged_run(monkeypatch, name, policy):
    # admission that charges nothing is told of no specifier: the loop
    # issues over them, so only barrier arrivals and the finishes that
    # issues raise reach the event handler
    def refuse(self, wid, phase):
        raise AssertionError(f"warp {wid} passed a specifier to a static admission")

    monkeypatch.setattr(StaticAdmission, "on_phase_change", refuse)
    handled = Counter()
    handle = _SMRun._handle_event

    def counted(self, kind, wid):
        handled[kind] += 1
        handle(self, kind, wid)

    monkeypatch.setattr(_SMRun, "_handle_event", counted)
    kern = annotate_phases(corpus_kernel(name))
    run(kern, policy, ONE_SM)
    warps = kern.resource_spec.num_blocks * kern.resource_spec.warps_per_block
    per_warp = Counter(ins.opcode for ins in kern.body)
    expected = {
        EventKind.BARRIER_REACHED: per_warp[Opcode.BARRIER] * warps,
        EventKind.WARP_FINISHED: warps,
    }
    if policy is Policy.ZORUA:
        expected[EventKind.PHASE_CHANGE] = per_warp[Opcode.PHASE_SPEC] * warps
    assert kern.body[-1].opcode is not Opcode.BARRIER
    assert handled == Counter(expected)


def test_cycle_cap_raises_non_termination():
    body = _alu(1) + [Instruction(Opcode.LD_GLOBAL, live_regs_after=8)] + _alu(1)
    with pytest.raises(NonTerminationError):
        run(_kernel(body), Policy.BASELINE, cycle_cap=50)


def _same_as_reference(kernel, policy, arch, **kwargs):
    fast = run(kernel, policy, arch, log_events=True, **kwargs)
    naive = reference_run(kernel, policy, arch, log_events=True, **kwargs)
    assert fast.to_dict() == naive.to_dict()
    assert fast.event_log == naive.event_log
    return fast


@pytest.mark.parametrize(
    "name, blocks", [("barrier_heavy", 4), ("membound", 4), ("scratch_cliff", 12)]
)
def test_launches_that_park_warps_match_the_naive_reference_loop(name, blocks):
    # on 16 warp slots these launches park warps at barriers, and a parked
    # warp resumes one memory round trip after the wake its occasion set:
    # the wake each end-of-cycle hook is given shows in the cycles, and
    # the naive loop's handlers set it from a clock of their own
    kern = corpus_kernel(name)
    kern = replace(kern, resource_spec=replace(kern.resource_spec, num_blocks=blocks))
    arch = replace(ONE_SM, warp_slots_per_sm=16, max_logical_warps=40)
    res = _same_as_reference(kern, Policy.ZORUA, arch)
    assert res.slot_hit_rate < 1.0  # a warp was parked and resumed


def test_idle_schedulers_warp_issues_on_its_wake_cycle_inside_a_plain_run():
    # One warp per scheduler and one memory request slot.  Both issue
    # their specifier at cycle 0 and load at cycle 1: warp 0's data returns
    # at 401, warp 1's waits for the slot and returns at 801.  Warp 0
    # issues its 600 ALUs from 401 to 1000 while scheduler 1 idles; the
    # issue skip must end at 800 so that warp 1 issues on its wake cycle,
    # 801, and finishes at 1400.
    arch = replace(ONE_SM, max_inflight_mem_requests=1)
    body = [Instruction(Opcode.LD_GLOBAL, live_regs_after=8)] + _alu(600)
    for policy in (Policy.BASELINE, Policy.WLM):
        res = _same_as_reference(_kernel(body, threads=64), policy, arch)
        finished = [(t, wid) for t, kind, wid in res.event_log if kind == "WARP_FINISHED"]
        assert finished == [(1000, 0), (1400, 1)]
        assert res.cycles == 1401
        assert (res.issued_cycles, res.c_mem) == (1002, 399)


def test_a_plain_run_through_epoch_boundaries_ticks_with_the_same_epoch_stats():
    # one warp per scheduler, a specifier and 40 ALUs each, 16-cycle
    # epochs: both issue in every cycle, so each epoch's last cycle (15,
    # 31) ticks and the epochs hold 16, 16 and 9 issue cycles
    arch = replace(ONE_SM, epoch_cycles=16)
    res = _same_as_reference(_kernel(_alu(40), threads=64), Policy.BASELINE, arch, debug=True)
    ticks = [t for t, kind, _ in res.event_log if kind == "EPOCH_TICK"]
    assert ticks == [15, 31]
    assert [(e.issued_instructions, e.issued_cycles, e.span) for e in res.epochs] == [
        (32, 16, 16),
        (32, 16, 16),
        (18, 9, 9),
    ]


@pytest.mark.parametrize("cap", [0, 1, 50, 98, 99, 100])
def test_a_cycle_cap_inside_a_plain_run_still_raises(cap):
    # one warp of a specifier and 99 ALUs issues in cycles 0 to 99.  Under
    # baseline the specifier raises no event, so after it, at cycle 0, the
    # issue skip leaps to cycle 98, past any cap in between; the check at
    # the top of the next pass raises, as in the cycles skipped
    kern = _kernel(_alu(99))
    if cap < 100:
        with pytest.raises(NonTerminationError, match=f"no completion within {cap} cycles"):
            run(kern, Policy.BASELINE, cycle_cap=cap)
        with pytest.raises(NonTerminationError, match=f"no completion within {cap} cycles"):
            reference_run(kern, Policy.BASELINE, cycle_cap=cap)
    else:
        assert run(kern, Policy.BASELINE, cycle_cap=cap).cycles == 100


def test_virtualization_runs_blocks_static_policies_cannot():
    # 49 warps per block: no slot partition fits it whole, and the
    # barrier means warp-granular admission would deadlock too
    body = (
        _alu(3, live=4)
        + [Instruction(Opcode.BARRIER, live_regs_after=4)]
        + _alu(2, live=4)
    )
    kern = _kernel(body, threads=1568, regs=4, name="wide")
    with pytest.raises(KernelUnrunnableError):
        run(kern, Policy.BASELINE, ONE_SM)
    with pytest.raises(KernelUnrunnableError):
        run(kern, Policy.WLM, ONE_SM)
    res = run(kern, Policy.ZORUA, ONE_SM)
    assert res.issued_instructions == 49 * 7
    # without the barrier, warp-granular admission trickles through
    free = _kernel(_alu(5, live=4), threads=1568, regs=4, name="wide2")
    assert run(free, Policy.WLM, ONE_SM).issued_instructions == 49 * (1 + 5)


def test_per_warp_demand_beyond_hardware_is_unrunnable():
    small = replace(FERMI, num_sms=1, registers_per_sm=1024)
    kern = _kernel(_alu(4, live=64), regs=64)  # 16 sets > 8 physical
    with pytest.raises(KernelUnrunnableError):
        run(kern, Policy.ZORUA, small)
    wide = _kernel(_alu(4), threads=512)  # 16 warps > 8 logical slots
    with pytest.raises(KernelUnrunnableError):
        run(wide, Policy.ZORUA, replace(small, warp_slots_per_sm=8, max_logical_warps=8))


def test_a_kernel_opening_with_a_barrier_runs_under_every_policy():
    body = [Instruction(Opcode.BARRIER, live_regs_after=4)] + _alu(12)
    kern = _kernel(body, threads=64, name="barrier_first")
    # compiled: a specifier, the barrier, nine ALUs, a specifier where
    # liveness doubles and three ALUs, one warp per scheduler
    for policy in (Policy.BASELINE, Policy.WLM):
        res = run(kern, policy, ONE_SM, debug=True)
        assert (res.cycles, res.issued_instructions) == (15, 2 * 15)
    compiled = annotate_phases(kern)
    assert [i.opcode for i in compiled.body[:2]] == [Opcode.PHASE_SPEC, Opcode.BARRIER]
    for policy in Policy:
        res = run(compiled, policy, ONE_SM, debug=True)
        assert res.issued_instructions == 2 * len(compiled.body)
        assert res == reference_run(compiled, policy, ONE_SM)
    assert run(kern, Policy.ZORUA, ONE_SM, debug=True).issued_instructions == 2 * len(compiled.body)
    sweep = run_sweep(kern, "list regs_per_thread=8,16\n", archs=(ONE_SM,))
    assert len(sweep.rows) == 6 and all(r.cycles is not None for r in sweep.rows)


def test_an_arch_without_scratchpad_runs_kernels_that_use_none():
    # the scratchpad table has capacity 0; a kernel that declares no
    # scratchpad never asks it for a set
    bare = replace(ONE_SM, scratch_bytes_per_sm=0)
    cliff = corpus_kernel("reg_cliff")
    kern = replace(cliff, resource_spec=replace(cliff.resource_spec, num_blocks=12))
    assert kern.resource_spec.scratch_bytes_per_block == 0
    for policy in Policy:
        res = run(kern, policy, bare, debug=True)
        assert res.cycles == run(kern, policy, ONE_SM).cycles
    uses_scratch = _kernel(_alu(4, scr=1024), scratch=1024)
    for policy in Policy:
        with pytest.raises(KernelUnrunnableError):
            run(uses_scratch, policy, bare)


def test_pinned_threshold_keeps_every_access_on_chip():
    cfg = OversubscriptionConfig(fixed_o_thresh_frac=0.0, guard_enabled=False)
    res = run(corpus_kernel("uniform"), Policy.ZORUA, oversub=cfg)
    assert res.reg_hit_rate == 1.0
    assert res.scratch_hit_rate == 1.0
    assert res.slot_hit_rate == 1.0


@pytest.mark.parametrize("policy", ["baseline", "wlm", "zorua"])
def test_a_saved_compiled_kernel_reloads_as_itself(tmp_path, policy):
    # a specifier has no liveness of its own, so its text loses nothing:
    # past it a warp holds what the next instruction leaves live
    compiled = annotate_phases(corpus_kernel("reg_cliff"))
    path = tmp_path / "reg_cliff.kernel"
    save_kernel(compiled, path)
    reloaded = load_kernel(path)
    assert reloaded == compiled
    util = run(compiled, policy, collect_util=True).utilization
    assert run(reloaded, policy, collect_util=True).utilization == util
    expected = {"baseline": 0.766, "wlm": 0.768, "zorua": 0.537}[policy]
    assert round(util.register_utilization, 3) == expected


def test_utilization_constant_liveness_at_maximum_is_one():
    rep = run(_kernel(_alu(50, live=8), regs=8), Policy.BASELINE, collect_util=True).utilization
    assert rep.register_utilization == 1.0
    assert rep.scratch_utilization is None  # kernel declares no scratchpad


def test_utilization_half_live_registers_reads_half():
    body = [
        Instruction(Opcode.ALU, live_regs_after=16, live_scratch_after=2048)
        for _ in range(50)
    ]
    rep = run(_kernel(body, regs=32, scratch=2048), Policy.BASELINE, collect_util=True).utilization
    assert rep.register_utilization == 0.5
    assert rep.scratch_utilization == 1.0


def test_utilization_epoch_granularity_monotone_profile():
    # liveness only falls over the body; coarser epochs smear the early
    # high-usage span over the tail, so measured utilization can only
    # grow with the window
    ramp = [
        Instruction(Opcode.ALU, live_regs_after=32 - (31 * i) // 3299)
        for i in range(3300)
    ]
    kern = _kernel(ramp, regs=32)
    fine, coarse = (
        run(kern, Policy.BASELINE, replace(FERMI, epoch_cycles=e), collect_util=True).utilization
        for e in (500, 4000)
    )
    assert coarse.register_utilization >= fine.register_utilization


def test_utilization_exposes_scratch_phase_gap():
    kern = corpus_kernel("scratch_cliff")
    kern = replace(kern, resource_spec=replace(kern.resource_spec, num_blocks=1))
    rep = run(kern, Policy.BASELINE, replace(FERMI, epoch_cycles=16), collect_util=True).utilization
    # epochs inside the 384-byte phase read exactly 384/4224
    assert any(v == 384 / 4224 for v in rep.scratch_per_epoch if v is not None)
    assert rep.scratch_utilization < 1.0


@pytest.mark.parametrize("trailing_barrier", [False, True])
@pytest.mark.parametrize("name", corpus_names())
def test_recorders_only_observe(name, trailing_barrier):
    # utilization and the event log read the run; they must not steer it
    kern = _ending_in_barrier(name) if trailing_barrier else corpus_kernel(name)
    for policy in Policy:
        try:
            plain = run(kern, policy).to_dict()
        except KernelUnrunnableError:
            with pytest.raises(KernelUnrunnableError):
                run(kern, policy, collect_util=True, log_events=True)
            continue
        res = run(kern, policy, collect_util=True, log_events=True)
        assert res.utilization is not None and res.event_log
        assert res.to_dict() == {**plain, "utilization": res.to_dict()["utilization"]}
        # each flag alone records its own part, the same as both together
        util_only = run(kern, policy, collect_util=True)
        assert util_only.event_log is None
        assert util_only.to_dict() == res.to_dict()
        log_only = run(kern, policy, log_events=True)
        assert log_only.utilization is None
        assert log_only.event_log == res.event_log
        assert log_only.to_dict() == plain


def test_deadlock_guard_resolves_barrier_wait_on_held_registers():
    # both warps need all 8 physical sets; the first parks at the
    # barrier still holding them, so the second can only arrive if the
    # guard forces it in through swap
    arch = replace(FERMI, num_sms=1, registers_per_sm=1024)
    body = _alu(1, live=32) + [
        Instruction(Opcode.BARRIER, live_regs_after=32)
    ] + _alu(1, live=32)
    kern = _kernel(body, threads=64, regs=32)
    res = run(
        kern,
        Policy.ZORUA,
        arch,
        oversub=OversubscriptionConfig(fixed_o_thresh_frac=0.0),
    )
    assert res.guard_admissions >= 1
    assert res.issued_instructions == 2 * (len(body) + 1)
    assert res.reg_hit_rate < 1.0


def _cut(name, blocks):
    kern = corpus_kernel(name)
    return replace(kern, resource_spec=replace(kern.resource_spec, num_blocks=blocks))


def test_zorua_with_pinned_thresholds_and_no_guard_raises_when_wedged():
    # barrier waiters hold every register set their siblings queue for;
    # with no swap budget, no guard and no controller nothing frees them
    arch = replace(ONE_SM, registers_per_sm=8192)
    cfg = OversubscriptionConfig(fixed_o_thresh_frac=0.0, guard_enabled=False)
    with pytest.raises(NonTerminationError, match="wedged with no runnable warps"):
        run(_cut("scratch_cliff", 24), Policy.ZORUA, arch, oversub=cfg)


@pytest.mark.parametrize("blocks", [8, 24])
def test_zorua_without_the_guard_books_idle_cycles(blocks):
    # with the guard off an SM with queued warps and nothing schedulable
    # waits for the controller, and those cycles are idle; at 8 blocks
    # every block arrives at launch, so only the coordinator's queues say
    # that work is pending
    arch = replace(ONE_SM, registers_per_sm=4096)
    cfg = OversubscriptionConfig(guard_enabled=False)
    res = run(_cut("mixed_phase", blocks), Policy.ZORUA, arch, oversub=cfg, debug=True)
    assert res.c_idle == 3872 > 0
    assert sum(e.c_idle for e in res.epochs) == res.c_idle
