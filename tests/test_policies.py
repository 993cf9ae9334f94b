"""Static admission math, the one admission class of the two
non-virtualizing policies, and the registry all three policies share."""

import pytest

from smvirt.coordinator import Coordinator, OversubscriptionConfig
from smvirt.kernel_model import Instruction, KernelSpec, Opcode, PhaseSpecifier, ResourceSpecification
from smvirt.policies import (
    KernelUnrunnableError,
    Policy,
    StaticAdmission,
    admission_limits,
    baseline_blocks_in_flight,
    launch_key,
    make_admission,
    wlm_is_runnable,
)
from smvirt.registry import WarpRecord, WarpState
from smvirt.resource_maps import get_arch

FERMI = get_arch("fermi")
KEPLER = get_arch("kepler")


def _spec(threads, regs, scratch=0, blocks=1):
    return ResourceSpecification(
        threads_per_block=threads,
        regs_per_thread=regs,
        scratch_bytes_per_block=scratch,
        num_blocks=blocks,
    )


def test_policy_names_round_trip():
    assert Policy.from_name("baseline") is Policy.BASELINE
    assert Policy.from_name("ZORUA") is Policy.ZORUA
    with pytest.raises(ValueError):
        Policy.from_name("greedy")


def test_register_bound_block_counts():
    # 480 threads x 32 regs = 15360 regs per block -> two fit in 32768
    assert baseline_blocks_in_flight(_spec(480, 32), FERMI) == 2
    # one more warp tips it over: 640 x 32 = 20480 -> a single block
    assert baseline_blocks_in_flight(_spec(640, 32), FERMI) == 1
    # the same kernel has headroom again on a 64K-register part
    assert baseline_blocks_in_flight(_spec(640, 32), KEPLER) == 3


def test_scratch_bound_block_counts():
    assert baseline_blocks_in_flight(_spec(64, 4, scratch=24 * 1024), FERMI) == 2
    assert baseline_blocks_in_flight(_spec(64, 4, scratch=25 * 1024), FERMI) == 1
    # zero declared scratch never constrains
    assert baseline_blocks_in_flight(_spec(64, 4, scratch=0), FERMI) == 8


def test_slot_and_hard_limits():
    # 16 warps per block -> 48 slots fit 3
    assert baseline_blocks_in_flight(_spec(512, 4), FERMI) == 3
    # tiny blocks hit the per-SM block cap, not any capacity
    assert baseline_blocks_in_flight(_spec(32, 1), FERMI) == 8
    assert baseline_blocks_in_flight(_spec(32, 1), KEPLER) == 16


def test_unrunnable_is_zero_blocks():
    assert baseline_blocks_in_flight(_spec(1024, 63), FERMI) == 0
    assert baseline_blocks_in_flight(_spec(64, 4, scratch=49 * 1024), FERMI) == 0


def test_floor_oracle_over_a_grid():
    for threads in range(64, 1025, 64):
        for regs in (8, 16, 21, 32, 48):
            spec = _spec(threads, regs)
            got = baseline_blocks_in_flight(spec, FERMI)
            expect = min(
                32768 // (threads * regs),
                48 // (threads // 32),
                8,
            )
            assert got == expect, (threads, regs)


def test_wlm_scratch_is_still_block_granular():
    assert not wlm_is_runnable(_spec(64, 4, scratch=49 * 1024), FERMI, False)
    assert wlm_is_runnable(_spec(64, 4, scratch=48 * 1024), FERMI, False)


def test_wlm_barrier_needs_a_fully_resident_block():
    wide = _spec(1568, 4)  # 49 warps, one more than the slot file
    assert wlm_is_runnable(wide, FERMI, has_barrier=False)
    assert not wlm_is_runnable(wide, FERMI, has_barrier=True)
    heavy = _spec(1024, 63)  # register file cannot hold the block
    assert wlm_is_runnable(heavy, FERMI, has_barrier=False)
    assert not wlm_is_runnable(heavy, FERMI, has_barrier=True)


def test_wlm_single_warp_floor_without_barriers():
    # one warp's registers must fit; barrier-free kernels need no more
    assert wlm_is_runnable(_spec(2048, 63), FERMI, False)
    assert not wlm_is_runnable(
        _spec(32, 2000), FERMI, False
    )  # 2000 x 32 > 32768


def _static(policy, spec):
    """policy's admission object on fermi for a one-ALU kernel of spec."""
    kernel = KernelSpec("k", spec, (Instruction(Opcode.ALU),))
    limits = admission_limits(policy, kernel, FERMI)
    return make_admission(policy, limits, FERMI, OversubscriptionConfig())


def test_static_policies_differ_only_in_their_limits():
    spec = _spec(512, 4, scratch=12 * 1024)  # three 16-warp blocks fit whole
    kernel = KernelSpec("k", spec, (Instruction(Opcode.ALU),))
    for policy, limits in [(Policy.BASELINE, (48, 3)), (Policy.WLM, (48, 4))]:
        adm = _static(policy, spec)
        assert type(adm) is StaticAdmission
        assert (adm.warp_limit, adm.block_limit) == limits
        assert admission_limits(policy, kernel, FERMI) == limits
        # no controller and no guard: nothing schedulable is a wedge
        assert not adm.retunes and adm.deadlock_guard() is False
    assert _static(Policy.WLM, _spec(512, 4)).block_limit == float("inf")
    # zorua admission reads nothing of the declaration
    assert admission_limits(Policy.ZORUA, kernel, FERMI) == ()


def _key_limits(policy, blocks):
    """The binding limits in launch_key of a one-ALU 480-thread, 32-register
    launch of blocks on fermi, after its timing, shape and count."""
    kernel = KernelSpec("k", _spec(480, 32, blocks=blocks), (Instruction(Opcode.ALU),))
    *read, limits = launch_key(policy, kernel, FERMI)
    assert read == [15, 2, 400, 64, 2048, 480, blocks]
    return limits


def test_launch_key_keeps_the_limits_a_launch_can_reach():
    # 45, 30 and 15 blocks over fermi's 15 SMs are 3, 2 and 1 per SM
    kernel = KernelSpec("k", _spec(480, 32, blocks=45), (Instruction(Opcode.ALU),))
    # zorua's admission reads the arch itself and nothing of the declaration
    assert launch_key(Policy.ZORUA, kernel, FERMI) == (FERMI, 480, 45)
    # baseline's two whole 15-warp blocks bind while at most the per-SM count
    assert admission_limits(Policy.BASELINE, kernel, FERMI) == (30, 2)
    for blocks in (45, 30):
        assert _key_limits(Policy.BASELINE, blocks) == (30, 2)
    assert _key_limits(Policy.BASELINE, 15) == (15, 1)
    # wlm's unbounded block limit becomes the per-SM count; its warp limit
    # binds until that count's warps are fewer
    assert admission_limits(Policy.WLM, kernel, FERMI) == (32, float("inf"))
    assert _key_limits(Policy.WLM, 45) == (32, 3)
    assert _key_limits(Policy.WLM, 31) == (32, 3)
    assert _key_limits(Policy.WLM, 15) == (15, 1)
    # it refuses what admission_limits refuses: no 1024-thread block of
    # 64 registers fits fermi whole
    big = KernelSpec("k", _spec(1024, 64), (Instruction(Opcode.ALU),))
    with pytest.raises(KernelUnrunnableError):
        launch_key(Policy.BASELINE, big, FERMI)


def _arrive(adm, bid, warps):
    """A block arrives with an entry phase that needs no sets."""
    adm.on_block_arrival(bid, tuple(range(bid * warps, (bid + 1) * warps)), PhaseSpecifier(0, 0))


def test_wlm_admits_a_block_warp_by_warp_as_slots_free():
    adm = _static(Policy.WLM, _spec(1024, 8))  # 32 warps
    _arrive(adm, 0, 32)
    assert adm.can_accept_block(32)
    _arrive(adm, 1, 32)  # only 16 of the 48 slots are left
    assert [w.wid for w in adm.admitted] == list(range(48))
    adm.admitted.clear()
    assert not adm.can_accept_block(32)
    adm.on_warp_finished(0)
    assert [w.wid for w in adm.admitted] == [48]
    assert adm.warps[48].state is WarpState.SCHEDULABLE
    assert adm.warps[49].state is WarpState.PENDING_THREAD
    assert adm.check_invariants() == []


@pytest.mark.parametrize("policy", [Policy.BASELINE, Policy.WLM], ids=["baseline", "wlm"])
def test_static_invariants_report_a_corrupted_counter(policy):
    adm = _static(policy, _spec(64, 8))
    _arrive(adm, 0, 2)
    assert adm.check_invariants() == []
    adm.held -= 1
    assert adm.check_invariants() == ["1 warps counted as held, 2 are"]


def test_baseline_invariants_bound_blocks_in_flight():
    adm = _static(Policy.BASELINE, _spec(512, 4))  # three 16-warp blocks fit
    for bid in range(3):
        assert adm.can_accept_block(16)
        _arrive(adm, bid, 16)
    assert not adm.can_accept_block(16)
    assert adm.check_invariants() == []
    _arrive(adm, 3, 16)  # admitted past the limit
    assert any("4 blocks in flight" in e for e in adm.check_invariants())


each_admission = pytest.mark.parametrize(
    "make",
    [
        lambda: _static(Policy.BASELINE, _spec(64, 8)),
        lambda: _static(Policy.WLM, _spec(64, 8)),
        lambda: Coordinator(FERMI, OversubscriptionConfig()),
    ],
    ids=["baseline", "wlm", "zorua"],
)


@each_admission
def test_admission_drops_a_completed_block(make):
    adm = make()
    _arrive(adm, 0, 2)
    _arrive(adm, 1, 2)
    # the engine reads a completion off the registry, not the hook
    assert adm.on_warp_finished(0) is None
    assert sorted(adm.warps) == [0, 1, 2, 3]
    assert list(adm.blocks) == [0, 1]
    assert adm.on_warp_finished(1) is None
    assert sorted(adm.warps) == [2, 3]
    assert list(adm.blocks) == [1]
    assert adm.check_invariants() == []
    adm.warps[9] = WarpRecord(wid=9, block_id=4, state=WarpState.FINISHED)
    assert "warp 9 belongs to unregistered block 4" in adm.check_invariants()


def _leave_a_stale_record(adm):
    adm.warps[2].state = WarpState.AT_BARRIER  # past _set_state, so still listed


def _break_the_wid_order(adm):
    adm.sched_lists[0].reverse()


def _miscount(adm):
    adm.n_schedulable += 1


def _list_a_copy(adm):
    adm.sched_lists[0][0] = WarpRecord(wid=0, block_id=0, state=WarpState.SCHEDULABLE)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_leave_a_stale_record, "scheduler 0 list is not its schedulable warps"),
        (_break_the_wid_order, "scheduler 0 list is not in wid order"),
        (_miscount, "5 warps counted schedulable, 4 listed"),
        (_list_a_copy, "scheduler 0 list holds a record the registry does not"),
    ],
    ids=["stale", "order", "count", "copy"],
)
@each_admission
def test_registry_errors_name_a_corrupted_scheduler_index(make, corrupt, message):
    adm = make()
    _arrive(adm, 0, 2)
    _arrive(adm, 1, 2)
    assert [[w.wid for w in part] for part in adm.sched_lists] == [[0, 2], [1, 3]]
    assert adm.n_schedulable == 4
    assert adm.registry_errors() == []
    corrupt(adm)
    assert adm.registry_errors() == [message]
