from smvirt.coordinator import (
    BlockRecord,
    Coordinator,
    OversubscriptionConfig,
    WarpState,
    adjust_o_thresh,
)
from smvirt.resource_maps import ArchConfig, Placement, ResourceKind, get_arch

FERMI = get_arch("fermi")

TINY = ArchConfig(
    name="tiny",
    num_sms=1,
    warp_slots_per_sm=16,
    max_logical_warps=32,
    max_logical_blocks=8,
    registers_per_sm=128 * 32,
    scratch_bytes_per_sm=8192,
    max_blocks_per_sm_baseline=8,
)


def test_adjust_o_thresh_oracle_table():
    # (current, step, d_idle, d_mem, expected) with capacity 256
    cases = [
        # idle dominates by more than 16: grow
        (25, 10, 60, 10, 35),
        (25, 10, 17, 0, 35),
        (0, 10, 100, 0, 10),
        (250, 10, 60, 10, 256),  # clamps to capacity
        (256, 10, 60, 10, 256),
        # memory dominates by more than 16: shrink
        (25, 10, 10, 40, 15),
        (25, 10, 0, 17, 15),
        (5, 10, 0, 100, 0),  # clamps at zero
        (0, 10, 0, 100, 0),
        # dead zone: |difference| <= 16 leaves the threshold alone
        (25, 10, 20, 10, 25),
        (25, 10, 10, 20, 25),
        (25, 10, 16, 0, 25),
        (25, 10, 0, 16, 25),
        (25, 10, 0, 0, 25),
        (0, 10, 5, 5, 0),
        # equal pressure in both directions
        (40, 10, 300, 300, 40),
        # strictness right at the boundary: 17 moves, 16 does not
        (25, 10, 33, 16, 35),
        (25, 10, 16, 33, 15),
        # different step sizes
        (25, 1, 60, 10, 26),
        (25, 25, 10, 60, 0),
        # explicit hard cap below capacity
        (25, 10, 60, 10, 30),
    ]
    for current, step, d_idle, d_mem, want in cases[:-1]:
        got = adjust_o_thresh(current, 256, step, d_idle, d_mem)
        assert got == want, (current, step, d_idle, d_mem, got, want)
    got = adjust_o_thresh(25, 256, 10, 60, 10, hard_cap=30)
    assert got == 30


def test_default_thresholds_are_tenth_of_capacity():
    coord = Coordinator(FERMI, OversubscriptionConfig())
    assert coord.o_thresh[ResourceKind.REGISTER] == 25
    assert coord.o_thresh[ResourceKind.SCRATCHPAD] == 4
    assert coord.o_thresh[ResourceKind.WARP_SLOT] == 4


def _arrive(coord, bid, wids, reg_sets, scratch_sets):
    coord.on_block_arrival(bid, tuple(wids), reg_sets, scratch_sets)


def test_block_admitted_when_everything_fits():
    coord = Coordinator(TINY, OversubscriptionConfig())
    _arrive(coord, 0, range(4), reg_sets=2, scratch_sets=1)
    assert all(coord.warps[w].state is WarpState.SCHEDULABLE for w in range(4))
    assert coord.tables[ResourceKind.REGISTER].owned(0) == 2
    assert coord.tables[ResourceKind.SCRATCHPAD].owned(0) == 1
    assert coord.check_invariants() == []


def test_scratch_overflow_lands_in_swap_within_budget():
    coord = Coordinator(FERMI, OversubscriptionConfig())
    scratch = coord.tables[ResourceKind.SCRATCHPAD]
    _arrive(coord, 0, range(3), reg_sets=1, scratch_sets=45)
    assert scratch.free_physical == 3
    # five more sets wanted, three physical left, threshold 4 allows the
    # two-set overflow to live in swap
    _arrive(coord, 1, range(3, 6), reg_sets=1, scratch_sets=5)
    assert all(coord.warps[w].state is WarpState.SCHEDULABLE for w in range(3, 6))
    assert scratch.budget_swap() == 2
    assert scratch.free_physical == 0
    assert coord.budget_violations == 0
    assert coord.check_invariants() == []


def test_admission_denied_beyond_budget_and_queues_hold_no_regs():
    coord = Coordinator(FERMI, OversubscriptionConfig())
    _arrive(coord, 0, range(3), reg_sets=1, scratch_sets=45)
    _arrive(coord, 1, range(3, 6), reg_sets=1, scratch_sets=5)
    # 2 of 4 budget sets used; another 5-set block would need 5 more
    _arrive(coord, 2, range(6, 9), reg_sets=1, scratch_sets=5)
    regs = coord.tables[ResourceKind.REGISTER]
    for w in range(6, 9):
        assert coord.warps[w].state is WarpState.PENDING_SCRATCH
        assert regs.owned(w) == 0
    assert coord.check_invariants() == []


def test_finish_promotes_swap_then_admits_pending():
    coord = Coordinator(FERMI, OversubscriptionConfig())
    _arrive(coord, 0, range(3), reg_sets=1, scratch_sets=45)
    _arrive(coord, 1, range(3, 6), reg_sets=1, scratch_sets=5)
    _arrive(coord, 2, range(6, 9), reg_sets=1, scratch_sets=5)
    scratch = coord.tables[ResourceKind.SCRATCHPAD]
    for w in range(3):
        coord.on_warp_finished(w)
    # block 0 is gone; block 1's overflow must be back on chip and block 2 in
    assert scratch.budget_swap() == 0
    assert scratch.peek(1, 3) is Placement.PHYSICAL
    assert all(coord.warps[w].state is WarpState.SCHEDULABLE for w in range(6, 9))
    assert coord.check_invariants() == []


def test_phase_growth_releases_registers_before_scratch_wait():
    coord = Coordinator(FERMI, OversubscriptionConfig())
    _arrive(coord, 0, range(2), reg_sets=2, scratch_sets=46)
    _arrive(coord, 1, (7,), reg_sets=2, scratch_sets=1)
    regs = coord.tables[ResourceKind.REGISTER]
    assert coord.warps[7].state is WarpState.SCHEDULABLE
    # the warp's next phase wants 8 scratch sets; only 1 physical left and
    # the 7-set overflow blows the budget of 4, so it waits without regs
    assert coord.on_phase_change(7, reg_sets=2, scratch_sets=8) is False
    assert coord.warps[7].state is WarpState.PENDING_SCRATCH
    assert regs.owned(7) == 0
    assert coord.check_invariants() == []


def test_phase_shrink_frees_excess_immediately():
    coord = Coordinator(FERMI, OversubscriptionConfig())
    _arrive(coord, 0, (0,), reg_sets=6, scratch_sets=8)
    regs = coord.tables[ResourceKind.REGISTER]
    scratch = coord.tables[ResourceKind.SCRATCHPAD]
    assert coord.on_phase_change(0, reg_sets=2, scratch_sets=3) is True
    assert regs.owned(0) == 2
    assert scratch.owned(0) == 3  # block shrinks to the max live demand
    assert coord.check_invariants() == []


def test_barrier_parking_and_resume():
    cfg = OversubscriptionConfig(fixed_o_thresh_frac=0.5, guard_enabled=False)
    coord = Coordinator(TINY, cfg)
    for bid in range(4):
        _arrive(coord, bid, range(bid * 4, bid * 4 + 4), reg_sets=1, scratch_sets=0)
    assert coord.schedulable_count() == 16
    for wid in range(16):
        coord.on_barrier(wid)
    # slots are full of barrier-waiting warps; a new block parks victims
    _arrive(coord, 9, range(16, 20), reg_sets=1, scratch_sets=0)
    parked = [w for w in range(16) if coord.warps[w].state is WarpState.PARKED]
    assert parked == [0, 1, 2, 3]  # oldest barrier arrivals first
    assert all(coord.warps[w].state is WarpState.SCHEDULABLE for w in range(16, 20))
    slots = coord.tables[ResourceKind.WARP_SLOT]
    assert slots.peek(0, 0) is Placement.SWAP
    assert coord.tables[ResourceKind.REGISTER].owned(0) == 0
    assert coord.check_invariants() == []

    # releasing block 0 lets its parked warps re-admit by parking others
    coord.release_barrier(0)
    effects = coord.drain_effects()
    assert ("slot_swapin", 0) in effects
    assert coord.warps[0].state is WarpState.SCHEDULABLE
    assert coord.check_invariants() == []


def test_parked_victim_is_the_oldest_barrier_arrival_not_the_lowest_wid():
    cfg = OversubscriptionConfig(fixed_o_thresh_frac=0.5, guard_enabled=False)
    coord = Coordinator(TINY, cfg)
    for bid in range(4):
        _arrive(coord, bid, range(bid * 4, bid * 4 + 4), reg_sets=1, scratch_sets=0)
    # block 2 reaches its barrier before block 0, each highest wid first
    for wid in (11, 9, 10, 8, 3, 1, 2, 0):
        coord.on_barrier(wid)
    coord.drain_effects()
    _arrive(coord, 9, range(16, 20), reg_sets=1, scratch_sets=0)
    parked = [wid for tag, wid in coord.drain_effects() if tag == "parked"]
    assert parked == [11, 9, 10, 8]
    assert coord.check_invariants() == []


def test_completed_block_leaves_the_registry():
    coord = Coordinator(TINY, OversubscriptionConfig())
    _arrive(coord, 0, range(2), reg_sets=1, scratch_sets=1)
    _arrive(coord, 1, range(2, 4), reg_sets=1, scratch_sets=1)
    assert coord.on_warp_finished(0) is False
    # a finished warp of a live block stays until its block completes
    assert sorted(coord.warps) == [0, 1, 2, 3]
    assert coord.live_warps() == 3
    assert coord.on_warp_finished(1) is True
    assert sorted(coord.warps) == [2, 3]
    assert list(coord.blocks) == [1]
    assert coord.live_blocks() == 1 and coord.live_warps() == 2
    assert coord.tables[ResourceKind.SCRATCHPAD].owned(0) == 0
    assert coord.check_invariants() == []


def test_invariants_report_leaks_and_a_stale_registry():
    coord = Coordinator(TINY, OversubscriptionConfig())
    _arrive(coord, 0, range(2), reg_sets=1, scratch_sets=0)
    coord.on_warp_finished(0)
    # a register set handed to a warp after it finished is caught when
    # its block leaves the registry
    coord.tables[ResourceKind.REGISTER].allocate(0, 1, Placement.PHYSICAL)
    coord.on_warp_finished(1)
    assert coord.check_invariants() == ["warp 0 finished but still owns resources"]
    coord.tables[ResourceKind.REGISTER].free_all(0)
    coord.retired_errors.clear()
    coord.blocks[5] = BlockRecord(bid=5, warp_ids=(40,), finished_warps=1)
    assert coord.check_invariants() == ["block 5 completed but is still registered"]


def test_deadlock_guard_forces_one_admission_per_call():
    cfg = OversubscriptionConfig(fixed_o_thresh_frac=0.0)
    coord = Coordinator(TINY, cfg)
    _arrive(coord, 0, range(4), reg_sets=8, scratch_sets=0)  # 32 sets: all of them
    _arrive(coord, 1, range(4, 8), reg_sets=8, scratch_sets=0)
    for w in range(4, 8):
        assert coord.warps[w].state is WarpState.PENDING_REG
    # while block 0 still runs, enough warps are schedulable; no guard
    assert coord.deadlock_guard() is False
    for w in range(4):
        coord.on_barrier(w)
    # everyone is stuck at the barrier now and nothing is schedulable
    assert coord.schedulable_count() == 0
    regs = coord.tables[ResourceKind.REGISTER]
    assert coord.deadlock_guard() is True
    assert coord.guard_admissions == 1
    assert coord.warps[4].state is WarpState.SCHEDULABLE
    # forced overflow is exempt from the (zero) budget
    assert regs.budget_swap() == 0
    assert regs.mapped_swap == 8
    assert coord.budget_violations == 0
    assert coord.check_invariants() == []
    assert coord.deadlock_guard() is True
    assert coord.guard_admissions == 2


def test_effects_drain_once():
    coord = Coordinator(TINY, OversubscriptionConfig())
    _arrive(coord, 0, (0, 1), reg_sets=1, scratch_sets=0)
    effects = coord.drain_effects()
    assert ("schedulable", 0) in effects
    assert coord.drain_effects() == []
