from dataclasses import replace

import pytest

from smvirt.coordinator import Coordinator, OversubscriptionConfig, adjust_o_thresh
from smvirt.corpus import corpus_kernel
from smvirt.engine import EpochStats, run
from smvirt.kernel_model import PhaseSpecifier
from smvirt.policies import StaticAdmission
from smvirt.registry import BlockRecord, WarpState
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
        # a capacity below 256 clamps lower
        (25, 10, 60, 10, 30),
    ]
    for current, step, d_idle, d_mem, want in cases[:-1]:
        got = adjust_o_thresh(current, 256, step, d_idle, d_mem)
        assert got == want, (current, step, d_idle, d_mem, got, want)
    got = adjust_o_thresh(25, 30, 10, 60, 10)
    assert got == 30


def test_default_thresholds_are_tenth_of_capacity():
    coord = Coordinator(FERMI, OversubscriptionConfig())
    assert coord.final_thresholds() == {"register": 25, "scratchpad": 4, "warp_slot": 4}


def _phase(reg_sets, scratch_sets):
    """A phase specifier that needs exactly these sets."""
    return PhaseSpecifier(4 * reg_sets, 1024 * scratch_sets)


def _arrive(coord, bid, wids, reg_sets, scratch_sets):
    coord.on_block_arrival(bid, tuple(wids), _phase(reg_sets, scratch_sets))


def _epoch(c_idle, c_mem):
    """A closed epoch with these stall counts and nothing else."""
    return EpochStats(0, 0, 0, c_idle, c_mem, 0, 0, 0, 0)


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
    coord.on_phase_change(7, _phase(reg_sets=2, scratch_sets=8))
    assert coord.warps[7].state is WarpState.PENDING_SCRATCH
    assert regs.owned(7) == 0
    assert coord.check_invariants() == []


def test_phase_shrink_frees_excess_immediately():
    coord = Coordinator(FERMI, OversubscriptionConfig())
    _arrive(coord, 0, (0,), reg_sets=6, scratch_sets=8)
    regs = coord.tables[ResourceKind.REGISTER]
    scratch = coord.tables[ResourceKind.SCRATCHPAD]
    coord.on_phase_change(0, _phase(reg_sets=2, scratch_sets=3))
    assert coord.warps[0].state is WarpState.SCHEDULABLE
    assert regs.owned(0) == 2
    assert scratch.owned(0) == 3  # block shrinks to the max live demand
    assert coord.check_invariants() == []


def test_barrier_parking_and_resume():
    cfg = OversubscriptionConfig(fixed_o_thresh_frac=0.5, guard_enabled=False)
    coord = Coordinator(TINY, cfg)
    for bid in range(4):
        _arrive(coord, bid, range(bid * 4, bid * 4 + 4), reg_sets=1, scratch_sets=0)
    assert coord.n_schedulable == 16
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

    # releasing block 0 lets its parked warps re-admit by parking others;
    # restoring a parked warp's state costs a memory round trip
    coord.wake = 100
    coord.admitted.clear()
    coord.release_barrier(0)
    assert coord.warps[0].state is WarpState.SCHEDULABLE
    assert coord.warps[0] in coord.admitted
    assert coord.warps[0].next_ready == 100 + TINY.memory_latency_cycles
    assert coord.check_invariants() == []


def test_parked_victim_is_the_oldest_barrier_arrival_not_the_lowest_wid():
    cfg = OversubscriptionConfig(fixed_o_thresh_frac=0.5, guard_enabled=False)
    coord = Coordinator(TINY, cfg)
    for bid in range(4):
        _arrive(coord, bid, range(bid * 4, bid * 4 + 4), reg_sets=1, scratch_sets=0)
    # block 2 reaches its barrier before block 0, each highest wid first
    for wid in (11, 9, 10, 8, 3, 1, 2, 0):
        coord.on_barrier(wid)
    _arrive(coord, 9, range(16, 20), reg_sets=1, scratch_sets=0)
    parked = {wid for wid, w in coord.warps.items() if w.state is WarpState.PARKED}
    assert parked == {8, 9, 10, 11}
    assert coord.check_invariants() == []


def test_completed_block_leaves_the_registry():
    coord = Coordinator(TINY, OversubscriptionConfig())
    _arrive(coord, 0, range(2), reg_sets=1, scratch_sets=1)
    _arrive(coord, 1, range(2, 4), reg_sets=1, scratch_sets=1)
    coord.on_warp_finished(0)
    # a finished warp of a live block stays until its block completes
    assert sorted(coord.warps) == [0, 1, 2, 3]
    assert coord.warps[0].state is WarpState.FINISHED
    assert coord.blocks[0].finished_warps == 1
    coord.on_warp_finished(1)
    assert sorted(coord.warps) == [2, 3]
    assert len(coord.blocks) == 1 and list(coord.blocks) == [1]
    assert all(coord.warps[w].state is not WarpState.FINISHED for w in (2, 3))
    assert coord.tables[ResourceKind.SCRATCHPAD].owned(0) == 0
    assert coord.check_invariants() == []


def test_scheduler_lists_stay_in_wid_order_through_appends_and_inserts():
    # two schedulers: even wids on list 0, odd on list 1; room for three
    # whole blocks of four warps
    adm = StaticAdmission(FERMI, warp_limit=12, block_limit=3)

    def lists():
        return [[w.wid for w in part] for part in adm.sched_lists]

    adm.on_block_arrival(0, (0, 1, 2, 3), None)
    adm.on_block_arrival(1, (4, 5, 6, 7), None)
    assert [adm.on_barrier(wid) for wid in range(4)] == [False, False, False, True]
    assert lists() == [[4, 6], [5, 7]]
    # released below block 1's warps: each is inserted mid-list
    adm.release_barrier(0)
    assert lists() == [[0, 2, 4, 6], [1, 3, 5, 7]]
    # a new block's warps lie past every tail: each is appended
    adm.on_block_arrival(2, (8, 9, 10, 11), None)
    assert lists() == [[0, 2, 4, 6, 8, 10], [1, 3, 5, 7, 9, 11]]
    assert adm.n_schedulable == 12
    assert adm.registry_errors() == []


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
    assert coord.n_schedulable == 0
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


def test_admitted_lists_each_admission_once():
    coord = Coordinator(TINY, OversubscriptionConfig())
    _arrive(coord, 0, (0, 1), reg_sets=1, scratch_sets=0)
    assert [w.wid for w in coord.admitted] == [0, 1]
    coord.admitted.clear()  # as the engine does once it has walked the list
    coord.on_phase_change(0, _phase(reg_sets=1, scratch_sets=0))  # same demand
    assert coord.admitted == []


def test_admission_raises_an_admitted_warp_to_the_wake():
    # the engine sets wake before each occasion's hooks: a warp admitted
    # below it rises to it, one above it keeps its next_ready, and a
    # parked warp restored from swap issues a memory round trip later
    cfg = OversubscriptionConfig(fixed_o_thresh_frac=1 / 16, guard_enabled=False)
    coord = Coordinator(TINY, cfg)
    coord.wake = 7
    for bid in range(4):
        _arrive(coord, bid, range(bid * 4, bid * 4 + 4), reg_sets=1, scratch_sets=0)
    assert [coord.warps[w].next_ready for w in range(16)] == [7] * 16
    for wid in range(4):
        coord.warps[wid].next_ready = 20 + wid  # as the engine sets it on issue
        coord.on_barrier(wid)
    coord.wake = 22
    coord.release_barrier(0)
    assert [coord.warps[w].next_ready for w in range(4)] == [22, 22, 22, 23]
    # warp 16 parks warp 0 to take its slot
    coord.on_barrier(0)
    _arrive(coord, 4, (16,), reg_sets=1, scratch_sets=0)
    assert coord.warps[0].state is WarpState.PARKED
    for wid in (1, 2, 3):
        coord.on_barrier(wid)
    coord.release_barrier(0)  # warp 0 queues again for a slot
    assert coord.warps[0].state is WarpState.PENDING_THREAD
    coord.wake = 50
    coord.on_warp_finished(16)
    assert coord.warps[0].state is WarpState.SCHEDULABLE
    assert coord.warps[0].next_ready == 50 + TINY.memory_latency_cycles
    assert coord.check_invariants() == []


_QUEUE_PASSES = ("_retry_reg", "_retry_scratch", "_retry_slots")


def _record_passes(coord):
    """Record the name of every queue pass the coordinator makes."""
    stages = []

    def recorder(name):
        queue_pass = getattr(coord, name)

        def recorded(*args):
            stages.append(name)
            return queue_pass(*args)

        return recorded

    for name in _QUEUE_PASSES:
        setattr(coord, name, recorder(name))
    return stages


def test_register_waiter_is_retried_only_when_registers_free():
    cfg = OversubscriptionConfig(fixed_o_thresh_frac=0.0, guard_enabled=False)
    coord = Coordinator(TINY, cfg)
    _arrive(coord, 0, range(4), reg_sets=8, scratch_sets=0)  # all 32 register sets
    _arrive(coord, 1, range(4, 8), reg_sets=8, scratch_sets=0)
    assert all(coord.warps[w].state is WarpState.PENDING_REG for w in range(4, 8))
    passes = _record_passes(coord)
    # events that free no register set do not re-pass the register queue
    coord.on_barrier(0)
    coord.on_phase_change(1, _phase(reg_sets=8, scratch_sets=0))
    assert passes == []
    # an epoch always retries: one pass over the register queue, which
    # admits nobody
    coord.on_epoch(_epoch(c_idle=0, c_mem=0))
    assert passes == ["_retry_reg"]
    assert all(coord.warps[w].state is WarpState.PENDING_REG for w in range(4, 8))
    assert coord.check_invariants() == []
    # the retry that frees a warp's eight sets admits the oldest waiter
    coord.on_warp_finished(2)
    assert passes == ["_retry_reg", "_retry_reg"]
    assert coord.warps[4].state is WarpState.SCHEDULABLE
    assert all(coord.warps[w].state is WarpState.PENDING_REG for w in range(5, 8))
    assert coord.check_invariants() == []


def test_threshold_rise_at_epoch_admits_a_waiting_warp():
    coord = Coordinator(FERMI, OversubscriptionConfig())
    regs = coord.tables[ResourceKind.REGISTER]
    _arrive(coord, 0, range(16), reg_sets=16, scratch_sets=0)  # all 256 physical sets
    # the first 16-set warp fits the register budget of 25 in swap, the
    # second would need 32
    _arrive(coord, 1, (16, 17), reg_sets=16, scratch_sets=0)
    assert coord.warps[16].state is WarpState.SCHEDULABLE
    assert coord.warps[17].state is WarpState.PENDING_REG
    assert regs.budget_swap() == 16
    # idle stalls outgrow memory stalls: the threshold rises by 10 to 35
    coord.on_epoch(_epoch(c_idle=100, c_mem=0))
    assert coord.final_thresholds()["register"] == 35
    assert coord.warps[17].state is WarpState.SCHEDULABLE
    assert regs.budget_swap() == 32
    assert coord.check_invariants() == []
    # the controller reads epoch-over-epoch deltas: the same stall counts
    # again are no change, and fewer idle cycles than memory ones shrink
    coord.on_epoch(_epoch(c_idle=100, c_mem=0))
    assert coord.final_thresholds()["register"] == 35
    coord.on_epoch(_epoch(c_idle=100, c_mem=40))
    assert coord.final_thresholds()["register"] == 25


def test_scratch_waiter_passes_on_its_siblings_share_with_no_headroom():
    cfg = OversubscriptionConfig(fixed_o_thresh_frac=0.0, guard_enabled=False)
    coord = Coordinator(TINY, cfg)
    scratch = coord.tables[ResourceKind.SCRATCHPAD]
    _arrive(coord, 0, range(15), reg_sets=1, scratch_sets=4)
    # warp 15 takes the last slot and the last four scratch sets for
    # block 1; its sibling 16 waits for a slot
    _arrive(coord, 1, (15, 16), reg_sets=1, scratch_sets=4)
    assert coord.warps[15].state is WarpState.SCHEDULABLE
    assert coord.warps[16].state is WarpState.PENDING_THREAD
    assert scratch.free_physical == 0
    # a freed slot lets warp 16 on; its block already holds its share, so
    # it passes scratch with delta 0 although the table can grant nothing
    coord.on_warp_finished(0)
    assert coord.warps[16].state is WarpState.SCHEDULABLE
    assert scratch.free_physical == 0 and scratch.owned(1) == 4
    assert coord.check_invariants() == []


def test_retry_after_a_forced_admission_runs_every_stage():
    cfg = OversubscriptionConfig(fixed_o_thresh_frac=0.0)
    coord = Coordinator(TINY, cfg)
    _arrive(coord, 0, (0,), reg_sets=1, scratch_sets=6)
    # block 1 needs four scratch sets and two are free: both warps wait
    _arrive(coord, 1, (1, 2), reg_sets=1, scratch_sets=4)
    assert coord.warps[1].state is WarpState.PENDING_SCRATCH
    assert coord.warps[2].state is WarpState.PENDING_SCRATCH
    stages = _record_passes(coord)
    coord.retry_all_queues()
    # one pass over the scratchpad queue, which admits nobody
    assert stages == ["_retry_scratch"]
    assert coord.warps[1].state is WarpState.PENDING_SCRATCH
    assert coord.warps[2].state is WarpState.PENDING_SCRATCH
    # one warp schedulable is below the guard's 20% of 16 slots; the guard
    # forces warp 1, whose block then holds four sets, two of them in swap
    assert coord.deadlock_guard() is True
    assert coord.guard_admissions == 1
    assert {"_retry_reg", "_retry_scratch"} <= set(stages)
    # so its sibling passes in the same retry with nothing left to grant
    assert coord.warps[2].state is WarpState.SCHEDULABLE
    assert coord.check_invariants() == []


_EVENT_HOOKS = (
    "on_block_arrival",
    "on_phase_change",
    "on_barrier",
    "release_barrier",
    "on_warp_finished",
    "on_epoch",
)


def test_queue_passes_stay_few_on_a_large_launch(monkeypatch):
    # a work count, not a time: a hook retries only when a warp could
    # pass, and a retry passes only over a queue that holds a warp
    counts = {"events": 0, "passes": 0, "empty passes": 0}

    def counter(method, key, queue=None):
        def counted(self, *args):
            counts[key] += 1
            if queue and not getattr(self, queue):
                counts["empty passes"] += 1
            return method(self, *args)

        return counted

    for name in _EVENT_HOOKS:
        monkeypatch.setattr(Coordinator, name, counter(getattr(Coordinator, name), "events"))
    for name, queue in zip(_QUEUE_PASSES, ("_reg_q", "_scratch_q", "_thread_q")):
        method = getattr(Coordinator, name)
        monkeypatch.setattr(Coordinator, name, counter(method, "passes", queue))
    kernel = corpus_kernel("reg_cliff")
    kernel = replace(kernel, resource_spec=replace(kernel.resource_spec, num_blocks=225))
    run(kernel, "zorua", "fermi")
    # retrying all three queues after every event made 3372 passes
    assert counts["passes"] <= 1000, counts
    assert counts["empty passes"] == 0, counts


def test_a_requeued_parked_warp_passes_the_slot_stage_before_an_older_new_warp():
    # a slot budget of one parked warp
    cfg = OversubscriptionConfig(fixed_o_thresh_frac=1 / 16, guard_enabled=False)
    coord = Coordinator(TINY, cfg)
    for bid in range(4):
        _arrive(coord, bid, range(bid * 4, bid * 4 + 4), reg_sets=1, scratch_sets=0)
    coord.on_barrier(0)
    # warp 16 takes warp 0's slot by parking it; warp 17 finds none
    _arrive(coord, 4, (16, 17), reg_sets=1, scratch_sets=0)
    assert coord.warps[0].state is WarpState.PARKED
    assert coord.warps[17].state is WarpState.PENDING_THREAD
    for wid in (1, 2, 3):
        coord.on_barrier(wid)
    coord.release_barrier(0)
    # warp 0 queues for a slot after warp 17 did
    assert list(coord.warps[w].state for w in (0, 17)) == [WarpState.PENDING_THREAD] * 2
    assert coord.warps[0].enqueue_seq > coord.warps[17].enqueue_seq
    # one slot frees: the parked warp, holding its slot in swap, goes first
    # and pays the round trip that restores its state
    coord.wake = 50
    coord.admitted.clear()
    coord.on_warp_finished(4)
    assert coord.warps[0].state is WarpState.SCHEDULABLE
    assert coord.warps[17].state is WarpState.PENDING_THREAD
    assert coord.admitted == [coord.warps[0]]
    assert coord.warps[0].next_ready == 50 + TINY.memory_latency_cycles
    assert coord.check_invariants() == []


def test_the_register_waiter_holding_more_sets_is_granted_first():
    cfg = OversubscriptionConfig(fixed_o_thresh_frac=0.0, guard_enabled=False)
    coord = Coordinator(TINY, cfg)
    regs = coord.tables[ResourceKind.REGISTER]
    _arrive(coord, 0, range(4), reg_sets=4, scratch_sets=0)
    _arrive(coord, 1, (4, 5), reg_sets=8, scratch_sets=0)  # all 32 sets taken
    _arrive(coord, 2, (6,), reg_sets=2, scratch_sets=0)
    # warp 0 grows from four sets to six and queues behind warp 6
    coord.on_phase_change(0, _phase(reg_sets=6, scratch_sets=0))
    assert coord.warps[0].state is WarpState.PENDING_REG
    assert coord.warps[6].enqueue_seq < coord.warps[0].enqueue_seq
    assert regs.owned(0) == 4 and regs.owned(6) == 0
    # two sets free: both waiters lack two, and the one holding four wins
    coord.on_phase_change(1, _phase(reg_sets=2, scratch_sets=0))
    assert coord.warps[1].state is WarpState.SCHEDULABLE
    assert coord.warps[0].state is WarpState.SCHEDULABLE
    assert coord.warps[6].state is WarpState.PENDING_REG
    assert regs.owned(0) == 6
    assert coord.check_invariants() == []


def test_scratch_waiters_pass_in_enqueue_order():
    cfg = OversubscriptionConfig(fixed_o_thresh_frac=0.0, guard_enabled=False)
    coord = Coordinator(TINY, cfg)
    _arrive(coord, 0, (0, 1), reg_sets=1, scratch_sets=3)
    _arrive(coord, 1, (2, 3), reg_sets=1, scratch_sets=3)  # 6 of 8 sets taken
    _arrive(coord, 2, (4,), reg_sets=1, scratch_sets=4)
    # warp 0, of an older block and a lower id, queues for scratch later
    coord.on_phase_change(0, _phase(reg_sets=1, scratch_sets=6))
    assert [coord.warps[w].state for w in (4, 0)] == [WarpState.PENDING_SCRATCH] * 2
    assert coord.warps[4].enqueue_seq < coord.warps[0].enqueue_seq
    # block 1 shrinks to one set: four are free, enough for either waiter
    # (warp 4 lacks four, warp 0 three) but not both; the older passes
    coord.on_phase_change(2, _phase(reg_sets=1, scratch_sets=1))
    coord.on_phase_change(3, _phase(reg_sets=1, scratch_sets=1))
    assert coord.warps[4].state is WarpState.SCHEDULABLE
    assert coord.warps[0].state is WarpState.PENDING_SCRATCH
    assert coord.check_invariants() == []


def test_invariants_report_a_waiter_with_the_wrong_slot():
    cfg = OversubscriptionConfig(fixed_o_thresh_frac=0.0, guard_enabled=False)
    coord = Coordinator(TINY, cfg)
    slots = coord.tables[ResourceKind.WARP_SLOT]
    _arrive(coord, 0, range(4), reg_sets=8, scratch_sets=0)
    _arrive(coord, 1, (4,), reg_sets=8, scratch_sets=0)
    assert coord.warps[4].state is WarpState.PENDING_REG
    slots.spill_specific(4, 0, forced=True)
    assert coord.check_invariants() == ["warp 4 is pending_reg without one physical slot"]
    slots.migrate_in(4, 0)
    # a new warp waiting for a slot must not hold one on chip
    coord._set_state(coord.warps[4], WarpState.PENDING_THREAD)
    assert "warp 4 waits for a slot it holds on chip" in coord.check_invariants()


def test_invariants_hold_after_every_hook(monkeypatch):
    # the skipped retries and the swap-free fact rest on every hook leaving
    # a fixpoint, not only the epoch ticks that debug runs check
    hooks = (*_EVENT_HOOKS, "deadlock_guard")
    calls = {"hooks": 0, "swap": 0}

    def checked(hook):
        def run_and_check(self, *args):
            out = hook(self, *args)
            calls["hooks"] += 1
            calls["swap"] += bool(self.regs.mapped_swap or self.scratch.mapped_swap)
            assert self.check_invariants() == [], hook.__name__
            return out

        return run_and_check

    for name in hooks:
        monkeypatch.setattr(Coordinator, name, checked(getattr(Coordinator, name)))
    one_sm = replace(FERMI, num_sms=1)
    launches = (("reg_cliff", 12), ("mixed_phase", 10), ("scratch_cliff", 20), ("barrier_heavy", 12))
    for name, blocks in launches:
        kernel = corpus_kernel(name)
        kernel = replace(kernel, resource_spec=replace(kernel.resource_spec, num_blocks=blocks))
        run(kernel, "zorua", one_sm)
    # the launches keep sets in swap through many hooks
    assert calls["swap"] > 100, calls


def test_invariants_report_a_set_in_swap_beside_a_free_physical_set():
    coord = Coordinator(TINY, OversubscriptionConfig(fixed_o_thresh_frac=0.0, guard_enabled=False))
    regs = coord.tables[ResourceKind.REGISTER]
    _arrive(coord, 0, range(4), reg_sets=2, scratch_sets=0)
    regs.spill_specific(0, 1)
    assert coord.check_invariants() == ["register: 1 sets in swap, 25 physical sets free"]
    # a consult of the swapped set is a lookup: it pays the round trip and
    # leaves the set where it is
    assert coord.access_register(0, 1) is True
    assert regs.peek(0, 1) is Placement.SWAP
    assert coord.access_register(0, 0) is False
    coord.retry_all_queues()
    assert regs.peek(0, 1) is Placement.PHYSICAL
    assert coord.check_invariants() == []


def _two_blocks():
    """Block 0's four warps run on 4 register sets each; block 1's warps
    need 8, so warps 4 and 5 run and 6 and 7 wait, with every set taken."""
    coord = Coordinator(TINY, OversubscriptionConfig(fixed_o_thresh_frac=0.0, guard_enabled=False))
    _arrive(coord, 0, range(4), reg_sets=4, scratch_sets=0)
    _arrive(coord, 1, range(4, 8), reg_sets=8, scratch_sets=0)
    assert [coord.warps[w].state for w in (5, 6)] == [WarpState.SCHEDULABLE, WarpState.PENDING_REG]
    assert coord.regs.free_physical == 0
    assert coord.check_invariants() == []
    return coord


def _regs_while_waiting_for_scratch(coord):
    coord.regs.owned_sets[6] = 1
    coord._set_state(coord.warps[6], WarpState.PENDING_SCRATCH)


def _park_in_place(coord):
    coord._set_state(coord.warps[0], WarpState.PARKED)


def _grant_past_the_budget(coord):
    coord._grant(coord.regs, 0, 1, False)


def _swap_enqueue_order(coord):
    w6, w7 = coord.warps[6], coord.warps[7]
    w6.enqueue_seq, w7.enqueue_seq = w7.enqueue_seq, w6.enqueue_seq


@pytest.mark.parametrize(
    "corrupt, messages",
    [
        (_regs_while_waiting_for_scratch, ["warp 6 holds registers while in pending_scratch"]),
        (
            lambda c: c.slots.spill_specific(0, 0),
            ["warp 0 is schedulable without a physical slot"],
        ),
        (
            lambda c: setattr(c.warps[0], "reg_sets_needed", 5),
            ["warp 0 schedulable with missing register sets"],
        ),
        (
            _park_in_place,
            ["warp 0 parked but slot not in swap", "warp 0 parked while holding registers"],
        ),
        (lambda c: c._limit.update({c.regs: -1}), ["register threshold out of range"]),
        (_grant_past_the_budget, ["1 admissions exceeded the swap budget"]),
        (_swap_enqueue_order, ["pending_reg index is not the enqueue_seq order of its warps"]),
        (
            lambda c: c._reg_q.update({6: 3}),
            ["register queue does not record the sets its waiters hold"],
        ),
        (
            lambda c: setattr(c.warps[6], "reg_sets_needed", 0),
            ["warp 6 waits for 0 register sets with 0 grantable"],
        ),
    ],
    ids=[
        "registers",
        "slot",
        "missing",
        "parked",
        "threshold",
        "budget",
        "order",
        "held",
        "fixpoint",
    ],
)
def test_each_invariant_names_its_corrupted_state(corrupt, messages):
    coord = _two_blocks()
    corrupt(coord)
    errors = coord.check_invariants()
    assert [m for m in messages if m not in errors] == []


def test_the_guard_refuses_a_slot_stage_it_cannot_force():
    # every slot is taken and nobody waits at a barrier, so no slot can be
    # forced: a waiter queued for registers without one is a broken index
    coord = Coordinator(TINY, OversubscriptionConfig())
    _arrive(coord, 0, range(16), reg_sets=2, scratch_sets=0)
    _arrive(coord, 1, (16,), reg_sets=2, scratch_sets=0)
    assert coord.warps[16].state is WarpState.PENDING_THREAD
    coord.n_schedulable = 0
    coord._reg_q[16] = 0
    with pytest.raises(RuntimeError, match="forced admission stage failed"):
        coord.deadlock_guard()
