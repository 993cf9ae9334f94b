"""Property tests: random kernels under every policy and arch.

Each example compiles a generated kernel and runs it in debug mode, so
every epoch also re-checks the admission invariants.  The runs use
one-SM copies of the architectures: the launch is then one SM replica,
and the result's cycle totals are the sums over its epochs.  A kernel
may end in a barrier, so that warps parked there are admitted again only
to retire.

ALU-only kernels, global loads bound by latency or by the request
slots, and long and short baseline launches have closed-form answers, so
those properties check the cycle loop's answers, not only that it ends.
Baseline admission, warp-level admission whose limits are whole blocks,
takes every arriving block whole and exactly as many as fit.
So does zorua with no swap budget: it never touches a set in swap.
On arbitrary launches the fast cycle loop must match the naive one of
reference_loop.py exactly, and zorua admission must match a retry that
runs every stage every round.  The kernel and grid parsers, fed
generated and edited text, raise only their own errors.  Kernel text
round-trips with comments and blank lines in it, one instruction object
per distinct line, and sweep results survive JSON and CSV.  Two launches
alike in block shape, block count and admission limits run alike under
every policy, and under baseline and wlm so do two archs alike in
engine timing; each row of a sweep, which runs such launches once,
equals a run of its own point.
"""

import re
from dataclasses import replace

import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from smvirt.coordinator import OversubscriptionConfig
from smvirt.corpus import RECOMMENDED_GRIDS, corpus_kernel, corpus_names
from smvirt.engine import run
from smvirt.harness import (
    CSV_COLUMNS,
    GridSpec,
    GridSyntaxError,
    emit_csv,
    emit_json,
    parse_grid,
    parse_json,
    run_sweep,
)
from smvirt.kernel_model import (
    WARP_WIDTH,
    Instruction,
    KernelError,
    KernelInvariantError,
    KernelSpec,
    Opcode,
    PhaseSpecifier,
    Profile,
    ResourceSpecification,
    generate_synthetic_kernel,
    parse_kernel,
    serialize_kernel,
)
from smvirt.phase_compiler import annotate_phases
from smvirt.policies import (
    KernelUnrunnableError,
    Policy,
    admission_limits,
    baseline_blocks_in_flight,
    launch_key,
    make_admission,
)
from smvirt.registry import WarpState
from smvirt.resource_maps import REG_SET_SIZE, SCRATCH_SET_SIZE, get_arch

from reference_loop import (
    reference_admission_run,
    reference_run,
    reference_sweep_rows,
    with_admissions,
)

ONE_SM_ARCHS = {
    name: replace(get_arch(name), num_sms=1) for name in ("fermi", "kepler", "maxwell")
}


def _ending_in_barrier(kernel: KernelSpec) -> KernelSpec:
    last = kernel.body[-1]
    barrier = Instruction(Opcode.BARRIER, last.live_regs_after, last.live_scratch_after)
    return replace(kernel, body=kernel.body + (barrier,))


def _check_accounting(kernel: KernelSpec, res):
    spec = kernel.resource_spec
    assert res.issued_instructions == spec.num_blocks * spec.warps_per_block * len(kernel.body)
    assert res.issued_instructions == sum(e.issued_instructions for e in res.epochs)
    assert res.issued_cycles + res.c_mem + res.c_idle + res.barrier_stall == sum(
        e.span for e in res.epochs
    )


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(
    profile=st.sampled_from(list(Profile)),
    length=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**16),
    policy=st.sampled_from(["baseline", "wlm", "zorua"]),
    arch=st.sampled_from(sorted(ONE_SM_ARCHS)),
    trailing_barrier=st.booleans(),
)
def test_random_kernel_runs_to_completion_with_exact_accounting(
    profile, length, seed, policy, arch, trailing_barrier
):
    kernel = generate_synthetic_kernel(profile, length, seed)
    if trailing_barrier:
        kernel = _ending_in_barrier(kernel)
    kernel = annotate_phases(kernel)
    # terminating at all is the first property: a wedge or a cycle-cap
    # overrun raises, and so does a broken invariant in debug mode
    res = run(kernel, policy, ONE_SM_ARCHS[arch], debug=True, collect_util=True)
    _check_accounting(kernel, res)
    # liveness is capped by the declaration, so no policy reads above 1
    util = res.utilization
    for per_epoch in (util.register_per_epoch, util.scratch_per_epoch):
        assert len(per_epoch) == len(res.epochs)
        assert all(v is None or 0.0 <= v <= 1.0 for v in per_epoch)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from(corpus_names()),
    num_blocks=st.integers(min_value=4, max_value=60),
    slots=st.sampled_from([16, 24, 32]),
    logical=st.sampled_from(["slots+8", 40, 64]),
    registers=st.sampled_from([8192, 16384]),
)
def test_corpus_kernel_ending_in_a_barrier_runs_on_few_slots_under_every_policy(
    name, num_blocks, slots, logical, registers
):
    kernel = corpus_kernel(name)
    kernel = annotate_phases(
        _ending_in_barrier(
            replace(kernel, resource_spec=replace(kernel.resource_spec, num_blocks=num_blocks))
        )
    )
    arch = replace(
        ONE_SM_ARCHS["fermi"],
        warp_slots_per_sm=slots,
        max_logical_warps=slots + 8 if logical == "slots+8" else logical,
        registers_per_sm=registers,
    )
    for policy in Policy:
        try:
            res = run(kernel, policy, arch, debug=True)
        except KernelUnrunnableError:
            continue
        _check_accounting(kernel, res)


def _straight_line_kernel(
    ops: tuple[Opcode, ...], threads_per_block: int, num_blocks: int, live_regs: int
) -> KernelSpec:
    spec = ResourceSpecification(
        threads_per_block=threads_per_block,
        regs_per_thread=live_regs,
        scratch_bytes_per_block=0,
        num_blocks=num_blocks,
    )
    body = tuple(Instruction(op, live_regs_after=live_regs) for op in ops)
    return KernelSpec("straight_line", spec, body)


def _alu_kernel(length: int, threads_per_block: int, num_blocks: int, live_regs: int) -> KernelSpec:
    return _straight_line_kernel((Opcode.ALU,) * length, threads_per_block, num_blocks, live_regs)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    length=st.integers(min_value=1, max_value=40),
    threads_per_block=st.sampled_from([32, 64, 96, 160, 256]),
    num_blocks=st.integers(min_value=1, max_value=3),
    live_regs=st.sampled_from([1, 8, 32]),
    schedulers=st.integers(min_value=1, max_value=4),
    policy=st.sampled_from(["baseline", "wlm"]),
    arch=st.sampled_from(sorted(ONE_SM_ARCHS)),
)
def test_alu_only_launch_takes_its_closed_form_cycles_under_static_policies(
    length, threads_per_block, num_blocks, live_regs, schedulers, policy, arch
):
    # every block fits at once and an ALU result is ready the next cycle,
    # so each scheduler issues its warps back to back, the greedy warp to
    # its end before the next; the busiest scheduler holds ceil(W/s) warps,
    # each of which issues its entry specifier and then its ALUs
    kernel = _alu_kernel(length, threads_per_block, num_blocks, live_regs)
    hw = replace(ONE_SM_ARCHS[arch], schedulers_per_sm=schedulers)
    res = run(kernel, policy, hw, debug=True)
    warps = num_blocks * threads_per_block // 32
    assert res.cycles == -(-warps // schedulers) * (1 + length)
    assert res.c_mem == res.c_idle == res.barrier_stall == 0
    _check_accounting(annotate_phases(kernel), res)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    length=st.integers(min_value=1, max_value=40),
    live_regs=st.sampled_from([1, 8, 32]),
    penalty=st.integers(min_value=0, max_value=6),
    arch=st.sampled_from(sorted(ONE_SM_ARCHS)),
)
def test_one_zorua_warp_of_alu_takes_its_closed_form_cycles(length, live_regs, penalty, arch):
    # the phase specifier issues at cycle 0 with no consult; every ALU then
    # consults the register table, so the next issue comes 1 + p later
    kernel = _alu_kernel(length, 32, 1, live_regs)
    hw = replace(ONE_SM_ARCHS[arch], mapping_table_penalty_cycles=penalty)
    res = run(kernel, "zorua", hw, debug=True)
    assert res.cycles == 1 + (1 + penalty) * length - penalty
    assert res.reg_hit_rate == 1.0
    _check_accounting(annotate_phases(kernel), res)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    loads=st.integers(min_value=1, max_value=30),
    latency=st.integers(min_value=1, max_value=500),
    max_inflight=st.integers(min_value=1, max_value=8),
    policy=st.sampled_from(["baseline", "wlm"]),
    arch=st.sampled_from(sorted(ONE_SM_ARCHS)),
)
def test_one_warp_of_global_loads_is_latency_bound(loads, latency, max_inflight, policy, arch):
    # the entry specifier issues at cycle 0 and the first load at cycle 1;
    # each later load issues the cycle the previous one returns, and the
    # warp finishes as it issues its last load, without waiting for it
    kernel = _straight_line_kernel((Opcode.LD_GLOBAL,) * loads, 32, 1, 8)
    hw = replace(
        ONE_SM_ARCHS[arch],
        memory_latency_cycles=latency,
        max_inflight_mem_requests=max_inflight,
    )
    res = run(kernel, policy, hw, debug=True)
    assert res.cycles == 1 + (loads - 1) * latency + 1
    assert res.issued_cycles == 1 + loads
    assert res.c_mem == (loads - 1) * (latency - 1)
    assert res.c_idle == res.barrier_stall == 0
    _check_accounting(annotate_phases(kernel), res)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    warps=st.integers(min_value=1, max_value=32),
    schedulers=st.integers(min_value=1, max_value=4),
    max_inflight=st.integers(min_value=1, max_value=16),
    latency=st.integers(min_value=32, max_value=500),
    policy=st.sampled_from(["baseline", "wlm"]),
    arch=st.sampled_from(sorted(ONE_SM_ARCHS)),
)
def test_loads_past_the_request_slots_are_bandwidth_bound(
    warps, schedulers, max_inflight, latency, policy, arch
):
    # every warp issues its entry specifier, loads, then uses the value.
    # Warp j issues its specifier at cycle 2 * (j // s) and its load the
    # cycle after, and with 2 * ceil(W/s) <= latency all W loads issue
    # before the first returns.  Load j past the M slots waits for load
    # j - M to return, so it returns at
    # 2 * ((j mod M) // s) + 1 + (j // M + 1) * latency; a scheduler sees
    # one load return per cycle at most, and the ALU after it issues that
    # cycle.  The last load returns last.  Past that premise (one
    # scheduler, 2W > latency) returned warps' ALUs take issue cycles from
    # the specifiers and loads still to issue, which only delays loads:
    # the closed form is then a lower bound, and the naive loop of
    # reference_loop.py gives the exact count.
    kernel = _straight_line_kernel((Opcode.LD_GLOBAL, Opcode.ALU), 32 * warps, 1, 8)
    hw = replace(
        ONE_SM_ARCHS[arch],
        schedulers_per_sm=schedulers,
        memory_latency_cycles=latency,
        max_inflight_mem_requests=max_inflight,
    )
    res = run(kernel, policy, hw, debug=True)
    last = warps - 1
    returns = (
        2 * ((last % max_inflight) // schedulers) + 1 + (last // max_inflight + 1) * latency
    )
    if 2 * -(-warps // schedulers) <= latency:
        assert res.cycles == returns + 1
    else:
        assert res.cycles >= returns + 1
        assert res.to_dict() == reference_run(kernel, policy, hw).to_dict()
    assert res.c_idle == res.barrier_stall == 0
    _check_accounting(annotate_phases(kernel), res)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from(corpus_names()),
    launches=st.integers(min_value=1, max_value=3),
    extra=st.integers(min_value=0, max_value=7),
    arch=st.sampled_from(sorted(ONE_SM_ARCHS)),
)
def test_long_baseline_launch_holds_its_static_blocks_in_flight(name, launches, extra, arch):
    # a finished block's resources admit the next block in the same cycle,
    # so while blocks remain to dispatch the SM holds exactly as many as
    # whole-block allocation fits
    kernel = corpus_kernel(name)
    hw = ONE_SM_ARCHS[arch]
    fits = baseline_blocks_in_flight(kernel.resource_spec, hw)
    spec = replace(kernel.resource_spec, num_blocks=fits * launches + extra)
    res = run(replace(kernel, resource_spec=spec), "baseline", hw, debug=True)
    assert res.blocks_in_flight_min == res.blocks_in_flight_max == fits


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from(corpus_names()),
    arch=st.sampled_from(sorted(ONE_SM_ARCHS)),
    data=st.data(),
)
def test_short_baseline_launch_has_all_its_blocks_in_flight_and_no_more(name, arch, data):
    # a launch no longer than what whole-block allocation fits dispatches
    # every block at once
    kernel = corpus_kernel(name)
    hw = ONE_SM_ARCHS[arch]
    fits = baseline_blocks_in_flight(kernel.resource_spec, hw)
    blocks = data.draw(st.integers(min_value=1, max_value=fits))
    spec = replace(kernel.resource_spec, num_blocks=blocks)
    res = run(replace(kernel, resource_spec=spec), "baseline", hw, debug=True)
    assert res.blocks_in_flight_min == res.blocks_in_flight_max == blocks


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    warps=st.integers(min_value=1, max_value=32),
    regs=st.integers(min_value=1, max_value=64),
    scratch=st.one_of(st.just(0), st.integers(min_value=1, max_value=48 * 1024)),
    arch=st.sampled_from(sorted(ONE_SM_ARCHS)),
)
def test_baseline_admission_takes_whole_blocks_up_to_the_static_count(warps, regs, scratch, arch):
    # warp-level admission with whole-block limits: each block that arrives
    # passes whole, in wid order, and exactly as many arrive as whole-block
    # allocation fits
    hw = ONE_SM_ARCHS[arch]
    spec = ResourceSpecification(warps * WARP_WIDTH, regs, scratch, num_blocks=1)
    fits = baseline_blocks_in_flight(spec, hw)
    assume(fits > 0)
    kernel = KernelSpec("k", spec, (Instruction(Opcode.ALU),))
    limits = admission_limits(Policy.BASELINE, kernel, hw)
    adm = make_admission(Policy.BASELINE, limits, hw, OversubscriptionConfig())
    bid = 0
    while bid <= fits and adm.can_accept_block(warps):
        wids = tuple(range(bid * warps, (bid + 1) * warps))
        adm.on_block_arrival(bid, wids, PhaseSpecifier(0, 0))
        assert all(adm.warps[wid].state is not WarpState.PENDING_THREAD for wid in wids)
        assert [w.wid for w in adm.admitted] == list(wids)
        adm.admitted.clear()
        bid += 1
    assert bid == fits
    assert adm.check_invariants() == []


@st.composite
def _small_kernels(draw) -> KernelSpec:
    """A corpus kernel cut to at most 24 blocks, or a generated kernel."""
    if draw(st.booleans()):
        kernel = corpus_kernel(draw(st.sampled_from(corpus_names())))
        blocks = draw(st.integers(min_value=1, max_value=24))
        return replace(kernel, resource_spec=replace(kernel.resource_spec, num_blocks=blocks))
    return generate_synthetic_kernel(
        draw(st.sampled_from(list(Profile))),
        draw(st.integers(min_value=1, max_value=64)),
        draw(st.integers(min_value=0, max_value=2**16)),
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    kernel=_small_kernels(),
    arch=st.sampled_from(sorted(ONE_SM_ARCHS)),
    guard=st.booleans(),
)
def test_zorua_without_a_swap_budget_hits_on_chip_every_time(kernel, arch, guard):
    # with every threshold pinned at zero only a guard admission may place
    # a set in swap, or park a warp
    cfg = OversubscriptionConfig(fixed_o_thresh_frac=0.0, guard_enabled=guard)
    res = run(annotate_phases(kernel), "zorua", ONE_SM_ARCHS[arch], oversub=cfg, debug=True)
    if res.guard_admissions == 0:
        assert res.reg_hit_rate == res.scratch_hit_rate == res.slot_hit_rate == 1.0


_DECLARED_REGS = (1, 2, 4, 8, 12, 16, 20, 24, 32, 40, 48, 63, 64, 96)
_DECLARED_SCRATCH = (0, 1024, 4096, 8192, 16384, 40000, 49152)


def _launch_key(policy, kernel, arch):
    """The run_sweep memo's key of a launch, or None where the policy
    cannot run it."""
    try:
        return launch_key(policy, kernel, arch)
    except KernelUnrunnableError:
        return None


# no explain phase: it traces every line of two runs per example, and a
# failing example took 54 s to report with it, against 3 s without
@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    phases=(Phase.generate, Phase.shrink),
)
@given(
    kernel=_small_kernels(),
    policy=st.sampled_from(list(Policy)),
    arch=st.sampled_from(sorted(ONE_SM_ARCHS)),
    data=st.data(),
)
def test_launches_alike_in_admission_input_run_alike(kernel, policy, arch, data):
    # a launch reads of its declaration only what launch_key keeps, so
    # run_sweep may share one run between points of one arch alike in it,
    # under baseline and wlm alike: both are StaticAdmission; under zorua
    # the key holds nothing of the declaration: the declared registers and
    # scratchpad are invisible to the virtualizing policy
    kernel, hw = annotate_phases(kernel), ONE_SM_ARCHS[arch]
    spec = kernel.resource_spec
    statics = [Policy.BASELINE, Policy.WLM]
    first = _launch_key(policy, kernel, hw)
    assume(first is not None)
    own = (policy, spec.regs_per_thread, spec.scratch_bytes_per_block)
    alike = []
    for q in statics if policy in statics else [policy]:
        for regs in _DECLARED_REGS:
            for scratch in _DECLARED_SCRATCH:
                if (q, regs, scratch) == own:
                    continue
                declared = replace(spec, regs_per_thread=regs, scratch_bytes_per_block=scratch)
                try:
                    other = replace(kernel, resource_spec=declared)
                except KernelInvariantError:  # below the body's liveness
                    continue
                if _launch_key(q, other, hw) == first:
                    alike.append((q, other))
    assume(alike)
    q, other = data.draw(st.sampled_from(alike))
    a, b = run(kernel, policy, hw).to_dict(), run(other, q, hw).to_dict()
    for d in (a, b):
        del d["policy"], d["regs_per_thread"], d["scratch_bytes_per_block"]
    assert a == b


# another value for each of the five timing fields in a static launch_key
_RETIMED = {
    "num_sms": st.integers(min_value=2, max_value=3),
    "schedulers_per_sm": st.sampled_from([1, 3]),
    "memory_latency_cycles": st.sampled_from([8, 50]),
    "max_inflight_mem_requests": st.sampled_from([1, 2]),
    "epoch_cycles": st.sampled_from([16, 256]),
}


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    phases=(Phase.generate, Phase.shrink),
)
@given(
    kernel=_small_kernels(),
    policy=st.sampled_from([Policy.BASELINE, Policy.WLM]),
    arch=st.sampled_from(sorted(ONE_SM_ARCHS)),
    data=st.data(),
)
def test_static_launches_of_equal_launch_keys_run_alike_on_any_arch(kernel, policy, arch, data):
    # under baseline and wlm launch_key keeps all a launch reads of its
    # arch, so run_sweep may share one run between archs of equal keys,
    # across both policies and any declaration: an arch of other
    # capacities, logical limits and consult penalty runs it alike
    # wherever the keys are equal
    kernel, hw = annotate_phases(kernel), ONE_SM_ARCHS[arch]
    first = _launch_key(policy, kernel, hw)
    assume(first is not None)
    # hw with one timing field changed, field by field: the key tells the
    # two apart unless the launch runs alike on both
    for field, value in _RETIMED.items():
        retimed = replace(hw, **{field: data.draw(value, label=field)})
        if launch_key(policy, kernel, retimed) == first:
            assert run(kernel, policy, retimed).to_dict() == run(kernel, policy, hw).to_dict()
    slots = data.draw(st.integers(min_value=1, max_value=96), label="warp_slots_per_sm")
    other_hw = replace(
        hw,
        name="other",
        registers_per_sm=REG_SET_SIZE * data.draw(st.integers(min_value=1, max_value=1024)),
        scratch_bytes_per_sm=SCRATCH_SET_SIZE * data.draw(st.integers(min_value=0, max_value=96)),
        warp_slots_per_sm=slots,
        max_blocks_per_sm_baseline=data.draw(st.integers(min_value=1, max_value=32)),
        max_logical_warps=slots + data.draw(st.integers(min_value=0, max_value=64)),
        max_logical_blocks=data.draw(st.integers(min_value=1, max_value=64)),
        mapping_table_penalty_cycles=data.draw(st.integers(min_value=0, max_value=8)),
    )
    q = data.draw(st.sampled_from([Policy.BASELINE, Policy.WLM]), label="other policy")
    declared = replace(
        kernel.resource_spec,
        regs_per_thread=data.draw(st.sampled_from(_DECLARED_REGS), label="regs_per_thread"),
        scratch_bytes_per_block=data.draw(st.sampled_from(_DECLARED_SCRATCH), label="scratch"),
    )
    try:
        other = replace(kernel, resource_spec=declared)
    except KernelInvariantError:  # below the body's liveness
        other = kernel
    assume(_launch_key(q, other, other_hw) == first)
    a, b = run(kernel, policy, hw).to_dict(), run(other, q, other_hw).to_dict()
    for d in (a, b):
        del d["arch"], d["policy"], d["regs_per_thread"], d["scratch_bytes_per_block"]
    assert a == b


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    kernel=_small_kernels(),
    trailing_barrier=st.booleans(),
    compiled=st.booleans(),
    arch=st.sampled_from(sorted(ONE_SM_ARCHS)),
    schedulers=st.integers(min_value=1, max_value=4),
    epoch_cycles=st.sampled_from([16, 64, 256, 2048]),
    latency=st.sampled_from([8, 50, 400]),
    max_inflight=st.sampled_from([2, 64]),
)
def test_fast_loop_matches_the_naive_reference_loop(
    kernel, trailing_barrier, compiled, arch, schedulers, epoch_cycles, latency, max_inflight
):
    # the stall skip, the issue skip, the cached greedy picks, the sorted
    # scheduler lists and the memory FIFO must change nothing a
    # cycle-by-cycle loop with a heap of memory slots would see; short
    # epochs and latencies put boundaries and wakes inside the skipped
    # stretches
    if trailing_barrier:
        kernel = _ending_in_barrier(kernel)
    if compiled:
        kernel = annotate_phases(kernel)
    hw = replace(
        ONE_SM_ARCHS[arch],
        schedulers_per_sm=schedulers,
        epoch_cycles=epoch_cycles,
        memory_latency_cycles=latency,
        max_inflight_mem_requests=max_inflight,
    )
    for policy in Policy:
        try:
            fast = run(kernel, policy, hw, log_events=True)
        except KernelUnrunnableError:
            continue
        naive = reference_run(kernel, policy, hw, log_events=True)
        assert fast.barrier_stall == 0, policy
        assert fast.to_dict() == naive.to_dict(), policy
        assert fast.event_log == naive.event_log, policy
        # without the log, the static policies issue over specifiers
        assert run(kernel, policy, hw).to_dict() == naive.to_dict(), policy


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    kernel=_small_kernels(),
    trailing_barrier=st.booleans(),
    arch=st.sampled_from(sorted(ONE_SM_ARCHS)),
    schedulers=st.integers(min_value=1, max_value=4),
    epoch_cycles=st.sampled_from([16, 64, 256, 2048]),
    latency=st.sampled_from([8, 50, 400]),
    max_inflight=st.sampled_from([2, 64]),
)
def test_with_nothing_scarce_the_three_policies_run_one_schedule(
    kernel, trailing_barrier, arch, schedulers, epoch_cycles, latency, max_inflight
):
    # virtualization is invisible to a source kernel when every block
    # fits at once and a consult costs nothing: admission, the tables and
    # the controller change no cycle.  baseline takes the issue and stall
    # skips, zorua runs every cycle through its consults, so each checks
    # the other at launch sizes the naive loop cannot afford
    if trailing_barrier:
        kernel = _ending_in_barrier(kernel)
    base = ONE_SM_ARCHS[arch]
    hw = replace(
        base,
        schedulers_per_sm=schedulers,
        epoch_cycles=epoch_cycles,
        memory_latency_cycles=latency,
        max_inflight_mem_requests=max_inflight,
        mapping_table_penalty_cycles=0,
        registers_per_sm=64 * base.registers_per_sm,
        scratch_bytes_per_sm=64 * base.scratch_bytes_per_sm,
        warp_slots_per_sm=4096,
        max_logical_warps=4096,
        max_logical_blocks=4096,
        max_blocks_per_sm_baseline=4096,
    )
    schedules = []
    for policy in Policy:
        res = run(kernel, policy, hw, log_events=True)
        doc = res.to_dict()
        assert run(kernel, policy, hw).to_dict() == doc, policy
        del doc["policy"], doc["o_thresh_final"]
        schedules.append((doc, res.event_log))
    assert schedules[0] == schedules[1] == schedules[2]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    kernel=_small_kernels(),
    trailing_barrier=st.booleans(),
    arch=st.sampled_from(sorted(ONE_SM_ARCHS)),
    schedulers=st.integers(min_value=1, max_value=4),
    epoch_cycles=st.sampled_from([16, 64, 256, 2048]),
    latency=st.sampled_from([8, 50, 400]),
    max_inflight=st.sampled_from([2, 64]),
    o_thresh=st.sampled_from([None, 0.0, 0.05, 0.25]),
)
# register waiters holding different sets compete for one grant here, so
# a register pass in any other order than most held sets first differs
@example(
    kernel=replace(
        corpus_kernel("mixed_phase"),
        resource_spec=replace(corpus_kernel("mixed_phase").resource_spec, num_blocks=8),
    ),
    trailing_barrier=False,
    arch="fermi",
    schedulers=2,
    epoch_cycles=2048,
    latency=400,
    max_inflight=64,
    o_thresh=None,
)
def test_zorua_admission_matches_a_retry_of_every_stage(
    kernel, trailing_barrier, arch, schedulers, epoch_cycles, latency, max_inflight, o_thresh
):
    # the hooks' skipped retries and the slot gate only pass over stages
    # that cannot admit anyone, so they change nothing a retry of every
    # stage would do; o_thresh None leaves the controller on, a number
    # pins the thresholds
    if trailing_barrier:
        kernel = _ending_in_barrier(kernel)
    hw = replace(
        ONE_SM_ARCHS[arch],
        schedulers_per_sm=schedulers,
        epoch_cycles=epoch_cycles,
        memory_latency_cycles=latency,
        max_inflight_mem_requests=max_inflight,
    )
    cfg = OversubscriptionConfig(fixed_o_thresh_frac=o_thresh)
    try:
        fast, fast_admissions = with_admissions(run, kernel, "zorua", hw, oversub=cfg, log_events=True)
    except KernelUnrunnableError:
        return
    naive, naive_admissions = with_admissions(
        reference_admission_run, kernel, "zorua", hw, oversub=cfg, log_events=True
    )
    assert fast.to_dict() == naive.to_dict()
    assert fast.event_log == naive.event_log
    assert fast_admissions == naive_admissions


@pytest.mark.parametrize("o_thresh", [0.0, None])
@pytest.mark.parametrize("registers", [2048, 4096])
def test_zorua_admission_matches_a_retry_of_every_stage_after_a_register_shrink(
    registers, o_thresh
):
    # a register file of 16 or 32 sets holds two or four warps of the
    # 8-set phase; the rest wait for registers until the admitted warps'
    # next phase drops to one set each, and that shrink's own retry must
    # admit them
    wide, narrow = Instruction(Opcode.ALU, 32, 0), Instruction(Opcode.ALU, 4, 0)
    body = [wide] * 6 + [Instruction(Opcode.LD_GLOBAL, 32, 0)] + [wide] * 5 + [narrow] * 12
    spec = ResourceSpecification(
        threads_per_block=128, regs_per_thread=32, scratch_bytes_per_block=0, num_blocks=2
    )
    kernel = annotate_phases(KernelSpec("shrink", spec, tuple(body)))
    hw = replace(ONE_SM_ARCHS["fermi"], registers_per_sm=registers)
    cfg = OversubscriptionConfig(fixed_o_thresh_frac=o_thresh)
    fast, fast_admissions = with_admissions(run, kernel, "zorua", hw, oversub=cfg, log_events=True)
    naive, naive_admissions = with_admissions(
        reference_admission_run, kernel, "zorua", hw, oversub=cfg, log_events=True
    )
    assert fast.to_dict() == naive.to_dict()
    assert fast.event_log == naive.event_log
    assert fast_admissions == naive_admissions


_KERNEL_TEXTS = [
    serialize_kernel(k)
    for name in corpus_names()
    for k in (corpus_kernel(name), annotate_phases(corpus_kernel(name)))
]
_GRID_TEXTS = [*RECOMMENDED_GRIDS.values(), "set blocks=4\nset seed=-7\nlist scratch=0,512\n"]
# what an edit may put in place of the characters it cuts
_PIECES = (
    "", "=", ":", ",", "#", " ", "\n", "-", "+", "_", "0", "1", "9", "x", "\u00e9", "\u0663",
    "kernel ", "config ", "instr ", "phase ", "PHASE_SPEC ", "BARRIER ", "LD_GLOBAL ",
    "range ", "list ", "set ", "blocks=", "scratch=", "live_regs=", "total_threads=",
)


@st.composite
def _edited(draw, texts) -> str:
    """A corpus kernel or grid text with one to four cuts of up to twelve
    characters, each replaced by a piece."""
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        i = draw(st.integers(min_value=0, max_value=len(text)))
        j = draw(st.integers(min_value=i, max_value=min(len(text), i + 12)))
        text = text[:i] + draw(st.sampled_from(_PIECES)) + text[j:]
    return text


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=st.one_of(st.text(), _edited(_KERNEL_TEXTS), _edited(_GRID_TEXTS)))
def test_parsers_raise_only_their_own_errors(text):
    for parse, error in ((parse_kernel, KernelError), (parse_grid, GridSyntaxError)):
        try:
            parse(text)
        except error:
            pass


# lines put between kernel lines, and endings put after them
_NOISE_LINES = ("", "   ", "# note", "\t# kernel x", "#instr ALU live_regs=1 scratch=0")
_LINE_ENDINGS = ("", "  # trailing", " #", "\t")


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(kernel=_small_kernels(), compiled=st.booleans(), data=st.data())
def test_kernel_text_round_trips_with_one_instruction_per_distinct_line(kernel, compiled, data):
    if compiled:
        kernel = annotate_phases(kernel)
    lines = serialize_kernel(kernel).splitlines()
    noisy = list(lines)
    at = st.integers(min_value=0, max_value=len(lines) - 1)
    for i, ending in data.draw(st.lists(st.tuples(at, st.sampled_from(_LINE_ENDINGS)), max_size=12)):
        noisy[i] += ending
    for i, line in data.draw(st.lists(st.tuples(at, st.sampled_from(_NOISE_LINES)), max_size=12)):
        noisy.insert(i, line)
    parsed = parse_kernel("\n".join(noisy) + "\n")
    assert parsed == kernel
    # a repeated instruction line yields the object its first occurrence made
    distinct = {line for line in lines if line.startswith(("instr ", "phase "))}
    assert len({id(ins) for ins in parsed.body}) == len(distinct)


def _axis(values):
    return st.one_of(st.none(), st.lists(values, min_size=1, max_size=3, unique=True).map(tuple))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    profile=st.sampled_from(list(Profile)),
    length=st.integers(min_value=1, max_value=24),
    seed=st.integers(min_value=0, max_value=2**16),
    grid=st.builds(
        GridSpec,
        threads_per_block=_axis(st.sampled_from([32, 64, 96, 256, 1024])),
        regs_per_thread=_axis(st.sampled_from([4, 16, 32, 48, 64])),
        scratch=_axis(st.sampled_from([0, 1024, 8192, 40000, 65536])),
        blocks=st.integers(min_value=1, max_value=3),
    ),
    archs=st.lists(st.sampled_from(sorted(ONE_SM_ARCHS)), min_size=1, max_size=2, unique=True),
)
def test_sweep_results_survive_json_and_csv(profile, length, seed, grid, archs):
    kernel = generate_synthetic_kernel(profile, length, seed)
    hw = [ONE_SM_ARCHS[a] for a in archs]
    result = run_sweep(kernel, grid, hw)
    # the memo changes no row: each is its own point's run, or unrunnable
    assert list(result.rows) == reference_sweep_rows(kernel, grid, hw, list(Policy))
    assert parse_json(emit_json(result)) == result
    header, *lines = emit_csv(result).splitlines()
    assert header.split(",") == list(CSV_COLUMNS)
    assert len(lines) == len(result.rows)
    for line, row in zip(lines, result.rows):
        for cell, col in zip(line.split(",", len(CSV_COLUMNS) - 1), CSV_COLUMNS):
            value = getattr(row, col)
            if value is None:
                assert cell == "INF", col
            elif isinstance(value, float):
                assert re.fullmatch(r"\d+\.\d{6}", cell) and float(cell) == value, col
            else:
                assert type(value)(cell) == value and str(value) == cell, col
