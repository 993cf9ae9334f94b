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
So does zorua with no swap budget: it never touches a set in swap.
On arbitrary launches the fast cycle loop must match the naive one of
reference_loop.py exactly, and zorua admission must match a retry that
runs every stage every round.  The kernel and grid parsers, fed
generated and edited text, raise only their own errors.  Kernel text
round-trips with comments and blank lines in it, one instruction object
per distinct line, and sweep results survive JSON and CSV.
"""

import re
from dataclasses import replace

from hypothesis import given, settings
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
    Instruction,
    KernelError,
    KernelSpec,
    Opcode,
    Profile,
    ResourceSpecification,
    generate_synthetic_kernel,
    parse_kernel,
    serialize_kernel,
)
from smvirt.phase_compiler import annotate_phases
from smvirt.policies import KernelUnrunnableError, Policy, baseline_blocks_in_flight
from smvirt.resource_maps import get_arch

from reference_loop import reference_admission_run, reference_run

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
    # its end before the next; the busiest scheduler holds ceil(W/s) warps
    kernel = _alu_kernel(length, threads_per_block, num_blocks, live_regs)
    hw = replace(ONE_SM_ARCHS[arch], schedulers_per_sm=schedulers)
    res = run(kernel, policy, hw, debug=True)
    warps = num_blocks * threads_per_block // 32
    assert res.cycles == -(-warps // schedulers) * length
    assert res.c_mem == res.c_idle == res.barrier_stall == 0
    _check_accounting(kernel, res)


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
    # each load issues the cycle the previous one returns, and the warp
    # finishes as it issues its last load, without waiting for it
    kernel = _straight_line_kernel((Opcode.LD_GLOBAL,) * loads, 32, 1, 8)
    hw = replace(
        ONE_SM_ARCHS[arch],
        memory_latency_cycles=latency,
        max_inflight_mem_requests=max_inflight,
    )
    res = run(kernel, policy, hw, debug=True)
    assert res.cycles == (loads - 1) * latency + 1
    assert res.issued_cycles == loads
    assert res.c_mem == (loads - 1) * (latency - 1)
    assert res.c_idle == res.barrier_stall == 0
    _check_accounting(kernel, res)


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
    # every warp loads, then uses the value.  Warp j issues its load at
    # cycle j // s, and with ceil(W/s) <= latency all W loads issue before
    # the first returns.  Load j past the M slots waits for load j - M to
    # return, so it returns at (j mod M) // s + (j // M + 1) * latency;
    # with M <= latency a scheduler sees one load return per cycle at most,
    # and the ALU after it issues that cycle.  The last load returns last.
    kernel = _straight_line_kernel((Opcode.LD_GLOBAL, Opcode.ALU), 32 * warps, 1, 8)
    hw = replace(
        ONE_SM_ARCHS[arch],
        schedulers_per_sm=schedulers,
        memory_latency_cycles=latency,
        max_inflight_mem_requests=max_inflight,
    )
    res = run(kernel, policy, hw, debug=True)
    last = warps - 1
    returns = (last % max_inflight) // schedulers + (last // max_inflight + 1) * latency
    assert res.cycles == returns + 1
    assert res.c_idle == res.barrier_stall == 0
    _check_accounting(kernel, res)


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
    # the stall skip, the issue skip, the cached greedy picks and the
    # sorted scheduler lists must change nothing a cycle-by-cycle loop
    # would see; short epochs and latencies put boundaries and wakes
    # inside the skipped stretches
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
        assert fast.to_dict() == naive.to_dict(), policy
        assert fast.event_log == naive.event_log, policy


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
def test_zorua_admission_matches_a_retry_of_every_stage(
    kernel, trailing_barrier, arch, schedulers, epoch_cycles, latency, max_inflight, o_thresh
):
    # the need bounds and the slot gate only pass over stages that cannot
    # admit anyone, so they change nothing a retry of every stage would do;
    # o_thresh None leaves the controller on, a number pins the thresholds
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
        fast = run(kernel, "zorua", hw, oversub=cfg, log_events=True)
    except KernelUnrunnableError:
        return
    naive = reference_admission_run(kernel, "zorua", hw, oversub=cfg, log_events=True)
    assert fast.to_dict() == naive.to_dict()
    assert fast.event_log == naive.event_log


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


def _as_text_carries(kernel: KernelSpec) -> KernelSpec:
    """The kernel its text stands for.  A phase line carries only the
    payload, and the parser gives the specifier the payload as its own
    liveness; annotate_phases gives it the liveness of the phase's first
    instruction instead, so a compiled kernel's specifiers change."""
    return replace(kernel, body=tuple(
        replace(
            ins,
            live_regs_after=ins.phase_payload.live_regs,
            live_scratch_after=ins.phase_payload.scratch_bytes,
        )
        if ins.phase_payload is not None
        else ins
        for ins in kernel.body
    ))


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
    assert parsed == _as_text_carries(kernel)
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
    result = run_sweep(kernel, grid, [ONE_SM_ARCHS[a] for a in archs])
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
