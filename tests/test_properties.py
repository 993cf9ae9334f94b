"""Property tests: random kernels under every policy and arch.

Each example compiles a generated kernel and runs it in debug mode, so
every epoch also re-checks the admission invariants.  The runs use
one-SM copies of the architectures: the launch is then one SM replica,
and the result's cycle totals are the sums over its epochs.  A kernel
may end in a barrier, so that warps parked there are admitted again only
to retire.

ALU-only kernels have closed-form cycle counts under every policy, so
those properties check the cycle loop's answers, not only that it ends.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from smvirt.corpus import corpus_kernel, corpus_names
from smvirt.engine import run
from smvirt.kernel_model import (
    Instruction,
    KernelSpec,
    Opcode,
    Profile,
    ResourceSpecification,
    generate_synthetic_kernel,
)
from smvirt.phase_compiler import annotate_phases
from smvirt.policies import KernelUnrunnableError, Policy
from smvirt.resource_maps import get_arch

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
    res = run(kernel, policy, ONE_SM_ARCHS[arch], debug=True)
    _check_accounting(kernel, res)


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


def _alu_kernel(length: int, threads_per_block: int, num_blocks: int, live_regs: int) -> KernelSpec:
    spec = ResourceSpecification(
        threads_per_block=threads_per_block,
        regs_per_thread=live_regs,
        scratch_bytes_per_block=0,
        num_blocks=num_blocks,
    )
    body = tuple(Instruction(Opcode.ALU, live_regs_after=live_regs) for _ in range(length))
    return KernelSpec("alu_only", spec, body)


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
