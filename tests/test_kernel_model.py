import random
from dataclasses import replace

import pytest

from smvirt.kernel_model import (
    Instruction,
    KernelInvariantError,
    KernelSpec,
    KernelSyntaxError,
    Opcode,
    PhaseSpecifier,
    Profile,
    ResourceSpecification,
    generate_synthetic_kernel,
    parse_kernel,
    serialize_kernel,
)


def _spec(**kw):
    base = dict(
        threads_per_block=128, regs_per_thread=16, scratch_bytes_per_block=0, num_blocks=2
    )
    base.update(kw)
    return ResourceSpecification(**base)


def test_warps_per_block():
    assert _spec(threads_per_block=128).warps_per_block == 4
    assert _spec(threads_per_block=32).warps_per_block == 1
    assert _spec(threads_per_block=1024).warps_per_block == 32


def test_threads_must_be_warp_multiple():
    with pytest.raises(KernelInvariantError):
        _spec(threads_per_block=100)


def test_nonpositive_fields_rejected():
    with pytest.raises(KernelInvariantError):
        _spec(regs_per_thread=0)
    with pytest.raises(KernelInvariantError):
        _spec(num_blocks=0)
    with pytest.raises(KernelInvariantError):
        _spec(scratch_bytes_per_block=-1)


def test_body_liveness_capped_by_declaration():
    body = (Instruction(Opcode.ALU, live_regs_after=32),)
    with pytest.raises(KernelInvariantError):
        KernelSpec("k", _spec(regs_per_thread=16), body)
    # equal to the cap is fine
    KernelSpec("k", _spec(regs_per_thread=32), body)


def test_scratch_liveness_capped_by_declaration():
    body = (Instruction(Opcode.ST_SHARED, live_regs_after=8, live_scratch_after=4096),)
    with pytest.raises(KernelInvariantError):
        KernelSpec("k", _spec(scratch_bytes_per_block=2048), body)


def test_phase_payload_only_on_specifier():
    with pytest.raises(KernelInvariantError):
        Instruction(Opcode.ALU, live_regs_after=8, phase_payload=PhaseSpecifier(8, 0))
    with pytest.raises(KernelInvariantError):
        Instruction(Opcode.PHASE_SPEC)


def test_a_specifier_carries_only_its_payload():
    with pytest.raises(KernelInvariantError, match="carries only its payload"):
        Instruction(Opcode.PHASE_SPEC, live_regs_after=8, phase_payload=PhaseSpecifier(8, 0))
    with pytest.raises(KernelInvariantError, match="carries only its payload"):
        Instruction(Opcode.PHASE_SPEC, live_scratch_after=1, phase_payload=PhaseSpecifier(8, 0))


def test_replace_checks_a_compiled_body():
    spec_ins = Instruction(Opcode.PHASE_SPEC, phase_payload=PhaseSpecifier(8, 0))
    alu = Instruction(Opcode.ALU, live_regs_after=8)
    compiled = KernelSpec("k", _spec(), (spec_ins, alu))
    with pytest.raises(KernelInvariantError, match="the body ends in a specifier"):
        replace(compiled, body=compiled.body + (spec_ins,))
    with pytest.raises(KernelInvariantError, match="instruction 1 uses 16 registers"):
        replace(compiled, body=(spec_ins, Instruction(Opcode.ALU, live_regs_after=16)))


def test_is_compiled_and_has_barrier():
    plain = KernelSpec("k", _spec(), (Instruction(Opcode.ALU, live_regs_after=8),))
    assert not plain.is_compiled
    assert not plain.has_barrier()
    compiled = KernelSpec(
        "k",
        _spec(),
        (
            Instruction(Opcode.PHASE_SPEC, phase_payload=PhaseSpecifier(8, 0)),
            Instruction(Opcode.ALU, live_regs_after=8),
            Instruction(Opcode.BARRIER, live_regs_after=8),
        ),
    )
    assert compiled.is_compiled
    assert compiled.has_barrier()


def test_parse_serialize_round_trip():
    text = """\
# toy kernel
kernel toy
config threads_per_block=64 regs_per_thread=8 scratch=1024 blocks=3

phase live_regs=8 scratch=1024
instr ALU live_regs=4 scratch=1024
instr LD_GLOBAL live_regs=8 scratch=1024
instr BARRIER live_regs=8 scratch=1024
instr ST_SHARED live_regs=8 scratch=1024
"""
    k = parse_kernel(text)
    assert k.name == "toy"
    assert k.resource_spec.threads_per_block == 64
    assert len(k.body) == 5
    assert k.body[0].opcode is Opcode.PHASE_SPEC
    assert k.body[0].phase_payload == PhaseSpecifier(8, 1024)
    again = parse_kernel(serialize_kernel(k))
    assert again == k


def test_parse_errors_carry_line_numbers():
    with pytest.raises(KernelSyntaxError) as info:
        parse_kernel("kernel t\nconfig threads_per_block=64 regs_per_thread=8 scratch=0 blocks=1\ninstr BOGUS live_regs=1 scratch=0\n")
    assert info.value.line_no == 3


def test_parse_rejects_missing_config():
    with pytest.raises(KernelSyntaxError):
        parse_kernel("kernel t\ninstr ALU live_regs=1 scratch=0\n")


def test_synthetic_kernels_are_deterministic_and_valid():
    rng = random.Random(7)
    for _ in range(40):
        profile = rng.choice(list(Profile))
        length = rng.randint(12, 60)
        seed = rng.randint(0, 10_000)
        a = generate_synthetic_kernel(profile, length=length, seed=seed)
        b = generate_synthetic_kernel(profile, length=length, seed=seed)
        assert a == b
        assert len(a.body) == length
        # constructor validation already ran; re-wrap to be explicit
        KernelSpec(a.name, a.resource_spec, a.body)


def test_synthetic_kernels_need_an_instruction():
    with pytest.raises(KernelInvariantError, match="length must be >= 1"):
        generate_synthetic_kernel("mixed", length=0, seed=1)


def test_synthetic_barrier_profile_has_barriers():
    k = generate_synthetic_kernel(Profile.BARRIER_HEAVY, length=40, seed=3)
    assert any(i.opcode is Opcode.BARRIER for i in k.body)
