import random

import pytest

from smvirt.kernel_model import (
    Instruction,
    KernelInvariantError,
    KernelSpec,
    Opcode,
    PhaseSpecifier,
    Profile,
    ResourceSpecification,
    generate_synthetic_kernel,
)
from smvirt.phase_compiler import (
    Phase,
    annotate_phases,
    detect_phase_boundaries,
)


def _kernel(levels, barriers=(), scratch_levels=None, regs_cap=64, scratch_cap=8192):
    """Build a straight-line kernel from explicit liveness levels."""
    scratch_levels = scratch_levels or [0] * len(levels)
    body = []
    for i, (r, s) in enumerate(zip(levels, scratch_levels)):
        op = Opcode.BARRIER if i in barriers else Opcode.ALU
        body.append(Instruction(op, live_regs_after=r, live_scratch_after=s))
    spec = ResourceSpecification(
        threads_per_block=64,
        regs_per_thread=regs_cap,
        scratch_bytes_per_block=scratch_cap,
        num_blocks=1,
    )
    return KernelSpec("straightline", spec, tuple(body))


def _oracle_boundaries(body, threshold, min_span):
    """Reference scan kept deliberately naive: no incremental state."""
    bounds = []
    last = 0
    for i in range(1, len(body)):
        if body[i].opcode is Opcode.BARRIER:
            bounds.append(i)
            last = i
            continue
        if i - last < min_span:
            continue
        ref_r = body[last].live_regs_after
        ref_s = body[last].live_scratch_after
        cur_r = body[i].live_regs_after
        cur_s = body[i].live_scratch_after

        def moved(ref, cur):
            if cur == ref:
                return False
            if ref == 0:
                return True
            return abs(cur - ref) / ref >= threshold

        if moved(ref_r, cur_r) or moved(ref_s, cur_s):
            bounds.append(i)
            last = i
    return bounds


def _oracle_phases(body, boundaries):
    """Each phase's span and maxima, recomputed from scratch per phase."""
    starts = [0] + list(boundaries)
    ends = list(boundaries) + [len(body)]
    return tuple(
        Phase(
            start=start,
            end=end,
            max_live_regs=max(ins.live_regs_after for ins in body[start:end]),
            max_live_scratch=max(ins.live_scratch_after for ins in body[start:end]),
            opened_by_barrier=start > 0 and body[start].opcode is Opcode.BARRIER,
        )
        for start, end in zip(starts, ends)
    )


def _boundaries(phases):
    """The indices that open a phase, index 0 aside."""
    return [p.start for p in phases[1:]]


def test_flat_kernel_is_one_phase():
    k = _kernel([8] * 30)
    phases = detect_phase_boundaries(k)
    assert _boundaries(phases) == []
    assert len(phases) == 1
    assert phases[0].start == 0
    assert phases[0].end == 30
    assert phases[0].max_live_regs == 8


def test_barrier_always_opens_phase_regardless_of_span():
    k = _kernel([8] * 20, barriers={3})
    phases = detect_phase_boundaries(k)
    assert 3 in _boundaries(phases)
    assert phases[1].opened_by_barrier


def test_small_change_below_threshold_ignored():
    levels = [40] * 12 + [44] * 12  # 10% move, threshold 25%
    assert _boundaries(detect_phase_boundaries(_kernel(levels))) == []


def test_change_from_zero_base_counts():
    scratch = [0] * 12 + [512] * 12
    assert _boundaries(detect_phase_boundaries(_kernel([8] * 24, scratch_levels=scratch))) == [12]


def test_min_span_defers_boundary():
    levels = [8] * 5 + [32] * 25  # jump at 5 must wait until index 10
    assert _boundaries(detect_phase_boundaries(_kernel(levels))) == [10]


def test_boundaries_match_oracle_on_random_kernels():
    rng = random.Random(20260816)
    for _ in range(300):
        profile = rng.choice(list(Profile))
        k = generate_synthetic_kernel(
            profile, length=rng.randint(8, 80), seed=rng.randint(0, 1 << 30)
        )
        threshold = rng.choice([0.1, 0.25, 0.5])
        min_span = rng.choice([1, 4, 10])
        phases = detect_phase_boundaries(k, change_threshold=threshold, min_span=min_span)
        oracle = _oracle_boundaries(k.body, threshold, min_span)
        assert _boundaries(phases) == oracle, (k.name, threshold, min_span)
        assert phases == _oracle_phases(k.body, oracle), (k.name, threshold, min_span)


def test_raising_threshold_never_adds_boundaries():
    rng = random.Random(99)
    for _ in range(60):
        k = generate_synthetic_kernel(
            rng.choice(list(Profile)), length=rng.randint(10, 60), seed=rng.randint(0, 1 << 30)
        )
        loose = detect_phase_boundaries(k, change_threshold=0.1)
        tight = detect_phase_boundaries(k, change_threshold=0.6)
        assert len(tight) <= len(loose)


def test_phase_maxima_cover_span():
    levels = [8, 16, 24, 32] + [32] * 8 + [12] * 12
    phases = detect_phase_boundaries(_kernel(levels))
    # first phase spans the ramp, so its announced demand is the peak
    assert phases[0].max_live_regs == 32
    assert phases[-1].max_live_regs == 12


def test_annotate_inserts_specifier_per_nonbarrier_phase():
    levels = [8] * 12 + [32] * 10
    k = _kernel(levels, barriers={12 + 10 - 1})  # trailing barrier, no phase after
    compiled = annotate_phases(k)
    assert compiled.is_compiled
    specs = [i for i in compiled.body if i.opcode is Opcode.PHASE_SPEC]
    open_phases = [p for p in detect_phase_boundaries(k) if not p.opened_by_barrier]
    assert len(specs) == len(open_phases)
    for ins, phase in zip(specs, open_phases):
        assert ins.phase_payload.live_regs == phase.max_live_regs
        assert ins.phase_payload.scratch_bytes == phase.max_live_scratch


def test_annotate_barrier_opened_phase_gets_no_specifier():
    levels = [8] * 6 + [8] * 14
    k = _kernel(levels, barriers={6})
    compiled = annotate_phases(k)
    # body: spec, 6 instrs, barrier, 13 instrs -- nothing after the barrier
    after_barrier = False
    for ins in compiled.body:
        if ins.opcode is Opcode.BARRIER:
            after_barrier = True
            continue
        if after_barrier:
            assert ins.opcode is not Opcode.PHASE_SPEC


def test_a_kernel_opening_with_a_barrier_gets_an_entry_specifier():
    k = _kernel([4] + [8] * 12, barriers={0})
    phases = detect_phase_boundaries(k)
    assert not phases[0].opened_by_barrier
    compiled = annotate_phases(k)
    assert [i.opcode for i in compiled.body[:3]] == [Opcode.PHASE_SPEC, Opcode.BARRIER, Opcode.ALU]
    assert compiled.body[0].phase_payload.live_regs == phases[0].max_live_regs
    # the entry specifier may stand directly before a barrier
    assert KernelSpec(k.name, k.resource_spec, compiled.body) == compiled


def test_annotated_kernel_passes_validation():
    rng = random.Random(5)
    for _ in range(100):
        k = generate_synthetic_kernel(
            rng.choice(list(Profile)), length=rng.randint(8, 60), seed=rng.randint(0, 1 << 30)
        )
        compiled = annotate_phases(k)
        assert KernelSpec(k.name, k.resource_spec, compiled.body) == compiled
        # instruction stream unchanged apart from inserted specifiers
        stripped = tuple(i for i in compiled.body if i.opcode is not Opcode.PHASE_SPEC)
        assert stripped == k.body


def test_a_compiled_body_rejects_liveness_above_its_announcement():
    spec = ResourceSpecification(
        threads_per_block=64, regs_per_thread=64, scratch_bytes_per_block=0, num_blocks=1
    )
    body = (
        Instruction(Opcode.PHASE_SPEC, phase_payload=PhaseSpecifier(8, 0)),
        Instruction(Opcode.ALU, live_regs_after=40),  # above the announced 8
    )
    with pytest.raises(KernelInvariantError, match="instruction 1 uses 40 registers"):
        KernelSpec("cheat", spec, body)


def _spec_ins(regs, scratch=0):
    return Instruction(Opcode.PHASE_SPEC, phase_payload=PhaseSpecifier(regs, scratch))


_ALU8 = Instruction(Opcode.ALU, live_regs_after=8)
_BAR8 = Instruction(Opcode.BARRIER, live_regs_after=8)


@pytest.mark.parametrize(
    "body, message",
    [
        ((_ALU8, _spec_ins(8), _ALU8), "instr 1: a body with a specifier must begin with one"),
        ((_spec_ins(8), _spec_ins(8), _ALU8), "empty specifier span before 1"),
        ((_spec_ins(8), _ALU8, _BAR8, _spec_ins(8), _BAR8), "specifier at a barrier with no body"),
        (
            (_spec_ins(8, 1024), Instruction(Opcode.LD_SHARED, 8, 2048)),
            "instruction 1 uses 2048 scratch bytes, specifier announced 1024",
        ),
        ((_spec_ins(8), _ALU8, _spec_ins(8)), "the body ends in a specifier"),
    ],
    ids=["uncompiled", "adjacent", "barrier", "scratchpad", "end"],
)
def test_a_compiled_body_names_each_broken_rule(body, message):
    spec = ResourceSpecification(
        threads_per_block=64, regs_per_thread=64, scratch_bytes_per_block=4096, num_blocks=1
    )
    with pytest.raises(KernelInvariantError, match=f"^{message}$"):
        KernelSpec("cheat", spec, body)


@pytest.mark.parametrize("threshold", [0.0, -0.25, float("nan")])
def test_detect_rejects_a_threshold_that_is_not_positive(threshold):
    with pytest.raises(ValueError, match="change_threshold must be positive"):
        detect_phase_boundaries(_kernel([8] * 12), change_threshold=threshold)


def test_annotate_rejects_already_compiled():
    k = annotate_phases(_kernel([8] * 12))
    with pytest.raises(ValueError):
        annotate_phases(k)
