"""Split kernels into liveness phases and annotate them with demand specifiers.

A phase is a maximal run of instructions whose register and scratchpad
liveness stays within a relative change threshold.  A new phase opens at
every barrier, and at any instruction where liveness moved by at least
``change_threshold`` relative to the value at the previous phase start,
provided the current phase is at least ``min_span`` instructions long.

Annotation inserts a PHASE_SPEC instruction ahead of each phase that is
not opened by a barrier.  The leading phase is opened by the kernel's
entry, even where its first instruction is a barrier, so a compiled body
always begins with a specifier.  The specifier carries that phase's
maximum live register count and maximum live scratchpad bytes.  Phases
opened by a barrier get no specifier: the demands announced by the
previous specifier simply remain in force across the barrier.  The rules
of a compiled body live in kernel_model, whose KernelSpec checks them as
annotation builds its result.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernel_model import (
    Instruction,
    KernelInvariantError,
    KernelSpec,
    Opcode,
    PhaseSpecifier,
)

DEFAULT_CHANGE_THRESHOLD = 0.25
DEFAULT_MIN_SPAN = 10


@dataclass(frozen=True)
class Phase:
    """Half-open instruction range [start, end) with its liveness maxima."""

    start: int
    end: int
    max_live_regs: int
    max_live_scratch: int
    opened_by_barrier: bool

    @property
    def span(self) -> int:
        return self.end - self.start


def _changed(reference: int, value: int, threshold: float) -> bool:
    """Relative liveness change test against the phase-opening value."""
    if value == reference:
        return False
    if reference == 0:
        return True
    return abs(value - reference) / reference >= threshold


def detect_phase_boundaries(
    kernel: KernelSpec,
    change_threshold: float = DEFAULT_CHANGE_THRESHOLD,
    min_span: int = DEFAULT_MIN_SPAN,
) -> tuple[Phase, ...]:
    """Scan a raw kernel body and return its phases in body order.

    The first phase starts at index 0 and is not opened by a barrier.
    Any later BARRIER opens a phase regardless of ``min_span``;
    liveness-driven boundaries additionally require the previous phase to
    span at least ``min_span`` instructions.
    """
    if not change_threshold > 0.0:  # NaN fails this test too
        raise ValueError("change_threshold must be positive")
    if min_span < 1:
        raise ValueError("min_span must be at least 1")
    if kernel.is_compiled:
        raise KernelInvariantError(
            f"kernel {kernel.name!r} already carries phase specifiers"
        )

    body = kernel.body
    phases: list[Phase] = []
    first = body[0]
    start = 0
    opened_by_barrier = False
    ref_regs = max_regs = first.live_regs_after
    ref_scratch = max_scratch = first.live_scratch_after

    for i in range(1, len(body)):
        instr = body[i]
        regs = instr.live_regs_after
        scratch = instr.live_scratch_after
        barrier = instr.opcode is Opcode.BARRIER
        if barrier or (
            i - start >= min_span
            and (
                _changed(ref_regs, regs, change_threshold)
                or _changed(ref_scratch, scratch, change_threshold)
            )
        ):
            phases.append(Phase(start, i, max_regs, max_scratch, opened_by_barrier))
            start = i
            opened_by_barrier = barrier
            ref_regs = max_regs = regs
            ref_scratch = max_scratch = scratch
        else:
            if regs > max_regs:
                max_regs = regs
            if scratch > max_scratch:
                max_scratch = scratch
    phases.append(Phase(start, len(body), max_regs, max_scratch, opened_by_barrier))
    return tuple(phases)


def annotate_phases(
    kernel: KernelSpec,
    change_threshold: float = DEFAULT_CHANGE_THRESHOLD,
    min_span: int = DEFAULT_MIN_SPAN,
) -> KernelSpec:
    """Insert demand specifiers and return the compiled kernel.

    One PHASE_SPEC goes in front of every phase that does not start at a
    barrier, carrying that phase's own liveness maxima.  The original
    instruction order is preserved.
    """
    body = kernel.body
    out: list[Instruction] = []
    for phase in detect_phase_boundaries(kernel, change_threshold, min_span):
        if not phase.opened_by_barrier:
            payload = PhaseSpecifier(phase.max_live_regs, phase.max_live_scratch)
            out.append(Instruction(Opcode.PHASE_SPEC, phase_payload=payload))
        out.extend(body[phase.start : phase.end])
    return KernelSpec(kernel.name, kernel.resource_spec, tuple(out))
