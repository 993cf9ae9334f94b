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
previous specifier simply remain in force across the barrier.
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


@dataclass(frozen=True)
class PhaseReport:
    body_len: int
    boundaries: tuple[int, ...]
    phases: tuple[Phase, ...]
    change_threshold: float
    min_span: int


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
) -> PhaseReport:
    """Scan a raw kernel body and return its phase decomposition.

    Boundaries are instruction indices that open a new phase.  Index 0 is
    implicit and never listed, and its phase is not opened by a barrier.
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
    boundaries: list[int] = []
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
            boundaries.append(i)
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

    return PhaseReport(
        body_len=len(body),
        boundaries=tuple(boundaries),
        phases=tuple(phases),
        change_threshold=change_threshold,
        min_span=min_span,
    )


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
    report = detect_phase_boundaries(kernel, change_threshold, min_span)
    body = kernel.body
    out: list[Instruction] = []
    for phase in report.phases:
        if not phase.opened_by_barrier:
            out.append(
                Instruction(
                    opcode=Opcode.PHASE_SPEC,
                    live_regs_after=body[phase.start].live_regs_after,
                    live_scratch_after=body[phase.start].live_scratch_after,
                    phase_payload=PhaseSpecifier(
                        live_regs=phase.max_live_regs,
                        scratch_bytes=phase.max_live_scratch,
                    ),
                )
            )
        out.extend(body[phase.start : phase.end])

    compiled = KernelSpec(
        name=kernel.name,
        resource_spec=kernel.resource_spec,
        body=tuple(out),
    )
    validate_compiled(compiled)
    return compiled


def validate_compiled(kernel: KernelSpec) -> None:
    """Check the structural soundness of a compiled kernel body.

    Rules: the body starts with a specifier, no two specifiers are
    adjacent, every specifier is followed by at least one real instruction
    before the next specifier or barrier (only the entry specifier may
    stand directly before a barrier, as a kernel may begin with one), and
    each specifier's announced demands cover all liveness inside its span.
    A span runs from the specifier to the next PHASE_SPEC or BARRIER,
    whichever comes first.  Instructions between a barrier and the next
    specifier are outside any span: at run time the demands announced
    before the barrier remain in force there, so they are not re-validated
    against the old specifier.
    """
    body = kernel.body
    if body[0].opcode is not Opcode.PHASE_SPEC:
        raise KernelInvariantError(
            f"kernel {kernel.name!r}: compiled body must begin with a specifier"
        )

    current: PhaseSpecifier | None = None
    span_len = 0
    for i, instr in enumerate(body):
        if instr.opcode is Opcode.PHASE_SPEC:
            if current is not None and span_len == 0:
                raise KernelInvariantError(
                    f"kernel {kernel.name!r}: empty specifier span before {i}"
                )
            current = instr.phase_payload
            span_len = 0
            continue
        if instr.opcode is Opcode.BARRIER:
            if current is not None and span_len == 0 and i > 1:
                raise KernelInvariantError(
                    f"kernel {kernel.name!r}: specifier at a barrier with no body"
                )
            # The barrier closes the active coverage span; demands announced
            # before it remain in force but later liveness is not re-checked
            # against them.
            current = None
            span_len = 0
            continue
        span_len += 1
        if current is None:
            continue
        if instr.live_regs_after > current.live_regs:
            raise KernelInvariantError(
                f"kernel {kernel.name!r}: instruction {i} uses "
                f"{instr.live_regs_after} registers, specifier announced "
                f"{current.live_regs}"
            )
        if instr.live_scratch_after > current.scratch_bytes:
            raise KernelInvariantError(
                f"kernel {kernel.name!r}: instruction {i} uses "
                f"{instr.live_scratch_after} scratch bytes, specifier "
                f"announced {current.scratch_bytes}"
            )


def phase_demand_table(kernel: KernelSpec) -> tuple[PhaseSpecifier, ...]:
    """List the specifier payloads of a compiled kernel in body order."""
    if not kernel.is_compiled:
        raise KernelInvariantError(f"kernel {kernel.name!r} is not compiled")
    return tuple(ins.phase_payload for ins in kernel.body if ins.opcode is Opcode.PHASE_SPEC)
