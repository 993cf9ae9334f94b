"""Bundled benchmark kernels with pinned liveness profiles and sweep grids.

Six deterministic kernels, each built instruction by instruction so that
sweeps land in known admission regimes:

- reg_cliff: compute bursts around global loads, registers ramp to 32 and
  stay there.  Swept over threads/block at fixed total threads, the static
  policy drops from two resident blocks to one at 640 threads/block.
- scratch_cliff: scratchpad liveness steps 0 -> 4224 -> 384 bytes with two
  barriers inside the big phase.  Swept over declared scratchpad size, the
  block-granular policies shed resident blocks while the phase-aware policy
  is insensitive to the declaration.
- barrier_heavy: a barrier every six instructions, constant liveness.
- mixed_phase: five phases alternating 16 and 32 live registers (a 2x
  swing), swept over declared registers/thread.
- uniform: constant liveness, no barriers; the control kernel.
- membound: back-to-back global loads split by one barrier; throughput is
  set by latency hiding, so resident-warp count is everything.

Each kernel has a recommended grid (text in the harness grid format) that
the sweep tooling and the acceptance suite share.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from .kernel_model import Instruction, KernelSpec, Opcode, ResourceSpecification, save_kernel


def _alu(regs: int, scratch: int) -> Instruction:
    return Instruction(Opcode.ALU, regs, scratch)


def _ld_global(regs: int, scratch: int) -> Instruction:
    return Instruction(Opcode.LD_GLOBAL, regs, scratch)


def _st_global(regs: int, scratch: int) -> Instruction:
    return Instruction(Opcode.ST_GLOBAL, regs, scratch)


def _ld_shared(regs: int, scratch: int) -> Instruction:
    return Instruction(Opcode.LD_SHARED, regs, scratch)


def _st_shared(regs: int, scratch: int) -> Instruction:
    return Instruction(Opcode.ST_SHARED, regs, scratch)


def _barrier(regs: int, scratch: int) -> Instruction:
    return Instruction(Opcode.BARRIER, regs, scratch)


def build_reg_cliff() -> KernelSpec:
    """Register-bound compute kernel: 48 instructions, no barriers.

    Two compute bursts end in a global load each, so a warp issues for
    roughly 30 cycles and then waits a full memory round trip.  Throughput
    therefore scales with resident warps until the issue width saturates.
    """
    body: list[Instruction] = []
    ramp = (8, 16, 24, 32)
    for i in range(30):
        body.append(_alu(ramp[i] if i < len(ramp) else 32, 0))
    body.append(_ld_global(32, 0))
    for _ in range(15):
        body.append(_alu(32, 0))
    body.append(_ld_global(32, 0))
    body.append(_st_global(32, 0))
    spec = ResourceSpecification(
        threads_per_block=512, regs_per_thread=32, scratch_bytes_per_block=0,
        num_blocks=225,
    )
    return KernelSpec("reg_cliff", spec, tuple(body))


def build_scratch_cliff() -> KernelSpec:
    """Scratchpad-phased kernel: liveness steps 0 -> 4224 -> 384 bytes.

    The 4224-byte phase holds two barriers; the drop to 384 comes 12
    instructions after the last barrier, far enough to open a phase of
    its own.
    """
    body: list[Instruction] = []
    ramp = (8, 12, 16)
    for i in range(10):
        body.append(_alu(ramp[i] if i < len(ramp) else 16, 0))
    body.append(_st_shared(16, 4224))
    body.append(_ld_shared(16, 4224))
    body.append(_st_shared(16, 4224))
    body.append(_alu(16, 4224))
    body.append(_barrier(16, 4224))
    for i in range(5):
        body.append(_ld_shared(16, 4224) if i % 2 else _alu(16, 4224))
    body.append(_barrier(16, 4224))
    body.append(_ld_global(16, 4224))
    for i in range(10):
        body.append(_ld_shared(16, 4224) if i % 3 == 1 else _alu(16, 4224))
    body.append(_alu(16, 384))
    for i in range(8):
        body.append(_ld_shared(16, 384) if i % 4 == 1 else _alu(16, 384))
    body.append(_st_global(0, 0))
    spec = ResourceSpecification(
        threads_per_block=96, regs_per_thread=16, scratch_bytes_per_block=4224,
        num_blocks=600,
    )
    return KernelSpec("scratch_cliff", spec, tuple(body))


def build_barrier_heavy() -> KernelSpec:
    """Synchronization-bound kernel: a barrier every six instructions."""
    body: list[Instruction] = []
    ramp = (8, 16, 24)
    for i in range(36):
        regs = ramp[i] if i < len(ramp) else 24
        if i in (6, 12, 18, 24, 30):
            body.append(_barrier(24, 1024))
        elif i == 0:
            body.append(_st_shared(regs, 1024))
        elif i == 15:
            body.append(_ld_global(regs, 1024))
        elif i == 35:
            body.append(_st_global(regs, 1024))
        elif i % 5 == 4:
            body.append(_ld_shared(regs, 1024))
        else:
            body.append(_alu(regs, 1024))
    spec = ResourceSpecification(
        threads_per_block=256, regs_per_thread=24, scratch_bytes_per_block=1024,
        num_blocks=90,
    )
    return KernelSpec("barrier_heavy", spec, tuple(body))


def build_mixed_phase() -> KernelSpec:
    """Five 11-instruction phases alternating 16 and 32 live registers."""
    body: list[Instruction] = []
    levels = (16, 32, 16, 32, 16)
    for p, regs in enumerate(levels):
        for j in range(11):
            if p == 0 and j == 0:
                body.append(_st_shared(16, 2048))
            elif j == 5:
                body.append(_ld_global(regs, 2048))
            elif j in (3, 8):
                body.append(_ld_shared(regs, 2048))
            elif j == 9 and p % 2 == 1:
                body.append(_st_shared(regs, 2048))
            else:
                body.append(_alu(regs, 2048))
    body.append(_st_global(16, 2048))
    spec = ResourceSpecification(
        threads_per_block=256, regs_per_thread=32, scratch_bytes_per_block=2048,
        num_blocks=120,
    )
    return KernelSpec("mixed_phase", spec, tuple(body))


def build_uniform() -> KernelSpec:
    """Constant-liveness control kernel: one phase, no barriers."""
    body: list[Instruction] = []
    for i in range(32):
        if i == 0:
            body.append(_st_shared(32, 2048))
        elif i == 15:
            body.append(_ld_global(32, 2048))
        elif i == 31:
            body.append(_st_global(32, 2048))
        elif i in (5, 10, 20, 25):
            body.append(_ld_shared(32, 2048))
        else:
            body.append(_alu(32, 2048))
    spec = ResourceSpecification(
        threads_per_block=256, regs_per_thread=32, scratch_bytes_per_block=2048,
        num_blocks=60,
    )
    return KernelSpec("uniform", spec, tuple(body))


def build_membound() -> KernelSpec:
    """Latency-bound kernel: nine global loads in 24 instructions."""
    body: list[Instruction] = []
    for i in range(24):
        if i == 12:
            body.append(_barrier(16, 0))
        elif i == 23:
            body.append(_st_global(16, 0))
        elif 2 <= i <= 21 and i % 2 == 0:
            body.append(_ld_global(16, 0))
        else:
            body.append(_alu(16, 0))
    spec = ResourceSpecification(
        threads_per_block=256, regs_per_thread=16, scratch_bytes_per_block=0,
        num_blocks=120,
    )
    return KernelSpec("membound", spec, tuple(body))


CORPUS: dict[str, Callable[[], KernelSpec]] = {
    "reg_cliff": build_reg_cliff,
    "scratch_cliff": build_scratch_cliff,
    "barrier_heavy": build_barrier_heavy,
    "mixed_phase": build_mixed_phase,
    "uniform": build_uniform,
    "membound": build_membound,
}

# Grid text in the harness format.  Totals are multiples of every swept
# threads/block times the SM count, so block counts stay integral and
# SM replicas identical.
RECOMMENDED_GRIDS: dict[str, str] = {
    "reg_cliff": (
        "list threads_per_block=256,512,640,768,960\n"
        "set total_threads=115200\n"
    ),
    "scratch_cliff": "range scratch=6144:26624:2048\n",
    "barrier_heavy": (
        "list threads_per_block=128,192,256,384,768\n"
        "set total_threads=23040\n"
    ),
    "mixed_phase": "range regs_per_thread=32:64:4\n",
    "uniform": (
        "list threads_per_block=128,256,512\n"
        "set total_threads=15360\n"
    ),
    "membound": (
        "list threads_per_block=128,256,512,1024\n"
        "set total_threads=30720\n"
    ),
}


def corpus_names() -> list[str]:
    return list(CORPUS)


def corpus_kernel(name: str) -> KernelSpec:
    try:
        return CORPUS[name]()
    except KeyError:
        raise ValueError(
            f"unknown corpus kernel {name!r}; choose from {', '.join(CORPUS)}"
        ) from None


def export_corpus(directory) -> list[Path]:
    """Write every corpus kernel and its grid to a directory; return paths."""
    out_dir = Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for name, build in CORPUS.items():
        kpath = out_dir / f"{name}.kernel"
        save_kernel(build(), kpath)
        written.append(kpath)
        gpath = out_dir / f"{name}.grid"
        gpath.write_text(RECOMMENDED_GRIDS[name], encoding="utf-8")
        written.append(gpath)
    return written
