"""Kernel intermediate representation, text format, and synthetic generation.

A kernel is a straight-line instruction sequence annotated with liveness:
after each instruction the annotation says how many registers per thread and
how many scratchpad bytes per block are still live.  Control flow is assumed
to be already unrolled/linearized by whatever produced the trace, and every
warp of a block executes the same sequence.  Liveness is an annotation only;
the simulator never derives it from operands.

Scratchpad liveness is treated as a prefix of the block's scratch space:
``live_scratch_after=4224`` means bytes [0, 4224) are live.

A compiled kernel's body begins with a phase specifier: a PHASE_SPEC
instruction whose only data is its payload, the demand of the span that
follows, with no liveness of its own.  KernelSpec checks the rules of a
compiled body wherever one is built (constructor, ``dataclasses.replace``,
parser, phase compiler).
"""

from __future__ import annotations

import enum
import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

WARP_WIDTH = 32


class Opcode(enum.Enum):
    ALU = "ALU"
    LD_GLOBAL = "LD_GLOBAL"
    ST_GLOBAL = "ST_GLOBAL"
    LD_SHARED = "LD_SHARED"
    ST_SHARED = "ST_SHARED"
    BARRIER = "BARRIER"
    PHASE_SPEC = "PHASE_SPEC"


class KernelError(ValueError):
    """Base class for kernel construction and parsing failures."""


class KernelSyntaxError(KernelError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class KernelInvariantError(KernelError):
    pass


@dataclass(frozen=True)
class PhaseSpecifier:
    """Resource requirement of the instruction span that follows.

    live_regs is per thread; scratch_bytes is per block.
    """

    live_regs: int
    scratch_bytes: int

    def __post_init__(self):
        if self.live_regs < 0 or self.scratch_bytes < 0:
            raise KernelInvariantError("phase requirements must be non-negative")


@dataclass(frozen=True)
class Instruction:
    opcode: Opcode
    live_regs_after: int = 0
    live_scratch_after: int = 0
    phase_payload: Optional[PhaseSpecifier] = None

    def __post_init__(self):
        if self.live_regs_after < 0 or self.live_scratch_after < 0:
            raise KernelInvariantError("liveness annotations must be non-negative")
        if (self.opcode is Opcode.PHASE_SPEC) != (self.phase_payload is not None):
            raise KernelInvariantError(
                "phase_payload must be present exactly on PHASE_SPEC instructions"
            )
        if self.phase_payload is not None and (self.live_regs_after or self.live_scratch_after):
            raise KernelInvariantError("a phase specifier carries only its payload")


@dataclass(frozen=True)
class ResourceSpecification:
    """Static per-kernel resource declaration, as a compiler would emit it."""

    threads_per_block: int
    regs_per_thread: int
    scratch_bytes_per_block: int
    num_blocks: int

    def __post_init__(self):
        if self.threads_per_block <= 0 or self.threads_per_block % WARP_WIDTH:
            raise KernelInvariantError(
                f"threads_per_block must be a positive multiple of {WARP_WIDTH}, "
                f"got {self.threads_per_block}"
            )
        if self.regs_per_thread < 1:
            raise KernelInvariantError("regs_per_thread must be >= 1")
        if self.scratch_bytes_per_block < 0:
            raise KernelInvariantError("scratch_bytes_per_block must be >= 0")
        if self.num_blocks < 1:
            raise KernelInvariantError("num_blocks must be >= 1")

    @property
    def warps_per_block(self) -> int:
        return self.threads_per_block // WARP_WIDTH


def _valid_name(name: str) -> bool:
    return bool(name) and all(c.isalnum() or c in "._-" for c in name)


@dataclass(frozen=True)
class KernelSpec:
    name: str
    resource_spec: ResourceSpecification
    body: tuple[Instruction, ...]

    def __post_init__(self):
        if not _valid_name(self.name):
            raise KernelInvariantError(f"bad kernel name {self.name!r}")
        if not self.body:
            raise KernelInvariantError("kernel body may not be empty")
        rs = self.resource_spec
        compiled = self.is_compiled
        for i, ins in enumerate(self.body):
            if ins.live_regs_after > rs.regs_per_thread:
                raise KernelInvariantError(
                    f"instr {i}: live_regs_after {ins.live_regs_after} exceeds "
                    f"regs_per_thread {rs.regs_per_thread}"
                )
            if ins.live_scratch_after > rs.scratch_bytes_per_block:
                raise KernelInvariantError(
                    f"instr {i}: live_scratch_after {ins.live_scratch_after} exceeds "
                    f"scratch_bytes_per_block {rs.scratch_bytes_per_block}"
                )
            if ins.phase_payload is not None:
                if not compiled:
                    raise KernelInvariantError(
                        f"instr {i}: a body with a specifier must begin with one"
                    )
                p = ins.phase_payload
                if p.live_regs > rs.regs_per_thread or p.scratch_bytes > rs.scratch_bytes_per_block:
                    raise KernelInvariantError(
                        f"instr {i}: phase payload exceeds the static resource spec"
                    )
        if compiled:
            _check_spans(self.body)

    @property
    def is_compiled(self) -> bool:
        """True when the body begins with a phase specifier."""
        return self.body[0].opcode is Opcode.PHASE_SPEC

    def has_barrier(self) -> bool:
        return any(i.opcode is Opcode.BARRIER for i in self.body)


def _check_spans(body: tuple[Instruction, ...]) -> None:
    """The span rules of a compiled body, which begins with a specifier.

    A specifier's span runs to the next specifier or barrier, whichever
    comes first, and its payload must cover all liveness inside it.  Each
    specifier is followed by at least one real instruction before the next
    specifier, a barrier or the end of the body; only the entry specifier
    may stand directly before a barrier, as a kernel may begin with one.
    Instructions between a barrier and the next specifier are outside any
    span: at run time the demands announced before the barrier remain in
    force there, so they are not re-checked against the old specifier.
    """
    spec_op, barrier_op = Opcode.PHASE_SPEC, Opcode.BARRIER  # an enum lookup is slow
    current: Optional[PhaseSpecifier] = None  # None past a barrier
    bare = False  # the last specifier has no real instruction yet
    for i, ins in enumerate(body):
        op = ins.opcode
        if op is spec_op:
            if bare:
                raise KernelInvariantError(f"empty specifier span before {i}")
            current = ins.phase_payload
            bare = True
        elif op is barrier_op:
            if bare and i > 1:
                raise KernelInvariantError("specifier at a barrier with no body")
            current = None
            bare = False
        else:
            bare = False
            if current is None:
                continue
            if ins.live_regs_after > current.live_regs:
                raise KernelInvariantError(
                    f"instruction {i} uses {ins.live_regs_after} registers, "
                    f"specifier announced {current.live_regs}"
                )
            if ins.live_scratch_after > current.scratch_bytes:
                raise KernelInvariantError(
                    f"instruction {i} uses {ins.live_scratch_after} scratch bytes, "
                    f"specifier announced {current.scratch_bytes}"
                )
    if bare:
        raise KernelInvariantError("the body ends in a specifier")


# --------------------------------------------------------------------------
# text format
#
#   kernel <name>
#   config threads_per_block=<int> regs_per_thread=<int> scratch=<int> blocks=<int>
#   instr <OPCODE> live_regs=<int> scratch=<int>
#   phase live_regs=<int> scratch=<int>
#
# '#' starts a comment; blank lines are ignored.

_CONFIG_KEYS = ("threads_per_block", "regs_per_thread", "scratch", "blocks")


def _parse_kv(tokens: list[str], expected: tuple[str, ...], line_no: int) -> dict[str, int]:
    got: dict[str, int] = {}
    for tok in tokens:
        if "=" not in tok:
            raise KernelSyntaxError(line_no, f"expected key=value, got {tok!r}")
        key, _, raw = tok.partition("=")
        if key not in expected:
            raise KernelSyntaxError(line_no, f"unknown key {key!r}")
        if key in got:
            raise KernelSyntaxError(line_no, f"duplicate key {key!r}")
        try:
            got[key] = int(raw)
        except ValueError:
            raise KernelSyntaxError(line_no, f"value of {key!r} is not an integer: {raw!r}") from None
    missing = [k for k in expected if k not in got]
    if missing:
        raise KernelSyntaxError(line_no, f"missing keys: {', '.join(missing)}")
    return got


def parse_kernel(text: str) -> KernelSpec:
    name: Optional[str] = None
    spec: Optional[ResourceSpecification] = None
    body: list[Instruction] = []
    # instr/phase line -> the Instruction it parsed to; a kernel repeats
    # few distinct lines many times, and instructions are immutable
    seen: dict[str, Instruction] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        ins = seen.get(line)
        if ins is not None:
            body.append(ins)
            continue
        tokens = line.split()
        directive = tokens[0]
        if directive == "kernel":
            if name is not None:
                raise KernelSyntaxError(line_no, "duplicate kernel line")
            if len(tokens) != 2:
                raise KernelSyntaxError(line_no, "expected: kernel <name>")
            name = tokens[1]
        elif directive == "config":
            if name is None:
                raise KernelSyntaxError(line_no, "config before kernel line")
            if spec is not None:
                raise KernelSyntaxError(line_no, "duplicate config line")
            kv = _parse_kv(tokens[1:], _CONFIG_KEYS, line_no)
            try:
                spec = ResourceSpecification(
                    threads_per_block=kv["threads_per_block"],
                    regs_per_thread=kv["regs_per_thread"],
                    scratch_bytes_per_block=kv["scratch"],
                    num_blocks=kv["blocks"],
                )
            except KernelInvariantError as e:
                raise KernelSyntaxError(line_no, str(e)) from None
        elif directive == "instr":
            if spec is None:
                raise KernelSyntaxError(line_no, "instr before config line")
            if len(tokens) < 2:
                raise KernelSyntaxError(line_no, "expected: instr <OPCODE> key=value...")
            try:
                op = Opcode[tokens[1]]
            except KeyError:
                raise KernelSyntaxError(line_no, f"unknown opcode {tokens[1]!r}") from None
            if op is Opcode.PHASE_SPEC:
                raise KernelSyntaxError(line_no, "use a 'phase' line for phase specifiers")
            kv = _parse_kv(tokens[2:], ("live_regs", "scratch"), line_no)
            try:
                ins = Instruction(op, kv["live_regs"], kv["scratch"])
            except KernelInvariantError as e:
                raise KernelSyntaxError(line_no, str(e)) from None
            seen[line] = ins
            body.append(ins)
        elif directive == "phase":
            if spec is None:
                raise KernelSyntaxError(line_no, "phase before config line")
            kv = _parse_kv(tokens[1:], ("live_regs", "scratch"), line_no)
            try:
                payload = PhaseSpecifier(kv["live_regs"], kv["scratch"])
                ins = Instruction(Opcode.PHASE_SPEC, phase_payload=payload)
            except KernelInvariantError as e:
                raise KernelSyntaxError(line_no, str(e)) from None
            seen[line] = ins
            body.append(ins)
        else:
            raise KernelSyntaxError(line_no, f"unknown directive {directive!r}")
    if name is None:
        raise KernelError("missing kernel line")
    if spec is None:
        raise KernelError("missing config line")
    try:
        return KernelSpec(name, spec, tuple(body))
    except KernelInvariantError as e:
        raise KernelInvariantError(f"kernel {name!r}: {e}") from None


def serialize_kernel(kernel: KernelSpec) -> str:
    rs = kernel.resource_spec
    lines = [
        f"kernel {kernel.name}",
        f"config threads_per_block={rs.threads_per_block} "
        f"regs_per_thread={rs.regs_per_thread} "
        f"scratch={rs.scratch_bytes_per_block} blocks={rs.num_blocks}",
    ]
    for ins in kernel.body:
        if ins.opcode is Opcode.PHASE_SPEC:
            p = ins.phase_payload
            lines.append(f"phase live_regs={p.live_regs} scratch={p.scratch_bytes}")
        else:
            # _name_ is enum's plain attribute; .name goes through a descriptor
            lines.append(
                f"instr {ins.opcode._name_} live_regs={ins.live_regs_after} "
                f"scratch={ins.live_scratch_after}"
            )
    return "\n".join(lines) + "\n"


def load_kernel(path) -> KernelSpec:
    with open(path, "r", encoding="utf-8") as f:
        return parse_kernel(f.read())


def save_kernel(kernel: KernelSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(serialize_kernel(kernel))


# --------------------------------------------------------------------------
# synthetic kernels


class Profile(enum.Enum):
    REG_HEAVY = "reg_heavy"
    SCRATCH_HEAVY = "scratch_heavy"
    BARRIER_HEAVY = "barrier_heavy"
    MIXED = "mixed"


_REG_LEVELS = (6, 8, 12, 16, 24, 32, 48)
_SCRATCH_LEVELS = (0, 512, 1024, 2048, 4096, 8192)
# an opcode draw below _OPCODE_CUTS[i], and not below the cut before it,
# gives _DRAWN_OPS[i]; past the last cut it gives ALU
_OPCODE_CUTS = (0.55, 0.67, 0.72, 0.86, 0.93)
_DRAWN_OPS = (Opcode.ALU, Opcode.LD_GLOBAL, Opcode.ST_GLOBAL, Opcode.LD_SHARED, Opcode.ST_SHARED)


def _walk_levels(rng: random.Random, levels, n: int, min_rel_change: float) -> list[int]:
    # Pick n values such that consecutive picks differ by at least
    # min_rel_change relative to the earlier one (zero counts as a change
    # whenever the other value is nonzero).
    out = [rng.choice(levels)]
    for _ in range(n - 1):
        cur = out[-1]
        candidates = []
        for v in levels:
            if v == cur:
                continue
            if cur == 0 or abs(v - cur) / cur >= min_rel_change:
                candidates.append(v)
        out.append(rng.choice(candidates) if candidates else cur)
    return out


def generate_synthetic_kernel(profile, length: int, seed: int) -> KernelSpec:
    """Deterministically generate a source kernel with the given liveness shape.

    Liveness is flat over a segment, so its instructions are shared immutable
    objects, one per opcode, like those of ``parse_kernel``'s line memo."""
    if isinstance(profile, str):
        profile = Profile(profile)
    if length < 1:
        raise KernelInvariantError("length must be >= 1")
    rng = random.Random((profile.value, length, seed).__repr__())
    threads = rng.choice((64, 96, 128, 192, 256))
    blocks = rng.randint(1, 4)
    name = f"{profile.value}_L{length}_s{seed}"

    if length == 1:
        regs = rng.choice(_REG_LEVELS)
        spec = ResourceSpecification(threads, regs, 0, blocks)
        return KernelSpec(name, spec, (Instruction(Opcode.ALU, regs, 0),))

    n_seg = min(rng.randint(2, 5), length // 8) if length >= 16 else 1
    if profile is Profile.BARRIER_HEAVY:
        n_seg = 1
    # segment lengths: roughly even split with jitter
    cuts = sorted(rng.sample(range(1, length), n_seg - 1)) if n_seg > 1 else []
    bounds = [0] + cuts + [length]

    if profile is Profile.REG_HEAVY:
        reg_levels = _walk_levels(rng, _REG_LEVELS, n_seg, 0.30)
        scr_levels = [0] * n_seg
    elif profile is Profile.SCRATCH_HEAVY:
        reg_levels = [rng.choice((8, 12, 16))] * n_seg
        scr_levels = _walk_levels(rng, _SCRATCH_LEVELS, n_seg, 0.25)
    elif profile is Profile.BARRIER_HEAVY:
        reg_levels = [rng.choice(_REG_LEVELS)] * n_seg
        scr_levels = [rng.choice((0, 1024, 2048))] * n_seg
    else:
        reg_levels = _walk_levels(rng, _REG_LEVELS, n_seg, 0.30)
        scr_levels = _walk_levels(rng, _SCRATCH_LEVELS, n_seg, 0.25)

    barrier_every = rng.randint(5, 8) if profile is Profile.BARRIER_HEAVY else 0
    mixed = profile is Profile.MIXED
    body: list[Instruction] = []
    for seg in range(n_seg):
        regs, scratch = reg_levels[seg], scr_levels[seg]
        # without scratchpad the shared-memory draws give ALU too
        ops = _DRAWN_OPS if scratch else _DRAWN_OPS[:3]
        kinds = [Instruction(op, regs, scratch) for op in ops]
        alu, barrier = kinds[0], Instruction(Opcode.BARRIER, regs, scratch)
        kinds += [alu] * (len(_OPCODE_CUTS) + 1 - len(kinds))
        rng.random()  # a segment's first draw is spent, and it always begins with ALU
        body.append(alu)
        for j in range(bounds[seg] + 1, bounds[seg + 1]):
            at_barrier = barrier_every and j % barrier_every == 0 or mixed and rng.random() < 0.04
            body.append(barrier if at_barrier else kinds[bisect_right(_OPCODE_CUTS, rng.random())])

    spec = ResourceSpecification(
        threads_per_block=threads,
        regs_per_thread=max(reg_levels),
        scratch_bytes_per_block=max(scr_levels),
        num_blocks=blocks,
    )
    return KernelSpec(name, spec, tuple(body))
