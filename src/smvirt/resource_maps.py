"""Architecture description, mapping tables, set math.

On-chip resources are managed in fixed-size sets, the same on every
architecture: registers in sets of 4 x warp width (128 registers),
scratchpad in 1 KiB sets, warp slots individually; a warp addresses at
most 16 register sets.  Only zorua admission (coordinator.py) turns a
phase's demand into sets.  Each resource has a mapping table that tells,
per (owner, logical set), whether the set is on chip or in swap (backing
memory), and how often a swapped set was touched in the current epoch,
its heat.  The simulator needs nothing more, so it keeps no physical
index.
table_size_bits sizes the hardware table: one entry per addressable
logical set, each wide enough for a physical index plus a valid bit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

from .kernel_model import WARP_WIDTH

REG_SET_SIZE = 4 * WARP_WIDTH  # registers per register set
SCRATCH_SET_SIZE = 1024  # bytes per scratchpad set
MAX_REG_SETS_PER_WARP = 16  # logical register sets one warp can address


class ResourceKind(enum.Enum):
    REGISTER = "register"
    SCRATCHPAD = "scratchpad"
    WARP_SLOT = "warp_slot"


class Placement(enum.Enum):
    PHYSICAL = "physical"
    SWAP = "swap"


class MappingError(RuntimeError):
    """Raised on table misuse: over-allocation, lookup of an unmapped set, ..."""


@dataclass(frozen=True)
class ArchConfig:
    """Per-SM capacities and timing constants for one GPU generation."""

    name: str
    num_sms: int
    warp_slots_per_sm: int
    max_logical_warps: int
    max_logical_blocks: int
    registers_per_sm: int
    scratch_bytes_per_sm: int
    max_blocks_per_sm_baseline: int
    schedulers_per_sm: int = 2
    mapping_table_penalty_cycles: int = 2
    memory_latency_cycles: int = 400
    epoch_cycles: int = 2048
    max_inflight_mem_requests: int = 64

    def __post_init__(self):
        if self.registers_per_sm % REG_SET_SIZE:
            raise ValueError(f"registers_per_sm must be a multiple of {REG_SET_SIZE}")
        if self.scratch_bytes_per_sm % SCRATCH_SET_SIZE:
            raise ValueError(f"scratch_bytes_per_sm must be a multiple of {SCRATCH_SET_SIZE}")
        for f in (
            "num_sms",
            "warp_slots_per_sm",
            "max_logical_warps",
            "max_logical_blocks",
            "max_blocks_per_sm_baseline",
            "schedulers_per_sm",
            "memory_latency_cycles",
            "epoch_cycles",
            "max_inflight_mem_requests",
        ):
            if getattr(self, f) < 1:
                raise ValueError(f"{f} must be >= 1")
        for f in ("registers_per_sm", "scratch_bytes_per_sm", "mapping_table_penalty_cycles"):
            if getattr(self, f) < 0:
                raise ValueError(f"{f} must be >= 0")
        if self.max_logical_warps < self.warp_slots_per_sm:
            raise ValueError("max_logical_warps must cover the physical warp slots")

    @property
    def reg_sets_physical(self) -> int:
        return self.registers_per_sm // REG_SET_SIZE

    @property
    def scratch_sets_physical(self) -> int:
        return self.scratch_bytes_per_sm // SCRATCH_SET_SIZE

    def physical_capacity(self, kind: ResourceKind) -> int:
        if kind is ResourceKind.REGISTER:
            return self.reg_sets_physical
        if kind is ResourceKind.SCRATCHPAD:
            return self.scratch_sets_physical
        return self.warp_slots_per_sm


ARCHITECTURES: dict[str, ArchConfig] = {
    "fermi": ArchConfig(
        name="fermi",
        num_sms=15,
        warp_slots_per_sm=48,
        max_logical_warps=64,
        max_logical_blocks=16,
        registers_per_sm=32768,
        scratch_bytes_per_sm=48 * 1024,
        max_blocks_per_sm_baseline=8,
    ),
    "kepler": ArchConfig(
        name="kepler",
        num_sms=15,
        warp_slots_per_sm=64,
        max_logical_warps=85,
        max_logical_blocks=21,
        registers_per_sm=65536,
        scratch_bytes_per_sm=48 * 1024,
        max_blocks_per_sm_baseline=16,
    ),
    "maxwell": ArchConfig(
        name="maxwell",
        num_sms=15,
        warp_slots_per_sm=64,
        max_logical_warps=85,
        max_logical_blocks=21,
        registers_per_sm=65536,
        scratch_bytes_per_sm=64 * 1024,
        max_blocks_per_sm_baseline=16,
    ),
}


def get_arch(name: str) -> ArchConfig:
    try:
        return ARCHITECTURES[name]
    except KeyError:
        raise ValueError(
            f"unknown architecture {name!r}; choose from {', '.join(sorted(ARCHITECTURES))}"
        ) from None


def _entry_bits(physical_count: int) -> int:
    # physical index plus one valid bit; a resource the SM lacks needs no table
    return math.ceil(math.log2(physical_count)) + 1 if physical_count else 0


def table_size_bits(arch: ArchConfig, kind: ResourceKind) -> int:
    """Storage cost of one SM's mapping table for the given resource, 0
    for a resource the SM has none of."""
    if kind is ResourceKind.REGISTER:
        rows = arch.max_logical_warps * MAX_REG_SETS_PER_WARP
        return rows * _entry_bits(arch.reg_sets_physical)
    if kind is ResourceKind.SCRATCHPAD:
        rows = arch.max_logical_blocks * arch.scratch_sets_physical
        return rows * _entry_bits(arch.scratch_sets_physical)
    return arch.max_logical_warps * _entry_bits(arch.warp_slots_per_sm)


def reg_sets_for(live_regs: int) -> int:
    """Register sets one warp needs to hold live_regs registers per thread."""
    return math.ceil(live_regs * WARP_WIDTH / REG_SET_SIZE)


def scratch_sets_for(scratch_bytes: int) -> int:
    return math.ceil(scratch_bytes / SCRATCH_SET_SIZE)


class _SwapSet:
    __slots__ = ("accesses", "forced")

    def __init__(self, forced: bool):
        # entering swap counts as one touch of the set's heat
        self.accesses = 1
        self.forced = forced


class MappingTable:
    """Mapping table for one resource of one SM.

    An owner's logical sets are 0 .. owned_sets[owner] - 1.  Each is on
    chip unless _swapped holds it, so the on-chip sets are a count and
    only swap-resident sets carry state: their heat and whether the
    deadlock guard forced them there.
    """

    def __init__(self, kind: ResourceKind, capacity: int):
        self.kind = kind
        self.capacity = capacity
        self.free_physical = capacity
        self._swapped: dict[tuple[int, int], _SwapSet] = {}
        self.owned_sets: dict[int, int] = {}  # owner -> number of logical sets
        # owner -> number of its sets in swap, for owners with at least one
        self.swap_owned: dict[int, int] = {}
        self.mapped_swap = 0
        self.forced_swap = 0
        self.total_accesses = 0
        self.swap_accesses = 0

    # -- queries ------------------------------------------------------------

    def owned(self, owner: int) -> int:
        return self.owned_sets.get(owner, 0)

    def budget_swap(self) -> int:
        """Swap-resident sets that count against the oversubscription budget."""
        return self.mapped_swap - self.forced_swap

    def headroom(self, limit: int) -> int:
        """The most sets one request may get with the budget-counted swap
        held to limit: the free physical sets plus the budget left."""
        return self.free_physical + max(0, limit - self.mapped_swap + self.forced_swap)

    def peek(self, owner: int, logical: int) -> Optional[Placement]:
        if not 0 <= logical < self.owned_sets.get(owner, 0):
            return None
        return Placement.SWAP if (owner, logical) in self._swapped else Placement.PHYSICAL

    # -- mutation -----------------------------------------------------------

    def allocate(self, owner: int, n_sets: int, placement: Placement, forced: bool = False):
        """Append n_sets logical sets for owner, placed physically or in swap."""
        if n_sets < 0:
            raise MappingError("n_sets must be >= 0")
        base = self.owned_sets.get(owner, 0)
        if placement is Placement.PHYSICAL:
            if n_sets > self.free_physical:
                raise MappingError(
                    f"{self.kind.value}: {n_sets} physical sets requested, "
                    f"{self.free_physical} free"
                )
            self.free_physical -= n_sets
        elif n_sets:
            swapped = self._swapped
            for logical in range(base, base + n_sets):
                swapped[owner, logical] = _SwapSet(forced)
            self.mapped_swap += n_sets
            if forced:
                self.forced_swap += n_sets
            self._count_swap(owner, n_sets)
        self.owned_sets[owner] = base + n_sets

    def free(self, owner: int, n_sets: int):
        """Release the highest-indexed n_sets logical sets of owner."""
        have = self.owned_sets.get(owner, 0)
        if n_sets > have:
            raise MappingError(
                f"{self.kind.value}: owner {owner} holds {have} sets, cannot free {n_sets}"
            )
        swapped = 0
        if owner in self.swap_owned:
            pop = self._swapped.pop
            for logical in range(have - n_sets, have):
                s = pop((owner, logical), None)
                if s is not None:
                    swapped += 1
                    if s.forced:
                        self.forced_swap -= 1
            if swapped:
                self.mapped_swap -= swapped
                self._count_swap(owner, -swapped)
        self.free_physical += n_sets - swapped
        if have == n_sets:
            self.owned_sets.pop(owner, None)
        else:
            self.owned_sets[owner] = have - n_sets

    def free_all(self, owner: int):
        self.free(owner, self.owned_sets.get(owner, 0))

    def lookup(self, owner: int, logical: int) -> Placement:
        """Resolve one logical set, recording the access (and, for a set in
        swap, its heat)."""
        if not 0 <= logical < self.owned_sets.get(owner, 0):
            raise MappingError(f"{self.kind.value}: lookup of unmapped set ({owner}, {logical})")
        self.total_accesses += 1
        s = self._swapped.get((owner, logical))
        if s is None:
            return Placement.PHYSICAL
        s.accesses += 1
        self.swap_accesses += 1
        return Placement.SWAP

    def note_swap_event(self):
        """Count one swap transfer that is not a lookup (state save/restore)."""
        self.total_accesses += 1
        self.swap_accesses += 1

    def _count_swap(self, owner: int, delta: int):
        """Keep swap_owned current: owner's swap sets changed by delta."""
        left = self.swap_owned.get(owner, 0) + delta
        if left:
            self.swap_owned[owner] = left
        else:
            del self.swap_owned[owner]

    def migrate_in(self, owner: int, logical: int):
        """Bring a swap-resident set back on chip."""
        s = self._swapped.get((owner, logical))
        if s is None:
            raise MappingError(f"{self.kind.value}: ({owner}, {logical}) is not in swap")
        if not self.free_physical:
            raise MappingError(f"{self.kind.value}: no free physical set to migrate into")
        del self._swapped[owner, logical]
        self.free_physical -= 1
        self.mapped_swap -= 1
        if s.forced:
            self.forced_swap -= 1
        self._count_swap(owner, -1)

    def spill_specific(self, owner: int, logical: int, forced: bool = False):
        """Move an on-chip set to swap.  Like a set allocated in swap, it
        starts at heat 1: an on-chip set keeps no heat."""
        if self.peek(owner, logical) is not Placement.PHYSICAL:
            raise MappingError(f"{self.kind.value}: ({owner}, {logical}) is not physical")
        self._swapped[owner, logical] = _SwapSet(forced)
        self.free_physical += 1
        self.mapped_swap += 1
        if forced:
            self.forced_swap += 1
        self._count_swap(owner, 1)

    def swap_keys_by_heat(self) -> list[tuple[int, int]]:
        """Swap-resident keys, guard-forced ones too, most accessed first
        (promotion order)."""
        pool = sorted((-s.accesses, o, logical) for (o, logical), s in self._swapped.items())
        return [(owner, logical) for _, owner, logical in pool]

    def reset_access_window(self):
        """Start a new access-heat window (called once per epoch)."""
        for s in self._swapped.values():
            s.accesses = 0

    # -- validation ---------------------------------------------------------

    def check_invariants(self) -> list[str]:
        errors = []
        on_chip = sum(self.owned_sets.values()) - len(self._swapped)
        if on_chip + self.free_physical != self.capacity:
            errors.append(
                f"{self.kind.value}: conservation broken "
                f"({on_chip} mapped + {self.free_physical} free != {self.capacity})"
            )
        if len(self._swapped) != self.mapped_swap:
            errors.append(f"{self.kind.value}: mapped_swap counter drifted")
        if sum(s.forced for s in self._swapped.values()) != self.forced_swap:
            errors.append(f"{self.kind.value}: forced_swap counter drifted")
        swapped: dict[int, int] = {}
        for owner, logical in self._swapped:
            swapped[owner] = swapped.get(owner, 0) + 1
            owned = self.owned_sets.get(owner, 0)
            if not 0 <= logical < owned:
                errors.append(
                    f"{self.kind.value}: swap set ({owner}, {logical}) lies beyond "
                    f"the owner's {owned} sets"
                )
        for owner in sorted(swapped.keys() | self.swap_owned.keys()):
            if self.swap_owned.get(owner) != swapped.get(owner):
                errors.append(
                    f"{self.kind.value}: owner {owner} swap count kept as "
                    f"{self.swap_owned.get(owner, 0)}, mapped {swapped.get(owner, 0)}"
                )
        return errors


def make_tables(arch: ArchConfig) -> dict[ResourceKind, MappingTable]:
    return {kind: MappingTable(kind, arch.physical_capacity(kind)) for kind in ResourceKind}
