"""Architecture description, virtual-to-physical mapping tables, set math.

On-chip resources are managed in fixed-size sets: registers in sets of
4 x warp width (128 registers), scratchpad in 1 KiB sets, warp slots
individually.  Each resource has a mapping table from (owner, logical set)
to either a physical set index or swap (backing memory).  Table sizing
follows the hardware layout: one entry per addressable logical set, each
entry wide enough for a physical index plus a valid bit.
"""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass
from typing import Optional

from .kernel_model import WARP_WIDTH, ResourceSpecification


class ResourceKind(enum.Enum):
    REGISTER = "register"
    SCRATCHPAD = "scratchpad"
    WARP_SLOT = "warp_slot"


class Placement(enum.Enum):
    PHYSICAL = "physical"
    SWAP = "swap"


class MappingError(RuntimeError):
    """Raised on table misuse: double allocation, lookup of an unmapped set, ..."""


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
    warp_width: int = WARP_WIDTH
    schedulers_per_sm: int = 2
    reg_set_size: int = 4 * WARP_WIDTH
    scratch_set_size: int = 1024
    max_reg_sets_per_warp: int = 16
    mapping_table_penalty_cycles: int = 2
    memory_latency_cycles: int = 400
    epoch_cycles: int = 2048
    max_inflight_mem_requests: int = 64

    def __post_init__(self):
        if self.reg_set_size != 4 * self.warp_width:
            raise ValueError("reg_set_size must equal 4 x warp_width")
        if self.scratch_set_size != 1024:
            raise ValueError("scratch_set_size must be 1024 bytes")
        if self.registers_per_sm % self.reg_set_size:
            raise ValueError("registers_per_sm must be a multiple of reg_set_size")
        if self.scratch_bytes_per_sm % self.scratch_set_size:
            raise ValueError("scratch_bytes_per_sm must be a multiple of scratch_set_size")
        for f in (
            "num_sms",
            "warp_slots_per_sm",
            "max_logical_warps",
            "max_logical_blocks",
            "max_blocks_per_sm_baseline",
            "schedulers_per_sm",
            "mapping_table_penalty_cycles",
            "memory_latency_cycles",
            "epoch_cycles",
            "max_inflight_mem_requests",
        ):
            if getattr(self, f) < 1 and f != "mapping_table_penalty_cycles":
                raise ValueError(f"{f} must be >= 1")
        if self.max_logical_warps < self.warp_slots_per_sm:
            raise ValueError("max_logical_warps must cover the physical warp slots")

    @property
    def reg_sets_physical(self) -> int:
        return self.registers_per_sm // self.reg_set_size

    @property
    def scratch_sets_physical(self) -> int:
        return self.scratch_bytes_per_sm // self.scratch_set_size

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
    # physical index plus one valid bit
    return math.ceil(math.log2(physical_count)) + 1


def table_size_bits(arch: ArchConfig, kind: ResourceKind) -> int:
    """Storage cost of one SM's mapping table for the given resource."""
    if kind is ResourceKind.REGISTER:
        rows = arch.max_logical_warps * arch.max_reg_sets_per_warp
        return rows * _entry_bits(arch.reg_sets_physical)
    if kind is ResourceKind.SCRATCHPAD:
        rows = arch.max_logical_blocks * arch.scratch_sets_physical
        return rows * _entry_bits(arch.scratch_sets_physical)
    return arch.max_logical_warps * _entry_bits(arch.warp_slots_per_sm)


def reg_sets_for(live_regs: int, arch: ArchConfig) -> int:
    """Register sets one warp needs to hold live_regs registers per thread."""
    return math.ceil(live_regs * arch.warp_width / arch.reg_set_size)


def scratch_sets_for(scratch_bytes: int, arch: ArchConfig) -> int:
    return math.ceil(scratch_bytes / arch.scratch_set_size)


def sets_required(kind: ResourceKind, spec: ResourceSpecification, arch: ArchConfig) -> int:
    """Sets implied by a static resource specification.

    REGISTER is per warp, SCRATCHPAD per block, WARP_SLOT per warp.
    """
    if kind is ResourceKind.REGISTER:
        return reg_sets_for(spec.regs_per_thread, arch)
    if kind is ResourceKind.SCRATCHPAD:
        return scratch_sets_for(spec.scratch_bytes_per_block, arch)
    return 1


class _Entry:
    __slots__ = ("physical", "accesses", "forced")

    def __init__(self, physical: Optional[int], forced: bool):
        self.physical = physical
        # the allocation itself counts as one touch of the set's heat
        self.accesses = 1
        self.forced = forced


class MappingTable:
    """Virtual-to-physical map for one resource of one SM."""

    def __init__(self, kind: ResourceKind, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.kind = kind
        self.capacity = capacity
        self._free: list[int] = list(range(capacity))
        heapq.heapify(self._free)
        self._entries: dict[tuple[int, int], _Entry] = {}
        self.owned_sets: dict[int, int] = {}  # owner -> number of logical sets
        # owner -> number of its sets in swap, for owners with at least one
        self.swap_owned: dict[int, int] = {}
        self.mapped_swap = 0
        self.forced_swap = 0
        self.total_accesses = 0
        self.swap_accesses = 0

    # -- queries ------------------------------------------------------------

    @property
    def free_physical(self) -> int:
        return len(self._free)

    def owned(self, owner: int) -> int:
        return self.owned_sets.get(owner, 0)

    def budget_swap(self) -> int:
        """Swap-resident sets that count against the oversubscription budget."""
        return self.mapped_swap - self.forced_swap

    def headroom(self, limit: int) -> int:
        """The most sets one request may get with the budget-counted swap
        held to limit: the free physical sets plus the budget left."""
        return len(self._free) + max(0, limit - self.mapped_swap + self.forced_swap)

    def peek(self, owner: int, logical: int) -> Optional[Placement]:
        e = self._entries.get((owner, logical))
        if e is None:
            return None
        return Placement.PHYSICAL if e.physical is not None else Placement.SWAP

    # -- mutation -----------------------------------------------------------

    def allocate(self, owner: int, n_sets: int, placement: Placement, forced: bool = False):
        """Append n_sets logical sets for owner, placed physically or in swap.

        Physical placement takes the lowest free indices.
        """
        if n_sets < 0:
            raise MappingError("n_sets must be >= 0")
        if placement is Placement.PHYSICAL and n_sets > len(self._free):
            raise MappingError(
                f"{self.kind.value}: {n_sets} physical sets requested, "
                f"{len(self._free)} free"
            )
        base = self.owned_sets.get(owner, 0)
        for k in range(n_sets):
            key = (owner, base + k)
            if key in self._entries:
                raise MappingError(f"{self.kind.value}: duplicate logical set {key}")
            if placement is Placement.PHYSICAL:
                self._entries[key] = _Entry(heapq.heappop(self._free), forced)
            else:
                self._entries[key] = _Entry(None, forced)
                self.mapped_swap += 1
                if forced:
                    self.forced_swap += 1
        if placement is Placement.SWAP and n_sets:
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
        for k in range(have - 1, have - 1 - n_sets, -1):
            e = self._entries.pop((owner, k))
            if e.physical is not None:
                heapq.heappush(self._free, e.physical)
            else:
                swapped += 1
                if e.forced:
                    self.forced_swap -= 1
        if swapped:
            self.mapped_swap -= swapped
            self._count_swap(owner, -swapped)
        if have == n_sets:
            self.owned_sets.pop(owner, None)
        else:
            self.owned_sets[owner] = have - n_sets

    def free_all(self, owner: int):
        self.free(owner, self.owned_sets.get(owner, 0))

    def lookup(self, owner: int, logical: int) -> Placement:
        """Resolve one logical set, recording the access (and, for a set in
        swap, its heat)."""
        e = self._entries.get((owner, logical))
        if e is None:
            raise MappingError(f"{self.kind.value}: lookup of unmapped set ({owner}, {logical})")
        self.total_accesses += 1
        if e.physical is None:
            e.accesses += 1
            self.swap_accesses += 1
            return Placement.SWAP
        return Placement.PHYSICAL

    def note_swap_event(self, n: int = 1):
        """Count swap traffic that is not a lookup (state save/restore)."""
        self.total_accesses += n
        self.swap_accesses += n

    def _count_swap(self, owner: int, delta: int):
        """Keep swap_owned current: owner's swap sets changed by delta."""
        left = self.swap_owned.get(owner, 0) + delta
        if left:
            self.swap_owned[owner] = left
        else:
            del self.swap_owned[owner]

    def migrate_in(self, owner: int, logical: int):
        """Bring a swap-resident set back on chip (lowest free index)."""
        e = self._entries.get((owner, logical))
        if e is None or e.physical is not None:
            raise MappingError(f"{self.kind.value}: ({owner}, {logical}) is not in swap")
        if not self._free:
            raise MappingError(f"{self.kind.value}: no free physical set to migrate into")
        e.physical = heapq.heappop(self._free)
        self.mapped_swap -= 1
        if e.forced:
            self.forced_swap -= 1
            e.forced = False
        self._count_swap(owner, -1)

    def spill_specific(self, owner: int, logical: int, forced: bool = False):
        e = self._entries.get((owner, logical))
        if e is None or e.physical is None:
            raise MappingError(f"{self.kind.value}: ({owner}, {logical}) is not physical")
        heapq.heappush(self._free, e.physical)
        e.physical = None
        e.forced = forced
        self.mapped_swap += 1
        if forced:
            self.forced_swap += 1
        self._count_swap(owner, 1)

    def swap_keys_by_heat(self) -> list[tuple[int, int]]:
        """Swap-resident keys, guard-forced ones too, most accessed first
        (promotion order).  Only owners in swap_owned hold such keys."""
        entries = self._entries
        pool = []
        for owner in self.swap_owned:
            for logical in range(self.owned_sets[owner]):
                e = entries[owner, logical]
                if e.physical is None:
                    pool.append((-e.accesses, owner, logical))
        pool.sort()
        return [(owner, logical) for _, owner, logical in pool]

    def reset_access_window(self):
        """Start a new access-heat window (called once per epoch)."""
        for e in self._entries.values():
            e.accesses = 0

    # -- validation ---------------------------------------------------------

    def check_invariants(self) -> list[str]:
        errors = []
        phys = [e.physical for e in self._entries.values() if e.physical is not None]
        if len(phys) != len(set(phys)):
            errors.append(f"{self.kind.value}: physical mapping is not injective")
        if any(p < 0 or p >= self.capacity for p in phys):
            errors.append(f"{self.kind.value}: physical index out of range")
        if len(phys) + len(self._free) != self.capacity:
            errors.append(
                f"{self.kind.value}: conservation broken "
                f"({len(phys)} mapped + {len(self._free)} free != {self.capacity})"
            )
        swap_count = sum(1 for e in self._entries.values() if e.physical is None)
        if swap_count != self.mapped_swap:
            errors.append(f"{self.kind.value}: mapped_swap counter drifted")
        forced_count = sum(
            1 for e in self._entries.values() if e.physical is None and e.forced
        )
        if forced_count != self.forced_swap:
            errors.append(f"{self.kind.value}: forced_swap counter drifted")
        per_owner: dict[int, int] = {}
        swapped: dict[int, int] = {}
        for (owner, logical), e in self._entries.items():
            per_owner[owner] = max(per_owner.get(owner, -1), logical)
            if e.physical is None:
                swapped[owner] = swapped.get(owner, 0) + 1
        for owner, top in per_owner.items():
            if self.owned_sets.get(owner, 0) != top + 1:
                errors.append(f"{self.kind.value}: owner {owner} has a logical-index gap")
        for owner in sorted(swapped.keys() | self.swap_owned.keys()):
            if self.swap_owned.get(owner) != swapped.get(owner):
                errors.append(
                    f"{self.kind.value}: owner {owner} swap count kept as "
                    f"{self.swap_owned.get(owner, 0)}, mapped {swapped.get(owner, 0)}"
                )
        return errors


def make_tables(arch: ArchConfig) -> dict[ResourceKind, MappingTable]:
    return {kind: MappingTable(kind, arch.physical_capacity(kind)) for kind in ResourceKind}
