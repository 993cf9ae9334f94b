import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smvirt.resource_maps import (
    ARCHITECTURES,
    MappingError,
    MappingTable,
    Placement,
    ResourceKind,
    get_arch,
    make_tables,
    reg_sets_for,
    scratch_sets_for,
    table_size_bits,
)

FERMI = get_arch("fermi")


def test_arch_presets_exist():
    assert set(ARCHITECTURES) == {"fermi", "kepler", "maxwell"}
    assert FERMI.reg_sets_physical == 256
    assert FERMI.scratch_sets_physical == 48
    assert get_arch("kepler").reg_sets_physical == 512
    with pytest.raises(ValueError):
        get_arch("volta")


@pytest.mark.parametrize(
    "change,message",
    [
        ({"registers_per_sm": 32768 + 64}, "registers_per_sm must be a multiple of 128"),
        ({"scratch_bytes_per_sm": 48 * 1024 + 512}, "scratch_bytes_per_sm must be a multiple"),
        ({"schedulers_per_sm": 0}, "schedulers_per_sm must be >= 1"),
        ({"max_logical_warps": 47}, "max_logical_warps must cover the physical warp slots"),
        ({"mapping_table_penalty_cycles": -5}, "mapping_table_penalty_cycles must be >= 0"),
        ({"registers_per_sm": -128}, "registers_per_sm must be >= 0"),
        ({"scratch_bytes_per_sm": -1024}, "scratch_bytes_per_sm must be >= 0"),
    ],
    ids=[
        "registers",
        "scratchpad",
        "below-one",
        "logical-warps",
        "negative-penalty",
        "negative-registers",
        "negative-scratchpad",
    ],
)
def test_arch_config_rejects_each_invalid_field(change, message):
    with pytest.raises(ValueError, match=message):
        replace(FERMI, **change)


def test_set_rounding():
    assert reg_sets_for(0) == 0
    assert reg_sets_for(1) == 1  # 32 regs -> one 128-reg set
    assert reg_sets_for(4) == 1
    assert reg_sets_for(5) == 2
    assert reg_sets_for(32) == 8
    assert scratch_sets_for(0) == 0
    assert scratch_sets_for(1) == 1
    assert scratch_sets_for(1024) == 1
    assert scratch_sets_for(1025) == 2
    assert scratch_sets_for(4224) == 5


def test_table_sizes_fermi():
    assert table_size_bits(FERMI, ResourceKind.REGISTER) == 9216
    assert table_size_bits(FERMI, ResourceKind.SCRATCHPAD) == 5376
    assert table_size_bits(FERMI, ResourceKind.WARP_SLOT) == 448


def test_a_resource_the_sm_lacks_has_an_empty_table_of_no_bits():
    bare = replace(FERMI, registers_per_sm=0, scratch_bytes_per_sm=0)
    assert table_size_bits(bare, ResourceKind.REGISTER) == 0
    assert table_size_bits(bare, ResourceKind.SCRATCHPAD) == 0
    assert table_size_bits(bare, ResourceKind.WARP_SLOT) == 448
    t = make_tables(bare)[ResourceKind.SCRATCHPAD]
    assert (t.capacity, t.free_physical, t.headroom(0)) == (0, 0, 0)
    t.allocate(7, 0, Placement.PHYSICAL)
    with pytest.raises(MappingError, match="1 physical sets requested, 0 free"):
        t.allocate(7, 1, Placement.PHYSICAL)
    assert t.check_invariants() == []


def test_allocate_physical_then_lookup():
    t = MappingTable(ResourceKind.REGISTER, capacity=8)
    t.allocate(owner=1, n_sets=3, placement=Placement.PHYSICAL)
    assert t.free_physical == 5
    assert t.owned(1) == 3
    for logical in range(3):
        assert t.lookup(1, logical) is Placement.PHYSICAL


def test_allocate_overflow_to_swap_and_budget():
    t = MappingTable(ResourceKind.REGISTER, capacity=4)
    t.allocate(1, 4, Placement.PHYSICAL)
    t.allocate(2, 3, Placement.SWAP)
    assert t.budget_swap() == 3
    assert t.lookup(2, 0) is Placement.SWAP
    # forced allocations are exempt from the budget
    t.allocate(3, 2, Placement.SWAP, forced=True)
    assert t.budget_swap() == 3
    assert t.mapped_swap == 5


def test_headroom_is_the_free_sets_plus_the_budget_left():
    t = MappingTable(ResourceKind.REGISTER, capacity=4)
    assert t.headroom(2) == 6
    t.allocate(1, 3, Placement.PHYSICAL)
    t.allocate(2, 1, Placement.SWAP)
    t.allocate(3, 5, Placement.SWAP, forced=True)  # exempt from the budget
    assert t.headroom(2) == 1 + 1
    # swap past the limit, as a threshold drop leaves it, grants no budget
    assert t.headroom(0) == 1


def test_free_releases_tail_first():
    t = MappingTable(ResourceKind.REGISTER, capacity=4)
    t.allocate(1, 4, Placement.PHYSICAL)
    t.allocate(1, 2, Placement.SWAP)  # logical 4, 5 live in swap
    t.free(1, 3)
    # the two swap sets and one physical set went away
    assert t.owned(1) == 3
    assert t.mapped_swap == 0
    assert t.free_physical == 1


def test_lookup_counts_accesses_but_peek_does_not():
    t = MappingTable(ResourceKind.REGISTER, capacity=8)
    t.allocate(1, 2, Placement.PHYSICAL)
    assert t.peek(1, 0) is Placement.PHYSICAL
    assert t.peek(1, 5) is None
    before = t.total_accesses
    t.peek(1, 0)
    assert t.total_accesses == before
    t.lookup(1, 0)
    assert t.total_accesses == before + 1


def test_migrate_in_moves_swap_set_on_chip():
    t = MappingTable(ResourceKind.SCRATCHPAD, capacity=2)
    t.allocate(1, 2, Placement.PHYSICAL)
    t.allocate(2, 1, Placement.SWAP)
    with pytest.raises(MappingError):
        t.migrate_in(2, 0)  # no free physical set
    t.free_all(1)
    t.migrate_in(2, 0)
    assert t.lookup(2, 0) is Placement.PHYSICAL
    assert t.mapped_swap == 0


def test_swap_keys_by_heat_orders_by_access_count():
    t = MappingTable(ResourceKind.REGISTER, capacity=1)
    t.allocate(1, 1, Placement.PHYSICAL)
    t.allocate(2, 2, Placement.SWAP)
    t.allocate(3, 1, Placement.SWAP, forced=True)
    t.lookup(2, 1)
    t.lookup(2, 1)
    t.lookup(2, 0)
    # guard-forced sets are promotion candidates too
    assert t.swap_keys_by_heat() == [(2, 1), (2, 0), (3, 0)]


def test_access_stats_track_swap_fraction():
    t = MappingTable(ResourceKind.REGISTER, capacity=1)
    t.allocate(1, 1, Placement.PHYSICAL)
    t.allocate(2, 1, Placement.SWAP)
    t.lookup(1, 0)
    t.lookup(1, 0)
    t.lookup(2, 0)
    assert t.total_accesses >= 3
    assert t.swap_accesses == 1


def test_random_workload_keeps_invariants():
    rng = random.Random(11)
    t = MappingTable(ResourceKind.REGISTER, capacity=16)
    live = {}
    for step in range(2000):
        action = rng.random()
        owner = rng.randint(0, 9)
        if action < 0.45:
            n = rng.randint(1, 4)
            placement = Placement.PHYSICAL if t.free_physical >= n else Placement.SWAP
            t.allocate(owner, n, placement)
            live[owner] = live.get(owner, 0) + n
        elif action < 0.7 and live.get(owner):
            n = rng.randint(1, live[owner])
            t.free(owner, n)
            live[owner] -= n
        elif action < 0.9 and live.get(owner):
            t.lookup(owner, rng.randrange(live[owner]))
        else:
            for key in t.swap_keys_by_heat():
                if t.free_physical == 0:
                    break
                t.migrate_in(*key)
        assert t.check_invariants() == [], step


_TABLE_OPS = ("allocate_physical", "allocate_swap", "free", "free_all", "migrate_in", "spill")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(_TABLE_OPS),
            st.integers(min_value=0, max_value=3),  # owner
            st.integers(min_value=0, max_value=3),  # sets
            st.booleans(),  # forced
            st.integers(min_value=0, max_value=63),  # which set to move
        ),
        max_size=40,
    )
)
def test_swap_owner_counts_match_the_entries_after_every_step(steps):
    t = MappingTable(ResourceKind.REGISTER, capacity=6)
    for op, owner, n, forced, pick in steps:
        if op == "allocate_physical":
            t.allocate(owner, min(n, t.free_physical), Placement.PHYSICAL, forced)
        elif op == "allocate_swap":
            t.allocate(owner, n, Placement.SWAP, forced)
        elif op == "free":
            t.free(owner, min(n, t.owned(owner)))
        elif op == "free_all":
            t.free_all(owner)
        else:
            source = Placement.SWAP if op == "migrate_in" else Placement.PHYSICAL
            keys = [
                (o, logical)
                for o in range(4)
                for logical in range(t.owned(o))
                if t.peek(o, logical) is source
            ]
            if not keys or (op == "migrate_in" and not t.free_physical):
                continue
            key = keys[pick % len(keys)]
            if op == "migrate_in":
                t.migrate_in(*key)
            else:
                t.spill_specific(*key, forced=forced)
        assert t.check_invariants() == [], (op, owner, n, forced)


def test_invariants_report_a_drifted_or_zero_swap_owner_count():
    t = MappingTable(ResourceKind.REGISTER, capacity=2)
    t.allocate(1, 2, Placement.SWAP)
    assert t.swap_owned == {1: 2}
    t.swap_owned[1] = 1
    assert t.check_invariants() == ["register: owner 1 swap count kept as 1, mapped 2"]
    t.swap_owned[1] = 2
    t.swap_owned[5] = 0
    assert t.check_invariants() == ["register: owner 5 swap count kept as 0, mapped 0"]


def test_invariants_report_drifted_swap_counters():
    t = MappingTable(ResourceKind.SCRATCHPAD, capacity=2)
    t.allocate(1, 1, Placement.SWAP, forced=True)
    assert t.check_invariants() == []
    t.mapped_swap += 1
    t.forced_swap -= 1
    assert t.check_invariants() == [
        "scratchpad: mapped_swap counter drifted",
        "scratchpad: forced_swap counter drifted",
    ]


def test_invariants_report_a_drifted_free_count():
    t = MappingTable(ResourceKind.REGISTER, capacity=4)
    t.allocate(1, 3, Placement.PHYSICAL)
    t.allocate(1, 2, Placement.SWAP)
    assert t.check_invariants() == []
    t.free_physical += 1
    assert t.check_invariants() == ["register: conservation broken (3 mapped + 2 free != 4)"]


def test_invariants_report_a_swap_set_beyond_its_owners_sets():
    t = MappingTable(ResourceKind.REGISTER, capacity=4)
    t.allocate(1, 2, Placement.SWAP)
    t.owned_sets[1] = 1
    assert "register: swap set (1, 1) lies beyond the owner's 1 sets" in t.check_invariants()


def test_a_spilled_set_starts_at_heat_one_like_a_set_allocated_in_swap():
    t = MappingTable(ResourceKind.WARP_SLOT, capacity=2)
    t.allocate(1, 1, Placement.PHYSICAL)
    t.reset_access_window()
    t.allocate(2, 1, Placement.SWAP)
    t.allocate(3, 1, Placement.SWAP)
    t.lookup(3, 0)
    t.spill_specific(1, 0)
    # heat 2, then the two sets at heat 1 in owner order
    assert t.swap_keys_by_heat() == [(3, 0), (1, 0), (2, 0)]


class _PerSetTable:
    """The mapping table kept as one record per set, [placement, heat,
    forced], on chip or in swap: the model the count-based table must
    match call for call."""

    def __init__(self, capacity):
        self.free_physical = capacity
        self.sets = {}
        self.owned_sets = {}
        self.total_accesses = self.swap_accesses = 0

    def allocate(self, owner, n_sets, placement, forced=False):
        if n_sets < 0 or (placement is Placement.PHYSICAL and n_sets > self.free_physical):
            raise MappingError
        base = self.owned_sets.get(owner, 0)
        for logical in range(base, base + n_sets):
            self.sets[owner, logical] = [placement, 1, forced]
        if placement is Placement.PHYSICAL:
            self.free_physical -= n_sets
        self.owned_sets[owner] = base + n_sets

    def free(self, owner, n_sets):
        have = self.owned_sets.get(owner, 0)
        if n_sets > have:
            raise MappingError
        for logical in range(have - n_sets, have):
            if self.sets.pop((owner, logical))[0] is Placement.PHYSICAL:
                self.free_physical += 1
        if have == n_sets:
            self.owned_sets.pop(owner, None)
        else:
            self.owned_sets[owner] = have - n_sets

    def free_all(self, owner):
        self.free(owner, self.owned_sets.get(owner, 0))

    def peek(self, owner, logical):
        record = self.sets.get((owner, logical))
        return None if record is None else record[0]

    def lookup(self, owner, logical):
        record = self.sets.get((owner, logical))
        if record is None:
            raise MappingError
        self.total_accesses += 1
        if record[0] is Placement.SWAP:
            record[1] += 1
            self.swap_accesses += 1
        return record[0]

    def migrate_in(self, owner, logical):
        if self.peek(owner, logical) is not Placement.SWAP or not self.free_physical:
            raise MappingError
        self.sets[owner, logical][0] = Placement.PHYSICAL
        self.free_physical -= 1

    def spill_specific(self, owner, logical, forced=False):
        if self.peek(owner, logical) is not Placement.PHYSICAL:
            raise MappingError
        self.sets[owner, logical] = [Placement.SWAP, 1, forced]
        self.free_physical += 1

    def reset_access_window(self):
        for record in self.sets.values():
            record[1] = 0

    def _swapped(self):
        return [(key, r) for key, r in self.sets.items() if r[0] is Placement.SWAP]

    @property
    def mapped_swap(self):
        return len(self._swapped())

    @property
    def forced_swap(self):
        return sum(r[2] for _, r in self._swapped())

    @property
    def swap_owned(self):
        return dict(Counter(owner for (owner, _), _ in self._swapped()))

    def swap_keys_by_heat(self):
        return [key for _, key in sorted((-r[1], key) for key, r in self._swapped())]


_COUNTERS = (
    "free_physical",
    "owned_sets",
    "swap_owned",
    "mapped_swap",
    "forced_swap",
    "total_accesses",
    "swap_accesses",
)


def _call(table, op, owner, n, placement, forced):
    """Apply one step; the result, or MappingError if the call raised it."""
    try:
        if op == "allocate":
            return table.allocate(owner, n, placement, forced)
        if op == "free":
            return table.free(owner, max(n, 0))  # a negative count is no request
        if op == "free_all":
            return table.free_all(owner)
        if op == "spill_specific":
            return table.spill_specific(owner, n, forced)
        if op == "reset_access_window":
            return table.reset_access_window()
        return getattr(table, op)(owner, n)  # lookup, migrate_in: n is the logical set
    except MappingError:
        return MappingError


_DIFF_OPS = (
    "allocate",
    "free",
    "free_all",
    "lookup",
    "migrate_in",
    "spill_specific",
    "reset_access_window",
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(_DIFF_OPS),
            st.integers(min_value=0, max_value=3),  # owner
            st.integers(min_value=-1, max_value=4),  # sets, or the logical set
            st.sampled_from(list(Placement)),
            st.booleans(),  # forced
        ),
        max_size=60,
    )
)
def test_count_based_table_matches_a_per_set_model(steps):
    table = MappingTable(ResourceKind.REGISTER, capacity=4)
    model = _PerSetTable(capacity=4)
    for step in steps:
        assert _call(table, *step) == _call(model, *step), step
        for name in _COUNTERS:
            assert getattr(table, name) == getattr(model, name), (step, name)
        for owner in range(4):
            for logical in range(-1, model.owned_sets.get(owner, 0) + 1):
                assert table.peek(owner, logical) is model.peek(owner, logical), step
        assert table.swap_keys_by_heat() == model.swap_keys_by_heat(), step
        assert table.check_invariants() == [], step


def test_make_tables_covers_all_kinds():
    tables = make_tables(FERMI)
    assert set(tables) == set(ResourceKind)
    assert tables[ResourceKind.WARP_SLOT].capacity == 48
