import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smvirt.kernel_model import ResourceSpecification
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
    sets_required,
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


def test_set_rounding():
    assert reg_sets_for(0, FERMI) == 0
    assert reg_sets_for(1, FERMI) == 1  # 32 regs -> one 128-reg set
    assert reg_sets_for(4, FERMI) == 1
    assert reg_sets_for(5, FERMI) == 2
    assert reg_sets_for(32, FERMI) == 8
    assert scratch_sets_for(0, FERMI) == 0
    assert scratch_sets_for(1, FERMI) == 1
    assert scratch_sets_for(1024, FERMI) == 1
    assert scratch_sets_for(1025, FERMI) == 2
    assert scratch_sets_for(4224, FERMI) == 5


def test_sets_required_per_kind():
    spec = ResourceSpecification(
        threads_per_block=256, regs_per_thread=32, scratch_bytes_per_block=4224, num_blocks=1
    )
    assert sets_required(ResourceKind.REGISTER, spec, FERMI) == 8  # per warp
    assert sets_required(ResourceKind.SCRATCHPAD, spec, FERMI) == 5  # per block
    assert sets_required(ResourceKind.WARP_SLOT, spec, FERMI) == 1


def test_table_sizes_fermi():
    assert table_size_bits(FERMI, ResourceKind.REGISTER) == 9216
    assert table_size_bits(FERMI, ResourceKind.SCRATCHPAD) == 5376
    assert table_size_bits(FERMI, ResourceKind.WARP_SLOT) == 448


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


def test_make_tables_covers_all_kinds():
    tables = make_tables(FERMI)
    assert set(tables) == set(ResourceKind)
    assert tables[ResourceKind.WARP_SLOT].capacity == 48
