"""The bundled kernels: shape pins, grid validity, export round trip."""

import pytest

from smvirt.corpus import (
    CORPUS,
    RECOMMENDED_GRIDS,
    corpus_kernel,
    corpus_names,
    export_corpus,
)
from smvirt.harness import grid_points, parse_grid
from smvirt.kernel_model import Opcode, load_kernel, parse_kernel, serialize_kernel
from smvirt.phase_compiler import annotate_phases, detect_phase_boundaries


def test_every_kernel_builds_and_validates():
    names = corpus_names()
    assert names == list(CORPUS)
    assert len(names) == 6
    for name in names:
        kern = corpus_kernel(name)
        assert kern.name == name
        assert not kern.is_compiled
        # constructing KernelSpec already validated liveness bounds
        assert len(kern.body) >= 24


def test_unknown_name_is_rejected():
    with pytest.raises(ValueError):
        corpus_kernel("nqu")


def test_reg_cliff_is_register_shaped():
    kern = corpus_kernel("reg_cliff")
    assert not kern.has_barrier()
    assert kern.resource_spec.threads_per_block == 512
    assert kern.resource_spec.regs_per_thread == 32
    assert kern.resource_spec.scratch_bytes_per_block == 0
    assert max(i.live_regs_after for i in kern.body) == 32


def test_scratch_cliff_phase_structure():
    kern = corpus_kernel("scratch_cliff")
    compiled = annotate_phases(kern)
    payloads = [
        (i.phase_payload.live_regs, i.phase_payload.scratch_bytes)
        for i in compiled.body
        if i.opcode is Opcode.PHASE_SPEC
    ]
    # the scratch profile steps 0 -> 4224 -> 384; barrier-opened phases
    # carry no specifier of their own
    assert payloads == [(16, 0), (16, 4224), (16, 384)]
    assert [p.opened_by_barrier for p in detect_phase_boundaries(kern)] == [
        False,
        False,
        True,
        True,
        False,
    ]


def test_mixed_phase_alternates_register_levels():
    kern = corpus_kernel("mixed_phase")
    assert [p.max_live_regs for p in detect_phase_boundaries(kern)] == [16, 32, 16, 32, 16]
    assert not kern.has_barrier()


def test_barrier_heavy_has_barriers_every_phase():
    kern = corpus_kernel("barrier_heavy")
    assert sum(1 for i in kern.body if i.opcode is Opcode.BARRIER) == 5


def test_uniform_is_a_single_phase():
    assert len(detect_phase_boundaries(corpus_kernel("uniform"))) == 1


def test_recommended_grids_parse_and_produce_points():
    for name, text in RECOMMENDED_GRIDS.items():
        grid = parse_grid(text)
        points = grid_points(grid, corpus_kernel(name).resource_spec)
        assert len(points) >= 3, name
        for p in points:
            assert p.num_blocks >= 1, (name, p)


def test_reg_cliff_grid_spans_the_block_count_drop():
    grid = parse_grid(RECOMMENDED_GRIDS["reg_cliff"])
    points = grid_points(grid, corpus_kernel("reg_cliff").resource_spec)
    assert [p.threads_per_block for p in points] == [256, 512, 640, 768, 960]
    # fixed total threads: block count falls as blocks widen
    assert points[0].num_blocks == 450
    assert points[-1].num_blocks == 120


def test_export_round_trips(tmp_path):
    written = export_corpus(tmp_path)
    assert len(written) == 12
    for name in corpus_names():
        kpath = tmp_path / f"{name}.kernel"
        assert load_kernel(kpath) == corpus_kernel(name)
        gtext = (tmp_path / f"{name}.grid").read_text(encoding="utf-8")
        assert gtext == RECOMMENDED_GRIDS[name]


@pytest.mark.parametrize("name", corpus_names())
def test_a_compiled_kernel_text_round_trips_exactly(name):
    compiled = annotate_phases(corpus_kernel(name))
    assert parse_kernel(serialize_kernel(compiled)) == compiled
