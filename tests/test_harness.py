"""Grid parsing, sweep mechanics, metrics, and emission stability."""

import math
import time
import tracemalloc

import pytest

from smvirt.harness import (
    CSV_COLUMNS,
    MAX_GRID_POINTS,
    GridSpec,
    GridSyntaxError,
    SweepResult,
    SweepRow,
    detect_cliffs,
    emit_csv,
    emit_json,
    grid_points,
    parse_grid,
    parse_json,
    performance_range,
    porting_loss,
    result_row,
    run_sweep,
    unrunnable_row,
    write_csv,
    write_json,
)
from smvirt.corpus import RECOMMENDED_GRIDS, corpus_kernel
from smvirt.engine import NonTerminationError, run
from smvirt.kernel_model import Instruction, KernelSpec, Opcode, ResourceSpecification
from smvirt.policies import Policy


def _kernel(*, regs=8, scratch=0, name="sweep_me"):
    body = tuple(
        Instruction(Opcode.ALU, live_regs_after=regs, live_scratch_after=scratch)
        for _ in range(6)
    )
    return KernelSpec(
        name=name,
        resource_spec=ResourceSpecification(
            threads_per_block=64,
            regs_per_thread=regs,
            scratch_bytes_per_block=scratch,
            num_blocks=4,
        ),
        body=body,
    )


def _row(cycles, threads=64, regs=8, scratch=0, arch="fermi", policy="baseline"):
    return SweepRow(
        arch=arch,
        policy=policy,
        threads_per_block=threads,
        regs_per_thread=regs,
        scratch_bytes_per_block=scratch,
        num_blocks=1,
        cycles=cycles,
        reg_hit_rate=1.0,
        scratch_hit_rate=1.0,
        slot_hit_rate=1.0,
        mean_schedulable_warps=1.0,
        blocks_in_flight_min=1,
        blocks_in_flight_max=1,
        guard_admissions=0,
        issued_instructions=6,
    )


# -- grid files ---------------------------------------------------------------


def test_parse_range_is_inclusive_of_hi():
    grid = parse_grid("range scratch=6144:26624:2048\n")
    assert grid.scratch == tuple(range(6144, 26625, 2048))
    assert grid.scratch[-1] == 26624


def test_parse_list_set_and_comments():
    text = (
        "# sweep description\n"
        "list threads_per_block=128,256,512   # axis\n"
        "\n"
        "set blocks=9\n"
    )
    grid = parse_grid(text)
    assert grid.threads_per_block == (128, 256, 512)
    assert grid.blocks == 9
    assert grid.regs_per_thread is None and grid.scratch is None


@pytest.mark.parametrize(
    "text,line_no",
    [
        ("sweep threads_per_block=1,2", 1),
        ("list cycles=1,2", 1),
        ("range scratch=10:5:1", 1),
        ("range scratch=1:5", 1),
        ("list threads_per_block=", 1),
        ("list threads_per_block=1\nlist threads_per_block=2", 2),
        ("set warps=3", 1),
        ("set seed=5", 1),
        ("set blocks=two", 1),
        ("set blocks=1\nset blocks=2", 2),
        ("set blocks=0", 1),
        ("set total_threads=512\nlist threads_per_block=0,64", 2),
        ("range scratch=-1024:0:1024", 1),
        ("list scratch=0\nset total_threads=-64", 2),
        ("set blocks=1\nset total_threads=64", 0),
        ("range threads_per_block=1:100001:1", 1),
        ("list threads_per_block=32,64\nrange scratch=0:50000:1", 2),
    ],
)
def test_parse_errors_carry_line_numbers(text, line_no):
    with pytest.raises(GridSyntaxError) as exc:
        parse_grid(text)
    assert exc.value.line_no == line_no


def test_a_grid_of_exactly_the_point_limit_parses():
    grid = parse_grid(f"list threads_per_block=32,64\nrange scratch=1:{MAX_GRID_POINTS // 2}:1\n")
    assert len(grid.threads_per_block) * len(grid.scratch) == MAX_GRID_POINTS


@pytest.mark.parametrize("hi", ["1000000000", "1" + "0" * 40])
def test_a_huge_range_is_refused_before_it_is_built(hi):
    tracemalloc.start()
    try:
        started = time.perf_counter()
        with pytest.raises(GridSyntaxError, match=f"more than {MAX_GRID_POINTS} points"):
            parse_grid(f"range threads_per_block=1:{hi}:1\n")
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert elapsed < 1.0


def test_grid_points_axis_major_order():
    grid = GridSpec(threads_per_block=(64, 128), regs_per_thread=(8, 16))
    base = ResourceSpecification(
        threads_per_block=32, regs_per_thread=4, scratch_bytes_per_block=512, num_blocks=7
    )
    points = grid_points(grid, base)
    assert [(p.threads_per_block, p.regs_per_thread) for p in points] == [
        (64, 8),
        (64, 16),
        (128, 8),
        (128, 16),
    ]
    # unswept axes and the launch size come from the kernel's declaration
    assert all(p.scratch_bytes_per_block == 512 for p in points)
    assert all(p.num_blocks == 7 for p in points)


def test_grid_points_derive_blocks_from_total_threads():
    grid = GridSpec(threads_per_block=(64, 128, 512), total_threads=256)
    base = ResourceSpecification(
        threads_per_block=32, regs_per_thread=4, scratch_bytes_per_block=0, num_blocks=1
    )
    points = grid_points(grid, base)
    assert points[0].num_blocks == 4
    assert points[1].num_blocks == 2
    assert points[2] is None  # 512 threads never fit in 256


# -- metrics ------------------------------------------------------------------


def test_performance_range_examples():
    assert performance_range([_row(100), _row(200)]) == 0.5
    assert performance_range([_row(150), _row(150), _row(150)]) == 0.0
    assert performance_range([_row(100)]) is None
    assert performance_range([_row(None), _row(None)]) is None
    assert performance_range([]) is None


def test_detect_cliffs_monotone_smooth_curve_has_none():
    rows = [_row(c) for c in (100, 110, 121, 133, 146)]
    assert detect_cliffs(rows) == []


def test_detect_cliffs_flags_the_jump_between_rows():
    rows = [_row(c) for c in (100, 104, 150, 155)]
    cliffs = detect_cliffs(rows)
    assert len(cliffs) == 1
    index, increase = cliffs[0]
    assert index == 1
    assert increase == pytest.approx(150 / 104 - 1)


def test_detect_cliffs_unrunnable_point_is_unbounded():
    rows = [_row(100), _row(None), _row(400)]
    cliffs = detect_cliffs(rows)
    # the INF edge is a cliff; there is no level to climb from afterwards
    assert cliffs == [(0, math.inf)]


def test_detect_cliffs_threshold_is_strict():
    rows = [_row(100), _row(125)]
    assert detect_cliffs(rows, threshold=0.25) == []
    assert detect_cliffs(rows, threshold=0.24) == [(0, pytest.approx(0.25))]


def test_porting_loss_self_port_is_zero():
    rows = [_row(c) for c in (100, 104, 150)]
    assert porting_loss(rows, rows) == 0.0


def test_porting_loss_normalizes_each_side_to_its_own_best():
    src = [_row(100), _row(300)]
    dst = [_row(300, arch="kepler"), _row(100, arch="kepler")]
    # the only src candidate is point 0; the dst runs it at 1/3 of the
    # dst's own best
    assert porting_loss(src, dst) == pytest.approx(2 / 3)


def test_porting_loss_unrunnable_destination_loses_everything():
    src = [_row(100), _row(200)]
    dst = [_row(None, arch="kepler"), _row(150, arch="kepler")]
    assert porting_loss(src, dst) == 1.0


def test_porting_loss_rejects_mismatched_grids():
    src = [_row(100), _row(200)]
    with pytest.raises(ValueError):
        porting_loss(src, [_row(100)])
    with pytest.raises(ValueError):
        porting_loss(src, [_row(100), _row(200, threads=128)])


def test_porting_loss_undefined_without_runnable_source():
    src = [_row(None), _row(None)]
    dst = [_row(100), _row(200)]
    assert porting_loss(src, dst) is None


# -- sweeps -------------------------------------------------------------------


def test_one_point_grid_yields_one_row_per_policy():
    result = run_sweep(_kernel(), GridSpec(), policies=("baseline",))
    assert len(result.rows) == 1
    assert result.rows[0].issued_instructions > 0


def test_three_policies_by_five_specs_is_fifteen_rows():
    grid = parse_grid("list threads_per_block=32,64,96,128,160\n")
    result = run_sweep(_kernel(), grid)
    assert len(result.rows) == 15
    assert result.policies == ("baseline", "wlm", "zorua")
    for policy in result.policies:
        assert len(result.rows_for("fermi", policy)) == 5


def test_row_order_is_arch_then_policy_then_grid_index():
    grid = parse_grid("list threads_per_block=32,64\n")
    result = run_sweep(_kernel(), grid, archs=("fermi", "kepler"), policies=("baseline", "zorua"))
    key = [(r.arch, r.policy, r.threads_per_block) for r in result.rows]
    assert key == [
        ("fermi", "baseline", 32),
        ("fermi", "baseline", 64),
        ("fermi", "zorua", 32),
        ("fermi", "zorua", 64),
        ("kepler", "baseline", 32),
        ("kepler", "baseline", 64),
        ("kepler", "zorua", 32),
        ("kepler", "zorua", 64),
    ]


def test_unrunnable_points_stay_in_the_grid_as_inf():
    # 1024 threads x 63 regs exceeds the register file: zero blocks fit
    grid = GridSpec(threads_per_block=(64, 1024))
    result = run_sweep(_kernel(regs=63), grid, policies=("baseline",))
    assert len(result.rows) == 2
    good, bad = result.rows
    assert good.cycles is not None
    assert bad.cycles is None
    assert bad.performance is None
    csv_text = emit_csv(result)
    assert "INF" in csv_text.splitlines()[2]


def test_a_point_that_does_not_terminate_is_named_in_the_error():
    # the first point of the grid, 256 threads, needs more than 500 cycles
    grid = RECOMMENDED_GRIDS["reg_cliff"]
    with pytest.raises(NonTerminationError) as info:
        run_sweep(corpus_kernel("reg_cliff"), grid, ("fermi",), ("baseline",), cycle_cap=500)
    assert str(info.value) == (
        "fermi baseline threads=256 regs=32 scratch=0 blocks=450: "
        "no completion within 500 cycles"
    )
    assert isinstance(info.value.__cause__, NonTerminationError)


def test_points_below_body_liveness_are_skipped_with_warning(capsys):
    # the body keeps 8 registers live, so regs_per_thread=4 cannot hold it
    grid = GridSpec(regs_per_thread=(4, 8, 16))
    result = run_sweep(_kernel(regs=8), grid, policies=("baseline",))
    assert len(result.rows) == 2
    assert len(result.skipped) == 1
    assert "regs=4" in result.skipped[0]
    assert "skipping point" in capsys.readouterr().err


def test_zero_block_points_are_skipped(capsys):
    grid = GridSpec(threads_per_block=(64, 512), total_threads=256)
    result = run_sweep(_kernel(), grid, policies=("baseline",))
    assert len(result.rows) == 1
    assert result.skipped == ("a grid point yields zero blocks",)
    assert capsys.readouterr().err == "warning: a grid point yields zero blocks\n"


def test_sweep_is_reproducible_byte_for_byte():
    grid = parse_grid("list threads_per_block=32,64,96\n")
    a = run_sweep(_kernel(), grid)
    b = run_sweep(_kernel(), grid)
    assert emit_csv(a) == emit_csv(b)
    assert emit_json(a) == emit_json(b)


# -- emission -----------------------------------------------------------------


def test_csv_header_golden():
    header = emit_csv(SweepResult("k", (), (), (), ())).splitlines()[0]
    assert header == (
        "arch,policy,threads_per_block,regs_per_thread,scratch_bytes_per_block,"
        "num_blocks,cycles,reg_hit_rate,scratch_hit_rate,slot_hit_rate,"
        "mean_schedulable_warps,blocks_in_flight_min,blocks_in_flight_max,"
        "guard_admissions,issued_instructions"
    )
    assert ",".join(CSV_COLUMNS) == header


def test_empty_result_emits_header_only():
    assert emit_csv(SweepResult("k", (), (), (), ())) == ",".join(CSV_COLUMNS) + "\n"


def test_csv_floats_have_six_decimals():
    result = run_sweep(_kernel(), GridSpec(), policies=("zorua",))
    line = emit_csv(result).splitlines()[1]
    cells = line.split(",")
    for cell in cells[7:11]:
        whole, _, frac = cell.partition(".")
        assert len(frac) == 6, cell


def test_result_rows_survive_text_formatting():
    # rounding happens at row construction, so formatted text parses back
    # to the exact stored value
    res = run(_kernel(), Policy.ZORUA)
    row = result_row(res)
    for value in (
        row.reg_hit_rate,
        row.scratch_hit_rate,
        row.slot_hit_rate,
        row.mean_schedulable_warps,
    ):
        assert float(f"{value:.6f}") == value


def test_json_round_trips_to_equal_result():
    grid = parse_grid("list threads_per_block=32,1024\n")
    result = run_sweep(_kernel(regs=63), grid, policies=("baseline", "zorua"))
    assert parse_json(emit_json(result)) == result


def test_writers_put_the_same_bytes_on_disk(tmp_path):
    result = run_sweep(_kernel(), GridSpec(), policies=("baseline",))
    cpath = tmp_path / "out.csv"
    jpath = tmp_path / "out.json"
    write_csv(result, str(cpath))
    write_json(result, str(jpath))
    assert cpath.read_text(encoding="utf-8") == emit_csv(result)
    assert jpath.read_text(encoding="utf-8") == emit_json(result)
    assert parse_json(jpath.read_text(encoding="utf-8")) == result


def test_unrunnable_row_shape():
    p = ResourceSpecification(
        threads_per_block=64, regs_per_thread=8, scratch_bytes_per_block=0, num_blocks=2
    )
    row = unrunnable_row("fermi", "baseline", p)
    assert row.cycles is None
    assert row.issued_instructions == 0
    assert row.performance is None
