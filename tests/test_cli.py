"""Exit codes and output files of every subcommand, driven through main()."""

import json
import runpy
import sys
from functools import partial

import pytest

from smvirt import cli
from smvirt.cli import main
from smvirt.corpus import RECOMMENDED_GRIDS
from smvirt.harness import parse_json, run_sweep
from smvirt.kernel_model import load_kernel


def test_simulate_prints_summary(capsys):
    rc = main(["simulate", "--kernel", "corpus:uniform", "--policy", "baseline"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "kernel  uniform" in out
    assert "cycles" in out
    assert "hits" in out
    assert "thresh" not in out  # static policies have no oversubscription thresholds


def test_simulate_applies_spec_overrides(capsys):
    rc = main(
        [
            "simulate",
            "--kernel",
            "corpus:uniform",
            "--policy",
            "zorua",
            "--threads-per-block",
            "128",
            "--blocks",
            "4",
            "--seed",
            "9",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "128 thr/blk" in out
    assert "4 blocks" in out
    assert "seed 9" in out
    assert "thresh  final oversubscription {'register': " in out


def test_simulate_json_output(tmp_path, capsys):
    path = tmp_path / "res.json"
    rc = main(
        [
            "simulate",
            "--kernel",
            "corpus:uniform",
            "--policy",
            "zorua",
            "--json",
            str(path),
        ]
    )
    capsys.readouterr()
    assert rc == 0
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["kernel"] == "uniform"
    assert doc["policy"] == "zorua"
    assert doc["cycles"] > 0
    assert 0.0 <= doc["reg_hit_rate"] <= 1.0
    assert doc["epochs"]


def test_simulate_csv_output(tmp_path, capsys):
    path = tmp_path / "res.csv"
    rc = main(
        [
            "simulate",
            "--kernel",
            "corpus:uniform",
            "--policy",
            "baseline",
            "--csv",
            str(path),
        ]
    )
    capsys.readouterr()
    assert rc == 0
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("arch,policy,threads_per_block")
    assert lines[1].startswith("fermi,baseline,256")


def test_simulate_csv_is_the_row_of_a_one_point_sweep(tmp_path, capsys):
    # simulate compiles the kernel under every policy, as sweep does
    single, swept, grid = tmp_path / "one.csv", tmp_path / "sweep.csv", tmp_path / "g.grid"
    grid.write_text("list regs_per_thread=32\n", encoding="utf-8")
    kernel = ["--kernel", "corpus:reg_cliff"]
    assert main(["simulate", *kernel, "--policy", "baseline", "--csv", str(single)]) == 0
    sweep = ["sweep", *kernel, "--grid", str(grid), "--policies", "baseline", "--out", str(swept)]
    assert main(sweep) == 0
    capsys.readouterr()
    assert single.read_bytes() == swept.read_bytes()


def test_simulate_event_log(tmp_path, capsys):
    path = tmp_path / "events.jsonl"
    rc = main(
        [
            "simulate",
            "--kernel",
            "corpus:uniform",
            "--policy",
            "zorua",
            "--blocks",
            "2",
            "--event-log",
            str(path),
        ]
    )
    capsys.readouterr()
    assert rc == 0
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines
    events = [json.loads(line) for line in lines]
    assert all(set(e) == {"cycle", "event", "id"} for e in events)
    assert events[0]["event"] == "BLOCK_ARRIVAL"


@pytest.mark.parametrize("policy", ["baseline", "wlm"])
@pytest.mark.parametrize("kernel", ["corpus:reg_cliff", "corpus:mixed_phase"])
def test_the_event_log_only_observes(tmp_path, capsys, kernel, policy):
    # the log makes a static policy's specifiers raise events again; the
    # results must not see it
    plain, logged, log = tmp_path / "plain.json", tmp_path / "logged.json", tmp_path / "ev.jsonl"
    cmd = ["simulate", "--kernel", kernel, "--policy", policy, "--arch", "fermi", "--json"]
    assert main([*cmd, str(plain)]) == 0
    assert main([*cmd, str(logged), "--event-log", str(log)]) == 0
    capsys.readouterr()
    assert plain.read_bytes() == logged.read_bytes()
    assert '"event": "PHASE_CHANGE"' in log.read_text(encoding="utf-8")


@pytest.mark.parametrize("flag", ["--json", "--csv"])
def test_an_event_log_over_the_result_file_is_a_usage_error(tmp_path, capsys, monkeypatch, flag):
    # refused before simulating: the log would replace the result
    monkeypatch.chdir(tmp_path)
    cmd = ["simulate", "--kernel", "corpus:uniform", "--policy", "zorua", flag, "out"]
    assert main([*cmd, "--event-log", "./out"]) == 1
    err = capsys.readouterr().err
    assert err == "error: --event-log would overwrite the result written to out\n"
    assert not (tmp_path / "out").exists()


def test_unknown_corpus_kernel_is_a_validation_error(capsys):
    rc = main(["simulate", "--kernel", "corpus:nqu", "--policy", "baseline"])
    assert rc == 2
    assert "unknown corpus kernel" in capsys.readouterr().err


def test_missing_kernel_file_is_an_io_error(tmp_path, capsys):
    rc = main(
        ["simulate", "--kernel", str(tmp_path / "nope.kernel"), "--policy", "baseline"]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_kernel_file_is_a_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.kernel"
    bad.write_text("kernel broken\ninstr ALU live_regs=1 scratch=0\n", encoding="utf-8")
    rc = main(["simulate", "--kernel", str(bad), "--policy", "baseline"])
    assert rc == 2
    capsys.readouterr()


def test_unrunnable_spec_is_a_validation_error(capsys):
    rc = main(
        [
            "simulate",
            "--kernel",
            "corpus:reg_cliff",
            "--policy",
            "baseline",
            "--threads-per-block",
            "1024",
            "--regs-per-thread",
            "63",
        ]
    )
    assert rc == 2
    assert "zero blocks" in capsys.readouterr().err


def test_usage_errors_return_one(capsys):
    assert main(["simulate", "--kernel", "corpus:uniform"]) == 1  # no --policy
    assert main(["simulate", "--kernel", "k", "--policy", "greedy"]) == 1
    assert main(["tables", "--arch", "volta"]) == 1
    assert main([]) == 1
    capsys.readouterr()


def test_json_and_csv_are_mutually_exclusive(capsys):
    rc = main(
        [
            "simulate",
            "--kernel",
            "corpus:uniform",
            "--policy",
            "baseline",
            "--json",
            "a.json",
            "--csv",
            "a.csv",
        ]
    )
    assert rc == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_sweep_writes_csv_and_summary(tmp_path, capsys):
    grid = tmp_path / "g.grid"
    grid.write_text("list threads_per_block=128,256\nset total_threads=15360\n", encoding="utf-8")
    out = tmp_path / "sweep.csv"
    rc = main(
        [
            "sweep",
            "--kernel",
            "corpus:uniform",
            "--grid",
            str(grid),
            "--policies",
            "baseline,zorua",
            "--out",
            str(out),
        ]
    )
    stdout = capsys.readouterr().out
    assert rc == 0
    assert f"wrote {out}" in stdout
    assert "performance range" in stdout
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 2 * 2


def test_sweep_json_output_parses_back(tmp_path, capsys):
    grid = tmp_path / "g.grid"
    grid.write_text("list threads_per_block=128,256\n", encoding="utf-8")
    out = tmp_path / "sweep.json"
    rc = main(
        [
            "sweep",
            "--kernel",
            "corpus:uniform",
            "--grid",
            str(grid),
            "--policies",
            "baseline",
            "--arch-list",
            "fermi,kepler",
            "--out",
            str(out),
        ]
    )
    capsys.readouterr()
    assert rc == 0
    result = parse_json(out.read_text(encoding="utf-8"))
    assert result.kernel == "uniform"
    assert result.archs == ("fermi", "kepler")
    assert len(result.rows) == 4


def test_sweep_bad_grid_is_a_validation_error(tmp_path, capsys):
    grid = tmp_path / "g.grid"
    grid.write_text("range scratch=10:5:1\n", encoding="utf-8")
    rc = main(
        [
            "sweep",
            "--kernel",
            "corpus:uniform",
            "--grid",
            str(grid),
            "--out",
            str(tmp_path / "o.csv"),
        ]
    )
    assert rc == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--arch-list", "fermi,fermi", "arch 'fermi' is listed twice"),
        ("--arch-list", "", "a sweep needs at least one arch"),
        ("--policies", "wlm,baseline,wlm", "policy 'wlm' is listed twice"),
        ("--policies", "", "a sweep needs at least one policy"),
    ],
)
def test_sweep_refuses_an_empty_or_repeated_list(tmp_path, capsys, flag, value, message):
    # a repeated arch would write its rows twice, and the summary would
    # read the copies as one grid; an empty list would write a bare header
    grid = tmp_path / "g.grid"
    grid.write_text("list threads_per_block=128,256\n", encoding="utf-8")
    out = tmp_path / "o.csv"
    argv = ["sweep", "--kernel", "corpus:uniform", "--grid", str(grid), "--out", str(out)]
    rc = main(argv + [flag, value])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_sweep_that_does_not_terminate_names_its_point_and_exits_3(tmp_path, capsys, monkeypatch):
    # smvirt sweep has no cycle-cap flag, so lower the cap under it
    monkeypatch.setattr(cli, "run_sweep", partial(run_sweep, cycle_cap=500))
    grid = tmp_path / "g.grid"
    grid.write_text(RECOMMENDED_GRIDS["reg_cliff"], encoding="utf-8")
    out = tmp_path / "o.csv"
    rc = main(
        [
            "sweep",
            "--kernel",
            "corpus:reg_cliff",
            "--grid",
            str(grid),
            "--policies",
            "baseline",
            "--out",
            str(out),
        ]
    )
    err = capsys.readouterr().err
    assert rc == 3
    assert err == (
        "error: fermi baseline threads=256 regs=32 scratch=0 blocks=450: "
        "no completion within 500 cycles\n"
    )
    assert not out.exists()


def test_phases_prints_the_decomposition(capsys):
    rc = main(["phases", "--kernel", "corpus:scratch_cliff"])
    assert rc == 0
    assert capsys.readouterr().out == (
        "kernel scratch_cliff: 5 phases over 42 instructions\n"
        "phase  start    end   span  barrier  max_regs  max_scratch\n"
        "    0      0     10     10       no        16            0\n"
        "    1     10     14      4       no        16         4224\n"
        "    2     14     20      6      yes        16         4224\n"
        "    3     20     32     12      yes        16         4224\n"
        "    4     32     42     10       no        16          384\n"
    )


def test_phases_rejects_a_nan_threshold(capsys):
    rc = main(["phases", "--kernel", "corpus:reg_cliff", "--threshold", "nan"])
    assert rc == 2
    assert "change_threshold must be positive" in capsys.readouterr().err


def test_tables_prints_fermi_golden_sizes(capsys):
    rc = main(["tables", "--arch", "fermi"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "9216 bits" in out
    assert "5376 bits" in out
    assert "448 bits" in out


def test_corpus_lists_all_kernels(capsys):
    rc = main(["corpus"])
    out = capsys.readouterr().out
    assert rc == 0
    for name in ("reg_cliff", "scratch_cliff", "barrier_heavy", "mixed_phase", "uniform", "membound"):
        assert name in out
    assert "grid:" in out


def test_corpus_export_writes_loadable_kernels(tmp_path, capsys):
    rc = main(["corpus", "--export", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("wrote ") == 12
    kern = load_kernel(tmp_path / "uniform.kernel")
    assert kern.name == "uniform"


_CONFIG = "config threads_per_block=64 regs_per_thread=8 scratch=0 blocks=1"
_ALU = "instr ALU live_regs=8 scratch=0"


@pytest.mark.parametrize(
    "text, message",
    [
        ("kernel t\nkernel u\n", "line 2: duplicate kernel line"),
        (f"{_CONFIG}\n", "line 1: config before kernel line"),
        (f"kernel t\n{_CONFIG}\n{_CONFIG}\n", "line 3: duplicate config line"),
        (
            "kernel t\nconfig threads_per_block=64 threads_per_block=64\n",
            "line 2: duplicate key 'threads_per_block'",
        ),
        (
            "kernel t\nconfig threads_per_block=33 regs_per_thread=8 scratch=0 blocks=1\n",
            "line 2: threads_per_block must be a positive multiple of 32, got 33",
        ),
        (f"kernel t\n{_CONFIG}\ninstr\n", "line 3: expected: instr <OPCODE> key=value..."),
        (
            f"kernel t\n{_CONFIG}\ninstr PHASE_SPEC live_regs=8 scratch=0\n",
            "line 3: use a 'phase' line for phase specifiers",
        ),
        (
            f"kernel t\n{_CONFIG}\n{_ALU}\ninstr ALU live_regs=-1 scratch=0\n",
            "line 4: liveness annotations must be non-negative",
        ),
        ("kernel t\nphase live_regs=8 scratch=0\n", "line 2: phase before config line"),
        (
            f"kernel t\n{_CONFIG}\nphase live_regs=-8 scratch=0\n",
            "line 3: phase requirements must be non-negative",
        ),
        ("# no kernel line\n", "missing kernel line"),
        ("kernel t\n", "missing config line"),
        (f"kernel t\n{_CONFIG}\n", "kernel 't': kernel body may not be empty"),
        (f"kernel t/u\n{_CONFIG}\n{_ALU}\n", "kernel 't/u': bad kernel name 't/u'"),
        (
            f"kernel t\n{_CONFIG}\n{_ALU}\ninstr ALU live_regs=9 scratch=0\n",
            "kernel 't': instr 1: live_regs_after 9 exceeds regs_per_thread 8",
        ),
    ],
)
def test_each_malformed_kernel_file_exits_2_with_its_line(tmp_path, capsys, text, message):
    path = tmp_path / "bad.kernel"
    path.write_text(text, encoding="utf-8")
    rc = main(["simulate", "--kernel", str(path), "--policy", "baseline"])
    assert (rc, capsys.readouterr().err) == (2, f"error: {message}\n")


@pytest.mark.parametrize("policy", ["baseline", "wlm", "zorua"])
def test_a_compiled_kernel_file_is_validated_under_every_policy(tmp_path, capsys, policy):
    # a file with phase lines is a compiled kernel: one whose specifier
    # covers its instructions runs, two adjacent specifiers announcing one
    # register ahead of instructions with 32 live are refused
    header = "kernel k\nconfig threads_per_block=64 regs_per_thread=32 scratch=0 blocks=1\n"
    alus = "instr ALU live_regs=32 scratch=0\n" * 4
    good, bad = tmp_path / "good.kernel", tmp_path / "bad.kernel"
    good.write_text(header + "phase live_regs=32 scratch=0\n" + alus, encoding="utf-8")
    bad.write_text(header + "phase live_regs=1 scratch=0\n" * 2 + alus, encoding="utf-8")
    assert main(["simulate", "--kernel", str(good), "--policy", policy]) == 0
    capsys.readouterr()
    rc = main(["simulate", "--kernel", str(bad), "--policy", policy])
    assert (rc, capsys.readouterr().err) == (2, "error: kernel 'k': empty specifier span before 1\n")


@pytest.mark.parametrize("policy", ["baseline", "wlm", "zorua"])
def test_a_kernel_file_ending_in_a_phase_line_exits_2(tmp_path, capsys, policy):
    # under zorua the trailing specifier queued the warp for the sets it
    # announced, and the warp then finished from its queue
    path = tmp_path / "tail.kernel"
    path.write_text(
        "kernel k\nconfig threads_per_block=64 regs_per_thread=32 scratch=1024 blocks=1\n"
        "phase live_regs=8 scratch=0\ninstr ALU live_regs=8 scratch=0\n"
        "phase live_regs=32 scratch=1024\n",
        encoding="utf-8",
    )
    rc = main(["simulate", "--kernel", str(path), "--policy", policy])
    assert (rc, capsys.readouterr().err) == (2, "error: kernel 'k': the body ends in a specifier\n")


def test_a_phase_beyond_the_scratchpad_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.kernel"
    path.write_text(
        "kernel huge\nconfig threads_per_block=64 regs_per_thread=8 scratch=65536 blocks=1\n"
        "instr ST_SHARED live_regs=8 scratch=65536\n",
        encoding="utf-8",
    )
    rc = main(["simulate", "--kernel", str(path), "--policy", "zorua"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: phase needs 64 scratchpad sets per block, beyond hardware reach\n"
    )


def test_a_range_of_non_integers_exits_2_with_its_line(tmp_path, capsys):
    grid = tmp_path / "g.grid"
    grid.write_text("list regs_per_thread=8\nrange scratch=0:a:1\n", encoding="utf-8")
    out = str(tmp_path / "o.csv")
    argv = ["sweep", "--kernel", "corpus:uniform", "--grid", str(grid), "--out", out]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: grid line 2: range bounds must be integers\n"


def test_phases_rejects_a_min_span_below_one(capsys):
    rc = main(["phases", "--kernel", "corpus:reg_cliff", "--min-span", "0"])
    assert (rc, capsys.readouterr().err) == (2, "error: min_span must be at least 1\n")


def test_simulate_reports_guard_admissions_and_a_scratch_override(tmp_path, capsys):
    # 32 warps of 16 register sets each, with a barrier: the warps that
    # fit wait at the barrier holding every set, so only the guard lets
    # the rest in
    path = tmp_path / "wide.kernel"
    path.write_text(
        "kernel wide\nconfig threads_per_block=1024 regs_per_thread=63 scratch=0 blocks=1\n"
        "instr ALU live_regs=63 scratch=0\ninstr BARRIER live_regs=63 scratch=0\n"
        "instr ALU live_regs=63 scratch=0\n",
        encoding="utf-8",
    )
    rc = main(["simulate", "--kernel", str(path), "--policy", "zorua", "--scratch", "1024"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "1024 B scratch/blk" in out
    assert "guard   15 forced admissions" in out


def test_the_console_entry_and_python_m_exit_with_the_code_of_main(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["smvirt", "tables", "--arch", "volta"])
    with pytest.raises(SystemExit) as info:
        cli.entry()
    assert info.value.code == 1
    monkeypatch.setattr(sys, "argv", ["smvirt", "tables", "--arch", "fermi"])
    with pytest.raises(SystemExit) as info:
        runpy.run_module("smvirt", run_name="__main__")
    assert info.value.code == 0
    assert "fermi: mapping table sizes" in capsys.readouterr().out
