"""Exit codes and output files of every subcommand, driven through main()."""

import json

from smvirt.cli import main
from smvirt.harness import parse_json
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


def test_phases_prints_the_decomposition(capsys):
    rc = main(["phases", "--kernel", "corpus:scratch_cliff"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "5 phases" in out
    assert "4224" in out
    assert "384" in out


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
