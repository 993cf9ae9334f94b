"""Benchmark for the smvirt simulator.

Run one workload in this process:

    python3 perfbench/run.py --workload synthetic_mix --seed 1 --seconds 30 --trace 0

or every workload, each in a process of its own:

    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` times the workload untraced and reports the end-to-end
metrics; ``--trace 1`` runs one untraced pass, then wraps every layer of
the package and reports the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The metric names and units are those of BENCHMARK.json at
the repository root.  See perfbench/README.md for what each one means.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402
from speed import REFERENCE_S, SpeedSampler  # noqa: E402

SETUP_REPEATS = 5
EXIT_INCORRECT = 1
EXIT_NO_PROGRAM = 2


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, bad arguments)."""


def percentile(values, q: float) -> float:
    """Nearest-rank q-th percentile, refused with fewer than 10 samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < 10:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has {beyond} beyond it; at least 10 are needed"
        )
    return ordered[rank - 1]


def import_program():
    """Import smvirt afresh from this checkout's src/, never from elsewhere."""
    if not (SRC / "smvirt" / "__init__.py").is_file():
        raise BenchError(f"no smvirt package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "smvirt" or m.startswith("smvirt.")]:
        del sys.modules[name]
    sm = importlib.import_module("smvirt")
    if Path(sm.__file__).resolve().parent != (SRC / "smvirt").resolve():
        raise BenchError(f"imported smvirt from {sm.__file__}, not from {SRC}")
    for layer in spans.LAYERS + ("corpus", "policies"):
        importlib.import_module(f"smvirt.{layer}")
    return sm


def set_up(workload_cls, seed: int, workdir: Path):
    """Import, build the corpus and the seeded inputs, several times.

    Returns the last workload built and the (start, end) of each set-up.
    """
    intervals = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        sm = import_program()
        wl = workload_cls(sm, seed, workdir)
        intervals.append((t0, time.perf_counter()))
    return sm, wl, intervals


def measure(wl, tracer, seconds: float, reference, on_pass=None):
    """Run passes until the next one would end after ``seconds``; at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        res = wl.run_pass(tracer)
        reference.check(res)
        passes.append(res)
        if on_pass is not None:
            on_pass(res)
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return passes


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        return f"unknown ({type(e).__name__})"
    return out.stdout.strip() or "unknown"


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


def per_operation(tables) -> dict:
    """Median over passes of each operation's value; ``tables`` holds one dict per pass."""
    values = {}
    for table in tables:
        for label, v in table.items():
            values.setdefault(label, []).append(v)
    return {label: statistics.median(v) for label, v in values.items()}


def scaled_timed(res, speed) -> dict:
    return {label: speed.scaled(a, b) for label, (a, b) in res.timed.items()}


def scaled_launch_ms(res, speed) -> dict:
    return {label: speed.scaled(a, b) * 1000 / n for label, (a, b, n) in res.launches.items()}


def end_to_end(passes, setup, speed) -> tuple[dict, dict]:
    """Gated metrics, and the figures that are only reported.

    Times are scaled by the sampled host speed.  Each timed operation
    contributes its median over the passes, so one disturbed pass or
    operation moves no figure.
    """
    seconds = sum(per_operation(scaled_timed(p, speed) for p in passes).values())
    launch = per_operation(scaled_launch_ms(p, speed) for p in passes)
    metrics = {  # a run where every operation failed reads 0
        "sim_instr_per_s": statistics.median(p.sim_instr for p in passes) / seconds if seconds else 0.0,
        "launch_ms_p50": statistics.median(launch.values()) if launch else 0.0,
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(speed.scaled(a, b) for a, b in setup),
    }
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    reported = {"error_rate": failed / attempted, "launch_samples": len(launch)}
    try:
        reported["launch_ms_p90"] = percentile(launch.values(), 90)
    except ValueError as e:
        reported["launch_ms_p90"] = None
        reported["launch_ms_p90_refused"] = str(e)
    small, large = workloads.SCALING_PAIR
    if small in launch and large in launch:
        reported["scaling_4x"] = launch[large] / launch[small] / 4
    return metrics, reported


def layer_figures(layer_passes, traced, untraced, speed) -> dict:
    figures = {}
    for name in layer_passes[0]:
        figures[name] = statistics.median(lp[name] for lp in layer_passes)

    def scaled(passes):
        return statistics.median(sum(scaled_timed(p, speed).values()) for p in passes)

    figures["trace_overhead"] = scaled(traced) / scaled(untraced)
    return figures


def traced_passes(sm, wl, seconds, reference, speed):
    """One untraced pass, then traced passes; per-layer figures and first-pass spans."""
    untraced = measure(wl, spans.NullTracer(), 0, reference)
    tracer = spans.Tracer()
    layer_passes, first_spans = [], []

    def collect(res):
        nodes, counts = tracer.reset()
        layer_passes.append(spans.layer_metrics(nodes, counts))
        if not first_spans:
            first_spans.extend(spans.span_records(nodes))

    tracer.install(sm)
    try:
        traced = measure(wl, tracer, seconds, reference, on_pass=collect)
    finally:
        tracer.uninstall()
    return untraced + traced, layer_figures(layer_passes, traced, untraced, speed), first_spans


def pass_record(p, speed) -> dict:
    record = {
        "seconds": p.seconds,
        "sim_instr": p.sim_instr,
        "attempted": p.attempted,
        "failed": len(p.failures),
        "output_digest": workloads.digest("".join(d for _, d in p.digests)),
        "raw_launch_ms": {k: (b - a) * 1000 / n for k, (a, b, n) in p.launches.items()},
        "scaled_seconds": sum(scaled_timed(p, speed).values()),
    }
    if len(record["raw_launch_ms"]) > 50:  # synthetic_mix: keep the summary only
        record["raw_launch_ms_p50"] = statistics.median(record.pop("raw_launch_ms").values())
    return record


def print_report(args, prov, passes, wanted, metrics, reported, failures, path):
    print(f"perfbench {args.workload}  seed {args.seed}  trace {args.trace}  passes {len(passes)}  "
          f"python {prov['python']}  nproc {prov['nproc']}  commit {prov['git_commit']}")
    for m in wanted:
        print(f"  {m['name']:32s} {metrics[m['name']]:>16.6g} {m['unit']:10s} ({m['better']} is better)")
    if reported:
        print(f"  {'error_rate':32s} {reported['error_rate']:>16.6g} {'fraction':10s} (lower is better)")
        if reported["launch_ms_p90"] is None:
            print(f"  {'launch_ms_p90':32s} {'n/a':>16s} {'ms':10s} ({reported['launch_ms_p90_refused']})")
        else:
            print(f"  {'launch_ms_p90':32s} {reported['launch_ms_p90']:>16.6g} {'ms':10s} "
                  f"(lower is better; {reported['launch_samples']} samples)")
        if "scaling_4x" in reported:
            print(f"  {'scaling_4x':32s} {reported['scaling_4x']:>16.6g} {'ratio':10s} (lower is better)")
    for f in failures[:10]:
        print(f"  FAILED {f}")
    print(f"  results in {path.relative_to(ROOT)}")


def run_workload(args, spec: dict) -> int:
    wl_cls = workloads.WORKLOADS[args.workload]
    reference = workloads.Reference.load(HERE / "reference.json")
    import_program()  # fails early without the package, and writes its bytecode before set-up is timed
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    reported, first_spans = {}, []
    try:
        with SpeedSampler() as speed:
            sm, wl, setup = set_up(wl_cls, args.seed, workdir)
            if args.trace:
                passes, metrics, first_spans = traced_passes(sm, wl, args.seconds, reference, speed)
            else:
                passes = measure(wl, spans.NullTracer(), args.seconds, reference)
        if args.trace:
            wanted = spec["per_layer"]
        else:
            metrics, reported = end_to_end(passes, setup, speed)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for p in passes for f in p.failures]
    prov = provenance(args)
    record = {
        "provenance": prov,
        "setup_s_raw": [b - a for a, b in setup],
        "passes": [pass_record(p, speed) for p in passes],
        "failures": failures[:50],
        "metrics": metrics,
        "reported": reported,
    }
    record["setup_s_scaled"] = [speed.scaled(a, b) for a, b in setup]
    record["speed_samples"] = len(speed.durations)
    record["mean_speed"] = statistics.fmean(REFERENCE_S / d for d in speed.durations)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if first_spans:
        with open(path.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as f:
            for rec in first_spans:
                f.write(json.dumps(rec) + "\n")

    print_report(args, prov, passes, wanted, metrics, reported, failures, path)
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(p.attempted for p in passes),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if not failures else EXIT_INCORRECT


def run_all(args, spec: dict) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT)
        status = status or proc.returncode
    return status


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        if args.workload == "all":
            return run_all(args, spec)
        return run_workload(args, spec)
    except (BenchError, OSError, ImportError) as e:
        print(f"perfbench: error: {e}", file=sys.stderr)
        return EXIT_NO_PROGRAM


if __name__ == "__main__":
    sys.exit(main())
