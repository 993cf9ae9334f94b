"""Command line front end.

Subcommands:
    simulate   run one kernel under one policy and print a summary
    sweep      run a grid file across architectures and policies
    phases     show the phase structure a kernel body induces
    tables     show mapping-table sizes for an architecture preset
    corpus     list or export the bundled synthetic kernels

Kernel arguments accept either a file path or ``corpus:<name>`` for a
bundled kernel.  Exit codes: 0 success, 1 usage or I/O error, 2 input
validation error, 3 simulation failed to terminate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .corpus import CORPUS, RECOMMENDED_GRIDS, corpus_kernel, export_corpus
from .engine import NonTerminationError, run
from .harness import (
    SweepResult,
    detect_cliffs,
    emit_csv,
    parse_grid,
    performance_range,
    result_row,
    run_sweep,
    write_csv,
    write_json,
)
from .kernel_model import KernelError, KernelSpec, load_kernel
from .phase_compiler import (
    DEFAULT_CHANGE_THRESHOLD,
    DEFAULT_MIN_SPAN,
    detect_phase_boundaries,
)
from .policies import KernelUnrunnableError, Policy
from .resource_maps import ARCHITECTURES, ResourceKind, get_arch, table_size_bits

_CORPUS_PREFIX = "corpus:"


def _load(ref: str) -> KernelSpec:
    if ref.startswith(_CORPUS_PREFIX):
        return corpus_kernel(ref[len(_CORPUS_PREFIX) :])
    return load_kernel(ref)


def _apply_overrides(kernel: KernelSpec, args: argparse.Namespace) -> KernelSpec:
    spec = kernel.resource_spec
    updates = {}
    if args.threads_per_block is not None:
        updates["threads_per_block"] = args.threads_per_block
    if args.regs_per_thread is not None:
        updates["regs_per_thread"] = args.regs_per_thread
    if args.scratch is not None:
        updates["scratch_bytes_per_block"] = args.scratch
    if args.blocks is not None:
        updates["num_blocks"] = args.blocks
    if not updates:
        return kernel
    return replace(kernel, resource_spec=replace(spec, **updates))


def _cmd_simulate(args: argparse.Namespace) -> int:
    out = args.json or args.csv
    if args.event_log and out and os.path.realpath(args.event_log) == os.path.realpath(out):
        print(f"error: --event-log would overwrite the result written to {out}", file=sys.stderr)
        return 1
    kernel = _apply_overrides(_load(args.kernel), args)
    res = run(
        kernel,
        args.policy,
        args.arch,
        seed=args.seed,
        log_events=args.event_log is not None,
    )
    p = res.spec
    print(f"kernel  {res.kernel_name}")
    print(f"policy  {res.policy}   arch {res.arch}   seed {res.seed}")
    print(
        f"spec    {p.threads_per_block} thr/blk, {p.regs_per_thread} regs/thr, "
        f"{p.scratch_bytes_per_block} B scratch/blk, {p.num_blocks} blocks"
    )
    print(f"cycles  {res.cycles}")
    print(f"issued  {res.issued_instructions} instructions over {res.issued_cycles} issue cycles")
    print(
        f"stalls  mem {res.c_mem}  idle {res.c_idle}  barrier {res.barrier_stall}"
    )
    print(
        f"hits    reg {res.reg_hit_rate:.6f}  scratch {res.scratch_hit_rate:.6f}  "
        f"slot {res.slot_hit_rate:.6f}"
    )
    print(f"warps   mean schedulable {res.mean_schedulable_warps:.6f}")
    print(
        f"blocks  in flight {res.blocks_in_flight_min}..{res.blocks_in_flight_max}"
    )
    if res.o_thresh_final:
        print(f"thresh  final oversubscription {res.o_thresh_final}")
    if res.guard_admissions:
        print(f"guard   {res.guard_admissions} forced admissions")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(res.to_dict(), f, indent=2)
            f.write("\n")
    if args.csv:
        single = SweepResult(res.kernel_name, (res.arch,), (res.policy,), (result_row(res),), ())
        with open(args.csv, "w", encoding="utf-8", newline="") as f:
            f.write(emit_csv(single))
    if args.event_log:
        with open(args.event_log, "w", encoding="utf-8") as f:
            for cycle, kind, ident in res.event_log or ():
                f.write(json.dumps({"cycle": cycle, "event": kind, "id": ident}))
                f.write("\n")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    kernel = _load(args.kernel)
    with open(args.grid, "r", encoding="utf-8") as f:
        grid = parse_grid(f.read())
    archs = [a for a in args.arch_list.split(",") if a]
    policies = [p for p in args.policies.split(",") if p]
    result = run_sweep(kernel, grid, archs, policies)
    if args.out.endswith(".json"):
        write_json(result, args.out)
    else:
        write_csv(result, args.out)
    for arch in result.archs:
        for policy in result.policies:
            rows = result.rows_for(arch, policy)
            rng = performance_range(rows)
            cliffs = detect_cliffs(rows)
            rng_text = "undefined" if rng is None else f"{rng:.6f}"
            print(
                f"{arch:8s} {policy:9s} rows {len(rows):3d}  "
                f"performance range {rng_text}  cliffs {len(cliffs)}"
            )
    print(f"wrote {args.out}")
    return 0


def _cmd_phases(args: argparse.Namespace) -> int:
    kernel = _load(args.kernel)
    phases = detect_phase_boundaries(
        kernel, change_threshold=args.threshold, min_span=args.min_span
    )
    print(f"kernel {kernel.name}: {len(phases)} phases over {len(kernel.body)} instructions")
    print("phase  start    end   span  barrier  max_regs  max_scratch")
    for i, ph in enumerate(phases):
        opened = "yes" if ph.opened_by_barrier else "no"
        print(
            f"{i:5d}  {ph.start:5d}  {ph.end:5d}  {ph.span:5d}  {opened:>7s}  "
            f"{ph.max_live_regs:8d}  {ph.max_live_scratch:11d}"
        )
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    arch = get_arch(args.arch)
    print(f"{arch.name}: mapping table sizes")
    for kind, label in (
        (ResourceKind.REGISTER, "register"),
        (ResourceKind.SCRATCHPAD, "scratchpad"),
        (ResourceKind.WARP_SLOT, "warp slot"),
    ):
        bits = table_size_bits(arch, kind)
        print(f"  {label:10s} {bits:6d} bits  ({(bits + 7) // 8} bytes)")
    return 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    if args.export:
        paths = export_corpus(args.export)
        for path in paths:
            print(f"wrote {path}")
        return 0
    print("name            threads  regs  scratch  blocks  body")
    for name in CORPUS:
        k = corpus_kernel(name)
        p = k.resource_spec
        print(
            f"{name:15s} {p.threads_per_block:7d}  {p.regs_per_thread:4d}  "
            f"{p.scratch_bytes_per_block:7d}  {p.num_blocks:6d}  {len(k.body):4d}"
        )
        if name in RECOMMENDED_GRIDS:
            for line in RECOMMENDED_GRIDS[name].strip().splitlines():
                print(f"    grid: {line}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smvirt",
        description="Cycle-approximate simulator of SM on-chip resource virtualization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one kernel under one policy")
    sim.add_argument("--kernel", required=True, help="kernel file or corpus:<name>")
    sim.add_argument(
        "--policy", required=True, choices=[p.value for p in Policy]
    )
    sim.add_argument("--arch", default="fermi", choices=sorted(ARCHITECTURES))
    sim.add_argument("--threads-per-block", type=int, default=None)
    sim.add_argument("--regs-per-thread", type=int, default=None)
    sim.add_argument("--scratch", type=int, default=None)
    sim.add_argument("--blocks", type=int, default=None)
    sim.add_argument("--seed", type=int, default=0)
    out = sim.add_mutually_exclusive_group()
    out.add_argument("--json", metavar="PATH", help="write the full result as JSON")
    out.add_argument("--csv", metavar="PATH", help="write a one-row CSV")
    sim.add_argument(
        "--event-log", metavar="PATH", help="write the critical SM replica's event trace as JSON lines"
    )
    sim.set_defaults(func=_cmd_simulate)

    sw = sub.add_parser("sweep", help="run a parameter grid")
    sw.add_argument("--kernel", required=True, help="kernel file or corpus:<name>")
    sw.add_argument("--grid", required=True, help="grid file")
    sw.add_argument(
        "--arch-list", default="fermi", help="comma-separated architecture presets"
    )
    sw.add_argument(
        "--policies",
        default=",".join(p.value for p in Policy),
        help="comma-separated policies",
    )
    sw.add_argument("--out", required=True, help="output path (.json for JSON, else CSV)")
    sw.set_defaults(func=_cmd_sweep)

    ph = sub.add_parser("phases", help="show detected phase structure")
    ph.add_argument("--kernel", required=True, help="kernel file or corpus:<name>")
    ph.add_argument("--threshold", type=float, default=DEFAULT_CHANGE_THRESHOLD)
    ph.add_argument("--min-span", type=int, default=DEFAULT_MIN_SPAN)
    ph.set_defaults(func=_cmd_phases)

    tb = sub.add_parser("tables", help="show mapping-table sizes")
    tb.add_argument("--arch", required=True, choices=sorted(ARCHITECTURES))
    tb.set_defaults(func=_cmd_tables)

    co = sub.add_parser("corpus", help="list or export bundled kernels")
    co.add_argument("--export", metavar="DIR", help="write kernel and grid files here")
    co.set_defaults(func=_cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    try:
        return args.func(args)
    except NonTerminationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (KernelError, KernelUnrunnableError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main(sys.argv[1:]))
