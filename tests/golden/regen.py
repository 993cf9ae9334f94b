"""Committed golden outputs of the simulator, and the script that rewrites them.

``run/<kernel>.<policy>.<arch>.json`` holds ``run(...).to_dict()`` of one
corpus kernel at its declared launch, or ``{"error": <class name>}`` when
the policy cannot run it.  Besides the three presets, <arch> is
``fermi_shrunk``: fermi with half its registers and scratchpad, on which
the corpus launches oversubscribe the SM, so zorua's deadlock guard,
parking and swap run.  Its ``to_dict`` still says ``"arch": "fermi"``.
So does ``fermi_<count>_blocks``: the kernel's launch of that many
blocks on fermi, for the four large launches of perfbench's
``zorua_large`` workload, which last 4 to 19 epochs and touch swap.
``sweep/<kernel>.fermi.csv`` holds ``emit_csv`` of the kernel's
recommended grid on fermi under every policy.
``recorders/<kernel>.<arch>.json`` holds, per policy, the sha256 of the
opt-in recorders of ``run(..., collect_util=True, log_events=True)`` on
that arch: the event log and the per-epoch utilization tuples, which
``to_dict`` leaves out or does not produce.
``claims.json`` holds the paper's comparison, from ``run_sweep`` of every
corpus kernel's recommended grid on all three archs under every policy:
per kernel and policy, the performance range on each arch, the cliffs
summed over the archs, and the porting loss as the maximum over ordered
arch pairs (the README's convention), each null where undefined.
``tests/test_golden.py`` compares the files byte for byte.

    PYTHONPATH=src python tests/golden/regen.py            # list differing files
    PYTHONPATH=src python tests/golden/regen.py --update   # rewrite them

Under each differing file the script says what differs: the top-level
keys of a run JSON, the policies of a recorder file whose digest
changed, the changed rows of a sweep CSV, and each changed cell of the
claims table.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
from dataclasses import replace
from pathlib import Path

from smvirt import (
    RECOMMENDED_GRIDS,
    KernelUnrunnableError,
    NonTerminationError,
    Policy,
    corpus_kernel,
    corpus_names,
    detect_cliffs,
    emit_csv,
    get_arch,
    performance_range,
    porting_loss,
    run,
    run_sweep,
)

GOLDEN_DIR = Path(__file__).resolve().parent
ARCHS = ("fermi", "kepler", "maxwell")
# file label -> the arch of the run and recorder goldens
RUN_ARCHS = {
    **{arch: arch for arch in ARCHS},
    "fermi_shrunk": replace(
        get_arch("fermi"), registers_per_sm=16384, scratch_bytes_per_sm=24 * 1024
    ),
}
# kernel -> block counts of its large launches on fermi, perfbench's
# zorua_large set; file label fermi_<count>_blocks
LARGE_LAUNCHES = {"reg_cliff": (225, 900), "mixed_phase": (480,), "scratch_cliff": (1200,)}
SWEEP_ARCH = "fermi"
CLAIMS = "claims.json"


def recorder_digest(kernel, policy: Policy, arch) -> str:
    """sha256 of the event log and utilization tuples of one launch."""
    try:
        res = run(kernel, policy, arch, collect_util=True, log_events=True)
    except (KernelUnrunnableError, NonTerminationError) as e:
        return f"error: {type(e).__name__}"
    doc = {
        "event_log": res.event_log,
        "register_per_epoch": res.utilization.register_per_epoch,
        "scratch_per_epoch": res.utilization.scratch_per_epoch,
    }
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def run_launches(kernel) -> dict:
    """File label -> (kernel, arch) of each run golden of one corpus kernel."""
    launches = {label: (kernel, arch) for label, arch in RUN_ARCHS.items()}
    for blocks in LARGE_LAUNCHES.get(kernel.name, ()):
        spec = replace(kernel.resource_spec, num_blocks=blocks)
        launches[f"fermi_{blocks}_blocks"] = (replace(kernel, resource_spec=spec), "fermi")
    return launches


def golden_files(kernel_name: str) -> dict[str, str]:
    """Relative path -> expected text of every golden file of one kernel."""
    kernel = corpus_kernel(kernel_name)
    files = {}
    for policy in Policy:
        for label, (launch, arch) in run_launches(kernel).items():
            try:
                doc = run(launch, policy, arch).to_dict()
            except (KernelUnrunnableError, NonTerminationError) as e:
                doc = {"error": type(e).__name__}
            files[f"run/{kernel_name}.{policy.value}.{label}.json"] = (
                json.dumps(doc, indent=2) + "\n"
            )
    for label, arch in RUN_ARCHS.items():
        recorders = {policy.value: recorder_digest(kernel, policy, arch) for policy in Policy}
        files[f"recorders/{kernel_name}.{label}.json"] = json.dumps(recorders, indent=2) + "\n"
    sweep = run_sweep(kernel, RECOMMENDED_GRIDS[kernel_name], (SWEEP_ARCH,))
    files[f"sweep/{kernel_name}.{SWEEP_ARCH}.csv"] = emit_csv(sweep)
    return files


def _rounded(value):
    return None if value is None else round(value, 6)


def claims(kernel) -> dict:
    """Per policy: performance range per arch, cliffs summed over the
    archs, and porting loss as the maximum over ordered arch pairs."""
    sweep = run_sweep(kernel, RECOMMENDED_GRIDS[kernel.name], ARCHS)
    table = {}
    for policy in sweep.policies:
        series = {arch: sweep.rows_for(arch, policy) for arch in ARCHS}
        losses = [porting_loss(series[a], series[b]) for a, b in itertools.permutations(ARCHS, 2)]
        losses = [loss for loss in losses if loss is not None]
        table[policy] = {
            "range": {arch: _rounded(performance_range(rows)) for arch, rows in series.items()},
            "cliffs": sum(len(detect_cliffs(rows)) for rows in series.values()),
            "porting_loss": _rounded(max(losses, default=None)),
        }
    return table


def claims_text() -> str:
    """The expected text of claims.json."""
    doc = {name: claims(corpus_kernel(name)) for name in corpus_names()}
    return json.dumps(doc, indent=2) + "\n"


def _cells(doc, path=()):
    """(space-joined key path, value) of every leaf of a JSON document."""
    if not isinstance(doc, dict):
        yield " ".join(path), doc
        return
    for key, value in doc.items():
        yield from _cells(value, path + (key,))


def describe(rel: str, old: str, new: str) -> list[str]:
    """What differs between a golden file's committed text and its new
    text: the changed rows of a CSV, each changed cell of the claims
    table, else the changed top-level keys (the policies of a recorder
    file)."""
    if rel.endswith(".csv"):
        changed = []
        for a, b in itertools.zip_longest(old.splitlines(), new.splitlines(), fillvalue="(none)"):
            if a != b:
                changed += [f"- {a}", f"+ {b}"]
        return changed
    old_doc, new_doc = json.loads(old), json.loads(new)
    missing = object()
    if rel == CLAIMS:
        old_cells, new_cells = dict(_cells(old_doc)), dict(_cells(new_doc))
        return [
            f"{cell}: {old_cells.get(cell, '(none)')} -> {new_cells.get(cell, '(none)')}"
            for cell in {**old_cells, **new_cells}
            if old_cells.get(cell, missing) != new_cells.get(cell, missing)
        ]
    keys = [k for k in {**old_doc, **new_doc} if old_doc.get(k, missing) != new_doc.get(k, missing)]
    return [f"{'policies' if rel.startswith('recorders/') else 'keys'}: {', '.join(keys)}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true", help="rewrite differing files")
    args = parser.parse_args(argv)
    differing = 0
    files = [item for name in corpus_names() for item in golden_files(name).items()]
    for rel, text in files + [(CLAIMS, claims_text())]:
        path = GOLDEN_DIR / rel
        old = path.read_bytes().decode() if path.is_file() else None
        if old == text:
            continue
        differing += 1
        print(f"{'wrote' if args.update else 'differs'} {rel}")
        for line in ["new file"] if old is None else describe(rel, old, text):
            print(f"    {line}")
        if args.update:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(text.encode())
    return 1 if differing and not args.update else 0


if __name__ == "__main__":
    sys.exit(main())
