"""Regenerate perfbench/reference.json, the digests of the simulated outputs.

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter simulated results, and say so
in the change: a change that only speeds up the simulator must leave every
digest as it is.  It takes about a minute, most of it for the synthetic_mix
pool: every (profile, length, arch) the workload seed can draw, under all
three policies.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import spans
import workloads as w


def main() -> int:
    sm = run.import_program()
    run.OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=run.OUT))
    tracer = spans.NullTracer()
    doc = {}
    try:
        pool = [
            (p.value, length, arch)
            for p in sm.kernel_model.Profile
            for arch in w.SYNTHETIC_ARCHS
            for length in w.SYNTHETIC_LENGTHS
        ]
        passes = {
            w.StaticSweep.name: w.StaticSweep(sm, 0, workdir).run_pass(tracer),
            w.ZoruaLarge.name: w.ZoruaLarge(sm, 0, workdir).run_pass(tracer),
            w.SyntheticMix.name: w.SyntheticMix(sm, 0, workdir, draws=pool).run_pass(tracer),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, res in passes.items():
        if res.failures:
            print(f"{name}: {len(res.failures)} failures, first: {res.failures[0]}", file=sys.stderr)
            return 1
        digests = {key.partition("/")[2]: d for key, d in res.digests}
        if name != w.SyntheticMix.name:
            doc[name] = digests
            continue
        rows = {}
        for profile, length, arch in pool:
            triple = " ".join(digests[f"{profile}/{length}/{arch}/{p}"] for p in w.POLICIES)
            rows.setdefault(f"{profile}/{arch}", []).append(triple)
        doc[name] = {
            "policies": list(w.POLICIES),
            "lengths": [w.SYNTHETIC_LENGTHS.start, w.SYNTHETIC_LENGTHS.stop - 1],
            "digests": rows,
        }
    out = run.HERE / "reference.json"
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
