"""The benchmark workloads: seeded inputs, one timed pass, output checks.

Each workload is a class built from the imported ``smvirt`` package, the
workload seed and a scratch directory; building it is the set-up that
``setup_s`` times.  ``run_pass`` runs the workload's fixed input set once
and returns a ``PassResult``.  Only the calls into the program are timed;
checking the outputs is not.  Every program function is looked up on its
module at call time, so the traced run's wrappers take effect.

Every launch must issue blocks x warps/block x len(compiled body)
instructions, and the digest of every simulated output (sweep CSV, or
``SimResult.to_dict`` JSON) must equal the committed reference.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path

POLICIES = ("baseline", "wlm", "zorua")

SWEEP_ARCHS = "fermi,kepler,maxwell"
SWEEP_POLICIES = "baseline,wlm"

ZORUA_ARCH = "fermi"
ZORUA_LAUNCHES = (
    ("reg_cliff", 225),
    ("reg_cliff", 900),
    ("mixed_phase", 480),
    ("scratch_cliff", 1200),
)
# scaling_4x compares these two launches of one kernel
SCALING_PAIR = ("reg_cliff@225", "reg_cliff@900")

SYNTHETIC_KERNELS = 600
SYNTHETIC_LENGTHS = range(16, 257)
SYNTHETIC_ARCHS = ("fermi", "kepler", "maxwell")
# The workload seed picks profile, length and arch; the generator's own
# seed stays fixed, so every kernel the workload can draw has a reference.
SYNTHETIC_GEN_SEED = 0

clock = time.perf_counter


def digest(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:12]


@dataclass
class PassResult:
    timed: dict = field(default_factory=dict)  # label -> (start, end) of one timed call
    launches: dict = field(default_factory=dict)  # operation label -> (start, end, launches)
    sim_instr: int = 0  # issued_instructions summed over the launches that passed
    attempted: int = 0
    failures: list = field(default_factory=list)
    digests: list = field(default_factory=list)  # (reference key, digest) per output

    @property
    def seconds(self) -> float:
        return sum(end - start for start, end in self.timed.values())

    def fail(self, what: str, why: str):
        self.failures.append(f"{what}: {why}")


def expected_issued(num_blocks: int, threads_per_block: int, body_len: int, warp_width: int) -> int:
    return num_blocks * (threads_per_block // warp_width) * body_len


class Reference:
    """Committed digests of the simulated outputs, keyed per operation output."""

    def __init__(self, doc: dict):
        self.doc = doc

    @classmethod
    def load(cls, path: Path) -> "Reference":
        return cls(json.loads(path.read_text(encoding="utf-8")))

    def get(self, key: str):
        workload, _, rest = key.partition("/")
        table = self.doc.get(workload, {})
        if workload != "synthetic_mix":
            return table.get(rest)
        profile, length, arch, policy = rest.split("/")
        row = table.get("digests", {}).get(f"{profile}/{arch}")
        index = int(length) - SYNTHETIC_LENGTHS.start
        if row is None or not 0 <= index < len(row):
            return None
        return row[index].split()[POLICIES.index(policy)]

    def check(self, res: PassResult):
        """Count every output whose digest differs from the reference."""
        for key, got in res.digests:
            want = self.get(key)
            if got != want:
                res.fail(key, f"digest {got} != reference {want}")


class StaticSweep:
    """``smvirt sweep`` in-process over the recommended grid of every corpus kernel."""

    name = "static_sweep"

    def __init__(self, sm, seed: int, workdir: Path):
        self.sm = sm
        self.warp_width = sm.kernel_model.WARP_WIDTH
        self.kernels = []
        for name in sm.corpus.corpus_names():
            kernel = sm.corpus.corpus_kernel(name)
            body_len = len(sm.phase_compiler.annotate_phases(kernel).body)
            grid = workdir / f"{name}.grid"
            grid.write_text(sm.corpus.RECOMMENDED_GRIDS[name], encoding="utf-8")
            self.kernels.append((name, grid, workdir / f"{name}.csv", body_len))

    def run_pass(self, tracer) -> PassResult:
        res = PassResult()
        for name, grid, out, body_len in self.kernels:
            argv = [
                "sweep", "--kernel", f"corpus:{name}", "--grid", str(grid),
                "--arch-list", SWEEP_ARCHS, "--policies", SWEEP_POLICIES, "--out", str(out),
            ]
            res.attempted += 1
            stdout, stderr = io.StringIO(), io.StringIO()
            try:
                with redirect_stdout(stdout), redirect_stderr(stderr), tracer.span("sweep"):
                    t0 = clock()
                    code = self.sm.cli.main(argv)
                    t1 = clock()
            except Exception as e:  # a crash is one failed operation
                res.fail(name, f"{type(e).__name__}: {e}")
                continue
            res.timed[name] = (t0, t1)
            if code != 0:
                res.fail(name, f"exit code {code}: {stderr.getvalue().strip()}")
                continue
            data = out.read_bytes()
            rows = list(csv.DictReader(io.StringIO(data.decode())))
            res.launches[name] = (t0, t1, len(rows))
            res.digests.append((f"{self.name}/{name}", digest(data)))
            issued, wrong = self._issued(rows, body_len)
            if wrong:
                res.fail(name, f"{wrong} rows issued the wrong instruction count")
                continue
            res.sim_instr += issued
        return res

    # rows of unrunnable points carry cycles INF and issue nothing
    def _issued(self, rows, body_len):
        issued = wrong = 0
        for r in rows:
            got = int(r["issued_instructions"])
            if r["cycles"] == "INF":
                want = 0
            else:
                want = expected_issued(int(r["num_blocks"]), int(r["threads_per_block"]),
                                       body_len, self.warp_width)
            issued += got
            wrong += got != want
        return issued, wrong


class ZoruaLarge:
    """Large ``zorua`` launches, where coordinator admission dominates."""

    name = "zorua_large"

    def __init__(self, sm, seed: int, workdir: Path):
        self.sm = sm
        self.launches = []
        for kname, blocks in ZORUA_LAUNCHES:
            kernel = sm.corpus.corpus_kernel(kname)
            kernel = replace(kernel, resource_spec=replace(kernel.resource_spec, num_blocks=blocks))
            body_len = len(sm.phase_compiler.annotate_phases(kernel).body)
            want = expected_issued(blocks, kernel.resource_spec.threads_per_block, body_len,
                                   sm.kernel_model.WARP_WIDTH)
            self.launches.append((f"{kname}@{blocks}", kernel, want))

    def run_pass(self, tracer) -> PassResult:
        res = PassResult()
        for label, kernel, want in self.launches:
            res.attempted += 1
            try:
                with tracer.span("launch"):
                    t0 = clock()
                    result = self.sm.engine.run(kernel, "zorua", ZORUA_ARCH, seed=0)
                    t1 = clock()
            except Exception as e:
                res.fail(label, f"{type(e).__name__}: {e}")
                continue
            res.timed[label] = (t0, t1)
            res.launches[label] = (t0, t1, 1)
            res.digests.append((f"{self.name}/{label}", digest(json.dumps(result.to_dict()))))
            if result.issued_instructions != want:
                res.fail(label, f"issued {result.issued_instructions}, expected {want}")
                continue
            res.sim_instr += result.issued_instructions
        return res


def synthetic_draws(sm, seed: int):
    """The (profile, length, arch) of each synthetic kernel, from the seed.

    Every (profile, arch) pair gets the same number of kernels, and their
    lengths fall one in each equal slice of the length range, so that the
    mix of work, and with it every figure, varies little from seed to seed.
    The seed picks the length inside each slice and the order of kernels.
    """
    rng = random.Random(f"synthetic_mix/{seed}")
    cells = [(p.value, arch) for p in sm.kernel_model.Profile for arch in SYNTHETIC_ARCHS]
    per_cell = SYNTHETIC_KERNELS // len(cells)
    n = len(SYNTHETIC_LENGTHS)
    draws = [
        (profile, SYNTHETIC_LENGTHS[rng.randrange(j * n // per_cell, (j + 1) * n // per_cell)], arch)
        for profile, arch in cells
        for j in range(per_cell)
    ]
    rng.shuffle(draws)
    return draws


class SyntheticMix:
    """Many small generated kernels: text round trip, phase compile, three policies."""

    name = "synthetic_mix"

    def __init__(self, sm, seed: int, workdir: Path, draws=None):
        """``draws`` replaces the seeded (profile, length, arch) list."""
        self.sm = sm
        self.warp_width = sm.kernel_model.WARP_WIDTH
        if draws is None:
            draws = synthetic_draws(sm, seed)
        gen = sm.kernel_model.generate_synthetic_kernel
        self.kernels = [
            (profile, length, arch, gen(profile, length, SYNTHETIC_GEN_SEED))
            for profile, length, arch in draws
        ]

    def run_pass(self, tracer) -> PassResult:
        res = PassResult()
        km, pc, engine = self.sm.kernel_model, self.sm.phase_compiler, self.sm.engine
        for i, (profile, length, arch, kernel) in enumerate(self.kernels):
            what = f"{profile}/{length}/{arch}"
            outputs = []
            error = None
            with tracer.span("kernel"):
                t0 = clock()
                try:
                    compiled = pc.annotate_phases(km.parse_kernel(km.serialize_kernel(kernel)))
                except Exception as e:
                    error = f"{type(e).__name__}: {e}"
                res.timed[f"{i}/compile"] = (t0, clock())
                if error is None:
                    for policy in POLICIES:
                        t0 = clock()
                        try:
                            result = engine.run(compiled, policy, arch, seed=0)
                            t1 = clock()
                            text = json.dumps(result.to_dict())
                        except Exception as e:
                            outputs.append((policy, None, f"{type(e).__name__}: {e}"))
                            continue
                        res.timed[f"{i}/{policy}"] = (t0, clock())
                        res.launches[f"{i}/{policy}"] = (t0, t1, 1)
                        outputs.append((policy, result.issued_instructions, text))
            res.attempted += len(POLICIES)
            if error is not None:
                for policy in POLICIES:
                    res.fail(f"{what}/{policy}", error)
                continue
            spec = compiled.resource_spec
            want = expected_issued(spec.num_blocks, spec.threads_per_block, len(compiled.body),
                                   self.warp_width)
            for policy, issued, text in outputs:
                key = f"{what}/{policy}"
                if issued is None:
                    res.fail(key, text)
                    continue
                res.digests.append((f"{self.name}/{key}", digest(text)))
                if issued != want:
                    res.fail(key, f"issued {issued}, expected {want}")
                    continue
                res.sim_instr += issued
        return res


WORKLOADS = {w.name: w for w in (StaticSweep, ZoruaLarge, SyntheticMix)}
