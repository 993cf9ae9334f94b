"""End-to-end acceptance checks, one test per criterion.

Each test prints a single [PASS] line (visible under ``pytest -s``); pytest
itself reports one pass/fail line per criterion under ``-v``.  Expensive
artifacts (corpus sweeps, the 1000-run randomized suite) are computed once
and shared between criteria through module-level caches.

Criteria covered, in order:
  01  mapping-table sizing is exact on the fermi preset
  02  threshold controller matches a hand-traced oracle on 25 cases
  03  baseline blocks-in-flight match the floor oracle and the register
      cliff appears exactly where blocks drop from 2 to 1
  04  virtualization caps per-step slowdowns at cliff steps and shrinks
      the performance range on every kernel with a baseline cliff
  05  warp-level management keeps the scratchpad cliff; virtualization
      removes it
  06  1000 randomized virtualized simulations all run to completion
  07  the same suite, in debug mode, reports zero accounting violations
  08  pinned-zero oversubscription gives exact 1.0 hit rates; the adaptive
      controller keeps register hit rate at or above 0.95 on the corpus
  09  worst-case porting loss (maximum over all ordered preset pairs,
      which is the convention this package reports) never favors the
      static baseline
  10  sweeps and simulations are byte-identical across reruns
  11  phase detection matches an independent brute-force scanner on 1000
      random kernels, and specifiers equal per-span maxima
"""

import json
import random
import time
from functools import lru_cache

from smvirt.coordinator import OversubscriptionConfig, adjust_o_thresh
from smvirt.corpus import RECOMMENDED_GRIDS, corpus_kernel, corpus_names
from smvirt.engine import run
from smvirt.harness import (
    detect_cliffs,
    emit_csv,
    emit_json,
    performance_range,
    porting_loss,
    run_sweep,
)
from smvirt.kernel_model import (
    Instruction,
    KernelSpec,
    Opcode,
    ResourceSpecification,
)
from smvirt.phase_compiler import annotate_phases, detect_phase_boundaries
from smvirt.policies import Policy
from smvirt.resource_maps import ResourceKind, get_arch, table_size_bits

ARCHS = ("fermi", "kepler", "maxwell")
POLICIES = ("baseline", "wlm", "zorua")


def _pass(num: int, text: str) -> None:
    print(f"[PASS] criterion {num:02d}: {text}")


@lru_cache(maxsize=None)
def _sweep(name: str, archs: tuple = ("fermi",), policies: tuple = POLICIES):
    kern = corpus_kernel(name)
    return run_sweep(kern, RECOMMENDED_GRIDS[name], archs=archs, policies=policies)


def _rows(result, arch: str, policy: str):
    return [r for r in result.rows if r.arch == arch and r.policy == policy]


# ---------------------------------------------------------------------------
# criterion 1: mapping-table sizing, exact


def test_01_mapping_table_sizing():
    fermi = get_arch("fermi")
    reg = table_size_bits(fermi, ResourceKind.REGISTER)
    scr = table_size_bits(fermi, ResourceKind.SCRATCHPAD)
    slot = table_size_bits(fermi, ResourceKind.WARP_SLOT)
    assert reg == 9216
    assert scr == 5376
    assert slot == 448
    assert reg // 8 == 1152 and scr // 8 == 672 and slot // 8 == 56
    _pass(1, f"fermi tables {reg}/{scr}/{slot} bits (register/scratch/slot)")


# ---------------------------------------------------------------------------
# criterion 2: threshold-controller oracle, 23 hand-traced cases


def test_02_controller_hand_traced_cases():
    # (current, capacity, step, d_idle, d_mem, expected).  Deltas compare
    #  strictly against STALL_DELTA_THRESHOLD (16); the result clamps to
    #  [0, capacity].
    cases = [
        # raise branch: idle stalls growing faster than memory stalls
        (25, 256, 10, 100, 0, 35),
        (25, 256, 10, 17, 0, 35),     # minimal winning delta
        (0, 256, 10, 50, 20, 10),
        (100, 256, 10, 118, 101, 110),
        (250, 256, 10, 400, 0, 256),  # clamp at capacity
        (256, 256, 10, 999, 0, 256),  # saturated high
        (120, 128, 10, 100, 0, 128),  # clamp at a smaller capacity
        (118, 128, 10, 100, 0, 128),  # lands exactly on cap
        (4, 48, 1, 40, 2, 5),         # unit step resource
        # dead zone: |delta| at or below the threshold changes nothing
        (25, 256, 10, 0, 0, 25),
        (25, 256, 10, 16, 0, 25),     # +16 is not > 16
        (25, 256, 10, 0, 16, 25),     # -16 is not > 16
        (25, 256, 10, 116, 100, 25),
        (0, 256, 10, 10, 5, 0),
        (256, 256, 10, 8, 8, 256),
        (300, 256, 10, 0, 0, 256),    # clamp applies in dead zone
        # lower branch: memory stalls growing faster than idle stalls
        (25, 256, 10, 0, 100, 15),
        (25, 256, 10, 0, 17, 15),     # minimal losing delta
        (10, 256, 10, 0, 100, 0),     # lands exactly on zero
        (5, 256, 10, 0, 100, 0),      # clamp at zero
        (0, 256, 10, 0, 999, 0),      # saturated low
        (35, 256, 10, 83, 100, 25),
        (4, 48, 1, 1, 40, 3),         # unit step resource
    ]
    assert len(cases) >= 20
    for cur, cap, step, d_idle, d_mem, want in cases:
        got = adjust_o_thresh(cur, cap, step, d_idle, d_mem)
        assert got == want, (cur, cap, step, d_idle, d_mem, got)
    _pass(2, f"{len(cases)} hand-traced controller cases reproduced exactly")


# ---------------------------------------------------------------------------
# criterion 3: baseline cliff existence and location


def test_03_baseline_cliff_existence_and_location():
    rows = _rows(_sweep("reg_cliff"), "fermi", "baseline")
    assert len(rows) == 5
    # independent floor-division oracle for a scratch-free kernel on fermi
    for row in rows:
        regs_fit = 32768 // (row.threads_per_block * row.regs_per_thread)
        slots_fit = 48 // (row.threads_per_block // 32)
        oracle = min(regs_fit, slots_fit, 8)
        assert row.blocks_in_flight_min == row.blocks_in_flight_max == oracle
    cliffs = detect_cliffs(rows, threshold=0.25)
    assert len(cliffs) == 1
    idx, jump = cliffs[0]
    assert jump >= 0.25
    # the flagged step is exactly the 2 -> 1 occupancy drop
    assert rows[idx].blocks_in_flight_max == 2
    assert rows[idx + 1].blocks_in_flight_max == 1
    assert (rows[idx].threads_per_block, rows[idx + 1].threads_per_block) == (512, 640)
    _pass(3, f"floor oracle holds at all 5 points; one cliff at 512->640, +{jump:.1%}")


# ---------------------------------------------------------------------------
# criterion 4: cliff mitigation by virtualization


def test_04_virtualization_mitigates_cliffs():
    kernels_with_cliffs = []
    for name in corpus_names():
        result = _sweep(name)
        base = _rows(result, "fermi", "baseline")
        virt = _rows(result, "fermi", "zorua")
        base_cliffs = detect_cliffs(base, threshold=0.25)
        if not base_cliffs:
            continue
        kernels_with_cliffs.append(name)
        # at every step where the baseline falls off a cliff, the
        # virtualized curve moves by at most 15%
        for idx, _ in base_cliffs:
            a, b = virt[idx].cycles, virt[idx + 1].cycles
            assert a is not None and b is not None
            slowdown = b / a - 1.0
            assert slowdown <= 0.15, (name, idx, slowdown)
        r_base = performance_range(base)
        r_virt = performance_range(virt)
        assert r_virt is not None and r_base is not None
        assert r_virt < r_base, (name, r_virt, r_base)
    assert "reg_cliff" in kernels_with_cliffs
    assert "scratch_cliff" in kernels_with_cliffs
    _pass(4, f"range shrinks and steps stay <=15% on {kernels_with_cliffs}")


# ---------------------------------------------------------------------------
# criterion 5: warp-level management keeps the scratchpad cliff


def test_05_wlm_retains_scratch_cliff():
    result = _sweep("scratch_cliff")
    wlm_cliffs = detect_cliffs(_rows(result, "fermi", "wlm"), threshold=0.25)
    virt_cliffs = detect_cliffs(_rows(result, "fermi", "zorua"), threshold=0.25)
    assert len(wlm_cliffs) >= 1
    assert len(virt_cliffs) == 0
    _pass(5, f"scratch sweep: {len(wlm_cliffs)} wlm cliffs, 0 under virtualization")


# ---------------------------------------------------------------------------
# criteria 6 and 7: randomized termination and accounting suite


def _random_kernel(rng: random.Random, tag: int) -> KernelSpec:
    body = []
    regs = rng.randint(4, 48)
    scratch = rng.choice([0, 0, 1024, 2048, 4096, 8192])
    max_regs, max_scratch = regs, scratch
    n = rng.randint(10, 40)
    for i in range(n):
        if i > 0 and rng.random() < 0.08:
            body.append(Instruction(Opcode.BARRIER, regs, scratch))
            continue
        if rng.random() < 0.05:
            regs = max(1, min(64, regs * 2 if rng.random() < 0.5 else regs // 2))
        else:
            regs = max(1, min(64, regs + rng.randint(-6, 6)))
        if scratch and rng.random() < 0.05:
            scratch = rng.choice([0, 1024, 2048, 4096, 8192])
        roll = rng.random()
        if roll < 0.70 or (roll < 0.85 and not scratch):
            op = Opcode.ALU
        elif roll < 0.80:
            op = Opcode.LD_GLOBAL
        elif roll < 0.85:
            op = Opcode.ST_GLOBAL
        elif roll < 0.95:
            op = Opcode.LD_SHARED
        else:
            op = Opcode.ST_SHARED
        body.append(Instruction(op, regs, scratch))
        max_regs = max(max_regs, regs)
        max_scratch = max(max_scratch, scratch)
    spec = ResourceSpecification(
        threads_per_block=32 * rng.randint(1, 16),
        regs_per_thread=max_regs,
        scratch_bytes_per_block=max_scratch,
        num_blocks=rng.randint(1, 40),
    )
    return KernelSpec(name=f"rand{tag}", resource_spec=spec, body=tuple(body))


@lru_cache(maxsize=1)
def _randomized_suite():
    """1000 virtualized runs in debug mode; returns (count, elapsed seconds).

    Debug mode re-checks table accounting every epoch and at exit, raising
    on any violation, so mere completion certifies the invariants.
    """
    rng = random.Random(1337)
    t0 = time.perf_counter()
    count = 0
    for i in range(1000):
        kern = _random_kernel(rng, i)
        arch = get_arch(rng.choice(ARCHS))
        if rng.random() < 0.2:
            oversub = OversubscriptionConfig(
                fixed_o_thresh_frac=rng.choice([0.25, 0.5, 1.0])
            )
        else:
            oversub = None
        compiled = annotate_phases(kern)
        res = run(compiled, Policy.ZORUA, arch=arch, seed=i, oversub=oversub, debug=True)
        spec = kern.resource_spec
        expected = spec.num_blocks * spec.warps_per_block * len(compiled.body)
        assert res.issued_instructions == expected, (i, kern.name)
        count += 1
    return count, time.perf_counter() - t0


def test_06_randomized_runs_terminate():
    count, elapsed = _randomized_suite()
    assert count == 1000
    assert elapsed < 600.0
    _pass(6, f"1000 randomized virtualized runs completed in {elapsed:.1f}s")


def test_07_accounting_invariants_hold():
    count, _ = _randomized_suite()
    assert count == 1000
    _pass(7, "zero accounting violations across the debug-mode suite")


# ---------------------------------------------------------------------------
# criterion 8: hit-rate degeneracy and adaptive floor


def test_08_hit_rates():
    pinned = OversubscriptionConfig(fixed_o_thresh_frac=0.0, guard_enabled=False)
    for name in corpus_names():
        kern = corpus_kernel(name)
        res = run(kern, Policy.ZORUA, arch="fermi", oversub=pinned)
        assert res.reg_hit_rate == 1.0, (name, res.reg_hit_rate)
        assert res.scratch_hit_rate == 1.0, (name, res.scratch_hit_rate)
        assert res.slot_hit_rate == 1.0, (name, res.slot_hit_rate)
    worst = 1.0
    for name in corpus_names():
        kern = corpus_kernel(name)
        res = run(kern, Policy.ZORUA, arch="fermi")
        assert res.reg_hit_rate >= 0.95, (name, res.reg_hit_rate)
        worst = min(worst, res.reg_hit_rate)
    _pass(8, f"pinned-zero rates all exactly 1.0; adaptive worst reg rate {worst:.4f}")


# ---------------------------------------------------------------------------
# criterion 9: porting-loss direction


def test_09_porting_loss_direction():
    cliff_kernels = ("reg_cliff", "scratch_cliff", "mixed_phase")
    for name in cliff_kernels:
        result = _sweep(name, archs=ARCHS, policies=("baseline", "zorua"))
        losses = {}
        for policy in ("baseline", "zorua"):
            pair_losses = []
            for src in ARCHS:
                for dst in ARCHS:
                    if src == dst:
                        continue
                    loss = porting_loss(
                        _rows(result, src, policy), _rows(result, dst, policy)
                    )
                    assert loss is not None
                    pair_losses.append(loss)
            losses[policy] = max(pair_losses)
        assert losses["zorua"] <= losses["baseline"], (name, losses)
    _pass(9, "max-over-pairs porting loss never favors the baseline")


# ---------------------------------------------------------------------------
# criterion 10: byte-identical reruns


def test_10_determinism():
    kern = corpus_kernel("reg_cliff")
    grid = RECOMMENDED_GRIDS["reg_cliff"]
    first = run_sweep(kern, grid, archs=("fermi",), policies=POLICIES)
    second = run_sweep(kern, grid, archs=("fermi",), policies=POLICIES)
    assert emit_csv(first) == emit_csv(second)
    assert emit_json(first) == emit_json(second)
    a = run(corpus_kernel("membound"), Policy.ZORUA, arch="fermi", seed=7)
    b = run(corpus_kernel("membound"), Policy.ZORUA, arch="fermi", seed=7)
    assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())
    _pass(10, "sweep CSV/JSON and simulation dumps byte-identical on rerun")


# ---------------------------------------------------------------------------
# criterion 11: phase-compiler oracle equivalence


def _scan_boundaries(body, threshold: float, min_span: int):
    """Brute-force reference scanner, written against the documented rule."""

    def moved(ref: int, val: int) -> bool:
        if val == ref:
            return False
        if ref == 0:
            return True
        return abs(val - ref) / ref >= threshold

    out = []
    last = 0
    ref_r = body[0].live_regs_after
    ref_s = body[0].live_scratch_after
    for i in range(1, len(body)):
        ins = body[i]
        if ins.opcode is Opcode.BARRIER:
            hit = True
        else:
            hit = (i - last) >= min_span and (
                moved(ref_r, ins.live_regs_after)
                or moved(ref_s, ins.live_scratch_after)
            )
        if hit:
            out.append(i)
            last = i
            ref_r = ins.live_regs_after
            ref_s = ins.live_scratch_after
    return out


def test_11_phase_oracle_equivalence():
    rng = random.Random(2024)
    for i in range(1000):
        kern = _random_kernel(rng, i)
        threshold = rng.choice([0.25, 0.25, 0.5, 0.1])
        min_span = rng.choice([10, 10, 4, 1])
        phases = detect_phase_boundaries(kern, threshold, min_span)
        expect = _scan_boundaries(kern.body, threshold, min_span)
        assert [p.start for p in phases[1:]] == expect, (i, threshold, min_span)
        # specifiers carry per-span maxima of the raw body
        edges = [0] + expect + [len(kern.body)]
        for phase, (lo, hi) in zip(phases, zip(edges, edges[1:])):
            assert phase.start == lo and phase.end == hi
            assert phase.max_live_regs == max(
                ins.live_regs_after for ins in kern.body[lo:hi]
            )
            assert phase.max_live_scratch == max(
                ins.live_scratch_after for ins in kern.body[lo:hi]
            )
        compiled = annotate_phases(kern, threshold, min_span)
        payloads = [
            ins.phase_payload
            for ins in compiled.body
            if ins.opcode is Opcode.PHASE_SPEC
        ]
        open_phases = [p for p in phases if not p.opened_by_barrier]
        assert len(payloads) == len(open_phases)
        for payload, phase in zip(payloads, open_phases):
            assert payload.live_regs == phase.max_live_regs
            assert payload.scratch_bytes == phase.max_live_scratch
    _pass(11, "1000 random kernels: boundaries and specifiers match the oracle")
