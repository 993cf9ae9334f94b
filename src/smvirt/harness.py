"""Parameter sweeps with cliff detection and cross-hardware loss analysis.

A grid file describes a cartesian sweep in the same line-oriented format as
kernel files:

    range <param>=<lo>:<hi>:<step>   sweep an axis (hi inclusive when hit)
    list <param>=<v1>,<v2>,...       sweep explicit values
    set blocks=<n>                   fix the launch size
    set total_threads=<n>            derive blocks as total/threads per point

Sweepable params: threads_per_block, regs_per_thread, scratch.  A grid
may hold at most MAX_GRID_POINTS points, counted before any axis is
built, so a short line cannot ask for unbounded memory.  Points
whose resource declaration cannot carry the kernel body (liveness above a
cap) are skipped with a warning on stderr; points a policy cannot run at
all are kept as rows with infinite cycles ("INF" in CSV) so grids stay
rectangular.  Each distinct policies.launch_key, all a launch reads of
its arch and declaration, is simulated once per run_sweep call, whatever
the policy, and its row reused for every point that shares it: under
baseline and wlm across all archs of equal timing, as the three presets
are; under zorua, which reads nothing of the declaration, on each arch a
registers or scratchpad axis is one simulation.
Output is byte-stable: rerunning the same sweep reproduces the CSV and
JSON exactly.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import asdict, dataclass, fields, replace
from typing import Optional, Sequence, Union

from .engine import DEFAULT_CYCLE_CAP, NonTerminationError, SimResult, run
from .kernel_model import KernelInvariantError, KernelSpec, ResourceSpecification
from .phase_compiler import annotate_phases
from .policies import KernelUnrunnableError, Policy, launch_key
from .resource_maps import ArchConfig, get_arch

_AXIS_KEYS = ("threads_per_block", "regs_per_thread", "scratch")
_SET_KEYS = ("blocks", "total_threads")
# most points an axis, or the product of all axes, may hold; the largest
# recommended grid has 11
MAX_GRID_POINTS = 100_000


class GridSyntaxError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"grid line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class GridSpec:
    threads_per_block: Optional[tuple[int, ...]] = None
    regs_per_thread: Optional[tuple[int, ...]] = None
    scratch: Optional[tuple[int, ...]] = None
    blocks: Optional[int] = None
    total_threads: Optional[int] = None


def parse_grid(text: str) -> GridSpec:
    axes: dict[str, tuple[int, ...]] = {}
    fixed: dict[str, int] = {}
    points = 1
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2 or "=" not in tokens[1]:
            raise GridSyntaxError(line_no, "expected: <directive> <key>=<value>")
        directive = tokens[0]
        key, _, value = tokens[1].partition("=")
        if directive in ("range", "list"):
            if key not in _AXIS_KEYS:
                raise GridSyntaxError(
                    line_no, f"cannot sweep {key!r}; axes are {', '.join(_AXIS_KEYS)}"
                )
            if key in axes:
                raise GridSyntaxError(line_no, f"duplicate axis {key!r}")
            if directive == "range":
                parts = value.split(":")
                if len(parts) != 3:
                    raise GridSyntaxError(line_no, "range needs <lo>:<hi>:<step>")
                try:
                    lo, hi, step = (int(p) for p in parts)
                except ValueError:
                    raise GridSyntaxError(line_no, "range bounds must be integers") from None
                if step < 1 or hi < lo:
                    raise GridSyntaxError(line_no, "need step >= 1 and hi >= lo")
                values = range(lo, hi + 1, step)
                size = (hi - lo) // step + 1  # len(values) overflows past sys.maxsize
            else:
                try:
                    values = tuple(int(v) for v in value.split(","))
                except ValueError:
                    raise GridSyntaxError(line_no, "list values must be integers") from None
                size = len(values)
            points *= size
            if points > MAX_GRID_POINTS:
                raise GridSyntaxError(
                    line_no, f"grid would have more than {MAX_GRID_POINTS} points"
                )
            axes[key] = tuple(values)
            least = 0 if key == "scratch" else 1
            if min(axes[key]) < least:
                raise GridSyntaxError(line_no, f"values of {key!r} must be >= {least}")
        elif directive == "set":
            if key not in _SET_KEYS:
                raise GridSyntaxError(
                    line_no, f"cannot set {key!r}; options are {', '.join(_SET_KEYS)}"
                )
            if key in fixed:
                raise GridSyntaxError(line_no, f"duplicate set {key!r}")
            try:
                fixed[key] = int(value)
            except ValueError:
                raise GridSyntaxError(line_no, f"value of {key!r} must be an integer") from None
            if fixed[key] < 1:
                raise GridSyntaxError(line_no, f"value of {key!r} must be >= 1")
            if "blocks" in fixed and "total_threads" in fixed:
                raise GridSyntaxError(line_no, "blocks and total_threads are mutually exclusive")
        else:
            raise GridSyntaxError(line_no, f"unknown directive {directive!r}")
    # the grid keys are GridSpec's field names
    return GridSpec(**axes, **fixed)


def grid_points(grid: GridSpec, base: ResourceSpecification) -> list[ResourceSpecification]:
    """Expand a grid against a kernel's declaration, in axis-major order."""
    threads_axis = grid.threads_per_block or (base.threads_per_block,)
    regs_axis = grid.regs_per_thread or (base.regs_per_thread,)
    scratch_axis = grid.scratch or (base.scratch_bytes_per_block,)
    points = []
    for threads, regs, scratch in itertools.product(threads_axis, regs_axis, scratch_axis):
        if grid.total_threads is not None:
            blocks = grid.total_threads // threads
        elif grid.blocks is not None:
            blocks = grid.blocks
        else:
            blocks = base.num_blocks
        points.append(
            ResourceSpecification(
                threads_per_block=threads,
                regs_per_thread=regs,
                scratch_bytes_per_block=scratch,
                num_blocks=blocks,
            )
            if blocks > 0
            else None
        )
    return points


@dataclass(frozen=True)
class SweepRow:
    """One (arch, policy, grid point) result; the defaults describe a point
    the policy cannot run.  Field order is the CSV column order."""

    arch: str
    policy: str
    threads_per_block: int
    regs_per_thread: int
    scratch_bytes_per_block: int
    num_blocks: int
    cycles: Optional[int] = None  # None marks an unrunnable point (INF in CSV)
    reg_hit_rate: float = 1.0
    scratch_hit_rate: float = 1.0
    slot_hit_rate: float = 1.0
    mean_schedulable_warps: float = 0.0
    blocks_in_flight_min: int = 0
    blocks_in_flight_max: int = 0
    guard_admissions: int = 0
    issued_instructions: int = 0

    @property
    def performance(self) -> Optional[float]:
        if self.cycles is None:
            return None
        return 1.0 / self.cycles


def result_row(res: SimResult) -> SweepRow:
    """Flatten one simulation result into a sweep row.

    Each field is the result's attribute of the same name, or its spec's.
    Float fields are rounded to the 6 decimals the emitters print, so a
    row survives a CSV or JSON round trip unchanged.
    """
    spec = asdict(res.spec)
    values = {}
    for f in fields(SweepRow):
        v = spec[f.name] if f.name in spec else getattr(res, f.name)
        values[f.name] = round(v, 6) if isinstance(v, float) else v
    return SweepRow(**values)


def unrunnable_row(arch: str, policy: str, p: ResourceSpecification) -> SweepRow:
    return SweepRow(arch=arch, policy=policy, **asdict(p))


@dataclass(frozen=True)
class SweepResult:
    kernel: str
    archs: tuple[str, ...]
    policies: tuple[str, ...]
    rows: tuple[SweepRow, ...]
    skipped: tuple[str, ...]

    def rows_for(self, arch: str, policy: str) -> list[SweepRow]:
        return [r for r in self.rows if r.arch == arch and r.policy == policy]


def _coerce_archs(archs) -> list[ArchConfig]:
    return [get_arch(a) if isinstance(a, str) else a for a in archs]


def _coerce_policies(policies) -> list[Policy]:
    return [Policy.from_name(p) if isinstance(p, str) else p for p in policies]


def run_sweep(
    kernel: KernelSpec,
    grid: Union[GridSpec, str],
    archs: Sequence[Union[str, ArchConfig]] = ("fermi",),
    policies: Sequence[Union[str, Policy]] = tuple(p.value for p in Policy),
    *,
    cycle_cap: int = DEFAULT_CYCLE_CAP,
) -> SweepResult:
    """Run every (arch, policy, grid point) combination of one kernel.

    The kernel is compiled once up front, so run() does not compile it at
    each point: compiling reg_cliff took about 80 us, about 2% of a mean
    recommended-grid launch (one Xeon core).  Across all archs and
    policies, each distinct launch_key is simulated once per call.  A
    later point with the same key, on the same arch or another, under the
    same policy or another, takes the first one's row with its own arch,
    policy and declaration, and a point launch_key refuses becomes an
    unrunnable row without a simulation.  Nothing is kept between calls.
    A point that does not terminate raises NonTerminationError naming its
    arch, policy and point.  An empty arch or policy list, or one that
    names an arch or a policy twice, raises ValueError: a repeated arch,
    told apart by name as the rows are, would have its rows read as one
    grid.
    """
    if isinstance(grid, str):
        grid = parse_grid(grid)
    arch_list = _coerce_archs(archs)
    policy_list = _coerce_policies(policies)
    listed = {"arch": [a.name for a in arch_list], "policy": [q.value for q in policy_list]}
    for kind, names in listed.items():
        if not names:
            raise ValueError(f"a sweep needs at least one {kind}")
        if len(set(names)) < len(names):
            twice = next(n for n in names if names.count(n) > 1)
            raise ValueError(f"{kind} {twice!r} is listed twice")
    compiled = kernel if kernel.is_compiled else annotate_phases(kernel)

    valid: list[KernelSpec] = []
    skipped: list[str] = []
    for point in grid_points(grid, kernel.resource_spec):
        if point is None:
            msg = "a grid point yields zero blocks"
        else:
            try:
                valid.append(replace(compiled, resource_spec=point))
                continue
            except KernelInvariantError as e:
                msg = (
                    f"skipping point threads={point.threads_per_block} "
                    f"regs={point.regs_per_thread} scratch={point.scratch_bytes_per_block}: {e}"
                )
        skipped.append(msg)
        print(f"warning: {msg}", file=sys.stderr)

    rows: list[SweepRow] = []
    # rows by launch_key under every arch and policy; every point runs one body
    done: dict[tuple, SweepRow] = {}
    for arch in arch_list:
        for policy in policy_list:
            for k in valid:
                p = k.resource_spec
                try:
                    key = launch_key(policy, k, arch)
                except KernelUnrunnableError:
                    rows.append(unrunnable_row(arch.name, policy.value, p))
                    continue
                row = done.get(key)
                if row is None:
                    try:
                        row = done[key] = result_row(run(k, policy, arch, cycle_cap=cycle_cap))
                    except NonTerminationError as e:
                        raise NonTerminationError(
                            f"{arch.name} {policy.value} threads={p.threads_per_block} "
                            f"regs={p.regs_per_thread} scratch={p.scratch_bytes_per_block} "
                            f"blocks={p.num_blocks}: {e}"
                        ) from e
                rows.append(replace(row, arch=arch.name, policy=policy.value, **asdict(p)))
    return SweepResult(
        kernel=kernel.name,
        archs=tuple(a.name for a in arch_list),
        policies=tuple(p.value for p in policy_list),
        rows=tuple(rows),
        skipped=tuple(skipped),
    )


# -- analysis ---------------------------------------------------------------


def performance_range(rows: Sequence[SweepRow]) -> Optional[float]:
    """Spread of 1/cycles across runnable points: 1 - worst/best.

    Undefined (None) with fewer than two runnable points.
    """
    perfs = [r.performance for r in rows if r.cycles is not None]
    if len(perfs) < 2:
        return None
    return 1.0 - min(perfs) / max(perfs)


def detect_cliffs(
    rows: Sequence[SweepRow], threshold: float = 0.25
) -> list[tuple[int, float]]:
    """Adjacent grid steps where cycle counts jump by more than threshold.

    Returns (index, fractional_increase) per cliff, where the jump happens
    between rows[index] and rows[index + 1].  A runnable point followed by
    an unrunnable one is an unbounded cliff (math.inf); nothing past an
    unrunnable point counts, as there is no level to increase from.
    """
    cliffs: list[tuple[int, float]] = []
    for i in range(len(rows) - 1):
        a, b = rows[i], rows[i + 1]
        if a.cycles is None:
            continue
        if b.cycles is None:
            cliffs.append((i, math.inf))
            continue
        increase = b.cycles / a.cycles - 1.0
        if increase > threshold:
            cliffs.append((i, increase))
    return cliffs


def porting_loss(
    src_rows: Sequence[SweepRow],
    dst_rows: Sequence[SweepRow],
    near_best: float = 0.95,
) -> Optional[float]:
    """Worst performance drop when moving near-best tunings across hardware.

    Both row sequences must cover the same grid in the same order.  Rows
    are normalized to their own architecture's best; every source point
    within 5% of the source best is a candidate tuning, and its loss is
    how far the destination's normalized performance at the same point
    falls below the source's.  A candidate the destination cannot run at
    all loses everything (1.0 at the source's best point).  Undefined
    (None) when the source has no runnable points.
    """
    if len(src_rows) != len(dst_rows):
        raise ValueError("row sequences cover different grids")
    for s, d in zip(src_rows, dst_rows):
        if (s.threads_per_block, s.regs_per_thread, s.scratch_bytes_per_block) != (
            d.threads_per_block,
            d.regs_per_thread,
            d.scratch_bytes_per_block,
        ):
            raise ValueError("row sequences cover different grids")
    src_perfs = [r.performance for r in src_rows]
    dst_perfs = [r.performance for r in dst_rows]
    src_best = max((p for p in src_perfs if p is not None), default=None)
    if src_best is None:
        return None
    dst_best = max((p for p in dst_perfs if p is not None), default=None)
    worst = 0.0
    for sp, dp in zip(src_perfs, dst_perfs):
        if sp is None:
            continue
        src_norm = sp / src_best
        if src_norm < near_best:
            continue
        dst_norm = 0.0 if (dp is None or dst_best is None) else dp / dst_best
        worst = max(worst, max(0.0, src_norm - dst_norm))
    return worst


# -- emission ---------------------------------------------------------------

CSV_COLUMNS = tuple(f.name for f in fields(SweepRow))


def format_cell(value) -> str:
    """CSV text of one row value: floats with six decimals, None (unrunnable
    cycles) as INF."""
    if value is None:
        return "INF"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def emit_csv(result: SweepResult) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in result.rows:
        lines.append(",".join(format_cell(getattr(row, col)) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def emit_json(result: SweepResult) -> str:
    series = []
    for arch in result.archs:
        for policy in result.policies:
            rows = result.rows_for(arch, policy)
            rng = performance_range(rows)
            series.append(
                {
                    "arch": arch,
                    "policy": policy,
                    "performance_range": None if rng is None else round(rng, 6),
                    "cliff_indices": [i for i, _ in detect_cliffs(rows)],
                }
            )
    doc = {
        "kernel": result.kernel,
        "archs": list(result.archs),
        "policies": list(result.policies),
        "rows": [
            {col: getattr(r, col) for col in CSV_COLUMNS} for r in result.rows
        ],
        "series": series,
        "skipped": list(result.skipped),
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_json(text: str) -> SweepResult:
    """Rebuild a SweepResult from emit_json output (exact round trip)."""
    doc = json.loads(text)
    rows = tuple(SweepRow(**fields) for fields in doc["rows"])
    return SweepResult(
        kernel=doc["kernel"],
        archs=tuple(doc["archs"]),
        policies=tuple(doc["policies"]),
        rows=rows,
        skipped=tuple(doc["skipped"]),
    )


def write_csv(result: SweepResult, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(emit_csv(result))


def write_json(result: SweepResult, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(emit_json(result))
