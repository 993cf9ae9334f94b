"""Cycle-approximate simulation of SM on-chip resource virtualization.

The package models one GPU streaming multiprocessor's register file,
scratchpad, and warp slots as virtualized resources: kernels declare
per-phase demands, a coordinator admits and parks warps against physical
capacity plus a bounded swap budget, and a threshold controller retunes
the budget from observed stall mix each epoch.  Baseline and warp-level
management policies run the same kernels for comparison, and a sweep
harness measures performance cliffs and cross-hardware porting loss.
"""

from .corpus import CORPUS, RECOMMENDED_GRIDS, corpus_kernel, corpus_names, export_corpus
from .coordinator import Coordinator, OversubscriptionConfig, adjust_o_thresh
from .engine import (
    DEFAULT_CYCLE_CAP,
    EpochStats,
    NonTerminationError,
    SimResult,
    UtilizationReport,
    run,
)
from .harness import (
    GridSpec,
    GridSyntaxError,
    SweepResult,
    SweepRow,
    detect_cliffs,
    emit_csv,
    emit_json,
    parse_grid,
    parse_json,
    performance_range,
    porting_loss,
    run_sweep,
    write_csv,
    write_json,
)
from .kernel_model import (
    Instruction,
    KernelError,
    KernelInvariantError,
    KernelSpec,
    KernelSyntaxError,
    Opcode,
    PhaseSpecifier,
    Profile,
    ResourceSpecification,
    generate_synthetic_kernel,
    load_kernel,
    parse_kernel,
    save_kernel,
    serialize_kernel,
)
from .phase_compiler import Phase, annotate_phases, detect_phase_boundaries
from .policies import KernelUnrunnableError, Policy, baseline_blocks_in_flight, wlm_is_runnable
from .registry import WarpState
from .resource_maps import (
    ARCHITECTURES,
    ArchConfig,
    MappingTable,
    Placement,
    ResourceKind,
    get_arch,
    reg_sets_for,
    scratch_sets_for,
    table_size_bits,
)

__version__ = "0.1.0"

__all__ = [
    "ARCHITECTURES",
    "ArchConfig",
    "CORPUS",
    "Coordinator",
    "DEFAULT_CYCLE_CAP",
    "EpochStats",
    "GridSpec",
    "GridSyntaxError",
    "Instruction",
    "KernelError",
    "KernelInvariantError",
    "KernelSpec",
    "KernelSyntaxError",
    "KernelUnrunnableError",
    "MappingTable",
    "NonTerminationError",
    "Opcode",
    "OversubscriptionConfig",
    "Phase",
    "PhaseSpecifier",
    "Placement",
    "Policy",
    "Profile",
    "RECOMMENDED_GRIDS",
    "ResourceKind",
    "ResourceSpecification",
    "SimResult",
    "SweepResult",
    "SweepRow",
    "UtilizationReport",
    "WarpState",
    "adjust_o_thresh",
    "annotate_phases",
    "baseline_blocks_in_flight",
    "corpus_kernel",
    "corpus_names",
    "detect_cliffs",
    "detect_phase_boundaries",
    "emit_csv",
    "emit_json",
    "export_corpus",
    "generate_synthetic_kernel",
    "get_arch",
    "load_kernel",
    "parse_grid",
    "parse_json",
    "parse_kernel",
    "performance_range",
    "porting_loss",
    "reg_sets_for",
    "run",
    "run_sweep",
    "save_kernel",
    "scratch_sets_for",
    "serialize_kernel",
    "table_size_bits",
    "wlm_is_runnable",
    "write_csv",
    "write_json",
]
