"""Exact finite models of rank-one towers with group-extension cocycles.

The package builds cutting-and-stacking tower schedules, decorates them with
cocycles into a semidirect product built from a finite abelian module, and
analyzes the resulting Koopman components as phased permutations:
closed-form spectra read off the schedule, weak-limit probes, correlation
decay and spectral-multiplicity bookkeeping with algebraic disjointness
certificates.
"""

from .cf_builder import (
    CFSchedule,
    CFStage,
    DeltaBlock,
    build_schedule,
    concat_delta_blocks,
    cut_stage,
    validate,
)
from .cocycle_engine import (
    CocycleStageMaps,
    CoordinateWord,
    SemidirectContext,
    StageLabel,
    TowerModel,
    canonical_word,
    evaluate_cocycle,
    stage_maps,
)
from .errors import CfspectraError
from .finite_algebra import (
    Character,
    CyclotomicSum,
    FiniteAbelianGroup,
    GroupAutomorphism,
    ModuleAction,
    cyclo_equal,
    dual_characters,
    orbit,
    orbit_average,
    orbit_trace_counts,
)
from .koopman_lab import (
    PhasedCycleOperator,
    build_component,
    correlation_decay,
    disjointness_certificate,
    disjointness_certificates,
    loop_product,
    multiplicity_report,
    stage_probes,
    weak_limit_probe,
)
from .module_factory import (
    AlgebraicTriple,
    CompactTower,
    DualityRecord,
    assemble_triple,
    compactify,
    dualize,
    orbit_block,
)
from .session import Session, SessionConfig, load_bundle, save_bundle, synth

__version__ = "0.1.0"
