"""qfact: finite factual probability laws over a hidden quantum oracle.

Simulate generate-then-measure successions, judge the block stability of
the resulting frequency laws, organize them into probability trees,
reconstruct a predictively equivalent state expansion from the measured
statistics alone, and run desk-scale pilot-wave trace experiments.
"""

from .errors import (
    DestroyedSpecimenError,
    DestructiveAnnihilationError,
    DimensionMismatchError,
    EmptyLawError,
    GuidedCodingUnavailableError,
    InconsistentLawsError,
    InsufficientBlocksError,
    NodeSingularityError,
    QfactError,
    ScenarioError,
    UnknownLabelError,
    UnlinkedObservableError,
)
from .finprob import FactualLaw, StabilityVerdict, accumulate, check_convergence, frequencies
from .genesis import (
    CodedOutcome,
    Composed,
    Evolved,
    GenerationOp,
    MultiSystem,
    Simple,
    Specimen,
    generate,
    mes_coding_guided,
    mes_coding_nc,
    run_laws,
    run_successions,
    time_of_flight,
)
from .hilbert import (
    HamiltonianSpec,
    ObservableSpec,
    OracleState,
    TransformMatrix,
    born_law,
    compose_superposition,
    dirac_transform,
    evolve,
    transform_between,
)
from .probtree import CompatibilityGroup, MetaCorrelationRecord, ProbabilityTree, build_tree, meta_correlation, partition_branches
from .reconstruct import (
    ExpansionSet,
    RetrievalConfig,
    RetrievalReport,
    StateReconstructor,
    amplitudes_from_law,
    assemble_equivalent,
    predict_heldout,
    retrieve_phases,
)
from .dbb import (
    ExpConfig,
    PlaneWaveSum,
    TraceRecord,
    TwoWaveState,
    amplitude,
    extended_born_check,
    guided_momentum,
    guided_velocity,
    ionization_kick,
    quantum_force,
    quantum_potential,
    simulate_exp,
    trace_angles,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
