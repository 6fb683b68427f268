"""Explicit exterior eigenfunctions on quantum graphs, with weighted-metric
decay certificates checked at desk scale."""

from .graph import (
    Edge,
    FamilyInfo,
    GraphValidationError,
    FamilyParameterError,
    MetricGraph,
    Vertex,
    build_graph,
    generate_family,
    load_graph_spec,
)
from .metrics import (
    AgmonMetricTable,
    PathSpec,
    compute_rho_a,
    edge_action_weight,
    insert_cut_points,
)
from .transfer import (
    ComplexSpectrumError,
    EigenPair2,
    SharedEigenvectorMatch,
    TransferMatrix,
    eig2,
    ladder_antisym_transfer,
    match_shared_eigenvector,
    millipede_transfer,
    vertex_edge_transfer,
)
from .eigenfunctions import (
    EdgeSolution,
    Eigenfunction,
    averaged_wave_function,
    canonical_path,
    construct,
    continuity_residual,
    edge_deriv,
    edge_eval,
    kirchhoff_residual,
    ode_residual,
    propagate,
)
from .verify import (
    DecayReport,
    MonotonicityResult,
    Multiplier,
    MultiplierSpec,
    constraint_margin,
    decay_report,
    fit_decay_rate,
    identity_check,
    monotonicity_check,
)

__version__ = "0.1.0"
