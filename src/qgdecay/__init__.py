"""Explicit exterior eigenfunctions on quantum graphs, with weighted-metric
decay certificates checked at desk scale."""

from .graph import (
    Edge,
    FamilyInfo,
    GraphPoint,
    GraphValidationError,
    FamilyParameterError,
    MetricGraph,
    Vertex,
    build_graph,
    generate_family,
    load_graph_spec,
    truncate,
)
from .metrics import (
    AgmonMetricTable,
    PathSpec,
    compute_rho_a,
    distance_orientation,
    edge_action_weight,
    eval_arc,
    eval_rho_a,
    f_ave,
    insert_cut_points,
    rho_path,
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
    closed_form_edge_l2,
    constraint_margin,
    decay_report,
    fit_decay_rate,
    identity_check,
    monotonicity_check,
    vertex_samples,
)

__version__ = "0.1.0"
