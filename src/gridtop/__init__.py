"""Linearized power flow on radial distribution forests and bottom-up
reconstruction of the operational topology from voltage second moments."""

from .errors import (
    AssumptionViolation,
    ConvergenceError,
    DomainError,
    GridTopError,
    InfeasibleStateError,
    ModelError,
    ParseError,
    StructureError,
)
from .grid import (
    ForestConfig,
    GridGraph,
    GridNode,
    LineEdge,
    ReducedIncidence,
    WeightedLaplacians,
    build_reduced_incidence,
    inverse_incidence_entry,
    laplacian_inverse_entry,
    laplacian_row_difference,
    path_sum_matrix,
    weighted_laplacians,
)
from .powerflow import (
    DistFlowResult,
    InjectionVector,
    VoltageSamples,
    VoltageState,
    dc_resistive_solve,
    distflow_solve,
    distflow_solve_many,
    lcpf_response,
    lcpf_solve,
    lcpf_solve_many,
)
from .moments import (
    InjectionBatch,
    InjectionModel,
    MomentSet,
    analytic_moment_set,
    analytic_sigma_eps,
    analytic_sigma_theta,
    analytic_sigma_theta_eps,
    assumption1_violations,
    default_model,
    empirical_moments,
    expected_sq_diff,
    sample_injections,
    verify_moment_ordering,
)
from .learner import LearnerConfig, ReconstructionResult, TraceRecord, reconstruct, relative_error

__version__ = "0.1.0"
