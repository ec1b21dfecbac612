"""Linearized power flow on radial distribution forests and bottom-up
reconstruction of the operational topology from voltage second moments."""

from .errors import (
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
    path_sum_matrix,
)
from .powerflow import (
    DistFlowResult,
    VoltageSamples,
    distflow_solve,
    distflow_solve_many,
    lcpf_response,
    lcpf_solve_many,
)
from .moments import (
    InjectionBatch,
    InjectionModel,
    MomentSet,
    analytic_moment_set,
    assumption1_violations,
    default_model,
    empirical_moments,
    sample_injections,
)
from .learner import LearnerConfig, ReconstructionResult, TraceRecord, reconstruct, relative_error

__version__ = "0.1.0"
