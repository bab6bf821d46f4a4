"""splr: sparse + low-rank matrix decomposition with incoherence
diagnostics, recovery-condition checks, dual certificates, and error-bound
oracles."""

from .certificate import (
    BOUND_NAMES,
    DualCertificate,
    build_certificate,
    subgradient_check,
    verify_bounds,
)
from .incoherence import (
    ConditionVerdict,
    IncoherenceProfile,
    PreconditionError,
    check_conditions,
    check_identifiability,
    optimal_rho,
    profile,
    proposition1_bounds,
    simplified_parameters,
)
from .matrices import (
    FactorizationError,
    RandomStream,
    SvdFactors,
    frobenius_inner,
    gaussian_matrix,
    mix_seed,
    singular_values,
    svd,
)
from .matrixio import MatrixIOError, read_matrix_csv, write_matrix_csv
from .norms import entrywise_norm, flat_norm, induced_norm, sharp_norm, trace_norm
from .prox import (
    clip_entries,
    project_l1_ball,
    project_nuclear_ball,
    prox_l1_box,
    soft_threshold,
    svt,
)
from .solvers import (
    ConstrainedConfig,
    RegularizedConfig,
    SolveReport,
    bound_theorem2,
    bound_theorem3,
    recovery_errors,
    solve_constrained,
    solve_regularized,
)
from .subspaces import (
    NeumannNonConvergence,
    RowColSpace,
    SupportSet,
    TargetPair,
    neumann_inverse,
    orth_matrix,
    project_support,
    project_T,
    sign_matrix,
)
from .sweep import SweepSpec, run_sweep, write_sweep_outputs
from .synth import GeneratedInstance, InstanceSpec, gen_instance, gen_subspaces, gen_support

__version__ = "0.1.0"
