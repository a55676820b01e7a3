"""Newton methods with gradient regularization for composite convex problems
whose smooth part is quasi-self-concordant.

Three solvers share one oracle contract: the primal gradient-regularized
Newton iteration (constant or adaptive weight), the dual Newton method
(inexact proximal point with pure-Newton inner loops), and the accelerated
contracting proximal-point scheme.  A problem zoo ships analytic oracles with
certified quasi-self-concordance constants, and the harness reproduces the
methods' convergence guarantees numerically at desk scale.
"""

from .accelerated import (
    AccelConfig,
    AccelResult,
    AccelStatus,
    ParameterError,
    solve_accelerated,
    verify_accel_potential,
    verify_accel_rate,
)
from .composite import (
    CompositeTerm,
    MaxInnerIterationsError,
    StepResult,
    StepState,
    newton_step,
    selected_subgradient,
    verify_step_bound,
)
from .dual import (
    DualConfig,
    DualResult,
    DualStatus,
    check_inner_quadratic,
    solve_dual,
    verify_dual_guarantee,
    verify_dual_rate,
)
from .harness import (
    CountingOracle,
    InsufficientDataError,
    ReferenceNotConvergedError,
    ReferenceSolution,
    RunConfigError,
    check_primal_rate_envelope,
    check_primal_trace,
    compute_reference,
    fit_linear_rate,
    observed_diameter,
    run_benchmark,
    run_instance_checks,
    run_solve,
    run_verify,
)
from .metric import (
    Metric,
    NonFiniteError,
    SingularSystemError,
    local_norm,
    min_generalized_eigenvalue,
    regularized_solve,
)
from .oracles import (
    QscCheckReport,
    SmoothOracle,
    add_oracles,
    affine_substitute,
    check_function_bounds,
    check_gradient,
    check_gradient_bound,
    check_hessian,
    check_hessian_stability,
    check_qsc,
    contract_oracle,
    phi,
    scale_oracle,
    with_qsc_constant,
)
from .primal import (
    AdaptiveSearchError,
    LocalQuadraticReport,
    PrimalConfig,
    PrimalResult,
    PrimalStatus,
    adaptive_sigma_search,
    check_local_quadratic,
    eta_measure,
    solve_primal,
)
from .problems import (
    DimensionError,
    EvaluationOverflowWarning,
    MatrixBalancingObjective,
    MatrixScalingObjective,
    ParseError,
    QuadraticObjective,
    SeparableObjective,
    SoftMaxObjective,
    generate_synthetic,
    gram_metric,
    load_design_matrix,
    load_matrix,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
