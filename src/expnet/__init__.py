"""Exact two-point interpolation with matrix-exponential networks.

The core result: a three-layer network f(X) = W3 expm(W2 expm(W1 X))
whose activation is the matrix exponential can fit two data/label pairs
of invertible matrices in closed form, no training required. The package
provides the construction (:mod:`expnet.solver`), its exp/log kernels
(:mod:`expnet.matfuncs`), and a gradient-descent experiment showing that
entry-wise activations lack this power (:mod:`expnet.experiment`).
"""

from .errors import (
    ActivationSingularError,
    ComplexInputError,
    ConvergenceError,
    DimensionError,
    ExpnetError,
    IllConditionedError,
    InstanceRejectedError,
    MatrixFormatError,
    MaxResampleError,
    NearSingularError,
    SingularInputError,
)
from .experiment import (
    ACTIVATIONS,
    IDENTITY,
    RELU,
    SIGMOID,
    Activation,
    ExperimentConfig,
    ExperimentTrace,
    SeedRun,
    apply_activation,
    baseline_denominator,
    run_experiment,
    two_layer_gradient,
    two_layer_gradient_fd,
    two_layer_objective,
    two_layer_s_score,
    write_trace_csv,
)
from .linalg import (
    CMatrix,
    LuFactors,
    SchurForm,
    cmatrix,
    inverse,
    load_matrix,
    lu_factor,
    lu_solve,
    matrix_from_json,
    matrix_to_json,
    random_matrix,
    save_matrix,
    schur_decompose,
)
from .matfuncs import (
    PRINCIPAL,
    check_commuting_product,
    expm,
    jordan_block_log,
    logm,
)
from .solver import (
    ADMISSION_RCOND,
    DEFAULT_ALPHA,
    DEFAULT_TOLERANCE,
    ProblemInstance,
    SolveReport,
    ThreeLayerWeights,
    compute_z,
    eval_three_layer,
    load_instance,
    load_weights,
    make_instance,
    random_instance,
    save_instance,
    save_weights,
    solve_three_layer,
    verify,
)

__version__ = "0.1.0"
