"""Generalized SignSTORM: variance-reduced sign-style optimization with a
verification harness for its convergence theory at desk scale."""

from .diagnostics import (
    CheckResult,
    DiagnosticRecorder,
    DiagnosticRun,
    EpsilonTrace,
    FrequencyReport,
    MdsKind,
    decomposition_check,
    epsilon_bound_frequency,
    epsilon_envelope,
    estimator_ratio_check,
    lemma1_montecarlo,
    movement_bound_check,
    representation_check,
    run_with_diagnostics,
    sign_dichotomy_frequency,
)
from .errors import (
    ConfigError,
    DegenerateFit,
    DimensionMismatch,
    EmptyInput,
    InvalidConstant,
    MalformedReport,
    NonFiniteValue,
    OutOfRange,
    PreconditionNotMet,
    RhoConstraintViolated,
    SignStormError,
    UnsupportedKind,
)
from .harness import (
    ExperimentReport,
    ExperimentSpec,
    RateFit,
    TraceRecorder,
    TrialTrace,
    fit_rate,
    quantile,
    run_cell,
    run_experiment,
    run_trial,
    write_trace_csv,
)
from .optim import (
    GradientPair,
    HyperParams,
    OptimizerKind,
    OptimizerState,
    Schedule,
    step,
    step_batch,
    storm_decomposition,
)
from .problems import (
    AssumptionReport,
    NoiseRealization,
    ProblemConstants,
    StochasticProblem,
    bounded_nonconvex,
    make_problem,
    noisy_quadratic,
    synthetic_logistic,
    verify_assumptions,
)
from .rngutil import derive_seed, make_rng
from .theory import (
    RHO_CROSSOVER,
    ParamChoice,
    TheoremInputs,
    c_rho,
    g_rho,
    locate_c_crossover,
    practical_params,
    theorem_bound,
    theorem_params,
)

__version__ = "0.1.0"
