"""Exact laboratory for spectral regularization convergence rates."""

from .concentration import (
    operator_deviation,
    operator_deviation_bound,
    sample_error_bound,
    sample_error_stat,
    tail_test,
)
from .errors import (
    AmplitudeError,
    BracketUnderflowError,
    CertificationError,
    ConfigError,
    ConstructionError,
    ContractError,
    DataError,
    DomainError,
    NumericalError,
    PackingFailureError,
    ParameterError,
    RateLabError,
    SourceViolationError,
    TruncationError,
    UnsupportedNormError,
)
from .estimator import (
    FittedEstimator,
    basis_coefficients,
    error_l2_montecarlo,
    error_norms,
    export_coefficients,
    fit,
    fit_tikhonov_direct,
)
from .filters import (
    SpectralFilter,
    filter_from_dict,
    iterated_tikhonov,
    landweber,
    spectral_cutoff,
    tikhonov,
)
from .gram import Dataset, GaussianRBF, assemble_gram, eigendecompose, mercer_gram_eigen
from .harness import ExperimentConfig, load_config, rate_sweep, write_outputs
from .index_functions import (
    HolderIndex,
    IndexFunction,
    LogIndex,
    ProductIndex,
    RateMaps,
    check_monotone_flags,
    index_from_dict,
    invert_monotone,
    make_rate_maps,
)
from .lower_bounds import (
    SignPacking,
    TwoPointMeasure,
    adversarial_family,
    amplitude_for,
    bayes_error,
    build_packing,
    empirical_fano_check,
    fano_bound,
    kl_divergence,
    separation_for_code_length,
)
from .mercer import (
    MercerModel,
    NoiseSpec,
    TargetFunction,
    approx_error_norms,
    build_model,
    norms_of_expansion,
    power_law_source,
    population_regularized,
    sample_dataset,
    target_from_source,
    trigonometric_basis,
)
from .rates import (
    LambdaChoice,
    RateExponents,
    check_theorem_condition,
    choose_lambda,
    effdim_bound_check,
    effective_dimension,
    individual_lower_exponent_l2,
    individual_lower_exponent_rkhs,
    rate_exponents,
)

__version__ = "0.1.0"
