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
    Check,
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
    error_norms,
    export_coefficients,
    fit,
)
from .filters import (
    SpectralFilter,
    filter_from_dict,
    iterated_tikhonov,
    landweber,
    spectral_cutoff,
    tikhonov,
)
from .gram import Dataset, assemble_gram, eigendecompose, mercer_gram_eigen
from .harness import ExperimentConfig, load_config, rate_sweep, write_outputs
from .index_functions import (
    HolderIndex,
    IndexFunction,
    LogIndex,
    ProductIndex,
    check_monotone_flags,
    index_from_dict,
    invert_monotone,
)
from .lower_bounds import (
    SignPacking,
    TwoPointMeasure,
    adversarial_family,
    amplitude_for,
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
