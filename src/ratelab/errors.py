"""Exception types and the one verdict record shared across the package.

The split keeps caller mistakes (bad arguments, bad data) distinguishable
from broken internal guarantees (contract violations, numerical failures),
which the CLI maps to different exit codes. Every claim the lab tests ends
in a `Check`, whose failure is the CLI's exit code 1.
"""

from dataclasses import dataclass

CHECK_SLACK = 1e-12  # the relative slack of every verdict


@dataclass(frozen=True)
class Check:
    """One verdict: ``value`` <= ``limit``, up to a relative CHECK_SLACK.

    A NaN value fails. A floor is checked as floor <= observation, and a
    band of k standard errors puts k se in ``limit``.
    """

    name: str
    value: float
    limit: float

    @property
    def passed(self) -> bool:
        return self.value <= self.limit * (1 + CHECK_SLACK)


class RateLabError(Exception):
    """Base class for every error raised by this package."""


class DomainError(RateLabError, ValueError):
    """An evaluation point lies outside a function's stated domain."""


class ParameterError(RateLabError, ValueError):
    """An argument violates a documented precondition."""


class ConstructionError(RateLabError, ValueError):
    """A model or target cannot be built from the given ingredients."""


class SourceViolationError(ConstructionError):
    """A source vector exceeds the smoothness-class radius."""


class DataError(RateLabError, ValueError):
    """Input data contain non-finite or malformed entries."""


class ContractError(RateLabError, RuntimeError):
    """An internal guarantee failed; this indicates a bug, not bad input."""


class CertificationError(ContractError):
    """A noise model was used before (or despite failing) certification."""


class BracketUnderflowError(RateLabError, ValueError):
    """Monotone inversion ran out of bracket before reaching the target."""


class NumericalError(RateLabError, RuntimeError):
    """An eigensolve or a bisection failed to converge."""


class UnsupportedNormError(RateLabError, ValueError):
    """Exact norms were asked of a fit under another model than its own."""


class PackingFailureError(RateLabError, RuntimeError):
    """Random search could not reach the requested packing size."""


class AmplitudeError(RateLabError, ValueError):
    """A two-point output measure would need a negative weight."""


class TruncationError(RateLabError, ValueError):
    """The spectral truncation is too short for the requested experiment."""

    def __init__(self, message: str, required_n_trunc: int | None = None):
        super().__init__(message)
        self.required_n_trunc = required_n_trunc


class ConfigError(RateLabError, ValueError):
    """A configuration document is malformed; ``key`` names the offender."""

    def __init__(self, key: str, message: str):
        super().__init__(f"config key '{key}': {message}")
        self.key = key
