"""Exception types shared across the package.

Each class's `exit_code` is the CLI's exit status when that error ends a
subcommand: 2 for bad data, configuration or shapes, 3 for a numeric
failure or trace mismatch, 4 when evaluation is impossible. Subclasses
inherit their parent's code.
"""


class DeepMtaError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class ValidationError(DeepMtaError):
    """Input data violates a documented invariant."""


class VocabularyError(ValidationError):
    """A channel or campaign token is not present in the vocabulary."""


class SequenceLengthError(ValidationError):
    """A journey exceeds the maximum supported sequence length."""


class ConfigError(DeepMtaError):
    """A configuration value is out of its legal range."""


class ParameterError(ConfigError):
    """A numeric parameter (gate timing, dropout rate, ...) is invalid."""


class DimensionError(DeepMtaError):
    """Array shapes do not match the declared model dimensions."""


class NumericError(DeepMtaError):
    """A computation produced or received non-finite values."""

    exit_code = 3


class TrainingDivergedError(NumericError):
    """Training loss became non-finite."""

    def __init__(self, epoch: int, step: int, message: str = ""):
        self.epoch = epoch
        self.step = step
        detail = message or "training loss became non-finite"
        super().__init__(f"{detail} (epoch {epoch}, step {step})")


class EvaluationError(DeepMtaError):
    """Evaluation is impossible on the given data (e.g. one class only)."""

    exit_code = 4


class TraceError(DeepMtaError):
    """A forward trace does not match the backward call using it."""

    exit_code = 3
