"""Exception types shared across the package."""


class ImnavError(Exception):
    """Base class for package errors."""


class ConfigurationError(ImnavError):
    """A config object violates its own constraints."""


class ShapeError(ImnavError):
    """Tensor shapes are incompatible for the requested op."""


class ContractError(ImnavError):
    """A documented precondition was violated by the caller."""


class VocabularyError(ImnavError):
    """A token or phrase is outside the closed vocabulary."""


class SamplingError(ImnavError):
    """No valid sample exists for the requested constraints."""


class NumericGuardError(ImnavError):
    """An input hit a numeric guard (e.g. near-zero norm)."""


class InputError(ImnavError):
    """Empty or malformed input data."""


class FormatError(ImnavError):
    """A serialized file is corrupt or has the wrong version."""


class TrainingDiverged(ImnavError):
    """Loss became non-finite; carries a diagnostic dump."""

    def __init__(self, message, dump=""):
        super().__init__(message)
        self.dump = dump
