"""Exception taxonomy shared across the package."""


class CardestError(Exception):
    """Base class for all package errors."""


class ValidationError(CardestError):
    """An argument or configuration value violates a contract."""


class ConfigurationError(CardestError):
    """Unknown table/column, missing checkpoint, or malformed experiment config."""


class StageOrderingError(CardestError):
    """A pipeline command was invoked before the outputs it needs exist."""


class SizeError(CardestError):
    """Materializing a join would exceed the configured row cap."""


class EmptyRelationError(CardestError):
    """An operation that needs rows received an empty relation."""


class GapError(CardestError):
    """A numeric value falls inside a deleted subrange; callers must clamp first."""


class FormatError(CardestError):
    """A persisted artifact failed validation (magic, version, checksum, layout,
    or the masked-weights-are-zero invariant)."""


class TrainingError(CardestError):
    """Training produced a non-finite loss."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step
