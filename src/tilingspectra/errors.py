"""Exception types shared across the library."""


class TilingError(Exception):
    """Base class for all library errors."""


class FieldMismatchError(TilingError):
    """Operands belong to different number fields."""


class PrecisionError(TilingError):
    """An interval refinement loop failed to separate a sign.

    Minimal polynomials are certified irreducible when theta is made, so
    this signals a refinement budget too small for the element.
    """


class BudgetError(TilingError):
    """A configured enumeration or state-space budget was exceeded."""


class UndecidedError(BudgetError):
    """The residue-state engine could not decide within its budget.

    Carries enough context for callers to surface an explicit
    "undecided" outcome instead of guessing.
    """

    def __init__(self, message, denominator=None, budget=None):
        super().__init__(message)
        self.denominator = denominator
        self.budget = budget


class ValidationError(TilingError):
    """A substitution system failed geometric validation."""

    def __init__(self, message, failures=None):
        super().__init__(message)
        self.failures = list(failures) if failures else [message]


class SystemFileError(TilingError):
    """A system description file is malformed; carries a field path."""

    def __init__(self, message, field=None):
        self.field = field
        if field:
            message = f"{field}: {message}"
        super().__init__(message)
