"""Exception and warning types shared across the package."""


class DomainError(ValueError):
    """Input lies outside the mathematical domain of an operation."""


class CapacityError(RuntimeError):
    """Requested problem size exceeds one of the package's fixed size ceilings."""


class ConfigError(ValueError):
    """Run configuration is malformed, incomplete, or carries unknown keys."""


class AdiabaticRegimeWarning(UserWarning):
    """Parameters leave the slow-qubit regime the closed-form spectrum assumes."""


class TruncationWarning(UserWarning):
    """Fock-space truncation error exceeds the reporting threshold."""
