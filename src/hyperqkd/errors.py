"""Exception types shared across the package."""


class NotNormalizedError(ValueError):
    """Raised when an operation requiring a unit-norm state receives one that is not."""


class ConfigurationError(ValueError):
    """Raised when a simulation parameter or parameter combination is invalid.

    ``fields`` names the offending configuration fields, where known.
    """

    def __init__(self, message: str, fields: tuple[str, ...] = ()) -> None:
        super().__init__(message)
        self.fields = fields
