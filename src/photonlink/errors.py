"""Exception types shared across modules."""


class ConfigError(ValueError):
    """Configuration file or override is invalid."""


class ParameterError(ValueError):
    """A model parameter is out of range; field names the dataclass field that holds it."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


class NumericsError(RuntimeError):
    """A numeric procedure found no solution, or two forms of one quantity disagree."""


class RootBracketError(NumericsError):
    """No sign change found in the search interval."""


class NotSaturatingError(NumericsError):
    """The excitation curve never drops 3 dB within the sweep range."""
