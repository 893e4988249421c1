"""Exception hierarchy shared across the package."""


class TrainlabError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(TrainlabError):
    """Invalid configuration, inconsistent shapes, or unknown identifiers."""


class NumericError(TrainlabError):
    """Non-finite values encountered; carries the offending layer when known."""

    def __init__(self, message: str, layer_id: str | None = None):
        super().__init__(message)
        self.layer_id = layer_id


class StateError(TrainlabError):
    """Operation requires state the caller has not established (e.g. t >= 1)."""


class FormatError(TrainlabError):
    """Malformed binary or text input; carries the byte offset when known."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


class DegenerateDataError(TrainlabError):
    """Data carries no usable variation (e.g. zero pixel standard deviation)."""
