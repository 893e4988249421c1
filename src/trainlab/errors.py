"""Exception hierarchy shared across the package.  A call made before its
precondition holds (say, a step size asked of an optimizer that has taken
no step) raises the builtin ``ValueError`` instead: that is the caller's fault."""


class TrainlabError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(TrainlabError):
    """Invalid configuration or data, or an unknown identifier; the CLI exits 2."""


class NumericError(TrainlabError):
    """Non-finite values encountered; carries the offending layer when known; the CLI exits 3."""

    def __init__(self, message: str, layer_id: str | None = None):
        super().__init__(message)
        self.layer_id = layer_id


class FormatError(TrainlabError):
    """Malformed binary or text input; carries the byte offset when known; the CLI exits 2."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset
