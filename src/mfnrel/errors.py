"""Exception types shared across the package."""


class ResourceLimitError(RuntimeError):
    """A configured hard cap (path count, state space, union terms) was hit."""


class GenerationError(RuntimeError):
    """Random instance generation kept producing unusable networks."""


class BenchmarkMismatchError(RuntimeError):
    """Two algorithms disagreed on an instance; timings would be meaningless."""


class ParseError(ValueError):
    """Instance file could not be parsed; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
