"""Exception types shared across the package."""


class ResourceLimitError(RuntimeError):
    """A fixed cap was hit. ``cap_name`` names the module constant, ``limit``
    is its value and ``requested`` what the input needs: the paths found so
    far, sigma, the state count, or the draws."""

    def __init__(self, cap_name: str, limit: int, requested: int):
        super().__init__(cap_name, limit, requested)  # so a pickled copy rebuilds
        self.cap_name, self.limit, self.requested = cap_name, limit, requested

    def __str__(self) -> str:
        return f"fixed cap {self.cap_name} = {self.limit} exceeded: this input needs at least {self.requested}"


class ParseError(ValueError):
    """Instance file could not be parsed; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
