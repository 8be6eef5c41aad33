"""Exception types shared across the package."""


class EmptyInputError(ValueError):
    """No facets / no usable input where some is required."""


class TooManyVerticesError(ValueError):
    """Vertex count exceeds a hard or configured cap."""


class ParseError(ValueError):
    """Malformed input file; carries path and 1-based line number."""

    def __init__(self, path, lineno: int, message: str):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = path
        self.lineno = lineno
