"""Exception types shared across the package."""


class EmptyInputError(ValueError):
    """No facets / no usable input where some is required."""


class TooManyVerticesError(ValueError):
    """Vertex count exceeds the sweep cap or the 64-bit face representation."""


class ParseError(ValueError):
    """Malformed input file; carries path and 1-based line number (None: the whole file)."""

    def __init__(self, path, lineno: int | None, message: str):
        super().__init__(f"{path}: {message}" if lineno is None else f"{path}:{lineno}: {message}")
        self.path = path
        self.lineno = lineno
