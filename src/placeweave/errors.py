"""Exception hierarchy shared across the pipeline.

Exit-code mapping (see cli): SchemaError and subclasses -> 2,
InvariantError -> 3.
"""


class PlaceweaveError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(PlaceweaveError):
    """Malformed input: missing columns, bad config, unparseable files."""


class RowError(SchemaError):
    """A single malformed data row; carries the 1-based line, and its message starts FILE:LINE:."""

    def __init__(self, where: str, line: int, message: str):
        super().__init__(f"{where}:{line}: {message}")
        self.line = line


class ConfigError(SchemaError):
    """Invalid run configuration; message lists every problem found."""


class MissingPoiError(SchemaError):
    """A referenced POI id is absent from the catalog."""


class UnknownSectorError(SchemaError):
    """NAICS prefix outside the 20 known sector categories."""


class WalkError(PlaceweaveError, ValueError):
    """A stay sequence breaking a walk rule; sequence is its index in its table."""

    def __init__(self, sequence: int, message: str):
        super().__init__(message)
        self.sequence = sequence


class InvariantError(PlaceweaveError):
    """Internal consistency violation; indicates a pipeline bug."""
