"""Exception hierarchy shared by all modules."""

from __future__ import annotations


class NambuError(Exception):
    """Base class for all errors raised by this package."""


class ChartMismatchError(NambuError):
    """Operands live on charts of different dimension."""


class DegreeError(NambuError):
    """Tensor degree does not satisfy the operation's precondition."""


class ArityError(NambuError):
    """Wrong number of functional arguments."""


class OrderError(NambuError):
    """Structure order n lies outside 2..m."""


class ParseError(NambuError):
    """Malformed expression or structure-file content.

    ``location`` is a short human-readable pointer (token position or
    JSON path) used by the CLI for exit-1 diagnostics.
    """

    def __init__(self, message: str, location: str | None = None):
        self.location = location
        super().__init__(message if location is None else f"{location}: {message}")
