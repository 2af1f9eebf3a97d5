"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: validation/config problems exit 1,
I/O and format problems exit 2, numerical failures exit 3; any other
exception is an internal error and exits 4.
"""

from __future__ import annotations


class ScansegError(Exception):
    """Base class for package errors."""


class DimensionError(ScansegError, ValueError):
    """Shape or axis mismatch between operands."""


class ConfigError(ScansegError, ValueError):
    """Invalid configuration value (kernel extents, model sizes, ...)."""


class DomainError(ScansegError, ValueError):
    """Numeric input outside an operation's domain."""


class GraphError(ScansegError, RuntimeError):
    """Misuse of the differentiation graph (non-scalar loss, double backward)."""


class NumericalError(ScansegError, RuntimeError):
    """NaN/Inf encountered where finite values are required."""


class NetpbmError(ScansegError, ValueError):
    """Malformed PPM/PGM stream; carries the offending byte offset and,
    from a reader, the file's path."""

    def __init__(self, message: str, byte_offset: int, path: str | None = None):
        where = f"byte offset {byte_offset}" + (f" in {path}" if path else "")
        super().__init__(f"{message} ({where})")
        self.message = message
        self.byte_offset = byte_offset


class CheckpointError(ScansegError, ValueError):
    """Corrupt, truncated, or mismatched parameter checkpoint."""
