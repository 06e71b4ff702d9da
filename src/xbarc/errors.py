"""Exception types used across the compiler."""


class XbarcError(Exception):
    """Base class for all compiler errors."""


class QasmError(XbarcError):
    """QASM parse/validation failure, positioned at a source line."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ConfigError(XbarcError):
    """Architecture configuration file violates the schema."""


class DecompositionError(XbarcError):
    """A front-end gate has no decomposition rule."""


class CrossbarError(XbarcError):
    """Illegal placement or move (off-grid site, shared or occupied site)."""


class MapperConflict(XbarcError):
    """A routing block cannot be formed conflict-free as requested.

    Raised by the mapper when a gate group has no common shuttle direction
    or its generated shuttles fail the parallel-set check; the scheduler
    reacts by splitting the group.
    """


class CompileError(XbarcError):
    """Internal invariant violation (a bug, not a user error)."""
