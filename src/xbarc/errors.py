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


class CompileError(XbarcError):
    """Internal invariant violation (a bug, not a user error)."""
