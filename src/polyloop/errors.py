"""Exception hierarchy shared across the package.

Every error raised on a documented failure path derives from PolyloopError, so
the command line driver can map error classes to stable exit codes without
string matching.
"""

from __future__ import annotations


class PolyloopError(Exception):
    """Base class for all package errors."""


class InvalidParameters(PolyloopError, ValueError):
    """Bad argument values: out-of-range parameters, malformed input data."""


class GhostVertexError(InvalidParameters):
    """An operation that requires every vertex to appear in a face was given
    a complex with unused ground labels."""


class NotFlagComplexError(PolyloopError, ValueError):
    """A series oracle restricted to flag complexes was given a non-flag one."""


class GroundSizeLimitError(PolyloopError, ValueError):
    """Hochster oracle refused: the ground set is larger than the safety cap."""


class CeilingExceededError(PolyloopError, ValueError):
    """A sphere enumeration ceiling is too small to express a required term."""


class SeriesDomainError(PolyloopError, ValueError):
    """A power series was requested for an expression outside the computable
    fragment (undeclared atom, loop of a non simply connected term, and so on)."""
