"""Exception hierarchy shared across the package.

Every error raised on a documented failure path derives from PolyloopError, and
each class carries in exit_code the stable exit code the polyloop command
gives it, so no caller matches strings or keeps its own table.
"""

from __future__ import annotations


class PolyloopError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class InvalidParameters(PolyloopError, ValueError):
    """Bad argument values: out-of-range parameters, malformed input data."""


class GhostVertexError(InvalidParameters):
    """An operation that requires every vertex to appear in a face was given
    a complex with unused ground labels."""


class NotFlagComplexError(PolyloopError, ValueError):
    """A series oracle restricted to flag complexes was given a non-flag one."""

    exit_code = 4


class GroundSizeLimitError(PolyloopError, ValueError):
    """Hochster oracle refused: the ground set is larger than the safety cap."""

    exit_code = 5


class CeilingExceededError(PolyloopError, ValueError):
    """A sphere enumeration ceiling is too small to express a required term."""

    exit_code = 3


class SeriesDomainError(PolyloopError, ValueError):
    """A power series was requested for an expression outside the computable
    fragment (undeclared atom, loop of a non simply connected term, and so on)."""
