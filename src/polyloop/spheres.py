"""Sphere multisets: the report type shared by the symbolic layer and the
homology oracle.

It lives apart from both so that the oracle imports nothing from the
symbolic layer it checks.
"""

from __future__ import annotations

from .errors import InvalidParameters
from .records import record


@record
class SphereMultiset:
    """Multiset of sphere dimensions. Entries above max_dim are unknown when
    truncated is set, not zero; max_dim None means the multiset is exact."""

    counts: dict[int, int]
    max_dim: int | None
    truncated: bool

    def __post_init__(self) -> None:
        for d, c in self.counts.items():
            if d < 1 or c < 1:
                raise InvalidParameters("sphere multiset entries must be positive")
            if self.max_dim is not None and d > self.max_dim:
                raise InvalidParameters("sphere dimension above the declared ceiling")
