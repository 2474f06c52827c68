"""Exact truncated integer power series, and the two series oracles.

All coefficients are Python ints; there is no floating point anywhere in the
package. Both oracles start from one numerator, P with H(t) = P(t)/(1-t)^d for
the Stanley-Reisner Hilbert series H of K and d = dim K + 1. They compute three
closed forms with this module's own arithmetic, none shared with the symbolic
layer: P(t) = sum_s f_s t^s (1-t)^(d-s), by the Horner step
p <- p (1-t) + f_s t^s; hilbert_sr, P/(1-t)^d, as P followed by d running sums;
and koszul_loop_series, 1/H(-t) = (1+t)^d/P(-t), by one recurrence for the
quotient by P(-t), as P(0) = 1. For a flag complex that is the Poincare series
of the loop space of its Davis-Januszkiewicz space. Each oracle takes
O(n * dim K) steps.
"""

from __future__ import annotations

# SimplicialComplex in the annotations is polyloop.complexes'. It is not
# imported: spacealg imports this module, and a symbolic job builds no complex.
from .errors import GhostVertexError, InvalidParameters, NotFlagComplexError
from .records import record


@record
class TruncSeries:
    """Power series truncated at degree n, coefficients exact ints."""

    n: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise InvalidParameters("truncation order must be nonnegative")
        if len(self.coeffs) != self.n + 1:
            raise InvalidParameters("coefficient list must have length n+1")
        if not all(isinstance(c, int) for c in self.coeffs):
            raise InvalidParameters("coefficients must be integers")

    @classmethod
    def of(cls, coeffs, n: int) -> "TruncSeries":
        """Truncate or zero-pad a coefficient list to order n."""
        cs = list(coeffs)[: n + 1]
        cs += [0] * (n + 1 - len(cs))
        return cls(n, tuple(cs))

    def __getitem__(self, k: int) -> int:
        if k < 0:
            raise IndexError("series have no negative-degree coefficients")
        return self.coeffs[k]

    def to_json_obj(self) -> dict:
        return {"N": self.n, "coeffs": list(self.coeffs)}

    def __repr__(self) -> str:
        return f"TruncSeries(n={self.n}, coeffs={list(self.coeffs)})"


def _hilbert_numerator(K: SimplicialComplex) -> tuple[list[int], int]:
    """P and d with H(t) = P(t)/(1-t)^d, H the Stanley-Reisner Hilbert series:
    the sum over faces of (t/(1-t))^|face|. With f the face counts by size,
    d = len(f) - 1, P has degree at most d and P(0) = f[0] = 1, the empty face."""
    if note := K.ghost_note():
        raise GhostVertexError(f"{note} have no generator degree")
    f = K.f_vector()
    p = []
    for s, cnt in enumerate(f):
        p = [a - b for a, b in zip(p + [0], [0] + p)]  # times 1 - t
        p[s] += cnt
    return p, len(f) - 1


def hilbert_sr(K: SimplicialComplex, n: int) -> TruncSeries:
    """Stanley-Reisner Hilbert series P(t) (1-t)^(-d) to order n."""
    p, d = _hilbert_numerator(K)
    h = (p + [0] * n)[: n + 1]
    for _ in range(d):
        for k in range(1, n + 1):
            h[k] += h[k - 1]
    return TruncSeries.of(h, n)


def koszul_loop_series(K: SimplicialComplex, n: int) -> TruncSeries:
    """1 / H(-t) where H is the Stanley-Reisner Hilbert series of K.

    Only valid for flag complexes, where loop-space homology of the associated
    polyhedral product of infinite projective spaces is the Koszul dual of the
    Stanley-Reisner ring. Flagness is re-checked on every call."""
    require_flag(K)
    p, d = _hilbert_numerator(K)
    r = [c if j % 2 else -c for j, c in enumerate(p)]  # 1 - P(-t), read from degree 1
    q = [1]
    for _ in range(d):
        q = [a + b for a, b in zip(q + [0], [0] + q)]  # times 1 + t
    q = (q + [0] * n)[: n + 1]
    for k in range(1, n + 1):  # q = (1+t)^d + (1 - P(-t)) q, degree by degree
        acc = q[k]
        for j in range(1, min(k, d) + 1):
            acc += r[j] * q[k - j]
        q[k] = acc
    return TruncSeries.of(q, n)


def require_flag(K: SimplicialComplex) -> None:
    """Raise the error koszul_loop_series refuses a non-flag K with."""
    if not K.is_flag():
        raise NotFlagComplexError("Koszul series oracle requires a flag complex")
