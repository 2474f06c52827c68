"""Exact truncated integer power series, and the two series oracles.

All coefficients are Python ints; there is no floating point anywhere in the
package. Inversion requires a unit constant term, which keeps every operation
closed over the integers. Both oracles start from one numerator: the
Stanley-Reisner Hilbert series of K is H(t) = P(t)/(1-t)^d, with d = dim K + 1
and P a polynomial of degree at most d read off the f-vector. hilbert_sr
expands P/(1-t)^d. koszul_loop_series expands 1/H(-t) = (1+t)^d/P(-t), which
for a flag complex is the Poincare series of the loop space of the associated
Davis-Januszkiewicz space. Each inverts a polynomial of degree d to order n:
O(n * dim K) steps.
"""

from __future__ import annotations

# SimplicialComplex in the annotations is polyloop.complexes'. It is not
# imported: spacealg imports this module, and a symbolic job builds no complex.
from .errors import GhostVertexError, InvalidParameters, NotFlagComplexError
from .records import record


def _mul(a: list[int], b: list[int], n: int) -> list[int]:
    """a * b through degree n, min(n, len(a) + len(b) - 2) + 1 coefficients."""
    out = [0] * (min(n, len(a) + len(b) - 2) + 1)
    for i, ai in enumerate(a[: n + 1]):
        if ai == 0:
            continue
        for j in range(min(len(b), n + 1 - i)):
            out[i + j] += ai * b[j]
    return out


def _invert(a: list[int], n: int) -> list[int]:
    if a[0] not in (1, -1):
        raise InvalidParameters("inversion needs constant term +1 or -1")
    inv0 = a[0]
    out = [inv0] + [0] * n
    for k in range(1, n + 1):
        acc = 0
        for j in range(1, min(k, len(a) - 1) + 1):
            acc += a[j] * out[k - j]
        out[k] = -inv0 * acc
    return out


def _pow(base: list[int], k: int, n: int) -> list[int]:
    """base**k through degree n by binary exponentiation."""
    out = [1]
    while k:
        if k & 1:
            out = _mul(out, base, n)
        k >>= 1
        if k:
            base = _mul(base, base, n)
    return out


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
    """P and d with H(t) = P(t)/(1-t)^d, H the Stanley-Reisner Hilbert series.

    H is the sum over faces of (t/(1-t))^|face|. With f the face counts by size
    and d = len(f) - 1 = dim K + 1, P(t) = sum_s f[s] t^s (1-t)^(d-s), a
    polynomial of degree at most d with P(0) = 1."""
    if note := K.ghost_note():
        raise GhostVertexError(f"{note} have no generator degree")
    f = K.f_vector()
    d = len(f) - 1
    p = [0] * (d + 1)
    for s, cnt in enumerate(f):
        for j, b in enumerate(_pow([1, -1], d - s, d - s)):
            p[s + j] += cnt * b
    return p, d


def hilbert_sr(K: SimplicialComplex, n: int) -> TruncSeries:
    """Stanley-Reisner Hilbert series P(t) (1-t)^(-d) to order n, in
    O(n * dim K) steps."""
    p, d = _hilbert_numerator(K)
    return TruncSeries.of(_mul(p, _invert(_pow([1, -1], d, d), n), n), n)


def koszul_loop_series(K: SimplicialComplex, n: int) -> TruncSeries:
    """1 / H(-t) where H is the Stanley-Reisner Hilbert series of K.

    Only valid for flag complexes, where loop-space homology of the associated
    polyhedral product of infinite projective spaces is the Koszul dual of the
    Stanley-Reisner ring. Flagness is re-checked on every call. With
    H(t) = P(t)/(1-t)^d, 1 / H(-t) = (1+t)^d P(-t)^(-1), which takes
    O(n * dim K) steps.
    """
    require_flag(K)
    p, d = _hilbert_numerator(K)
    p_neg = [c if k % 2 == 0 else -c for k, c in enumerate(p)]
    return TruncSeries.of(_mul(_pow([1, 1], d, d), _invert(p_neg, n), n), n)


def require_flag(K: SimplicialComplex) -> None:
    """Raise the error koszul_loop_series refuses a non-flag K with."""
    if not K.is_flag():
        raise NotFlagComplexError("Koszul series oracle requires a flag complex")
