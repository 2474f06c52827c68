"""Exact truncated integer power series, and the two series oracles.

All coefficients are Python ints; there is no floating point anywhere in the
package. Inversion requires a unit constant term, which keeps every operation
closed over the integers. hilbert_sr computes the Stanley-Reisner Hilbert
series, and koszul_loop_series inverts its value at -t, which for a flag
complex is the Poincare series of the loop space of the associated
Davis-Januszkiewicz space. Both use the closed form P(t)/(1-t)^d of the
Hilbert series, d = dim K + 1 and P a polynomial of degree at most d, so each
inverts a polynomial of degree d to order n: O(n * dim K) steps.
"""

from __future__ import annotations

from .complexes import SimplicialComplex
from .errors import GhostVertexError, InvalidParameters, NotFlagComplexError
from .records import record


def _add(a: list[int], b: list[int], n: int) -> list[int]:
    return [a[k] + b[k] for k in range(n + 1)]


def _mul(a: list[int], b: list[int], n: int) -> list[int]:
    out = [0] * (n + 1)
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

    @classmethod
    def zero(cls, n: int) -> "TruncSeries":
        return cls.of([], n)

    @classmethod
    def one(cls, n: int) -> "TruncSeries":
        return cls.of([1], n)

    @classmethod
    def monomial(cls, d: int, n: int, coeff: int = 1) -> "TruncSeries":
        return cls.of([coeff], n).shift(d)

    def _check(self, other: "TruncSeries") -> None:
        if self.n != other.n:
            raise InvalidParameters("mixed truncation orders")

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        return TruncSeries(self.n, tuple(_add(list(self.coeffs), list(other.coeffs), self.n)))

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        return TruncSeries(self.n, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        return TruncSeries(self.n, tuple(_mul(list(self.coeffs), list(other.coeffs), self.n)))

    def __neg__(self) -> "TruncSeries":
        return TruncSeries(self.n, tuple(-c for c in self.coeffs))

    def invert(self) -> "TruncSeries":
        return TruncSeries(self.n, tuple(_invert(list(self.coeffs), self.n)))

    def at_neg_t(self) -> "TruncSeries":
        return TruncSeries(self.n, tuple(c if k % 2 == 0 else -c for k, c in enumerate(self.coeffs)))

    def shift(self, d: int) -> "TruncSeries":
        """Multiply by t**d, for d >= 0."""
        if d < 0:
            raise InvalidParameters("series shift degree must be nonnegative")
        return TruncSeries.of([0] * min(d, self.n + 1) + list(self.coeffs), self.n)

    def __getitem__(self, k: int) -> int:
        if k < 0:
            raise IndexError("series have no negative-degree coefficients")
        return self.coeffs[k]

    def to_json_obj(self) -> dict:
        return {"N": self.n, "coeffs": list(self.coeffs)}

    def __repr__(self) -> str:
        return f"TruncSeries(n={self.n}, coeffs={list(self.coeffs)})"


def hilbert_sr(K: SimplicialComplex, n: int) -> TruncSeries:
    """Stanley-Reisner Hilbert series: sum over faces of (t/(1-t))^|face|.

    With f the face counts by size and d = len(f) - 1 = dim K + 1, this is
    P(t)/(1-t)^d for P(t) = sum_s f[s] t^s (1-t)^(d-s), a polynomial of degree
    at most d, so it takes O(n * dim K) steps. Binomials come from Pascal's
    rule."""
    if K.ghosts:
        raise GhostVertexError(f"ghost vertices {K.ghosts} have no generator degree")
    f = K.f_vector()
    d = len(f) - 1
    q = [[1]]  # q[i] = (1-t)^i
    for i in range(d):
        q.append(_mul(q[-1], [1, -1], i + 1))
    p = [0] * (d + 1)
    for s, cnt in enumerate(f):
        for j, b in enumerate(q[d - s]):
            p[s + j] += cnt * b
    return TruncSeries.of(_mul(p, _invert(q[d], n), n), n)


def koszul_loop_series(K: SimplicialComplex, n: int) -> TruncSeries:
    """1 / H(-t) where H is the Stanley-Reisner Hilbert series of K.

    Only valid for flag complexes, where loop-space homology of the associated
    polyhedral product of infinite projective spaces is the Koszul dual of the
    Stanley-Reisner ring. Flagness is re-checked on every call. With
    d = dim K + 1 and q = (1+t)^d, q H(-t) = P(-t) is a polynomial of degree at
    most d, so 1 / H(-t) = q / P(-t) takes O(n * dim K) steps.
    """
    require_flag(K)
    h = hilbert_sr(K, n).at_neg_t()
    d = K.dim + 1
    q = [1]
    for i in range(d):
        q = _mul(q, [1, 1], i + 1)
    # coefficients of P(-t) past degree n are not read by the inversion
    return TruncSeries.of(_mul(q, _invert(_mul(q, list(h.coeffs), d), n), n), n)


def require_flag(K: SimplicialComplex) -> None:
    """Raise the error koszul_loop_series refuses a non-flag K with."""
    if not K.is_flag():
        raise NotFlagComplexError("Koszul series oracle requires a flag complex")
