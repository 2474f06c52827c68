"""Test-only code for polyloop.series, kept here unchanged from the package.

geometric builds the geometric series, which the package itself never
builds; tests use it as a closed form to check Koszul series against.
strip_circles divides a series by (1+t)^m; no code in the package calls it,
and NotDivisibleError is the error it raises.

zero, one, monomial, add, sub, mul, neg, invert, shift and at_neg_t are the
arithmetic TruncSeries carried as methods before the package stopped using
it; tests build expected series with them. They are functions here, because a
subclass of TruncSeries would not compare equal to the package's series.

_binomial builds (1 + c t)^d one factor at a time, as the oracles did
before they raised [1, c] to the power d with the package's _pow; tests
check that the two agree.

hilbert_sr and koszul_loop_series are the dense oracles as they were before
the package computed them in closed form: hilbert_sr adds up the powers of
t/(1-t) face size by face size, O(n^2 * dim K) steps, and koszul_loop_series
inverts the result at -t, O(n^2) steps. Tests check that the package's
oracles give the same series and the same errors.
"""

from polyloop.complexes import SimplicialComplex
from polyloop.errors import GhostVertexError, InvalidParameters, PolyloopError
from polyloop.series import TruncSeries, _invert, _mul, require_flag


class NotDivisibleError(PolyloopError, ValueError):
    """A claimed series factor does not divide with nonnegative quotient."""


def _add(a: list[int], b: list[int], n: int) -> list[int]:
    return [a[k] + b[k] for k in range(n + 1)]


def zero(n: int) -> TruncSeries:
    return TruncSeries.of([], n)


def one(n: int) -> TruncSeries:
    return TruncSeries.of([1], n)


def monomial(d: int, n: int, coeff: int = 1) -> TruncSeries:
    return shift(TruncSeries.of([coeff], n), d)


def _check(a: TruncSeries, b: TruncSeries) -> None:
    if a.n != b.n:
        raise InvalidParameters("mixed truncation orders")


def add(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    _check(a, b)
    return TruncSeries(a.n, tuple(_add(list(a.coeffs), list(b.coeffs), a.n)))


def sub(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    _check(a, b)
    return TruncSeries(a.n, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))


def mul(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    _check(a, b)
    return TruncSeries(a.n, tuple(_mul(list(a.coeffs), list(b.coeffs), a.n)))


def neg(a: TruncSeries) -> TruncSeries:
    return TruncSeries(a.n, tuple(-c for c in a.coeffs))


def invert(a: TruncSeries) -> TruncSeries:
    return TruncSeries(a.n, tuple(_invert(list(a.coeffs), a.n)))


def at_neg_t(a: TruncSeries) -> TruncSeries:
    return TruncSeries(a.n, tuple(c if k % 2 == 0 else -c for k, c in enumerate(a.coeffs)))


def shift(a: TruncSeries, d: int) -> TruncSeries:
    """Multiply by t**d, for d >= 0."""
    if d < 0:
        raise InvalidParameters("series shift degree must be nonnegative")
    return TruncSeries.of([0] * min(d, a.n + 1) + list(a.coeffs), a.n)


def _binomial(c: int, d: int) -> list[int]:
    """Coefficients of (1 + c t)^d."""
    out = [1]
    for i in range(d):
        out = _mul(out, [1, c], i + 1)
    return out


def geometric(n: int, ratio_degree: int = 1, ratio: int = 1) -> TruncSeries:
    """1 / (1 - ratio * t**ratio_degree) to order n."""
    if ratio_degree < 1:
        raise InvalidParameters("ratio degree must be positive")
    den = [1] + [0] * (ratio_degree - 1) + [-ratio]
    return TruncSeries(n, tuple(_invert(den, n)))


def hilbert_sr(K: SimplicialComplex, n: int) -> TruncSeries:
    """Stanley-Reisner Hilbert series: sum over faces of (s/(1-s))^|face|."""
    if K.ghosts:
        raise GhostVertexError(f"ghost vertices {K.ghosts} have no generator degree")
    g = [0] + [1] * n
    counts = K.f_vector()
    acc = [0] * (n + 1)
    power = [1] + [0] * n
    for size, cnt in enumerate(counts):
        if size > 0:
            power = _mul(power, g, n)
        if cnt:
            acc = [a + cnt * p for a, p in zip(acc, power)]
    return TruncSeries(n, tuple(acc))


def koszul_loop_series(K: SimplicialComplex, n: int) -> TruncSeries:
    """1 / H(-t) where H is the Stanley-Reisner Hilbert series of K.

    Only valid for flag complexes, where loop-space homology of the associated
    polyhedral product of infinite projective spaces is the Koszul dual of the
    Stanley-Reisner ring. Flagness is re-checked on every call.
    """
    require_flag(K)
    return invert(at_neg_t(hilbert_sr(K, n)))


def strip_circles(p: TruncSeries, m: int) -> TruncSeries:
    """Divide by (1+t)^m, requiring the quotient to be a genuine Poincare
    series: every coefficient nonnegative through the truncation order."""
    if m < 0:
        raise InvalidParameters("circle count must be nonnegative")
    q = list(p.coeffs)
    for _ in range(m):
        q = _mul(q, _invert([1, 1], p.n), p.n)
    for k, c in enumerate(q):
        if c < 0:
            raise NotDivisibleError(
                f"(1+t)^{m} does not divide: quotient coefficient {c} at degree {k}"
            )
    return TruncSeries(p.n, tuple(q))
