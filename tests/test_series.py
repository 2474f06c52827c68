"""Truncated integer power series and the two series oracles."""

import pytest
from hypothesis import given, strategies as st

from polyloop.complexes import (
    SimplicialComplex,
    cycle_graph,
    disjoint_points,
    path_graph,
    planar_book,
    simplex,
)
from polyloop.errors import (
    GhostVertexError,
    InvalidParameters,
    NotDivisibleError,
    NotFlagComplexError,
)
from polyloop.series import (
    TruncSeries,
    geometric,
    hilbert_sr,
    koszul_loop_series,
    strip_circles,
)

st_coeffs = st.lists(st.integers(-9, 9), min_size=1, max_size=9)


def _of(coeffs, n=8):
    return TruncSeries.of(coeffs, n)


def test_constructors():
    one = TruncSeries.one(4)
    assert one.coeffs == (1, 0, 0, 0, 0)
    assert TruncSeries.zero(3).coeffs == (0, 0, 0, 0)
    assert TruncSeries.monomial(2, 4).coeffs == (0, 0, 1, 0, 0)
    assert _of([1, 2]).coeffs == (1, 2, 0, 0, 0, 0, 0, 0, 0)


def test_truncation_of_long_input():
    s = TruncSeries.of([1, 1, 1, 1], 2)
    assert s.coeffs == (1, 1, 1)


def test_arithmetic_basics():
    a = _of([1, 1])
    b = _of([1, -1])
    assert (a * b).coeffs[:3] == (1, 0, -1)
    assert (a + b).coeffs[:2] == (2, 0)
    assert (a - b).coeffs[:2] == (0, 2)
    assert (-a).coeffs[:2] == (-1, -1)


def test_geometric_and_invert():
    g = geometric(6)
    assert g.coeffs == (1,) * 7
    assert g == _of([1, -1], 6).invert()
    assert geometric(4, ratio_degree=2).coeffs == (1, 0, 1, 0, 1)
    assert geometric(4, ratio=3).coeffs == (1, 3, 9, 27, 81)


def test_invert_requires_unit_constant_term():
    with pytest.raises(InvalidParameters):
        _of([2, 1]).invert()
    with pytest.raises(InvalidParameters):
        _of([0, 1]).invert()
    inv = _of([-1, 1]).invert()
    assert (inv * _of([-1, 1])) == TruncSeries.one(8)


def test_at_neg_t_and_shift():
    s = _of([1, 2, 3])
    assert s.at_neg_t().coeffs[:3] == (1, -2, 3)
    assert s.shift(2).coeffs[:5] == (0, 0, 1, 2, 3)
    assert s.shift(0) == s
    # degrees past the truncation order leave the zero series
    assert s.shift(9) == s.shift(10**18) == TruncSeries.zero(8)
    assert TruncSeries.monomial(4, 3) == TruncSeries.zero(3)


def test_negative_degrees_are_refused():
    with pytest.raises(InvalidParameters):
        TruncSeries.of([1, 2, 3], 4).shift(-1)
    with pytest.raises(InvalidParameters):
        TruncSeries.monomial(-2, 3)


def test_getitem():
    s = _of([1, 2, 3], 4)
    assert s[0] == 1 and s[2] == 3 and s[4] == 0
    with pytest.raises(IndexError):
        s[5]
    with pytest.raises(IndexError):
        s[-1]


def test_json_shape():
    s = _of([1, 2], 3)
    assert s.to_json_obj() == {"N": 3, "coeffs": [1, 2, 0, 0]}


@given(st_coeffs, st_coeffs)
def test_mul_commutes(a, b):
    sa, sb = _of(a), _of(b)
    assert sa * sb == sb * sa


@given(st_coeffs, st_coeffs, st_coeffs)
def test_ring_laws(a, b, c):
    sa, sb, sc = _of(a), _of(b), _of(c)
    assert (sa * sb) * sc == sa * (sb * sc)
    assert sa * (sb + sc) == sa * sb + sa * sc


# a unit constant term, drawn directly: filtering st_coeffs for it rejects
# most draws and trips Hypothesis's filter health check now and then
st_unit_coeffs = st.tuples(st.sampled_from((1, -1)), st.lists(st.integers(-9, 9), max_size=8)).map(
    lambda hc: [hc[0]] + hc[1]
)


@given(st_unit_coeffs)
def test_invert_roundtrip(coeffs):
    s = _of(coeffs)
    prod = s * s.invert()
    assert prod == TruncSeries.one(8)


def test_hilbert_path2():
    # two edges on three vertices: 1 + 3s/(1-s) + 2(s/(1-s))^2
    h = hilbert_sr(path_graph(2), 6)
    assert h.coeffs == (1, 3, 5, 7, 9, 11, 13)


def test_hilbert_points_and_simplex():
    assert hilbert_sr(disjoint_points(2), 4).coeffs == (1, 2, 2, 2, 2)
    # the full simplex has face ring a polynomial ring on 3 variables
    full = hilbert_sr(simplex(2), 4)
    assert full.coeffs == (1, 3, 6, 10, 15)


def test_hilbert_rejects_ghosts():
    K = SimplicialComplex(3, frozenset({(), (0,), (1,)}))
    with pytest.raises(GhostVertexError):
        hilbert_sr(K, 4)


def test_koszul_path2_closed_form():
    # (1+t)^2 / (1-t)
    k = koszul_loop_series(path_graph(2), 16)
    closed = TruncSeries.of([1, 2, 1], 16) * TruncSeries.of([1, -1], 16).invert()
    assert k == closed
    assert k.coeffs[:5] == (1, 3, 4, 4, 4)


def test_koszul_planar_book_closed_form():
    # (1+t)^2 / ((1-t)(1-2t))
    k = koszul_loop_series(planar_book(2, 2), 16)
    den = TruncSeries.of([1, -1], 16) * TruncSeries.of([1, -2], 16)
    closed = TruncSeries.of([1, 2, 1], 16) * den.invert()
    assert k == closed
    assert k.coeffs[:8] == (1, 5, 14, 32, 68, 140, 284, 572)


def test_koszul_rejects_non_flag():
    with pytest.raises(NotFlagComplexError):
        koszul_loop_series(cycle_graph(3), 8)


def test_koszul_rejects_ghosts():
    # a ghost vertex is already a flagness violation, so that error wins
    K = SimplicialComplex(2, frozenset({(), (0,)}))
    with pytest.raises(NotFlagComplexError):
        koszul_loop_series(K, 4)


def test_strip_circles_path2():
    # removing the three circle factors leaves loops on a single 3-sphere
    k = koszul_loop_series(path_graph(2), 12)
    rest = strip_circles(k, 3)
    assert rest == geometric(12, ratio_degree=2)


def test_strip_circles_full_strip_gives_one():
    # the disjoint-points Koszul series over one point is exactly 1+t
    k = koszul_loop_series(disjoint_points(1), 8)
    assert strip_circles(k, 1) == TruncSeries.one(8)


def test_strip_circles_detects_nondivisibility():
    with pytest.raises(NotDivisibleError):
        strip_circles(TruncSeries.one(8), 1)


@given(st.integers(1, 5), st.integers(0, 3))
def test_strip_circles_inverts_circle_products(m, extra):
    # (1+t)^m times a nonnegative series is divisible by (1+t)^m
    base = geometric(10, ratio=extra) if extra else TruncSeries.one(10)
    p = base
    for _ in range(m):
        p = p * TruncSeries.of([1, 1], 10)
    assert strip_circles(p, m) == base
