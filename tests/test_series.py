"""Truncated integer power series and the two series oracles."""

import itertools
import math

import pytest
from hypothesis import given, strategies as st

import series_reference as ref
from polyloop import series
from polyloop.complexes import (
    SimplicialComplex,
    book_graph,
    cycle_graph,
    disjoint_points,
    from_facets,
    path_graph,
    planar_book,
    simplex,
)
from polyloop.errors import (
    GhostVertexError,
    InvalidParameters,
    NotFlagComplexError,
    PolyloopError,
)
from polyloop.series import (
    TruncSeries,
    hilbert_sr,
    koszul_loop_series,
)

from series_reference import (
    NotDivisibleError,
    add,
    at_neg_t,
    geometric,
    invert,
    monomial,
    mul,
    neg,
    one,
    shift,
    strip_circles,
    sub,
    zero,
)

st_coeffs = st.lists(st.integers(-9, 9), min_size=1, max_size=9)


def _of(coeffs, n=8):
    return TruncSeries.of(coeffs, n)


def test_constructors():
    assert one(4).coeffs == (1, 0, 0, 0, 0)
    assert zero(3).coeffs == (0, 0, 0, 0)
    assert monomial(2, 4).coeffs == (0, 0, 1, 0, 0)
    assert _of([1, 2]).coeffs == (1, 2, 0, 0, 0, 0, 0, 0, 0)


def test_truncation_of_long_input():
    s = TruncSeries.of([1, 1, 1, 1], 2)
    assert s.coeffs == (1, 1, 1)


def test_arithmetic_basics():
    a = _of([1, 1])
    b = _of([1, -1])
    assert mul(a, b).coeffs[:3] == (1, 0, -1)
    assert add(a, b).coeffs[:2] == (2, 0)
    assert sub(a, b).coeffs[:2] == (0, 2)
    assert neg(a).coeffs[:2] == (-1, -1)


def test_geometric_and_invert():
    g = geometric(6)
    assert g.coeffs == (1,) * 7
    assert g == invert(_of([1, -1], 6))
    assert geometric(4, ratio_degree=2).coeffs == (1, 0, 1, 0, 1)
    assert geometric(4, ratio=3).coeffs == (1, 3, 9, 27, 81)


def test_invert_requires_unit_constant_term():
    with pytest.raises(InvalidParameters):
        invert(_of([2, 1]))
    with pytest.raises(InvalidParameters):
        invert(_of([0, 1]))
    inv = invert(_of([-1, 1]))
    assert mul(inv, _of([-1, 1])) == one(8)


def test_at_neg_t_and_shift():
    s = _of([1, 2, 3])
    assert at_neg_t(s).coeffs[:3] == (1, -2, 3)
    assert shift(s, 2).coeffs[:5] == (0, 0, 1, 2, 3)
    assert shift(s, 0) == s
    # degrees past the truncation order leave the zero series
    assert shift(s, 9) == shift(s, 10**18) == zero(8)
    assert monomial(4, 3) == zero(3)


def test_negative_degrees_are_refused():
    with pytest.raises(InvalidParameters):
        shift(TruncSeries.of([1, 2, 3], 4), -1)
    with pytest.raises(InvalidParameters):
        monomial(-2, 3)


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
    assert mul(sa, sb) == mul(sb, sa)


@given(st_coeffs, st_coeffs, st_coeffs)
def test_ring_laws(a, b, c):
    sa, sb, sc = _of(a), _of(b), _of(c)
    assert mul(mul(sa, sb), sc) == mul(sa, mul(sb, sc))
    assert mul(sa, add(sb, sc)) == add(mul(sa, sb), mul(sa, sc))


# a unit constant term, drawn directly: filtering st_coeffs for it rejects
# most draws and trips Hypothesis's filter health check now and then
st_unit_coeffs = st.tuples(st.sampled_from((1, -1)), st.lists(st.integers(-9, 9), max_size=8)).map(
    lambda hc: [hc[0]] + hc[1]
)


@given(st_unit_coeffs)
def test_invert_roundtrip(coeffs):
    s = _of(coeffs)
    prod = mul(s, invert(s))
    assert prod == one(8)


def test_hilbert_path2():
    # two edges on three vertices: 1 + 3s/(1-s) + 2(s/(1-s))^2
    h = hilbert_sr(path_graph(2), 6)
    assert h.coeffs == (1, 3, 5, 7, 9, 11, 13)


def test_hilbert_points_and_simplex():
    assert hilbert_sr(disjoint_points(2), 4).coeffs == (1, 2, 2, 2, 2)
    # the full simplex has face ring a polynomial ring on 3 variables
    full = hilbert_sr(simplex(2), 4)
    assert full.coeffs == (1, 3, 6, 10, 15)


@pytest.mark.parametrize("k", range(7))
def test_hilbert_of_a_simplex_counts_monomials(k):
    # the face ring of the full simplex on k + 1 vertices is a polynomial ring
    assert hilbert_sr(simplex(k), 40).coeffs == tuple(math.comb(j + k, k) for j in range(41))


def test_hilbert_numerator_at_one_counts_the_top_faces():
    # P(1) = sum_s f_s 1^s 0^(d-s) = f_d, the faces of the top size d
    for K in [K for K in _FAMILIES if not K.ghosts]:
        p, d = series._hilbert_numerator(K)
        f = K.f_vector()
        assert len(p) == d + 1 == len(f) and p[0] == 1
        assert sum(p) == f[d], K


def test_hilbert_rejects_ghosts():
    K = SimplicialComplex(3, frozenset({(), (0,), (1,)}))
    with pytest.raises(GhostVertexError):
        hilbert_sr(K, 4)


def test_koszul_path2_closed_form():
    # (1+t)^2 / (1-t)
    k = koszul_loop_series(path_graph(2), 16)
    closed = mul(TruncSeries.of([1, 2, 1], 16), invert(TruncSeries.of([1, -1], 16)))
    assert k == closed
    assert k.coeffs[:5] == (1, 3, 4, 4, 4)


def test_koszul_planar_book_closed_form():
    # (1+t)^2 / ((1-t)(1-2t))
    k = koszul_loop_series(planar_book(2, 2), 16)
    den = mul(TruncSeries.of([1, -1], 16), TruncSeries.of([1, -2], 16))
    closed = mul(TruncSeries.of([1, 2, 1], 16), invert(den))
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
    assert strip_circles(k, 1) == one(8)


def test_strip_circles_detects_nondivisibility():
    with pytest.raises(NotDivisibleError):
        strip_circles(one(8), 1)


@given(st.integers(1, 5), st.integers(0, 3))
def test_strip_circles_inverts_circle_products(m, extra):
    # (1+t)^m times a nonnegative series is divisible by (1+t)^m
    base = geometric(10, ratio=extra) if extra else one(10)
    p = base
    for _ in range(m):
        p = mul(p, TruncSeries.of([1, 1], 10))
    assert strip_circles(p, m) == base


# --- the closed forms against the dense reference ---------------------------

_FAMILIES = (
    [path_graph(l) for l in range(1, 9)]
    + [cycle_graph(l) for l in range(3, 10)]
    + [disjoint_points(k) for k in range(1, 5)]
    + [simplex(k) for k in range(5)]
    + [book_graph(n, l, p) for n, l, p in [(1, 4, 2), (2, 5, 3), (2, 6, 2), (3, 6, 3)]]
    + [planar_book(l, p) for l in range(2, 6) for p in range(2, 4)]
    + [SimplicialComplex(3, frozenset({(), (0,), (1,)}))]
)


def _outcome(f, K, n):
    """The series f gives, or the type and message of the error it raises."""
    try:
        return f(K, n)
    except PolyloopError as exc:
        return type(exc), str(exc)


def _assert_same_as_reference(K, n):
    for name in ("hilbert_sr", "koszul_loop_series"):
        assert _outcome(getattr(series, name), K, n) == _outcome(getattr(ref, name), K, n), name


@pytest.mark.parametrize("n", [-1, 0, 1, 2, 17, 300])
def test_closed_forms_match_the_dense_reference_on_every_family(n):
    for K in _FAMILIES:
        _assert_same_as_reference(K, n)


def _clique_complex(m, edges):
    """The flag complex of the graph: every vertex set that is a clique."""
    cliques = [c for k in range(1, m + 1) for c in itertools.combinations(range(m), k)
               if all(e in edges for e in itertools.combinations(c, 2))]
    return from_facets(m, cliques)


st_graph = st.integers(1, 7).flatmap(
    lambda m: st.tuples(
        st.just(m), st.sets(st.sampled_from(list(itertools.combinations(range(m), 2))))
        if m > 1 else st.just(set())
    )
)


@given(st_graph, st.sampled_from([0, 1, 2, 17, 300]))
def test_closed_forms_match_the_dense_reference_on_random_flag_complexes(graph, n):
    K = _clique_complex(*graph)
    assert K.is_flag()
    _assert_same_as_reference(K, n)


@given(st.lists(st.sets(st.integers(0, 5), min_size=1, max_size=4), max_size=6),
       st.sampled_from([-1, 0, 2, 17]))
def test_closed_forms_refuse_as_the_dense_reference_does(facets, n):
    # random complexes on six labels: non-flag ones and ones with ghosts too
    _assert_same_as_reference(from_facets(6, [tuple(f) for f in facets]), n)
