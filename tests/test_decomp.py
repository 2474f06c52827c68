"""Decomposition pipelines against the two independent oracles."""

import pytest

from series_reference import invert

from polyloop.complexes import (
    GluingSpec,
    cycle_graph,
    path_graph,
    planar_book,
)
from polyloop.decomp import (
    GENERIC_VERTEX_SPACE,
    book_C,
    book_decompose_symbolic,
    cone_loop_split,
    dj_book_decompose,
    endpoint_fibre,
    fold_decompose,
    path_decompose,
    path_fibre_reduce,
    poly_fold_decompose,
    porter_wedge,
)
from polyloop.errors import CeilingExceededError, InvalidParameters
from polyloop.homology import zk_sphere_multiset
from polyloop.series import TruncSeries, koszul_loop_series
from polyloop.spacealg import (
    POINT,
    Loop,
    Prod,
    Sphere,
    Susp,
    Wedge,
    atom,
    cp_infinity,
    normalize,
    poincare_series,
    sphere_multiset_of,
)


def _counts(e, ceiling=12):
    return sphere_multiset_of(e, ceiling).counts


def test_porter_wedge_values():
    assert _counts(porter_wedge(2)) == {3: 1}
    assert _counts(porter_wedge(3)) == {3: 3, 4: 2}
    assert _counts(porter_wedge(4)) == {3: 6, 4: 8, 5: 3}
    assert _counts(porter_wedge(5)) == {3: 10, 4: 20, 5: 15, 6: 4}


def test_porter_wedge_symbolic_mode():
    w = porter_wedge(3, circles=False)
    # one suspended double smash per pair, two triple smashes... sizes only
    assert len(w.args) == 5
    assert all(isinstance(s, Susp) for s in w.args)


def test_porter_wedge_matches_hochster():
    for l in range(2, 7):
        engine = _counts(porter_wedge(l), ceiling=l + 2)
        oracle = zk_sphere_multiset(path_graph(l)).counts
        assert engine == oracle, l


def test_path_fibre_reduce_degenerate():
    assert path_fibre_reduce(1) == POINT
    with pytest.raises(InvalidParameters):
        path_fibre_reduce(0)


def test_book_C_values():
    assert _counts(book_C(3)) == {3: 2, 4: 2}
    assert _counts(book_C(4)) == {3: 5, 4: 8, 5: 3}
    assert _counts(book_C(5)) == {3: 9, 4: 20, 5: 15, 6: 4}


def test_book_C_plus_one_sphere_is_the_path_fibre():
    """Attaching a single 3-sphere to C recovers the full path fibre wedge."""
    for l in range(3, 7):
        left = _counts(normalize(Wedge((book_C(l), Sphere(3)))), ceiling=l + 2)
        right = _counts(porter_wedge(l), ceiling=l + 2)
        assert left == right, l


def test_endpoint_fibre_shapes():
    assert endpoint_fibre(2) == Sphere(1)
    f3 = endpoint_fibre(3)
    # a product: two circles and a loop factor
    assert f3.args[0] == Sphere(1) and f3.args[1] == Sphere(1)
    with pytest.raises(InvalidParameters):
        endpoint_fibre(1)


def test_cone_loop_split_matches_koszul():
    r = cone_loop_split(3, cp_infinity(), zk=porter_wedge(2), n=12)
    assert r.series == koszul_loop_series(path_graph(2), 12)
    r2 = cone_loop_split(2, cp_infinity(), zk=Sphere(3), n=12)
    from polyloop.complexes import disjoint_points

    assert r2.series == koszul_loop_series(disjoint_points(2), 12)


def test_cone_loop_split_symbolic_has_no_series():
    r = cone_loop_split(2, GENERIC_VERTEX_SPACE, zk=Sphere(3), n=8)
    assert r.series is None
    assert r.factors[0][0] == "vertex-loops"
    assert r.provenance == ("cone-fibration-splitting",)


def test_fold_decompose():
    r = fold_decompose(3, Sphere(2), Loop(Sphere(2)), n=8)
    assert r.series.coeffs == invert(TruncSeries.of([1, -3], 8)).coeffs
    # the fibre wedge carries n-1 suspended copies
    fw = r.factors[1][1].arg
    assert len(fw.args) == 2
    single = fold_decompose(1, Sphere(2), Loop(Sphere(2)), n=4)
    assert single.series == poincare_series(Loop(Sphere(2)), 4)


def test_poly_fold_fibre_wedge_size():
    for copies in (2, 3, 5):
        spec = GluingSpec(path_graph(2), (0,), (2,), (2, 1, 0), copies=copies)
        r = poly_fold_decompose(spec, GENERIC_VERTEX_SPACE, Loop(Sphere(2)))
        fw = r.factors[1][1].arg
        n_summands = len(fw.args) if isinstance(fw, Wedge) else 1
        assert n_summands == copies - 1
        assert r.params["copies"] == copies
        assert r.provenance == ("polyhedral-fold-splitting",)


def test_poly_fold_with_explicit_base_gets_a_series():
    spec = GluingSpec(path_graph(2), (0,), (2,), (2, 1, 0), copies=3)
    r = poly_fold_decompose(
        spec, GENERIC_VERTEX_SPACE, Loop(Sphere(2)), base_loop=Loop(Sphere(2)), n=6
    )
    assert r.series is not None
    assert r.series == poincare_series(r.total, 6)


def test_path_decompose_against_both_oracles():
    for l in range(1, 7):
        r = path_decompose(l, n=16, max_dim=max(l + 2, 3))
        assert r.series == koszul_loop_series(path_graph(l), 16), l
    for l in range(2, 7):
        r = path_decompose(l, n=8, max_dim=l + 2)
        assert r.spheres["ZPl"].counts == zk_sphere_multiset(path_graph(l)).counts, l


def test_path_decompose_shape():
    r = path_decompose(3)
    assert r.family == "P_l"
    assert [name for name, _ in r.factors] == ["circles", "loop-path-fibre"]
    assert r.provenance == (
        "cone-fibration-splitting",
        "path-to-points-reduction",
        "porter-fibre",
    )
    assert not r.spheres["ZPl"].truncated


def test_path_decompose_validation():
    with pytest.raises(InvalidParameters):
        path_decompose(0)
    with pytest.raises(InvalidParameters):
        path_decompose(2, max_dim=1)


def test_dj_book_matches_koszul():
    for l, p in [(2, 2), (2, 3), (3, 2), (4, 2), (3, 3)]:
        r = dj_book_decompose(l, p, n=14, max_dim=14)
        assert r.series == koszul_loop_series(planar_book(l, p), 14), (l, p)


def test_dj_book_series_exact_beyond_sphere_ceiling():
    # the series must stay exact even when the sphere report is truncated
    r = dj_book_decompose(3, 2, n=16, max_dim=12)
    assert r.spheres["fibre"].truncated
    assert r.series == koszul_loop_series(planar_book(3, 2), 16)


def test_dj_book_small_page_fibres():
    r = dj_book_decompose(2, 2, n=8, max_dim=8)
    assert r.spheres["fibre"].counts == {2: 2}
    assert not r.spheres["fibre"].truncated
    assert "endpoint-join-reduction" in r.provenance
    r3 = dj_book_decompose(3, 2, n=8, max_dim=8)
    assert "james-splitting" in r3.provenance
    assert "book-sphere-decomposition" in r3.provenance


def test_dj_book_validation_and_ceiling():
    with pytest.raises(InvalidParameters):
        dj_book_decompose(1, 2)
    with pytest.raises(InvalidParameters):
        dj_book_decompose(2, 1)
    with pytest.raises(CeilingExceededError):
        # every page fibre sphere sits above dimension 2 for l = 3
        dj_book_decompose(3, 2, n=8, max_dim=2)


def test_book_decompose_symbolic():
    r = book_decompose_symbolic(1, 3, 2)
    assert r.series is None and r.spheres is None
    assert r.family == "B(n,l,p)"
    assert r.params == {"n": 1, "l": 3, "p": 2, "N": 16}
    with pytest.raises(InvalidParameters):
        book_decompose_symbolic(2, 3, 2)


def test_total_is_the_normalized_product_of_the_factors():
    spec = GluingSpec(path_graph(2), (0,), (2,), (2, 1, 0), copies=3)
    results = [
        cone_loop_split(1, cp_infinity(), zk=POINT, n=6),
        cone_loop_split(3, GENERIC_VERTEX_SPACE, zk=porter_wedge(3, circles=False), n=6),
        fold_decompose(1, Sphere(2), Loop(Sphere(2)), n=6),
        fold_decompose(4, GENERIC_VERTEX_SPACE, Loop(GENERIC_VERTEX_SPACE), n=6),
        poly_fold_decompose(spec, GENERIC_VERTEX_SPACE, Loop(Sphere(2))),
        poly_fold_decompose(
            spec, GENERIC_VERTEX_SPACE, Loop(Sphere(2)), base_loop=Loop(Sphere(2))
        ),
        path_decompose(1),
        path_decompose(2),
        path_decompose(7, max_dim=9),
        dj_book_decompose(2, 2),
        dj_book_decompose(3, 3),
        book_decompose_symbolic(1, 3, 2),
        book_decompose_symbolic(2, 5, 4),
    ]
    for r in results:
        assert r.total == normalize(Prod(tuple(e for _, e in r.factors))), r.family


def test_decomp_result_json_shape():
    obj = path_decompose(2, n=4, max_dim=6).to_json_obj()
    assert obj["family"] == "P_l"
    assert obj["l"] == 2
    assert obj["spheres"] == {"ZPl": {"3": 1}}
    assert obj["spheres_truncated"] == {"ZPl": False}
    assert obj["series"] == {"N": 4, "coeffs": [1, 3, 4, 4, 4]}
    assert all(set(f) == {"name", "term"} for f in obj["factors"])
    assert obj["provenance"][0] == "cone-fibration-splitting"
